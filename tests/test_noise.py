import numpy as np
import pytest
from scipy import stats

from spdelab.noise import NoiseStream


class TestDeterminism:
    def test_same_address_same_draws(self):
        a = NoiseStream(seed=42, width=8).normals(3, 100, 8)
        b = NoiseStream(seed=42, width=8).normals(3, 100, 8)
        np.testing.assert_array_equal(a, b)

    def test_distinct_paths_differ(self):
        s = NoiseStream(seed=42, width=8)
        assert not np.array_equal(s.normals(0, 50, 8), s.normals(1, 50, 8))

    def test_distinct_seeds_differ(self):
        a = NoiseStream(seed=1, width=8).normals(0, 50, 8)
        b = NoiseStream(seed=2, width=8).normals(0, 50, 8)
        assert not np.array_equal(a, b)

    def test_mode_slice_is_prefix_of_full_width(self):
        # the first n_modes columns must not depend on how many modes are read,
        # so truncation levels share draws mode for mode
        s = NoiseStream(seed=7, width=16)
        full = s.normals(5, 40, 16)
        np.testing.assert_array_equal(s.normals(5, 40, 4), full[:, :4])

    def test_batch_reader_chunks_match_flat_reads(self):
        s = NoiseStream(seed=9, width=6)
        for n_modes in (6, 4):
            reader = s.open([2, 5, 11])
            first = reader.draw(30, n_modes)
            second = reader.draw(20, n_modes)
            for row, pid in enumerate([2, 5, 11]):
                flat = NoiseStream(seed=9, width=6).normals(pid, 50, 6)
                np.testing.assert_array_equal(first[row], flat[:30, :n_modes])
                np.testing.assert_array_equal(second[row], flat[30:, :n_modes])

    @pytest.mark.parametrize("seed", [0, 1, 2**63, 2**63 + 1, 2**64 - 1, -1])
    def test_stream_is_philox_keyed_by_seed_and_path(self, seed):
        # key words (seed mod 2^64, path id), given as an exact uint64 array
        for pid in (0, 3, 2**40):
            key = np.array([seed & (2**64 - 1), pid], dtype=np.uint64)
            ref = np.random.Generator(np.random.Philox(key=key)).standard_normal(64)
            np.testing.assert_array_equal(
                NoiseStream(seed, width=4).generator(pid).standard_normal(64), ref)


class TestDistribution:
    def test_moments(self):
        z = NoiseStream(seed=123, width=10).normals(0, 10_000, 10).ravel()
        m = z.size
        assert abs(z.mean()) < 4 / np.sqrt(m)
        assert abs(z.var() - 1.0) < 4 * np.sqrt(2.0 / m)
        assert abs(stats.skew(z)) < 4 * np.sqrt(6.0 / m)

    def test_normality_ks(self):
        z = NoiseStream(seed=321, width=4).normals(1, 5_000, 4).ravel()
        assert stats.kstest(z, "norm").pvalue > 1e-4

    def test_uncorrelated_across_lags_and_modes(self):
        z = NoiseStream(seed=55, width=6).normals(3, 20_000, 6)
        m = z.shape[0]
        # lag-1 in time, per mode
        for j in range(6):
            r = np.corrcoef(z[:-1, j], z[1:, j])[0, 1]
            assert abs(r) < 4 / np.sqrt(m)
        # across modes
        for j in range(1, 6):
            r = np.corrcoef(z[:, 0], z[:, j])[0, 1]
            assert abs(r) < 4 / np.sqrt(m)

    def test_uncorrelated_across_paths(self):
        s = NoiseStream(seed=77, width=2)
        a = s.normals(0, 20_000, 2).ravel()
        b = s.normals(1, 20_000, 2).ravel()
        assert abs(np.corrcoef(a, b)[0, 1]) < 4 / np.sqrt(a.size)


def test_rejects_overwide_read():
    with pytest.raises(ValueError):
        NoiseStream(seed=1, width=4).normals(0, 10, 8)

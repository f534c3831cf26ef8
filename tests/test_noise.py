import numpy as np
import pytest
from scipy import stats

from spdelab.noise import NoiseStream


def normals(s: NoiseStream, path_id: int, n_steps: int, n_modes: int) -> np.ndarray:
    """Path ``path_id``'s (n_steps, n_modes) draw table, read through a batch reader."""
    return s.open([path_id]).draw(n_steps, n_modes)[0]


def splitmix64(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % 2**64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2**64
    return z ^ (z >> 31)


class TestDeterminism:
    def test_same_address_same_draws(self):
        a = normals(NoiseStream(seed=42, width=8), 3, 100, 8)
        b = normals(NoiseStream(seed=42, width=8), 3, 100, 8)
        np.testing.assert_array_equal(a, b)

    def test_distinct_paths_differ(self):
        s = NoiseStream(seed=42, width=8)
        assert not np.array_equal(normals(s, 0, 50, 8), normals(s, 1, 50, 8))

    def test_distinct_seeds_differ(self):
        a = normals(NoiseStream(seed=1, width=8), 0, 50, 8)
        b = normals(NoiseStream(seed=2, width=8), 0, 50, 8)
        assert not np.array_equal(a, b)

    def test_mode_slice_is_prefix_of_full_width(self):
        # the first n_modes columns must not depend on how many modes are read,
        # so truncation levels share draws mode for mode
        s = NoiseStream(seed=7, width=16)
        full = normals(s, 5, 40, 16)
        np.testing.assert_array_equal(normals(s, 5, 40, 4), full[:, :4])

    def test_batch_reader_chunks_match_flat_reads(self):
        s = NoiseStream(seed=9, width=6)
        for n_modes in (6, 4):
            reader = s.open([2, 5, 11])
            first = reader.draw(30, n_modes)
            second = reader.draw(20, n_modes)
            for row, pid in enumerate([2, 5, 11]):
                flat = normals(NoiseStream(seed=9, width=6), pid, 50, 6)
                np.testing.assert_array_equal(first[row], flat[:30, :n_modes])
                np.testing.assert_array_equal(second[row], flat[30:, :n_modes])

    @pytest.mark.parametrize("seed", [0, 1, 2**63, 2**63 + 1, 2**64 - 1, -1])
    def test_stream_is_sfc64_keyed_by_seed_and_path(self, seed):
        # state words a = mix(seed + gamma), b = mix(pid + 2 gamma), c = mix(a ^ b)
        # and counter 1, then SFC64's twelve warm-up outputs
        gamma = 0x9E3779B97F4A7C15
        a = splitmix64((seed + gamma) % 2**64)
        for pid in (0, 3, 2**40):
            b = splitmix64((pid + 2 * gamma) % 2**64)
            bits = np.random.SFC64(0)
            bits.state = {"bit_generator": "SFC64", "has_uint32": 0, "uinteger": 0,
                          "state": {"state": np.array([a, b, splitmix64(a ^ b), 1],
                                                      dtype=np.uint64)}}
            bits.random_raw(12)
            ref = np.random.Generator(bits).standard_normal(64)
            np.testing.assert_array_equal(
                NoiseStream(seed, width=4).generator(pid).standard_normal(64), ref)


class TestDistribution:
    def test_moments(self):
        z = normals(NoiseStream(seed=123, width=10), 0, 10_000, 10).ravel()
        m = z.size
        assert abs(z.mean()) < 4 / np.sqrt(m)
        assert abs(z.var() - 1.0) < 4 * np.sqrt(2.0 / m)
        assert abs(stats.skew(z)) < 4 * np.sqrt(6.0 / m)

    def test_normality_ks(self):
        z = normals(NoiseStream(seed=321, width=4), 1, 5_000, 4).ravel()
        assert stats.kstest(z, "norm").pvalue > 1e-4

    def test_uncorrelated_across_lags_and_modes(self):
        z = normals(NoiseStream(seed=55, width=6), 3, 20_000, 6)
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
        a = normals(s, 0, 20_000, 2).ravel()
        b = normals(s, 1, 20_000, 2).ravel()
        assert abs(np.corrcoef(a, b)[0, 1]) < 4 / np.sqrt(a.size)

    @pytest.mark.parametrize("streams", ["paths", "seeds"])
    def test_adjacent_streams_uncorrelated(self, streams):
        # 256 streams at adjacent path ids, or at adjacent seeds across the
        # 2^64 wrap; every pairwise correlation of 2,000 draws stays within
        # a Bonferroni-corrected 4 sigma over the 256 * 255 / 2 pairs
        m, ids = 2_000, np.arange(256)
        if streams == "paths":
            z = NoiseStream(seed=13, width=1).open(ids).draw(m, 1)[:, :, 0]
        else:
            z = np.array([NoiseStream(seed=s, width=1).generator(5).standard_normal(m)
                          for s in ids - 128])
        r = np.corrcoef(z)[np.triu_indices(ids.size, 1)]
        bound = stats.norm.isf(stats.norm.sf(4.0) / r.size) / np.sqrt(m)
        assert np.abs(r).max() < bound


def test_rejects_overwide_read():
    with pytest.raises(ValueError):
        NoiseStream(seed=1, width=4).open([0]).draw(10, 8)

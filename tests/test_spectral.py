import math

import numpy as np
import pytest

from spdelab.reaction import _SineTransform
from spdelab.simulate import ou_exact
from spdelab.spectral import EigenSpectrum, RectDomain, eigenvalue, unit_interval

UNIT = unit_interval()
SQUARE = RectDomain(sides=((0.0, 1.0), (0.0, 1.0)))


class TestEigenvalue:
    def test_first_dirichlet_mode(self):
        assert eigenvalue(UNIT, 1.0, (1,)) == pytest.approx(math.pi**2, rel=1e-15)

    def test_fractional_power(self):
        assert eigenvalue(UNIT, 2.0, (2,)) == pytest.approx(16 * math.pi**4, rel=1e-14)

    def test_square_symmetry(self):
        assert eigenvalue(SQUARE, 1.0, (1, 1)) == pytest.approx(2 * math.pi**2, rel=1e-15)

    def test_d1_exact_power_law(self):
        # lambda_m = (m pi)^(2 alpha) on the unit interval; bitwise equal in the
        # ((m pi)^2)^alpha evaluation order
        for alpha in (0.75, 1.0, 2.0):
            for m in range(1, 20):
                lam = eigenvalue(UNIT, alpha, (m,))
                assert lam == ((m * math.pi) ** 2) ** alpha
                assert lam == pytest.approx((m * math.pi) ** (2 * alpha), rel=1e-13)

    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError, match=r"multi-index entries must be >= 1"):
            eigenvalue(UNIT, 1.0, (0,))

    def test_rejects_bad_domain(self):
        with pytest.raises(ValueError, match=r"side \(1\.0, 1\.0\) has non-positive length"):
            RectDomain(sides=((1.0, 1.0),))


def sine_table(domain, modes, q):
    """(cell volume, S): the eigenfunctions of ``modes`` sampled on the q^d interior grid."""
    tf = _SineTransform(domain, np.array(modes), q)
    return tf.cell, tf.S


class TestEigenfunction:
    # q = 3 puts the midpoint 0.5 of the unit interval at grid column 1
    def test_sine_peak(self):
        _, S = sine_table(UNIT, [(1,)], 3)
        assert S[0, 1] == pytest.approx(math.sqrt(2), rel=1e-15)

    def test_node(self):
        _, S = sine_table(UNIT, [(2,)], 3)
        assert S[0, 1] == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("m", [1, 2, 3, 7])
    @pytest.mark.parametrize("domain", [UNIT, RectDomain(sides=((0.0, 2.5),))])
    def test_l2_normalized_1d(self, m, domain):
        cell, S = sine_table(domain, [(m,)], 64 * m)
        quad = cell * S[0] @ S[0]
        assert quad == pytest.approx(1.0, abs=1e-6)

    def test_l2_normalized_2d(self):
        m = (2, 3)
        cell, S = sine_table(SQUARE, [m], 64 * max(m))
        assert cell * S[0] @ S[0] == pytest.approx(1.0, abs=1e-6)


def heat_factor(t, lam):
    """e^{-lambda t}: the mean of the exact OU transition started at 1."""
    return float(ou_exact(1.0, t, np.atleast_1d(lam), 1.0)[0][0])


class TestSemigroupFactor:
    def test_identity_at_zero(self):
        assert heat_factor(0.0, 123.4) == 1.0

    def test_kernel_mode(self):
        assert heat_factor(7.0, 0.0) == 1.0

    def test_value(self):
        assert heat_factor(1.0, math.pi**2) == pytest.approx(math.exp(-math.pi**2), rel=1e-14)

    def test_negative_time(self):
        with pytest.raises(ValueError, match=r"t must be non-negative"):
            heat_factor(-0.1, 1.0)

    def test_semigroup_property(self, rng):
        for _ in range(50):
            s, t = rng.uniform(0, 3, size=2)
            lam = rng.uniform(0, 50)
            lhs = heat_factor(s + t, lam)
            rhs = heat_factor(s, lam) * heat_factor(t, lam)
            assert lhs == pytest.approx(rhs, rel=1e-14)


class TestSpectrumEnumeration:
    def test_d1_spectrum(self):
        sp = EigenSpectrum.synthesize(UNIT, 2.0, 8)
        expect = np.array([(m * math.pi) ** 4 for m in range(1, 9)])
        np.testing.assert_allclose(sp.lambdas, expect, rtol=1e-14)

    @pytest.mark.parametrize("L", [1.0, 2.5])
    @pytest.mark.parametrize("alpha", [0.6, 2.0, 2.7])
    @pytest.mark.parametrize("n", [1, 16, 4096])
    def test_d1_spectrum_is_the_eigenvalue_sequence(self, L, alpha, n):
        # the box search serves d = 1 too: modes 1..n, eigenvalues bit for bit
        domain = RectDomain(sides=((0.0, L),))
        sp = EigenSpectrum.synthesize(domain, alpha, n)
        m = np.arange(1, n + 1)
        np.testing.assert_array_equal(sp.modes[:, 0], m)
        np.testing.assert_array_equal(sp.lambdas, eigenvalue(domain, alpha, m[:, None]))

    def test_d2_energy_order_with_lex_ties(self):
        sp = EigenSpectrum.synthesize(SQUARE, 1.0, 6)
        # modes of the unit square in energy order; ties (1,2)/(2,1) broken
        # lexicographically
        assert [tuple(m) for m in sp.modes] == [(1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 1)]
        assert np.all(np.diff(sp.lambdas) >= 0)

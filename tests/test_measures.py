import math

import numpy as np
import pytest
from scipy import integrate, special

from supcbi.measures import (
    GammaMixingMeasure,
    TemperedStableLevy,
    inv_mean,
    levy_moment,
    pi_quantile,
    reg_lower_gamma,
    reg_upper_gamma,
)


class TestIncompleteGamma:
    def test_matches_scipy_on_grid(self):
        for a in (0.2, 0.6, 1.0, 2.329, 7.5, 40.0):
            for x in (0.0, 1e-6, 0.1, 1.0, a, a + 1.0, 5.0 * a, 200.0):
                assert reg_lower_gamma(a, x) == pytest.approx(special.gammainc(a, x), abs=1e-13)
                assert reg_upper_gamma(a, x) == pytest.approx(special.gammaincc(a, x), abs=1e-13)

    def test_complement(self):
        for a in (0.3, 1.7, 9.0):
            for x in (0.5, 3.0, 30.0):
                assert reg_lower_gamma(a, x) + reg_upper_gamma(a, x) == pytest.approx(1.0, abs=1e-14)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            reg_lower_gamma(0.0, 1.0)
        with pytest.raises(ValueError):
            reg_upper_gamma(1.0, -0.5)


class TestGammaMixingMeasure:
    def test_validation(self):
        with pytest.raises(ValueError):
            GammaMixingMeasure(alpha=1.0, beta=1.0)
        with pytest.raises(ValueError):
            GammaMixingMeasure(alpha=2.0, beta=0.0)

    def test_cdf_pdf_consistency(self):
        pi = GammaMixingMeasure(alpha=2.329, beta=0.063)
        for r in (0.01, 0.1, 0.3):
            num, _ = integrate.quad(pi.pdf, 0.0, r)
            assert pi.cdf(r) == pytest.approx(num, rel=1e-7)

    def test_inv_mean_against_quadrature(self):
        pi = GammaMixingMeasure(alpha=1.8, beta=0.7)
        num, _ = integrate.quad(lambda r: pi.pdf(r) / r, 0.0, np.inf)
        assert inv_mean(pi) == pytest.approx(num, rel=1e-10)

    def test_quantile_against_scipy(self):
        pi = GammaMixingMeasure(alpha=2.0, beta=1.0)
        # median of the unit-scale shape-2 Gamma distribution
        assert pi_quantile(pi, 0.5) == pytest.approx(1.67835, abs=1e-5)
        for p in (0.01, 0.2, 0.5, 0.9, 0.999):
            for alpha, beta in ((1.8, 1.0), (2.2, 0.05), (3.5, 4.0), (1e6, 1e-6), (1e8, 2.0)):
                g = GammaMixingMeasure(alpha=alpha, beta=beta)
                expected = beta * special.gammaincinv(alpha, p)
                assert pi_quantile(g, p) == pytest.approx(expected, rel=1e-10)

    def test_quantile_endpoints(self):
        pi = GammaMixingMeasure(alpha=2.0, beta=1.0)
        assert pi_quantile(pi, 0.0) == 0.0
        assert pi_quantile(pi, 1.0) == math.inf
        with pytest.raises(ValueError):
            pi_quantile(pi, -0.1)

    def test_quantile_of_array(self):
        pi = GammaMixingMeasure(alpha=2.2, beta=0.3)
        levels = np.array([0.0, 0.1, 0.5, 0.9, 1.0])
        theta = pi_quantile(pi, levels)
        assert isinstance(theta, np.ndarray)
        assert theta.tolist() == [pi_quantile(pi, p) for p in levels]
        assert isinstance(pi_quantile(pi, 0.5), float)
        with pytest.raises(ValueError):
            pi_quantile(pi, np.array([0.5, 1.5]))
        with pytest.raises(ValueError):
            pi_quantile(pi, np.array([0.5, np.nan]))


class TestTemperedStableLevy:
    def test_validation(self):
        with pytest.raises(ValueError):
            TemperedStableLevy(c1=1.0, c2=1.0)
        with pytest.raises(ValueError):
            TemperedStableLevy(c1=0.5, c2=0.0)

    def test_moments_closed_form(self):
        # Gamma(0.5) = sqrt(pi) appears for c1 = 0.5, k = 1
        nu = TemperedStableLevy(c1=0.5, c2=1.0)
        assert levy_moment(nu, 1) == pytest.approx(math.sqrt(math.pi), rel=1e-14)

    def test_moment_order_validation(self):
        nu = TemperedStableLevy(c1=0.5, c2=1.0)
        for k in (0, -1, 1.5):
            with pytest.raises(ValueError):
                levy_moment(nu, k)
            with pytest.raises(ValueError):
                nu.truncated_moment(k, 0.1)

    @pytest.mark.parametrize("c1", [-0.5, 0.0, 0.3, 0.772])
    def test_moments_against_quadrature(self, c1):
        nu = TemperedStableLevy(c1=c1, c2=1.3)
        for k in (1, 2, 3, 4):
            num, _ = integrate.quad(
                lambda z: z**k * math.exp(-nu.c2 * z) * z ** (-(1.0 + c1)), 0.0, np.inf
            )
            assert levy_moment(nu, k) == pytest.approx(num, rel=1e-9)

    @pytest.mark.parametrize("c1", [-0.5, 0.0, 0.3, 0.772])
    def test_truncated_moment_against_quadrature(self, c1):
        nu = TemperedStableLevy(c1=c1, c2=0.8)
        for eps in (1e-3, 0.1, 1.0):
            for k in (1, 2, 3, 4):
                num, _ = integrate.quad(
                    lambda z: z**k * math.exp(-nu.c2 * z) * z ** (-(1.0 + c1)), eps, np.inf
                )
                assert nu.truncated_moment(k, eps) == pytest.approx(num, rel=1e-9)
        for k in (1, 2, 3, 4):
            assert nu.truncated_moment(k, 0.0) == levy_moment(nu, k)

    @pytest.mark.parametrize("c1", [-0.5, 0.0, 0.3, 0.772])
    def test_tail_mass_against_quadrature(self, c1):
        nu = TemperedStableLevy(c1=c1, c2=0.8)
        for eps in (1e-4, 1e-2, 0.5, 2.0):
            num, _ = integrate.quad(
                lambda z: math.exp(-nu.c2 * z) * z ** (-(1.0 + c1)), eps, np.inf
            )
            assert nu.tail_mass(eps) == pytest.approx(num, rel=1e-8)

    def test_truncation_bias_monotone(self):
        nu = TemperedStableLevy(c1=0.4, c2=1.0)
        biases = [nu.truncation_bias(eps) for eps in (1e-1, 1e-2, 1e-3, 1e-4)]
        assert all(b > 0.0 for b in biases)
        assert biases == sorted(biases, reverse=True)
        assert nu.truncation_bias(0.0) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("c1", [-0.5, 0.0, 0.3])
    def test_sampler_mean_matches_truncated_density(self, c1):
        nu = TemperedStableLevy(c1=c1, c2=1.0)
        eps = 0.05
        rng = np.random.default_rng(5)
        z = nu.sample_truncated(eps, 40000, rng)
        assert np.all(z >= eps)
        expected = nu.truncated_moment(1, eps) / nu.tail_mass(eps)
        se = z.std(ddof=1) / math.sqrt(z.size)
        assert abs(z.mean() - expected) < 4.0 * se

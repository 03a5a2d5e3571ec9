import math
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import integrate, special, stats

from supcbi import measures
from supcbi.measures import (
    GammaMixingMeasure,
    TemperedStableLevy,
    _scaled_upper_gamma,
    inv_mean,
    levy_moment,
    pi_quantile,
)


class TestGammaMixingMeasure:
    def test_validation(self):
        with pytest.raises(ValueError):
            GammaMixingMeasure(alpha=1.0, beta=1.0)
        with pytest.raises(ValueError):
            GammaMixingMeasure(alpha=2.0, beta=0.0)

    def test_inv_mean_against_quadrature(self):
        pi = GammaMixingMeasure(alpha=1.8, beta=0.7)
        pdf = stats.gamma(pi.alpha, scale=pi.beta).pdf
        num, _ = integrate.quad(lambda r: pdf(r) / r, 0.0, np.inf)
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


    @pytest.mark.parametrize("cores", [1, 2, 3])
    def test_split_quantiles_keep_the_bits_of_one_call(self, monkeypatch, cores):
        # the lift's levels at m = 12..16 are split over the cores, unevenly
        # over three; below 4096 levels, and on one core, there is one call
        submitted = []
        submit = measures._pool.submit
        monkeypatch.setattr(measures, "_cores", lambda: cores)
        monkeypatch.setattr(measures._pool, "submit", lambda *args, **kw: submitted.append(1) or submit(*args, **kw))
        pi = GammaMixingMeasure(alpha=2.329, beta=0.06298)
        for m in range(17):
            n = 2**m
            levels = (2.0 * np.arange(1, n + 1) - 1.0) / (2.0 * n)
            expected = pi.beta * special.gammaincinv(pi.alpha, levels)
            assert pi_quantile(pi, levels).tobytes() == expected.tobytes()
        assert len(submitted) == sum(min(cores, 2**m // 2048) - 1 for m in range(12, 17))

    def test_concurrent_callers_share_one_pool(self, monkeypatch):
        # more callers than cores split at once; the chunks that leave a
        # caller's thread all run on the one pool's threads, at most its cap
        cap = max(measures._cores() - 1, 1)
        chunk_threads = []
        monkeypatch.setattr(measures, "_cores", lambda: 3)
        monkeypatch.setattr(measures, "gammaincinv", lambda a, x, out=None: chunk_threads.append(
            threading.current_thread().name) or special.gammaincinv(a, x, out=out))
        pi = GammaMixingMeasure(alpha=2.1, beta=0.8)
        levels = (2.0 * np.arange(1, 8193) - 1.0) / 16384.0
        expected = (pi.beta * special.gammaincinv(pi.alpha, levels)).tobytes()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(6, thread_name_prefix="caller") as callers:
                got = list(callers.map(lambda _: pi_quantile(pi, levels).tobytes(), range(24)))
        finally:
            sys.setswitchinterval(interval)
        assert got == [expected] * 24
        pool_threads = [name for name in chunk_threads if not name.startswith("caller")]
        assert len(chunk_threads) == 72 and len(pool_threads) == 48
        assert all(name.startswith("supcbi-ufunc") for name in pool_threads)
        assert len(set(pool_threads)) <= cap

    def test_one_split_uses_at_most_a_thread_per_spare_core(self):
        # the caller fills one chunk of an m = 13 split and the pool the rest
        threads = set()

        def ufunc(a, x, out=None):
            threads.add(threading.get_ident())
            return special.gammaincinv(a, x, out=out)

        levels = (2.0 * np.arange(1, 8193) - 1.0) / 16384.0
        got = measures._split_ufunc(ufunc, 2.329, levels)
        assert got.tobytes() == special.gammaincinv(2.329, levels).tobytes()
        assert len(threads - {threading.get_ident()}) <= measures._cores() - 1


class TestTemperedStableLevy:
    def test_validation(self):
        with pytest.raises(ValueError):
            TemperedStableLevy(c1=1.0, c2=1.0)
        with pytest.raises(ValueError):
            TemperedStableLevy(c1=0.5, c2=0.0)

    @pytest.mark.parametrize("eps", [0.0, -1e-3])
    def test_truncation_level_outside_the_domain_rejected(self, eps):
        # M_k(0) is the full moment; the tail mass and the sampler need eps > 0
        nu = TemperedStableLevy(c1=0.4, c2=1.3)
        if eps < 0.0:
            with pytest.raises(ValueError, match="nonnegative"):
                nu.truncated_moment(1, eps)
        with pytest.raises(ValueError, match="positive truncation level"):
            nu.tail_mass(eps)
        with pytest.raises(ValueError, match="positive truncation level"):
            nu.sample_truncated(eps, 5, np.random.default_rng(0))

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

    @pytest.mark.parametrize("c1, x", [(0.01, 1.0), (0.01, 0.5), (0.02, 1.0)])
    def test_tail_mass_for_small_positive_c1_is_near_exact(self, c1, x):
        # the recurrence Gamma(-c1, x) = (x^-c1 e^-x - Gamma(1 - c1, x)) / c1,
        # once used for c1 >= 1e-2 and x <= 1, was 4e-14 to 8.5e-14 off here
        with mpmath.workdps(40):
            exact = float(mpmath.gammainc(-c1, x))
        assert TemperedStableLevy(c1=c1, c2=1.0).tail_mass(x) == pytest.approx(exact, rel=1e-14, abs=0.0)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        c1=st.one_of(
            st.floats(-2.0, 0.0, exclude_min=True, exclude_max=True),
            st.just(0.0),
            st.floats(-16.0, -2.0, exclude_max=True).map(lambda e: 10.0**e),
            st.floats(1e-2, 1.0, exclude_max=True),
        ),
        log_c2=st.floats(-2.0, 2.0),
        log_x=st.floats(-11.0, math.log10(700.0)),
    )
    @example(c1=0.0127, log_c2=0.0, log_x=math.log10(700.0))  # a recurrence was 5.6e-10 off here
    @example(c1=-5e-324, log_c2=0.0, log_x=0.0)  # gamma(-c1) overflows here
    def test_tail_mass_against_mpmath(self, c1, log_c2, log_x):
        # every c1 branch, with c2 * eps from 1e-11 to 700
        c2 = 10.0**log_c2
        eps = 10.0**log_x / c2
        with mpmath.workdps(40):
            exact = float(mpmath.gammainc(-c1, c2 * eps) * mpmath.mpf(c2) ** c1)
        got = TemperedStableLevy(c1=c1, c2=c2).tail_mass(eps)
        assert got == pytest.approx(exact, rel=1e-11, abs=0.0)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        c1=st.one_of(
            st.floats(-2.0, 0.0, exclude_min=True, exclude_max=True),
            st.just(0.0),
            st.floats(-16.0, -2.0, exclude_max=True).map(lambda e: 10.0**e),
            st.floats(1e-2, 1.0, exclude_max=True),
        ),
        log_c2=st.floats(-2.0, 2.0),
        log_x=st.floats(-12.0, 1.0),
    )
    # M1 - M1(eps) was 3.6e-3 off here
    @example(c1=-0.6, log_c2=math.log10(4.4e-3), log_x=math.log10(4.4e-9))
    def test_truncation_bias_against_mpmath(self, c1, log_c2, log_x):
        # every c1 branch, with c2 * eps from 1e-12 to 10
        c2 = 10.0**log_c2
        eps = 10.0**log_x / c2
        with mpmath.workdps(40):
            mc1, mc2 = mpmath.mpf(c1), mpmath.mpf(c2)
            exact = float(mpmath.gammainc(1 - mc1, 0, mc2 * eps) * mc2 ** (mc1 - 1))
        got = TemperedStableLevy(c1=c1, c2=c2).truncation_bias(eps)
        assert got == pytest.approx(exact, rel=1e-13, abs=0.0)

    def test_truncation_bias_monotone(self):
        nu = TemperedStableLevy(c1=0.4, c2=1.0)
        biases = [nu.truncation_bias(eps) for eps in (1e-1, 1e-2, 1e-3, 1e-4)]
        assert all(b > 0.0 for b in biases)
        assert biases == sorted(biases, reverse=True)
        assert nu.truncation_bias(0.0) == pytest.approx(0.0, abs=1e-15)
        with pytest.raises(ValueError):
            nu.truncation_bias(-1e-3)

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

    @pytest.mark.parametrize("c1", [1e-5, 1e-3, 0.05])
    def test_small_positive_c1_sampler_follows_the_conditional_law(self, c1):
        # c1 = 1e-5 and 1e-3 lie below c2 * eps and take the exponential
        # proposal; c1 = 0.05 takes the Pareto one
        c2, eps = 1.0, 1e-2
        z = TemperedStableLevy(c1=c1, c2=c2).sample_truncated(eps, 2000, np.random.default_rng(3))
        assert np.all(z >= eps)
        with mpmath.workdps(20):
            tail = mpmath.gammainc(-c1, c2 * eps)
            cdf = np.vectorize(lambda v: float(1 - mpmath.gammainc(-c1, c2 * v) / tail))
            assert stats.kstest(z, cdf).pvalue > 1e-3

    @pytest.mark.parametrize(
        "c1, c2, eps", [(0.0, 1.3, 1e-12), (1e-12, 1.3, 1e-12), (1e-4, 1.0, 1e-6), (0.0, 1.0, 1e-300)]
    )
    def test_tiny_c1_and_c2_eps_sampler_follows_the_conditional_law(self, c1, c2, eps):
        # both rejection proposals accept below 1e-2 here (3.5e-11 at the first
        # two, where the sampler did not return); the envelope draws accept 1/e or more
        nu = TemperedStableLevy(c1=c1, c2=c2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            z = nu.sample_truncated(eps, 2000, np.random.default_rng(6))
        assert np.all(z >= eps)
        with mpmath.workdps(30):
            tail = mpmath.gammainc(-c1, c2 * eps)
            cdf = np.vectorize(lambda v: float(1 - mpmath.gammainc(-c1, c2 * v) / tail))
            assert stats.kstest(z, cdf).pvalue > 1e-3

    @pytest.mark.parametrize("c1, eps", [(1e-5, 1e-2), (2e-3, 1e-3)])
    def test_small_positive_c1_sampler_raises_no_warning(self, c1, eps):
        # (2e-3, 1e-3) takes the Pareto proposal, whose z overflows in most draws
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            z = TemperedStableLevy(c1=c1, c2=1.0).sample_truncated(eps, 1000, np.random.default_rng(4))
        assert z.size == 1000 and np.all(np.isfinite(z))

    @pytest.mark.parametrize("c1, c2, eps", [(0.4, 1.3, 1e-3), (0.05, 1.0, 1e-2), (2e-3, 1.0, 1e-3), (0.9, 0.2, 0.5)])
    @pytest.mark.parametrize("size", [0, 1, 20, 500, 5000])
    def test_pareto_rounds_draw_the_two_call_stream(self, c1, c2, eps, size):
        # a round's proposals and acceptance uniforms come from one call; the
        # bits and the generator state are those of one call for each
        def two_calls(rng):
            out, filled = np.empty(size), 0
            while filled < size:
                batch = max(2 * (size - filled), 64)
                with np.errstate(over="ignore", divide="ignore"):
                    z = eps * rng.uniform(size=batch) ** (-1.0 / c1)
                z = z[rng.uniform(size=batch) < np.exp(-c2 * (z - eps))]
                take = min(z.size, size - filled)
                out[filled : filled + take] = z[:take]
                filled += take
            return out

        nu = TemperedStableLevy(c1=c1, c2=c2)
        assert c1 > c2 * eps  # the Pareto proposal
        for seed in range(3):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            assert nu.sample_truncated(eps, size, rng).tobytes() == two_calls(ref).tobytes()
            assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("c1, c2", [(-0.6, 1.0), (-1.0, 0.02), (-2.5, 3.0)])
    @pytest.mark.parametrize("eps", [1e-3, 0.5, 15.0, 25.0])
    def test_negative_c1_sampler_is_the_conditioned_gamma(self, c1, c2, eps):
        # the draws are Gamma(-c1, 1/c2) given z >= eps, also far in the tail:
        # at c1 = -0.6, c2 = 1, eps = 25 the tail probability is 2.5e-12, so
        # rejection from the full Gamma would need ~4e11 tries per draw
        nu = TemperedStableLevy(c1=c1, c2=c2)
        z = nu.sample_truncated(eps, 4000, np.random.default_rng(11))
        assert np.all(z >= eps)
        gamma = stats.gamma(-c1, scale=1.0 / c2)
        tail = gamma.sf(eps)
        assert stats.kstest(z, lambda v: (tail - gamma.sf(v)) / tail).pvalue > 1e-3
        expected = nu.truncated_moment(1, eps) / nu.tail_mass(eps)
        se = z.std(ddof=1) / math.sqrt(z.size)
        assert abs(z.mean() - expected) < 3.0 * se

    @pytest.mark.parametrize("cores", [1, 2, 3])
    def test_negative_c1_draws_do_not_depend_on_the_core_count(self, monkeypatch, cores):
        # 20,000 inverse-CDF draws are split over the cores after one call draws their uniforms
        monkeypatch.setattr(measures, "_cores", lambda: cores)
        nu, eps = TemperedStableLevy(c1=-0.6, c2=1.3), 1e-6
        rng, ref = np.random.default_rng(8), np.random.default_rng(8)
        tail = special.gammaincc(0.6, 1.3 * eps)
        expected = special.gammainccinv(0.6, (1.0 - ref.uniform(size=20000)) * tail) / 1.3
        assert nu.sample_truncated(eps, 20000, rng).tobytes() == expected.tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_negative_c1_sampler_rejects_an_underflowing_tail(self):
        nu = TemperedStableLevy(c1=-0.6, c2=1.0)
        with pytest.raises(ValueError, match="underflows"):
            nu.sample_truncated(1000.0, 5, np.random.default_rng(0))


class TestScaledUpperGamma:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(alpha=st.floats(1.001, 40.0), log_z=st.floats(-12.0, 4.0))
    @example(alpha=1.001, log_z=-12.0)
    def test_down_to_c_near_minus_one_against_mpmath(self, alpha, log_z):
        # GammaContinuum's T = z^c e^z Gamma(1-c, z) = z * _scaled_upper_gamma(c - 1, z)
        # with c = alpha - 1, so its first argument reaches down to -1 as alpha -> 1
        c, z = alpha - 1.0, 10.0**log_z
        with mpmath.workdps(50):
            mc, mz = mpmath.mpf(c), mpmath.mpf(z)
            exact = float(mz**mc * mpmath.exp(mz) * mpmath.gammainc(1 - mc, mz))
        assert z * _scaled_upper_gamma(c - 1.0, z) == pytest.approx(exact, rel=4e-15, abs=0.0)

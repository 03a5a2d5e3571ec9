import multiprocessing

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special

from supcbi.lift import (
    GammaContinuum,
    MarkovianLift,
    build_lift,
    convergence_report,
    format_convergence_table,
    write_lift_csv,
)
from supcbi import measures
from supcbi.measures import GammaMixingMeasure, inv_mean, pi_quantile


class TestBuildLift:
    def test_atoms_are_odd_quantiles(self):
        pi = GammaMixingMeasure(alpha=2.0, beta=1.0)
        lift = build_lift(pi, 3)
        n = 8
        expected = special.gammaincinv(2.0, (2.0 * np.arange(1, n + 1) - 1.0) / (2.0 * n))
        assert lift.r == pytest.approx(expected, rel=1e-10)
        assert lift.c == pytest.approx(np.full(n, 1.0 / n))

    def test_two_row_lift(self):
        lift = build_lift(GammaMixingMeasure(alpha=2.0, beta=1.0), 1)
        assert lift.n == 2

    def test_single_atom_is_the_median(self):
        pi = GammaMixingMeasure(alpha=2.0, beta=1.0)
        lift = build_lift(pi, 0)
        assert lift.n == 1
        assert lift.r[0] == pi_quantile(pi, 0.5)
        assert lift.c[0] == 1.0

    def test_invalid_resolution(self):
        with pytest.raises(ValueError):
            build_lift(GammaMixingMeasure(alpha=2.0, beta=1.0), -1)
        # 2^m atoms: at m = 40 the allocation alone would raise MemoryError
        with pytest.raises(ValueError, match=r"0\.\.16"):
            build_lift(GammaMixingMeasure(alpha=2.0, beta=1.0), 17)

    @pytest.mark.parametrize("alpha", [1e6, 1e8])
    def test_narrow_measure_rates_increase(self, alpha):
        # an exponential-like ACF fit lands here; the rates must stay ordered
        lift = build_lift(GammaMixingMeasure(alpha=alpha, beta=1.0 / alpha), 8)
        assert np.all(np.diff(lift.r) > 0.0)

    def test_scale_covariance(self):
        # quantiles scale linearly in beta, so R_n scales as 1/beta
        base = build_lift(GammaMixingMeasure(alpha=2.2, beta=1.0), 4)
        scaled = build_lift(GammaMixingMeasure(alpha=2.2, beta=0.25), 4)
        assert scaled.r == pytest.approx(0.25 * base.r, rel=1e-9)
        assert scaled.inv_mean == pytest.approx(4.0 * base.inv_mean, rel=1e-9)


def _build_split_lift() -> None:
    # the target of a forked child: exits 1 if the rates differ from one call's
    pi = GammaMixingMeasure(alpha=2.0, beta=1.0)
    levels = (2.0 * np.arange(1, 8193) - 1.0) / 16384.0
    if build_lift(pi, 13).r.tobytes() != special.gammaincinv(2.0, levels).tobytes():
        raise SystemExit(1)


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="no fork here")
def test_forked_child_builds_a_split_lift(monkeypatch):
    # the parent's pool has a worker thread when the child is forked; the
    # child has no such thread, so it must start its own pool
    monkeypatch.setattr(measures, "_cores", lambda: 2)
    build_lift(GammaMixingMeasure(alpha=2.0, beta=1.0), 13)
    child = multiprocessing.get_context("fork").Process(target=_build_split_lift)
    child.start()
    child.join(timeout=30.0)
    if child.is_alive():
        child.kill()
        child.join()
    assert child.exitcode == 0


class TestLiftValidation:
    def test_wrong_size(self):
        for r, c in (([1.0, 2.0], [1.0]), ([], []), ([[1.0, 2.0]], [[0.5, 0.5]])):
            with pytest.raises(ValueError):
                MarkovianLift(r=np.array(r), c=np.array(c))

    def test_non_increasing_rates(self):
        with pytest.raises(ValueError):
            MarkovianLift(r=np.array([2.0, 1.0]), c=np.array([0.5, 0.5]))

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            MarkovianLift(r=np.array([1.0, 2.0]), c=np.array([0.5, 0.6]))

    def test_singleton_allowed(self):
        lift = MarkovianLift(r=np.array([1.5]), c=np.array([1.0]))
        assert lift.n == 1

    def test_size_need_not_be_a_power_of_two(self):
        lift = MarkovianLift(r=np.array([0.5, 1.0, 4.0]), c=np.array([0.25, 0.25, 0.5]))
        assert lift.n == 3
        assert lift.inv_mean == pytest.approx(0.25 / 0.5 + 0.25 + 0.5 / 4.0)


class TestLiftConstants:
    @pytest.mark.parametrize("m", [0, 3, 10])
    def test_constants_keep_the_bits_of_the_direct_forms(self, m):
        lift = build_lift(GammaMixingMeasure(alpha=1.8, beta=0.7), m)
        assert lift.w.tobytes() == (lift.c / lift.r).tobytes()
        assert lift.inv_mean == float(np.sum(lift.c / lift.r))

    def test_arrays_are_read_only_copies(self):
        r = np.array([0.5, 1.0, 4.0])
        c = np.array([0.25, 0.25, 0.5])
        lift = MarkovianLift(r=r, c=c)
        for arr in (lift.r, lift.c, lift.w):
            with pytest.raises(ValueError):
                arr[0] = 1.0
        assert r.flags.writeable and c.flags.writeable
        r[0] = 0.1
        assert lift.r[0] == 0.5
        assert lift.inv_mean == 0.25 / 0.5 + 0.25 + 0.5 / 4.0

    def test_lifts_compare_and_hash_by_identity(self):
        # a generated __eq__ compared the arrays and raised "truth value ... ambiguous"
        pi = GammaMixingMeasure(alpha=2.0, beta=1.0)
        lift, twin = build_lift(pi, 2), build_lift(pi, 2)
        assert lift == lift
        assert (lift == twin) is False and (lift != twin) is True
        cache = {lift: "lift", twin: "twin"}
        assert cache[lift] == "lift" and cache[twin] == "twin"


class TestResolvent:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(1, 2000),
        seed=st.integers(0, 2**32 - 1),
        d=st.floats(0.01, 1.0),
        h=st.one_of(st.just(0.0), st.floats(-12.0, 12.0).map(lambda e: 10.0**e)),
    )
    def test_lift_halves_add_to_one(self, n, seed, d, h):
        # on a random lift, rates over eight decades: S + T = 1, though each is
        # its own positive sum, and both lie in [0, 1] to rounding
        rng = np.random.default_rng(seed)
        r = np.unique(10.0 ** rng.uniform(-4.0, 4.0, size=n))
        c = rng.uniform(1e-3, 1.0, size=r.size)
        lift = MarkovianLift(r=r, c=c / c.sum())
        s, t = lift.resolvent(h, d)
        assert 0.0 <= s <= 1.0 + 4e-15 and 0.0 <= t <= 1.0 + 4e-15
        assert s + t == pytest.approx(1.0, rel=4e-15)
        if h == 0.0:
            assert (s, t) == (1.0, 0.0)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        alpha=st.floats(1.001, 40.0),
        beta=st.floats(1e-3, 10.0),
        d=st.floats(0.01, 1.0),
        log_z=st.floats(-12.0, 6.0),
    )
    def test_continuum_halves_add_to_one(self, alpha, beta, d, log_z):
        continuum = GammaContinuum(GammaMixingMeasure(alpha=alpha, beta=beta))
        s, t = continuum.resolvent(10.0**log_z * d * beta, d)
        assert 0.0 <= s <= 1.0 + 4e-15 and 0.0 <= t <= 1.0 + 4e-15
        assert s + t == pytest.approx(1.0, rel=4e-15)
        assert continuum.resolvent(0.0, d) == (1.0, 0.0)


class TestConvergence:
    def test_r64_alpha2(self):
        pi = GammaMixingMeasure(alpha=2.0, beta=1.0)
        assert build_lift(pi, 6).inv_mean == pytest.approx(0.94661, abs=5e-6)

    def test_report_rows_and_rates(self):
        pi = GammaMixingMeasure(alpha=2.0, beta=1.0)
        rows = convergence_report(pi, 6, 8)
        assert [row.n for row in rows] == [64, 128, 256]
        assert rows[0].rate is None
        assert rows[1].rate == pytest.approx(0.5, abs=2e-3)
        assert rows[0].r_exact == pytest.approx(inv_mean(pi))
        # error decreases monotonically
        errs = [row.rel_error for row in rows]
        assert errs == sorted(errs, reverse=True)

    def test_report_range_validation(self):
        pi = GammaMixingMeasure(alpha=2.0, beta=1.0)
        with pytest.raises(ValueError):
            convergence_report(pi, 0, 3)
        with pytest.raises(ValueError):
            convergence_report(pi, 5, 3)


class TestOutputFormats:
    def test_lift_csv(self):
        lift = build_lift(GammaMixingMeasure(alpha=2.0, beta=1.0), 1)
        lines = write_lift_csv(lift).splitlines()
        assert lines[0] == "i,r_i,c_i"
        assert len(lines) == 3
        i, r, c = lines[1].split(",")
        assert i == "1"
        assert float(r) == pytest.approx(lift.r[0])
        assert float(c) == 0.5

    def test_convergence_table_layout(self):
        pi = GammaMixingMeasure(alpha=2.0, beta=1.0)
        table = format_convergence_table(convergence_report(pi, 6, 7))
        lines = table.splitlines()
        assert lines[0] == "n,R_n,R,rel_error,rate"
        assert lines[1].startswith("64,0.94661,1,0.053390,")
        assert lines[2].endswith("0.499")

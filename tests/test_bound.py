"""Margin-bound evaluation, gap arithmetic, verdicts, confidence."""

import math
import re

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boostbound import GapReport, check_bound, epsilon_boost
from boostbound.experiments import RunParams, RunRecord, SweepResult

# Independent evaluation of epsilon_boost(0.5, 25, 1000, 0.05) with mpmath
# at 60 digits, rounded to double.
EPS_HALF_25_1000 = 1.9754788665621812


def mp_epsilon_boost(rho, d, m, delta, dps=60):
    with mp.workdps(dps):
        rho_, delta_ = mp.mpf(rho), mp.mpf(delta)
        first = (2 / rho_) * mp.sqrt(2 * d * (1 + mp.log(mp.mpf(m) / d)) / m)
        second = mp.sqrt(-mp.log(delta_) / (2 * m))
        return float(first + second)


class TestEpsilonBoost:
    def test_analytic_anchor(self):
        # With rho=d=m=delta=1 the second term is 0 and ln(e) = 1, leaving 2*sqrt(2).
        value = epsilon_boost(rho=1.0, d=1, m=1, delta=1.0)
        assert abs(value - 2.0 * math.sqrt(2.0)) <= 1e-15

    def test_zero_margin_diverges(self):
        assert epsilon_boost(rho=0.0, d=5, m=100) == math.inf

    def test_undefined_margin_diverges(self):
        assert epsilon_boost(rho=None, d=5, m=100) == math.inf

    def test_frozen_example(self):
        value = epsilon_boost(rho=0.5, d=25, m=1000, delta=0.05)
        assert value == pytest.approx(EPS_HALF_25_1000, rel=1e-12)

    def test_inapplicable_regime_is_nan(self):
        # e*3 = 8.15..., so d=10 is outside the regime and d=8 is inside.
        assert math.isnan(epsilon_boost(rho=0.5, d=10, m=3))
        assert math.isfinite(epsilon_boost(rho=0.5, d=8, m=3))

    def test_matches_high_precision_on_grid(self):
        for rho in (0.01, 0.2, 1.0):
            for d in (1, 7, 40):
                for m in (16, 900, 10**6):
                    got = epsilon_boost(rho=rho, d=d, m=m, delta=0.05)
                    want = mp_epsilon_boost(rho, d, m, 0.05)
                    assert got == pytest.approx(want, rel=1e-12)

    def test_strictly_decreasing_in_rho(self):
        values = [
            epsilon_boost(rho=r, d=25, m=1000)
            for r in (0.05, 0.1, 0.2, 0.4, 0.8, 1.0)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_strictly_decreasing_in_delta(self):
        values = [
            epsilon_boost(rho=0.5, d=25, m=1000, delta=dl)
            for dl in (0.01, 0.05, 0.2, 0.5, 1.0)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_vanishes_as_m_grows(self):
        v100 = epsilon_boost(rho=0.5, d=25, m=10**2)
        v10k = epsilon_boost(rho=0.5, d=25, m=10**4)
        v100m = epsilon_boost(rho=0.5, d=25, m=10**8)
        assert v100 > v10k > v100m

    def test_unimodal_in_d_with_peak_near_m(self):
        m = 100
        grid = list(range(2, int(math.e * m), 7))
        values = [epsilon_boost(rho=1.0, d=d, m=m) for d in grid]
        diffs = [b - a for a, b in zip(values, values[1:])]
        sign_changes = sum(
            1 for a, b in zip(diffs, diffs[1:]) if (a > 0) != (b > 0)
        )
        assert sign_changes <= 1
        peak_d = grid[values.index(max(values))]
        assert abs(peak_d - m) <= 7

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(rho=-0.1, d=1, m=1),
            dict(rho=0.5, d=0, m=1),
            dict(rho=0.5, d=1, m=0),
            dict(rho=0.5, d=1, m=1, delta=0.0),
            dict(rho=0.5, d=1, m=1, delta=1.5),
        ],
    )
    def test_input_validation(self, kwargs):
        with pytest.raises(ValueError):
            epsilon_boost(**kwargs)


def gap(train_error, test_error):
    return GapReport(train_error, test_error, None, math.inf).delta_r


class TestGap:
    def test_examples(self):
        assert gap(0.25, 0.30) == pytest.approx(0.05, abs=1e-15)
        assert gap(0.30, 0.25) == pytest.approx(-0.05, abs=1e-15)
        assert gap(0.0, 0.0) == 0.0

    def test_rejects_out_of_range(self):
        for train, test, message in [
            (-0.1, 0.5, "train_error -0.1 outside [0, 1]"),
            (0.5, 1.2, "test_error 1.2 outside [0, 1]"),
            (0.5, math.nan, "test_error nan outside [0, 1]"),
        ]:
            with pytest.raises(ValueError, match=re.escape(message)):
                gap(train, test)

    @settings(max_examples=50, deadline=None)
    @given(a=st.floats(0.0, 1.0), b=st.floats(0.0, 1.0))
    def test_antisymmetric(self, a, b):
        assert gap(a, b) == -gap(b, a)


class TestCheckBound:
    def test_holds_on_frozen_example(self):
        report = check_bound(0.25, 0.30, rho=0.5, d=25, m=1000, delta=0.05)
        assert report.delta_r == pytest.approx(0.05, abs=1e-15)
        assert report.epsilon_boost == pytest.approx(EPS_HALF_25_1000, rel=1e-12)
        assert report.holds

    def test_zero_margin_vacuously_holds(self):
        report = check_bound(0.0, 1.0, rho=0.0, d=25, m=10, delta=0.05)
        assert report.epsilon_boost == math.inf
        assert report.holds

    def test_violated_ordering(self):
        # rho=1 and huge m push the ceiling below 0.5
        report = check_bound(0.0, 0.5, rho=1.0, d=1, m=10**6, delta=0.05)
        assert report.epsilon_boost < 0.5
        assert not report.holds

    def test_propagates_inapplicable(self):
        report = check_bound(0.1, 0.2, rho=0.5, d=10, m=3)
        assert math.isnan(report.epsilon_boost)
        assert not report.holds


class TestGapReportInvariants:
    def test_ordering_check_direct(self):
        report = GapReport(train_error=0.0, test_error=1.0, rho=1.0, epsilon_boost=0.9)
        assert report.delta_r == 1.0
        assert not report.holds


class TestConfidence:
    def sweep(self, ceilings):
        params = RunParams(T=1, m=10, d=2, delta=0.05, seed=0, source="synthetic")
        return SweepResult([
            RunRecord("m-sweep-d2", params, GapReport(0.1, 0.2, 0.5, c)) for c in ceilings
        ])

    def test_three_of_four(self):
        assert self.sweep([10.0, 10.0, 10.0, 0.01]).confidence == 0.75

    def test_all_hold(self):
        assert self.sweep([10.0] * 5).confidence == 1.0

    def test_inapplicable_records_leave_the_denominator(self):
        assert self.sweep([10.0, 0.01, math.nan, math.nan]).confidence == 0.5
        assert self.sweep([math.nan]).confidence is None

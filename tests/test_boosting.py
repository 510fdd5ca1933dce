"""Boosting loop: alpha/z arithmetic, distribution updates, ensembles, margin."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boostbound import (
    BoostRound,
    Dataset,
    Distribution,
    Ensemble,
    PerceptronConfig,
    PerceptronModel,
    compute_alpha,
    compute_z,
    predict_many,
    train_adaboost,
    update_distribution,
)
from boostbound.boosting import evaluate, round_predictions
from boostbound.perceptron import error_mass
from boostbound.rng import make_rng

# High-precision anchors (mpmath, 50 digits, rounded to double).
HALF_LN_3 = 0.5493061443340549
SQRT_3_OVER_4 = 0.8660254037844386


def noisy_dataset(seed, m=12, n=2):
    rng = make_rng(seed)
    X = rng.standard_normal((m, n))
    y = np.where(rng.standard_normal(m) >= 0, 1.0, -1.0)
    return Dataset(features=X, labels=y)


def ensemble_score(ens, x):
    """sum_t alpha_t * h_t(x) for a single point, accumulated in round order."""
    x = np.asarray(x, dtype=np.float64).reshape(1, -1)
    score = 0.0
    for r in ens.rounds:
        score += r.alpha * float(round_predictions(r, x)[0])
    return score


def ensemble_predict(ens, x):
    """Sign of the ensemble score, with sign(0) = +1."""
    return 1 if ensemble_score(ens, x) >= 0.0 else -1


def replay_distributions(trace, data):
    """D_1..D_{T+1} of a trace trained on ``data``: D_1 is uniform and each
    next one is the loop's own update by the round's alpha and votes."""
    dist = Distribution.uniform(data.n_rows)
    dists = [dist]
    for r in trace.ensemble.rounds:
        dist = update_distribution(
            dist, r.alpha, round_predictions(r, data.features), data.labels
        )
        dists.append(dist)
    return dists


def raw_error(round_, data, dist):
    """Weighted error of the round's unflipped hypothesis under ``dist``."""
    return error_mass(dist, predict_many(round_.hypothesis, data.features), data.labels)


def make_round(weights, bias, epsilon=0.25, flipped=False):
    return BoostRound(
        hypothesis=PerceptronModel(weights=np.asarray(weights, float), bias=bias),
        alpha=compute_alpha(epsilon),
        epsilon=epsilon,
        z=compute_z(epsilon),
        flipped=flipped,
    )


class TestComputeAlpha:
    def test_half_gives_zero(self):
        assert compute_alpha(0.5) == 0.0

    def test_analytic_inverse_of_one(self):
        eps = 1.0 / (1.0 + math.e**2)
        assert compute_alpha(eps) == pytest.approx(1.0, rel=1e-12)

    def test_quarter(self):
        assert compute_alpha(0.25) == pytest.approx(HALF_LN_3, rel=1e-12)

    @pytest.mark.parametrize("eps", [0.0, 1.0, -0.1, 1.5])
    def test_rejects_out_of_range(self, eps):
        with pytest.raises(ValueError):
            compute_alpha(eps)

    def test_strictly_decreasing(self):
        grid = np.linspace(0.01, 0.99, 50)
        values = [compute_alpha(e) for e in grid]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestComputeZ:
    def test_half_is_maximum_one(self):
        assert compute_z(0.5) == 1.0
        for eps in (0.1, 0.3, 0.49, 0.7):
            assert compute_z(eps) < 1.0

    def test_quarter(self):
        assert compute_z(0.25) == pytest.approx(SQRT_3_OVER_4, rel=1e-12)

    def test_clamp_floor_boundary(self):
        assert compute_z(1e-10) == pytest.approx(2e-5, rel=1e-9)

    def test_symmetric(self):
        for eps in (0.1, 0.25, 0.4):
            assert compute_z(eps) == pytest.approx(compute_z(1.0 - eps), rel=1e-15)

    @pytest.mark.parametrize("eps", [0.0, 1.0])
    def test_rejects_out_of_range(self, eps):
        with pytest.raises(ValueError):
            compute_z(eps)


class TestUpdateDistribution:
    def test_zero_alpha_is_identity(self):
        d = Distribution(np.array([0.5, 0.25, 0.25]))
        out = update_distribution(d, 0.0, np.array([1.0, -1.0, 1.0]), np.array([1.0, 1.0, -1.0]))
        np.testing.assert_array_equal(out.probabilities, d.probabilities)

    def test_one_mistake_in_four(self):
        # alpha = 0.5*ln(3): the wrong row ends with mass 1/2, each correct
        # row with 1/6 (direct evaluation of the update formula).
        d = Distribution.uniform(4)
        preds = np.array([1.0, 1.0, 1.0, 1.0])
        labels = np.array([-1.0, 1.0, 1.0, 1.0])
        out = update_distribution(d, HALF_LN_3, preds, labels)
        np.testing.assert_allclose(
            out.probabilities, [0.5, 1 / 6, 1 / 6, 1 / 6], rtol=1e-12
        )
        assert np.sum(out.probabilities) == pytest.approx(1.0, abs=1e-15)

    def test_neutral_round_from_half_epsilon(self):
        d = Distribution(np.array([0.5, 0.5]))
        alpha = compute_alpha(0.5)
        out = update_distribution(d, alpha, np.array([1.0, 1.0]), np.array([1.0, -1.0]))
        np.testing.assert_array_equal(out.probabilities, d.probabilities)

    def test_length_mismatch(self):
        d = Distribution.uniform(3)
        with pytest.raises(ValueError, match="length"):
            update_distribution(d, 0.1, np.ones(2), np.ones(3))

    @pytest.mark.parametrize("alpha", [1e308, math.nan])
    def test_vanishing_mass_raises(self, alpha):
        # 1e308 on all-correct rows underflows every weight to 0; nan poisons the sum
        d = Distribution.uniform(3)
        rows = np.array([1.0, -1.0, 1.0])
        with pytest.raises(ValueError, match=rf"mass (0\.0|nan) .*alpha {re.escape(repr(alpha))}"):
            update_distribution(d, alpha, rows, rows)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 500), alpha=st.floats(0.0, 5.0))
    def test_output_is_valid_distribution(self, seed, alpha):
        rng = make_rng(seed)
        m = int(rng.integers(2, 20))
        p = rng.uniform(0.01, 1.0, size=m)
        d = Distribution(p / p.sum())
        preds = np.where(rng.standard_normal(m) >= 0, 1.0, -1.0)
        labels = np.where(rng.standard_normal(m) >= 0, 1.0, -1.0)
        out = update_distribution(d, alpha, preds, labels)
        assert np.all(out.probabilities >= 0.0)
        assert abs(float(np.sum(out.probabilities)) - 1.0) <= 1e-9


class TestTrainAdaboost:
    def test_single_round_equals_weak_learner(self):
        ds = noisy_dataset(3, m=10)
        trace = train_adaboost(ds, 1, PerceptronConfig(epochs=2, seed=8))
        (round_,) = trace.ensemble.rounds
        sign = -1 if round_.flipped else 1
        for i in range(ds.n_rows):
            weak = sign * predict_many(round_.hypothesis, ds.features[i : i + 1])[0]
            ens = ensemble_predict(trace.ensemble, ds.features[i])
            if round_.alpha > 0:
                assert ens == weak
            else:
                assert ens == 1  # zero vote, tie-break

    def test_separable_pair_reaches_zero_training_error(self):
        ds = Dataset(features=np.array([[1.0], [-1.0]]), labels=np.array([1.0, -1.0]))
        trace = train_adaboost(ds, 5, PerceptronConfig(epochs=10, seed=1))
        assert evaluate(trace.ensemble, ds)[0][-1] == 0.0
        # brute-force verification of sign(f) per point
        for i in range(2):
            assert ensemble_predict(trace.ensemble, ds.features[i]) == ds.labels[i]

    def test_exact_half_round_is_neutral(self):
        # Identical features with opposite labels: every hypothesis gets
        # exactly eps = 1/2, so alpha = 0, z = 1, and D never moves.
        ds = Dataset(features=np.array([[1.0], [1.0]]), labels=np.array([1.0, -1.0]))
        trace = train_adaboost(ds, 3, PerceptronConfig(epochs=2, seed=4))
        for r in trace.ensemble.rounds:
            assert r.epsilon == 0.5
            assert r.alpha == 0.0
            assert r.z == 1.0
        for d in replay_distributions(trace, ds):
            np.testing.assert_array_equal(d.probabilities, [0.5, 0.5])

    def test_flip_policy_recorded_and_applied(self):
        # Frozen case known to produce worse-than-chance rounds (epochs=1
        # on label noise): rounds 2, 4 and 6 end flipped.
        ds = noisy_dataset(0)
        trace = train_adaboost(ds, 8, PerceptronConfig(epochs=1, seed=0))
        flipped = [t for t, r in enumerate(trace.ensemble.rounds) if r.flipped]
        assert flipped == [2, 4, 6]
        dists = replay_distributions(trace, ds)
        for t, r in enumerate(trace.ensemble.rounds):
            assert r.epsilon <= 0.5
            assert r.alpha >= 0.0
            # the recorded epsilon is the error of the (possibly negated)
            # hypothesis under D_t
            raw = raw_error(r, ds, dists[t])
            effective = 1.0 - raw if r.flipped else raw
            assert r.epsilon == max(min(effective, 0.5), 1e-10)

    def test_distribution_invariants_along_trace(self):
        ds = noisy_dataset(7, m=20, n=3)
        trace = train_adaboost(ds, 10, PerceptronConfig(epochs=3, seed=2))
        dists = replay_distributions(trace, ds)
        assert len(dists) == 11
        np.testing.assert_array_equal(dists[0].probabilities, np.full(20, 0.05))
        for d in dists:
            assert np.all(d.probabilities >= 0.0)
            assert abs(float(np.sum(d.probabilities)) - 1.0) <= 1e-9

    def test_z_identity_on_unclamped_rounds(self):
        checked = 0
        for seed in range(6):
            ds = noisy_dataset(seed + 50, m=16, n=2)
            trace = train_adaboost(ds, 8, PerceptronConfig(epochs=2, seed=seed))
            dists = replay_distributions(trace, ds)
            for t, r in enumerate(trace.ensemble.rounds):
                raw = raw_error(r, ds, dists[t])
                effective = 1.0 - raw if r.flipped else raw
                if effective != r.epsilon:
                    continue  # clamped round: identity does not apply
                d = dists[t].probabilities
                preds = np.where(
                    ds.features @ r.hypothesis.weights + r.hypothesis.bias >= 0, 1.0, -1.0
                )
                if r.flipped:
                    preds = -preds
                normalizer = float(np.sum(d * np.exp(-r.alpha * ds.labels * preds)))
                assert abs(normalizer - r.z) <= 1e-9
                checked += 1
        assert checked >= 10

    def test_bit_identical_reruns(self):
        ds = noisy_dataset(9, m=15, n=3)
        cfg = PerceptronConfig(epochs=3, seed=21)
        a = train_adaboost(ds, 6, cfg)
        b = train_adaboost(ds, 6, cfg)
        for ra, rb in zip(a.ensemble.rounds, b.ensemble.rounds):
            np.testing.assert_array_equal(ra.hypothesis.weights, rb.hypothesis.weights)
            assert (ra.alpha, ra.epsilon, ra.z, ra.flipped) == (rb.alpha, rb.epsilon, rb.z, rb.flipped)
        for da, db in zip(replay_distributions(a, ds), replay_distributions(b, ds)):
            np.testing.assert_array_equal(da.probabilities, db.probabilities)

    def test_prefix_property_matches_shorter_training(self):
        ds = noisy_dataset(11, m=14, n=2)
        cfg = PerceptronConfig(epochs=2, seed=5)
        long = train_adaboost(ds, 7, cfg)
        for t in (1, 3, 7):
            short = train_adaboost(ds, t, cfg)
            for ra, rb in zip(short.ensemble.rounds, long.ensemble.rounds):
                np.testing.assert_array_equal(ra.hypothesis.weights, rb.hypothesis.weights)
                assert ra.alpha == rb.alpha

    def test_staged_rates_equal_prefix_ensembles(self):
        ds = noisy_dataset(13, m=18, n=2)
        cfg = PerceptronConfig(epochs=2, seed=6)
        trace = train_adaboost(ds, 6, cfg)
        staged = evaluate(trace.ensemble, ds)[0]
        for t in range(1, 7):
            prefix = Ensemble(trace.ensemble.rounds[:t])
            assert staged[t - 1] == evaluate(prefix, ds)[0][-1]

    def test_rejects_bad_arguments(self):
        ds = noisy_dataset(1, m=4)
        with pytest.raises(ValueError):
            train_adaboost(ds, 0, PerceptronConfig(seed=0))


class TestEnsembleEvaluation:
    def test_score_two_rounds(self):
        # alpha=(1, 2) with votes (+1, -1) at x: score 1 - 2 = -1
        eps_for_alpha_1 = 1.0 / (1.0 + math.e**2)
        eps_for_alpha_2 = 1.0 / (1.0 + math.e**4)
        r1 = make_round([1.0], 0.0, epsilon=eps_for_alpha_1)
        r2 = make_round([-1.0], 0.0, epsilon=eps_for_alpha_2)
        ens = Ensemble((r1, r2))
        x = np.array([2.0])
        assert ensemble_score(ens, x) == pytest.approx(-1.0, rel=1e-12)
        assert ensemble_predict(ens, x) == -1

    def test_zero_alpha_score_and_tie_break(self):
        rounds = (make_round([1.0], 0.0, epsilon=0.5), make_round([-1.0], 0.0, epsilon=0.5))
        ens = Ensemble(rounds)
        assert ensemble_score(ens, np.array([3.0])) == 0.0
        assert ensemble_predict(ens, np.array([3.0])) == 1

    def test_flip_negates_contribution(self):
        plain = Ensemble((make_round([1.0], 0.0),))
        negated = Ensemble((make_round([1.0], 0.0, flipped=True),))
        x = np.array([2.0])
        assert ensemble_score(plain, x) == -ensemble_score(negated, x)

    def test_score_matches_term_by_term_sum(self):
        rng = make_rng(31)
        for _ in range(20):
            rounds = tuple(
                make_round(rng.standard_normal(3), float(rng.standard_normal()),
                           epsilon=float(rng.uniform(0.05, 0.5)))
                for _ in range(int(rng.integers(1, 5)))
            )
            ens = Ensemble(rounds)
            x = rng.standard_normal(3)
            brute = 0.0
            for r in rounds:
                h = float(predict_many(r.hypothesis, x[None, :])[0])
                if r.flipped:
                    h = -h
                brute += r.alpha * h
            assert ensemble_score(ens, x) == brute

    def test_misclassification_examples(self):
        ds = Dataset(features=np.array([[1.0], [-1.0]]), labels=np.array([1.0, -1.0]))
        right = Ensemble((make_round([1.0], 0.0),))
        wrong = Ensemble((make_round([-1.0], -1.0),))
        assert evaluate(right, ds)[0][-1] == 0.0
        assert evaluate(wrong, ds)[0][-1] == 1.0

    def test_misclassification_matches_brute_force(self):
        rng = make_rng(41)
        X = rng.standard_normal((10, 2))
        y = np.where(rng.standard_normal(10) >= 0, 1.0, -1.0)
        ds = Dataset(features=X, labels=y)
        ens = Ensemble(
            tuple(make_round(rng.standard_normal(2), 0.0, epsilon=0.3) for _ in range(3))
        )
        count = sum(1 for i in range(10) if ensemble_predict(ens, X[i]) != y[i])
        assert evaluate(ens, ds)[0][-1] == count / 10


class TestL1Margin:
    def test_single_round_unit_margin(self):
        ds = Dataset(features=np.array([[2.0]]), labels=np.array([1.0]))
        ens = Ensemble((make_round([1.0], 0.0, epsilon=1.0 / (1.0 + math.e**2)),))
        assert evaluate(ens, ds)[1] == pytest.approx(1.0, rel=1e-12)

    def test_two_round_arithmetic(self):
        # alpha=(1,2), votes (+1,-1): |1-2| / 3 = 1/3
        r1 = make_round([1.0], 0.0, epsilon=1.0 / (1.0 + math.e**2))
        r2 = make_round([-1.0], 0.0, epsilon=1.0 / (1.0 + math.e**4))
        ds = Dataset(features=np.array([[2.0]]), labels=np.array([1.0]))
        assert evaluate(Ensemble((r1, r2)), ds)[1] == pytest.approx(1 / 3, rel=1e-12)

    def test_matches_brute_force_minimum(self):
        rng = make_rng(51)
        X = rng.standard_normal((8, 2))
        y = np.where(rng.standard_normal(8) >= 0, 1.0, -1.0)
        ds = Dataset(features=X, labels=y)
        ens = Ensemble(
            tuple(make_round(rng.standard_normal(2), 0.1, epsilon=0.2) for _ in range(3))
        )
        total = sum(r.alpha for r in ens.rounds)
        brute = min(abs(ensemble_score(ens, X[i])) for i in range(8)) / total
        assert evaluate(ens, ds)[1] == brute

    def test_zero_alpha_means_undefined(self):
        ds = Dataset(features=np.array([[1.0]]), labels=np.array([1.0]))
        ens = Ensemble((make_round([1.0], 0.0, epsilon=0.5),))
        assert evaluate(ens, ds)[1] is None

    def test_within_unit_interval(self):
        for seed in range(10):
            ds = noisy_dataset(seed + 90, m=9, n=2)
            trace = train_adaboost(ds, 4, PerceptronConfig(epochs=2, seed=seed))
            rho = evaluate(trace.ensemble, ds)[1]
            if rho is not None:
                assert 0.0 <= rho <= 1.0

    def test_evaluate_equals_prefix_rates_and_brute_force_margin(self):
        for seed in range(10):
            ds = noisy_dataset(seed + 90, m=9, n=2)
            ens = train_adaboost(ds, 4, PerceptronConfig(epochs=2, seed=seed)).ensemble
            staged, rho = evaluate(ens, ds)
            assert staged.tolist() == [
                sum(ensemble_predict(Ensemble(ens.rounds[:t]), x) != y
                    for x, y in zip(ds.features, ds.labels)) / ds.n_rows
                for t in range(1, 5)
            ]
            brute = min(abs(ensemble_score(ens, x)) for x in ds.features)
            assert rho == (None if ens.alpha_total == 0.0 else brute / ens.alpha_total)
        ds = Dataset(features=np.array([[1.0]]), labels=np.array([-1.0]))
        ens = Ensemble((make_round([1.0], 0.0, epsilon=0.5),))
        staged, rho = evaluate(ens, ds)
        assert (staged.tolist(), rho) == ([1.0], None)


class TestScaleInvariance:
    def scale_ensemble(self, ens, c):
        rounds = []
        for r in ens.rounds:
            rounds.append(
                BoostRound(
                    hypothesis=r.hypothesis,
                    alpha=c * r.alpha,
                    epsilon=r.epsilon,
                    z=r.z,
                    flipped=r.flipped,
                )
            )
        return Ensemble(tuple(rounds))

    @pytest.mark.parametrize("c", [0.5, 3.0])
    def test_predictions_and_margin_unchanged(self, c):
        ds = noisy_dataset(61, m=12, n=3)
        trace = train_adaboost(ds, 5, PerceptronConfig(epochs=2, seed=3))
        base, scaled = trace.ensemble, self.scale_ensemble(trace.ensemble, c)
        for i in range(ds.n_rows):
            assert ensemble_predict(base, ds.features[i]) == ensemble_predict(
                scaled, ds.features[i]
            )
        rho_a, rho_b = evaluate(base, ds)[1], evaluate(scaled, ds)[1]
        assert rho_a == pytest.approx(rho_b, rel=1e-12)


class TestRoundValidation:
    def test_rejects_epsilon_above_half(self):
        with pytest.raises(ValueError):
            BoostRound(
                hypothesis=PerceptronModel(weights=np.zeros(1), bias=0.0),
                alpha=0.1,
                epsilon=0.7,
                z=0.9,
                flipped=False,
            )

    def test_rejects_negative_alpha(self):
        with pytest.raises(ValueError):
            BoostRound(
                hypothesis=PerceptronModel(weights=np.zeros(1), bias=0.0),
                alpha=-0.1,
                epsilon=0.3,
                z=compute_z(0.3),
                flipped=False,
            )

    def test_ensemble_requires_rounds(self):
        with pytest.raises(ValueError):
            Ensemble(())

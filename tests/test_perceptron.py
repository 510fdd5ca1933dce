"""Weighted perceptron: updates, prediction convention, weighted error."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from boostbound import (
    Dataset,
    Distribution,
    PerceptronConfig,
    PerceptronModel,
    fit_perceptron,
    predict,
    predict_many,
    weighted_error,
)
from boostbound.rng import make_rng


def dataset(features, labels):
    return Dataset(features=np.array(features, float), labels=np.array(labels, float))


def replay_fit(X, y, step, visit_orders):
    """Reference perceptron loop with an explicit visit order per epoch."""
    w = np.zeros(X.shape[1])
    b = 0.0
    for order in visit_orders:
        for i in order:
            xi = X[i]
            pred = 1.0 if xi @ w + b >= 0.0 else -1.0
            if pred != y[i]:
                w += step[i] * xi
                b += step[i]
    return w, b


def oracle_problem(seed, m, n, integer):
    """Rows under 0/1 weights, so zero-weight rows give -0.0 steps for
    negative labels. Small-integer features make exact-zero scores (the
    sign(0)=+1 tie) occur; normal ones make the summation order show."""
    rng = make_rng(seed)
    if integer:
        X = rng.integers(-2, 3, size=(m, n)).astype(float)
    else:
        X = rng.standard_normal((m, n))
    y = np.where(rng.random(m) < 0.5, -1.0, 1.0)
    p = rng.integers(0, 2, size=m).astype(float)
    p[rng.integers(m)] = 1.0
    return dataset(X, y), Distribution(p / p.sum())


class TestPredict:
    def test_positive_side(self):
        model = PerceptronModel(weights=np.array([1.0, 0.0]), bias=0.0)
        assert predict(model, np.array([2.0, 5.0])) == 1

    def test_negative_side(self):
        model = PerceptronModel(weights=np.array([1.0, 0.0]), bias=0.0)
        assert predict(model, np.array([-2.0, 5.0])) == -1

    def test_tie_breaks_positive(self):
        model = PerceptronModel(weights=np.array([1.0, -1.0]), bias=0.0)
        assert predict(model, np.array([3.0, 3.0])) == 1

    def test_zero_model_predicts_positive(self):
        model = PerceptronModel(weights=np.zeros(3), bias=0.0)
        for seed in range(5):
            x = make_rng(seed).standard_normal(3)
            assert predict(model, x) == 1

    def test_dimension_mismatch(self):
        model = PerceptronModel(weights=np.array([1.0]), bias=0.0)
        with pytest.raises(ValueError, match="dimension"):
            predict(model, np.array([1.0, 2.0]))

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 1000),
        scale=st.floats(min_value=1e-6, max_value=1e6),
    )
    def test_positive_scaling_never_changes_predictions(self, seed, scale):
        rng = make_rng(seed)
        w = rng.standard_normal(3)
        b = float(rng.standard_normal())
        x = rng.standard_normal(3)
        base = predict(PerceptronModel(weights=w, bias=b), x)
        scaled = predict(PerceptronModel(weights=scale * w, bias=scale * b), x)
        assert base == scaled

    def test_exact_ties_score_like_the_fit(self):
        # 2,001 rows: odd, and past the size where OpenBLAS threads a gemv,
        # whose last bits differ from the fit's per-row ddot.
        rng = make_rng(11)
        X = rng.standard_normal((2001, 21))
        w = rng.standard_normal(21)
        for i in rng.choice(2001, size=40, replace=False).tolist():
            model = PerceptronModel(weights=w, bias=-X[i].dot(w))
            got = predict_many(model, X)
            assert got[i] == 1.0
            want = [1.0 if row.dot(w) + model.bias >= 0.0 else -1.0 for row in X]
            assert got.tolist() == want

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        m=st.integers(1, 300),
        n=st.integers(1, 40),
        integer=st.booleans(),
    )
    def test_predict_many_matches_per_row_oracle(self, seed, m, n, integer):
        rng = make_rng(seed)
        if integer:
            X = rng.integers(-2, 3, size=(m, n)).astype(float)
            w = rng.integers(-2, 3, size=n).astype(float)
        else:
            X = rng.standard_normal((m, n))
            w = rng.standard_normal(n)
        model = PerceptronModel(weights=w, bias=-X[rng.integers(m)].dot(w))
        got = predict_many(model, X)
        assert got.tolist() == [1.0 if row.dot(w) + model.bias >= 0.0 else -1.0 for row in X]
        for x, g in zip(X, got):
            assert predict(model, x) == predict_many(model, x[None])[0] == g


class TestDistribution:
    def test_uniform(self):
        d = Distribution.uniform(4)
        np.testing.assert_array_equal(d.probabilities, [0.25] * 4)

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="nonnegative"):
            Distribution(np.array([1.5, -0.5]))

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError, match="sums to"):
            Distribution(np.array([0.5, 0.5 + 1e-6]))

    def test_tolerates_tiny_sum_error(self):
        Distribution(np.array([0.5, 0.5 + 1e-10]))


class TestFitPerceptron:
    def test_separable_pair_is_learned(self):
        train = dataset([[1.0], [-1.0]], [1.0, -1.0])
        model = fit_perceptron(
            train, Distribution.uniform(2), PerceptronConfig(epochs=10, seed=0)
        )
        assert predict(model, np.array([1.0])) == 1
        assert predict(model, np.array([-1.0])) == -1

    def test_uniform_weights_match_classic_updates(self):
        # m * D(i) = 1 under the uniform distribution (m=4 keeps it exact),
        # so the fit must replay the textbook unit-step perceptron.
        rng = make_rng(42)
        X = rng.standard_normal((4, 2))
        y = np.array([1.0, -1.0, 1.0, -1.0])
        train = dataset(X, y)
        seed = 17
        model = fit_perceptron(
            train, Distribution.uniform(4), PerceptronConfig(epochs=3, seed=seed)
        )
        # same permutation stream as the implementation: one generator, one
        # permutation per epoch
        gen = make_rng(seed)
        orders = [gen.permutation(4) for _ in range(3)]
        w, b = replay_fit(X, y, np.ones(4) * y, orders)
        np.testing.assert_array_equal(model.weights, w)
        assert model.bias == b

    def test_zero_weight_rows_change_nothing(self):
        # Rows with D(i)=0 are no-op visits; dropping them and replaying
        # the same visit order over the survivors gives a model that is a
        # positive rescaling of the full fit, hence identical predictions.
        rng = make_rng(5)
        X = rng.standard_normal((6, 2))
        y = np.where(rng.standard_normal(6) >= 0, 1.0, -1.0)
        keep = [0, 2, 5]
        probs = np.zeros(6)
        probs[keep] = 1.0 / len(keep)
        seed, epochs = 9, 4

        full = fit_perceptron(
            dataset(X, y), Distribution(probs), PerceptronConfig(epochs=epochs, seed=seed)
        )
        gen = make_rng(seed)
        orders = [gen.permutation(6) for _ in range(epochs)]
        # cross-check the replica against the implementation
        w_full, b_full = replay_fit(X, y, 6 * probs * y, orders)
        np.testing.assert_array_equal(full.weights, w_full)
        assert full.bias == b_full

        reduced_orders = [
            [keep.index(i) for i in order if i in keep] for order in orders
        ]
        Xr, yr = X[keep], y[keep]
        step_r = len(keep) * np.full(len(keep), 1.0 / len(keep)) * yr
        w_red, b_red = replay_fit(Xr, yr, step_r, reduced_orders)

        probe = make_rng(77).standard_normal((20, 2))
        full_preds = predict_many(full, probe)
        red_preds = predict_many(PerceptronModel(weights=w_red, bias=b_red), probe)
        np.testing.assert_array_equal(full_preds, red_preds)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(1, 40),
        m=st.integers(1, 300),
        epochs=st.integers(1, 3),
        integer=st.booleans(),
    )
    # a -1 row scores exactly 0 on a nonzero model
    @example(seed=5, n=2, m=4, epochs=2, integer=True)
    def test_matches_replay_oracle_bit_for_bit(self, seed, n, m, epochs, integer):
        train, dist = oracle_problem(seed, m, n, integer)
        model = fit_perceptron(train, dist, PerceptronConfig(epochs=epochs, seed=seed))
        gen = make_rng(seed)
        orders = [gen.permutation(m) for _ in range(epochs)]
        X, y = train.features, train.labels
        w, b = replay_fit(X, y, m * dist.probabilities * y, orders)
        assert model.weights.tobytes() == w.tobytes()
        assert model.bias == b

    def test_peak_memory_is_bounded_by_the_training_matrix(self):
        rng = make_rng(2)
        train = dataset(rng.standard_normal((5000, 21)), np.where(rng.random(5000) < 0.5, -1.0, 1.0))
        dist = Distribution.uniform(5000)
        tracemalloc.start()
        try:
            fit_perceptron(train, dist, PerceptronConfig(epochs=1, seed=0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * train.features.nbytes

    def test_deterministic(self):
        rng = make_rng(1)
        train = dataset(rng.standard_normal((8, 3)), np.where(rng.standard_normal(8) >= 0, 1.0, -1.0))
        cfg = PerceptronConfig(epochs=5, seed=13)
        a = fit_perceptron(train, Distribution.uniform(8), cfg)
        b = fit_perceptron(train, Distribution.uniform(8), cfg)
        np.testing.assert_array_equal(a.weights, b.weights)
        assert a.bias == b.bias

    def test_length_mismatch(self):
        train = dataset([[1.0], [-1.0]], [1.0, -1.0])
        with pytest.raises(ValueError, match="length"):
            fit_perceptron(train, Distribution.uniform(3), PerceptronConfig(seed=0))

    def test_rejects_bad_epochs(self):
        with pytest.raises(ValueError, match="epochs"):
            PerceptronConfig(epochs=0, seed=0)


class TestWeightedError:
    def test_single_misclassified_mass(self):
        model = PerceptronModel(weights=np.array([0.0]), bias=1.0)  # always +1
        data = dataset([[0.0], [0.0]], [1.0, -1.0])
        err = weighted_error(model, data, Distribution(np.array([0.3, 0.7])))
        assert err == pytest.approx(0.7, abs=1e-15)

    def test_perfect_model(self):
        model = PerceptronModel(weights=np.array([1.0]), bias=0.0)
        data = dataset([[2.0], [-2.0]], [1.0, -1.0])
        assert weighted_error(model, data, Distribution.uniform(2)) == 0.0

    def test_matches_per_row_brute_force(self):
        rng = make_rng(3)
        X = rng.standard_normal((5, 2))
        y = np.where(rng.standard_normal(5) >= 0, 1.0, -1.0)
        model = PerceptronModel(weights=rng.standard_normal(2), bias=0.1)
        err = weighted_error(model, dataset(X, y), Distribution.uniform(5))
        mistakes = sum(1 for i in range(5) if predict(model, X[i]) != y[i])
        assert err == pytest.approx(mistakes / 5, abs=1e-15)

    def test_all_wrong_gives_one(self):
        model = PerceptronModel(weights=np.array([0.0]), bias=1.0)
        data = dataset([[0.0], [0.0]], [-1.0, -1.0])
        assert weighted_error(model, data, Distribution.uniform(2)) == 1.0

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 500), m=st.integers(1, 20))
    @example(seed=91, m=3)  # every row wrong; the masses sum to 1 + 1 ulp
    def test_always_within_unit_interval(self, seed, m):
        rng = make_rng(seed)
        X = rng.standard_normal((m, 2))
        y = np.where(rng.standard_normal(m) >= 0, 1.0, -1.0)
        model = PerceptronModel(weights=rng.standard_normal(2), bias=float(rng.standard_normal()))
        p = rng.uniform(0.01, 1.0, size=m)
        err = weighted_error(model, dataset(X, y), Distribution(p / p.sum()))
        assert 0.0 <= err <= 1.0

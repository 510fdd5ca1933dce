"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured quantity against its pinned tolerance.

Run with `pytest tests/test_acceptance.py -v -s`. The real-data criterion
is gated on a locally provided CSV (see C11 below) and skips with a clear
message when the file is absent.
"""

import math
import os
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from boostbound import (
    Dataset,
    Distribution,
    PerceptronConfig,
    SyntheticConfig,
    epsilon_boost,
    generate_synthetic,
    load_csv,
    predict_many,
    split_half,
    train_adaboost,
    update_distribution,
)
from boostbound.boosting import BoostRound, Ensemble, evaluate, round_predictions
from boostbound.cli import dispatch
from boostbound.experiments import SweepSpec, real_split_seed, run_sweeps
from boostbound.experiments.sweeps import DEFAULT_EPOCHS, DEFAULT_ROUNDS
from boostbound.perceptron import error_mass
from boostbound.rng import make_rng

MASTER_SEED = 20260810
WORKERS = max(1, min(4, os.cpu_count() or 1))

HEART_CSV_ENV = "BOOSTBOUND_HEART_CSV"
HEART_CSV_DEFAULT = Path(__file__).resolve().parents[1] / "data" / "heart_disease_health_indicators.csv"


def swept(experiment_id, source, points, repeats, delta=0.05):
    """A sweep at the default round count and epoch budget."""
    return SweepSpec(
        experiment_id, source, points, repeats, DEFAULT_ROUNDS, DEFAULT_EPOCHS, delta
    )


def report(cid, name, ok, detail):
    print(f"\nACCEPTANCE {cid} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{cid} {name}: {detail}"


@pytest.fixture(scope="session")
def dimension_sweeps():
    # both d-sweeps (d 5..200 step 15, 3 seeds per cell) share one pool
    r500, r2000 = run_sweeps(
        [
            swept(f"d-sweep-m{m}", "synthetic", [(m, d) for d in range(5, 201, 15)], 3)
            for m in (500, 2000)
        ],
        MASTER_SEED, WORKERS,
    )
    return r500, r2000


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


@pytest.fixture(scope="session")
def random_boosting_runs():
    """200 boosted runs with m <= 200, T <= 20 on varied synthetic data, each
    with its replayed distributions."""
    runs = []
    rng = make_rng(MASTER_SEED)
    for k in range(200):
        m = int(rng.integers(2, 201))
        t = int(rng.integers(1, 21))
        n = int(rng.integers(1, 8))
        epochs = int(rng.integers(1, 8))
        data = generate_synthetic(
            SyntheticConfig(
                n_features=n,
                m_total=m,
                class_sep=float(rng.uniform(0.0, 1.5)),
                flip_y=float(rng.uniform(0.0, 0.3)),
                seed=int(rng.integers(0, 2**32)),
            )
        )
        trace = train_adaboost(
            data, t, PerceptronConfig(epochs=epochs, seed=int(rng.integers(0, 2**32)))
        )
        runs.append((data, trace, replay_distributions(trace, data)))
    return runs


def test_c01_table1_m_sweep_d25():
    # Synthetic m-sweep at d=25, m-grid 10..2000 step 50, 3 seeds per cell.
    points = [(m, 25) for m in range(10, 2001, 50)]
    (result,) = run_sweeps([swept("m-sweep-d25", "synthetic", points, 3)], MASTER_SEED, WORKERS)
    conf = result.confidence
    report(
        "C01", "table1-m-sweep-d25",
        conf is not None and conf >= 0.95,
        f"confidence={100 * conf:.1f}% over {len(result.records)} runs, need >= 95%",
    )


def test_c02_table1_d_sweep_m2000(dimension_sweeps):
    _, r2000 = dimension_sweeps
    conf = r2000.confidence
    report(
        "C02", "table1-d-sweep-m2000",
        conf is not None and conf >= 0.95,
        f"confidence={100 * conf:.1f}% over {len(r2000.records)} runs, need >= 95%",
    )


def test_c03_low_m_degradation_direction(dimension_sweeps):
    r500, r2000 = dimension_sweeps
    report(
        "C03", "low-m-confidence-ordering",
        r500.confidence <= r2000.confidence,
        f"confidence(m=500)={100 * r500.confidence:.1f}% <= "
        f"confidence(m=2000)={100 * r2000.confidence:.1f}%",
    )


def test_c04_gap_independent_of_round_count():
    # d=50, m=1000, rounds 1..100, 10 repeats: the mean gap may not trend
    # with the round count (|slope| <= 5e-4) nor leave a +/-0.05 band.
    spec = SweepSpec(
        "t-sweep-d50-m1000", "synthetic", [(1000, 50)], 10, 100, DEFAULT_EPOCHS, math.nan
    )
    (result,) = run_sweeps([spec], MASTER_SEED, WORKERS)
    dr = np.array([r.gap_report.delta_r for r in result.records])
    t = np.arange(1, len(dr) + 1, dtype=float)
    slope = float(np.polyfit(t, dr, 1)[0])
    band = float(np.max(np.abs(dr - dr.mean())))
    report(
        "C04", "gap-vs-rounds-flat",
        abs(slope) <= 5e-4 and band <= 0.05,
        f"|slope|={abs(slope):.2e} <= 5e-4, band={band:.4f} <= 0.05",
    )


def test_c05_distributions_normalized(random_boosting_runs):
    worst = 0.0
    negatives = 0
    for _, _, dists in random_boosting_runs:
        for dist in dists:
            p = dist.probabilities
            worst = max(worst, abs(float(np.sum(p)) - 1.0))
            negatives += int(np.any(p < 0.0))
    report(
        "C05", "distribution-normalization",
        worst <= 1e-9 and negatives == 0,
        f"max |sum-1|={worst:.2e} <= 1e-9 over "
        f"{sum(len(d) for _, _, d in random_boosting_runs)} distributions, "
        f"negative-entry traces={negatives}",
    )


def test_c06_z_identity_on_unclamped_rounds(random_boosting_runs):
    checked = 0
    worst = 0.0
    for data, trace, dists in random_boosting_runs:
        for t, r in enumerate(trace.ensemble.rounds):
            raw = error_mass(dists[t], predict_many(r.hypothesis, data.features), data.labels)
            effective = 1.0 - raw if r.flipped else raw
            if effective != r.epsilon:
                continue  # clamped round, closed form does not apply
            preds = np.where(
                data.features @ r.hypothesis.weights + r.hypothesis.bias >= 0.0,
                1.0, -1.0,
            )
            if r.flipped:
                preds = -preds
            empirical = float(
                np.sum(
                    dists[t].probabilities
                    * np.exp(-r.alpha * data.labels * preds)
                )
            )
            closed_form = 2.0 * math.sqrt(r.epsilon * (1.0 - r.epsilon))
            worst = max(worst, abs(empirical - closed_form))
            checked += 1
    report(
        "C06", "normalizer-closed-form-identity",
        checked > 100 and worst <= 1e-9,
        f"max |empirical-2sqrt(eps(1-eps))|={worst:.2e} <= 1e-9 on {checked} rounds",
    )


def brute_force_score(ens, x):
    total = 0.0
    for r in ens.rounds:
        h = 1.0 if float(np.dot(x, r.hypothesis.weights)) + r.hypothesis.bias >= 0.0 else -1.0
        if r.flipped:
            h = -h
        total += r.alpha * h
    return total


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


def test_c07_oracle_equivalence_of_ensemble_operations():
    rng = make_rng(MASTER_SEED + 7)
    mismatches = []
    for k in range(100):
        m = int(rng.integers(2, 21))
        t = int(rng.integers(1, 6))
        n = int(rng.integers(1, 5))
        data = generate_synthetic(
            SyntheticConfig(
                n_features=n, m_total=m,
                class_sep=float(rng.uniform(0.0, 1.0)),
                flip_y=float(rng.uniform(0.0, 0.3)),
                seed=int(rng.integers(0, 2**32)),
            )
        )
        trace = train_adaboost(
            data, t, PerceptronConfig(epochs=int(rng.integers(1, 6)), seed=int(rng.integers(0, 2**32)))
        )
        ens = trace.ensemble
        # scores, accumulated in the same round order: bitwise equality
        for i in range(data.n_rows):
            if ensemble_score(ens, data.features[i]) != brute_force_score(ens, data.features[i]):
                mismatches.append((k, "score", i))
        brute_rate = (
            sum(
                1 for i in range(data.n_rows)
                if (1 if brute_force_score(ens, data.features[i]) >= 0 else -1) != data.labels[i]
            )
            / data.n_rows
        )
        staged, rho = evaluate(ens, data)
        if staged[-1] != brute_rate:
            mismatches.append((k, "rate", None))
        total = sum(abs(r.alpha) for r in ens.rounds)
        if total == 0.0:
            brute_margin = None
        else:
            brute_margin = min(
                abs(brute_force_score(ens, data.features[i])) for i in range(data.n_rows)
            ) / total
        if rho != brute_margin:
            mismatches.append((k, "margin", None))
    report(
        "C07", "ensemble-operations-match-brute-force",
        not mismatches,
        f"100 random ensembles, exact matches for score/rate/margin; "
        f"mismatches={mismatches[:5]}",
    )


def mp_epsilon_boost(rho, d, m, delta):
    with mp.workdps(60):
        first = (2 / mp.mpf(rho)) * mp.sqrt(2 * d * (1 + mp.log(mp.mpf(m) / d)) / m)
        second = mp.sqrt(-mp.log(mp.mpf(delta)) / (2 * m))
        return float(first + second)


def test_c08_bound_evaluator_precision():
    # 5 x 5 x 2 x 2 = 100-point grid, all inside the bound's regime.
    rhos = (0.01, 0.1, 0.25, 0.5, 1.0)
    ds = (1, 2, 10, 25, 50)
    ms = (100, 10000)
    deltas = (0.05, 0.5)
    worst = 0.0
    points = 0
    for rho in rhos:
        for d in ds:
            for m in ms:
                for delta in deltas:
                    got = epsilon_boost(rho=rho, d=d, m=m, delta=delta)
                    want = mp_epsilon_boost(rho, d, m, delta)
                    worst = max(worst, abs(got - want) / want)
                    points += 1
    anchor = epsilon_boost(rho=1.0, d=1, m=1, delta=1.0)
    anchor_err = abs(anchor - 2.0 * math.sqrt(2.0))
    report(
        "C08", "bound-evaluator-precision",
        points == 100 and worst <= 1e-12 and anchor_err <= 1e-15,
        f"max rel err {worst:.2e} <= 1e-12 on {points} points; "
        f"|eps(1,1,1,1)-2sqrt2|={anchor_err:.1e} <= 1e-15",
    )


def test_c09_vote_weight_scale_invariance():
    rng = make_rng(MASTER_SEED + 9)
    failures = []
    for k in range(30):
        m = int(rng.integers(4, 40))
        data = generate_synthetic(
            SyntheticConfig(
                n_features=int(rng.integers(1, 5)), m_total=m,
                flip_y=0.2, seed=int(rng.integers(0, 2**32)),
            )
        )
        trace = train_adaboost(
            data, int(rng.integers(1, 8)),
            PerceptronConfig(epochs=2, seed=int(rng.integers(0, 2**32))),
        )
        base = trace.ensemble
        rho_base = evaluate(base, data)[1]
        for c in (0.5, 3.0):
            scaled = Ensemble(
                tuple(
                    BoostRound(
                        hypothesis=r.hypothesis, alpha=c * r.alpha,
                        epsilon=r.epsilon, flipped=r.flipped,
                    )
                    for r in base.rounds
                )
            )
            for i in range(data.n_rows):
                if ensemble_predict(base, data.features[i]) != ensemble_predict(
                    scaled, data.features[i]
                ):
                    failures.append((k, c, "prediction", i))
            rho_scaled = evaluate(scaled, data)[1]
            if rho_base is None or rho_scaled is None:
                if rho_base is not rho_scaled:
                    failures.append((k, c, "margin-none", None))
            elif rho_base == 0.0:
                if rho_scaled != 0.0:
                    failures.append((k, c, "margin-zero", None))
            elif abs(rho_scaled - rho_base) / rho_base > 1e-12:
                failures.append((k, c, "margin", abs(rho_scaled - rho_base) / rho_base))
    report(
        "C09", "vote-weight-scale-invariance",
        not failures,
        f"30 ensembles x c in (0.5, 3): predictions and margins stable; "
        f"failures={failures[:5]}",
    )


def test_c10_sweep_determinism_across_workers(tmp_path):
    base = [
        "exp", "m-sweep", "--d", "5",
        "--m-min", "10", "--m-max", "210", "--m-step", "50",
        "--repeats", "2", "--t-max", "5", "--epochs", "5", "--seed", "11",
    ]
    first = tmp_path / "w1"
    assert dispatch([*base, "--workers", "1", "--out", str(first)]) == 0
    manifest = first / "manifest"
    outputs = []
    for run_id, workers in (("a", "1"), ("b", "8"), ("c", "8")):
        out = tmp_path / f"re-{run_id}"
        code = dispatch(
            ["exp", "--config", str(manifest), "--workers", workers, "--out", str(out)]
        )
        assert code == 0
        outputs.append(
            ((out / "m-sweep.csv").read_bytes(), (out / "m-sweep.svg").read_bytes())
        )
    reference = ((first / "m-sweep.csv").read_bytes(), (first / "m-sweep.svg").read_bytes())
    identical = all(o == reference for o in outputs)
    report(
        "C10", "byte-identical-across-reruns-and-workers",
        identical,
        "4 runs (workers 1,1,8,8) produced identical CSV and SVG bytes"
        if identical else "outputs differ between runs",
    )


def _load_heart_dataset(path: Path) -> Dataset:
    target = os.environ.get("BOOSTBOUND_HEART_TARGET")  # default: the first column
    positive = os.environ.get("BOOSTBOUND_HEART_POSITIVE", "1")
    dataset = load_csv(path, target_column=target, positive_value=positive)
    if np.all(dataset.labels == -1.0) and positive == "1":
        # raw exports often store the binary target as "1.0"
        dataset = load_csv(path, target_column=target, positive_value="1.0")
    return dataset


def test_c11_real_data_m_sweep():
    path = Path(os.environ.get(HEART_CSV_ENV, HEART_CSV_DEFAULT))
    if not path.exists():
        pytest.skip(
            f"real-data CSV not found at {path}; download the heart-disease "
            f"health-indicators CSV and place it there (or set {HEART_CSV_ENV})"
        )
    dataset = _load_heart_dataset(path)
    if dataset.n_rows > 20_000:
        rows = make_rng(MASTER_SEED).choice(dataset.n_rows, size=20_000, replace=False)
        dataset = Dataset(features=dataset.features[rows], labels=dataset.labels[rows])
    grid = list(range(50, 10_001, 250))
    grid = [m for m in grid if m <= (dataset.n_rows + 1) // 2]
    points = [(m, dataset.n_features + 1) for m in grid]
    pair = split_half(dataset, real_split_seed(MASTER_SEED))
    (result,) = run_sweeps([swept("real-m-sweep", "real", points, 1)], MASTER_SEED, WORKERS, pair)
    conf = result.confidence
    report(
        "C11", "real-data-m-sweep",
        conf is not None and conf >= 0.95,
        f"confidence={100 * conf:.1f}% over {len(result.records)} runs "
        f"({dataset.n_rows} rows, {dataset.n_features} features), need >= 95%",
    )

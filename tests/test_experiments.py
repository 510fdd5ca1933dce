"""Sweep orchestration, polynomial fits, CSV/SVG emitters, feature ranking."""

import concurrent.futures
import math
import re
import tracemalloc
from contextlib import nullcontext
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from boostbound import (
    Dataset,
    Ensemble,
    PerceptronModel,
    compute_alpha,
    epsilon_boost,
    generate_synthetic,
    split_half,
    SyntheticConfig,
)
from boostbound.boosting import BoostRound
from boostbound.experiments import (
    CSV_HEADER,
    PolyFit,
    RunParams,
    RunRecord,
    SweepResult,
    SweepSpec,
    confidence_table,
    default_figure,
    emit_csv,
    emit_svg,
    feature_importances,
    load_records_csv,
    polyfit,
    rank_features,
    real_split_seed,
    run_sweeps,
    run_train_cell,
    sweep_grid,
)
from boostbound.bound import GapReport, check_bound
from boostbound.cli import dispatch
from boostbound.data import SplitPair, load_csv_split
from boostbound.experiments import sweeps
from boostbound.rng import derive_seed, make_rng

FAST = dict(T=3, epochs=3)

GOLDEN = Path(__file__).parent / "golden"
# Every golden sweep CSV: t-sweep rows, inapplicable d-sweep rows, train
# reports and real-data sweeps.
GOLDEN_SWEEP_CSVS = sorted(
    p for p in GOLDEN.rglob("*.csv") if p.read_text(encoding="utf-8").startswith(CSV_HEADER + "\n")
)


def run_one(spec, master_seed=42, workers=1, pair=None):
    """The one result of running a single sweep."""
    (result,) = run_sweeps([spec], master_seed, workers, pair)
    return result


def m_sweep(d, ms, repeats=1, T=10, epochs=10, delta=0.05):
    """The synthetic sweep over training sizes ``ms`` at dimension d."""
    return SweepSpec(f"m-sweep-d{d}", "synthetic", [(m, d) for m in ms], repeats, T, epochs, delta)


def d_sweep(m, ds, repeats=1, T=10, epochs=10, delta=0.05):
    """The synthetic sweep over dimensions ``ds`` at training size m."""
    return SweepSpec(f"d-sweep-m{m}", "synthetic", [(m, d) for d in ds], repeats, T, epochs, delta)


def t_sweep(d, m, t_max, repeats, master_seed, workers=1):
    """Mean staged errors over ``repeats`` cells of t_max rounds of
    two-epoch perceptrons (no bound)."""
    spec = SweepSpec(f"t-sweep-d{d}-m{m}", "synthetic", [(m, d)], repeats, t_max, 2, math.nan)
    return run_one(spec, master_seed, workers)


def tiny_m_sweep(n_repeats=1, workers=1):
    return run_one(m_sweep(5, [10, 20, 30], n_repeats, **FAST), workers=workers)


def in_process_pool(monkeypatch):
    """Replace the sweeps' process pool with one that runs the cells here, in
    the order they are submitted, and starts no process. Returns the list of
    (max_workers, submitted specs) of each pool made."""
    pools = []

    class InProcessPool:
        def __init__(self, max_workers, initializer, initargs):
            self.submitted = []
            pools.append((max_workers, self.submitted))
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, specs):
            self.submitted.extend(specs)
            return [fn(s) for s in specs]

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    return pools


def make_ensemble(weight_rows, epsilons=None):
    """Ensemble of hand-built rounds."""
    rounds = []
    epsilons = epsilons or [0.25] * len(weight_rows)
    for w, eps in zip(weight_rows, epsilons):
        rounds.append(
            BoostRound(
                hypothesis=PerceptronModel(weights=np.asarray(w, float), bias=0.0),
                alpha=compute_alpha(eps),
                epsilon=eps,
                flipped=False,
            )
        )
    return Ensemble(tuple(rounds))


class TestSampleSizeSweep:
    def test_record_count_matches_grid(self):
        result = tiny_m_sweep()
        assert len(result.records) == 3
        assert [r.params.m for r in result.records] == [10, 20, 30]

    def test_repeats_multiply_records(self):
        result = tiny_m_sweep(n_repeats=2)
        assert len(result.records) == 6
        assert [r.params.m for r in result.records] == [10, 10, 20, 20, 30, 30]

    def test_deterministic_across_runs_and_workers(self):
        a = tiny_m_sweep()
        b = tiny_m_sweep()
        c = tiny_m_sweep(workers=2)
        # two repeats per m: the pool runs equal-cost cells as well
        d = tiny_m_sweep(n_repeats=2)
        e = tiny_m_sweep(n_repeats=2, workers=2)
        assert [r.params.m for r in e.records] == [10, 10, 20, 20, 30, 30]
        for x, y in ((a, b), (a, c), (d, e)):
            assert len(x.records) == len(y.records)
            for rx, ry in zip(x.records, y.records):
                assert rx.params == ry.params
                assert rx.gap_report == ry.gap_report
                assert rx.applicable == ry.applicable

    def test_failing_cell_names_itself(self, monkeypatch):
        train_adaboost = sweeps.train_adaboost

        def fail_at_m20(train, n_rounds, config):
            if train.n_rows == 20:
                raise ValueError("boom")
            return train_adaboost(train, n_rounds, config)

        monkeypatch.setattr(sweeps, "train_adaboost", fail_at_m20)
        seed = derive_seed(42, 0, 1, 0)  # grid point 1 (m=20), repeat 0
        message = f"cell m-sweep-d5[T=3, m=20, d=5, seed={seed}] failed: boom"
        with pytest.raises(RuntimeError, match=re.escape(message)) as info:
            tiny_m_sweep()
        assert isinstance(info.value.__cause__, ValueError)

    def test_internal_consistency(self):
        result = tiny_m_sweep(n_repeats=2)
        for rec in result.records:
            g = rec.gap_report
            assert g.delta_r == g.test_error - g.train_error
            assert rec.applicable
            recomputed = epsilon_boost(g.rho, rec.params.d, rec.params.m, rec.params.delta)
            assert recomputed == g.epsilon_boost

    def test_confidence_matches_records(self):
        result = tiny_m_sweep(n_repeats=2)
        holding = [r.gap_report.holds for r in result.records if r.applicable]
        assert result.confidence == sum(holding) / len(holding)

    def test_rho_measured_on_train_is_unit_interval(self):
        result = tiny_m_sweep()
        for rec in result.records:
            assert rec.gap_report.rho is None or 0.0 <= rec.gap_report.rho <= 1.0

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            sweep_grid("m", 1, 30, 10)
        with pytest.raises(ValueError):
            sweep_grid("m", 30, 10, 10)
        with pytest.raises(ValueError):
            sweep_grid("m", 10, 30, 0)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: m_sweep(5, [10, 1]), "m must be at least 2, got 1"),
            (lambda: m_sweep(1, [10]), "d must be at least 2 (one input feature), got 1"),
            (lambda: d_sweep(20, [3, 1]), "d must be at least 2 (one input feature), got 1"),
            (lambda: m_sweep(5, [10], repeats=0), "repeats must be at least 1, got 0"),
            (lambda: m_sweep(5, []), "m-sweep-d5 has an empty grid"),
        ],
    )
    def test_spec_refuses_bad_points(self, build, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            build()


class TestDimensionSweep:
    def test_record_count(self):
        result = run_one(d_sweep(50, [5, 10], **FAST))
        assert len(result.records) == 2
        assert [r.params.d for r in result.records] == [5, 10]

    def test_inapplicable_cells_are_counted_not_fatal(self):
        # e*3 = 8.15: d=5 is applicable, d=10 is not.
        result = run_one(d_sweep(3, [5, 10], **FAST))
        assert len(result.records) == 2
        flags = [r.applicable for r in result.records]
        assert flags == [True, False]
        assert result.inapplicable_count == 1
        bad = result.records[1]
        assert math.isnan(bad.gap_report.epsilon_boost)
        assert not bad.gap_report.holds
        assert result.confidence == 1.0 or result.confidence == 0.0

    def test_pool_starts_the_largest_d_first(self, monkeypatch):
        # Every cell of a d-sweep has the same m, T and epochs.
        serial = run_one(d_sweep(20, [2, 28, 54, 80], **FAST))
        pools = in_process_pool(monkeypatch)
        pooled = run_one(d_sweep(20, [2, 28, 54, 80], **FAST), workers=2)
        ((_, submitted),) = pools
        assert [spec.params.d for spec in submitted] == [80, 54, 28, 2]
        assert [(r.params, r.gap_report, r.applicable) for r in pooled.records] == [
            (r.params, r.gap_report, r.applicable) for r in serial.records
        ]

    @pytest.mark.parametrize("rho", [None, 0.0])
    def test_cell_past_e_m_without_a_margin_has_an_infinite_bound(self, monkeypatch, rho):
        # epsilon_boost returns +inf for a zero or undefined margin before it
        # compares d with e*m, so this d=10 > e*3 cell is applicable and every
        # inapplicable record carries a margin, which inapplicable_count counts on.
        monkeypatch.setattr(sweeps, "evaluate", lambda ensemble, data: (np.array([0.25]), rho))
        result = run_one(d_sweep(3, [10], **FAST))
        (record,) = result.records
        assert record.applicable
        assert record.gap_report.rho == rho
        assert record.gap_report.epsilon_boost == math.inf
        assert result.inapplicable_count == 0
        assert result.confidence == 1.0


class TestOnePoolPerCommand:
    def test_confidence_runs_its_eight_sweeps_in_one_pool(self, monkeypatch, tmp_path, capsys):
        argv = [
            "exp", "confidence", "--m-min", "10", "--m-max", "40", "--m-step", "30",
            "--d-min", "2", "--d-max", "90", "--d-step", "44", "--t-max", "2", "--epochs", "1",
        ]
        assert dispatch(argv + ["--workers", "1", "--out", str(tmp_path / "serial")]) == 0
        pools = in_process_pool(monkeypatch)
        assert dispatch(argv + ["--workers", "2", "--out", str(tmp_path / "pooled")]) == 0
        ((max_workers, submitted),) = pools
        assert max_workers == 2
        # confidence's default of three repeats per grid point
        in_spec_order = [
            (f"m-sweep-d{d}", m, d) for d in (25, 50, 75, 100) for m in (10, 40) for _ in range(3)
        ]
        in_spec_order += [
            (f"d-sweep-m{m}", m, d)
            for m in (500, 1000, 1500, 2000) for d in (2, 46, 90) for _ in range(3)
        ]
        # every cell has T=2 and one epoch; sorted() is stable, so ties stay in spec order
        largest_first = sorted(in_spec_order, key=lambda c: -c[1] * c[2])
        assert [(s.experiment_id, s.params.m, s.params.d) for s in submitted] == largest_first
        for path in (tmp_path / "serial").iterdir():
            if path.name != "manifest":
                assert (tmp_path / "pooled" / path.name).read_bytes() == path.read_bytes()


class TestIterationSweep:
    def test_single_cell(self):
        result = t_sweep(3, 4, 1, 1, 42)
        assert len(result.records) == 1
        assert result.confidence is None
        assert result.inapplicable_count == 0

    def test_deterministic(self):
        a = t_sweep(3, 6, 4, 2, 7)
        b = t_sweep(3, 6, 4, 2, 7, workers=2)
        for ra, rb in zip(a.records, b.records):
            assert ra.gap_report == rb.gap_report

    def test_rows_carry_no_verdict(self):
        result = t_sweep(3, 6, 4, 2, 7)
        assert [r.params.T for r in result.records] == [1, 2, 3, 4]
        for rec in result.records:
            assert not rec.applicable
            assert rec.gap_report.rho is None
            assert math.isnan(rec.gap_report.epsilon_boost)
            assert math.isnan(rec.params.delta)
            assert rec.params.seed == 7
            g = rec.gap_report
            assert g.delta_r == g.test_error - g.train_error

    @pytest.mark.parametrize("workers, n_repeats, expected", [(64, 2, 2), (2, 3, 2)])
    def test_pool_gets_at_most_one_worker_per_cell(
        self, monkeypatch, workers, n_repeats, expected
    ):
        pools = in_process_pool(monkeypatch)
        pooled = t_sweep(3, 6, 4, n_repeats, 7, workers=workers)
        assert [max_workers for max_workers, _ in pools] == [expected]
        serial = t_sweep(3, 6, 4, n_repeats, 7)
        assert [r.gap_report for r in pooled.records] == [
            r.gap_report for r in serial.records
        ]

    def test_means_average_fresh_repeats(self):
        # With a single repeat the mean curve is that repeat's staged curve.
        from boostbound import (
            PerceptronConfig,
            split_half,
            train_adaboost,
        )
        from boostbound.boosting import evaluate
        from boostbound.rng import derive_seed

        master = 11
        result = t_sweep(3, 6, 4, 1, master)
        cell_seed = derive_seed(master, 0, 0, 0)
        data = generate_synthetic(
            SyntheticConfig(n_features=2, m_total=12, seed=derive_seed(cell_seed, 0))
        )
        pair = split_half(data, derive_seed(cell_seed, 1))
        trace = train_adaboost(
            pair.train, 4, PerceptronConfig(epochs=2, seed=derive_seed(cell_seed, 2))
        )
        train_curve = evaluate(trace.ensemble, pair.train)[0]
        test_curve = evaluate(trace.ensemble, pair.test)[0]
        for t, rec in enumerate(result.records):
            assert rec.gap_report.train_error == train_curve[t]
            assert rec.gap_report.test_error == test_curve[t]


def halves(ds, master_seed=42):
    """The train/test halves a real-data sweep with this seed runs on."""
    return split_half(ds, real_split_seed(master_seed))


def real_spec(pair, mode, grid, T=3, epochs=3):
    """The real-data sweep ("m-sweep" or "d-sweep") over ``grid`` on ``pair``:
    every feature at each m, or every train row at each d."""
    rows, width = pair.train.n_rows, pair.train.n_features + 1
    points = [(g, width) if mode == "m-sweep" else (rows, g) for g in grid]
    return SweepSpec(f"real-{mode}", "real", points, 1, T, epochs, 0.05)


def real_sweep(pair, mode, grid, workers=1):
    return run_one(real_spec(pair, mode, grid), 42, workers, pair)


def no_training(monkeypatch):
    """Make any boosting fit fail the test: a check must come first."""
    def train_adaboost(*args):
        raise AssertionError("trained before the grid was checked")

    monkeypatch.setattr(sweeps, "train_adaboost", train_adaboost)


class TestRealData:
    def real_dataset(self, m=120, n=4, seed=13):
        return generate_synthetic(
            SyntheticConfig(n_features=n, m_total=m, class_sep=1.0, seed=seed)
        )

    def test_m_sweep_counts_and_sizes(self):
        ds = self.real_dataset()
        result = real_sweep(halves(ds), "m-sweep", [20, 40])
        assert len(result.records) == 2
        assert [r.params.m for r in result.records] == [20, 40]
        for rec in result.records:
            assert rec.params.d == ds.n_features + 1
            assert rec.params.source == "real"
            assert 0.0 <= rec.gap_report.train_error <= 1.0
            assert 0.0 <= rec.gap_report.test_error <= 1.0

    @pytest.mark.parametrize(
        "mode, grid", [("m-sweep", [20, 40]), ("d-sweep", [2, 4, 5])], ids=["m-sweep", "d-sweep"]
    )
    def test_deterministic_across_workers(self, mode, grid):
        ds = self.real_dataset()
        a = real_sweep(halves(ds), mode, grid)
        b = real_sweep(halves(ds), mode, grid, workers=2)
        assert len(a.records) == len(b.records) == len(grid)
        for ra, rb in zip(a.records, b.records):
            assert ra.params == rb.params
            assert ra.gap_report == rb.gap_report

    def test_m_sweep_grid_capacity(self, monkeypatch):
        ds = self.real_dataset(m=40)
        no_training(monkeypatch)
        with pytest.raises(ValueError, match="exceeds the train half"):
            real_sweep(halves(ds), "m-sweep", [50])

    def test_d_sweep_uses_top_features(self):
        ds = self.real_dataset()
        result = real_sweep(halves(ds), "d-sweep", [2, 5])
        assert [r.params.d for r in result.records] == [2, 5]
        # every cell trains on the whole train half
        assert all(r.params.m == 60 for r in result.records)

    def test_d_sweep_full_prefix_is_identity(self):
        # d-1 == n_features keeps the entire (reordered) feature set.
        ds = self.real_dataset()
        full = real_sweep(halves(ds), "d-sweep", [5])
        assert full.records[0].params.d == 5
        assert full.records[0].applicable

    def test_d_sweep_cell_holds_no_column_copy(self, tmp_path):
        # A cell at d = n + 1 fits on a view of its train half (about 1.3x
        # the halves' bytes in the fit's temporaries); a copy of the kept
        # columns of both halves would add another 1x.
        n = 20
        ds = self.real_dataset(m=4000, n=n)
        lines = ["label," + ",".join(f"c{j}" for j in range(n))] + [
            ("1" if y > 0 else "0") + "," + ",".join(format(v, ".17g") for v in row)
            for y, row in zip(ds.labels, ds.features)
        ]
        path = tmp_path / "real.csv"
        path.write_text("\n".join(lines) + "\n")
        pair = load_csv_split(path, "label", "1", real_split_seed(42))
        held = pair.train.features.nbytes + pair.test.features.nbytes
        tracemalloc.start()
        try:
            real_sweep(pair, "d-sweep", [n + 1])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.6 * held

    @pytest.mark.parametrize("fail_at", [None, 3])
    def test_d_sweep_leaves_the_halves_as_they_were(self, monkeypatch, fail_at):
        # Call 1 of train_adaboost is the ranking fit, call 3 the second cell.
        pair = halves(self.real_dataset(n=6))
        before = [h.features.tobytes() for h in (pair.train, pair.test)]
        in_file_order = []
        train_adaboost = sweeps.train_adaboost

        def spy(*args):
            in_file_order.append(pair.train.features.tobytes() == before[0])
            if len(in_file_order) == fail_at:
                raise RuntimeError("cell failed")
            return train_adaboost(*args)

        monkeypatch.setattr(sweeps, "train_adaboost", spy)
        raises = pytest.raises(RuntimeError, match="cell failed") if fail_at else nullcontext()
        with raises:
            real_sweep(pair, "d-sweep", [3, 5, 7])
        assert in_file_order[0] and not any(in_file_order[1:])
        assert [h.features.tobytes() for h in (pair.train, pair.test)] == before
        assert not any(h.features.flags.writeable for h in (pair.train, pair.test))

    def test_d_sweep_copies_halves_it_cannot_permute_in_place(self):
        def viewed(h):  # a view of a writable buffer: permuted in place
            return Dataset(np.array(h.features)[:], h.labels)

        def owned(h):  # a read-only view of a writable copy: permuted in place
            return Dataset(h.features.copy(), h.labels)

        def frozen(h):  # a view of immutable bytes: copied
            return Dataset(np.frombuffer(h.features.tobytes()).reshape(h.features.shape), h.labels)

        def gap_reports(train, test):
            before = [train.features.tobytes(), test.features.tobytes()]
            result = real_sweep(SplitPair(train, test), "d-sweep", [3, 7])
            assert [train.features.tobytes(), test.features.tobytes()] == before
            return [r.gap_report for r in result.records]

        pair = halves(self.real_dataset(n=6))
        train, test = pair.train, pair.test
        expected = gap_reports(train, test)
        assert gap_reports(owned(train), owned(test)) == expected
        assert gap_reports(frozen(train), frozen(test)) == expected
        assert gap_reports(train, train) == gap_reports(train, viewed(train))

    def test_d_sweep_rejects_too_many_features(self, monkeypatch):
        ds = self.real_dataset(n=3)
        no_training(monkeypatch)  # not even the ranking fit
        with pytest.raises(ValueError, match="features"):
            real_sweep(halves(ds), "d-sweep", [6])

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            SweepSpec("real-x-sweep", "real", [(60, 2)], 1, 3, 3, 0.05)

    def test_points_name_what_the_cells_use(self, monkeypatch):
        pair = halves(self.real_dataset())  # 60 train rows x 4 features
        no_training(monkeypatch)
        for mode, point in (("m-sweep", (20, 3)), ("d-sweep", (59, 3))):
            spec = replace(real_spec(pair, mode, [2]), points=(point,))
            message = f"real-{mode} point m={point[0]}, d={point[1]} does not use the whole"
            with pytest.raises(ValueError, match=re.escape(message)):
                run_sweeps([spec], 42, 1, pair)
        ranked = [real_spec(pair, "d-sweep", [2]), real_spec(pair, "d-sweep", [3], T=4)]
        with pytest.raises(ValueError, match="must share T and epochs"):
            run_sweeps(ranked, 42, 1, pair)

    def test_d_sweeps_run_together_share_one_ranking(self):
        pair = halves(self.real_dataset(n=6))
        both = run_sweeps(
            [real_spec(pair, "d-sweep", [3, 7]), real_spec(pair, "d-sweep", [5])], 42, 2, pair
        )
        alone = [real_sweep(pair, "d-sweep", [3, 7]), real_sweep(pair, "d-sweep", [5])]
        assert [[r.gap_report for r in x.records] for x in both] == [
            [r.gap_report for r in x.records] for x in alone
        ]


class TestTrainCell:
    def pair(self):
        return halves(generate_synthetic(SyntheticConfig(n_features=4, m_total=40, seed=13)))

    def test_records_the_pair_shape(self):
        record = run_train_cell(5, 20, 2, 1, 0.05, 7, self.pair())
        assert (record.params.d, record.params.m, record.params.source) == (5, 20, "real")

    @pytest.mark.parametrize("d, m", [(5, 10), (3, 20), (6, 21)])
    def test_rejects_d_or_m_that_disagree_with_the_pair(self, d, m):
        message = f"d={d}, m={m} disagree with the train half (20 rows x 4 features: d=5, m=20)"
        with pytest.raises(ValueError, match=re.escape(message)):
            run_train_cell(d, m, 2, 1, 0.05, 7, self.pair())


class TestRankFeatures:
    def test_single_nonzero_coordinate(self):
        ens = make_ensemble([[0.0, 5.0, 0.0]])
        assert rank_features(ens) == [1, 0, 2]
        np.testing.assert_allclose(feature_importances(ens), [0.0, 1.0, 0.0])

    def test_scaling_invariance_of_ranking(self):
        one = make_ensemble([[0.0, 5.0, 0.0]])
        two = make_ensemble([[0.0, 5.0, 0.0], [0.0, 5.0, 0.0]])
        assert rank_features(one) == rank_features(two)

    def test_all_zero_weights_tie_break(self):
        ens = make_ensemble([[0.0, 0.0, 0.0]])
        assert rank_features(ens) == [0, 1, 2]
        np.testing.assert_allclose(feature_importances(ens), [1 / 3] * 3)

    def test_flips_do_not_affect_ranking(self):
        plain = make_ensemble([[1.0, -4.0]])
        flipped = Ensemble((replace(plain.rounds[0], flipped=True),))
        assert rank_features(plain) == rank_features(flipped) == [1, 0]

    def test_importances_sum_to_one(self):
        ens = make_ensemble([[1.0, 2.0, 3.0], [0.5, 0.0, 1.0]])
        assert float(np.sum(feature_importances(ens))) == pytest.approx(1.0, abs=1e-12)


class TestConfidenceTable:
    def test_formatting(self):
        full = tiny_m_sweep()
        rows = confidence_table([full])
        assert rows == [("m-sweep-d5", f"{100 * full.confidence:.1f}%")]

    def test_exact_percentages(self):
        def sweep_with(n_holding, n):
            rec = tiny_m_sweep().records[0]
            ceilings = [math.inf] * n_holding + [0.0] * (n - n_holding)
            return SweepResult([
                replace(rec, gap_report=GapReport(0.0, 0.5, None, c)) for c in ceilings
            ])

        rows = confidence_table([sweep_with(1, 1), sweep_with(33, 40)])
        assert [c for _, c in rows] == ["100.0%", "82.5%"]

    def test_rejects_empty_and_verdictless(self):
        with pytest.raises(ValueError):
            confidence_table([])
        staged = t_sweep(3, 4, 1, 1, 42)
        with pytest.raises(ValueError, match="confidence"):
            confidence_table([staged])


class TestPolyfit:
    def test_exact_linear_data(self):
        points = [(x, 2.0 * x) for x in np.linspace(-3, 7, 9)]
        fit = polyfit(points, order=1)
        got = fit.evaluate(np.array([p[0] for p in points]))
        np.testing.assert_allclose(got, [p[1] for p in points], atol=1e-9)

    def test_interpolation_at_order_ten(self):
        rng = make_rng(3)
        xs = np.linspace(10.0, 10000.0, 11)
        ys = rng.standard_normal(11)
        fit = polyfit(list(zip(xs, ys)), order=10)
        np.testing.assert_allclose(fit.evaluate(xs), ys, atol=1e-6)

    def test_nested_orders_reduce_residual(self):
        rng = make_rng(4)
        xs = np.linspace(0.0, 1.0, 40)
        ys = np.sin(3 * xs) + 0.1 * rng.standard_normal(40)
        points = list(zip(xs, ys))
        ssr = {}
        for order in (2, 10):
            fit = polyfit(points, order=order)
            ssr[order] = float(np.sum((fit.evaluate(xs) - ys) ** 2))
        assert ssr[10] <= ssr[2]

    def test_least_squares_optimum_under_perturbation(self):
        rng = make_rng(5)
        xs = np.linspace(0.0, 5.0, 30)
        ys = xs**2 + rng.standard_normal(30)
        fit = polyfit(list(zip(xs, ys)), order=3)
        best = float(np.sum((fit.evaluate(xs) - ys) ** 2))
        for trial in range(20):
            noise = 1e-3 * make_rng(trial).standard_normal(4)
            perturbed = PolyFit(coefficients=fit.coefficients + noise, x_scale=fit.x_scale)
            assert float(np.sum((perturbed.evaluate(xs) - ys) ** 2)) >= best

    def test_matches_a_naive_exact_solve_bit_for_bit(self):
        # Small grids of integer x, some repeated, with dyadic y: the
        # coefficients are the exact solution of V^T V c = V^T y in the
        # rescaled variable u, each rounded to the nearest double once.
        rng = make_rng(6)
        for _ in range(25):
            order = int(rng.integers(1, 5))
            n_distinct = order + 1 + int(rng.integers(0, 4))
            distinct = rng.choice(np.arange(-40, 41), n_distinct, replace=False)
            xs = [int(x) for x in distinct] + [int(x) for x in rng.choice(distinct, 3)]
            ys = [int(rng.integers(-2**20, 2**20)) / 2 ** int(rng.integers(0, 30)) for _ in xs]
            lo, hi = min(xs), max(xs)
            us = [Fraction(2 * x - lo - hi, hi - lo) for x in xs]
            k = order + 1
            a = [[sum(u ** (i + j) for u in us) for j in range(k)] for i in range(k)]
            b = [sum(Fraction(y) * u**i for u, y in zip(us, ys)) for i in range(k)]
            for i in range(k):
                for r in range(i + 1, k):
                    f = a[r][i] / a[i][i]
                    a[r] = [v - f * w for v, w in zip(a[r], a[i])]
                    b[r] -= f * b[i]
            c = [Fraction(0)] * k
            for i in reversed(range(k)):
                c[i] = (b[i] - sum(a[i][j] * c[j] for j in range(i + 1, k))) / a[i][i]
            fit = polyfit([(float(x), y) for x, y in zip(xs, ys)], order=order)
            assert fit.coefficients.tolist() == [float(v) for v in c]

    def test_constant_data_gives_the_exact_constant(self):
        # A flat sweep: any rounding noise in the fit would be stretched
        # over the plot by the SVG's y-range.
        y = 0.009999999999999995
        fit = polyfit([(2.0, y), (12.0, y), (22.0, y)], order=2)
        assert fit.evaluate(np.linspace(2.0, 22.0, 200)).tolist() == [y] * 200

    def test_rejects_insufficient_points(self):
        with pytest.raises(ValueError, match="distinct"):
            polyfit([(0.0, 1.0), (0.0, 2.0), (1.0, 3.0)], order=2)


def synthetic_result_with_infinite_bound():
    report = GapReport(train_error=0.0, test_error=0.5, rho=0.0, epsilon_boost=math.inf)
    rec = RunRecord(
        experiment_id="m-sweep-d5",
        params=RunParams(T=3, m=10, d=5, delta=0.05, seed=1, source="synthetic"),
        gap_report=report,
    )
    return SweepResult((rec,))


class TestEmitters:
    def test_csv_header_and_shape(self, tmp_path):
        result = tiny_m_sweep()
        path = tmp_path / "sweep.csv"
        emit_csv(result, path)
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert lines[0] == (
            "experiment_id,source,T,m,d,delta,seed,rho,"
            "train_error,test_error,delta_r,epsilon_boost,holds,applicable"
        )
        assert len(lines) == 1 + len(result.records)

    def test_csv_byte_identical(self, tmp_path):
        result = tiny_m_sweep()
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(result, a)
        emit_csv(result, b)
        assert a.read_bytes() == b.read_bytes()

    def test_csv_serializes_infinity(self, tmp_path):
        path = tmp_path / "inf.csv"
        emit_csv(synthetic_result_with_infinite_bound(), path)
        row = path.read_text().splitlines()[1]
        assert ",+inf," in row

    def test_csv_round_trip_is_exact(self, tmp_path):
        result = tiny_m_sweep(n_repeats=2)
        path = tmp_path / "sweep.csv"
        emit_csv(result, path)
        loaded = load_records_csv(path)
        assert len(loaded.records) == len(result.records)
        for got, want in zip(loaded.records, result.records):
            assert got.params == want.params
            assert got.gap_report == want.gap_report
            assert got.applicable == want.applicable
        assert loaded.confidence == result.confidence
        again = tmp_path / "again.csv"
        emit_csv(loaded, again)
        assert again.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("path", GOLDEN_SWEEP_CSVS, ids=lambda p: str(p.relative_to(GOLDEN)))
    def test_golden_csv_round_trip_is_exact(self, tmp_path, path):
        again = tmp_path / "again.csv"
        emit_csv(load_records_csv(path), again)
        assert again.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"delta_r": "0.5"}, "delta_r must equal test_error - train_error exactly"),
            (
                {"epsilon_boost": "+inf", "holds": "false"},
                "holds=false contradicts delta_r 0.1 and epsilon_boost inf "
                "(an infinite ceiling always holds, a NaN one never does)",
            ),
            (
                {"epsilon_boost": "nan"},
                "holds=true contradicts delta_r 0.1 and epsilon_boost nan "
                "(an infinite ceiling always holds, a NaN one never does)",
            ),
            (
                {"epsilon_boost": "nan", "holds": "false"},
                "applicable=true contradicts epsilon_boost nan "
                "(a row has a verdict exactly when its ceiling is not NaN)",
            ),
        ],
        ids=["inconsistent-delta", "non-holding-infinity", "holding-nan", "applicable-nan"],
    )
    def test_load_rejects_a_row_whose_verdict_contradicts_it(self, tmp_path, changes, message):
        row = dict(zip(CSV_HEADER.split(","), [
            "m-sweep-d5", "synthetic", "3", "10", "5", "0.05", "1", "0.5",
            "0.10000000000000001", "0.20000000000000001", "0.10000000000000001", "3.0",
            "true", "true",
        ]))
        path = tmp_path / "row.csv"
        path.write_text(f"{CSV_HEADER}\n{','.join(row.values())}\n")
        assert load_records_csv(path).confidence == 1.0
        path.write_text(f"{CSV_HEADER}\n{','.join({**row, **changes}.values())}\n")
        with pytest.raises(ValueError) as info:
            load_records_csv(path)
        assert str(info.value) == f"{path}: row 2: {message}"

    def test_svg_structure(self, tmp_path):
        result = tiny_m_sweep(n_repeats=2)
        fit, curve = default_figure(result)
        path = tmp_path / "fig.svg"
        emit_svg(result, fit, curve, path)
        text = path.read_text()
        assert text.startswith("<?xml")
        assert 'viewBox="0 0 800 600"' in text
        assert text.count("<circle") == len(result.records)
        assert text.count("stroke-dasharray") == 1
        assert text.count("<polyline") == 2  # solid fit + dashed bound

    def test_svg_without_bound_curve(self, tmp_path):
        result = t_sweep(3, 6, 4, 2, 7)
        fit, curve = default_figure(result)
        assert curve is None
        path = tmp_path / "t.svg"
        emit_svg(result, fit, curve, path)
        text = path.read_text()
        assert "stroke-dasharray" not in text
        assert text.count("<circle") == 4

    def test_svg_byte_identical(self, tmp_path):
        result = tiny_m_sweep()
        fit, curve = default_figure(result)
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        emit_svg(result, fit, curve, a)
        emit_svg(result, fit, curve, b)
        assert a.read_bytes() == b.read_bytes()

    def test_near_flat_sweep_draws_a_flat_fit_and_distinct_ticks(self, tmp_path):
        # delta_r differ only in the last bits (0.11 - 0.1 against 0.31 - 0.3)
        result = load_records_csv(Path(__file__).parent / "golden" / "real-d-near.csv")
        assert len({r.gap_report.delta_r for r in result.records}) > 1
        fit, curve = default_figure(result)
        path = tmp_path / "near.svg"
        emit_svg(result, fit, curve, path)
        text = path.read_text()
        ticks = re.findall(r'text-anchor="end" dominant-baseline="middle">([^<]*)<', text)
        assert len(ticks) == 5 and len(set(ticks)) == 5
        fit_line = re.search(r'stroke="#2ca02c"[^>]*points="([^"]*)"', text).group(1)
        assert len({pt.split(",")[1] for pt in fit_line.split()}) == 1

    def test_empty_sweep_rejected(self, tmp_path):
        empty = SweepResult(())
        with pytest.raises(ValueError):
            emit_csv(empty, tmp_path / "x.csv")
        with pytest.raises(ValueError):
            emit_svg(empty, None, None, tmp_path / "x.svg")


class TestDefaultFigure:
    @settings(max_examples=80, deadline=None)
    @given(
        cells=st.lists(
            st.tuples(
                st.sampled_from([10, 20, 30, 40]),
                st.sampled_from([0.0, 0.125, 0.3, 1.0]) | st.floats(0.0, 1.0),
            ),
            min_size=1,
            max_size=15,
        )
    )
    @example(cells=[(10, 0.3), (20, 0.1), (30, 0.3)])  # odd, tied
    @example(cells=[(10, 0.3), (20, 0.1), (20, 0.7), (30, 0.2)])  # even
    @example(cells=[(10, 0.5), (10, 0.5)])  # one abscissa, tied
    def test_median_margin_and_distinct_count_equal_numpys(self, cells):
        records = [
            RunRecord(
                "m-sweep-d5",
                RunParams(T=3, m=m, d=5, delta=0.05, seed=i, source="synthetic"),
                check_bound(0.1, 0.2, rho, 5, m, 0.05),
            )
            for i, (m, rho) in enumerate(cells)
        ]
        fit, curve = default_figure(SweepResult(records))
        distinct = int(np.unique([float(m) for m, _ in cells]).size)
        if distinct < 2:
            assert fit is None
        else:
            assert fit.coefficients.size == min(10, distinct - 1) + 1
        med = float(np.median([rho for _, rho in cells]))
        assert curve == [
            (float(m), epsilon_boost(med, 5, m, 0.05)) for m in sorted({m for m, _ in cells})
        ]

    def test_bound_curve_sorted_and_applicable_only(self):
        result = tiny_m_sweep(n_repeats=2)
        fit, curve = default_figure(result)
        assert fit is not None
        xs = [x for x, _ in curve]
        assert xs == sorted(xs) == [10.0, 20.0, 30.0]
        rhos = [r.gap_report.rho for r in result.records]
        med = float(np.median(rhos))
        for (x, y), m in zip(curve, (10, 20, 30)):
            assert y == epsilon_boost(rho=med, d=5, m=m, delta=0.05)

"""Dataset construction, synthetic generation, splitting, CSV ingestion."""

import csv
import io
import itertools
import math
import re
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boostbound import (
    Dataset,
    SyntheticConfig,
    generate_synthetic,
    load_csv,
    load_csv_split,
    split_half,
)
from boostbound.data import LOAD_BLOCK_ROWS, _line_breaks, synthetic_split
from boostbound.perceptron import (
    Distribution,
    PerceptronConfig,
    fit_perceptron,
    predict_many,
)
from boostbound.rng import make_rng

def small_dataset(m=6, n=3, seed=0):
    rng = np.random.default_rng(seed)
    features = rng.standard_normal((m, n))
    labels = np.where(rng.standard_normal(m) >= 0, 1.0, -1.0)
    return Dataset(features=features, labels=labels)


def write_random_csv(path, rows, n_cols=21):
    """A CSV of a 0/1 target ``t`` and standard-normal features; returns the table."""
    rng = np.random.default_rng(0)
    table = np.column_stack(
        [rng.integers(0, 2, rows), rng.standard_normal((rows, n_cols))]
    )
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"x{i}" for i in range(n_cols)])
        writer.writerows([[int(r[0])] + [repr(v) for v in r[1:]] for r in table.tolist()])
    return table


def storage_dtype(values):
    """The dtype the loader keeps a table of ``values`` in: uint8 when every
    value is an integer in 0..255 that is not -0.0, float64 otherwise."""
    small = all(
        v.is_integer() and 0.0 <= v <= 255.0 and math.copysign(1.0, v) == 1.0 for v in values
    )
    return np.uint8 if small else np.float64


def integer_rows(n_rows, n_cols=3, seed=0):
    """Text cells of a 0/1 target and ``n_cols`` features in 0..255."""
    rng = np.random.default_rng(seed)
    table = np.column_stack([rng.integers(0, 2, n_rows), rng.integers(0, 256, (n_rows, n_cols))])
    return [[str(v) for v in row] for row in table.tolist()]


def write_rows(path, rows):
    """A CSV of ``rows`` under the header t, x0, x1, ...; returns its path."""
    header = ",".join(["t"] + [f"x{j}" for j in range(len(rows[0]) - 1)])
    path.write_text("\n".join([header] + [",".join(r) for r in rows]) + "\n", encoding="utf-8")
    return path


class TestDatasetInvariants:
    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError, match="label"):
            Dataset(features=np.zeros((2, 1)), labels=np.array([1.0, 0.5]))

    def test_rejects_nan_features(self):
        with pytest.raises(ValueError, match="NaN|infinite"):
            Dataset(features=np.array([[np.nan]]), labels=np.array([1.0]))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            Dataset(features=np.zeros((3, 1)), labels=np.array([1.0, -1.0]))

    def test_rows_are_immutable(self):
        ds = small_dataset()
        with pytest.raises(ValueError):
            ds.features[0, 0] = 99.0

    def test_leaves_the_callers_array_writable(self):
        X = np.zeros((3, 2))
        ds = Dataset(X, np.ones(3))
        X[0, 0] = 1.0
        assert np.shares_memory(ds.features, X) and ds.features[0, 0] == 1.0
        assert not ds.features.flags.writeable

    def test_keeps_a_column_slice_as_a_read_only_view(self):
        X = np.random.default_rng(1).standard_normal((7, 5))
        ds = Dataset(X[:, :3], np.ones(7))
        assert np.shares_memory(ds.features, X)
        assert not ds.features.flags.writeable
        assert X.flags.writeable
        np.testing.assert_array_equal(ds.features, X[:, :3])

    @pytest.mark.parametrize("layout", ["every-other-column", "fortran"])
    def test_copies_a_matrix_whose_rows_are_not_contiguous(self, layout):
        X = np.random.default_rng(1).standard_normal((7, 6))
        source = X[:, ::2] if layout == "every-other-column" else np.asfortranarray(X)
        ds = Dataset(source, np.ones(7))
        assert not np.shares_memory(ds.features, X) and not np.shares_memory(ds.features, source)
        assert ds.features.flags.c_contiguous and not ds.features.flags.writeable
        np.testing.assert_array_equal(ds.features, source)

    @pytest.mark.parametrize("k", [1, 7, 21])
    def test_fit_and_predict_on_a_view_equal_those_on_a_copy(self, k):
        rng = np.random.default_rng(k)
        X = rng.standard_normal((301, 24))
        y = np.where(rng.standard_normal(301) >= 0, 1.0, -1.0)
        view = Dataset(X[:, :k], y)
        copy = Dataset(np.ascontiguousarray(X[:, :k]), y)
        assert np.shares_memory(view.features, X) and not np.shares_memory(copy.features, X)
        dist = Distribution(rng.dirichlet(np.ones(301)))
        config = PerceptronConfig(epochs=3, seed=k)
        a, b = fit_perceptron(view, dist, config), fit_perceptron(copy, dist, config)
        assert a.weights.tobytes() == b.weights.tobytes() and a.bias == b.bias
        assert predict_many(a, view.features).tobytes() == predict_many(b, copy.features).tobytes()


class TestSyntheticConfig:
    def test_defaults_match_generator_parameters(self):
        cfg = SyntheticConfig(n_features=3, m_total=10, seed=1)
        assert cfg.class_sep == 0.5
        assert cfg.flip_y == 0.05

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(m_total=1),
            dict(class_sep=-0.1),
            dict(flip_y=1.5),
            dict(flip_y=-0.01),
            dict(n_features=0),
        ],
    )
    def test_rejects_invalid(self, kwargs):
        base = dict(n_features=2, m_total=4, seed=0)
        base.update(kwargs)
        with pytest.raises(ValueError):
            SyntheticConfig(**base)


class TestGenerateSynthetic:
    def test_balanced_assignment_without_flips(self):
        ds = generate_synthetic(
            SyntheticConfig(n_features=2, m_total=4, flip_y=0.0, seed=5)
        )
        assert int(np.sum(ds.labels == 1.0)) == 2
        assert int(np.sum(ds.labels == -1.0)) == 2

    def test_odd_total_gives_extra_positive(self):
        ds = generate_synthetic(
            SyntheticConfig(n_features=2, m_total=7, flip_y=0.0, seed=5)
        )
        assert int(np.sum(ds.labels == 1.0)) == 4

    def test_zero_separation_means_coincide(self):
        # Same seed, different separation: identical Gaussian draws, so the
        # datasets differ by exactly the +/- class_sep/sqrt(n) offset.
        n, sep = 4, 0.8
        flat = generate_synthetic(
            SyntheticConfig(n_features=n, m_total=10, class_sep=0.0, flip_y=0.0, seed=3)
        )
        apart = generate_synthetic(
            SyntheticConfig(n_features=n, m_total=10, class_sep=sep, flip_y=0.0, seed=3)
        )
        offset = sep / math.sqrt(n)
        expected = flat.features + flat.labels[:, None] * offset
        np.testing.assert_allclose(apart.features, expected, rtol=0, atol=1e-12)

    def test_flips_change_labels_not_features(self):
        base = SyntheticConfig(n_features=3, m_total=50, flip_y=0.0, seed=11)
        flipped = SyntheticConfig(n_features=3, m_total=50, flip_y=0.3, seed=11)
        a, b = generate_synthetic(base), generate_synthetic(flipped)
        np.testing.assert_array_equal(a.features, b.features)
        assert np.any(a.labels != b.labels)

    def test_flip_fraction_within_binomial_interval(self):
        # Central 99.9% interval for Binomial(100000, 0.05), computed with
        # scipy.stats.binom.ppf(0.0005 / 0.9995, 100000, 0.05): [4775, 5228].
        m = 100_000
        ds = generate_synthetic(
            SyntheticConfig(n_features=2, m_total=m, flip_y=0.05, seed=123)
        )
        pre_flip = np.concatenate([np.ones(m // 2), -np.ones(m // 2)])
        flips = int(np.sum(ds.labels != pre_flip))
        assert 4775 <= flips <= 5228

    def test_deterministic_given_seed(self):
        cfg = SyntheticConfig(n_features=3, m_total=20, seed=9)
        a, b = generate_synthetic(cfg), generate_synthetic(cfg)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)


def two_block_draw(config):
    """The synthetic draw as first written, kept as an oracle: each cluster
    from its own ``standard_normal(size)`` call, shifted, then concatenated."""
    rng = make_rng(config.seed)
    n = config.n_features
    n_pos, n_neg = (config.m_total + 1) // 2, config.m_total // 2
    offset = config.class_sep / math.sqrt(n)
    pos = rng.standard_normal((n_pos, n)) + offset
    neg = rng.standard_normal((n_neg, n)) - offset
    labels = np.concatenate([np.ones(n_pos), -np.ones(n_neg)])
    flips = rng.uniform(size=config.m_total) < config.flip_y
    return np.concatenate([pos, neg], axis=0), np.where(flips, -labels, labels)


synthetic_configs = st.builds(
    SyntheticConfig,
    n_features=st.integers(1, 30),
    m_total=st.integers(2, 301),
    class_sep=st.floats(0.0, 10.0),
    flip_y=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**64 - 1),
)


class TestSyntheticBits:
    @settings(max_examples=80, deadline=None)
    @given(config=synthetic_configs)
    def test_generate_equals_the_two_block_draw(self, config):
        features, labels = two_block_draw(config)
        ds = generate_synthetic(config)
        assert ds.features.shape == features.shape
        assert ds.features.tobytes() == features.tobytes()
        assert ds.labels.tobytes() == labels.tobytes()

    @settings(max_examples=80, deadline=None)
    @given(config=synthetic_configs, seed=st.integers(0, 2**64 - 1))
    def test_synthetic_split_equals_split_half_of_generate(self, config, seed):
        want = split_half(generate_synthetic(config), seed)
        got = synthetic_split(config, seed)
        for g, w in ((got.train, want.train), (got.test, want.test)):
            assert g.features.shape == w.features.shape
            assert g.features.tobytes() == w.features.tobytes()
            assert g.labels.tobytes() == w.labels.tobytes()
            with pytest.raises(ValueError):
                g.features[0, 0] = 1.0

    def test_synthetic_split_holds_the_rows_once(self):
        config = SyntheticConfig(n_features=20, m_total=5001, seed=5)
        tracemalloc.start()
        try:
            pair = synthetic_split(config, seed=6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        halves = (pair.train, pair.test)
        assert sum(h.n_rows for h in halves) == config.m_total
        assert peak <= 1.5 * sum(h.features.nbytes + h.labels.nbytes for h in halves)


class TestSplitHalf:
    def test_even_split(self):
        pair = split_half(small_dataset(m=10), seed=1)
        assert pair.train.n_rows == 5
        assert pair.test.n_rows == 5

    def test_odd_split_extra_row_to_train(self):
        pair = split_half(small_dataset(m=11), seed=1)
        assert pair.train.n_rows == 6
        assert pair.test.n_rows == 5

    def test_deterministic(self):
        ds = small_dataset(m=10)
        a, b = split_half(ds, seed=4), split_half(ds, seed=4)
        np.testing.assert_array_equal(a.train.features, b.train.features)
        np.testing.assert_array_equal(a.test.labels, b.test.labels)

    def test_rejects_tiny_dataset(self):
        with pytest.raises(ValueError, match="at least 2"):
            split_half(small_dataset(m=1), seed=0)

    def test_gathers_rows_and_leaves_source_alone(self):
        ds = small_dataset(m=11)
        before = (ds.features.tobytes(), ds.labels.tobytes())
        pair = split_half(ds, seed=2)
        assert (ds.features.tobytes(), ds.labels.tobytes()) == before
        perm = make_rng(2).permutation(11)
        for half, rows in ((pair.train, perm[:6]), (pair.test, perm[6:])):
            assert half.features.tobytes() == ds.features[rows].tobytes()
            assert half.labels.tobytes() == ds.labels[rows].tobytes()
            with pytest.raises(ValueError):
                half.features[0, 0] = 1.0
            with pytest.raises(ValueError):
                half.labels[0] = 1.0

    @settings(max_examples=30, deadline=None)
    @given(m=st.integers(2, 40), seed=st.integers(0, 2**32 - 1))
    def test_union_is_source_multiset(self, m, seed):
        ds = small_dataset(m=m, n=2, seed=7)
        pair = split_half(ds, seed=seed)
        combined = np.concatenate([pair.train.features, pair.test.features])
        key = np.lexsort(combined.T)
        src_key = np.lexsort(ds.features.T)
        np.testing.assert_array_equal(combined[key], ds.features[src_key])
        labels = np.concatenate([pair.train.labels, pair.test.labels])
        assert sorted(labels) == sorted(ds.labels)


class TestLoadCsv:
    def write(self, tmp_path, text, name="data.csv"):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return path

    def test_happy_path(self, tmp_path):
        path = self.write(tmp_path, "t,a,b\n1,0.5,2\n0,1.5,3\n")
        ds = load_csv(path, target_column="t", positive_value="1")
        assert ds.n_rows == 2
        np.testing.assert_array_equal(ds.labels, [1.0, -1.0])
        np.testing.assert_array_equal(ds.features, [[0.5, 2.0], [1.5, 3.0]])

    def test_missing_target_column(self, tmp_path):
        path = self.write(tmp_path, "t,a\n1,2\n")
        with pytest.raises(ValueError, match="'missing'"):
            load_csv(path, target_column="missing", positive_value="1")

    def test_non_numeric_cell_names_row_and_column(self, tmp_path):
        path = self.write(tmp_path, "t,a,b\n1,0.5,2\n0,oops,3\n")
        with pytest.raises(ValueError, match=r"row 3.*'a'"):
            load_csv(path, target_column="t", positive_value="1")

    def test_non_finite_cell_rejected(self, tmp_path):
        path = self.write(tmp_path, "t,a\n1,inf\n")
        with pytest.raises(ValueError, match="row 2"):
            load_csv(path, target_column="t", positive_value="1")

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv(tmp_path / "nope.csv", target_column="t", positive_value="1")

    def test_empty_body(self, tmp_path):
        path = self.write(tmp_path, "t,a\n")
        with pytest.raises(ValueError, match="no data rows"):
            load_csv(path, target_column="t", positive_value="1")

    def test_cells_load_exactly(self, tmp_path):
        path = self.write(tmp_path, "y,a,b,c\n1,1.25,-2,0.0078125\n0,3,4,5\n")
        ds = load_csv(path, target_column="y", positive_value="1")
        np.testing.assert_array_equal(ds.features, [[1.25, -2.0, 0.0078125], [3.0, 4.0, 5.0]])
        np.testing.assert_array_equal(ds.labels, [1.0, -1.0])

    def test_blank_lines_skipped_but_counted_in_row_numbers(self, tmp_path):
        path = self.write(tmp_path, "t,a\n1,1\n\n0,2\n")
        ds = load_csv(path, target_column="t", positive_value="1")
        np.testing.assert_array_equal(ds.features, [[1.0], [2.0]])
        path = self.write(tmp_path, "t,a\n1,1\n\n0,oops\n")
        with pytest.raises(ValueError, match=r"row 4, column 'a'"):
            load_csv(path, target_column="t", positive_value="1")

    @pytest.mark.parametrize(
        "text",
        [
            't,a,b\n"1","0.5","2"\n"0",1.5,"3"\n',  # quoted cells
            "t , a , b\n 1 , 0.5 ,2\n0,\t1.5, 3 \n",  # space-padded cells
            "t,a,b\r\n1,0.5,2\r\n0,1.5,3\r\n",  # CRLF line endings
            "t,a,b\r1,0.5,2\r0,1.5,3\r",  # CR line endings
            "t,a,b\n1,0.5,2\n0,1.5,3",  # no trailing newline
            "t,a,b\n1,\x1c0.5,2\n0,1.5,3\x1f\n",  # padding str.strip drops
        ],
    )
    def test_cell_and_line_formats(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_bytes(text.encode("utf-8"))
        ds = load_csv(path, target_column="t", positive_value="1")
        np.testing.assert_array_equal(ds.labels, [1.0, -1.0])
        np.testing.assert_array_equal(ds.features, [[0.5, 2.0], [1.5, 3.0]])

    @pytest.mark.parametrize(
        "line, message",
        [
            ("0,1_000,3", r"row 3, column 'a': cannot parse '1_000' as a finite real"),
            ("0,\u0661,3", r"row 3, column 'a': cannot parse '\u0661' as a finite real"),
            ('""', r"row 3 has 1 cells, expected 3"),
            ("0,1,3#note", r"row 3, column 'b': cannot parse '3#note' as a finite real"),
        ],
        ids=["underscore", "arabic-indic-digit", "quoted-empty-line", "hash"],
    )
    def test_cells_outside_numpys_grammar_are_rejected(self, tmp_path, line, message):
        # `float` reads 1_000 and Unicode digits, but numpy's parser does not;
        # a line holding only "" is one empty cell, not a blank line; and "#"
        # starts no comment.
        path = self.write(tmp_path, f"t,a,b\n1,0.5,2\n{line}\n0,1.5,3\n")
        with pytest.raises(ValueError) as exc:
            load_csv(path, target_column="t", positive_value="1")
        assert str(exc.value).startswith(f"{path}: ")
        assert re.search(message, str(exc.value))

    def test_target_defaults_to_the_first_header_cell(self, tmp_path):
        path = self.write(tmp_path, '"y",a\n1,0.5\n0,1.5\n')
        ds = load_csv(path)
        np.testing.assert_array_equal(ds.labels, [1.0, -1.0])
        np.testing.assert_array_equal(ds.features, [[0.5], [1.5]])

    def test_non_numeric_target(self, tmp_path):
        path = self.write(tmp_path, "a,label\n1,yes\n2,no\n3, yes \n")
        ds = load_csv(path, target_column="label", positive_value="yes")
        np.testing.assert_array_equal(ds.labels, [1.0, -1.0, 1.0])
        np.testing.assert_array_equal(ds.features, [[1.0], [2.0], [3.0]])

    def test_too_many_cells_names_row(self, tmp_path):
        path = self.write(tmp_path, "t,a\n1,2\n0,3,4\n")
        with pytest.raises(ValueError, match="row 3 has 3 cells, expected 2"):
            load_csv(path, target_column="t", positive_value="1")

    def test_nan_cell_names_row_column_and_text(self, tmp_path):
        path = self.write(tmp_path, "t,a,b\n1,0.5,2\n0,3, nan\n")
        with pytest.raises(ValueError, match=r"row 3, column 'b': cannot parse ' nan'"):
            load_csv(path, target_column="t", positive_value="1")

    def test_first_bad_cell_in_file_order_is_reported(self, tmp_path):
        path = self.write(tmp_path, "t,a,b\n1,inf,-inf\n0,oops,3\n")
        with pytest.raises(ValueError, match=r"row 2, column 'a': cannot parse 'inf'"):
            load_csv(path, target_column="t", positive_value="1")

    @pytest.mark.parametrize("cell", ["oops", "inf"])
    @pytest.mark.parametrize(
        "row", [LOAD_BLOCK_ROWS - 1, LOAD_BLOCK_ROWS], ids=["last", "next-first"]
    )
    def test_bad_cell_at_a_chunk_boundary_names_its_row(self, tmp_path, row, cell):
        lines = csv_text(2 * LOAD_BLOCK_ROWS + 3).splitlines()
        lines[row + 1] = f"0,{cell},1"  # data row `row` is file row row + 2
        path = self.write(tmp_path, "\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=rf"row {row + 2}, column 'a': cannot parse '{cell}'"):
            load_csv(path, target_column="t", positive_value="1")

    def test_bad_cell_before_a_ragged_row_in_its_chunk_wins(self, tmp_path):
        lines = csv_text(2 * LOAD_BLOCK_ROWS + 3).splitlines()
        lines[LOAD_BLOCK_ROWS + 10] = "0,oops,1"
        lines[LOAD_BLOCK_ROWS + 20] = "0,1"
        path = self.write(tmp_path, "\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=rf"row {LOAD_BLOCK_ROWS + 11}, column 'a'"):
            load_csv(path, target_column="t", positive_value="1")

    def test_blank_lines_across_a_chunk_boundary_keep_row_numbers(self, tmp_path):
        text = csv_text(2 * LOAD_BLOCK_ROWS + 3)
        want = load_csv(self.write(tmp_path, text, "plain.csv"), "t", "1")
        lines = text.splitlines()
        lines[LOAD_BLOCK_ROWS : LOAD_BLOCK_ROWS] = ["", " ", ""]
        ds = load_csv(self.write(tmp_path, "\n".join(lines) + "\n"), "t", "1")
        assert ds.features.tobytes() == want.features.tobytes()
        assert ds.labels.tobytes() == want.labels.tobytes()
        lines[-1] = "0,1,oops"
        path = self.write(tmp_path, "\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=rf"row {len(lines)}, column 'b'"):
            load_csv(path, target_column="t", positive_value="1")

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        n_cols=st.integers(1, 4),
        n_rows=st.integers(1, 6),
        copies=st.sampled_from([1, LOAD_BLOCK_ROWS // 2 + 1]),
        lineterminator=st.sampled_from(["\n", "\r\n", "\r"]),
    )
    def test_matches_per_cell_float_oracle(
        self, tmp_path_factory, data, n_cols, n_rows, copies, lineterminator
    ):
        target_idx = data.draw(st.integers(0, n_cols), label="target_idx")
        number = st.floats(allow_nan=False, allow_infinity=False).map(repr)
        pad = st.sampled_from(["", " ", "\t", "  "])
        cell = st.builds(lambda p, x, q: p + x + q, pad, number, pad)
        rows = []
        for _ in range(n_rows):
            row = data.draw(st.lists(cell, min_size=n_cols, max_size=n_cols))
            row.insert(target_idx, data.draw(st.sampled_from(["1", "0", " 1", "yes"])))
            rows.append(row)
        rows *= copies  # up to 6 * 513 rows: files that span several blocks
        header = [f"c{i}" for i in range(n_cols)]
        header.insert(target_idx, "y")
        buf = io.StringIO(newline="")
        writer = csv.writer(buf, lineterminator=lineterminator)
        writer.writerow(header)
        writer.writerows(rows)
        path = tmp_path_factory.mktemp("csv") / "data.csv"
        path.write_bytes(buf.getvalue().encode("utf-8"))

        ds = load_csv(path, target_column="y", positive_value="1")
        expected = np.array(
            [[float(c.strip()) for i, c in enumerate(r) if i != target_idx] for r in rows]
        )
        assert ds.features.dtype == storage_dtype(expected.ravel().tolist())
        assert ds.features.astype(np.float64).tobytes() == expected.tobytes()
        assert ds.features.shape == expected.shape
        assert ds.labels.tolist() == [1.0 if r[target_idx].strip() == "1" else -1.0 for r in rows]

    def test_peak_memory_is_about_the_loaded_arrays(self, tmp_path):
        path = tmp_path / "data.csv"
        table = write_random_csv(path, 5000)
        tracemalloc.start()
        try:
            ds = load_csv(path, target_column="t", positive_value="1")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(ds.features, table[:, 1:])
        assert peak <= 2 * (ds.features.nbytes + ds.labels.nbytes)

    def test_a_table_of_small_integers_loads_as_uint8(self, tmp_path):
        rows = integer_rows(2 * LOAD_BLOCK_ROWS + 3)
        rows[LOAD_BLOCK_ROWS][1:] = ["1e2", "7.0", " 255 "]  # integer values, other spellings
        ds = load_csv(write_rows(tmp_path / "data.csv", rows), "t", "1")
        expected = np.array([[float(c) for c in r[1:]] for r in rows])
        assert ds.features.dtype == np.uint8
        assert ds.features.astype(np.float64).tobytes() == expected.tobytes()
        assert ds.labels.tolist() == [1.0 if r[0] == "1" else -1.0 for r in rows]

    @pytest.mark.parametrize("cell", ["256", "-1", "0.5", "-0"])
    def test_one_cell_outside_uint8_in_the_last_block_loads_float64(self, tmp_path, cell):
        rows = integer_rows(2 * LOAD_BLOCK_ROWS + 3)
        rows[-1][2] = cell
        ds = load_csv(write_rows(tmp_path / "data.csv", rows), "t", "1")
        expected = np.array([[float(c) for c in r[1:]] for r in rows])
        assert ds.features.dtype == np.float64
        assert ds.features.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "text, shape",
        [("t,a,b\n1,0.5,2\n0,1.5,3\n1,2.5,4\n", (3, 2)), ("t\n1\n0\n1\n", (3, 0))],
        ids=["features", "target-only"],
    )
    def test_features_buffer_holds_exactly_m_by_n_doubles(self, tmp_path, text, shape):
        ds = load_csv(self.write(tmp_path, text))
        buffer = ds.features
        while buffer.base is not None:
            buffer = buffer.base
        assert ds.features.shape == shape
        assert buffer.nbytes == shape[0] * shape[1] * 8


def float_first_load(path, target_column, positive_value):
    """The loader before its integer path, kept as an oracle: every block of
    ``LOAD_BLOCK_ROWS`` data lines parsed as float64, the features kept as
    uint8 when every one is an integer in 0..255 other than -0.0."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        header = [h.strip() for h in next(csv.reader(fh))]
        target = header.index(target_column)
        lines = (line for line in fh if not line.isspace())
        sign = {target: lambda c: 1.0 if c.strip() == positive_value else -1.0}
        blocks = []
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            while len(block := np.loadtxt(
                itertools.islice(lines, LOAD_BLOCK_ROWS), delimiter=",", comments=None,
                quotechar='"', ndmin=2, converters=sign,
            )):
                blocks.append(block)
    table = np.concatenate(blocks)
    features = np.delete(table, target, axis=1)
    return features.astype(storage_dtype(features.ravel().tolist())), table[:, target]


# Cells on the integer parser's edges: spellings it takes (a sign, padding,
# leading zeros, 2**63 - 1), ones that must keep their sign (-0), ones it
# leaves to the float parser (2**63, 7.0, 1e2), and 256, which widens the table.
SPELLINGS = (
    "+7", " 7 ", "007", "\x1c7\x1f", "-0", "-00", "255", "256",
    "9223372036854775807", "9223372036854775808", "7.0", "1e2",
)


class TestIntegerPath:
    """An integer file's blocks are parsed as int64 until one holds a ``-``
    or a cell the integer parser rejects; the result equals the float-first
    reader's, dtype included."""

    def assert_loads_as_the_float_first_reader(self, path, positive_value):
        ds = load_csv(path, target_column="t", positive_value=positive_value)
        features, labels = float_first_load(path, "t", positive_value)
        assert ds.features.dtype == features.dtype
        assert ds.features.shape == features.shape
        assert ds.features.tobytes() == features.tobytes()
        assert ds.labels.tobytes() == labels.tobytes()
        return ds

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
        n_cols=st.integers(1, 3),
        extra=st.integers(1, 5),
        positive_value=st.sampled_from(["1", "-1"]),
    )
    def test_matches_the_float_first_reader(
        self, tmp_path_factory, data, seed, n_cols, extra, positive_value
    ):
        rows = integer_rows(2 * LOAD_BLOCK_ROWS + extra, n_cols, seed)
        for first in (0, LOAD_BLOCK_ROWS, 2 * LOAD_BLOCK_ROWS):  # first, middle, last block
            spelling = data.draw(st.none() | st.sampled_from(SPELLINGS))
            if spelling is None:
                continue
            offset = data.draw(st.sampled_from([0, 1, LOAD_BLOCK_ROWS // 2, LOAD_BLOCK_ROWS - 1]))
            row = min(first + offset, len(rows) - 1)
            rows[row][data.draw(st.integers(1, n_cols))] = spelling
        if data.draw(st.booleans(), label="minus in the target"):
            rows[data.draw(st.integers(0, len(rows) - 1))][0] = "-1"
        path = write_rows(tmp_path_factory.mktemp("csv") / "data.csv", rows)
        self.assert_loads_as_the_float_first_reader(path, positive_value)

    @pytest.mark.parametrize("row", [0, LOAD_BLOCK_ROWS + 5], ids=["first-line", "middle-block"])
    @pytest.mark.parametrize("positive_value", ["1", "-1"])
    def test_a_minus_only_in_the_target_column(self, tmp_path, row, positive_value):
        rows = integer_rows(2 * LOAD_BLOCK_ROWS + 3)
        rows[row][0] = "-1"
        ds = self.assert_loads_as_the_float_first_reader(
            write_rows(tmp_path / "data.csv", rows), positive_value
        )
        assert ds.features.dtype == np.uint8
        assert (ds.labels[row] == 1.0) == (positive_value == "-1")


# _line_breaks reads the file this many bytes at a time.
READ_EDGE = 1 << 16


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf-split", "lone-cr"])
def test_line_breaks_count_a_break_on_the_read_edge_once(tmp_path, newline):
    head, row, after = "t,a" + newline, "0,1" + newline, 5
    k = (READ_EDGE - 100) // len(row)
    pad = READ_EDGE - 1 - len(head) - k * len(row) - len("0,1")
    text = head + row * k + "0," + " " * pad + "1" + newline + ("1,2" + newline) * after
    path = tmp_path / "data.csv"
    path.write_bytes(text.encode("utf-8"))
    data = path.read_bytes()
    assert data[READ_EDGE - 1 : READ_EDGE + 1] == ("\r\n" if newline == "\r\n" else "\r1").encode()
    assert _line_breaks(path) == text.count(newline) == k + after + 2
    ds = load_csv(path, target_column="t", positive_value="1")
    assert ds.n_rows == k + after + 1
    assert ds.features[-after:].ravel().tolist() == [2] * after


def csv_text(n_rows, newline="\n", blank_at=None):
    lines = ["t,a,b"] + [f"{i % 3 == 0:d},{i / 4},{-i}" for i in range(n_rows)]
    if blank_at is not None:
        lines.insert(blank_at, "")
    return newline.join(lines) + newline


class TestLoadCsvSplit:
    @pytest.mark.parametrize(
        "text",
        [
            csv_text(10),
            csv_text(11),
            csv_text(11, blank_at=5),
            csv_text(10, "\r\n")[:-2],
            "t,a,b\n" + "".join(f"{i % 2},{i},{i * 37 % 256}\n" for i in range(11)),  # uint8
        ],
        ids=["even", "odd", "blank-line", "crlf", "integers"],
    )
    def test_equals_split_half_of_load_csv(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_bytes(text.encode("utf-8"))
        want = split_half(load_csv(path, target_column="t", positive_value="1"), seed=3)
        got = load_csv_split(path, "t", "1", seed=3)
        for g, w in ((got.train, want.train), (got.test, want.test)):
            assert g.features.shape == w.features.shape
            assert g.features.dtype == w.features.dtype
            assert g.features.tobytes() == w.features.tobytes()
            assert g.labels.tobytes() == w.labels.tobytes()
            with pytest.raises(ValueError):
                g.features[0, 0] = 1.0

    def test_bad_cell_message_matches_load_csv(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("t,a\n1,0.5\n0,oops\n", encoding="utf-8")
        with pytest.raises(ValueError) as via_load:
            load_csv(path, target_column="t", positive_value="1")
        with pytest.raises(ValueError) as via_split:
            load_csv_split(path, "t", "1", seed=0)
        assert str(via_split.value) == str(via_load.value)
        assert "row 3" in str(via_split.value)

    def test_loads_under_a_trace_hook(self, tmp_path):
        # pdb, cProfile and coverage install a hook like this one; it holds
        # one more reference to each frame's locals while it is set.
        path = tmp_path / "data.csv"
        path.write_text(csv_text(3), encoding="utf-8")
        previous = sys.gettrace()
        sys.settrace(lambda frame, event, arg: None)
        try:
            ds = load_csv(path, target_column="t", positive_value="1")
            pair = load_csv_split(path, "t", "1", seed=3)
        finally:
            sys.settrace(previous)
        np.testing.assert_array_equal(ds.features, [[0.0, 0.0], [0.25, -1.0], [0.5, -2.0]])
        assert ds.features.base.nbytes == 3 * 2 * 8
        assert sorted(pair.train.labels.tolist() + pair.test.labels.tolist()) == [-1, -1, 1]

    def test_an_integer_file_is_held_in_a_fraction_of_its_float64_bytes(self, tmp_path):
        rows = integer_rows(50_000, n_cols=21)
        path = write_rows(tmp_path / "data.csv", rows)
        tracemalloc.start()
        try:
            pair = load_csv_split(path, "t", "1", seed=5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert pair.train.features.dtype == pair.test.features.dtype == np.uint8
        assert peak < 50_000 * 21 * 8 / 2

    def test_peak_memory_is_about_the_halves(self, tmp_path):
        path = tmp_path / "data.csv"
        table = write_random_csv(path, 5001)
        tracemalloc.start()
        try:
            pair = load_csv_split(path, "t", "1", seed=5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        halves = (pair.train, pair.test)
        assert sum(h.n_rows for h in halves) == table.shape[0]
        assert peak <= 1.5 * sum(h.features.nbytes + h.labels.nbytes for h in halves)


"""Datasets: synthetic two-cluster generation, CSV ingestion, splitting.

A :class:`Dataset` is an immutable feature matrix with labels in {-1, +1}.
Synthetic data comes from two isotropic unit-variance Gaussian clusters
whose means sit at ``+/- class_sep * (1,...,1)/sqrt(n_features)`` (so the
means are ``2 * class_sep`` apart in Euclidean norm), with independent
label flipping at rate ``flip_y``.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Sequence

import numpy as np

from .rng import make_rng

# Rows of CSV cells converted to floats at a time by the loader.
_CHUNK_ROWS = 128


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Dataset:
    """Feature matrix (m rows x n columns) with labels in {-1, +1}.

    Rows are immutable after construction; invalid labels, non-finite
    features, or mismatched lengths are rejected here so downstream code
    can rely on them.
    """

    features: np.ndarray
    labels: np.ndarray
    feature_names: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        features = _freeze(np.atleast_2d(self.features))
        labels = _freeze(np.asarray(self.labels).ravel())
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)
        if features.ndim != 2:
            raise ValueError("features must be a 2-D matrix")
        if labels.shape[0] != features.shape[0]:
            raise ValueError(
                f"labels length {labels.shape[0]} != row count {features.shape[0]}"
            )
        if not np.all(np.isfinite(features)):
            raise ValueError("features contain NaN or infinite entries")
        if not np.all(np.abs(labels) == 1.0):
            raise ValueError("every label must be exactly -1 or +1")
        if self.feature_names is not None:
            names = tuple(self.feature_names)
            object.__setattr__(self, "feature_names", names)
            if len(names) != features.shape[1]:
                raise ValueError(
                    f"feature_names length {len(names)} != column count {features.shape[1]}"
                )

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class SyntheticConfig:
    """Parameters of the two-cluster generator.

    Defaults mirror the generator settings used by the bound-verification
    experiments: ``class_sep=0.5`` and ``flip_y=0.05``.
    """

    n_features: int
    m_total: int
    class_sep: float = 0.5
    flip_y: float = 0.05
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_features < 1:
            raise ValueError("n_features must be a positive integer")
        if self.m_total < 2:
            raise ValueError("m_total must be at least 2")
        if self.class_sep < 0:
            raise ValueError("class_sep must be nonnegative")
        if not 0.0 <= self.flip_y <= 1.0:
            raise ValueError("flip_y must lie in [0, 1]")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")


@dataclass(frozen=True)
class SplitPair:
    """Disjoint train/test halves of a source dataset."""

    train: Dataset
    test: Dataset


def generate_synthetic(config: SyntheticConfig) -> Dataset:
    """Draw a two-cluster binary classification dataset.

    ceil(m/2) rows come from the +1 cluster and floor(m/2) from the -1
    cluster (in that row order), then each label independently flips sign
    with probability ``flip_y``. Deterministic given ``config.seed``: the
    +1 block is drawn first, then the -1 block, then the flip mask.
    """
    rng = make_rng(config.seed)
    n = config.n_features
    n_pos = (config.m_total + 1) // 2
    n_neg = config.m_total // 2
    offset = config.class_sep / math.sqrt(n)

    pos = rng.standard_normal((n_pos, n)) + offset
    neg = rng.standard_normal((n_neg, n)) - offset
    features = np.concatenate([pos, neg], axis=0)
    labels = np.concatenate([np.ones(n_pos), -np.ones(n_neg)])

    flips = rng.uniform(size=config.m_total) < config.flip_y
    labels = np.where(flips, -labels, labels)
    return Dataset(features=features, labels=labels)


def _shuffle_halves(
    features: np.ndarray,
    labels: np.ndarray,
    feature_names: Sequence[str] | None,
    seed: int,
) -> SplitPair:
    """Permute rows by a seeded permutation in place and cut into two halves.

    Takes ownership of ``features``, a writable C-contiguous matrix: its
    rows are permuted one column at a time, so the only temporary is one
    column, and the halves are contiguous slices of it. For odd sizes the
    extra row goes to train.
    """
    m = features.shape[0]
    if m < 2:
        raise ValueError("split_half needs a dataset with at least 2 rows")
    perm = make_rng(seed).permutation(m)
    for j in range(features.shape[1]):
        features[:, j] = features[perm, j]
    labels = labels[perm]
    cut = (m + 1) // 2
    return SplitPair(
        train=Dataset(features[:cut], labels[:cut], feature_names),
        test=Dataset(features[cut:], labels[cut:], feature_names),
    )


def split_half(dataset: Dataset, seed: int) -> SplitPair:
    """Shuffle rows by a seeded permutation and cut into two halves.

    For odd sizes the extra row goes to train. The union of the two halves
    is exactly the source rows for every seed; the source is not modified.
    """
    return _shuffle_halves(
        dataset.features.copy(), dataset.labels, dataset.feature_names, seed
    )


def _count_line_breaks(path: Path) -> int:
    """Line terminators (``\n``, ``\r`` or ``\r\n``) in the file's bytes.

    A CSV record ends at one of these unless it is the last line, so this
    bounds the number of records after the header. A ``\r\n`` split
    across two reads counts twice, which keeps the bound an upper bound.
    """
    count = 0
    buf = bytearray(1 << 20)
    with open(path, "rb", buffering=0) as fh:
        while n := fh.readinto(buf):
            crlf = buf.count(b"\r\n", 0, n)
            count += buf.count(b"\n", 0, n) + buf.count(b"\r", 0, n) - crlf
    return count


def _parse_row(
    path: Path, line_no: int, names: Sequence[str], cells: Sequence[str]
) -> None:
    """Raise at the row's first feature cell that is not a finite real,
    naming its row, column and text."""
    for name, cell in zip(names, cells):
        try:
            value = float(cell.strip())
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise ValueError(
                f"{path}: row {line_no}, column {name!r}: "
                f"cannot parse {cell!r} as a finite real"
            )


def _parse_rows(
    path: Path,
    names: Sequence[str],
    line_nos: Sequence[int],
    rows: Sequence[Sequence[str]],
    out: np.ndarray,
) -> None:
    """Parse a chunk of rows' feature cells into ``out``, one row per row.

    Every cell becomes ``float(cell.strip())`` in a single conversion over
    the chunk. Only a chunk that fails is walked row by row, so the error
    names the first bad cell in file order.
    """
    cells = map(str.strip, chain.from_iterable(rows))
    try:
        values = np.fromiter(map(float, cells), np.float64, out.size)
    except ValueError:
        pass
    else:
        if np.isfinite(values).all():
            out[...] = values.reshape(out.shape)
            return
    for line_no, row in zip(line_nos, rows):
        _parse_row(path, line_no, names, row)
    raise RuntimeError(
        f"{path}: rows {line_nos[0]}-{line_nos[-1]} failed to convert, "
        "but no bad cell was found in them"
    )


def _read_csv(
    path: str | Path, target_column: str, positive_value: str
) -> tuple[np.ndarray, np.ndarray, tuple[str, ...]]:
    """The still-writable ``(features, labels, feature_names)`` of :func:`load_csv`."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such file: {path}")
    max_rows = _count_line_breaks(path)
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise ValueError(f"{path}: file is empty, expected a header row") from None
        if target_column not in header:
            raise ValueError(
                f"{path}: target column {target_column!r} not in header {header}"
            )
        target_idx = header.index(target_column)
        feature_names = tuple(h for i, h in enumerate(header) if i != target_idx)

        features = np.empty((max_rows, len(feature_names)))
        labels = np.empty(max_rows)
        k = 0
        line_nos: list[int] = []
        rows: list[list[str]] = []

        def flush() -> None:
            _parse_rows(path, feature_names, line_nos, rows, features[k - len(rows) : k])
            line_nos.clear()
            rows.clear()

        for line_no, cells in enumerate(reader, start=2):
            if not cells or (len(cells) == 1 and cells[0].strip() == ""):
                continue
            if len(cells) != len(header):
                flush()  # an earlier bad cell is reported first
                raise ValueError(
                    f"{path}: row {line_no} has {len(cells)} cells, expected {len(header)}"
                )
            target = cells.pop(target_idx)
            labels[k] = 1.0 if target.strip() == positive_value else -1.0
            line_nos.append(line_no)
            rows.append(cells)
            k += 1
            if len(rows) == _CHUNK_ROWS:
                flush()
        flush()

    if k == 0:
        raise ValueError(f"{path}: no data rows after the header")
    return features[:k], labels[:k], feature_names


def load_csv(path: str | Path, target_column: str, positive_value: str) -> Dataset:
    """Read a headered CSV into a Dataset.

    Target cells equal to ``positive_value`` map to +1, everything else to
    -1. All other columns must parse as finite decimal reals and become
    features in header order. Rows are reported 1-based counting the
    header as row 1.

    The file is read twice: once in binary to bound the row count, then
    once through ``csv.reader`` into preallocated float64 arrays. Cells
    are converted a chunk of at most ``_CHUNK_ROWS`` rows at a time, so
    only that chunk's cell strings are held beside the arrays.
    """
    return Dataset(*_read_csv(path, target_column, positive_value))


def load_csv_split(
    path: str | Path, target_column: str, positive_value: str, seed: int
) -> SplitPair:
    """``split_half(load_csv(path, ...), seed)``, without a second copy.

    The halves are byte-identical to that call's, but the loaded matrix is
    permuted in place and the halves are slices of it, so the data is held
    once.
    """
    return _shuffle_halves(*_read_csv(path, target_column, positive_value), seed)


def select_features(dataset: Dataset, column_indices: Sequence[int]) -> Dataset:
    """Keep only the given columns, in the given order; labels unchanged."""
    indices = [int(i) for i in column_indices]
    n = dataset.n_features
    for i in indices:
        if not 0 <= i < n:
            raise ValueError(f"column index {i} out of range for {n} features")
    if len(set(indices)) != len(indices):
        raise ValueError(f"duplicate column indices in {indices}")
    names = None
    if dataset.feature_names is not None:
        names = tuple(dataset.feature_names[i] for i in indices)
    return Dataset(
        features=dataset.features[:, indices],
        labels=dataset.labels,
        feature_names=names,
    )

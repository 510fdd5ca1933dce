"""Datasets: synthetic two-cluster generation, CSV ingestion, splitting.

A :class:`Dataset` is a read-only feature matrix with labels in {-1, +1}.
Synthetic data comes from two isotropic unit-variance Gaussian clusters
whose means sit at ``+/- class_sep * (1,...,1)/sqrt(n_features)`` (so the
means are ``2 * class_sep`` apart in Euclidean norm), with independent
label flipping at rate ``flip_y``.
"""

from __future__ import annotations

import csv
import math
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .rng import make_rng


def _freeze(a: np.ndarray) -> np.ndarray:
    """A read-only float64 view of ``a`` with contiguous rows; the caller's
    own array keeps its flags."""
    a = np.asarray(a, dtype=np.float64)
    if a.strides[-1] != a.itemsize:
        a = np.ascontiguousarray(a)
    a = a.view()
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Dataset:
    """Feature matrix (m rows x n columns) with labels in {-1, +1}.

    Both arrays are read-only; a float64 matrix with contiguous rows, such
    as ``X[:, :k]``, stays a view of its owner's buffer. Invalid labels,
    non-finite features, or mismatched lengths are rejected here.
    """

    features: np.ndarray
    labels: np.ndarray

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


def _draw_synthetic(config: SyntheticConfig) -> tuple[np.ndarray, np.ndarray]:
    """The still-writable ``(features, labels)`` of :func:`generate_synthetic`,
    both clusters drawn in stream order into one matrix and shifted in place."""
    rng = make_rng(config.seed)
    n_pos = (config.m_total + 1) // 2
    offset = config.class_sep / math.sqrt(config.n_features)
    features = np.empty((config.m_total, config.n_features))
    pos, neg = features[:n_pos], features[n_pos:]
    rng.standard_normal(out=pos)
    pos += offset
    rng.standard_normal(out=neg)
    neg -= offset
    labels = np.concatenate([np.ones(n_pos), -np.ones(config.m_total - n_pos)])

    flips = rng.uniform(size=config.m_total) < config.flip_y
    return features, np.where(flips, -labels, labels)


def generate_synthetic(config: SyntheticConfig) -> Dataset:
    """Draw a two-cluster binary classification dataset.

    ceil(m/2) rows come from the +1 cluster and floor(m/2) from the -1
    cluster (in that row order), then each label independently flips sign
    with probability ``flip_y``. Deterministic given ``config.seed``: the
    +1 block is drawn first, then the -1 block, then the flip mask.
    """
    return Dataset(*_draw_synthetic(config))


def synthetic_split(config: SyntheticConfig, seed: int) -> SplitPair:
    """``split_half(generate_synthetic(config), seed)``, byte for byte, but the
    drawn matrix is permuted in place and the halves are slices of it."""
    return _shuffle_halves(*_draw_synthetic(config), seed)


def _shuffle_halves(features: np.ndarray, labels: np.ndarray, seed: int) -> SplitPair:
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
        train=Dataset(features[:cut], labels[:cut]),
        test=Dataset(features[cut:], labels[cut:]),
    )


def split_half(dataset: Dataset, seed: int) -> SplitPair:
    """Shuffle rows by a seeded permutation and cut into two halves.

    For odd sizes the extra row goes to train. The union of the two halves
    is exactly the source rows for every seed; the source is not modified.
    """
    return _shuffle_halves(dataset.features.copy(), dataset.labels, seed)


def _parse_row(
    path: Path, line_no: int, names: Sequence[str], cells: Sequence[str]
) -> None:
    """Raise at the row's first feature cell that is not a finite real,
    naming its row, column and text.

    A cell is read as ``np.loadtxt`` reads it: ``float(cell.strip())``,
    less the digit-group underscores and non-ASCII digits ``float`` also takes.
    """
    for name, cell in zip(names, cells):
        text = cell.strip()
        try:
            value = float(text) if text.isascii() and "_" not in text else math.nan
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise ValueError(
                f"{path}: row {line_no}, column {name!r}: "
                f"cannot parse {cell!r} as a finite real"
            )


def _raise_at_first_bad_row(path: Path, header: list[str], target_idx: int) -> None:
    """Walk the data lines in file order and raise at the first one with the
    wrong number of cells or a feature cell that is not a finite real."""
    names = header[:target_idx] + header[target_idx + 1 :]
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for line_no, line in enumerate(fh, start=reader.line_num + 1):
            if line.isspace():
                continue
            cells = next(csv.reader([line]))
            if len(cells) != len(header):
                raise ValueError(
                    f"{path}: row {line_no} has {len(cells)} cells, expected {len(header)}"
                )
            del cells[target_idx]
            _parse_row(path, line_no, names, cells)


def _drop_column(table: np.ndarray, column: int) -> None:
    """Pack every row of ``table`` less ``column`` into the front of its
    buffer, 128 rows at a time: with n kept columns, row i moves to offset
    i * n, never past where rows i + 1 onward are read."""
    m, n = table.shape[0], table.shape[1] - 1
    packed = table.reshape(-1)[: m * n].reshape(m, n)
    for start in range(0, m, 128):
        block = table[start : start + 128]
        packed[start : start + len(block)] = np.delete(block, column, axis=1)


def _read_csv(
    path: str | Path, target_column: str | None, positive_value: str
) -> tuple[np.ndarray, np.ndarray]:
    """The still-writable ``(features, labels)`` of :func:`load_csv`."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such file: {path}")
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = [h.strip() for h in next(reader, [])]
        if not header:
            raise ValueError(f"{path}: no header row")
        target_column = header[0] if target_column is None else target_column
        if target_column not in header:
            raise ValueError(
                f"{path}: target column {target_column!r} not in header {header}"
            )
        target_idx = header.index(target_column)
        error = None
        with warnings.catch_warnings():
            # a header with no data rows is reported below
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            try:
                table = np.loadtxt(
                    (line for line in fh if not line.isspace()),
                    delimiter=",",
                    comments=None,
                    quotechar='"',
                    ndmin=2,
                    converters={
                        target_idx: lambda c: 1.0 if c.strip() == positive_value else -1.0
                    },
                )
            except ValueError as exc:
                error = exc
    if error is None and len(table) == 0:
        raise ValueError(f"{path}: no data rows after the header")
    if error is not None or table.shape[1] != len(header) or not np.isfinite(table).all():
        _raise_at_first_bad_row(path, header, target_idx)
        raise ValueError(f"{path}: {error or 'unreadable data rows'}") from error

    labels = table[:, target_idx].copy()
    m, n = table.shape[0], table.shape[1] - 1
    _drop_column(table, target_idx)
    # Free the buffer's dead tail. No view of ``table`` outlives _drop_column,
    # so skipping resize's reference check is safe; the check would refuse
    # under a trace or profile hook (pdb, cProfile, coverage), whose snapshot
    # of this frame's locals holds one more reference to ``table``.
    table.resize(m * n, refcheck=False)
    return table.reshape(m, n), labels


def load_csv(
    path: str | Path, target_column: str | None = None, positive_value: str = "1"
) -> Dataset:
    """Read a headered CSV into a Dataset.

    Target cells equal to ``positive_value`` after stripping map to +1,
    everything else to -1; the target defaults to the first header cell.
    All other columns must parse as finite decimal reals and become
    features in header order. Whitespace-only lines are skipped. Rows are
    reported 1-based counting the header as row 1.

    The data lines go through one ``np.loadtxt`` pass into a float64 table
    of every column, and the target column is then dropped in place, so
    loading holds about the table itself. Only a file that fails is read
    again, row by row, to name its first bad row or cell in file order.
    """
    return Dataset(*_read_csv(path, target_column, positive_value))


def load_csv_split(
    path: str | Path, target_column: str | None, positive_value: str, seed: int
) -> SplitPair:
    """``split_half(load_csv(path, ...), seed)``, without a second copy.

    The halves are byte-identical to that call's, but the loaded matrix is
    permuted in place and the halves are slices of it, so the data is held
    once.
    """
    return _shuffle_halves(*_read_csv(path, target_column, positive_value), seed)


@contextmanager
def columns_in_order(pair: SplitPair, order: Sequence[int]) -> Iterator[SplitPair]:
    """``pair`` with column ``order[j]`` of both halves at j, for the block.

    Halves that are views of writable buffers, as ``load_csv_split``'s and
    ``split_half``'s are, are permuted in place, 4,096 rows at a time, and
    put back in a ``finally``, so the data is held once and the pair is
    unchanged after the block. Other halves are copied in ``order``.
    """
    views = [h.features.view() for h in (pair.train, pair.test)]
    try:
        for view in views:
            view.flags.writeable = True
    except ValueError:  # the buffer's owner is read-only
        in_place = False
    else:
        in_place = not np.shares_memory(*views)
    if not in_place:
        yield SplitPair(*(Dataset(h.features[:, order], h.labels) for h in (pair.train, pair.test)))
        return

    def permute(perm: np.ndarray) -> None:
        for view in views:
            for start in range(0, len(view), 4096):
                view[start : start + 4096] = view[start : start + 4096, perm]

    permute(np.asarray(order))
    try:
        yield pair
    finally:
        permute(np.argsort(order))

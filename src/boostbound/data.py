"""Datasets: synthetic two-cluster generation, CSV ingestion, splitting.

A :class:`Dataset` is a read-only feature matrix with labels in {-1, +1}.
Synthetic data comes from two isotropic unit-variance Gaussian clusters
whose means sit at ``+/- class_sep * (1,...,1)/sqrt(n_features)`` (so the
means are ``2 * class_sep`` apart in Euclidean norm), with independent
label flipping at rate ``flip_y``.
"""

from __future__ import annotations

import csv
import itertools
import math
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .rng import make_rng

# Data lines :func:`load_csv` parses at a time: its scratch block (and an
# integer file's block of lines) is small next to the table, even for a
# float-valued file of a few thousand rows.
LOAD_BLOCK_ROWS = 1024


def _freeze(a: np.ndarray) -> np.ndarray:
    """A read-only view of ``a`` with contiguous rows, uint8 if ``a`` is uint8
    and float64 otherwise; the caller's own array keeps its flags."""
    a = np.asarray(a)
    if a.dtype != np.uint8:
        a = a.astype(np.float64, copy=False)
    if a.strides[-1] != a.itemsize:
        a = np.ascontiguousarray(a)
    a = a.view()
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Dataset:
    """Feature matrix (m rows x n columns) with labels in {-1, +1}.

    Labels are float64. Features are float64, or uint8 as given: a table of
    small non-negative integers, as ``load_csv`` keeps one, whose float64
    conversion is exact. Computation always reads float64; ``train_adaboost``
    and ``fit_perceptron`` convert a uint8 matrix once, ``evaluate`` block by
    block. Both arrays are read-only; a matrix with contiguous rows, such as
    ``X[:, :k]``, stays a view of its owner's buffer. Invalid labels,
    non-finite features, or mismatched lengths are rejected here.
    """

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        features = _freeze(np.atleast_2d(self.features))
        labels = _freeze(np.asarray(self.labels, dtype=np.float64).ravel())
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)
        if features.ndim != 2:
            raise ValueError("features must be a 2-D matrix")
        if labels.shape[0] != features.shape[0]:
            raise ValueError(
                f"labels length {labels.shape[0]} != row count {features.shape[0]}"
            )
        if features.dtype == np.float64 and not np.all(np.isfinite(features)):
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


def _line_breaks(path: Path) -> int:
    """The line breaks (``\\n``, ``\\r`` or ``\\r\\n``) in the file: at least
    as many as its lines after the header."""
    breaks, after_cr = 0, False
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 16):
            breaks += chunk.count(b"\n")
            if cr := chunk.count(b"\r"):
                breaks += cr - chunk.count(b"\r\n")
            breaks -= after_cr and chunk.startswith(b"\n")
            after_cr = chunk.endswith(b"\r")
    return breaks


def _small_integers(block: np.ndarray, skip: int) -> bool:
    """Whether every cell of ``block`` outside column ``skip`` is an integer in
    0..255 other than -0.0, so that uint8 holds it exactly."""
    if block.dtype == np.float64:
        bad = np.signbit(block) | (block > 255.0) | (np.trunc(block) != block)
    else:
        bad = (block < 0) | (block > 255)
    bad[:, skip] = False
    return not bad.any()


def _blocks(
    lines: Iterator[str], n_cells: int, target_idx: int, positive_value: str
) -> Iterator[np.ndarray]:
    """The data lines, ``LOAD_BLOCK_ROWS`` at a time, as blocks of every
    column with the target mapped to +1/-1. A row of the wrong length or a
    cell that is not a finite real raises ValueError.

    If the first line parses as integers, blocks are taken as lists and
    parsed as int64, until one holds a ``-`` (so that ``-0`` keeps its sign)
    or a cell numpy's integer parser rejects (``7.0``, ``1e2``, a value past
    int64): that block and every later one are parsed as float64. A file
    whose first line is not all integers streams into float64 blocks.
    """

    def parse(block_lines: Iterable[str], dtype: type = np.float64) -> np.ndarray:
        block = np.loadtxt(
            block_lines,
            dtype=dtype,
            delimiter=",",
            comments=None,
            quotechar='"',
            ndmin=2,
            converters={target_idx: lambda c: 1 if c.strip() == positive_value else -1},
        )
        if len(block) and (block.shape[1] != n_cells or not np.isfinite(block).all()):
            raise ValueError("unreadable data rows")
        return block

    def integers(block_lines: list[str]) -> np.ndarray | None:
        if "-" in "".join(block_lines):
            return None
        try:
            return parse(block_lines, np.int64)
        except ValueError:
            return None

    first = list(itertools.islice(lines, 1))
    integer = bool(first) and integers(first) is not None
    lines = itertools.chain(first, lines)
    while True:
        if integer:
            chunk = list(itertools.islice(lines, LOAD_BLOCK_ROWS))
            block = integers(chunk)
            if block is None:
                block, integer = parse(chunk), False
            del chunk
        else:
            block = parse(itertools.islice(lines, LOAD_BLOCK_ROWS))
        if not len(block):
            return
        yield block
        del block  # so the next block is parsed without this one held


def _read_csv(
    path: str | Path, target_column: str | None, positive_value: str
) -> tuple[np.ndarray, np.ndarray]:
    """The still-writable ``(features, labels)`` of :func:`load_csv`."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such file: {path}")
    capacity = _line_breaks(path)
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
        table = np.empty((capacity, len(header) - 1), dtype=np.uint8)
        labels = np.empty(capacity)
        lines = (line for line in fh if not line.isspace())
        m, error = 0, None
        with warnings.catch_warnings():
            # the block past the last data line is empty
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            try:
                for block in _blocks(lines, len(header), target_idx, positive_value):
                    if table.dtype == np.uint8 and not _small_integers(block, target_idx):
                        # a value uint8 cannot hold: widen the whole table, once
                        wide = np.empty(table.shape)
                        wide[:m] = table[:m]
                        table = wide
                    rows = slice(m, m + len(block))
                    labels[rows] = block[:, target_idx]
                    table[rows, :target_idx] = block[:, :target_idx]
                    table[rows, target_idx:] = block[:, target_idx + 1 :]
                    m += len(block)
                    del block  # so the next block is parsed without this one held
            except ValueError as exc:
                error = exc
    if error is not None:
        _raise_at_first_bad_row(path, header, target_idx)
        raise ValueError(f"{path}: {error}") from error
    if m == 0:
        raise ValueError(f"{path}: no data rows after the header")
    # Free the rows past the data. No view of ``table`` or ``labels`` is
    # left, so skipping resize's reference check is safe; the check would
    # refuse under a trace or profile hook (pdb, cProfile, coverage), whose
    # snapshot of this frame's locals holds one more reference to each.
    table.resize((m, table.shape[1]), refcheck=False)
    labels.resize(m, refcheck=False)
    return table, labels


def load_csv(
    path: str | Path, target_column: str | None = None, positive_value: str = "1"
) -> Dataset:
    """Read a headered CSV into a Dataset.

    Target cells equal to ``positive_value`` after stripping map to +1,
    everything else to -1; the target defaults to the first header cell.
    All other columns must parse as finite decimal reals and become
    features in header order. Whitespace-only lines are skipped. Rows are
    reported 1-based counting the header as row 1.

    The features are kept as uint8 when every one is an integer in 0..255
    other than -0.0, and as float64 otherwise; either way their float64
    values are the cells' ``float`` values. The data lines are parsed by
    ``np.loadtxt``, ``LOAD_BLOCK_ROWS`` at a time, as int64 while the file's
    lines are integers without a ``-`` and as float64 from the first block
    that is not (see ``_blocks``), into a feature matrix
    preallocated from the file's line count and trimmed to the rows read;
    the matrix starts as uint8 and is widened to float64, once, at the first
    block with another value. So loading holds about the matrix itself,
    and an integer-valued file is never held as float64. Only a file that
    fails is read again, row by row, to name its first bad row or cell in
    file order.
    """
    return Dataset(*_read_csv(path, target_column, positive_value))


def load_csv_split(
    path: str | Path, target_column: str | None, positive_value: str, seed: int
) -> SplitPair:
    """``split_half(load_csv(path, ...), seed)``, without a second copy.

    The halves are byte-identical to that call's, in the same dtype (uint8
    for a table of small non-negative integers), but the loaded matrix is
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

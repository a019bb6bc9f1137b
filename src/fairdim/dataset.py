"""Loading, centering, group-splitting and balancing of two-group tables.

The on-disk contract is a UTF-8 CSV with one header row, comma delimiter
and ``.`` decimal point. One column (selected by exact header name) holds
the sensitive group label, taken verbatim as a string; every other column
must parse as a finite number. Rows with unparseable cells abort the load:
silently dropping rows would shift the group counts and every metric
computed from them.

A plain file (no quotes, no carriage returns, one comma per column break
on every data line) is parsed in one vectorized pass with numpy's C
reader. Quoted or malformed files, and any cell that pass rejects, go
through a per-cell reader (``csv.reader`` plus ``float()``) instead; it
gives the same values bit for bit and raises the same errors, naming the
line and column of the first bad cell.

The groups are decided once, at load: the first-seen label is group a,
and every record after that (``RawTable``, then ``GroupedData``) holds a
bool mask that is True on its rows, plus the two labels. No record keeps
a label per row, so nothing after the load reads one.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

__all__ = [
    "DataError",
    "RawTable",
    "GroupedData",
    "load_table",
    "write_table",
    "balance",
    "center_and_split",
    "load_grouped",
]

_CENTER_TOL = 1e-6  # max |column sum| per row and unit of column scale


class DataError(ValueError):
    """The input table violates the loader's schema contract."""


def _check_groups(in_a: np.ndarray, n: int, label_a: str, label_b: str) -> None:
    """The group invariants ``RawTable`` and ``GroupedData`` share."""
    if in_a.dtype != bool or in_a.shape != (n,):
        raise DataError("one boolean group flag required per row")
    if in_a.all() or not in_a.any():
        raise DataError("each group needs at least one row")
    if label_a == label_b:
        raise DataError(f"both groups are labeled {label_a!r}")


@dataclass(frozen=True)
class RawTable:
    """A numeric feature matrix plus a mask marking the first group's rows.

    ``in_a`` is True on the rows of ``label_a``, the label seen first in
    the sensitive column, and False on those of ``label_b``; the labels
    are kept verbatim. The sensitive column itself is never part of
    ``features``.
    """

    features: np.ndarray            # (n, d) float64
    in_a: np.ndarray                # (n,) bool, True on the rows of label_a
    label_a: str
    label_b: str
    feature_names: tuple[str, ...]  # length d
    sensitive_name: str

    def __post_init__(self):
        if self.features.ndim != 2:
            raise DataError("features must be a 2-D array")
        _check_groups(self.in_a, self.features.shape[0], self.label_a, self.label_b)
        if len(self.feature_names) != self.features.shape[1]:
            raise DataError("one name required per feature column")


@dataclass(frozen=True)
class GroupedData:
    """Centered rows in file order, with a mask marking the first group's.

    ``in_a`` is True on the rows of ``label_a``, the first-seen group, and
    False on those of ``label_b``. The rows are stored once: ``x_a``,
    ``x_b`` and the counts are worked out from ``x`` and ``in_a`` on each
    access. Which group is privileged is decided later, against a fitted
    projection, never here.
    """

    x: np.ndarray     # (n, d), centered, file order
    in_a: np.ndarray  # (n,) bool, True on the rows of label_a
    label_a: str
    label_b: str

    def __post_init__(self):
        _check_groups(self.in_a, self.x.shape[0], self.label_a, self.label_b)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def n_a(self) -> int:
        return int(np.count_nonzero(self.in_a))

    @property
    def n_b(self) -> int:
        return self.n - self.n_a

    @property
    def x_a(self) -> np.ndarray:
        """The rows of ``label_a``, in file order (a fresh copy)."""
        return self.x[self.in_a]

    @property
    def x_b(self) -> np.ndarray:
        """The rows of ``label_b``, in file order (a fresh copy)."""
        return self.x[~self.in_a]


def load_table(path, sensitive_column: str) -> RawTable:
    """Read a CSV into a RawTable, excluding the sensitive column from features.

    Raises DataError for: missing file, text that is not UTF-8,
    missing/ambiguous header, absent sensitive column, no feature columns,
    ragged rows, a field over ``csv.field_size_limit()``, non-numeric or
    non-finite feature cells, and a label column without exactly two
    distinct values.

    A plain file is parsed in one vectorized pass; anything else, and any
    plain file that pass rejects, goes through the per-cell reader, which
    alone names a bad cell. Both give the same values and the same errors.
    """
    path = Path(path)
    table = _load_plain(path, sensitive_column)
    if table is None:
        table = _load_cells(path, sensitive_column)
    return table


def _open(path: Path):
    try:
        # utf-8-sig: plain UTF-8 plus tolerance for a spreadsheet-export BOM
        return path.open(newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc


def _columns(path: Path, header: list[str], sensitive_column: str):
    """The sensitive column's index and the feature names, or a DataError."""
    try:
        sens_idx = header.index(sensitive_column)
    except ValueError:
        raise DataError(
            f"{path}: sensitive column {sensitive_column!r} not in header"
        ) from None
    if header.count(sensitive_column) > 1:
        raise DataError(
            f"{path}: ambiguous header, sensitive column {sensitive_column!r} "
            "appears more than once"
        )
    feature_names = tuple(h for i, h in enumerate(header) if i != sens_idx)
    if not feature_names:
        raise DataError(f"{path}: no feature columns besides {sensitive_column!r}")
    return sens_idx, feature_names


def _table(
    path: Path,
    sensitive_column: str,
    features: np.ndarray,
    labels: list[str],
    feature_names: tuple[str, ...],
) -> RawTable:
    """The one place label strings become groups: the first-seen is ``a``."""
    groups = dict.fromkeys(labels)
    if len(groups) != 2:
        raise DataError(
            f"{path}: sensitive column {sensitive_column!r} has {len(groups)} "
            f"distinct values, expected exactly 2"
        )
    label_a, label_b = groups
    return RawTable(
        features=features,
        in_a=np.array([lab == label_a for lab in labels]),
        label_a=label_a,
        label_b=label_b,
        feature_names=feature_names,
        sensitive_name=sensitive_column,
    )


# A file holding any of these is not plain. Quotes and carriage returns
# change how csv.reader splits it, csv.reader rejects NUL on Python 3.10,
# and U+001C..U+001F count as whitespace around a number for numpy's
# parser but not for float().
_NOT_PLAIN = '"\r\x00\x1c\x1d\x1e\x1f'


def _load_plain(path: Path, sensitive_column: str) -> RawTable | None:
    """The vectorized path, or None when the file needs the per-cell reader.

    Without quotes or carriage returns, csv.reader's records are exactly
    the file's lines split on commas. Data lines with one comma per column
    break rule out ragged and blank rows, and numpy's C reader parses
    numbers with the same routine as float(), minus the digit separators
    (``1_0``) it rejects, so the per-cell reader then decides.
    """
    with _open(path) as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError:
            return None  # let the per-cell reader fail at the same record
    if any(ch in text for ch in _NOT_PLAIN):
        return None
    lines = text.split("\n")
    del text
    if lines[-1] == "":
        lines.pop()
    # a blank header line is an empty record to csv.reader, not [""]; a
    # field longer than csv's limit is an error there, not a value
    if len(lines) < 2 or not lines[0] or max(map(len, lines)) > csv.field_size_limit():
        return None
    header = lines.pop(0).split(",")
    sens_idx, feature_names = _columns(path, header, sensitive_column)
    commas = len(header) - 1
    if any(line.count(",") != commas for line in lines):
        return None
    try:
        features = np.loadtxt(
            lines,
            delimiter=",",
            usecols=[i for i in range(len(header)) if i != sens_idx],
            comments=None,
            quotechar=None,
            dtype=np.float64,
            ndmin=2,
        )
    except ValueError:
        return None
    if not np.isfinite(features).all():
        return None
    # split only up to the label, from whichever end is nearer
    if sens_idx <= commas - sens_idx:
        labels = [line.split(",", sens_idx + 1)[sens_idx] for line in lines]
    else:
        labels = [line.rsplit(",", commas - sens_idx + 1)[1] for line in lines]
    return _table(path, sensitive_column, features, labels, feature_names)


def _records(path: Path, fh):
    """csv.reader's records, with undecodable text and csv's own errors
    (a field over ``csv.field_size_limit()``) raised as DataErrors."""
    reader = csv.reader(fh)
    try:
        yield from reader
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from None
    except csv.Error as exc:
        raise DataError(f"{path}:{reader.line_num}: {exc}") from None


def _load_cells(path: Path, sensitive_column: str) -> RawTable:
    """The per-cell reader: csv.reader plus float(), naming the first bad cell."""
    with _open(path) as fh:
        reader = _records(path, fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file, expected a header row") from None
        sens_idx, feature_names = _columns(path, header, sensitive_column)

        rows: list[list[float]] = []
        labels: list[str] = []
        for lineno, record in enumerate(reader, start=2):
            if len(record) != len(header):
                raise DataError(
                    f"{path}:{lineno}: expected {len(header)} fields, got {len(record)}"
                )
            labels.append(record[sens_idx])
            parsed = []
            for i, cell in enumerate(record):
                if i == sens_idx:
                    continue
                try:
                    value = float(cell)
                except ValueError:
                    raise DataError(
                        f"{path}:{lineno}: non-numeric cell {cell!r} in column {header[i]!r}"
                    ) from None
                if not math.isfinite(value):
                    raise DataError(
                        f"{path}:{lineno}: non-finite cell {cell!r} in column {header[i]!r}"
                    )
                parsed.append(value)
            rows.append(parsed)

    features = np.array(rows, dtype=np.float64)
    return _table(path, sensitive_column, features, labels, feature_names)


def write_table(table: RawTable, path) -> None:
    """Write a RawTable as CSV (features first, sensitive column last)."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(table.feature_names) + [table.sensitive_name])
        for row, flag in zip(table.features, table.in_a):
            writer.writerow([float(v) for v in row] + [table.label_a if flag else table.label_b])


def balance(table: RawTable) -> RawTable:
    """Truncate each group to the smaller group's size.

    Keeps the first ``min(n_a, n_b)`` rows of each group in original file
    order; already-balanced input comes back unchanged.
    """
    in_a = table.in_a
    n_a = int(np.count_nonzero(in_a))
    # each row's 1-based position within its own group
    position = np.where(in_a, np.cumsum(in_a), np.cumsum(~in_a))
    keep = np.flatnonzero(position <= min(n_a, in_a.size - n_a))
    return replace(table, features=table.features[keep], in_a=in_a[keep])


def center_and_split(table: RawTable) -> GroupedData:
    """Subtract each column's global mean; the group mask and labels pass through.

    The mean is always taken over all rows of the (possibly balanced)
    table, not per group; balancing must therefore happen before this
    step, since dropping rows moves the mean.
    """
    x = table.features - table.features.mean(axis=0)
    grouped = GroupedData(x=x, in_a=table.in_a, label_a=table.label_a, label_b=table.label_b)
    # round-off in the mean and the subtraction grows with the column's
    # largest magnitude, so the bound scales with it
    scale = np.maximum(table.features.max(axis=0), -table.features.min(axis=0))
    if np.any(np.abs(x.sum(axis=0)) > _CENTER_TOL * grouped.n * scale):
        raise DataError("centering failed: column sums exceed tolerance")
    return grouped


def load_grouped(path, sensitive_column: str, balanced: bool = False) -> GroupedData:
    """Load, optionally balance, then center and split."""
    table = load_table(path, sensitive_column)
    if balanced:
        table = balance(table)
    return center_and_split(table)

r"""Two-group tables in and out: loading, balancing, writing, and the
bundled synthetic demo table.

The on-disk contract is a UTF-8 CSV with one header row, comma delimiter
and ``.`` decimal point. One column (selected by exact header name) holds
the sensitive group label, taken verbatim as a string; every other column
must parse as a finite number. Rows with unparseable cells abort the load:
silently dropping rows would shift the group counts and every metric
computed from them.

The input is opened and decoded once, so a pipe loads like a file, and
text that is not UTF-8 is refused first, at its first bad byte. A plain
text (no quote, NUL, \x0b, \x0c, \x1c-\x1f, \x85, \u2028 or \u2029, and
one comma per column break on every data line), whatever its line
endings, is parsed in one vectorized pass with numpy's C reader. Quoted
or malformed text, and any cell that pass rejects, goes through a
per-cell reader (``csv.reader`` plus ``float()``) over the same text; it
gives the same values bit for bit and raises the same errors, naming the
physical line and the column of the first bad cell.

The groups are decided once, at load: the first-seen label is group a,
and the ``RawTable`` holds a bool mask that is True on its rows, plus the
two labels. No record keeps a label per row, so nothing after the load
reads one. The table stays uncentered; ``fairpca.prepare`` centers it.

The demo table, ``s1_table``, serves the CLI's ``gen`` and the test
suite. Its first group is a 600-point anisotropic cloud elongated along
the 10-degree direction (axis scales 3 and 0.5); the second is a
300-point cloud along 70 degrees (scales 1.5 and 0.5). Projecting onto a
single direction favors the larger group, so the smaller one starts out
with the worse reconstruction, which is exactly the situation the fitting
algorithms are meant to repair.
"""

import csv
import io
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

__all__ = [
    "DataError",
    "RawTable",
    "load_table",
    "write_table",
    "balance",
    "load_grouped",
    "DEFAULT_SEED",
    "s1_table",
]


class DataError(ValueError):
    """The input table violates the loader's schema contract."""


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
        if not isinstance(self.features, np.ndarray) or self.features.ndim != 2:
            raise DataError("features must be a 2-D array")
        in_a, n = self.in_a, self.features.shape[0]
        if not isinstance(in_a, np.ndarray) or in_a.dtype != bool or in_a.shape != (n,):
            raise DataError("one boolean group flag required per row")
        if self.in_a.all() or not self.in_a.any():
            raise DataError("each group needs at least one row")
        if self.label_a == self.label_b:
            raise DataError(f"both groups are labeled {self.label_a!r}")
        if len(self.feature_names) != self.features.shape[1]:
            raise DataError("one name required per feature column")


def load_table(path, sensitive_column: str) -> RawTable:
    r"""Read a CSV into a RawTable, excluding the sensitive column from features.

    Raises DataError for: missing file, text that is not UTF-8,
    missing/ambiguous header, absent sensitive column, no feature columns,
    ragged rows, a field over ``csv.field_size_limit()``, non-numeric or
    non-finite feature cells, and a label column without exactly two
    distinct values.

    The input is opened and decoded once, here, so a pipe loads like a file;
    text that is not UTF-8 is refused first, naming its first bad byte's
    offset. A plain text, split at its \n, \r and \r\n endings, is parsed
    in one vectorized pass; anything else, and any plain text that pass
    rejects, goes through the per-cell reader, which alone names a bad
    cell, by its physical line. Both give the same values and errors.
    """
    path = Path(path)
    try:
        # utf-8-sig: plain UTF-8 plus tolerance for a spreadsheet-export BOM
        with path.open(newline="", encoding="utf-8-sig") as fh:
            text = fh.read()
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from None
    if any(ch in text for ch in _NOT_PLAIN):
        # the file's own lines, each with its ending, as csv.reader needs
        # to keep a newline inside a quoted field; bytes, not a StringIO,
        # which would hold the text at up to 4 bytes per character
        with io.TextIOWrapper(io.BytesIO(text.encode()), encoding="utf-8", newline="") as lines:
            del text
            return _load_cells(path, lines, sensitive_column)
    lines = text.splitlines()
    del text
    return _load_plain(path, lines, sensitive_column) or _load_cells(path, lines, sensitive_column)


def _columns(path: Path, header: list[str], sensitive_column: str):
    """The sensitive column's index, and the feature columns' indices and names."""
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
    feature_cols = [i for i in range(len(header)) if i != sens_idx]
    if not feature_cols:
        raise DataError(f"{path}: no feature columns besides {sensitive_column!r}")
    return sens_idx, feature_cols, tuple(header[i] for i in feature_cols)


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


# A file holding any of these is not plain. Quotes change how csv.reader
# splits it, and csv.reader rejects NUL on Python 3.10. str.splitlines()
# ends a line at \x0b, \x0c, \x1c..\x1e, \x85, \u2028 and \u2029, where
# csv.reader does not end a record, so only \n, \r and \r\n are left to
# split a plain text. \x1f, like \x1c..\x1e, counts as whitespace around
# a number for numpy's parser but not for float().
_NOT_PLAIN = '"\x00\x0b\x0c\x1c\x1d\x1e\x1f\x85\u2028\u2029'


def _load_plain(path: Path, lines: list[str], sensitive_column: str) -> RawTable | None:
    """The vectorized path, or None when the text needs the per-cell reader.

    ``lines`` (read, not changed) are the text split at its \\n, \\r and
    \\r\\n endings and hold no quotes, so csv.reader's records are exactly
    these lines split on commas. Data lines with one comma per column
    break rule out ragged and blank rows, and numpy's C reader parses
    numbers with the same routine as float(), minus the digit separators
    (``1_0``) it rejects, so the per-cell reader then decides.
    """
    # a blank header line is an empty record to csv.reader, not [""]; a
    # field longer than csv's limit is an error there, not a value
    if len(lines) < 2 or not lines[0] or max(map(len, lines)) > csv.field_size_limit():
        return None
    header, body = lines[0].split(","), lines[1:]
    sens_idx, feature_cols, feature_names = _columns(path, header, sensitive_column)
    commas = len(header) - 1
    if any(line.count(",") != commas for line in body):
        return None
    try:
        features = np.loadtxt(
            body,
            delimiter=",",
            usecols=feature_cols,
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
        labels = [line.split(",", sens_idx + 1)[sens_idx] for line in body]
    else:
        labels = [line.rsplit(",", commas - sens_idx + 1)[1] for line in body]
    return _table(path, sensitive_column, features, labels, feature_names)


def _load_cells(path: Path, lines, sensitive_column: str) -> RawTable:
    """The per-cell reader: csv.reader over ``lines`` plus float(). A bad
    record, its own or csv's (a field over ``csv.field_size_limit()``), is
    a DataError naming the physical line the record ends on."""
    reader = csv.reader(lines)
    try:
        header = next(reader, None)
        if header is None:
            raise DataError(f"{path}: empty file, expected a header row")
        sens_idx, feature_cols, feature_names = _columns(path, header, sensitive_column)

        rows: list[list[float]] = []
        labels: list[str] = []
        for record in reader:
            if len(record) != len(header):
                raise csv.Error(f"expected {len(header)} fields, got {len(record)}")
            labels.append(record[sens_idx])
            parsed = []
            for i in feature_cols:
                cell = record[i]
                try:
                    value = float(cell)
                except ValueError:
                    raise csv.Error(f"non-numeric cell {cell!r} in column {header[i]!r}")
                if not math.isfinite(value):
                    raise csv.Error(f"non-finite cell {cell!r} in column {header[i]!r}")
                parsed.append(value)
            rows.append(parsed)
    except csv.Error as exc:
        raise DataError(f"{path}:{reader.line_num}: {exc}") from None

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


def load_grouped(path, sensitive_column: str, balanced: bool = False) -> RawTable:
    """Load, then optionally balance."""
    table = load_table(path, sensitive_column)
    return balance(table) if balanced else table


DEFAULT_SEED = 42


def _cloud(rng: np.random.Generator, n: int, angle_deg: float, scales: tuple[float, float]) -> np.ndarray:
    theta = math.radians(angle_deg)
    major = np.array([math.cos(theta), math.sin(theta)])
    minor = np.array([-math.sin(theta), math.cos(theta)])
    z = rng.standard_normal((n, 2))
    return np.outer(scales[0] * z[:, 0], major) + np.outer(scales[1] * z[:, 1], minor)


def s1_table(seed: int = DEFAULT_SEED) -> RawTable:
    """Two elongated Gaussian clouds, 600 rows labeled 'a' then 300 labeled 'b'."""
    rng = np.random.default_rng(seed)
    group_a = _cloud(rng, 600, angle_deg=10.0, scales=(3.0, 0.5))
    group_b = _cloud(rng, 300, angle_deg=70.0, scales=(1.5, 0.5))
    return RawTable(
        features=np.vstack([group_a, group_b]),
        in_a=np.arange(900) < 600,
        label_a="a",
        label_b="b",
        feature_names=("x1", "x2"),
        sensitive_name="group",
    )

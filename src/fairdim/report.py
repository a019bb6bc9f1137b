"""Rank-sweep experiment harness and its serialized report formats.

A sweep fits every method at every rank from 1 to a maximum and collects
one row per (rank, method) cell. A row is the dict that is written:
``r``, ``method`` and ``alpha`` followed by the ``GroupMetrics`` measures
in their declared order, so ``ROW_FIELDS`` is the only list of its keys.
Reports are written both as line-delimited JSON (one self-contained
record per line) and as a CSV table with the same field order, each row
led by the report's ``dataset_id`` and ``balanced``. Wall-clock timings
are collected per fit but deliberately kept out of both files so that
repeated runs on the same input are byte-identical; they go to the
timing log instead.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from time import perf_counter

from .dataset import DataError, RawTable
from .fairpca import (
    METHOD_CFPCA, METHOD_PCA, METHOD_UFPCA, FairFitResult, Search, prepare, search
)
from .metrics import GroupMetrics

__all__ = [
    "METHODS",
    "ROW_FIELDS",
    "SweepReport",
    "fit_one",
    "run_sweep",
    "fit_record",
    "write_report_jsonl",
    "write_report_csv",
    "read_report_jsonl",
    "write_plot_series",
]

METHODS = (METHOD_PCA, METHOD_UFPCA, METHOD_CFPCA)
ROW_FIELDS = ("r", "method", "alpha", *(f.name for f in fields(GroupMetrics)))
# the JSON types a record field may take; every other row field is a number
_TYPES = {"dataset_id": (str,), "balanced": (bool,), "r": (int,), "method": (str,)}


@dataclass(frozen=True)
class SweepReport:
    """The rows of one sweep, each a dict keyed by ``ROW_FIELDS``, plus
    what every written record repeats. ``runtime_ms`` holds each row's
    fit time, in row order, for the timing log; it is never serialized
    and is empty for a report read back from a file."""

    dataset_id: str
    balanced: bool
    rows: tuple[dict, ...]
    runtime_ms: tuple[int, ...] = ()


def fit_one(s: Search, method: str) -> tuple[FairFitResult, int]:
    """Derive one method's fit from a rank's ``Search``; return the fit and
    the ms it took, which include the root search only for the first fair
    fit on ``s``. This is the only dispatch from a method name to its fit,
    shared by a single fit and by every cell of a sweep."""
    start = perf_counter()
    if method == METHOD_PCA:
        fit = s.pca
    elif method == METHOD_UFPCA:
        fit = s.ufpca()
    elif method == METHOD_CFPCA:
        fit = s.cfpca()
    else:
        raise ValueError(f"unknown method {method!r}")
    return fit, int(round((perf_counter() - start) * 1000.0))


def run_sweep(
    table: RawTable, max_rank: int, tol: float, dataset_id: str, balanced: bool
) -> SweepReport:
    """Fit all methods for every rank 1..max_rank, in (rank, method) order.

    The second moments and the one plain-PCA eigendecomposition serving
    every rank are computed once, before the first cell. Each rank then
    builds one ``Search``, and its three cells share it.
    """
    p = prepare(table, max_rank)
    searches = (search(p, r, tol) for r in range(1, max_rank + 1))
    cells = [fit_one(s, method) for s in searches for method in METHODS]
    rows = tuple(
        {
            "r": int(fit.u.shape[1]),
            "method": fit.method,
            "alpha": float(fit.alpha),
            **asdict(fit.metrics),
        }
        for fit, _ in cells
    )
    return SweepReport(dataset_id, balanced, rows, tuple(ms for _, ms in cells))


def fit_record(fit: FairFitResult) -> dict:
    """JSON-ready record for a single fit, closed by the group role labels.
    Its projection applies to centered rows: a new row needs the training
    table's column means subtracted first, and the record does not hold them."""
    return {
        "method": fit.method,
        "rank": int(fit.u.shape[1]),
        "alpha": float(fit.alpha),
        **asdict(fit.metrics),
        "iterations": int(fit.iterations),
        "budget": None if fit.budget is None else float(fit.budget),
        "projection": [[float(v) for v in row] for row in fit.u],
        "privileged": fit.privileged,
        "harmed": fit.harmed,
    }


def _records(report: SweepReport):
    for row in report.rows:
        yield {"dataset_id": report.dataset_id, "balanced": report.balanced, **row}


def write_report_jsonl(report: SweepReport, fh) -> None:
    for record in _records(report):
        fh.write(json.dumps(record, separators=(",", ":")))
        fh.write("\n")


def write_report_csv(report: SweepReport, fh) -> None:
    """CSV table of the report; a field is quoted only when it has to be."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(("dataset_id", "balanced", *ROW_FIELDS))
    writer.writerows(record.values() for record in _records(report))


def _field(rec: dict, key: str):
    value = rec[key]
    if type(value) not in _TYPES.get(key, (int, float)):
        raise TypeError(f"{key} {value!r} has the wrong type")
    if key in _TYPES:
        return value
    # json reads NaN and Infinity, and an integer past float64 overflows
    # here; no writer emits either, since prepare gates on finiteness
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"{key} {value!r} is not finite")
    return number


def read_report_jsonl(path) -> SweepReport:
    """Parse a JSONL report, validating each field's type, the method tags,
    finite measures, ranks from 1, one row per (rank, method) and one report per file."""
    path = Path(path)
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from None

    header = None
    rows = {}  # (r, method) -> row, in file order
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}:{lineno}: malformed report line: {exc}") from exc
        try:
            if rec["method"] not in METHODS:
                raise DataError(f"{path}:{lineno}: unknown method {rec['method']!r}")
            row = {k: _field(rec, k) for k in ROW_FIELDS}
            this = (_field(rec, "dataset_id"), _field(rec, "balanced"))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise DataError(f"{path}:{lineno}: malformed report line: {exc}") from exc
        if header is None:
            header = this
        elif this != header:
            raise DataError(f"{path}:{lineno}: mixed reports: {this} after {header}")
        if row["r"] < 1:
            raise DataError(f"{path}:{lineno}: rank {row['r']} is below 1")
        cell = (row["r"], row["method"])
        if cell in rows:
            raise DataError(f"{path}:{lineno}: repeated cell r={cell[0]} method={cell[1]!r}")
        rows[cell] = row
    return SweepReport(*(header or ("", False)), tuple(rows.values()))


def write_plot_series(report: SweepReport, out_dir) -> list[Path]:
    """Emit plot-ready CSV series from a report.

    One file per figure panel family: overall error vs rank, fairness vs
    rank, and per-method group errors vs rank (only for methods present).
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = sorted(report.rows, key=lambda row: (row["r"], METHODS.index(row["method"])))
    panels = [
        ("overall_error_vs_rank", ("r", "method", "overall_err"), rows),
        ("fairness_vs_rank", ("r", "method", "fairness"), rows),
    ]
    for method in METHODS:
        method_rows = [row for row in rows if row["method"] == method]
        if method_rows:
            panels.append((f"group_errors_{method}", ("r", "err_a", "err_b"), method_rows))

    written = []
    for name, columns, panel_rows in panels:
        series = out_dir / f"{name}.csv"
        with series.open("w", encoding="utf-8") as fh:
            fh.write(",".join(columns) + "\n")
            for row in panel_rows:
                fh.write(",".join(str(row[k]) for k in columns) + "\n")
        written.append(series)
    return written

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
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from time import perf_counter

from .dataset import DataError, GroupedData
from .fairpca import (
    FairFitResult,
    Prepared,
    SearchConfig,
    c_fpca,
    classical_pca,
    prepare,
    u_fpca,
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

METHODS = ("pca", "ufpca", "cfpca")
ROW_FIELDS = ("r", "method", "alpha", *(f.name for f in fields(GroupMetrics)))
_CAST = {"r": int, "method": str}  # every other row field is a float


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


def fit_one(
    data: GroupedData | Prepared, r: int, method: str, config: SearchConfig
) -> tuple[FairFitResult, int]:
    """Fit one method at one rank; return the fit and its wall time in ms.

    This is the only dispatch from a method name to its fit, shared by a
    single fit and by every cell of a sweep. ``data`` is the dataset, or
    its ``Prepared`` form to reuse.
    """
    start = perf_counter()
    if method == "pca":
        fit = classical_pca(data, r)
    elif method == "ufpca":
        fit = u_fpca(data, r, config)
    elif method == "cfpca":
        fit = c_fpca(data, r, config)
    else:
        raise ValueError(f"unknown method {method!r}")
    return fit, int(round((perf_counter() - start) * 1000.0))


def run_sweep(
    g: GroupedData,
    max_rank: int,
    config: SearchConfig,
    dataset_id: str,
    balanced: bool,
) -> SweepReport:
    """Fit all methods for every rank 1..max_rank, in (rank, method) order.

    The second moments and the one plain-PCA eigendecomposition serving
    every rank are computed once, before the first cell, and every cell
    reuses them.
    """
    p = prepare(g, max_rank)
    cells = [
        fit_one(p, r, method, config)
        for r in range(1, max_rank + 1)
        for method in METHODS
    ]
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
    """JSON-ready record for a single fit; the projection rides along so
    the output is directly usable for transforming new data. The group
    role labels close the record."""
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


def read_report_jsonl(path) -> SweepReport:
    """Parse a JSONL report, validating record shape and method tags."""
    path = Path(path)
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from None

    dataset_id = ""
    balanced = False
    rows = []
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
            rows.append({k: _CAST.get(k, float)(rec[k]) for k in ROW_FIELDS})
            dataset_id = str(rec["dataset_id"])
            balanced = bool(rec["balanced"])
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"{path}:{lineno}: malformed report line: {exc}") from exc
    return SweepReport(dataset_id, balanced, tuple(rows))


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

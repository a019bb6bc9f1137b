"""Rank-sweep experiment harness and its serialized report formats.

A sweep fits every method at every rank from 1 to a maximum and collects
one row per (rank, method) cell. Reports are written both as
line-delimited JSON (one self-contained record per line) and as a CSV
table with the same field order. Wall-clock timings are collected per fit
but deliberately kept out of both files so that repeated runs on the same
input are byte-identical; they go to the timing log instead.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
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

__all__ = [
    "METHODS",
    "SweepRow",
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

_ROW_FIELDS = (
    "r",
    "method",
    "alpha",
    "overall_err",
    "err_a",
    "err_b",
    "disparity",
    "fairness",
)


@dataclass(frozen=True)
class SweepRow:
    r: int
    method: str
    alpha: float
    overall_err: float
    err_a: float
    err_b: float
    disparity: float
    fairness: float
    runtime_ms: int = 0  # measured per fit; never serialized into reports


@dataclass(frozen=True)
class SweepReport:
    dataset_id: str
    balanced: bool
    rows: tuple[SweepRow, ...]


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


def _sweep_row(fit: FairFitResult, runtime_ms: int) -> SweepRow:
    m = fit.metrics
    return SweepRow(
        r=int(fit.u.shape[1]),
        method=fit.method,
        alpha=float(fit.alpha),
        overall_err=m.overall_err,
        err_a=m.err_a,
        err_b=m.err_b,
        disparity=m.disparity,
        fairness=m.fairness,
        runtime_ms=runtime_ms,
    )


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
    rows = [
        _sweep_row(*fit_one(p, r, method, config))
        for r in range(1, max_rank + 1)
        for method in METHODS
    ]
    return SweepReport(dataset_id=dataset_id, balanced=balanced, rows=tuple(rows))


def _row_record(report: SweepReport, row: SweepRow) -> dict:
    record = {"dataset_id": report.dataset_id, "balanced": report.balanced}
    record.update(
        {
            "r": int(row.r),
            "method": row.method,
            "alpha": float(row.alpha),
            "overall_err": float(row.overall_err),
            "err_a": float(row.err_a),
            "err_b": float(row.err_b),
            "disparity": float(row.disparity),
            "fairness": float(row.fairness),
        }
    )
    return record


def fit_record(fit: FairFitResult) -> dict:
    """JSON-ready record for a single fit; the projection rides along so
    the output is directly usable for transforming new data. The group
    role labels close the record."""
    m = fit.metrics
    return {
        "method": fit.method,
        "rank": int(fit.u.shape[1]),
        "alpha": float(fit.alpha),
        "overall_err": m.overall_err,
        "err_a": m.err_a,
        "err_b": m.err_b,
        "disparity": m.disparity,
        "fairness": m.fairness,
        "iterations": int(fit.iterations),
        "budget": None if fit.budget is None else float(fit.budget),
        "projection": [[float(v) for v in row] for row in fit.u],
        "privileged": fit.privileged,
        "harmed": fit.harmed,
    }


def write_report_jsonl(report: SweepReport, fh) -> None:
    for row in report.rows:
        fh.write(json.dumps(_row_record(report, row), separators=(",", ":")))
        fh.write("\n")


def write_report_csv(report: SweepReport, fh) -> None:
    """CSV table of the report; a field is quoted only when it has to be."""
    columns = ("dataset_id", "balanced", *_ROW_FIELDS)
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(columns)
    for row in report.rows:
        rec = _row_record(report, row)
        writer.writerow(rec[k] for k in columns)


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
            row = SweepRow(
                r=int(rec["r"]),
                method=rec["method"],
                alpha=float(rec["alpha"]),
                overall_err=float(rec["overall_err"]),
                err_a=float(rec["err_a"]),
                err_b=float(rec["err_b"]),
                disparity=float(rec["disparity"]),
                fairness=float(rec["fairness"]),
            )
            dataset_id = str(rec["dataset_id"])
            balanced = bool(rec["balanced"])
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"{path}:{lineno}: malformed report line: {exc}") from exc
        rows.append(row)
    return SweepReport(dataset_id=dataset_id, balanced=balanced, rows=tuple(rows))


def _sorted_rows(report: SweepReport) -> list[SweepRow]:
    return sorted(report.rows, key=lambda row: (row.r, METHODS.index(row.method)))


def write_plot_series(report: SweepReport, out_dir) -> list[Path]:
    """Emit plot-ready CSV series from a report.

    One file per figure panel family: overall error vs rank, fairness vs
    rank, and per-method group errors vs rank.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = _sorted_rows(report)
    written = []

    overall = out_dir / "overall_error_vs_rank.csv"
    with overall.open("w", encoding="utf-8") as fh:
        fh.write("r,method,overall_err\n")
        for row in rows:
            fh.write(f"{row.r},{row.method},{row.overall_err}\n")
    written.append(overall)

    fairness = out_dir / "fairness_vs_rank.csv"
    with fairness.open("w", encoding="utf-8") as fh:
        fh.write("r,method,fairness\n")
        for row in rows:
            fh.write(f"{row.r},{row.method},{row.fairness}\n")
    written.append(fairness)

    for method in METHODS:
        method_rows = [row for row in rows if row.method == method]
        if not method_rows:
            continue
        series = out_dir / f"group_errors_{method}.csv"
        with series.open("w", encoding="utf-8") as fh:
            fh.write("r,err_a,err_b\n")
            for row in method_rows:
                fh.write(f"{row.r},{row.err_a},{row.err_b}\n")
        written.append(series)
    return written

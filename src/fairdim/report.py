"""Rank-sweep experiment harness and its serialized report formats.

A sweep fits every method at every rank from 1 to a maximum and collects
one row per (rank, method) cell. A row is the dict that is written:
``r``, ``method`` and ``alpha`` followed by the ``GroupMetrics`` measures
in their declared order, so ``ROW_FIELDS`` is the only list of its keys.
Reports are written both as line-delimited JSON (one self-contained
record per line) and as a CSV table with the same field order, each row
led by the report's ``dataset_id`` and ``balanced``. The package writes
reports and reads none: each figure series, overall error, fairness or
the two groups' errors against rank, is a column subset of the CSV.
Nothing here reads a clock, so repeated runs on the same input write
identical bytes; the CLI times each command and logs that time to stderr.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, fields

from .dataset import RawTable
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
]

METHODS = (METHOD_PCA, METHOD_UFPCA, METHOD_CFPCA)
ROW_FIELDS = ("r", "method", "alpha", *(f.name for f in fields(GroupMetrics)))


@dataclass(frozen=True)
class SweepReport:
    """The rows of one sweep, each a dict keyed by ``ROW_FIELDS``, plus
    what every written record repeats. It holds nothing that is not
    written: each JSONL record is ``dataset_id``, ``balanced`` and a row."""

    dataset_id: str
    balanced: bool
    rows: tuple[dict, ...]


def fit_one(s: Search, method: str) -> FairFitResult:
    """Derive one method's fit from a rank's ``Search``. This is the only
    dispatch from a method name to its fit, shared by a single fit and by
    every cell of a sweep."""
    if method == METHOD_PCA:
        return s.pca
    if method == METHOD_UFPCA:
        return s.ufpca()
    if method == METHOD_CFPCA:
        return s.cfpca()
    raise ValueError(f"unknown method {method!r}")


def run_sweep(
    table: RawTable, max_rank: int, tol: float, dataset_id: str, balanced: bool
) -> SweepReport:
    """Fit all methods for every rank 1..max_rank, in (rank, method) order.

    The second moments and the one plain-PCA eigendecomposition serving
    every rank are computed once, before the first cell. Each rank then
    builds one ``Search``, and its three cells share it.
    """
    p = prepare(table)
    p.check_rank(max_rank)
    searches = (search(p, r, tol) for r in range(1, max_rank + 1))
    fits = (fit_one(s, method) for s in searches for method in METHODS)
    rows = tuple(
        {
            "r": int(fit.u.shape[1]),
            "method": fit.method,
            "alpha": float(fit.alpha),
            **asdict(fit.metrics),
        }
        for fit in fits
    )
    return SweepReport(dataset_id, balanced, rows)


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

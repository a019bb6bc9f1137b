"""Rank-sweep experiment harness and its serialized report formats.

A sweep fits every method in ``fairpca.METHODS`` at every rank from 1 to
a maximum and returns the records it writes, one per (rank, method) cell.
A record is ``dataset_id`` and ``balanced``, then ``r``, ``method`` and
``alpha``, then the ``GroupMetrics`` measures in their declared order.
``run_sweep``'s dict is the only statement of that layout: the records
are written both as line-delimited JSON (one compact record per line,
the writer a fit's one ``fit_record`` goes through too) and as a CSV
table headed by the first record's keys. The package writes reports and
reads none: each figure series, overall error, fairness or the two
groups' errors against rank, is a column subset of the CSV.
Nothing here reads a clock, so repeated runs on the same input write
identical bytes; the CLI times each command and logs that time to stderr.
"The same input" means the same input bytes, the same numpy and BLAS
build and the same BLAS thread count: at a few hundred features a gram
or an eigensolve may round differently at another thread count (on a
2600×300 table, 27 of 30 ``sweep --max-rank 10`` lines differed between
1 and 2 OpenBLAS threads, near the round-off floor).
"""

import csv
import json
from dataclasses import asdict

from .fairpca import METHODS, FairFitResult, Prepared, fit_one, search

__all__ = [
    "run_sweep",
    "fit_record",
    "write_report_jsonl",
    "write_report_csv",
]


def run_sweep(
    p: Prepared, max_rank: int, tol: float, dataset_id: str, balanced: bool
) -> tuple[dict, ...]:
    """The records of every method's fit for every rank 1..max_rank, in
    (rank, method) order, each exactly as it is written.

    Every rank reads the caller's one ``Prepared``: its moments and
    plain-PCA eigendecomposition were computed once, by ``prepare``. Each
    rank builds one ``Search``, and its three cells share it.
    """
    p.check_rank(max_rank)
    searches = (search(p, r, tol) for r in range(1, max_rank + 1))
    fits = (fit_one(s, method) for s in searches for method in METHODS)
    return tuple(
        {
            "dataset_id": dataset_id,
            "balanced": balanced,
            "r": int(fit.u.shape[1]),
            "method": fit.method,
            "alpha": float(fit.alpha),
            **asdict(fit.metrics),
        }
        for fit in fits
    )


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
        "projection": fit.u.tolist(),
        "privileged": fit.privileged,
        "harmed": fit.harmed,
    }


def write_report_jsonl(records, fh) -> None:
    for record in records:
        fh.write(json.dumps(record, separators=(",", ":")) + "\n")


def write_report_csv(records, fh) -> None:
    """CSV table of the records, headed by the first one's keys (no records
    write an empty file); a field is quoted only when it has to be."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerows(record.keys() for record in records[:1])
    writer.writerows(record.values() for record in records)

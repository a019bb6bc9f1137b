"""Benchmark of the fairdim CLI on seeded synthetic workloads.

    python3 perfbench/run.py --workload tcred-sweep --seed 1 --seconds 20 --trace 0

Run from the repository root. The workload's CSV is generated from the
seed once per run, outside every timed region. Load model: a closed loop
with one client; each CLI invocation is a fresh ``python -m fairdim.cli``
subprocess started after the previous one exited. ``FAIRDIM_THREADS`` is
unset and BLAS keeps its default thread count (the BLAS thread variables
are removed before anything loads BLAS).

``--trace 0`` measures the end-to-end metrics for ``--seconds``: set-up
time (a fresh interpreter that imports ``fairdim.cli`` and loads the CSV)
alternating with CLI invocations, at least one pair, and another only
while the last pair's duration still fits in what is left; then more
set-ups until there are ``SETUP_REPEATS``. Each
invocation is timed from spawn to exit, with CPU time and peak RSS from
``os.wait4``. ``--trace 1`` measures the per-layer metrics in this
process: ``fairdim.cli.main`` runs traced for ``--seconds`` (same rule),
the sweep's thread pool is timed against serial, and one invocation runs
on single-threaded BLAS. Every output is checked against a numpy oracle,
and repeated invocations of one run must write identical bytes.

The last stdout line is the result JSON; the line before it carries the
sample counts, tail percentiles, input properties and the environment.
"""

from __future__ import annotations

import os
import sys

# Fix the load model before numpy (and with it BLAS) is imported anywhere.
_THREAD_VARS = (
    "FAIRDIM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "GOTO_NUM_THREADS",
)
_CALLER_THREAD_VARS = {k: os.environ.pop(k) for k in _THREAD_VARS if k in os.environ}

import argparse  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from contextlib import redirect_stderr  # noqa: E402
from dataclasses import dataclass, replace  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

from checks import CheckError, Oracle, check_fit, check_identical, check_sweep  # noqa: E402
from gen import make_table, write_csv  # noqa: E402
from tracer import Tracer, aggregate  # noqa: E402
from workloads import SENSITIVE_COL, WORKLOADS, Workload  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 5       # fewest fresh-interpreter set-ups per run; the median is reported
IMPORT_REPEATS = 3      # fresh-interpreter imports per traced run
POOL_THREADS = 2
BINDS_RTOL = 1e-6       # a cfpca error this close to its budget counts as binding

_SETUP_CODE = (
    "import sys\n"
    "from fairdim.cli import load_grouped\n"
    "load_grouped(sys.argv[1], sys.argv[2], balanced=sys.argv[3] == '1')\n"
)
_IMPORT_CODE = (
    "from time import perf_counter\n"
    "t = perf_counter()\n"
    "import fairdim.cli\n"
    "print(perf_counter() - t)\n"
)


@dataclass(frozen=True)
class Sample:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float


def child_env(**extra: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.update(extra)
    return env


def run_child(argv: list[str], env: dict, log_path: Path) -> Sample:
    """Run one child to completion; wall clock from spawn to exit, rusage from wait4."""
    with open(log_path, "wb") as log:
        start = perf_counter()
        proc = subprocess.Popen(
            argv, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=log,
            env=env, cwd=ROOT,
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(
        code=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
    )


def child_stdout(argv: list[str], env: dict) -> str:
    done = subprocess.run(
        argv, stdin=subprocess.DEVNULL, capture_output=True, text=True, env=env,
        cwd=ROOT, timeout=120, check=True,
    )
    return done.stdout


class Run:
    """One benchmark run: generated input, oracle, work directory, tallies."""

    def __init__(self, w: Workload, seed: int, work: Path):
        self.w = w
        self.work = work
        x, is_b = make_table(w, seed)
        self.csv = work / f"{w.name}.csv"
        write_csv(self.csv, x, is_b)
        self.cells = x.shape[0] * (x.shape[1] + 1)
        self.oracle = Oracle(w, x, is_b)
        self.attempted = 0
        self.failed = 0
        self.first_report: bytes | None = None
        self.first_parsed = None
        # every invocation writes here; verify() reads and deletes the files
        self.out = work / ("report.jsonl" if w.command == "sweep" else "fit.json")
        self.cli_argv = w.cli_args(str(self.csv), str(self.out))

    def _read(self):
        out = self.out
        if self.w.command == "sweep":
            jsonl = out.read_bytes()
            csv_bytes = out.with_suffix(".csv").read_bytes()
            rows = [json.loads(line) for line in jsonl.decode("utf-8").splitlines()]
            check_sweep(rows, self.oracle, self.w.rank)
            return jsonl + csv_bytes, rows
        data = out.read_bytes()
        record = json.loads(data)
        check_fit(record, self.oracle, self.w)
        return data, record

    def verify(self, code: int, stderr: str) -> int:
        """Check one invocation's outputs; returns the bytes written (0 on failure)."""
        self.attempted += 1
        try:
            if code != 0:
                raise CheckError(f"exit code {code}: {stderr[-500:]}")
            report, parsed = self._read()
            if self.first_report is None:
                self.first_report, self.first_parsed = report, parsed
            check_identical([self.first_report, report])
        except (CheckError, OSError, ValueError, KeyError, TypeError) as exc:
            self.failed += 1
            print(f"{self.w.name}: invocation failed: {exc}", file=sys.stderr)
            return 0
        finally:
            for path in (self.out, self.out.with_suffix(".csv")):
                path.unlink(missing_ok=True)
        return len(report)

    def input_properties(self) -> dict:
        """Share of fair cells at an interior alpha, share of cfpca cells at their budget."""
        parsed = self.first_parsed
        if parsed is None:
            return {}
        if self.w.command == "sweep":
            cells = [(row["r"], row) for row in parsed if row["method"] != "pca"]
        else:
            cells = [(self.w.rank, parsed)]
        interior = sum(0.0 < rec["alpha"] < 1.0 for _, rec in cells)
        cf = [(r, rec) for r, rec in cells if rec["method"] == "cfpca"]
        binds = 0
        for r, rec in cf:
            budget = self.oracle.pca_roles(r)[0]
            binds += max(rec["err_a"], rec["err_b"]) >= budget * (1.0 - BINDS_RTOL)
        return {
            "interior_alpha": interior,
            "fair_cells": len(cells),
            "budget_binds": binds,
            "cfpca_cells": len(cf),
        }


def summarize(values: list[float]) -> dict:
    """Median, the highest percentile with at least ten samples beyond it, n and the samples."""
    n = len(values)
    out = {"n": n, "median": statistics.median(values), "tail": None, "values": values}
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (100.0 - p) / 100.0 >= 10:
            out["tail"] = {"p": p, "value": float(np.percentile(values, p))}
            break
    return out


def _frac(num: int, base: int) -> float:
    return num / base if base else 0.0


# ---- --trace 0: end-to-end metrics -----------------------------------------


def measure_end_to_end(run: Run, seconds: float) -> tuple[dict, dict]:
    w = run.w
    env = child_env()
    setup_argv = [sys.executable, "-c", _SETUP_CODE, str(run.csv), SENSITIVE_COL,
                  "1" if w.balanced else "0"]

    def set_up() -> float:
        s = run_child(setup_argv, env, run.work / "setup.log")
        if s.code != 0:
            raise SystemExit(f"set-up child failed with exit code {s.code}")
        return s.wall_s

    # set-ups alternate with invocations, so both sample the whole window
    setup: list[float] = []
    samples: list[Sample] = []
    start = perf_counter()
    while not samples or perf_counter() - start + setup[-1] + samples[-1].wall_s <= seconds:
        setup.append(set_up())
        log = run.work / "cli.log"
        s = run_child([sys.executable, "-m", "fairdim.cli", *run.cli_argv], env, log)
        run.verify(s.code, log.read_text(errors="replace"))
        samples.append(s)
    while len(setup) < SETUP_REPEATS:
        setup.append(set_up())

    series = {
        "wall_s": [s.wall_s for s in samples],
        "cpu_s": [s.cpu_s for s in samples],
        "setup_s": setup,
        "peak_rss_mb": [s.rss_mb for s in samples],
    }
    units = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    metrics = {
        name: {"value": statistics.median(vals), "unit": units[name]}
        for name, vals in series.items()
    }
    return metrics, {name: summarize(vals) for name, vals in series.items()}


# ---- --trace 1: per-layer metrics ------------------------------------------


PER_LAYER_UNITS = {
    "cli.import_s": "s",
    "dataset.load_table_s": "s",
    "dataset.cells_per_s": "1/s",
    "dataset.balance_and_split_s": "s",
    "linalg.sym_eig_top_r.calls": "count",
    "linalg.sym_eig_top_r.self_s": "s",
    "linalg.sym_eig_top_r.ms_per_call": "ms",
    "linalg.scaled_gram.calls": "count",
    "linalg.scaled_gram.self_s": "s",
    "linalg.scaled_gram.bytes_computed": "B",
    "metrics.group_metrics.calls": "count",
    "metrics.group_metrics.self_s": "s",
    "metrics.group_metrics.bytes_computed": "B",
    "metrics.identify_privileged.calls": "count",
    "metrics.identify_privileged.self_s": "s",
    "fairpca.classical_pca.calls": "count",
    "fairpca.search_self_s": "s",
    "fairpca.iterations": "count",
    "fairpca.eigs_per_iteration": "ratio",
    "report.run_sweep_s": "s",
    "report.run_sweep.threads2_s": "s",
    "report.write_s": "s",
    "report.bytes_written": "B",
    "trace.overhead_frac": "ratio",
    "env.blas1_wall_s": "s",
    "env.blas1_cpu_s": "s",
    "input.interior_alpha_frac": "ratio",
    "input.budget_binds_frac": "ratio",
}


def layer_metrics(agg: dict, cells: int) -> dict:
    def get(name: str, key: str = "self_s"):
        return agg.get(name, {}).get(key, 0)

    eig_calls = get("linalg.sym_eig_top_r", "calls")
    iterations = get("fairpca.golden_section", "iterations")
    load_s = get("dataset.load_table")
    return {
        "dataset.load_table_s": load_s,
        "dataset.cells_per_s": cells / load_s if load_s else 0.0,
        "dataset.balance_and_split_s": get("dataset.balance") + get("dataset.center_and_split"),
        "linalg.sym_eig_top_r.calls": eig_calls,
        "linalg.sym_eig_top_r.self_s": get("linalg.sym_eig_top_r"),
        "linalg.sym_eig_top_r.ms_per_call": 1e3 * _frac(get("linalg.sym_eig_top_r"), eig_calls),
        "linalg.scaled_gram.calls": get("linalg.scaled_gram", "calls"),
        "linalg.scaled_gram.self_s": get("linalg.scaled_gram"),
        "linalg.scaled_gram.bytes_computed": get("linalg.scaled_gram", "bytes"),
        "metrics.group_metrics.calls": get("metrics.group_metrics", "calls"),
        "metrics.group_metrics.self_s": get("metrics.group_metrics"),
        "metrics.group_metrics.bytes_computed": get("metrics.group_metrics", "bytes"),
        "metrics.identify_privileged.calls": get("metrics.identify_privileged", "calls"),
        "metrics.identify_privileged.self_s": get("metrics.identify_privileged"),
        "fairpca.classical_pca.calls": get("fairpca.classical_pca", "calls"),
        "fairpca.search_self_s": get("fairpca.u_fpca") + get("fairpca.c_fpca")
        + get("fairpca.golden_section"),
        "fairpca.iterations": iterations,
        "fairpca.eigs_per_iteration": _frac(eig_calls, iterations),
        "report.write_s": get("report.write_report_jsonl") + get("report.write_report_csv")
        + get("report.fit_record"),
    }


def largest_self(agg: dict) -> str:
    return max((e["self_s"], name) for name, e in agg.items() if name != "cli.main")[1]


def pool_sweep_s(run: Run, cli, traced_agg: dict) -> tuple[float, float]:
    """``run_sweep`` seconds of a traced CLI sweep, serial and with
    ``FAIRDIM_THREADS=POOL_THREADS``.

    A sweep workload reuses its traced run as the serial time and repeats
    that sweep on the pool; the pool's report must match byte for byte. A
    fit workload has no sweep of its own, so both times come from a rank-1
    sweep of the same CSV.
    """
    w = run.w
    sweep = w.command == "sweep"
    if sweep:
        argv = run.cli_argv
    else:
        rank1 = replace(w, command="sweep", rank=1, method=None)
        argv = rank1.cli_args(str(run.csv), str(run.work / "pool.jsonl"))

    def timed(threads: str | None) -> float:
        tracer = Tracer()
        if threads:
            os.environ["FAIRDIM_THREADS"] = threads
        try:
            with redirect_stderr(io.StringIO()) as err, tracer.installed():
                code = cli.main(argv)
        finally:
            os.environ.pop("FAIRDIM_THREADS", None)
        if sweep:
            run.verify(code, err.getvalue())
        elif code != 0:
            raise SystemExit(f"{w.name}: rank-1 sweep exited with {code}: {err.getvalue()}")
        return span_total(aggregate(tracer.spans), "report.run_sweep")

    serial = span_total(traced_agg, "report.run_sweep") if sweep else timed(None)
    return serial, timed(str(POOL_THREADS))


def span_total(agg: dict, name: str) -> float:
    return agg.get(name, {}).get("total_s", 0.0)


def measure_layers(run: Run, seconds: float) -> tuple[dict, dict]:
    env = child_env()
    import_s = [
        float(child_stdout([sys.executable, "-c", _IMPORT_CODE], env))
        for _ in range(IMPORT_REPEATS)
    ]
    sys.path.insert(0, str(SRC))
    import fairdim.cli as cli

    traced, overhead, per_run, aggs = [], [], [], []
    start = perf_counter()
    while not traced or perf_counter() - start + traced[-1] <= seconds:
        tracer = Tracer()
        with redirect_stderr(io.StringIO()) as err:
            t0 = perf_counter()
            with tracer.installed(), tracer.span("cli.main"):
                code = cli.main(run.cli_argv)
            traced.append(perf_counter() - t0)
        written = run.verify(code, err.getvalue())
        spent = sum(s.overhead for s in tracer.spans)
        overhead.append(spent / (traced[-1] - spent))
        agg = aggregate(tracer.spans)
        aggs.append(agg)
        per_run.append({**layer_metrics(agg, run.cells), "report.bytes_written": written})

    serial_s, threads2_s = pool_sweep_s(run, cli, aggs[-1])

    log = run.work / "blas1.log"
    blas1 = run_child(
        [sys.executable, "-m", "fairdim.cli", *run.cli_argv],
        child_env(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1"),
        log,
    )
    run.verify(blas1.code, log.read_text(errors="replace"))

    props = run.input_properties()
    values = {name: statistics.median(r[name] for r in per_run) for name in per_run[0]}
    values.update(
        {
            "cli.import_s": statistics.median(import_s),
            "report.run_sweep_s": serial_s,
            "report.run_sweep.threads2_s": threads2_s,
            "trace.overhead_frac": statistics.median(overhead),
            "env.blas1_wall_s": blas1.wall_s,
            "env.blas1_cpu_s": blas1.cpu_s,
            "input.interior_alpha_frac": _frac(props.get("interior_alpha", 0), props.get("fair_cells", 0)),
            "input.budget_binds_frac": _frac(props.get("budget_binds", 0), props.get("cfpca_cells", 0)),
        }
    )
    detail = {
        "traced_repeats": len(traced),
        "largest_self": [largest_self(a) for a in aggs],
        "self_s": {name: e["self_s"] for name, e in aggs[-1].items()},
        "calls": {name: e["calls"] for name, e in aggs[-1].items()},
        "traced_s": traced,
    }
    return values, detail


# ---- shared ------------------------------------------------------------------


def environment(env_probe: dict) -> dict:
    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = child_stdout(["git", "rev-parse", "HEAD"], dict(os.environ)).strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "fairdim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "cpu_model": model,
        "nproc": len(os.sched_getaffinity(0)),
        **env_probe,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "fairdim_threads_set": "FAIRDIM_THREADS" in _CALLER_THREAD_VARS,
        "thread_vars_removed": sorted(_CALLER_THREAD_VARS),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    if not (SRC / "fairdim" / "cli.py").is_file():
        print(f"fairdim sources not found under {SRC}", file=sys.stderr)
        return 2

    work = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        probe = json.loads(child_stdout([sys.executable, str(HERE / "envinfo.py")], child_env()))
        run = Run(WORKLOADS[args.workload], args.seed, work)
        if args.trace:
            values, detail = measure_layers(run, args.seconds)
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in PER_LAYER_UNITS.items()}
        else:
            metrics, detail = measure_end_to_end(run, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "failed_frac": _frac(run.failed, run.attempted),
        "input": run.input_properties(),
        "env": environment(probe),
        "measurements": detail,
    }
    print(json.dumps(detail))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

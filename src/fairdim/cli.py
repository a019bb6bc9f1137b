"""Command-line front end: generate synthetic data, fit one method, sweep ranks.

Exit codes: 0 success, 1 bad flags or an invalid request for the given
data, 2 data/schema errors, 3 numeric failures. Timings go to stderr, one
line per command, so every report artifact stays byte-reproducible.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from time import perf_counter

from .dataset import DataError, load_grouped, write_table
from .fairpca import DEFAULT_TOL, METHODS, fit_one, search
from .linalg import LinalgError
from .report import fit_record, run_sweep, write_report_csv, write_report_jsonl
from .synth import DEFAULT_SEED, s1_table

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

class _UsageError(Exception):
    """Flag-level problem; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _above(floor, cast, kind="positive"):
    """An argparse type: the text read by ``cast``, refused unless above ``floor``."""

    def parse(text: str):
        try:
            if (value := cast(text)) > floor:  # NaN is not
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"not a {kind} {cast.__name__}: {text!r}")

    return parse


def _build_parser() -> _Parser:
    parser = _Parser(prog="fairdim", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="write the bundled synthetic dataset as CSV")
    gen.add_argument("--out", required=True, type=Path)
    gen.add_argument("--seed", type=_above(-1, int, "non-negative"), default=DEFAULT_SEED)
    gen.set_defaults(run=_cmd_gen)

    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--input", required=True, type=Path)
    shared.add_argument("--sensitive-col", required=True)
    shared.add_argument("--tol", type=_above(0, float), default=DEFAULT_TOL,
                        help=f"width of the final alpha bracket (default {DEFAULT_TOL:g})")
    shared.add_argument("--balanced", action="store_true")
    shared.add_argument("--output", type=Path)

    fit = sub.add_parser("fit", parents=[shared], help="fit one method at one rank")
    fit.add_argument("--method", required=True, choices=METHODS)
    fit.add_argument("--rank", required=True, type=_above(0, int))
    fit.set_defaults(run=_cmd_fit)

    sweep = sub.add_parser("sweep", parents=[shared], help="fit every method for ranks 1..max")
    sweep.add_argument("--max-rank", required=True, type=_above(0, int))
    sweep.set_defaults(run=_cmd_sweep)

    return parser


def _cmd_gen(args) -> int:
    write_table(s1_table(args.seed), args.out)
    return EXIT_OK


def _setup(args, rank: int, flag: str, outputs: tuple[Path, ...]):
    """Load the table (so the loader names a missing input), then refuse an
    output path that is ``--input`` and a ``rank`` above the table's width."""
    table = load_grouped(args.input, args.sensitive_col, balanced=args.balanced)
    for out in outputs:
        if out.exists() and out.samefile(args.input):
            raise _UsageError(f"output {out} would overwrite --input {args.input}")
    if rank > table.features.shape[1]:
        raise _UsageError(f"{flag} {rank} exceeds feature count {table.features.shape[1]}")
    return table


def _log(line: str, start: float) -> None:
    # the timed span runs from after loading to before writing
    print(f"{line} runtime_ms={round((perf_counter() - start) * 1000.0)}", file=sys.stderr)


def _cmd_fit(args) -> int:
    outputs = () if args.output is None else (args.output,)
    table = _setup(args, args.rank, "--rank", outputs)
    start = perf_counter()
    fit = fit_one(search(table, args.rank, args.tol), args.method)
    _log(f"fit dataset={args.input.stem} method={args.method} r={args.rank}", start)

    text = json.dumps(fit_record(fit)) + "\n"
    if args.output is not None:
        args.output.write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    outputs = ()
    if args.output is not None:
        # strip only a final .jsonl: report.v2.jsonl keeps its .v2
        stem = args.output.name.removesuffix(".jsonl")
        outputs = tuple(args.output.with_name(stem + ext) for ext in (".jsonl", ".csv"))
    table = _setup(args, args.max_rank, "--max-rank", outputs)
    start = perf_counter()
    records = run_sweep(table, args.max_rank, args.tol, args.input.stem, args.balanced)
    _log(f"sweep dataset={args.input.stem} max_rank={args.max_rank}", start)
    if not outputs:
        write_report_jsonl(records, sys.stdout)
    for path, write in zip(outputs, (write_report_jsonl, write_report_csv)):
        with path.open("w", encoding="utf-8") as fh:
            write(records, fh)
    return EXIT_OK


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.run(args)
    except _UsageError as exc:
        print(f"fairdim: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    # ahead of ValueError, which DataError is
    except (DataError, OSError) as exc:
        print(f"fairdim: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (LinalgError, ValueError) as exc:
        print(f"fairdim: numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()

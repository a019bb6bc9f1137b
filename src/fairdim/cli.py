"""Command-line front end: generate synthetic data, fit one method, sweep ranks.

``fit`` and ``sweep`` write JSONL to stdout or ``--output``, and a sweep's
``--output NAME.jsonl`` gets its CSV beside it as ``NAME.csv``. The exception
class sets the exit code: 0 success, 1 ``ValueError`` (bad flags or requests),
2 ``DataError`` or ``OSError``, 3 ``LinalgError``, and 141 (128 + SIGPIPE),
with no message, when the reader of stdout has gone.
Timings go to stderr, one line per command, so every report artifact stays
byte-reproducible.
"""

import argparse
import os
import sys
from pathlib import Path
from time import perf_counter

from .dataset import DEFAULT_SEED, DataError, load_grouped, s1_table, write_table
from .fairpca import DEFAULT_TOL, METHODS, fit_one, prepare, search
from .linalg import LinalgError
from .report import fit_record, run_sweep, write_report_csv, write_report_jsonl

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3
EXIT_PIPE = 141  # 128 + SIGPIPE, as a shell reports a writer the signal killed

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValueError(message)


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
    shared.add_argument("--output", type=Path,
                        help="the JSONL output (default stdout); a sweep's must end in"
                        " .jsonl, and its CSV goes beside it")

    fit = sub.add_parser("fit", parents=[shared], help="fit one method at one rank")
    fit.add_argument("--method", required=True, choices=METHODS)
    fit.add_argument("--rank", required=True, type=_above(0, int))
    fit.set_defaults(run=_cmd_fit)

    sweep = sub.add_parser("sweep", parents=[shared], help="fit every method for ranks 1..max")
    sweep.add_argument("--max-rank", required=True, type=_above(0, int))
    sweep.set_defaults(run=_cmd_sweep)

    return parser


def _check_output(out: Path) -> None:
    """Refuse an output path that is a directory or in no existing directory."""
    if out.is_dir():
        raise ValueError(f"output {out} is a directory")
    if not out.parent.is_dir():
        raise ValueError(f"output {out}: no directory {out.parent}")


def _cmd_gen(args) -> int:
    _check_output(args.out)
    write_table(s1_table(args.seed), args.out)
    return EXIT_OK


def _setup(args, outputs: tuple[Path, ...]):
    """Load the table (so the loader names a missing input), then refuse an
    output path that ``_check_output`` refuses or that is ``--input``."""
    table = load_grouped(args.input, args.sensitive_col, balanced=args.balanced)
    for out in outputs:
        _check_output(out)
        if out.exists() and out.samefile(args.input):
            raise ValueError(f"output {out} would overwrite --input {args.input}")
    return table


def _log(line: str, start: float) -> None:
    # the timed span runs from after loading to before writing
    print(f"{line} runtime_ms={round((perf_counter() - start) * 1000.0)}", file=sys.stderr)


def _write(records, outputs: tuple[Path, ...]) -> int:
    """JSONL to stdout, or to the first output; a sweep's second output gets CSV."""
    if not outputs:
        write_report_jsonl(records, sys.stdout)
        sys.stdout.flush()  # so a closed reader fails here, inside main
    for path, write in zip(outputs, (write_report_jsonl, write_report_csv)):
        with path.open("w", encoding="utf-8") as fh:
            write(records, fh)
    return EXIT_OK


def _cmd_fit(args) -> int:
    outputs = () if args.output is None else (args.output,)
    table = _setup(args, outputs)
    start = perf_counter()
    fit = fit_one(search(prepare(table), args.rank, args.tol), args.method)
    _log(f"fit dataset={args.input.stem} method={args.method} r={args.rank}", start)
    return _write((fit_record(fit),), outputs)


def _cmd_sweep(args) -> int:
    outputs = ()
    if args.output is not None:
        # the name, not Path.suffix: Path(".jsonl").suffix is ""
        stem = args.output.name.removesuffix(".jsonl")
        if stem == args.output.name:
            raise ValueError(f"output {args.output} does not end in .jsonl")
        outputs = (args.output, args.output.with_name(stem + ".csv"))
    table = _setup(args, outputs)
    start = perf_counter()
    records = run_sweep(prepare(table), args.max_rank, args.tol, args.input.stem, args.balanced)
    _log(f"sweep dataset={args.input.stem} max_rank={args.max_rank}", start)
    return _write(records, outputs)


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.run(args)
    except BrokenPipeError:
        # the reader is gone: point stdout's descriptor at os.devnull, so the
        # flush at interpreter exit neither warns nor turns the status into 120
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE
    # BrokenPipeError is an OSError, and DataError and LinalgError are
    # ValueErrors, so each goes before the clause that would take it
    except (DataError, OSError) as exc:
        print(f"fairdim: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except LinalgError as exc:
        print(f"fairdim: numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"fairdim: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

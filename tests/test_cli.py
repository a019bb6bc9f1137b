import ast
import csv
import importlib
import json
import os
import re
import subprocess
import sys
import time
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from fairdim import cli, dataset, fairpca, report
from fairdim.dataset import (
    DataError, balance, load_grouped, load_table, s1_table, write_table,
)
from fairdim.fairpca import DEFAULT_TOL, prepare, search
from fairdim.linalg import LinalgError
from fairdim.report import METHODS, fit_record, run_sweep

from conftest import centered, count_solves, load_report


# the one stderr line of a fit or sweep of the ``s1_csv`` table
FIT_LOG = r"fit dataset=s1 method=(pca|ufpca|cfpca) r=([0-9]+) runtime_ms=([0-9]+)\n"
SWEEP_LOG = r"sweep dataset=s1 max_rank=([0-9]+) runtime_ms=([0-9]+)\n"


def run_cli(*argv):
    return cli.main(list(argv))


def fairdim_on_stdin(text, *argv):
    """Run the CLI in a fresh interpreter with ``--input /dev/stdin`` and
    ``text`` piped to it."""
    src = Path(__file__).resolve().parents[1] / "src"
    return subprocess.run(
        [sys.executable, "-m", "fairdim.cli", *argv, "--input", "/dev/stdin"],
        input=text,
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        encoding="utf-8",
        timeout=120,
    )


@pytest.fixture()
def s1_csv(tmp_path):
    path = tmp_path / "s1.csv"
    assert run_cli("gen", "--out", str(path)) == 0
    return path


class TestGen:
    def test_deterministic_bytes(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert run_cli("gen", "--out", str(a)) == 0
        assert run_cli("gen", "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_content(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        run_cli("gen", "--out", str(a))
        run_cli("gen", "--out", str(b), "--seed", "7")
        assert a.read_bytes() != b.read_bytes()

    def test_negative_seed_refused_at_parse(self, tmp_path, capsys):
        out = tmp_path / "neg.csv"
        assert run_cli("gen", "--out", str(out), "--seed", "-1") == 1
        assert capsys.readouterr().err == (
            "fairdim: error: argument --seed: not a non-negative int: '-1'\n"
        )
        assert not out.exists()
        assert run_cli("gen", "--out", str(out), "--seed", "0") == 0
        assert out.stat().st_size > 0

    @pytest.mark.parametrize("out, message", [
        pytest.param("missing/s1.csv", "output {tmp}/missing/s1.csv: no directory {tmp}/missing",
                     id="missing-dir"),
        pytest.param("somedir", "output {tmp}/somedir is a directory", id="is-dir"),
    ])
    def test_unwritable_out_refused(self, out, message, tmp_path, capsys):
        # the refusal `fit` and `sweep` give: exit 1, one line, nothing written
        (tmp_path / "somedir").mkdir()
        before = sorted(tmp_path.rglob("*"))
        assert run_cli("gen", "--out", str(tmp_path / out)) == 1
        assert capsys.readouterr().err == f"fairdim: error: {message.format(tmp=tmp_path)}\n"
        assert sorted(tmp_path.rglob("*")) == before

    def test_group_sizes(self, s1_csv):
        table = load_table(s1_csv, "group")
        assert (table.label_a, table.label_b) == ("a", "b")
        assert np.count_nonzero(table.in_a) == 600
        assert np.count_nonzero(~table.in_a) == 300


class TestFit:
    def test_pca_record(self, s1_csv, capsys):
        assert run_cli(
            "fit", "--input", str(s1_csv), "--sensitive-col", "group",
            "--method", "pca", "--rank", "2",
        ) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["method"] == "pca"
        assert record["alpha"] == 1.0
        assert record["rank"] == 2
        assert len(record["projection"]) == 2

    def test_cfpca_record_respects_budget(self, s1_csv, capsys):
        assert run_cli(
            "fit", "--input", str(s1_csv), "--sensitive-col", "group",
            "--method", "cfpca", "--rank", "1",
        ) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["budget"] is not None
        assert record["err_a"] <= record["budget"] + 1e-9
        assert record["err_b"] <= record["budget"] + 1e-9

    def test_ufpca_beats_pca_fairness(self, s1_csv, capsys):
        run_cli("fit", "--input", str(s1_csv), "--sensitive-col", "group",
                "--method", "pca", "--rank", "1")
        pca = json.loads(capsys.readouterr().out)
        run_cli("fit", "--input", str(s1_csv), "--sensitive-col", "group",
                "--method", "ufpca", "--rank", "1")
        ufpca = json.loads(capsys.readouterr().out)
        assert ufpca["fairness"] <= pca["fairness"]

    def test_output_file(self, s1_csv, tmp_path, capsys):
        out = tmp_path / "fit.json"
        for method in METHODS:
            assert run_cli(
                "fit", "--input", str(s1_csv), "--sensitive-col", "group",
                "--method", method, "--rank", "1", "--output", str(out),
            ) == 0
            assert capsys.readouterr().out == ""
            assert json.loads(out.read_text(encoding="utf-8"))["method"] == method

    def test_timing_goes_to_stderr_only(self, s1_csv, capsys):
        run_cli("fit", "--input", str(s1_csv), "--sensitive-col", "group",
                "--method", "pca", "--rank", "1")
        captured = capsys.readouterr()
        assert "runtime_ms" in captured.err
        assert "runtime_ms" not in captured.out

    def test_fit_one_refuses_unknown_method(self, s1_grouped):
        with pytest.raises(ValueError, match="unknown method"):
            report.fit_one(search(prepare(s1_grouped), 1), "lda")

    def test_balanced_fit_matches_library(self, toy_csv, tmp_path):
        # the file `fit --output` writes is the library's record, byte for
        # byte, for every method with and without --balanced
        rng = np.random.default_rng(22)
        path = toy_csv(rng.standard_normal((9, 3)), ["a"] * 6 + ["b"] * 3)
        out = tmp_path / "fit.json"
        for method in METHODS:
            for balanced in (False, True):
                assert run_cli(
                    "fit", "--input", str(path), "--sensitive-col", "group",
                    "--method", method, "--rank", "2", "--tol", "1e-4",
                    "--output", str(out), *(("--balanced",) if balanced else ()),
                ) == 0
                s = search(prepare(load_grouped(path, "group", balanced)), 2, 1e-4)
                expected = {"pca": s.pca, "ufpca": s.ufpca(), "cfpca": s.cfpca()}[method]
                record = json.dumps(fit_record(expected), separators=(",", ":"))
                assert out.read_text(encoding="utf-8") == record + "\n"


class TestSweep:
    def test_full_rank_zero_error(self, s1_csv, capsys):
        assert run_cli(
            "sweep", "--input", str(s1_csv), "--sensitive-col", "group",
            "--max-rank", "2",
        ) == 0
        rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert len(rows) == 6
        for rec in rows:
            if rec["r"] == 2:
                assert rec["overall_err"] == pytest.approx(0.0, abs=1e-12)

    def test_pca_has_lowest_overall_error(self, s1_csv, capsys):
        run_cli("sweep", "--input", str(s1_csv), "--sensitive-col", "group",
                "--max-rank", "2")
        rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        by_rank = {}
        for rec in rows:
            by_rank.setdefault(rec["r"], {})[rec["method"]] = rec["overall_err"]
        for errs in by_rank.values():
            assert errs["pca"] <= errs["ufpca"] + 1e-9
            assert errs["pca"] <= errs["cfpca"] + 1e-9

    def test_report_files_and_self_consistency(self, s1_csv, tmp_path):
        out = tmp_path / "report.jsonl"
        assert run_cli(
            "sweep", "--input", str(s1_csv), "--sensitive-col", "group",
            "--max-rank", "2", "--output", str(out),
        ) == 0
        csv_path = tmp_path / "report.csv"
        assert out.exists() and csv_path.exists()
        records = load_report(out)
        assert all(row["dataset_id"] == "s1" for row in records)
        seen = set()
        per_method = {}
        for row in records:
            assert (row["r"], row["method"]) not in seen
            seen.add((row["r"], row["method"]))
            per_method.setdefault(row["method"], []).append(row["r"])
            assert row["fairness"] == pytest.approx(row["disparity"]**2, rel=1e-12, abs=1e-300)
        for ranks in per_method.values():
            assert ranks == sorted(ranks)
            assert len(set(ranks)) == len(ranks)

    def test_report_reads_back_equal(self, s1_csv, tmp_path):
        # a report holds nothing that its JSONL file leaves out
        out = tmp_path / "report.jsonl"
        assert run_cli("sweep", "--input", str(s1_csv), "--sensitive-col", "group",
                       "--max-rank", "2", "--output", str(out)) == 0
        expected = run_sweep(prepare(load_grouped(s1_csv, "group")), 2, DEFAULT_TOL, "s1", False)
        assert load_report(out) == expected

    def test_dotted_output_name_keeps_its_dots(self, s1_csv, tmp_path):
        out = tmp_path / "report.v2.jsonl"
        assert run_cli(
            "sweep", "--input", str(s1_csv), "--sensitive-col", "group",
            "--max-rank", "1", "--output", str(out),
        ) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "report.v2.csv", "report.v2.jsonl", "s1.csv",
        ]
        assert all(row["dataset_id"] == "s1" for row in load_report(out))

    def test_directory_output_names_the_files_beside_it(self, s1_csv, tmp_path):
        (tmp_path / "results").mkdir()
        assert run_cli(
            "sweep", "--input", str(s1_csv), "--sensitive-col", "group",
            "--max-rank", "1", "--output", str(tmp_path / "results"),
        ) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "results", "results.csv", "results.jsonl", "s1.csv",
        ]
        assert not any((tmp_path / "results").iterdir())

    def test_csv_report_quotes_dataset_id(self, toy_csv, tmp_path):
        rng = np.random.default_rng(23)
        path = toy_csv(rng.standard_normal((9, 2)), ["a"] * 6 + ["b"] * 3,
                       name='tc,re"d.csv')
        out = tmp_path / "report.jsonl"
        assert run_cli(
            "sweep", "--input", str(path), "--sensitive-col", "group",
            "--max-rank", "1", "--output", str(out),
        ) == 0
        with (tmp_path / "report.csv").open(newline="", encoding="utf-8") as fh:
            header, *rows = list(csv.reader(fh))
        assert header[:2] == ["dataset_id", "balanced"] and len(header) == 10
        assert len(rows) == 3
        for row in rows:
            assert len(row) == 10
            assert row[0] == 'tc,re"d'

    def test_balanced_sweep_uses_truncated_groups(self, toy_csv, capsys):
        rng = np.random.default_rng(20)
        feats = rng.standard_normal((8, 3))
        labels = ["a"] * 5 + ["b"] * 3
        path = toy_csv(feats, labels)
        assert run_cli(
            "sweep", "--input", str(path), "--sensitive-col", "group",
            "--max-rank", "2", "--balanced",
        ) == 0
        rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        # reference: library pipeline on the balanced 3+3 table
        g = balance(load_table(path, "group"))
        assert np.count_nonzero(g.in_a) == np.count_nonzero(~g.in_a) == 3
        expected = run_sweep(prepare(g), 2, 1e-6, "toy", True)
        for rec, row in zip(rows, expected):
            assert rec["balanced"] is True
            assert rec["overall_err"] == row["overall_err"]
            assert rec["fairness"] == row["fairness"]


    def test_library_sweep_checks_max_rank(self, s1_grouped, monkeypatch):
        # the rank is refused before any fit is made
        calls = count_solves(monkeypatch)
        d = s1_grouped.features.shape[1]
        for max_rank in (0, d + 1):
            with pytest.raises(ValueError) as exc:
                run_sweep(prepare(s1_grouped), max_rank, 1e-6, "s1", False)
            assert type(exc.value) is ValueError
            assert str(exc.value) == f"rank {max_rank} is outside 1..{d}, the feature count"
        assert len(calls) == 2  # prepare's, once per call


SWEEP = ("sweep", "--sensitive-col", "group", "--max-rank", "2")
FIT_BALANCED = ("fit", "--sensitive-col", "group", "--method", "cfpca", "--rank", "1",
                "--balanced")
EACH_COMMAND = pytest.mark.parametrize("argv", [
    pytest.param(SWEEP, id="sweep"),
    pytest.param(FIT_BALANCED, id="fit-balanced"),
])


class TestDeterminism:
    """What a run writes depends on the table alone: a second run writes
    the same bytes, and so does the same table with quoted labels."""

    @staticmethod
    def written(argv, table, out_dir):
        """Run ``argv`` on ``table`` with its output in ``out_dir``, and
        return the bytes of every file the run wrote."""
        out = out_dir / ("report.jsonl" if argv[0] == "sweep" else "fit.json")
        assert run_cli(argv[0], "--input", str(table), *argv[1:], "--output", str(out)) == 0
        paths = (out, out.with_suffix(".csv")) if argv[0] == "sweep" else (out,)
        return [path.read_bytes() for path in paths]

    def assert_repeatable(self, argv, table, tmp_path):
        one, two = tmp_path / "one", tmp_path / "two"
        one.mkdir()
        two.mkdir()
        assert self.written(argv, table, one) == self.written(argv, table, two)

    def test_repeated_sweep_byte_identical(self, s1_csv, tmp_path):
        self.assert_repeatable(SWEEP, s1_csv, tmp_path)

    @pytest.mark.parametrize("argv", [
        pytest.param((*SWEEP, "--balanced"), id="sweep-balanced"),
        pytest.param((*SWEEP, "--tol", "1e-2"), id="sweep-tol"),
        pytest.param(FIT_BALANCED, id="fit-balanced"),
    ])
    def test_repeated_run_byte_identical(self, argv, s1_csv, tmp_path):
        self.assert_repeatable(argv, s1_csv, tmp_path)

    @EACH_COMMAND
    def test_stdout_is_the_jsonl_file(self, argv, s1_csv, tmp_path, capsys):
        # one write step: without --output, the JSONL file's bytes go to stdout
        assert run_cli(argv[0], "--input", str(s1_csv), *argv[1:]) == 0
        printed = capsys.readouterr().out.encode("utf-8")
        assert printed == self.written(argv, s1_csv, tmp_path)[0]

    @EACH_COMMAND
    def test_quoted_labels_byte_identical(self, argv, s1_csv, tmp_path):
        # quotes send the table through the per-cell reader; the copy keeps
        # the stem s1, so the reports name the same dataset
        quoted = tmp_path / "q" / "s1.csv"
        quoted.parent.mkdir()
        text = re.sub(r",([ab])$", r',"\1"', s1_csv.read_text(encoding="utf-8"), flags=re.M)
        assert text.count(',"a"\n') == 600 and text.count(',"b"\n') == 300
        quoted.write_text(text, encoding="utf-8")
        plain = tmp_path / "plain"
        plain.mkdir()
        assert self.written(argv, quoted, quoted.parent) == self.written(argv, s1_csv, plain)


class TestOutputOverInput:
    """An output path that is --input (by name, symlink or hard link) is
    refused with exit 1 before anything is written."""

    @pytest.fixture(params=["same", "symlink", "hardlink"])
    def input_alias(self, request, s1_csv):
        if request.param == "same":
            return s1_csv
        alias = s1_csv.with_name("alias.csv")
        if request.param == "symlink":
            alias.symlink_to(s1_csv)
        else:
            alias.hardlink_to(s1_csv)
        return alias

    def test_sweep_csv_over_input(self, input_alias, s1_csv, capsys):
        before = s1_csv.read_bytes()
        assert run_cli(
            "sweep", "--input", str(input_alias), "--sensitive-col", "group",
            "--max-rank", "1", "--output", str(s1_csv.with_name("s1.jsonl")),
        ) == 1
        assert "would overwrite --input" in capsys.readouterr().err
        assert s1_csv.read_bytes() == before
        assert not s1_csv.with_name("s1.jsonl").exists()

    def test_sweep_jsonl_over_input(self, tmp_path, s1_csv, capsys):
        table = tmp_path / "t.jsonl"
        table.write_bytes(s1_csv.read_bytes())
        assert run_cli(
            "sweep", "--input", str(table), "--sensitive-col", "group",
            "--max-rank", "1", "--output", str(table),
        ) == 1
        assert "would overwrite --input" in capsys.readouterr().err
        assert table.read_bytes() == s1_csv.read_bytes()
        assert not (tmp_path / "t.csv").exists()

    def test_fit_output_over_input(self, input_alias, s1_csv, capsys):
        before = s1_csv.read_bytes()
        assert run_cli(
            "fit", "--input", str(input_alias), "--sensitive-col", "group",
            "--method", "pca", "--rank", "1", "--output", str(s1_csv),
        ) == 1
        assert "would overwrite --input" in capsys.readouterr().err
        assert s1_csv.read_bytes() == before


@pytest.mark.parametrize("command", ["fit", "sweep"])
@pytest.mark.parametrize("output, message", [
    pytest.param("missing/out.jsonl", "output {tmp}/missing/out.jsonl: no directory {tmp}/missing",
                 id="missing-dir"),
    pytest.param("out.jsonl", "output {tmp}/out.jsonl is a directory", id="is-dir"),
])
def test_unwritable_output_refused_before_the_fit(command, output, message, s1_csv, tmp_path,
                                                  capsys):
    # exit 1 after the load, before any fit: no timing line, nothing written
    (tmp_path / "out.jsonl").mkdir()
    before = sorted(tmp_path.rglob("*"))
    argv = [command, "--input", str(s1_csv), "--sensitive-col", "group",
            "--output", str(tmp_path / output)]
    argv += ["--method", "cfpca", "--rank", "1"] if command == "fit" else ["--max-rank", "1"]
    assert run_cli(*argv) == 1
    assert capsys.readouterr().err == f"fairdim: error: {message.format(tmp=tmp_path)}\n"
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("output", ["", ".", "..", "/", "{tmp}/sub/.."])
def test_sweep_output_naming_no_file_refused(output, s1_csv, tmp_path, monkeypatch, capsys):
    # a sweep names its two files after --output's last component; ".",
    # "/" and ".." have none, so like fit it refuses them as directories,
    # after the load: exit 1, no timing line, nothing written
    (tmp_path / "sub").mkdir()
    monkeypatch.chdir(tmp_path / "sub")
    before = sorted(tmp_path.rglob("*"))
    output = output.format(tmp=tmp_path)
    argv = ["sweep", "--sensitive-col", "group", "--max-rank", "1", "--output", output]
    missing = tmp_path / "missing.csv"
    assert run_cli(*argv, "--input", str(missing)) == 2
    assert capsys.readouterr().err.startswith(f"fairdim: data error: cannot open {missing}: ")
    assert run_cli(*argv, "--input", str(s1_csv)) == 1
    assert capsys.readouterr() == ("", f"fairdim: error: output {output or '.'} is a directory\n")
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
def test_sweep_output_that_is_no_file_refused(s1_csv, tmp_path, capsys):
    # a sweep writes <name>.jsonl and <name>.csv beside --output, so a
    # device, FIFO or socket there would become regular files next to it:
    # exit 1 after the load, before any fit, nothing written
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    before = sorted(tmp_path.rglob("*"))
    argv = ["sweep", "--sensitive-col", "group", "--max-rank", "1", "--output", str(fifo)]
    missing = tmp_path / "missing.csv"
    assert run_cli(*argv, "--input", str(missing)) == 2
    assert capsys.readouterr().err.startswith(f"fairdim: data error: cannot open {missing}: ")
    assert run_cli(*argv, "--input", str(s1_csv)) == 1
    assert capsys.readouterr() == (
        "", f"fairdim: error: output {fifo} is neither a regular file nor a directory\n"
    )
    assert sorted(tmp_path.rglob("*")) == before


def test_every_raise_maps_to_an_exit_code():
    # main maps ValueError to exit 1, DataError to 2 and LinalgError to 3;
    # the package catches csv.Error itself (in _load_cells), and argparse
    # turns ArgumentTypeError into a parser error. Any other class, or a
    # bare re-raise, would escape main as a traceback
    allowed = {"ValueError", "DataError", "LinalgError", "csv.Error",
               "argparse.ArgumentTypeError"}
    package = Path(__file__).resolve().parents[1] / "src" / "fairdim"
    raised = set()
    for path in sorted(package.glob("*.py")):
        with path.open(encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise):
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add((path.name, "raise" if exc is None else ast.unparse(exc)))
    assert {("cli.py", "ValueError"), ("dataset.py", "DataError"),
            ("linalg.py", "LinalgError")} <= raised
    assert sorted(site for site in raised if site[1] not in allowed) == []


class TestReportContract:
    """The file layouts are derived from ``GroupMetrics``; these literals
    make a reordering of its fields fail here instead of changing bytes."""

    SWEEP_KEYS = ("dataset_id", "balanced", "r", "method", "alpha",
                  "overall_err", "err_a", "err_b", "disparity", "fairness")
    FIT_KEYS = ("method", "rank", "alpha", "overall_err", "err_a", "err_b",
                "disparity", "fairness", "iterations", "budget", "projection",
                "privileged", "harmed")

    def test_sweep_keys_and_csv_header(self, s1_csv, tmp_path):
        out = tmp_path / "report.jsonl"
        assert run_cli("sweep", "--input", str(s1_csv), "--sensitive-col", "group",
                       "--max-rank", "2", "--output", str(out)) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 6
        records = [json.loads(line) for line in lines]
        for rec in records:
            assert tuple(rec) == self.SWEEP_KEYS
        with (tmp_path / "report.csv").open(newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
        assert tuple(reader.fieldnames) == self.SWEEP_KEYS
        # the figure series are read from the CSV: each of their cells is
        # the text of the JSONL record's value, in (rank, method) order
        assert [(row["r"], row["method"]) for row in rows] == [
            (str(r), method) for r in (1, 2) for method in METHODS
        ]
        figure = ("r", "method", "overall_err", "err_a", "err_b", "fairness")
        assert [[row[k] for k in figure] for row in rows] == [
            [str(rec[k]) for k in figure] for rec in records
        ]

    def test_fit_record_keys(self, s1_csv, capsys):
        assert run_cli("fit", "--input", str(s1_csv), "--sensitive-col", "group",
                       "--method", "cfpca", "--rank", "1") == 0
        assert tuple(json.loads(capsys.readouterr().out)) == self.FIT_KEYS


class TestExitCodes:
    def test_bad_flags(self, s1_csv):
        assert run_cli("fit", "--input", str(s1_csv), "--sensitive-col", "group",
                       "--method", "nope", "--rank", "1") == 1
        assert run_cli("fit", "--input", str(s1_csv)) == 1
        assert run_cli("sweep", "--input", str(s1_csv), "--sensitive-col", "group",
                       "--max-rank", "0") == 1

    def test_rank_exceeding_width(self, s1_csv, capsys):
        # search refuses it after the moments, before any fit: one line,
        # no timing line, nothing on stdout
        for argv in (("fit", "--method", "pca", "--rank", "5"), ("sweep", "--max-rank", "5")):
            assert run_cli(*argv, "--input", str(s1_csv), "--sensitive-col", "group") == 1
            assert capsys.readouterr() == (
                "", "fairdim: error: rank 5 is outside 1..2, the feature count\n"
            )

    def test_data_errors(self, tmp_path, s1_csv):
        missing = tmp_path / "missing.csv"
        assert run_cli("fit", "--input", str(missing), "--sensitive-col", "group",
                       "--method", "pca", "--rank", "1") == 2
        assert run_cli("fit", "--input", str(s1_csv), "--sensitive-col", "nope",
                       "--method", "pca", "--rank", "1") == 2
        bad = tmp_path / "bad.csv"
        bad.write_text("group,x\na,1\nb,zzz\n", encoding="utf-8")
        assert run_cli("fit", "--input", str(bad), "--sensitive-col", "group",
                       "--method", "pca", "--rank", "1") == 2

    @pytest.mark.parametrize("command", ["fit", "sweep"])
    def test_missing_input_over_an_existing_output(self, command, tmp_path, capsys):
        # the loader names the missing file, whether or not --output exists
        missing = tmp_path / "nope.csv"
        out = tmp_path / "out.jsonl"
        out.write_text("kept\n", encoding="utf-8")
        argv = [command, "--input", str(missing), "--sensitive-col", "group"]
        argv += ["--method", "pca", "--rank", "1"] if command == "fit" else ["--max-rank", "1"]
        errs = []
        for extra in ([], ["--output", str(out)]):
            assert run_cli(*argv, *extra) == 2
            errs.append(capsys.readouterr().err)
        assert errs[0] == errs[1]
        assert errs[0].startswith(f"fairdim: data error: cannot open {missing}: [Errno 2]")
        assert errs[0].count("\n") == 1
        assert out.read_text(encoding="utf-8") == "kept\n"
        assert sorted(tmp_path.iterdir()) == [out]

    def test_undecodable_input(self, tmp_path, capsys):
        # the second file's bad byte follows a bad cell, past the decoder's
        # first 8 KB chunk: it is still refused first, at its offset in the file
        for body, offset in ((b"a,1\nb\xe9,2\n", 13),
                             (b"a,1\n" * 3000 + b"b,zz\nb\xe9,2\n", 12014)):
            bad = tmp_path / "latin1.csv"
            bad.write_bytes(b"group,x\n" + body)
            assert run_cli("fit", "--input", str(bad), "--sensitive-col", "group",
                           "--method", "pca", "--rank", "1") == 2
            err = capsys.readouterr().err
            assert err.startswith(f"fairdim: data error: {bad}: not UTF-8 text: ")
            assert f"in position {offset}:" in err

    @pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin")
    @pytest.mark.parametrize("form", ["quoted", "crlf"])
    def test_piped_input_loads_like_the_file(self, form, s1_csv, tmp_path, capsys):
        text = s1_csv.read_text(encoding="utf-8")
        if form == "quoted":
            text = re.sub(r",([ab])$", r',"\1"', text, flags=re.M)
        else:
            text = text.replace("\n", "\r\n")
        path = tmp_path / f"{form}.csv"
        path.write_text(text, encoding="utf-8", newline="")
        argv = ["fit", "--sensitive-col", "group", "--method", "cfpca", "--rank", "2"]
        assert run_cli(*argv, "--input", str(path)) == 0
        proc = fairdim_on_stdin(text, *argv)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == capsys.readouterr().out

    @pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin")
    def test_piped_bad_cell_is_named(self):
        proc = fairdim_on_stdin("group,x\na,1\nb,zz\n", "fit", "--sensitive-col",
                                "group", "--method", "pca", "--rank", "1")
        assert proc.returncode == 2
        assert proc.stderr == (
            "fairdim: data error: /dev/stdin:3: non-numeric cell 'zz' in column 'x'\n"
        )

    def test_field_over_csv_limit(self, tmp_path, capsys):
        bad = tmp_path / "long.csv"
        bad.write_text("group,x\na," + " " * csv.field_size_limit() + "1\nb,2\n",
                       encoding="utf-8")
        assert run_cli("fit", "--input", str(bad), "--sensitive-col", "group",
                       "--method", "pca", "--rank", "1") == 2
        assert "long.csv:2: field larger than field limit" in capsys.readouterr().err

    def test_overflowing_features(self, toy_csv, capsys):
        # squares of 1e200 overflow float64: one error line, no numpy warnings
        rng = np.random.default_rng(6)
        path = toy_csv(1e200 * rng.standard_normal((5, 2)), list("aabbb"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("fit", "--input", str(path), "--sensitive-col", "group",
                           "--method", "cfpca", "--rank", "1") == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("fairdim: numeric error: second moments or their squares")
        assert "overflow float64" in err

    def test_centering_overflow(self, tmp_path, capsys):
        # the column sum of 1.7e308s overflows, and the moment check refuses
        # it like any other overflow: one error line, no numpy warnings
        path = tmp_path / "over.csv"
        path.write_text(
            "x1,x2,group\n1.7e308,1,a\n1.7e308,2,a\n1e308,3,b\n1.5e308,4,b\n",
            encoding="utf-8",
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("fit", "--input", str(path), "--sensitive-col", "group",
                           "--method", "pca", "--rank", "1") == 3
        assert capsys.readouterr().err == (
            "fairdim: numeric error: second moments or their squares overflow float64 "
            "(or the features hold NaN/Inf); rescale the features\n"
        )

    @pytest.mark.parametrize("error, code, prefix", [
        pytest.param(error, code, prefix, id=error.__name__)
        for error, code, prefix in [
            (ValueError, 1, "fairdim: error:"),
            (DataError, 2, "fairdim: data error:"),
            (OSError, 2, "fairdim: data error:"),
            (LinalgError, 3, "fairdim: numeric error:"),
        ]
    ])
    def test_numeric_failure(self, error, code, prefix, s1_csv, monkeypatch, capsys):
        # the exception class alone sets the exit code
        def boom(*args, **kwargs):
            raise error("synthetic failure")

        monkeypatch.setattr(fairpca, "_plain", boom)
        assert run_cli("fit", "--input", str(s1_csv), "--sensitive-col", "group",
                       "--method", "pca", "--rank", "1") == code
        assert capsys.readouterr().err == f"{prefix} synthetic failure\n"

    def test_eigensolver_failure(self, s1_csv, monkeypatch, capsys):
        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", no_convergence)
        assert run_cli("fit", "--input", str(s1_csv), "--sensitive-col", "group",
                       "--method", "ufpca", "--rank", "1") == 3
        assert "eigendecomposition failed" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, log", [
        (("fit", "--method", "pca", "--rank", "1"), FIT_LOG),
        (("sweep", "--max-rank", "2"), SWEEP_LOG),
    ], ids=["fit", "sweep"])
    def test_closed_stdout_exits_141(self, argv, log, s1_csv):
        # the pipe's read end is closed before the child starts, so its
        # write fails whatever the size: 128 + SIGPIPE, and no message, not
        # even the interpreter's own at its final flush. stdout is
        # block-buffered, as on any pipe by default, so a record this small
        # reaches the pipe only when main flushes it
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "fairdim.cli", *argv, "--input", str(s1_csv),
                 "--sensitive-col", "group"],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env={**env, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
                text=True,
                encoding="utf-8",
                timeout=120,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 141
        assert re.fullmatch(log, proc.stderr)

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="counts the entries of /dev/fd")
    def test_closed_stdout_leaves_no_descriptor_open(self, s1_csv, monkeypatch):
        # main points stdout's descriptor at os.devnull through a descriptor
        # of its own, which it must close again: in a process that goes on
        # running, an open one would leak
        read_end, write_end = os.pipe()
        os.close(read_end)
        with open(write_end, "w", encoding="utf-8") as stdout:
            with monkeypatch.context() as patch:
                patch.setattr(sys, "stdout", stdout)
                before = len(os.listdir("/dev/fd"))
                assert run_cli("fit", "--input", str(s1_csv), "--sensitive-col", "group",
                               "--method", "pca", "--rank", "1") == 141
                assert len(os.listdir("/dev/fd")) == before

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="/dev/full is Linux's")
    def test_full_output_disk_is_a_data_error(self, s1_csv, capsys):
        assert run_cli("fit", "--input", str(s1_csv), "--sensitive-col", "group",
                       "--method", "pca", "--rank", "1", "--output", "/dev/full") == 2
        err = capsys.readouterr().err
        assert re.match(FIT_LOG, err)
        assert err.endswith("\nfairdim: data error: [Errno 28] No space left on device\n")


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
def test_console_script_returns_the_exit_code(s1_csv, monkeypatch, capsys):
    # the installed `fairdim` script is `sys.exit(<target>())`: its target
    # reads sys.argv and must return the exit code, not exit itself
    import tomllib

    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["fairdim"]
    module, _, name = target.partition(":")
    entry = getattr(importlib.import_module(module), name)
    monkeypatch.setattr(sys, "argv", ["fairdim", "fit", "--input", str(s1_csv),
                                      "--sensitive-col", "missing", "--method", "pca",
                                      "--rank", "1"])
    try:
        code = entry()
    except SystemExit as exc:
        pytest.fail(f"{target} exited with {exc.code} instead of returning it")
    assert code == 2
    assert capsys.readouterr().err.startswith("fairdim: data error: ")


class TestNotPositive:
    """A --rank, --max-rank or --tol that is not a positive number is
    refused with one line, before the input is read."""

    @pytest.mark.parametrize("command, rank_flag", [("fit", "--rank"), ("sweep", "--max-rank")])
    @pytest.mark.parametrize("bad", ["rank=0", "rank=-1", "rank=x", "rank=1.5",
                                     "tol=0", "tol=-1e-3", "tol=nan", "tol=x"])
    def test_refused_before_load(self, command, rank_flag, bad, tmp_path, capsys):
        which, value = bad.split("=")
        flag, kind = ("--tol", "float") if which == "tol" else (rank_flag, "int")
        argv = [command, "--input", str(tmp_path / "missing.csv"), "--sensitive-col",
                "group", "--output", str(tmp_path / "out.jsonl")]
        if command == "fit":
            argv += ["--method", "pca"]
        if which == "tol":
            argv.append(f"{rank_flag}=1")
        argv.append(f"{flag}={value}")
        assert run_cli(*argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert re.fullmatch(
            r"fairdim: error: argument --(rank|max-rank|tol): not a positive (int|float): '.*'\n",
            err,
        )
        assert err == f"fairdim: error: argument {flag}: not a positive {kind}: '{value}'\n"
        assert list(tmp_path.iterdir()) == []


def test_help_describes_the_program(capsys):
    # the description is the first line of cli's module docstring; argparse
    # may wrap it at the terminal width, so compare with whitespace collapsed
    with pytest.raises(SystemExit) as exit_info:
        run_cli("--help")
    assert exit_info.value.code == 0
    paragraphs = [" ".join(p.split()) for p in capsys.readouterr().out.split("\n\n")]
    assert paragraphs[1] == (
        "Command-line front end: generate synthetic data, fit one method, sweep ranks."
    )


@pytest.mark.parametrize("command", ["fit", "sweep"])
def test_help_lists_the_shared_flags(command, capsys):
    with pytest.raises(SystemExit) as exit_info:
        run_cli(command, "--help")
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    for flag in ("--input", "--sensitive-col", "--tol", "--balanced", "--output"):
        assert re.search(f"^  {flag}( |$)", out, re.M), flag


class TestSharedWork:
    @pytest.fixture()
    def wide_csv(self, toy_csv):
        rng = np.random.default_rng(31)
        feats = np.vstack([
            rng.standard_normal((40, 5)) * np.linspace(1.0, 3.0, 5),
            rng.standard_normal((20, 5)) * np.linspace(3.0, 1.0, 5),
        ])
        return toy_csv(feats, ["a"] * 40 + ["b"] * 20, name="wide.csv")

    def test_fit_runs_plain_pca_once(self, wide_csv, monkeypatch, capsys):
        import fairdim.fairpca as fairpca_module
        from conftest import avg_reconstruction_error_direct

        # every plain-PCA fit, alone or inside a search, goes through _plain
        calls = []
        real = fairpca_module._plain

        def counting(p, r):
            calls.append(r)
            return real(p, r)

        monkeypatch.setattr(fairpca_module, "_plain", counting)
        assert run_cli("fit", "--input", str(wide_csv), "--sensitive-col", "group",
                       "--method", "ufpca", "--rank", "2") == 0
        record = json.loads(capsys.readouterr().out)
        assert calls == [2]

        # roles are those of plain PCA at the same rank, by explicit residual
        g = load_grouped(wide_csv, "group")
        x = centered(g)
        u = np.linalg.eigh(x.T @ x)[1][:, ::-1][:, :2]
        err_a = avg_reconstruction_error_direct(x[g.in_a], u)
        err_b = avg_reconstruction_error_direct(x[~g.in_a], u)
        assert err_a != pytest.approx(err_b)
        expected = (g.label_a, g.label_b) if err_a < err_b else (g.label_b, g.label_a)
        assert (record["privileged"], record["harmed"]) == expected

    def test_sweep_runs_one_root_search_per_rank(self, wide_csv, monkeypatch, capsys):
        calls = count_solves(monkeypatch)
        assert run_cli("sweep", "--input", str(wide_csv), "--sensitive-col", "group",
                       "--max-rank", "4") == 0
        capsys.readouterr()
        solves = len(calls)

        # every rank has an interior root and a budget its root meets, so
        # cfpca adds no solve: one for prepare, then per rank alpha = 0,
        # one per halving and the secant point
        p = prepare(load_grouped(wide_csv, "group"))
        expected = 1
        for r in range(1, 5):
            uf, cf = search(p, r).ufpca(), search(p, r).cfpca()
            assert 0.0 < uf.alpha < 1.0
            assert (cf.alpha, cf.iterations) == (uf.alpha, uf.iterations)
            expected += uf.iterations + 2
        assert solves == expected

    def test_pca_fit_runs_no_search(self, wide_csv, monkeypatch, capsys):
        calls = count_solves(monkeypatch)
        assert run_cli("fit", "--input", str(wide_csv), "--sensitive-col", "group",
                       "--method", "pca", "--rank", "2") == 0
        capsys.readouterr()
        assert len(calls) == 1

    @pytest.fixture()
    def grams(self, monkeypatch):
        """The ``scaled_gram`` calls ``prepare`` makes: C, C_a and C_b."""
        calls = []
        real = fairpca.scaled_gram
        monkeypatch.setattr(fairpca, "scaled_gram", lambda *a: calls.append(1) or real(*a))
        return calls

    def test_sweep_grams_independent_of_rank(self, wide_csv, grams, capsys):
        for max_rank in ("1", "3"):
            grams.clear()
            assert run_cli("sweep", "--input", str(wide_csv), "--sensitive-col", "group",
                           "--max-rank", max_rank) == 0
            assert len(grams) == 3
        capsys.readouterr()

    def test_fit_computes_grams_once(self, wide_csv, grams, capsys):
        assert run_cli("fit", "--input", str(wide_csv), "--sensitive-col", "group",
                       "--method", "ufpca", "--rank", "2") == 0
        capsys.readouterr()
        assert len(grams) == 3


class TestTimingLog:
    """``fit`` and ``sweep`` each log one stderr line, timing everything
    between loading the table and writing the output."""

    def test_fit_logs_one_line(self, s1_csv, tmp_path, capsys):
        for method in METHODS:
            assert run_cli("fit", "--input", str(s1_csv), "--sensitive-col", "group",
                           "--method", method, "--rank", "1",
                           "--output", str(tmp_path / "fit.json")) == 0
            captured = capsys.readouterr()
            assert captured.out == ""
            assert re.fullmatch(FIT_LOG, captured.err).group(1, 2) == (method, "1")

    def test_sweep_logs_one_line(self, s1_csv, tmp_path, capsys):
        assert run_cli("sweep", "--input", str(s1_csv), "--sensitive-col", "group",
                       "--max-rank", "2", "--output", str(tmp_path / "report.jsonl")) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(SWEEP_LOG, captured.err).group(1) == "2"

    @pytest.fixture()
    def slow_eigh(self, monkeypatch):
        real = np.linalg.eigh

        def slow(*args, **kwargs):
            time.sleep(0.05)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", slow)

    def test_fit_time_covers_prepare_and_solves(self, s1_csv, slow_eigh, capsys):
        # a pca fit makes one solve, in prepare, before the cached plain fit;
        # the span lies inside the command's own wall time (round is monotone)
        start = time.perf_counter()
        assert run_cli("fit", "--input", str(s1_csv), "--sensitive-col", "group",
                       "--method", "pca", "--rank", "1") == 0
        wall_ms = round((time.perf_counter() - start) * 1000.0)
        runtime_ms = re.fullmatch(FIT_LOG, capsys.readouterr().err).group(3)
        assert 50 <= int(runtime_ms) <= wall_ms

    def test_sweep_time_covers_every_solve(self, s1_csv, slow_eigh, monkeypatch, capsys):
        calls = count_solves(monkeypatch)
        assert run_cli("sweep", "--input", str(s1_csv), "--sensitive-col", "group",
                       "--max-rank", "2") == 0
        runtime_ms = re.fullmatch(SWEEP_LOG, capsys.readouterr().err).group(2)
        assert len(calls) > 1
        assert int(runtime_ms) >= 50 * len(calls)


@pytest.mark.parametrize("method", ["pca", "ufpca", "cfpca"])
def test_fit_matches_sweep_cell(method, toy_csv, capsys):
    rng = np.random.default_rng(32)
    feats = np.vstack([
        rng.standard_normal((30, 4)) * np.linspace(1.0, 3.0, 4),
        rng.standard_normal((15, 4)) * np.linspace(3.0, 1.0, 4),
    ])
    path = toy_csv(feats, ["a"] * 30 + ["b"] * 15)
    assert run_cli("fit", "--input", str(path), "--sensitive-col", "group",
                   "--method", method, "--rank", "2") == 0
    fit = json.loads(capsys.readouterr().out)
    assert run_cli("sweep", "--input", str(path), "--sensitive-col", "group",
                   "--max-rank", "3") == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    (cell,) = [row for row in rows if row["r"] == 2 and row["method"] == method]
    for key in ("alpha", "overall_err", "err_a", "err_b", "disparity", "fairness"):
        assert fit[key] == cell[key], key


def _bench_setup_code() -> str:
    """``_SETUP_CODE`` from the benchmark's runner, read without importing it."""
    source = (Path(__file__).resolve().parents[1] / "perfbench" / "run.py").read_text(
        encoding="utf-8"
    )
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["_SETUP_CODE"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/run.py defines no _SETUP_CODE")


@pytest.mark.parametrize("groups, balanced", [("unbalanced", "1"), ("balanced", "0")])
def test_benchmark_setup_code_runs(groups, balanced, tmp_path):
    # every benchmark run times this code in a fresh interpreter, so a
    # renamed or re-signed fairdim.cli.load_grouped breaks all of them
    table = s1_table()
    if groups == "balanced":
        table = balance(table)
    path = tmp_path / f"{groups}.csv"
    write_table(table, path)
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", _bench_setup_code(), str(path), "group", balanced],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        encoding="utf-8",
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


# the module attributes the benchmark's tracer wraps by name, as each caller
# resolves them; the tracer skips a missing name without a word, which
# would zero that layer's metrics
TRACED = (
    (cli, ("load_grouped", "run_sweep", "write_report_jsonl", "write_report_csv", "fit_record")),
    (dataset, ("load_table", "balance")),
    (fairpca, ("scaled_gram", "sym_eig_top_r")),
)


@pytest.mark.parametrize("argv, path", [
    (("sweep", "--max-rank", "2", "--output", "sweep.jsonl"),
     {"load_grouped", "load_table", "scaled_gram", "sym_eig_top_r",
      "run_sweep", "write_report_jsonl", "write_report_csv"}),
    (("fit", "--method", "cfpca", "--rank", "1", "--balanced", "--output", "fit.json"),
     {"load_grouped", "load_table", "balance", "scaled_gram", "sym_eig_top_r",
      "fit_record", "write_report_jsonl"}),
])
def test_benchmark_traced_names_resolve(argv, path, s1_csv, monkeypatch):
    counts = Counter()

    def counted(name, real):
        def call(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        return call

    for module, names in TRACED:
        for name in names:
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    *head, out = argv
    assert run_cli(*head, str(s1_csv.with_name(out)),
                   "--input", str(s1_csv), "--sensitive-col", "group") == 0
    assert set(counts) == path
    assert counts["scaled_gram"] == 3  # C, C_a and C_b, once per command
    # prepare's one full decomposition, then the search's per-alpha solves
    assert counts["sym_eig_top_r"] > 1

import json

import numpy as np
import pytest

import fairdim.cli as cli
from checks import CheckError, Oracle, _residual_err, check_fit, check_identical, check_sweep
from gen import make_table, write_csv
from workloads import Workload

SWEEP = Workload("tiny-sweep", 300, 100, 6, "sweep", 3, None, False)
CFPCA_FIT = Workload("tiny-cfpca", 300, 60, 6, "fit", 2, "cfpca", True)


def _run_cli(tmp_path, w, seed=5):
    x, is_b = make_table(w, seed)
    csv = tmp_path / f"{w.name}.csv"
    write_csv(csv, x, is_b)
    out = tmp_path / ("report.jsonl" if w.command == "sweep" else "fit.json")
    assert cli.main(w.cli_args(str(csv), str(out))) == 0
    return Oracle(w, x, is_b), out


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    oracle, out = _run_cli(tmp_path_factory.mktemp("sweep"), SWEEP)
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    return oracle, rows


@pytest.fixture(scope="module")
def cfpca_fit(tmp_path_factory):
    oracle, out = _run_cli(tmp_path_factory.mktemp("fit"), CFPCA_FIT)
    return oracle, json.loads(out.read_text())


def _row(rows, r, method):
    return next(row for row in rows if row["r"] == r and row["method"] == method)


def test_sweep_output_passes(sweep):
    oracle, rows = sweep
    check_sweep(rows, oracle, SWEEP.rank)


def test_pca_overall_err_moved_by_one_millionth_fails(sweep):
    oracle, rows = sweep
    rows = [dict(row) for row in rows]
    _row(rows, 2, "pca")["overall_err"] *= 1.0 + 1e-6
    with pytest.raises(CheckError, match="trailing eigenvalues"):
        check_sweep(rows, oracle, SWEEP.rank)


def test_sweep_cfpca_over_budget_fails(sweep):
    oracle, rows = sweep
    rows = [dict(row) for row in rows]
    budget, _ = oracle.pca_roles(1)
    _row(rows, 1, "cfpca")["err_b"] = budget * (1.0 + 1e-6)
    with pytest.raises(CheckError, match="exceeds the pca harmed-group error"):
        check_sweep(rows, oracle, SWEEP.rank)


def test_pca_alpha_other_than_one_fails(sweep):
    oracle, rows = sweep
    rows = [dict(row) for row in rows]
    _row(rows, 3, "pca")["alpha"] = 0.999
    with pytest.raises(CheckError, match="pca alpha"):
        check_sweep(rows, oracle, SWEEP.rank)


def test_missing_sweep_cell_fails(sweep):
    oracle, rows = sweep
    with pytest.raises(CheckError, match="cells in order"):
        check_sweep(rows[:-1], oracle, SWEEP.rank)


def test_fit_output_passes(cfpca_fit):
    oracle, record = cfpca_fit
    check_fit(record, oracle, CFPCA_FIT)


def test_fit_cfpca_over_budget_fails(cfpca_fit):
    oracle, record = cfpca_fit
    # a consistent record for the trailing principal subspace: every error
    # matches its explicit residual, but both groups exceed the budget
    u = np.linalg.eigh(oracle.x.T @ oracle.x)[1][:, : CFPCA_FIT.rank]
    record = {
        **record,
        "projection": u.tolist(),
        "err_a": _residual_err(oracle.groups[record["privileged"]], u),
        "err_b": _residual_err(oracle.groups[record["harmed"]], u),
        "overall_err": _residual_err(oracle.x, u),
    }
    with pytest.raises(CheckError, match="exceeds the pca harmed-group error"):
        check_fit(record, oracle, CFPCA_FIT)


def test_fit_cfpca_less_fair_than_pca_fails(cfpca_fit):
    oracle, record = cfpca_fit
    _, pca_fairness = oracle.pca_roles(CFPCA_FIT.rank)
    # keep the recomputed errors intact; only the fairness claim is corrupted
    record = {**record, "fairness": pca_fairness * 1.01}
    with pytest.raises(CheckError, match="above pca fairness"):
        check_fit(record, oracle, CFPCA_FIT)


def test_fit_error_not_matching_residual_fails(cfpca_fit):
    oracle, record = cfpca_fit
    record = {**record, "overall_err": record["overall_err"] * (1.0 + 1e-6)}
    with pytest.raises(CheckError, match="explicit residual"):
        check_fit(record, oracle, CFPCA_FIT)


def test_fit_non_orthonormal_projection_fails(cfpca_fit):
    oracle, record = cfpca_fit
    u = np.array(record["projection"])
    u[:, 0] *= 1.0 + 1e-6
    record = {**record, "projection": u.tolist()}
    with pytest.raises(CheckError, match="not orthonormal"):
        check_fit(record, oracle, CFPCA_FIT)


def test_non_identical_repeated_report_fails(tmp_path):
    _, out = _run_cli(tmp_path, SWEEP)
    first = out.read_bytes()
    check_identical([first, first])
    changed = first.replace(b'"r":1', b'"r": 1', 1)
    with pytest.raises(CheckError, match="different report bytes"):
        check_identical([first, first, changed])

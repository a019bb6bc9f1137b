import fairdim.cli as cli
import fairdim.fairpca as fairpca
from fairdim.fairpca import SearchConfig
from gen import make_table, write_csv
from tracer import TARGETS, Tracer, aggregate, self_times
from workloads import SENSITIVE_COL, Workload

SWEEP = Workload("tiny-sweep", 200, 80, 5, "sweep", 2, None, False)
FIT = Workload("tiny-fit", 200, 30, 5, "fit", 2, "cfpca", True)


def _csv(tmp_path, w):
    path = tmp_path / f"{w.name}.csv"
    write_csv(path, *make_table(w, 11))
    return path


def _assert_nested(spans):
    by_id = {s.span_id: s for s in spans}
    roots = [s for s in spans if s.parent is None]
    assert [s.name for s in roots] == ["cli.main"]
    for s in spans:
        assert s.start <= s.end
        assert 0.0 <= s.overhead < 1e-2
        if s.parent is not None:
            parent = by_id[s.parent]
            assert parent.start <= s.start and s.end <= parent.end, (s.name, parent.name)
    own = self_times(spans)
    for s in spans:
        assert -1e-9 <= own[s.span_id] <= s.duration + 1e-9


def _traced(argv):
    tracer = Tracer()
    with tracer.installed(), tracer.span("cli.main"):
        assert cli.main(argv) == 0
    return tracer


def test_fit_spans_nest(tmp_path):
    csv = _csv(tmp_path, FIT)
    tracer = _traced(FIT.cli_args(str(csv), str(tmp_path / "fit.json")))
    _assert_nested(tracer.spans)
    agg = aggregate(tracer.spans)
    assert agg["dataset.balance"]["calls"] == 1
    assert agg["fairpca.classical_pca"]["calls"] == 2
    assert agg["fairpca.golden_section"]["iterations"] > 0


def test_threaded_sweep_spans_nest(tmp_path, monkeypatch):
    monkeypatch.setenv("FAIRDIM_THREADS", "2")
    csv = _csv(tmp_path, SWEEP)
    tracer = _traced(SWEEP.cli_args(str(csv), str(tmp_path / "report.jsonl")))
    _assert_nested(tracer.spans)
    names = {s.span_id: s.name for s in tracer.spans}
    cells = [s for s in tracer.spans if s.name in ("fairpca.u_fpca", "fairpca.c_fpca")]
    assert len(cells) == 2 * SWEEP.rank
    assert all(names[s.parent] == "report.run_sweep" for s in cells)


def test_pool_sweep_outside_cli_nests(tmp_path):
    g = cli.load_grouped(_csv(tmp_path, SWEEP), SENSITIVE_COL)
    tracer = Tracer()
    with tracer.installed(), tracer.span("cli.main"):
        cli.run_sweep(g, 2, SearchConfig(), dataset_id="x", balanced=False, threads=2)
    _assert_nested(tracer.spans)


def test_attributes_restored_after_tracing(tmp_path):
    originals = {(m, a): getattr(__import__(m, fromlist=[a]), a) for m, a, _ in TARGETS}
    csv = _csv(tmp_path, FIT)
    _traced(FIT.cli_args(str(csv), str(tmp_path / "fit.json")))
    for (module, attr), fn in originals.items():
        assert getattr(__import__(module, fromlist=[attr]), attr) is fn
    assert not hasattr(fairpca.sym_eig_top_r, "__wrapped__")


def test_missing_target_is_skipped(monkeypatch):
    monkeypatch.delattr(cli, "identify_privileged")
    tracer = Tracer()
    with tracer.installed():
        assert not hasattr(cli, "identify_privileged")
        assert hasattr(fairpca.sym_eig_top_r, "__wrapped__")
    assert not hasattr(fairpca.sym_eig_top_r, "__wrapped__")

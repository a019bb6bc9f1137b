import hashlib

import numpy as np

from gen import make_table, write_csv
from workloads import LABELS, SENSITIVE_COL, WORKLOADS, Workload

TINY = Workload("tiny", 60, 20, 5, "fit", 2, "ufpca", False)


def _digest(tmp_path, w, seed, name):
    path = tmp_path / name
    write_csv(path, *make_table(w, seed))
    return hashlib.sha256(path.read_bytes()).hexdigest(), path


def test_same_seed_same_bytes(tmp_path):
    first, _ = _digest(tmp_path, TINY, 7, "a.csv")
    second, _ = _digest(tmp_path, TINY, 7, "b.csv")
    assert first == second


def test_other_seed_other_bytes(tmp_path):
    first, _ = _digest(tmp_path, TINY, 7, "a.csv")
    second, _ = _digest(tmp_path, TINY, 8, "b.csv")
    assert first != second


def test_csv_round_trips_exactly(tmp_path):
    x, is_b = make_table(TINY, 3)
    _, path = _digest(tmp_path, TINY, 3, "a.csv")
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0].split(",")[-1] == SENSITIVE_COL
    body = [line.split(",") for line in lines[1:]]
    parsed = np.array([[float(v) for v in row[:-1]] for row in body])
    assert np.array_equal(parsed, x)
    assert [row[-1] for row in body] == [LABELS[b] for b in is_b.tolist()]


def test_group_sizes_and_interleaving():
    for w in WORKLOADS.values():
        x, is_b = make_table(w, 1)
        assert x.shape == (w.n, w.d)
        assert int(is_b.sum()) == w.n_b
        # shuffled: the smaller group does not sit in one block at the end
        assert is_b[: w.n_a].any()

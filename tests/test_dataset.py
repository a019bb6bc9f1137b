import numpy as np
import pytest

from fairdim.dataset import (
    DataError,
    balance,
    center_and_split,
    load_grouped,
    load_table,
    write_table,
)

from conftest import make_table


def write_csv(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadTable:
    def test_schema_case(self, tmp_path):
        path = write_csv(
            tmp_path / "t.csv",
            "h,x,y,z\nf,1,2,3\nm,4,5,6\nf,7,8,9\nm,0,1,2\n",
        )
        table = load_table(path, "h")
        assert table.features.shape == (4, 3)
        assert table.labels == ("f", "m", "f", "m")
        assert table.feature_names == ("x", "y", "z")
        assert table.group_labels() == ("f", "m")

    def test_sensitive_column_anywhere(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", "x,h,y\n1,a,2\n3,b,4\n")
        table = load_table(path, "h")
        assert np.array_equal(table.features, [[1.0, 2.0], [3.0, 4.0]])

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot open"):
            load_table(tmp_path / "nope.csv", "h")

    def test_missing_column(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", "x,y\n1,2\n")
        with pytest.raises(DataError, match="sensitive column"):
            load_table(path, "h")

    def test_non_numeric_cell(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", "h,x\na,1\nb,oops\n")
        with pytest.raises(DataError, match="non-numeric"):
            load_table(path, "h")

    def test_non_finite_cell(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", "h,x\na,1\nb,nan\n")
        with pytest.raises(DataError, match="non-finite"):
            load_table(path, "h")

    def test_ragged_row(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", "h,x,y\na,1,2\nb,3\n")
        with pytest.raises(DataError, match="expected 3 fields"):
            load_table(path, "h")

    def test_wrong_group_count(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", "h,x\na,1\nb,2\nc,3\n")
        with pytest.raises(DataError, match="3 distinct"):
            load_table(path, "h")
        path = write_csv(tmp_path / "u.csv", "h,x\na,1\na,2\n")
        with pytest.raises(DataError, match="1 distinct"):
            load_table(path, "h")

    def test_empty_file(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", "")
        with pytest.raises(DataError, match="empty file"):
            load_table(path, "h")

    def test_duplicated_sensitive_column(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", "group,x,group\na,1,a\nb,2,b\n")
        with pytest.raises(DataError, match="ambiguous header"):
            load_table(path, "group")

    def test_only_sensitive_column(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", "h\na\nb\n")
        with pytest.raises(DataError, match="no feature columns"):
            load_table(path, "h")

    def test_labels_verbatim(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", "h,x\n 1,1\n1.0,2\n")
        table = load_table(path, "h")
        assert table.labels == (" 1", "1.0")

    def test_round_trip(self, tmp_path):
        table = make_table([[1.5, -2.0], [0.25, 3.0]], ["a", "b"])
        path = tmp_path / "rt.csv"
        write_table(table, path)
        back = load_table(path, "group")
        assert np.array_equal(back.features, table.features)
        assert back.labels == table.labels


class TestBalance:
    def test_five_three(self):
        table = make_table(np.arange(16.0).reshape(8, 2), list("aababaab"))
        out = balance(table)
        assert out.labels.count("a") == 3
        assert out.labels.count("b") == 3
        # first three of each group (a: rows 0,1,3; b: rows 2,4,7), file order kept
        assert np.array_equal(
            out.features,
            table.features[[0, 1, 2, 3, 4, 7]],
        )
        assert out.labels == ("a", "a", "b", "a", "b", "b")

    def test_idempotent_when_balanced(self):
        table = make_table(np.arange(16.0).reshape(8, 2), list("abababab"))
        out = balance(table)
        assert np.array_equal(out.features, table.features)
        assert out.labels == table.labels

    def test_equal_counts_property(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(2, 40))
            labels = ["a"] + ["b"] + [("a" if rng.random() < 0.7 else "b") for _ in range(n)]
            table = make_table(rng.standard_normal((len(labels), 3)), labels)
            out = balance(table)
            assert out.labels.count("a") == out.labels.count("b")


class TestCenterAndSplit:
    def test_mean_removal(self):
        g = center_and_split(make_table([[2.0], [0.0]], ["a", "b"]))
        assert np.array_equal(g.x, [[1.0], [-1.0]])
        assert np.array_equal(g.x_a, [[1.0]])
        assert np.array_equal(g.x_b, [[-1.0]])

    def test_idempotent_on_centered(self):
        feats = np.array([[1.0, -2.0], [-1.0, 2.0]])
        g = center_and_split(make_table(feats, ["a", "b"]))
        assert np.array_equal(g.x, feats)

    def test_hand_mean(self):
        g = center_and_split(make_table([[1.0], [2.0], [3.0]], ["a", "a", "b"]))
        assert np.array_equal(g.x, [[-1.0], [0.0], [1.0]])
        assert g.n_a == 2 and g.n_b == 1
        assert (g.label_a, g.label_b) == ("a", "b")

    def test_partition_is_row_permutation(self):
        rng = np.random.default_rng(8)
        feats = rng.standard_normal((12, 4))
        labels = list("abbaabababba")
        g = center_and_split(make_table(feats, labels))
        stacked = np.vstack([g.x_a, g.x_b])
        # same multiset of rows: sort both lexicographically and compare
        key = lambda m: m[np.lexsort(m.T)]
        assert np.allclose(key(stacked), key(g.x))

    def test_columns_sum_to_zero(self):
        rng = np.random.default_rng(9)
        feats = rng.standard_normal((50, 6)) * 100.0 + 17.0
        g = center_and_split(make_table(feats, ["a"] * 30 + ["b"] * 20))
        assert np.max(np.abs(g.x.sum(axis=0))) <= 1e-6 * g.n

    def test_single_group_rejected(self):
        with pytest.raises(DataError, match="2 groups"):
            center_and_split(make_table([[1.0], [2.0]], ["a", "a"]))


class TestLoadGrouped:
    def test_balance_applied_before_centering(self, toy_csv):
        feats = [[10.0], [20.0], [30.0], [1.0], [2.0]]
        path = toy_csv(feats, ["a", "a", "a", "b", "b"])
        g = load_grouped(path, "group", balanced=True)
        # kept rows: 10, 20 (a) and 1, 2 (b); mean of the kept rows only
        kept = np.array([10.0, 20.0, 1.0, 2.0])
        assert g.n_a == g.n_b == 2
        assert np.allclose(np.sort(g.x[:, 0]), np.sort(kept - kept.mean()))

    def test_unbalanced_default(self, toy_csv):
        path = toy_csv([[1.0], [2.0], [3.0]], ["a", "a", "b"])
        g = load_grouped(path, "group")
        assert (g.n_a, g.n_b) == (2, 1)

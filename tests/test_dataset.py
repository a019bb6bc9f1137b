import csv
import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import fairdim.dataset as dataset_module
from fairdim.dataset import (
    DataError,
    RawTable,
    balance,
    load_grouped,
    load_table,
    s1_table,
    write_table,
)
from fairdim.fairpca import Moments, prepare
from fairdim.linalg import scaled_gram

from conftest import centered, make_table, row_labels


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
        assert table.in_a.tolist() == [True, False, True, False]
        assert table.feature_names == ("x", "y", "z")
        assert (table.label_a, table.label_b) == ("f", "m")

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

    def test_blank_header_line(self, tmp_path):
        # csv.reader reads a blank line as no fields at all, not one empty one
        path = write_csv(tmp_path / "t.csv", "\na,1\nb,2\n")
        with pytest.raises(DataError, match="sensitive column '' not in header"):
            load_table(path, "")

    def test_field_over_csv_limit(self, tmp_path):
        padded = " " * csv.field_size_limit() + "1"
        path = write_csv(tmp_path / "t.csv", f"h,x\na,{padded}\nb,2\n")
        with pytest.raises(DataError, match="t.csv:2: field larger than field limit"):
            load_table(path, "h")

    def test_only_sensitive_column(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", "h\na\nb\n")
        with pytest.raises(DataError, match="no feature columns"):
            load_table(path, "h")

    def test_labels_verbatim(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", "h,x\n 1,1\n1.0,2\n")
        table = load_table(path, "h")
        assert table.in_a.tolist() == [True, False]
        assert (table.label_a, table.label_b) == (" 1", "1.0")

    def test_round_trip(self, tmp_path):
        table = make_table([[1.5, -2.0], [0.25, 3.0]], ["a", "b"])
        path = tmp_path / "rt.csv"
        write_table(table, path)
        back = load_table(path, "group")
        assert np.array_equal(back.features, table.features)
        assert back.in_a.tolist() == table.in_a.tolist()
        assert (back.label_a, back.label_b) == (table.label_a, table.label_b)

    def test_write_table_takes_a_str_path(self, tmp_path):
        table = make_table([[1.5, -2.0], [0.25, 3.0]], ["a", "b"])
        write_table(table, tmp_path / "path.csv")
        write_table(table, str(tmp_path / "str.csv"))
        assert (tmp_path / "str.csv").read_bytes() == (tmp_path / "path.csv").read_bytes()


# One row per input shape: the file text, then either the features and
# labels it loads to or the exact DataError message ("{path}" stands for
# the file), and which reader produced it. The plain reader must agree
# with the per-cell one everywhere, so every expected outcome is the
# per-cell reader's.
PARITY_CASES = {
    "quoted_label_comma": ('h,x,y\n"a,1",1,2\nb,3,4\n',
                           [[1.0, 2.0], [3.0, 4.0]], ("a,1", "b"), "cells"),
    "crlf": ("h,x\r\na,1\r\nb,2\r\n", [[1.0], [2.0]], ("a", "b"), "plain"),
    # the benchmark's form: repr floats, the label last, LF or CRLF endings
    "benchmark_form": ("x,y,h\n-0.30000000000000004,1.5e-05,g0\n2.0,0.1,g1\n",
                       [[-0.30000000000000004, 1.5e-05], [2.0, 0.1]], ("g0", "g1"), "plain"),
    "benchmark_form_crlf": ("x,y,h\r\n-0.30000000000000004,1.5e-05,g0\r\n2.0,0.1,g1\r\n",
                            [[-0.30000000000000004, 1.5e-05], [2.0, 0.1]], ("g0", "g1"),
                            "plain"),
    "crlf_bad_cell": ("h,x\r\na,1\r\nb,zz\r\n",
                      "{path}:3: non-numeric cell 'zz' in column 'x'", None, "cells"),
    "crlf_quoted": ('h,x\r\n"a",1\r\nb,2\r\n', [[1.0], [2.0]], ("a", "b"), "cells"),
    "utf8_bom": ("\ufeffh,x\na,1\nb,2\n", [[1.0], [2.0]], ("a", "b"), "plain"),
    "blank_line_mid": ("h,x\na,1\n\nb,2\n",
                       "{path}:3: expected 2 fields, got 0", None, "cells"),
    "trailing_blank_line": ("h,x\na,1\nb,2\n\n",
                            "{path}:4: expected 2 fields, got 0", None, "cells"),
    "no_final_newline": ("h,x\na,1\nb,2", [[1.0], [2.0]], ("a", "b"), "plain"),
    "too_short_row": ("h,x,y\na,1,2\nb,3\n",
                      "{path}:3: expected 3 fields, got 2", None, "cells"),
    "too_long_row": ("h,x\na,1\nb,2,3\n",
                     "{path}:3: expected 2 fields, got 3", None, "cells"),
    "nan": ("h,x\na,1\nb,nan\n",
            "{path}:3: non-finite cell 'nan' in column 'x'", None, "cells"),
    "overflow": ("h,x\na,1\nb,1e400\n",
                 "{path}:3: non-finite cell '1e400' in column 'x'", None, "cells"),
    "empty_cell": ("h,x,y\na,1,2\nb,,4\n",
                   "{path}:3: non-numeric cell '' in column 'x'", None, "cells"),
    "digit_separator": ("h,x\na,1_0\nb,2\n", [[10.0], [2.0]], ("a", "b"), "cells"),
    "padded_cell": ("h,x\na, 1 \nb,2\n", [[1.0], [2.0]], ("a", "b"), "plain"),
    "header_only": ("h,x\n",
                    "{path}: sensitive column 'h' has 0 distinct values, expected exactly 2",
                    None, "cells"),
    "sensitive_first": ("h,x,y\na,1.5,-2\nb,3,4e-3\n",
                        [[1.5, -2.0], [3.0, 0.004]], ("a", "b"), "plain"),
    "sensitive_middle": ("x,h,y\n1.5,a,-2\n3,b,4e-3\n",
                         [[1.5, -2.0], [3.0, 0.004]], ("a", "b"), "plain"),
    "sensitive_last": ("x,y,h\n1.5,-2,a\n3,4e-3,b\n",
                       [[1.5, -2.0], [3.0, 0.004]], ("a", "b"), "plain"),
    # whitespace to numpy's number parser, not to float()
    "unit_separator": ("h,x\na,1\nb,\x1f2\n",
                       "{path}:3: non-numeric cell '\\x1f2' in column 'x'", None, "cells"),
    "hash_in_label": ("h,x\n#a,1\nb,2\n", [[1.0], [2.0]], ("#a", "b"), "plain"),
    # a message names the physical line, after a label that spans two
    "multiline_quoted_label": ('h,x\n"a\nb",1\nc,zz\n',
                               "{path}:4: non-numeric cell 'zz' in column 'x'", None, "cells"),
    # a lone carriage return ends a line, as in a file read with newline=""
    "lone_cr": ("h,x\ra,1\rb,2\r", [[1.0], [2.0]], ("a", "b"), "plain"),
    # str.splitlines() ends a line at these, csv.reader does not
    "vertical_tab_label": ("h,x\na\x0bb,1\nc,2\n", [[1.0], [2.0]], ("a\x0bb", "c"), "cells"),
    "form_feed_cell": ("h,x\na,\x0c1\nb,2\n", [[1.0], [2.0]], ("a", "b"), "cells"),
    "file_separator_label": ("h,x\na\x1cb,1\nc,2\n", [[1.0], [2.0]], ("a\x1cb", "c"), "cells"),
    "group_separator_label": ("h,x\na\x1db,1\nc,2\n", [[1.0], [2.0]], ("a\x1db", "c"), "cells"),
    "record_separator_label": ("h,x\na\x1eb,1\nc,2\n", [[1.0], [2.0]], ("a\x1eb", "c"), "cells"),
    "next_line_label": ("h,x\na\x85,1\nb,2\n", [[1.0], [2.0]], ("a\x85", "b"), "cells"),
    "line_separator_label": ("h,x\na\u2028b,1\nc,2\n", [[1.0], [2.0]], ("a\u2028b", "c"), "cells"),
    "paragraph_separator_label": ("h,x\na\u2029b,1\nc,2\n",
                                  [[1.0], [2.0]], ("a\u2029b", "c"), "cells"),
}


@pytest.mark.parametrize("case", list(PARITY_CASES))
def test_loader_parity(case, tmp_path, monkeypatch):
    text, expected, labels, reader = PARITY_CASES[case]
    path = tmp_path / "t.csv"
    path.write_text(text, encoding="utf-8", newline="")
    per_cell = []
    real = dataset_module._load_cells
    monkeypatch.setattr(
        dataset_module, "_load_cells", lambda *a: per_cell.append(1) or real(*a)
    )
    if labels is None:
        with pytest.raises(DataError) as exc:
            load_table(path, "h")
        assert str(exc.value) == expected.format(path=path)
    else:
        table = load_table(path, "h")
        want = np.array(expected, dtype=np.float64)
        assert table.features.dtype == np.float64
        assert table.features.shape == want.shape
        assert table.features.tobytes() == want.tobytes()
        assert row_labels(table) == labels
        assert table.label_a == labels[0]  # the first-seen group is a
        assert table.feature_names == ("x", "y")[: want.shape[1]]
    assert per_cell == ([1] if reader == "cells" else [])


_label = st.text(
    st.characters(blacklist_characters=',"\r\n\x00', blacklist_categories=("Cs",)),
    max_size=4,
)


@st.composite
def _plain_tables(draw):
    d = draw(st.integers(1, 4))
    n = draw(st.integers(0, 6))
    groups = draw(st.lists(_label, min_size=2, max_size=2, unique=True))
    labels = groups + draw(st.lists(st.sampled_from(groups), min_size=n, max_size=n))
    value = st.floats(allow_nan=False, allow_infinity=False)
    fmt = st.sampled_from([repr, lambda v: "%.6g" % v])
    cells = [[draw(fmt)(draw(value)) for _ in range(d)] for _ in labels]
    return draw(st.integers(0, d)), cells, labels


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_plain_tables())
def test_load_table_matches_float_per_cell(tmp_path, table):
    sens, cells, labels = table
    d = len(cells[0])
    header = [f"x{j}" for j in range(d)]
    header.insert(sens, "g")
    lines = [",".join(header)]
    for row, label in zip(cells, labels):
        lines.append(",".join(row[:sens] + [label] + row[sens:]))
    path = tmp_path / "p.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="")

    out = load_table(path, "g")
    want = np.array([[float(c) for c in row] for row in cells], dtype=np.float64)
    assert out.features.tobytes() == want.tobytes()
    assert out.features.shape == want.shape
    assert row_labels(out) == tuple(labels)
    assert out.label_a == labels[0]


def _outcome(load, path):
    try:
        t = load(path, "h")
    except Exception as exc:  # the error itself is the outcome compared
        return type(exc), str(exc)
    return (t.features.shape, t.features.tobytes(), t.in_a.tolist(), t.label_a,
            t.label_b, t.feature_names)


_cell = st.sampled_from(
    ["1", "-2.5e-3", " 7 ", "1_0", "", "nan", "1e400", "\x1c1", '"3"', '"a,b"',
     '"a\nb"', "a", "b", "#b", "\ufeff1", "\x0b1", "1\x0c", "a\x85", "\u2028",
     "a\x00"]
)
_row = st.lists(_cell, min_size=1, max_size=3).map(",".join)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    st.sampled_from(["h,x,y", "x,h", "h,x", "h", ""]),
    st.lists(_row, max_size=5),
    st.sampled_from(["\n", "\r\n", "\r"]),
    st.booleans(),
)
def test_load_table_matches_per_cell_reader(tmp_path, head, rows, newline, final):
    path = tmp_path / "m.csv"
    text = newline.join([head] + rows) + (newline if final else "")
    path.write_text(text, encoding="utf-8", newline="")

    def over_the_file(path, sensitive_column):
        # the reference: csv.reader over the file itself
        with path.open(newline="", encoding="utf-8-sig") as fh:
            return dataset_module._load_cells(path, fh, sensitive_column)

    assert _outcome(load_table, path) == _outcome(over_the_file, path)


class TestBalance:
    def test_five_three(self):
        table = make_table(np.arange(16.0).reshape(8, 2), list("aababaab"))
        out = balance(table)
        assert np.count_nonzero(out.in_a) == 3
        assert np.count_nonzero(~out.in_a) == 3
        # first three of each group (a: rows 0,1,3; b: rows 2,4,7), file order kept
        assert np.array_equal(
            out.features,
            table.features[[0, 1, 2, 3, 4, 7]],
        )
        assert row_labels(out) == ("a", "a", "b", "a", "b", "b")
        assert (out.label_a, out.label_b) == ("a", "b")

    def test_idempotent_when_balanced(self):
        table = make_table(np.arange(16.0).reshape(8, 2), list("abababab"))
        out = balance(table)
        assert np.array_equal(out.features, table.features)
        assert out.in_a.tolist() == table.in_a.tolist()
        assert (out.label_a, out.label_b) == (table.label_a, table.label_b)

    def test_equal_counts_property(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(2, 40))
            labels = ["a"] + ["b"] + [("a" if rng.random() < 0.7 else "b") for _ in range(n)]
            table = make_table(rng.standard_normal((len(labels), 3)), labels)
            out = balance(table)
            assert np.count_nonzero(out.in_a) == np.count_nonzero(~out.in_a)


def balance_oracle(labels):
    """Row indices ``balance`` keeps, by plain loops: the first
    min(n_a, n_b) rows of each group, in file order."""
    counts = {}
    for lab in labels:
        counts[lab] = counts.get(lab, 0) + 1
    n_min = min(counts.values())
    keep, taken = [], {}
    for i, lab in enumerate(labels):
        if taken.get(lab, 0) < n_min:
            taken[lab] = taken.get(lab, 0) + 1
            keep.append(i)
    return keep


@settings(max_examples=200, deadline=None)
@given(
    n_small=st.integers(1, 8),
    ratio=st.integers(1, 14),
    small_first=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(n_small=3, ratio=14, small_first=True, seed=0)
@example(n_small=3, ratio=14, small_first=False, seed=0)
def test_balance_matches_loop_oracle(n_small, ratio, small_first, seed):
    rng = np.random.default_rng(seed)
    labels = ["big"] * (n_small * ratio) + ["small"] * n_small
    rng.shuffle(labels)
    # the chosen group's first row moves to the top of the file
    j = labels.index("small" if small_first else "big")
    labels[0], labels[j] = labels[j], labels[0]
    table = make_table(rng.standard_normal((len(labels), 3)), labels)
    keep = balance_oracle(labels)
    out = balance(table)
    assert out.features.tobytes() == table.features[keep].tobytes()
    assert row_labels(out) == tuple(labels[i] for i in keep)
    assert out.label_a == labels[0]
    assert row_labels(out).count("big") == row_labels(out).count("small") == n_small


def _raw(flags, label_b="b"):
    """A three-row RawTable with the given group mask, labeled "a" and ``label_b``."""
    return RawTable(np.zeros((3, 2)), np.array(flags), "a", label_b, ("f0", "f1"), "group")


class TestRawTable:
    def test_fields(self):
        names = [f.name for f in dataclasses.fields(RawTable)]
        assert names == [
            "features", "in_a", "label_a", "label_b", "feature_names", "sensitive_name"
        ]

    def test_rejects_non_bool_mask(self):
        with pytest.raises(DataError, match="one boolean group flag"):
            _raw([1, 0, 1])
        # a list, not an array
        with pytest.raises(DataError, match="one boolean group flag"):
            RawTable(np.zeros((3, 2)), [True, False, True], "a", "b", ("f0", "f1"), "group")

    @pytest.mark.parametrize("flags", [[True, False], [True, False, True, False]])
    def test_rejects_wrong_mask_length(self, flags):
        with pytest.raises(DataError, match="one boolean group flag"):
            _raw(flags)

    @pytest.mark.parametrize("flags", [[True] * 3, [False] * 3])
    def test_rejects_empty_group(self, flags):
        with pytest.raises(DataError, match="at least one row"):
            _raw(flags)

    def test_rejects_equal_labels(self):
        with pytest.raises(DataError, match="both groups are labeled 'a'"):
            _raw([True, False, True], label_b="a")

    def test_rejects_features_not_2d(self):
        # every later check would pass the (3, 2, 1) array; the list is not one
        for features in (np.zeros((3, 2, 1)), [[0.0, 0.0]] * 3):
            with pytest.raises(DataError, match="features must be a 2-D array"):
                RawTable(features, np.array([True, False, True]), "a", "b",
                         ("f0", "f1"), "group")

    def test_rejects_name_count_mismatch(self):
        with pytest.raises(DataError, match="one name required per feature column"):
            RawTable(np.zeros((3, 2)), np.array([True, False, True]), "a", "b",
                     ("f0",), "group")


def _moments_bytes(m):
    return m.c.tobytes(), m.c_a.tobytes(), m.c_b.tobytes()


def _reference_moments(table):
    """The moments of ``centered(table)`` and its two masked row groups."""
    x = centered(table)
    n_a = int(np.count_nonzero(table.in_a))
    return Moments(
        c=scaled_gram(x, x.shape[0]),
        c_a=scaled_gram(x[table.in_a], n_a),
        c_b=scaled_gram(x[~table.in_a], x.shape[0] - n_a),
    )


class TestCenterAndSplit:
    """``prepare`` centers the table on its global column means and splits
    the centered rows by the group mask."""

    def test_mean_removal(self):
        # centered rows are [1] (a) and [-1] (b); uncentered, c_a would be 4
        m = prepare(make_table([[2.0], [0.0]], ["a", "b"])).moments
        assert np.array_equal(m.c, [[1.0]])
        assert np.array_equal(m.c_a, [[1.0]])
        assert np.array_equal(m.c_b, [[1.0]])

    def test_idempotent_on_centered(self):
        feats = np.array([[1.0, -2.0], [-1.0, 2.0]])
        m = prepare(make_table(feats, ["a", "b"])).moments
        assert m.c.tobytes() == scaled_gram(feats, 2).tobytes()
        assert m.c_a.tobytes() == scaled_gram(feats[:1], 1).tobytes()
        assert m.c_b.tobytes() == scaled_gram(feats[1:], 1).tobytes()

    def test_hand_mean(self):
        # centered rows [-1], [0] (a) and [1] (b)
        p = prepare(make_table([[1.0], [2.0], [3.0]], ["a", "a", "b"]))
        assert np.array_equal(p.moments.c, [[2.0 / 3.0]])
        assert np.array_equal(p.moments.c_a, [[0.5]])
        assert np.array_equal(p.moments.c_b, [[1.0]])
        assert p.labels == ("a", "b")

    def test_groups_are_masked_rows_in_file_order(self):
        labels = list("baabbaba")  # the first-seen group is "b"
        table = make_table(np.arange(16.0).reshape(8, 2), labels)
        assert table.in_a.tolist() == [lab == "b" for lab in labels]
        p = prepare(table)
        assert p.labels == ("b", "a")
        x = centered(table)
        assert p.moments.c_a.tobytes() == scaled_gram(x[[0, 3, 4, 6]], 4).tobytes()
        assert p.moments.c_b.tobytes() == scaled_gram(x[[1, 2, 5, 7]], 4).tobytes()

    def test_partition_is_row_permutation(self):
        rng = np.random.default_rng(8)
        feats = rng.standard_normal((12, 4))
        labels = list("abbaabababba")
        table = make_table(feats, labels)
        m = prepare(table).moments
        assert _moments_bytes(m) == _moments_bytes(_reference_moments(table))
        # the two groups together hold every centered row exactly once
        n_a = labels.count("a")
        assert np.allclose(n_a * m.c_a + (12 - n_a) * m.c_b, 12 * m.c)

    def test_columns_sum_to_zero(self):
        rng = np.random.default_rng(9)
        feats = rng.standard_normal((50, 6)) * 100.0 + 17.0
        table = make_table(feats, ["a"] * 30 + ["b"] * 20)
        m = prepare(table).moments
        assert _moments_bytes(m) == _moments_bytes(_reference_moments(table))
        assert np.max(np.abs(centered(table).sum(axis=0))) <= 1e-6 * 50

    @pytest.mark.parametrize("offset", [1e9, 1e12])
    def test_large_magnitude_column(self, offset):
        # the round-off left after centering grows with the column's scale
        rng = np.random.default_rng(10)
        feats = np.column_stack([
            offset * (1.0 + 0.01 * rng.standard_normal(30000)),
            rng.standard_normal(30000),
        ])
        table = make_table(feats, ["a"] * 20000 + ["b"] * 10000)
        m = prepare(table).moments
        assert _moments_bytes(m) == _moments_bytes(_reference_moments(table))

    def test_single_group_rejected(self):
        # a table whose rows all fall in one group cannot be built, so
        # none reaches the split
        with pytest.raises(DataError, match="at least one row"):
            RawTable(np.array([[1.0], [2.0]]), np.ones(2, bool), "a", "b", ("f0",), "group")


class TestLoadGrouped:
    def test_balance_applied_before_centering(self, toy_csv):
        feats = [[10.0], [20.0], [30.0], [1.0], [2.0]]
        path = toy_csv(feats, ["a", "a", "a", "b", "b"])
        table = load_grouped(path, "group", balanced=True)
        # kept rows: 10, 20 (a) and 1, 2 (b); mean of the kept rows only
        assert table.features[:, 0].tolist() == [10.0, 20.0, 1.0, 2.0]
        assert table.in_a.tolist() == [True, True, False, False]
        kept = np.array([10.0, 20.0, 1.0, 2.0])
        x = kept - kept.mean()
        m = prepare(table).moments
        assert np.allclose(m.c, [[np.mean(x * x)]])
        assert np.allclose(m.c_a, [[np.mean(x[:2] ** 2)]])
        assert np.allclose(m.c_b, [[np.mean(x[2:] ** 2)]])

    def test_unbalanced_default(self, toy_csv):
        path = toy_csv([[1.0], [2.0], [3.0]], ["a", "a", "b"])
        table = load_grouped(path, "group")
        assert table.in_a.tolist() == [True, True, False]
        assert table.features[:, 0].tolist() == [1.0, 2.0, 3.0]


def test_demo_table_geometry():
    """``s1_table()`` at its default seed, against values taken when it was
    written: the seed, each cloud's angle and axis scales, and the rotation
    all move them. A tolerance, not bytes, so a libm that rounds cos or sin
    differently in the last bit still passes."""
    t = s1_table()
    assert t.in_a.tolist() == [True] * 600 + [False] * 300
    assert (t.label_a, t.label_b) == ("a", "b")
    assert (t.feature_names, t.sensitive_name) == (("x1", "x2"), "group")
    rows = {
        0: [0.9905589002778266, -0.35335150860751896],
        599: [4.478962889275634, 0.2524586320337612],
        600: [-0.45006704350011184, -1.947317308592928],
        899: [-0.08093024086596035, -0.8699944508168125],
    }
    for i, row in rows.items():
        np.testing.assert_allclose(t.features[i], row, rtol=1e-12, err_msg=f"row {i}")
    # per group: the column sums, then the column sums of squares
    sums = {
        True: ([-46.197184688272394, -13.595286897259605], [5056.223537956993, 345.9966152100079]),
        False: ([-11.049756763612216, -50.4925850551313], [170.57666970920891, 642.7046966183256]),
    }
    for flag, (total, squares) in sums.items():
        g = t.features[t.in_a == flag]
        np.testing.assert_allclose(g.sum(axis=0), total, rtol=1e-12)
        np.testing.assert_allclose((g * g).sum(axis=0), squares, rtol=1e-12)

import numpy as np
import pytest

from fairdim.linalg import LinalgError, scaled_gram, sym_eig_top_r

from conftest import rand_symmetric


class TestScaledGram:
    @pytest.mark.parametrize("x, divisor, want", [
        pytest.param(np.eye(2), 2, np.eye(2) * 0.5, id="orthonormal_rows"),
        pytest.param([[2.0, 0.0]], 1, [[4.0, 0.0], [0.0, 0.0]], id="hand_outer"),
        pytest.param(np.zeros((5, 3)), 5, np.zeros((3, 3)), id="zero_input"),
    ])
    def test_hand_values(self, x, divisor, want):
        assert np.array_equal(scaled_gram(x, divisor), want)

    def test_exactly_symmetric(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((40, 9))
        g = scaled_gram(x, 40)
        assert np.array_equal(g, g.T)


class TestSymEigTopR:
    def test_diagonal(self):
        out = sym_eig_top_r(np.diag([2.0, 1.0]), 1)
        assert out.values[0] == pytest.approx(2.0, abs=1e-12)
        assert np.allclose(out.vectors[:, 0], [1.0, 0.0], atol=1e-12)

    def test_rank_one_ones(self):
        out = sym_eig_top_r([[1.0, 1.0], [1.0, 1.0]], 2)
        s = 1.0 / np.sqrt(2.0)
        assert np.allclose(out.values, [2.0, 0.0], atol=1e-12)
        assert np.allclose(out.vectors[:, 0], [s, s], atol=1e-12)

    def test_algebraic_ordering_indefinite(self):
        # largest signed value wins, not largest magnitude
        out = sym_eig_top_r(np.diag([-1.0, 1.0]), 1)
        assert out.values[0] == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(out.vectors[:, 0], [0.0, 1.0], atol=1e-12)

    def test_rejects_non_square(self):
        with pytest.raises(LinalgError):
            sym_eig_top_r(np.ones((2, 3)), 1)

    def test_zero_matrix(self):
        out = sym_eig_top_r(np.zeros((3, 3)), 3)
        assert np.array_equal(out.values, np.zeros(3))
        assert np.array_equal(out.vectors, np.eye(3))

    def test_stable_tie_order_identity(self):
        # degenerate eigenvalues keep the solver's original column order
        out = sym_eig_top_r(np.eye(4), 4)
        assert np.array_equal(out.vectors, np.eye(4))


class TestEigsolverProperties:
    def test_agrees_with_lapack_values(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            n = int(rng.integers(2, 13))
            c = rand_symmetric(rng, n)
            ours = sym_eig_top_r(c, n).values
            ref = np.linalg.eigvalsh(c)[::-1]
            assert np.allclose(ours, ref, atol=1e-10)


class TestOutputContract:
    """The layout and signs that byte-identical reports rest on."""

    @staticmethod
    def reference(c, r):
        # per column: flip when the first argmax of |v| is negative
        values, vectors = np.linalg.eigh(c)
        cols = []
        for j in np.argsort(-values, kind="stable")[:r]:
            v = vectors[:, j]
            cols.append(-v if v[int(np.argmax(np.abs(v)))] < 0.0 else v)
        return np.column_stack(cols)

    def test_matches_per_column_reference(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            n = int(rng.integers(1, 13))
            r = int(rng.integers(1, n + 1))
            c = rand_symmetric(rng, n)
            out = sym_eig_top_r(c, r).vectors
            assert out.flags.c_contiguous
            assert out.tobytes() == self.reference(c, r).tobytes()

    def test_tied_largest_entries_of_opposite_sign(self):
        # the [[0, 1], [1, 0]] block's eigenvectors are (+-s, s): the two
        # largest |entries| tie exactly, so only "lowest index wins" fixes the sign
        rng = np.random.default_rng(9)
        c = np.zeros((5, 5))
        c[:2, :2] = [[0.0, 1.0], [1.0, 0.0]]
        c[2:, 2:] = rand_symmetric(rng, 3)
        raw = np.linalg.eigh(c)[1]
        assert any(
            abs(v[0]) == abs(v[1]) > 0.0 and v[0] == -v[1] and v[0] < 0.0 for v in raw.T
        )
        for r in (1, 3, 5):
            out = sym_eig_top_r(c, r).vectors
            assert out.flags.c_contiguous
            assert out.tobytes() == self.reference(c, r).tobytes()
        full = sym_eig_top_r(c, 5).vectors
        tied = [v for v in full.T if abs(v[0]) == abs(v[1]) > 0.0]
        assert tied and all(v[0] > 0.0 for v in tied)

    def test_top_r_is_prefix_of_full(self):
        # one full decomposition serves every rank of a Prepared: its first
        # r pairs must be the rank-r solve's, bit for bit
        rng = np.random.default_rng(10)
        for d in (1, 2, 3, 5, 8, 13):
            q, _ = np.linalg.qr(rng.standard_normal((d, d)))
            repeated = rng.choice([-2.0, 0.0, 1.0, 3.0], size=d)
            near = (q * repeated) @ q.T
            x = rng.standard_normal((d + 3, d))
            for c in (
                rand_symmetric(rng, d),            # indefinite
                scaled_gram(x, d + 3),             # positive definite
                (near + near.T) * 0.5,             # repeated up to round-off
                np.diag(repeated),                 # exactly repeated
                np.zeros((d, d)),
            ):
                full = sym_eig_top_r(c, d)
                for r in range(1, d + 1):
                    top = sym_eig_top_r(c, r)
                    assert full.values[:r].tobytes() == top.values.tobytes()
                    prefix = np.ascontiguousarray(full.vectors[:, :r])
                    assert prefix.tobytes() == top.vectors.tobytes()

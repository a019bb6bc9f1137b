import numpy as np
import pytest

from fairdim.linalg import LinalgError, scaled_gram, sym_eig_top_r

from conftest import eig2x2_values, rand_symmetric


class TestScaledGram:
    def test_orthonormal_rows(self):
        out = scaled_gram(np.eye(2), 2)
        assert np.allclose(out, np.eye(2) * 0.5)

    def test_hand_outer(self):
        out = scaled_gram([[2.0, 0.0]], 1)
        assert np.array_equal(out, [[4.0, 0.0], [0.0, 0.0]])

    def test_zero_input(self):
        assert np.array_equal(scaled_gram(np.zeros((5, 3)), 5), np.zeros((3, 3)))

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

    def test_sign_convention(self):
        rng = np.random.default_rng(3)
        c = rand_symmetric(rng, 6)
        out = sym_eig_top_r(c, 6)
        for j in range(6):
            v = out.vectors[:, j]
            assert v[int(np.argmax(np.abs(v)))] > 0.0


class TestEigsolverProperties:
    def test_reconstruction_200_trials(self):
        rng = np.random.default_rng(1234)
        for trial in range(200):
            n = int(rng.integers(2, 13))
            c = rand_symmetric(rng, n)
            out = sym_eig_top_r(c, n)
            recon = out.vectors @ np.diag(out.values) @ out.vectors.T
            norm_c = np.sqrt(np.sum(c * c))
            assert np.sqrt(np.sum((recon - c) ** 2)) <= 1e-8 * norm_c, f"trial {trial}"

    def test_eigenvalue_sum_matches_trace(self):
        rng = np.random.default_rng(99)
        for _ in range(50):
            n = int(rng.integers(2, 13))
            c = rand_symmetric(rng, n)
            out = sym_eig_top_r(c, n)
            assert np.sum(out.values) == pytest.approx(np.trace(c), rel=1e-8, abs=1e-12)

    def test_2x2_closed_form(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            c = rand_symmetric(rng, 2)
            out = sym_eig_top_r(c, 2)
            hi, lo = eig2x2_values(c)
            assert abs(out.values[0] - hi) <= 1e-10
            assert abs(out.values[1] - lo) <= 1e-10

    def test_orthonormal_columns(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(2, 13))
            c = rand_symmetric(rng, n)
            out = sym_eig_top_r(c, n)
            gram = out.vectors.T @ out.vectors
            assert np.max(np.abs(gram - np.eye(n))) <= 1e-9

    def test_per_pair_residual(self):
        # each returned pair solves the eigenproblem, also for r < n
        rng = np.random.default_rng(12)
        for _ in range(30):
            n = int(rng.integers(2, 13))
            r = int(rng.integers(1, n + 1))
            c = rand_symmetric(rng, n)
            out = sym_eig_top_r(c, r)
            norm_c = np.sqrt(np.sum(c * c))
            for j in range(r):
                resid = c @ out.vectors[:, j] - out.values[j] * out.vectors[:, j]
                assert np.linalg.norm(resid) <= 1e-8 * norm_c

    def test_agrees_with_lapack_values(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            n = int(rng.integers(2, 13))
            c = rand_symmetric(rng, n)
            ours = sym_eig_top_r(c, n).values
            ref = np.linalg.eigvalsh(c)[::-1]
            assert np.allclose(ours, ref, atol=1e-10)

    def test_deterministic_bytes(self):
        rng = np.random.default_rng(42)
        c = rand_symmetric(rng, 9)
        first = sym_eig_top_r(c.copy(), 9)
        second = sym_eig_top_r(c.copy(), 9)
        assert first.values.tobytes() == second.values.tobytes()
        assert first.vectors.tobytes() == second.vectors.tobytes()


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

import numpy as np
import pytest

from kypcert.hermat import (
    DefinitenessError,
    ResonanceError,
    _band,
    _singular,
    _spectrum,
    as_matrix,
    cayley_matrix,
    hermitian_power,
    hyper_pair_slacks,
    inertia,
    psd_tolerance,
    require_hermitian,
    solve_lyapunov,
)


class TestZeroBand:
    @pytest.mark.parametrize("q", [0, 1, 2, 3, 6])
    def test_band_is_psd_tolerance(self, q):
        # ||M||_2 of a Hermitian M is max|lambda|, so the SVD adds nothing;
        # the two factorizations round differently by a few ulps
        tol = 16 * np.finfo(float).eps
        rng = np.random.default_rng(q)
        stack = []
        for k in range(30):
            M = rng.standard_normal((q, q)) + 1j * rng.standard_normal((q, q)) * (k % 2)
            M = (M + M.conj().T) * 10.0 ** rng.uniform(-6.0, 6.0)
            if k % 3 == 0 and q:
                M = M @ M.conj().T  # semidefinite
            M = require_hermitian(M)
            w, tau = _spectrum(M)
            assert np.array_equal(w, np.linalg.eigvalsh(M))
            assert abs(tau - psd_tolerance(M)) <= tol * psd_tolerance(M)
            stack.append(M)
        w, tau = _spectrum(np.array(stack).reshape(len(stack), q, q))
        assert tau.shape == (len(stack),)
        for M, band in zip(stack, tau):
            assert abs(band - psd_tolerance(M)) <= tol * psd_tolerance(M)


    @pytest.mark.parametrize("q", [0, 1, 2, 5])
    def test_band_of_hermitian_eigenvalues_is_psd_tolerance(self, q):
        # _band reads the same band off any eigenvalues; on a Hermitian
        # spectrum it is psd_tolerance, and on a stack it is one per row
        tol = 16 * np.finfo(float).eps
        rng = np.random.default_rng(100 + q)
        stack = []
        for k in range(20):
            M = rng.standard_normal((q, q)) + 1j * rng.standard_normal((q, q)) * (k % 2)
            stack.append(require_hermitian((M + M.conj().T) * 10.0 ** rng.uniform(-6.0, 6.0)))
        w = np.linalg.eigvalsh(np.array(stack).reshape(len(stack), q, q))
        bands = _band(w)
        assert bands.shape == (len(stack),)
        for M, row, band in zip(stack, w, bands):
            assert _band(row) == band
            assert abs(band - _spectrum(M)[1]) <= tol * band
            assert abs(band - psd_tolerance(M)) <= tol * psd_tolerance(M)


class TestInertia:
    def test_off_diagonal_pair(self):
        assert inertia([[0.0, 1.0], [1.0, 0.0]]).as_tuple() == (1, 0, 1)

    def test_weighted_form_block(self):
        # [[-T, I], [I, -T]] with T = diag(1/2, 0); eigenvalues -t_i +/- 1
        T = np.diag([0.5, 0.0])
        M = np.block([[-T, np.eye(2)], [np.eye(2), -T]])
        assert inertia(M).as_tuple() == (2, 0, 2)
        assert inertia(M).is_balanced(2)

    def test_semidefinite(self):
        res = inertia(np.diag([2.0, 0.0]))
        assert res.as_tuple() == (1, 1, 0)
        assert res.is_psd and not res.is_pd

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            inertia([[0.0, 1.0], [0.0, 0.0]])

    def test_sylvester_congruence_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            q = int(rng.integers(1, 7))
            M = rng.standard_normal((q, q)) + 1j * rng.standard_normal((q, q))
            M = M + M.conj().T
            while True:
                S = rng.standard_normal((q, q)) + 1j * rng.standard_normal((q, q))
                if 1.0 / np.linalg.cond(S) > 1e-6:
                    break
            assert inertia(S.conj().T @ M @ S).as_tuple() == inertia(M).as_tuple()


class TestHermitianPower:
    def test_identity_root(self):
        assert np.allclose(hermitian_power(np.eye(3), 0.5), np.eye(3))

    def test_scalar_contraction_complement(self):
        # (1 - t^2)^(1/2) at t = 3/5
        t = 3.0 / 5.0
        out = hermitian_power([[1.0 - t * t]], 0.5)
        assert abs(out[0, 0] - 4.0 / 5.0) < 1e-15

    def test_pseudo_inverse_zeroes_kernel(self):
        out = hermitian_power(np.diag([4.0, 0.0]), "pinv")
        assert np.allclose(out, np.diag([0.25, 0.0]))

    def test_square_reconstruction(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            q = int(rng.integers(1, 6))
            G = rng.standard_normal((q, q)) + 1j * rng.standard_normal((q, q))
            M = G @ G.conj().T
            root = hermitian_power(M, 0.5)
            assert np.linalg.norm(root @ root - M) <= 1e-9 * np.linalg.norm(M)

    def test_rejects_indefinite_root(self):
        with pytest.raises(DefinitenessError, match="eigenvalue"):
            hermitian_power(np.diag([1.0, -1.0]), 0.5)

    def test_rejects_singular_inverse(self):
        with pytest.raises(DefinitenessError):
            hermitian_power(np.diag([1.0, 0.0]), -1)

    def test_inverse_consistency(self):
        M = np.array([[2.0, 0.5], [0.5, 1.0]])
        assert np.allclose(hermitian_power(M, -1) @ M, np.eye(2), atol=1e-12)
        half = hermitian_power(M, -0.5)
        assert np.allclose(half @ half @ M, np.eye(2), atol=1e-12)


class TestAsMatrix:
    def test_shapes(self):
        assert as_matrix(2.0).shape == (1, 1)
        assert as_matrix([1.0, 2.0]).shape == (1, 2)
        assert as_matrix([]).shape == (0, 0)
        assert as_matrix(np.zeros((0, 3))).shape == (0, 3)

    def test_rejects_higher_rank(self):
        with pytest.raises(ValueError, match="ndim=3"):
            as_matrix(np.zeros((2, 2, 2)))


class TestSolveLyapunov:
    def test_scalar(self):
        X = solve_lyapunov([[-1.0]], [[2.0]], "controllability")
        assert abs(X[0, 0] - 1.0) < 1e-14

    def test_balanced_family_both_sides(self):
        # parameterized degree-2 family solved by diag(10, 1) on both sides
        a = d = 1.0
        A = np.array([[-a * a / 5.0, -2 * a * d / 11.0], [-2 * a * d / 11.0, -d * d / 2.0]])
        B = np.array([[2.0 * a], [d]])
        C = np.array([[2.0 * a, d]])
        Xc = solve_lyapunov(A, B @ B.conj().T, "controllability")
        Xo = solve_lyapunov(A, C.conj().T @ C, "observability")
        assert np.allclose(Xc, np.diag([10.0, 1.0]), atol=1e-10)
        assert np.allclose(Xo, np.diag([10.0, 1.0]), atol=1e-10)

    def test_beyond_dimension_thirty(self):
        rng = np.random.default_rng(35)
        q = 35
        A = rng.standard_normal((q, q)) + 1j * rng.standard_normal((q, q))
        A = A - (np.abs(np.linalg.eigvals(A).real).max() + 0.5) * np.eye(q)
        G = rng.standard_normal((q, 2))
        Q = G @ G.T
        for side, Ah in (("controllability", A), ("observability", A.conj().T)):
            X = solve_lyapunov(A, Q, side)
            resid = np.linalg.norm(Ah @ X + X @ Ah.conj().T + Q, "fro")
            assert resid <= 1e-10 * (1.0 + np.linalg.norm(Q, "fro"))

    def test_rejects_resonant_spectrum(self):
        with pytest.raises(ResonanceError):
            solve_lyapunov(np.diag([1.0, -1.0]), np.eye(2), "controllability")

    def test_result_hermitian_and_psd_for_hurwitz(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            q = int(rng.integers(1, 5))
            A = rng.standard_normal((q, q))
            A = A - (np.abs(np.linalg.eigvals(A).real).max() + 0.3) * np.eye(q)
            G = rng.standard_normal((q, q))
            Q = G @ G.conj().T
            X = solve_lyapunov(A, Q, "controllability")
            assert np.linalg.norm(X - X.conj().T) < 1e-12 * (1 + np.linalg.norm(X))
            assert np.linalg.eigvalsh(X)[0] >= -1e-10 * (1 + np.linalg.norm(X))


class TestSingular:
    def test_threshold_on_the_condition_number(self):
        assert not _singular(np.diag([1.0, 1e-11]))
        assert _singular(np.diag([1.0, 1e-13]))
        assert _singular(np.zeros((2, 2)))  # cond = inf

    def test_empty_matrix_is_nonsingular(self):
        assert not _singular(np.zeros((0, 0)))

    def test_nan_condition_number_is_singular(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "cond", lambda M: np.nan)
        assert _singular(np.eye(2))


class TestCayleyMatrix:
    def test_zero_maps_to_identity(self):
        assert np.allclose(cayley_matrix(np.zeros((2, 2))), np.eye(2))

    def test_identity_maps_to_zero(self):
        assert np.allclose(cayley_matrix(np.eye(3)), np.zeros((3, 3)))

    def test_scalar(self):
        assert abs(cayley_matrix([[3.0]])[0, 0] - (-0.5)) < 1e-15

    def test_involution(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            q = int(rng.integers(1, 6))
            A = rng.standard_normal((q, q)) + 1j * rng.standard_normal((q, q))
            back = cayley_matrix(cayley_matrix(A))
            assert np.abs(back - A).max() < 1e-10 * (1 + np.abs(A).max())

    def test_rejects_minus_one_eigenvalue(self):
        with pytest.raises(ValueError, match="-1"):
            cayley_matrix([[-1.0]])


class TestHyperPairSlacks:
    def test_unweighted_positive(self):
        lyap, stein = hyper_pair_slacks([[1.0]], [[1.0]], [[0.0]])
        assert abs(lyap - 2.0) < 1e-14
        assert abs(stein - 1.0) < 1e-14

    def test_unweighted_negative(self):
        lyap, _ = hyper_pair_slacks([[-1.0]], [[1.0]], [[0.0]])
        assert abs(lyap + 2.0) < 1e-14

    def test_weighted_scalar(self):
        lyap, _ = hyper_pair_slacks([[2.0]], [[1.0]], [[0.2]])
        assert abs(lyap - 3.0) < 1e-14  # 4 - 1/5 - 4/5

    def test_sign_correspondence_under_cayley(self):
        rng = np.random.default_rng(13)
        checked = 0
        for _ in range(100):
            q = int(rng.integers(1, 5))
            A = rng.standard_normal((q, q))
            A = A - (np.abs(np.linalg.eigvals(A).real).max() + 0.2) * np.eye(q)
            G = rng.standard_normal((q, q))
            H = G @ G.T + 0.1 * np.eye(q)
            lyap, stein = hyper_pair_slacks(A, H, np.zeros((q, q)))
            if min(abs(lyap), abs(stein)) > 1e-8:
                checked += 1
                assert np.sign(lyap) == np.sign(stein)
        assert checked >= 90  # degenerate draws should be rare


def test_require_hermitian_symmetrizes():
    M = np.array([[1.0, 1e-14], [0.0, 2.0]])
    out = require_hermitian(M)
    assert np.allclose(out, out.conj().T)

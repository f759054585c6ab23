import copy
import dataclasses
import json
import pickle

import numpy as np
import pytest

from conftest import (
    circuit_realizations,
    f_s2_over_s1,
    hull_vertex,
    scalar_realization,
    transfer_gap,
)
from kypcert import realization
from kypcert.hermat import solve_lyapunov
from kypcert.realization import (
    PoleError,
    Realization,
    SingularArrayError,
    array_congruence,
    array_inverse,
    balance,
    decode_matrix,
    evaluate,
    evaluate_grid,
    function_inverse,
    gramians,
    pbh_test,
    poles,
    series_add,
    similarity,
)


class TestEvaluate:
    def test_scalar_value(self):
        assert abs(evaluate(f_s2_over_s1(), 0.0)[0, 0] - 2.0) < 1e-14

    def test_constant_when_b_zero(self):
        R = Realization(A=[[-3.0]], B=[[0.0]], C=[[5.0]], D=[[7.0]])
        for s in (0.0, 1j, 2.0 + 3j, np.inf):
            assert abs(evaluate(R, s)[0, 0] - 7.0) < 1e-14

    def test_circuit_impedance_at_zero(self):
        Z, _, _, _ = circuit_realizations()
        assert abs(evaluate(Z, 0.0)[0, 0] - 2.0) < 1e-14

    def test_infinity_returns_feedthrough(self):
        R = f_s2_over_s1()
        assert abs(evaluate(R, np.inf)[0, 0] - 1.0) < 1e-14

    def test_pole_rejected(self):
        with pytest.raises(PoleError):
            evaluate(f_s2_over_s1(), -1.0)

    def test_grid_marks_pole_hits(self):
        R = scalar_realization(0.0, 1.0, 1.0, 0.0)  # 1/s
        vals = evaluate_grid(R, [0.0, 1j])
        assert np.isnan(vals[0]).all()
        assert abs(vals[1, 0, 0] + 1j) < 1e-14


class TestPoles:
    def test_hurwitz(self):
        info = poles(Realization(A=np.diag([-1.0, -2.0]), B=np.ones((2, 1)),
                                 C=np.ones((1, 2)), D=[[0.0]]))
        assert info.hurwitz and info.analytic_in_cr

    def test_unstable(self):
        info = poles(scalar_realization(1.0, 1.0, 1.0, -1.0))
        assert not info.hurwitz and not info.analytic_in_cr

    def test_empty_state_is_vacuously_hurwitz(self):
        info = poles(Realization.constant([[4.0]]))
        assert info.hurwitz and info.analytic_in_cr

    def test_axis_pole_is_analytic_boundary(self):
        info = poles(scalar_realization(0.0, 1.0, 1.0, 0.0))
        assert not info.hurwitz and info.analytic_in_cr


class TestPbh:
    def test_zero_gain_family_unobservable(self):
        from conftest import singular_weight_family

        rep = pbh_test(singular_weight_family(0.0))
        assert not rep.observable
        assert not rep.minimal
        assert any(which == "observability" for _, _, which in rep.witnesses)

    def test_unit_gain_family_minimal(self):
        from conftest import singular_weight_family

        assert pbh_test(singular_weight_family(1.0)).minimal

    def test_scalar_minimal(self):
        assert pbh_test(f_s2_over_s1()).minimal


def _reference_rank(M: np.ndarray) -> int:
    """The per-matrix rank rule the batched PBH test replaced."""
    if M.size == 0:
        return 0
    sv = np.linalg.svd(M, compute_uv=False)
    return int(np.sum(sv > 1e-9 * sv[0])) if sv[0] > 0 else 0


def _reference_pbh(R: Realization):
    """Eigenvalues failing controllability and observability, one SVD per eigenvalue."""
    eye = np.eye(R.n)
    ctrl = [lv for lv in R._modal.lam if _reference_rank(np.hstack([R.A - lv * eye, R.B])) < R.n]
    obs = [lv for lv in R._modal.lam if _reference_rank(np.vstack([R.A - lv * eye, R.C])) < R.n]
    return ctrl, obs


def _pbh_corpus():
    """Seeded realizations, n = 0..8, real and complex, with non-minimal ones built on purpose."""
    from conftest import singular_weight_family

    rng = np.random.default_rng(17)
    corpus = [singular_weight_family(0.0), singular_weight_family(1.0)]
    for n in range(9):
        for complex_data in (False, True):
            def draw(*shape):
                M = rng.standard_normal(shape)
                return M + 1j * rng.standard_normal(shape) if complex_data else M

            m = int(rng.integers(1, 4))
            corpus.append(Realization(draw(n, n), draw(n, m), draw(m, n), draw(m, m)))
            if n < 2:
                continue
            # a repeated eigenvalue whose two B rows are dependent: uncontrollable
            lam = draw(n - 1)
            B = draw(n, m)
            B[1] = 2.0 * B[0]
            A = np.diag(np.concatenate([lam[:1], lam]))
            corpus.append(Realization(A, B, draw(m, n), draw(m, m)))
            # a zero column of C hides the first mode from the output
            C = draw(m, n)
            C[:, 0] = 0.0
            corpus.append(Realization(np.diag(draw(n)), draw(n, m), C, draw(m, m)))
    return corpus


_PBH_CORPUS = _pbh_corpus()


class TestBatchedPbh:
    @pytest.mark.parametrize("R", _PBH_CORPUS)
    def test_matches_the_per_eigenvalue_loop(self, R):
        ctrl, obs = _reference_pbh(R)
        rep = pbh_test(R)
        assert (rep.controllable, rep.observable) == (not ctrl, not obs)
        assert [lv for lv, _, which in rep.witnesses if which == "controllability"] == ctrl
        assert [lv for lv, _, which in rep.witnesses if which == "observability"] == obs
        eye = np.eye(R.n)
        for lv, d, which in rep.witnesses:
            if which == "controllability":
                P = np.hstack([R.A - lv * eye, R.B])
                residual = np.linalg.norm(d.conj() @ P)
            else:
                P = np.vstack([R.A - lv * eye, R.C])
                residual = np.linalg.norm(P @ d)
            assert np.isclose(np.linalg.norm(d), 1.0)
            assert residual <= 1e-8 * np.linalg.norm(P, 2)

    @pytest.mark.parametrize("R", _PBH_CORPUS)
    def test_observability_inertia_check_matches_the_loop(self, R):
        from kypcert.kyp import observability_inertia_check

        M, k = R.array, R.n + R.m
        G = np.block([[R.C, R.D], [np.zeros((R.m, R.n)), np.eye(R.m)]])
        for T in (0.0, 0.5, np.diag(np.linspace(0.1, 0.9, R.m))):
            Tm = T * np.eye(R.m) if np.isscalar(T) else T
            Q = G.conj().T @ np.kron(np.eye(2), Tm) @ G
            obs_rq = all(
                _reference_rank(np.vstack([M - lv * np.eye(k), Q])) == k
                for lv in np.linalg.eigvals(M)
            )
            rep = observability_inertia_check(R, np.eye(R.n), T)
            assert rep.obs_ac == (not _reference_pbh(R)[1])
            assert rep.obs_rq == obs_rq


class TestSimilarity:
    def test_identity(self):
        R = f_s2_over_s1()
        out = similarity(R, np.eye(1))
        assert np.allclose(out.array, R.array)

    def test_diagonal_scaling(self):
        out = similarity(f_s2_over_s1(), [[2.0]])
        assert np.allclose(out.array, [[-1.0, 0.5], [2.0, 1.0]])
        svals = 1j * np.linspace(0.1, 10, 50)
        assert transfer_gap(out, f_s2_over_s1(), svals) < 1e-12

    def test_transfer_invariance_random(self):
        rng = np.random.default_rng(2)
        svals = 1j * np.concatenate([[0.0], np.logspace(-2, 2, 100)])
        for _ in range(50):
            n = int(rng.integers(1, 5))
            R = Realization(
                A=rng.standard_normal((n, n)) - 3 * np.eye(n),
                B=rng.standard_normal((n, 2)),
                C=rng.standard_normal((2, n)),
                D=rng.standard_normal((2, 2)),
            )
            V = rng.standard_normal((n, n)) + np.eye(n) * 2
            assert transfer_gap(R, similarity(R, V), svals) < 1e-9

    def test_singular_transform_rejected(self):
        with pytest.raises(np.linalg.LinAlgError):
            similarity(f_s2_over_s1(), [[0.0]])

    def test_array_congruence_is_not_transfer_preserving(self):
        # permuting the full array flips (s+2)/(s+1) into s/(1-s): unstable
        perm = np.array([[0.0, 1.0], [1.0, 0.0]])
        Rg = array_congruence(f_s2_over_s1(), perm)
        assert np.allclose(Rg.array.real, [[1.0, 1.0], [1.0, -1.0]])
        assert not poles(Rg).hurwitz


class TestFunctionInverse:
    def test_circuit_admittance(self):
        Z, _, _, _ = circuit_realizations()
        Y = function_inverse(Z)
        assert abs(Y.D[0, 0] - 1.0) < 1e-14
        svals = 1j * np.linspace(0.0, 20, 80)
        vz = evaluate_grid(Z, svals)[:, 0, 0]
        vy = evaluate_grid(Y, svals)[:, 0, 0]
        assert np.abs(vz * vy - 1.0).max() < 1e-8

    def test_no_state_coupling_when_b_zero(self):
        R = Realization(A=[[-2.0]], B=[[0.0]], C=[[3.0]], D=[[1.0]])
        out = function_inverse(R)
        assert np.allclose(out.A, [[-2.0]])
        assert np.allclose(out.C, [[-3.0]])

    def test_scalar_pole_swap(self):
        out = function_inverse(f_s2_over_s1())
        assert abs(out.A[0, 0] + 2.0) < 1e-14  # (s+1)/(s+2)

    def test_singular_feedthrough_rejected(self):
        with pytest.raises(SingularArrayError, match="improper"):
            function_inverse(scalar_realization(-1.0, 1.0, 1.0, 0.0))


class TestArrayInverse:
    def test_degree_one_regression(self):
        out = array_inverse(scalar_realization(-1.0, 1.0, 1.0, 0.0))
        assert np.allclose(out.array.real, [[0.0, 1.0], [1.0, 1.0]], atol=1e-14)

    def test_degree_two_regression(self):
        R = Realization(A=[[-1.0, 1.0], [0.0, -1.0]], B=[[0.0], [1.0]],
                        C=[[1.0, 0.0]], D=[[0.0]])
        want = [[0.0, 0.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 1.0]]
        assert np.allclose(array_inverse(R).array.real, want, atol=1e-14)

    def test_singular_array_rejected_with_condition(self):
        with pytest.raises(SingularArrayError, match="condition"):
            array_inverse(Realization(A=[[-1.0]], B=[[-1.0]], C=[[1.0]], D=[[1.0]]))

    def test_involution(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(1, 3))
            R = Realization(
                A=rng.standard_normal((n, n)),
                B=rng.standard_normal((n, m)),
                C=rng.standard_normal((m, n)),
                D=rng.standard_normal((m, m)) + 2 * np.eye(m),
            )
            if 1.0 / np.linalg.cond(R.array) < 1e-6:
                continue
            back = array_inverse(array_inverse(R))
            assert np.abs(back.array - R.array).max() < 1e-10 * (1 + np.abs(R.array).max())

    def test_differs_from_function_inverse(self):
        R = f_s2_over_s1()
        fi = evaluate(function_inverse(R), 0.0)[0, 0]
        ai = evaluate(array_inverse(R), 0.0)[0, 0]
        assert abs(fi - 0.5) < 1e-12  # (s+1)/(s+2) at 0
        assert abs(fi - ai) > 0.1  # genuinely different functions


def _no_solve_lyapunov(*args, **kwargs):
    raise AssertionError("the modal Gramians need no solve_lyapunov")


class TestGramians:
    def test_balanced_family(self):
        Hc, Ho = gramians(hull_vertex(1.0, 1.0, 1.0))
        assert np.allclose(Hc, np.diag([10.0, 1.0]), atol=1e-10)
        assert np.allclose(Ho, np.diag([10.0, 1.0]), atol=1e-10)

    def test_scalar(self):
        Hc, Ho = gramians(f_s2_over_s1())
        assert abs(Hc[0, 0] - 0.5) < 1e-14
        assert abs(Ho[0, 0] - 0.5) < 1e-14

    def test_zero_input_map(self):
        R = Realization(A=[[-1.0]], B=[[0.0]], C=[[1.0]], D=[[0.0]])
        Hc, _ = gramians(R)
        assert abs(Hc[0, 0]) < 1e-14

    def test_rejects_unstable(self):
        with pytest.raises(ValueError, match="Hurwitz"):
            gramians(scalar_realization(1.0, 1.0, 1.0, 0.0))

    @pytest.mark.parametrize("n, m", [(1, 1), (4, 2), (10, 3), (20, 4)])
    @pytest.mark.parametrize("cplx", [False, True])
    def test_modal_gramians_match_solve_lyapunov(self, n, m, cplx, monkeypatch):
        R = seeded_realization(np.random.default_rng(10 * n + m + cplx), n, m, cplx)
        assert R._modal.V is not None
        with monkeypatch.context() as mp:
            mp.setattr(realization, "solve_lyapunov", _no_solve_lyapunov)
            Hc, Ho = gramians(R)
        refs = (solve_lyapunov(R.A, R.B @ R.B.conj().T, "controllability"),
                solve_lyapunov(R.A, R.C.conj().T @ R.C, "observability"))
        for G, ref in zip((Hc, Ho), refs):
            assert np.linalg.norm(G - ref) <= 1e-10 * np.linalg.norm(ref)
            assert np.array_equal(G, G.conj().T)

    def test_modal_residual_above_tolerance_takes_solve_lyapunov(self, monkeypatch):
        # cond(V) = 8000 passes the eigenbasis rule, but the modal Gramian
        # misses the 1e-10 residual test (about 2e-9), so scipy's solve decides
        R = Realization(A=[[-1.0, 1.0], [0.0, -1.00025]], B=[[0.0], [1.0]], C=[[1.0, 0.0]],
                        D=[[0.0]])
        assert R._modal.V is not None
        calls = []

        def counted(*args, **kwargs):
            calls.append(kwargs["side"])
            return solve_lyapunov(*args, **kwargs)

        monkeypatch.setattr(realization, "solve_lyapunov", counted)
        Hc, Ho = gramians(R)
        assert calls == ["controllability", "observability"]
        assert np.linalg.norm(R.A @ Hc + Hc @ R.A.conj().T + R.B @ R.B.T) <= 2e-10
        assert np.linalg.norm(R.A.conj().T @ Ho + Ho @ R.A + R.C.T @ R.C) <= 2e-10


class TestBalance:
    def test_already_balanced_family(self):
        bal = balance(hull_vertex(1.0, 1.0, 1.0))
        assert np.allclose(bal.sigma, [10.0, 1.0], atol=1e-9)
        # transform is the identity up to column signs
        assert np.allclose(np.abs(bal.transform), np.eye(2), atol=1e-8)

    def test_scalar(self):
        bal = balance(f_s2_over_s1())
        assert np.allclose(bal.sigma, [0.5], atol=1e-12)

    def test_recovers_balanced_coordinates(self):
        skew = scalar_realization(-1.0, 2.0, 0.5, 1.0)  # same (s+2)/(s+1)
        bal = balance(skew)
        assert np.abs(np.abs(bal.realization.array.real) - np.abs(f_s2_over_s1().array.real)).max() < 1e-10

    def test_gramian_residuals(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            n = int(rng.integers(1, 5))
            R = Realization(
                A=rng.standard_normal((n, n)) - 3 * np.eye(n),
                B=rng.standard_normal((n, 1)),
                C=rng.standard_normal((1, n)),
                D=[[1.0]],
            )
            try:
                bal = balance(R)
            except ValueError:
                continue  # randomly non-minimal draw
            Hc, Ho = gramians(bal.realization)
            S = np.diag(bal.sigma)
            assert np.linalg.norm(Hc - S) < 1e-8 * (1 + bal.sigma[0])
            assert np.linalg.norm(Ho - S) < 1e-8 * (1 + bal.sigma[0])

    def test_rejects_non_minimal(self):
        R = Realization(A=[[-1.0]], B=[[0.0]], C=[[1.0]], D=[[1.0]])
        with pytest.raises(ValueError, match="minimal"):
            balance(R)


class TestSeriesAdd:
    def test_zero_system_is_neutral(self):
        R = f_s2_over_s1()
        zero = Realization.constant([[0.0]])
        out = series_add(R, zero)
        svals = 1j * np.linspace(0.0, 5.0, 40)
        assert transfer_gap(out, R, svals) < 1e-14

    def test_resistor_plus_capacitor(self):
        # 1 + 1/s
        out = series_add(
            Realization.constant([[1.0]]),
            scalar_realization(0.0, 1.0, 1.0, 0.0),
        )
        svals = 1j * np.linspace(0.1, 10.0, 40)
        got = evaluate_grid(out, svals)[:, 0, 0]
        assert np.abs(got - (1.0 + 1.0 / svals)).max() < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            series_add(f_s2_over_s1(), Realization.constant(np.eye(2)))


class TestImmutability:
    def test_attribute_assignment_rejected(self):
        R = f_s2_over_s1()
        with pytest.raises(dataclasses.FrozenInstanceError):
            R.A = np.zeros((1, 1))

    def test_blocks_are_read_only(self):
        R = f_s2_over_s1()
        with pytest.raises(ValueError):
            R.A[0, 0] = 0

    @pytest.mark.parametrize("clone", [lambda x: x, copy.deepcopy, copy.copy,
                                       lambda x: pickle.loads(pickle.dumps(x))])
    def test_certificates_and_balanced_forms_are_immutable(self, clone):
        from kypcert.kyp import find_certificate

        R = f_s2_over_s1()
        cert, bal = clone(find_certificate(R, 0.5)), clone(balance(R))
        for value, name in ((cert, "H"), (cert, "T"), (bal, "sigma"), (bal, "transform")):
            with pytest.raises(ValueError, match="read-only"):
                getattr(value, name)[0] = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            cert.slack = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            bal.sigma = np.ones(1)
        H = np.eye(1)
        user = dataclasses.replace(cert, H=H)
        assert not np.shares_memory(H, user.H) and not user.H.flags.writeable

    @pytest.mark.parametrize("clone", [lambda x: x, copy.deepcopy, copy.copy,
                                       lambda x: pickle.loads(pickle.dumps(x))])
    def test_reports_isometries_and_polytopes_are_immutable(self, clone):
        from kypcert.reduction import RealizationPolytope, TruncationIsometry

        R = Realization(A=np.diag([-1.0, -2.0]), B=[[1.0], [0.0]], C=[[1.0, 1.0]], D=[[1.0]])
        info, pbh = clone(poles(R)), clone(pbh_test(R))
        iso = clone(TruncationIsometry(upsilon_n=np.eye(2), upsilon_m=[[1.0], [0.0]]))
        poly = clone(RealizationPolytope(vertices=[R, R], weights=[0.5, 0.5]))
        assert isinstance(pbh.witnesses, tuple) and isinstance(poly.vertices, tuple)
        (_, direction, which), = pbh.witnesses
        assert which == "controllability"
        for array in (info.eigenvalues, direction, iso.upsilon_n, iso.upsilon_m, poly.weights):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0
        for value, name in ((info, "hurwitz"), (pbh, "witnesses"), (iso, "upsilon_n"),
                            (poly, "weights")):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, name, None)

    def test_caller_array_stays_writable_and_unshared(self):
        A = np.array([[-1.0 + 0j]])
        R = Realization(A=A, B=[[1.0]], C=[[1.0]], D=[[1.0]])
        assert A.flags.writeable
        assert not np.shares_memory(A, R.A)
        A[0, 0] = -5.0
        assert R.A[0, 0] == -1.0

    def test_function_inverse_without_ports(self):
        R = Realization(A=[[-1.0]], B=np.zeros((1, 0)), C=np.zeros((0, 1)), D=np.zeros((0, 0)))
        inv = function_inverse(R)
        assert inv.m == 0 and np.array_equal(inv.A, R.A)

    def test_evaluate_returns_fresh_feedthrough(self):
        R = f_s2_over_s1()
        F = evaluate(R, np.inf)
        F[0, 0] = 9.0
        assert R.D[0, 0] == 1.0


def seeded_realization(rng, n, m, cplx) -> Realization:
    """Random (n, m) data with a stable A, complex when ``cplx``."""

    def randn(shape):
        X = rng.standard_normal(shape)
        return X + 1j * rng.standard_normal(shape) if cplx else X

    A = randn((n, n))
    A = A - (np.abs(np.linalg.eigvals(A).real).max() + 0.5) * np.eye(n)
    return Realization(A=A, B=randn((n, m)), C=randn((m, n)), D=randn((m, m)))


def dense_copy(R: Realization, monkeypatch) -> Realization:
    """The same data, built while no eigenbasis passes the modal test."""
    with monkeypatch.context() as mp:
        mp.setattr(realization, "_MODAL_COND_MAX", 0.0)
        D = Realization(R.A, R.B, R.C, R.D)
        assert D._modal.residues is None
    return D


SAMPLE_POINTS = np.concatenate([1j * np.logspace(-4.0, 4.0, 57), [0.0, 0.3 + 2j, -0.1 - 5j, 7.0]])


class TestModalResponse:
    @pytest.mark.parametrize("n, m", [(1, 1), (4, 2), (10, 3), (20, 4)])
    @pytest.mark.parametrize("cplx", [False, True])
    def test_modal_agrees_with_dense(self, n, m, cplx, monkeypatch):
        R = seeded_realization(np.random.default_rng(10 * n + m + cplx), n, m, cplx)
        assert R._modal.residues is not None
        F, X = evaluate_grid(R, SAMPLE_POINTS, _state=True)
        Fd, Xd = evaluate_grid(dense_copy(R, monkeypatch), SAMPLE_POINTS, _state=True)
        for got, ref in ((F, Fd), (X, Xd)):
            gap = np.linalg.norm(got - ref, axis=(1, 2))
            assert np.all(gap <= 1e-12 * np.linalg.norm(ref, axis=(1, 2)))
        assert np.array_equal(evaluate_grid(R, SAMPLE_POINTS), F)

    @pytest.mark.parametrize("A, B, C", [
        ([[-1.0, 1.0], [0.0, -1.0]], [[0.0], [1.0]], [[1.0, 0.0]]),  # Jordan block
        ([[0.0, 1.0], [-1.0, -2.0]], [[0.0], [1.0]], [[1.0, 0.0]]),  # companion form
    ])
    def test_defective_a_takes_the_dense_fallback(self, A, B, C):
        # both realize 1/(s + 1)^2
        R = Realization(A=A, B=B, C=C, D=[[0.0]])
        assert R._modal.residues is None and R._modal.V is None
        s = SAMPLE_POINTS
        F = evaluate_grid(R, s)[:, 0, 0]
        assert np.allclose(F, 1.0 / (s + 1.0) ** 2, rtol=1e-13, atol=0.0)
        F, X = evaluate_grid(R, s, _state=True)
        ref = np.linalg.solve(s[:, None, None] * np.eye(2) - np.asarray(A), np.asarray(B, float))
        assert np.allclose(X, ref, rtol=1e-13, atol=0.0)

    def test_pole_rows_are_nan_on_both_paths(self, monkeypatch):
        modal = Realization(A=np.diag([-1.0, -2.0]), B=[[1.0], [1.0]], C=[[1.0, 1.0]], D=[[0.5]])
        jordan = Realization(A=[[-1.0, 1.0], [0.0, -1.0]], B=[[0.0], [1.0]], C=[[1.0, 0.0]],
                             D=[[0.5]])
        s = np.array([-1.0, 0.0, -2.0, 1j])
        for R, poles_at in ((modal, [True, False, True, False]),
                            (dense_copy(modal, monkeypatch), [True, False, True, False]),
                            (jordan, [True, False, False, False])):
            F, X = evaluate_grid(R, s, _state=True)
            at = np.array(poles_at)
            assert np.isnan(F[at]).all() and np.isnan(X[at]).all()
            assert np.isfinite(F[~at]).all() and np.isfinite(X[~at]).all()
            with pytest.raises(PoleError):
                evaluate(R, -1.0)

    def test_pole_order_is_not_the_eig_order(self):
        # the residues belong to the decomposition's own eigenvalue order, not
        # to the sorted order of poles()
        a, b, c = np.array([-1.0, -3.0, -2.0]), np.array([1.0, 2.0, 3.0]), np.array([4.0, 5.0, 6.0])
        R = Realization(A=np.diag(a), B=b[:, None], C=c[None, :], D=[[0.0]])
        assert not np.array_equal(R._modal.lam, poles(R).eigenvalues)
        s = SAMPLE_POINTS
        ref = (b * c / (s[:, None] - a)).sum(axis=1)
        assert np.allclose(evaluate_grid(R, s)[:, 0, 0], ref, rtol=1e-14, atol=0.0)
        assert abs(evaluate(R, 0.5)[0, 0] - (b * c / (0.5 - a)).sum()) < 1e-14

    def test_repeated_diagonal_pole_stays_modal(self):
        R = Realization(A=-np.eye(3), B=np.ones((3, 1)), C=np.ones((1, 3)), D=[[0.0]])
        assert R._modal.residues is not None
        assert np.allclose(evaluate_grid(R, SAMPLE_POINTS)[:, 0, 0], 3.0 / (SAMPLE_POINTS + 1.0))

    def test_empty_state(self):
        R = Realization.constant([[2.0, 1j]])
        F, X = evaluate_grid(R, [0.0, 1j], _state=True)
        assert F.shape == (2, 1, 2) and X.shape == (2, 0, 2)
        assert np.array_equal(F, np.broadcast_to(R.D, (2, 1, 2)))


class TestDecompositionCache:
    def test_computed_once_and_read_only(self):
        R = seeded_realization(np.random.default_rng(2), 4, 2, True)
        modal = R._modal
        assert R._modal is modal
        for M in modal:
            assert not M.flags.writeable
            with pytest.raises(ValueError):
                M[0] = 0

    def test_fields_and_equality_are_unchanged(self):
        R = f_s2_over_s1()
        assert [f.name for f in dataclasses.fields(R)] == ["A", "B", "C", "D"]
        other = f_s2_over_s1()
        R._modal
        assert R == other and other == R and R == R
        assert R != scalar_realization(-2.0, 1.0, 1.0, 1.0)
        assert "_modal" not in repr(R)

    def test_replace_builds_its_own(self):
        R = seeded_realization(np.random.default_rng(3), 3, 1, False)
        R._modal
        same_a = dataclasses.replace(R, D=[[5.0]])
        assert "_modal" not in vars(same_a)
        assert np.array_equal(same_a._modal.lam, R._modal.lam)
        moved = dataclasses.replace(R, A=R.A - np.eye(3))
        assert np.allclose(np.sort_complex(moved._modal.lam), np.sort_complex(R._modal.lam - 1.0))

    @pytest.mark.parametrize("clone", [copy.deepcopy, copy.copy,
                                       lambda R: pickle.loads(pickle.dumps(R))])
    def test_copies_are_rebuilt_from_the_blocks(self, clone):
        R = seeded_realization(np.random.default_rng(4), 3, 2, True)
        R._modal
        twin = clone(R)
        assert type(twin) is Realization and "_modal" not in vars(twin)
        for name in ("A", "B", "C", "D"):
            M = getattr(twin, name)
            assert np.array_equal(M, getattr(R, name)) and not M.flags.writeable
            assert not np.shares_memory(M, getattr(R, name))
        assert np.array_equal(twin._modal.lam, R._modal.lam)
        assert np.array_equal(evaluate_grid(twin, SAMPLE_POINTS), evaluate_grid(R, SAMPLE_POINTS))

    def test_is_real_is_computed_once(self):
        rng = np.random.default_rng(6)
        real, cplx = seeded_realization(rng, 3, 2, False), seeded_realization(rng, 3, 2, True)
        complex_d = Realization(real.A, real.B, real.C, 1j * real.D)
        for R, value in ((real, True), (cplx, False), (complex_d, False)):
            assert R.is_real is value and vars(R)["is_real"] is value
            twin = pickle.loads(pickle.dumps(R))
            assert "is_real" not in vars(twin) and twin.is_real is value

    def test_shifted_realization_has_its_own(self):
        R = seeded_realization(np.random.default_rng(5), 4, 2, False)
        R._modal
        eps = 0.25
        shifted = Realization(R.A + eps * np.eye(4), R.B, R.C, R.D)
        assert "_modal" not in vars(shifted)
        assert np.allclose(np.sort_complex(shifted._modal.lam), np.sort_complex(R._modal.lam + eps))
        s = SAMPLE_POINTS
        assert np.allclose(evaluate_grid(shifted, s), evaluate_grid(R, s - eps), rtol=1e-12)


class TestSerialization:
    def test_round_trip_bit_identical(self, tmp_path):
        R = Realization(
            A=[[-1.0, 0.25], [0.125, -2.0]],
            B=[[1.0], [complex(0.3, -0.7)]],
            C=[[0.1, 1e-17]],
            D=[[complex(2.0, 1e-300)]],
        )
        path = tmp_path / "r.json"
        R.save(path)
        back = Realization.load(path)
        for M, N in zip((R.A, R.B, R.C, R.D), (back.A, back.B, back.C, back.D)):
            assert np.array_equal(M, N)

    def test_accepts_bare_reals_and_pairs(self):
        data = {
            "n": 1,
            "m": 1,
            "p": 1,
            "A": [[-1]],
            "B": [[[0.0, 1.0]]],
            "C": [[1]],
            "D": [[0.5]],
        }
        R = Realization.from_dict(data)
        assert R.B[0, 0] == 1j

    def test_schema_fields(self):
        d = f_s2_over_s1().to_dict()
        assert set(d) == {"n", "m", "p", "A", "B", "C", "D"}
        json.dumps(d)  # JSON-serializable as-is

    def test_empty_state_round_trip(self, tmp_path):
        R = Realization.constant([[2.0, 1.0]])
        path = tmp_path / "const.json"
        R.save(path)
        back = Realization.load(path)
        assert back.n == 0 and back.p == 1 and back.m == 2
        assert np.array_equal(back.D, R.D)

    def test_decode_empty_is_zero_by_zero(self):
        assert decode_matrix([]).shape == (0, 0)


class TestRectangularSupport:
    def test_gramians_balance_truncate(self):
        # p != m is allowed for Gramians, balancing and truncation only
        rng = np.random.default_rng(15)
        n = 3
        R = Realization(
            A=rng.standard_normal((n, n)) - 3 * np.eye(n),
            B=rng.standard_normal((n, 2)),
            C=rng.standard_normal((1, n)),
            D=rng.standard_normal((1, 2)),
        )
        Hc, Ho = gramians(R)
        assert Hc.shape == (n, n) and Ho.shape == (n, n)
        bal = balance(R)
        assert bal.sigma.shape == (n,)
        from kypcert.reduction import truncate_balanced

        out = truncate_balanced(bal, 2)
        assert (out.n, out.p, out.m) == (2, 1, 2)
        # class membership still requires a square transfer function
        from kypcert.classes import sweep_membership
        from kypcert.qmi import ClassSpec

        with pytest.raises(ValueError, match="square"):
            sweep_membership(R, ClassSpec("P"))

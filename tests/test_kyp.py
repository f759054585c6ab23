import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
import scipy.linalg

import kypcert
import kypcert.kyp as kyp
from conftest import (
    circuit_realizations,
    delta_dip,
    f_s2_over_s1,
    random_certified_pool,
    random_stable_system,
    scalar_realization,
    singular_weight_family,
    transfer_gap,
)
from kypcert import realization
from kypcert.classes import beta_max, sweep_membership
from kypcert.hermat import _spectrum, is_pd
from kypcert.kyp import (
    Certificate,
    certificate_from_dict,
    certificate_to_dict,
    find_certificate,
    infeasibility_witness,
    invert_with_certificate,
    kyp_slack_matrix,
    normalize_internally_passive,
    observability_inertia_check,
    validate_certificate,
    verify_certificate,
)
from kypcert.qmi import ClassSpec
from kypcert.realization import Realization, evaluate, pbh_test
from kypcert.reduction import TruncationIsometry, combine_internally_passive, truncate_isometry
from test_classes import dip_corpus, passive_realization, stable_draw


class TestVerifyCertificate:
    def test_singular_weight_boundary(self):
        T = np.diag([0.5, 0.0])
        assert verify_certificate(singular_weight_family(4.0 / 3.0), np.eye(2), T) >= -1e-12

    def test_singular_weight_beyond_boundary(self):
        T = np.diag([0.5, 0.0])
        assert verify_certificate(singular_weight_family(1.4), np.eye(2), T) < -0.1

    def test_zero_weight_reduces_to_classical(self):
        S = kyp_slack_matrix(f_s2_over_s1(), [[1.0]], 0.0)
        assert np.allclose(S, 2.0 * np.eye(2))
        assert verify_certificate(f_s2_over_s1(), [[1.0]], 0.0) >= 2.0 - 1e-12

    def test_rejects_indefinite_h(self):
        with pytest.raises(ValueError, match="positive definite"):
            verify_certificate(f_s2_over_s1(), [[-1.0]], 0.0)

    def test_slack_matrix_matches_the_array_formula(self):
        # reference: diag(-H, I) R + R* diag(-H, I) - G* diag(T, T) G, G = [[C, D], [0, I]]
        rng = np.random.default_rng(16)
        for n in range(6):
            for m in (1, 2, 3):
                for cplx in (0.0, 1.0):
                    def draw(*shape):
                        return rng.standard_normal(shape) + cplx * 1j * rng.standard_normal(shape)

                    R = Realization(A=draw(n, n), B=draw(n, m), C=draw(m, n), D=draw(m, m))
                    H = draw(n, n)
                    H = H + H.conj().T
                    Q = np.linalg.qr(draw(m, m))[0]
                    for T in (0.4, Q @ np.diag(rng.uniform(0.0, 0.95, m)) @ Q.conj().T):
                        Tm = T * np.eye(m) if np.isscalar(T) else T
                        J = np.eye(n + m, dtype=complex)
                        J[:n, :n] = -H
                        G = np.zeros((2 * m, n + m), dtype=complex)
                        G[:m], G[m:, n:] = np.hstack([R.C, R.D]), np.eye(m)
                        TT = np.kron(np.eye(2), Tm)
                        ref = J @ R.array + R.array.conj().T @ J - G.conj().T @ TT @ G
                        S = kyp_slack_matrix(R, H, T)
                        assert np.linalg.norm(S - ref) <= 1e-12 * np.linalg.norm(ref)


class TestFindCertificate:
    def test_scalar_boundary_weight(self):
        cert = find_certificate(f_s2_over_s1(), 0.8)
        assert cert is not None
        assert cert.slack >= -1e-9
        assert abs(cert.H[0, 0].real - 0.6) < 1e-4  # unique boundary certificate
        assert abs(beta_max(f_s2_over_s1()).value - 0.8) < 1e-6

    def test_scalar_interior_weight_uses_riccati(self):
        cert = find_certificate(f_s2_over_s1(), 0.79)
        assert cert is not None and cert.method == "riccati"
        assert cert.slack > 0.0

    def test_singular_feedthrough_infeasible(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cert = find_certificate(singular_weight_family(1.0), 0.1)
        assert cert is None

    def test_constant_below_the_floor_is_infeasible(self):
        # no state: S(H) is the D-block D + D* = -2 whatever H is
        R = Realization.constant([[-1.0]])
        assert find_certificate(R, 0.0) is None
        assert kyp._search(R, 0.0) == (None, (np.inf, -2.0))

    def test_slack_is_the_verified_slack(self):
        # the search scores its candidates with the slack function that
        # validate_certificate recomputes, so the two agree to the last bit
        rng = np.random.default_rng(18)
        cases = [(Realization.constant(np.diag([2.0, 1.0])), 0.3), (f_s2_over_s1(), 0.8)]
        for R, bm in random_certified_pool(rng, 6, n_max=4):
            Q = np.linalg.qr(rng.standard_normal((R.m, R.m)))[0]
            cases += [(R, 0.5 * bm), (R, bm), (R, Q @ np.diag(rng.uniform(0.0, bm, R.m)) @ Q.T)]
        methods = set()
        for R, T in cases:
            cert = find_certificate(R, T)
            if cert is not None:
                methods.add(cert.method)
                assert cert.slack == verify_certificate(R, cert.H, T)
                assert cert.slack == validate_certificate(R, cert)
        assert methods == {"riccati", "riccati-shifted"}

    def test_circuit_interior(self):
        Z, _, _, _ = circuit_realizations()
        cert = find_certificate(Z, 0.79)
        assert cert is not None
        assert verify_certificate(Z, cert.H, cert.T) >= -1e-12


def _hidden_mode(c: float, d: float) -> Realization:
    """c/(s + 1) + d with an extra mode at -2 that neither B nor C sees."""
    return Realization(A=np.diag([-1.0, -2.0]), B=[[1.0], [0.0]], C=[[c, 0.0]], D=[[d]])


class TestMinimalityWarning:
    def test_failed_search_without_witness_warns(self):
        # (s + 2)/(s + 1) is in HP(0.3), but the hidden mode defeats the search
        R = _hidden_mode(1.0, 1.0)
        assert infeasibility_witness(R, 0.3) is None
        with pytest.warns(UserWarning, match="not minimal"):
            assert find_certificate(R, 0.3) is None

    def test_witness_proves_without_a_warning(self):
        R = _hidden_mode(-1.0, 0.5)
        assert infeasibility_witness(R, 0.3) is not None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert find_certificate(R, 0.3) is None

    def test_minimal_search_skips_the_pbh_test(self, monkeypatch):
        calls = []

        def counted(R):
            calls.append(R)
            return pbh_test(R)

        monkeypatch.setattr(kyp, "pbh_test", counted)
        assert find_certificate(f_s2_over_s1(), 0.5) is not None
        R, bm = random_certified_pool(np.random.default_rng(4), 1, n_max=4)[0]
        assert find_certificate(R, 0.5 * bm) is not None
        assert calls == []
        with pytest.warns(UserWarning, match="not minimal"):
            find_certificate(_hidden_mode(1.0, 1.0), 0.3)
        assert len(calls) == 1


# (s + 2)/(s + 1) is certified by H = I at beta = 0.5, slack 0.691
_GOOD = {"R": f_s2_over_s1(), "H": np.eye(1), "T": 0.5}
_FAULTS = {
    "nonsquare": {"R": Realization([[-1.0]], [[1.0]], [[1.0], [1.0]], [[1.0], [0.0]])},
    "nonhermitian": {"H": np.array([[1.0 + 1.0j]])},
    "shape": {"H": np.eye(2)},
    "indefinite": {"H": -np.eye(1)},
    "weight": {"T": 1.0},
}
_GOOD_SLACK = float(np.linalg.eigvalsh([[1.5, -0.5], [-0.5, 1.0]])[0])
_ENTRY_POINTS = {
    "kyp_slack_matrix": kyp_slack_matrix,
    "verify_certificate": verify_certificate,
    "invert_with_certificate": invert_with_certificate,
    "validate_certificate": lambda R, H, T: validate_certificate(
        R, Certificate(H, T, _GOOD_SLACK)
    ),
    "truncate_isometry": lambda R, H, T: truncate_isometry(
        R, TruncationIsometry([[1.0]], [[1.0]]), T
    ),
    "combine_internally_passive": lambda R, H, T: combine_internally_passive(
        [R], [[[1.0]]], [[[1.0]]], [T], measure=False
    ),
    "normalize_internally_passive": lambda R, H, T: normalize_internally_passive(R, H),
}
_SQUARE = "certification requires a square realization array"
_HERMITIAN = "H is not Hermitian: ||M - M*||_F = 2.000e+00 exceeds tolerance"
_SHAPE = "H must be 1x1"
_DEFINITE = "certificate matrix H must be positive definite"
_WEIGHT = "scalar weight must lie in [0, 1), got 1.0"
# the faults each entry point checks, and its message for each
_MESSAGES = {
    "kyp_slack_matrix": {
        "nonsquare": _SQUARE, "nonhermitian": _HERMITIAN, "shape": _SHAPE, "weight": _WEIGHT,
    },
    "verify_certificate": {
        "nonsquare": _SQUARE, "nonhermitian": _HERMITIAN, "shape": _SHAPE,
        "indefinite": _DEFINITE, "weight": _WEIGHT,
    },
    "invert_with_certificate": {
        "nonsquare": _SQUARE, "nonhermitian": _HERMITIAN, "shape": _SHAPE,
        "indefinite": _DEFINITE, "weight": _WEIGHT,
    },
    "validate_certificate": {
        "nonsquare": _SQUARE, "nonhermitian": _HERMITIAN, "shape": _SHAPE,
        "indefinite": _DEFINITE, "weight": _WEIGHT,
    },
    "truncate_isometry": {
        "nonsquare": "isometric truncation requires a square realization array",
        "weight": _WEIGHT,
    },
    "combine_internally_passive": {
        "nonsquare": "isometry 0 must be 3x2, got (2, 2)", "weight": _WEIGHT,
    },
    "normalize_internally_passive": {
        "nonhermitian": _HERMITIAN, "shape": "V must be 1x1",
        "indefinite": "H must be positive definite",
    },
}


class TestOneCheckPerCall:
    @pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
    def test_good_pair_passes(self, entry):
        _ENTRY_POINTS[entry](**_GOOD)

    @pytest.mark.parametrize(
        "entry, fault",
        [(e, f) for e in sorted(_MESSAGES) for f in sorted(_MESSAGES[e])],
    )
    def test_single_fault_message(self, entry, fault):
        with pytest.raises(ValueError) as excinfo:
            _ENTRY_POINTS[entry](**{**_GOOD, **_FAULTS[fault]})
        assert str(excinfo.value) == _MESSAGES[entry][fault]


class _ShiftedSolveReached(Exception):
    pass


@pytest.fixture
def no_shifted_solve(monkeypatch):
    care_extremal = kyp._care_extremal

    def unshifted_only(R, T, eps=0.0):
        if eps != 0.0:
            raise _ShiftedSolveReached
        return care_extremal(R, T)

    monkeypatch.setattr(kyp, "_care_extremal", unshifted_only)


def _assert_shifted_certificate(R, T):
    cert = find_certificate(R, T)
    assert cert is not None and cert.method == "riccati-shifted"
    slack = verify_certificate(R, cert.H, cert.T)
    assert slack == cert.slack
    assert slack >= kyp.SLACK_FLOOR


def _recomputed_bound(R, T, omega):
    """The witness bound from the transfer function alone."""
    T = T * np.eye(R.m) if np.isscalar(T) else np.asarray(T)
    if np.isinf(omega):
        return float(np.linalg.eigvalsh(R.D + R.D.conj().T - T - R.D.conj().T @ T @ R.D)[0])
    F = evaluate(R, 1j * omega)
    w, V = np.linalg.eigh(F + F.conj().T - F.conj().T @ T @ F - T)
    x = np.linalg.solve(1j * omega * np.eye(R.n) - R.A, R.B @ V[:, 0])
    return float(w[0] / (1.0 + np.vdot(x, x).real))


class TestInfeasibilityWitness:
    def test_negative_d_block_exits_before_shifted_solve(self, no_shifted_solve):
        R = singular_weight_family(1.0)
        omega, bound = infeasibility_witness(R, 0.1)
        assert np.isinf(omega) and bound == pytest.approx(-0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert find_certificate(R, 0.1) is None

    def test_axis_crossing_exits_before_shifted_solve(self, no_shifted_solve):
        # beta_max = 0.8 binds at w = 0, where (4 - 5 beta) / |u|^2 with |u|^2 = 2
        R = f_s2_over_s1()
        omega, bound = infeasibility_witness(R, 0.9)
        assert omega == pytest.approx(0.0, abs=1e-9)
        assert bound == pytest.approx(-0.25)
        assert find_certificate(R, 0.9) is None

    def test_complex_data_crossing_frequency(self, no_shifted_solve):
        # (s + 2 + j)/(s + 1 + j) is (s + 2)/(s + 1) shifted to w = -1
        R = Realization(A=[[-1.0 - 1.0j]], B=[[1.0]], C=[[1.0]], D=[[1.0]])
        omega, bound = infeasibility_witness(R, 0.9)
        assert omega == pytest.approx(-1.0, abs=1e-9)
        assert bound == pytest.approx(-0.25)
        assert find_certificate(R, 0.9) is None

    def test_singular_psd_d_block_gets_shifted_certificate(self):
        R = singular_weight_family(1.0)
        T = np.diag([0.3, 0.0])
        assert infeasibility_witness(R, T) is None
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _assert_shifted_certificate(R, T)

    def test_zero_band_decides_d_block(self):
        # W = diag(1.4, -1e-8) lies below its zero band 1e-9 (1 + 1.4) and
        # ends the search; W = diag(1.4, -1e-9) lies inside it and is certified
        R = singular_weight_family(1.0)
        cert, (omega, bound) = kyp._search(R, np.diag([0.3, 1e-8]))
        assert cert is None and np.isinf(omega) and bound == pytest.approx(-1e-8)
        assert infeasibility_witness(R, np.diag([0.3, 1e-8])) == (omega, bound)
        T = np.diag([0.3, 1e-9])
        assert infeasibility_witness(R, T) is None
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _assert_shifted_certificate(R, T)

    @pytest.mark.parametrize("beta", [0.8])
    def test_touching_slack_gets_shifted_certificate(self, beta):
        # at beta_max the slack only touches zero: no witness
        assert infeasibility_witness(f_s2_over_s1(), beta) is None
        _assert_shifted_certificate(f_s2_over_s1(), beta)

    def test_rejects_nonsquare(self):
        R = Realization(A=[[-1.0]], B=[[1.0, 0.0]], C=[[1.0]], D=[[1.0, 0.0]])
        with pytest.raises(ValueError, match="square"):
            infeasibility_witness(R, 0.5)

    def test_slack_just_above_beta_max_gets_a_witness(self):
        # at w = 0 the bound is (4 - 5 beta) / 2, -2.5e-7 at beta = 0.8000001
        cert, (omega, bound) = kyp._search(f_s2_over_s1(), 0.8000001)
        assert cert is None and omega == 0.0
        assert bound == pytest.approx(-2.5e-7, rel=1e-6)

    def test_no_dip_is_certified(self):
        # the exact P sweep rejects all 108 dips, and so does the search
        for R in dip_corpus():
            cert, witness = kyp._search(R, 0.0)
            assert cert is None and witness is not None
            assert witness == infeasibility_witness(R, 0.0)

    @pytest.mark.parametrize("delta", [1e-3, 1e-4, 1e-5])
    def test_shallow_dip_gets_a_witness_at_its_resonance(self, delta):
        # the P slack is -2 delta at w0 = 30.5492
        R = delta_dip(delta)
        cert, (omega, bound) = kyp._search(R, 0.0)
        assert cert is None
        assert omega == pytest.approx(30.5492, rel=1e-6)
        assert bound < 0.0 and bound == pytest.approx(_recomputed_bound(R, 0.0, omega), rel=1e-6)

    def test_certificates_and_witnesses_follow_the_exact_sweep(self):
        # a certificate only for an exact HP(T) member and a witness exactly
        # for an exact non-member, at weights inside, at and above beta_max
        rng = np.random.default_rng(26)
        uncertified = []
        for i in range(160):
            n, m = int(rng.integers(1, 7)), int(rng.integers(1, 3))
            R = (passive_realization if i % 4 < 2 else stable_draw)(rng, n, m, bool(i % 2))
            bm = beta_max(R).value
            for t in (0.0, 0.5 * bm, min(bm + 1e-3, 0.99), 0.3):
                rep = sweep_membership(R, ClassSpec("HP", t))
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    cert, witness = kyp._search(R, t)
                assert rep.exact
                assert (witness is None) == rep.member
                if rep.member and cert is None:
                    uncertified.append((i, t))
                    # ROADMAP item 4: an ill-scaled member, whose best slack
                    # lies within its own zero band but below SLACK_FLOOR
                    assert max(np.linalg.norm(H) for H in kyp._care_extremal(R, t * np.eye(m))) > 1e5
                assert cert is None or rep.member
        assert len(uncertified) <= 1

    def test_search_ends_with_the_public_witness(self):
        # the witness that ends a failed search, as ``kypcert certify``
        # prints it, is the one infeasibility_witness finds on its own
        rng = np.random.default_rng(11)
        cases = [(Realization.constant([[-1.0]]), 0.0), (Realization.constant([[1.0]]), 0.5),
                 (singular_weight_family(1.0), 0.1), (singular_weight_family(1.0), 0.9),
                 (f_s2_over_s1(), 0.9), (_hidden_mode(1.0, 1.0), 0.3)]
        for _ in range(15):
            R = random_stable_system(rng, int(rng.integers(1, 4)), int(rng.integers(1, 3)))
            cases.append((R, rng.uniform(0.0, 0.95)))
        proofs = 0
        for R, T in cases:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                cert, witness = kyp._search(R, T)
            assert witness == infeasibility_witness(R, T)
            assert cert is None or witness is None
            proofs += witness is not None
        assert 3 <= proofs < len(cases)

    def test_bound_is_sound(self):
        rng = np.random.default_rng(7)
        found = {"inf": 0, "finite": 0}
        for trial in range(40):
            R = random_stable_system(rng, int(rng.integers(1, 4)), int(rng.integers(1, 3)))
            if trial % 4 == 3:
                R = Realization(A=R.A + 1j * np.diag(rng.standard_normal(R.n)),
                                B=R.B, C=R.C, D=R.D)
            for _ in range(3):
                Q = np.linalg.qr(rng.standard_normal((R.m, R.m)))[0]
                T = Q @ np.diag(rng.uniform(0.0, 0.95, R.m)) @ Q.T
                witness = infeasibility_witness(R, T)
                try:
                    kyp._care_extremal(R, T)
                    assert witness is None  # a Riccati solution leaves no witness
                except np.linalg.LinAlgError:
                    pass
                if witness is None:
                    continue
                omega, bound = witness
                found["inf" if np.isinf(omega) else "finite"] += 1
                assert bound < -1e-6
                assert bound == pytest.approx(_recomputed_bound(R, T, omega), rel=1e-9, abs=1e-12)
                tol = 1e-9 * (1.0 + np.abs(R.array).max())
                assert bound >= verify_certificate(R, np.eye(R.n), T) - tol
                for shrink in (1e-3, 5e-2, 0.5):
                    try:
                        Hs = kyp._care_extremal(R, (1.0 - shrink) * T)
                    except np.linalg.LinAlgError:
                        continue
                    for H in (*Hs, 0.5 * (Hs[0] + Hs[1])):
                        if np.linalg.eigvalsh(H)[0] > 1e-9:
                            assert bound >= verify_certificate(R, H, T) - tol
        assert found["inf"] and found["finite"]


def test_witness_ends_the_search_before_scipy_loads():
    # a D-block witness and a crossing witness, each returned before any
    # Riccati solve, so scipy is never imported
    cases = [(singular_weight_family(1.0), 0.1), (f_s2_over_s1(), 0.9)]
    data = json.dumps([(R.to_dict(), beta) for R, beta in cases])
    code = (
        "import json, sys, warnings\n"
        "from kypcert.kyp import find_certificate\n"
        "from kypcert.realization import Realization\n"
        "warnings.simplefilter('ignore')\n"
        f"for R, beta in json.loads({data!r}):\n"
        "    assert find_certificate(Realization.from_dict(R), beta) is None\n"
        "print('scipy.linalg' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(kypcert.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"


def _no_schur(*args, **kwargs):
    raise AssertionError("a well-conditioned eigenbasis needs no Schur form")


def _slacks(R, T, Hs):
    """(slack, zero band) of each positive definite one of Hm, Hp and their midpoint."""
    gram = kyp._gram(R, kyp._class_form("HP", T))
    out = []
    for H in (*Hs, 0.5 * (Hs[0] + Hs[1])):
        if is_pd(H):
            w, tau = _spectrum(kyp._slack_matrix(R, H, gram))
            out.append((float(w[0]), float(tau)))
    return out


class TestEigenvectorRiccati:
    # T = 0.02 I keeps every passive draw an interior member
    @pytest.mark.parametrize("n, m", [(1, 1), (4, 2), (10, 3), (20, 4)])
    @pytest.mark.parametrize("cplx", [False, True])
    def test_best_slack_no_worse_than_schur(self, n, m, cplx, monkeypatch):
        rng = np.random.default_rng(100 * n + 10 * m + cplx)
        T = 0.02 * np.eye(m)
        for _ in range(3):
            R = passive_realization(rng, n, m, cplx)
            with monkeypatch.context() as mp:
                mp.setattr(scipy.linalg, "schur", _no_schur)
                eig = max(_slacks(R, T, kyp._care_extremal(R, T)))
            with monkeypatch.context() as mp:
                mp.setattr(realization, "_MODAL_COND_MAX", 0.0)
                schur = max(_slacks(R, T, kyp._care_extremal(R, T)))
            assert eig[0] >= schur[0] - schur[1]

    def test_forced_schur_fallback_certifies(self, monkeypatch):
        R = passive_realization(np.random.default_rng(5), 4, 2, True)
        monkeypatch.setattr(realization, "_MODAL_COND_MAX", 0.0)
        cert = find_certificate(R, 0.02)
        assert cert is not None and cert.method == "riccati"
        assert verify_certificate(R, cert.H, cert.T) == cert.slack >= kyp.SLACK_FLOOR

    def test_tied_slacks_return_the_midpoint_on_both_routes(self, monkeypatch):
        # n > m: all three candidate slacks are zero to rounding
        R = passive_realization(np.random.default_rng(2), 4, 2, False)
        T = 0.02 * np.eye(2)
        Hm, Hp = kyp._care_extremal(R, T)
        slacks = _slacks(R, T, (Hm, Hp))
        best = max(slacks)
        assert len(slacks) == 3 and all(w >= best[0] - best[1] for w, _ in slacks)
        cert = find_certificate(R, T)
        assert np.array_equal(cert.H, 0.5 * (Hm + Hp))
        with monkeypatch.context() as mp:
            mp.setattr(realization, "_MODAL_COND_MAX", 0.0)
            fallback = find_certificate(R, T)
        assert np.linalg.norm(fallback.H - cert.H) <= 1e-8 * np.linalg.norm(cert.H)


class TestObservabilityInertia:
    def test_scalar_split(self):
        rep = observability_inertia_check(f_s2_over_s1(), [[0.6]], 0.79)
        assert rep.eig_split == (1, 1)
        assert rep.split_defined
        assert rep.obs_ac and rep.obs_rq

    def test_singular_array_flagged(self):
        R = scalar_realization(-1.0, -1.0, 1.0, 1.0)  # s/(s+1): singular array
        rep = observability_inertia_check(R, [[1.0]], 0.5)
        assert not rep.split_defined
        assert rep.eig_split == (0, 0)

    def test_unobservable_pair_transfers(self):
        R = singular_weight_family(0.0)
        rep = observability_inertia_check(R, np.eye(2), np.diag([0.5, 0.0]))
        assert not rep.obs_ac
        assert not rep.obs_rq

    def test_split_band_is_read_off_the_eigenvalues(self):
        # eigenvalues -1e-5 and 1e-5, while ||array||_2 is about 1e5
        R = Realization([[-1e-5]], [[1e5]], [[0.0]], [[1e-5]])
        rep = observability_inertia_check(R, [[1.0]], 0.0)
        assert rep.eig_split == (1, 1) and rep.split_defined

    def test_rejects_a_non_square_realization(self):
        R = Realization(A=[[-1.0]], B=[[1.0]], C=[[1.0], [2.0]], D=[[1.0], [0.0]])
        with pytest.raises(ValueError, match="square"):
            observability_inertia_check(R, [[1.0]], 0.5)

    def test_rejects_a_certificate_of_the_wrong_size(self):
        with pytest.raises(ValueError, match="1x1"):
            observability_inertia_check(f_s2_over_s1(), np.eye(2), 0.5)


class TestInversionReuse:
    def test_scalar_chain(self):
        R = f_s2_over_s1()
        cert = find_certificate(R, 0.79)
        R_hat, slack_hat = invert_with_certificate(R, cert.H, 0.79)
        assert slack_hat >= -1e-10

    def test_circuit_tables(self):
        Z, Y, Yhat, Zhat = circuit_realizations()
        cert = find_certificate(Z, 0.75)
        got, slack_hat = invert_with_certificate(Z, cert.H, 0.75)
        assert slack_hat >= -1e-10
        assert np.allclose(got.array.real, Yhat.array.real, atol=1e-12)
        certY = find_certificate(Y, 0.75)
        gotZ, slackZ = invert_with_certificate(Y, certY.H, 0.75)
        assert slackZ >= -1e-10
        assert np.allclose(gotZ.array.real, Zhat.array.real, atol=1e-12)
        assert abs(gotZ.D[0, 0].real - 2.0) < 1e-12  # feedthrough R1 + R2

    def test_requires_nonsingular_weight(self):
        R = f_s2_over_s1()
        cert = find_certificate(R, 0.5)
        with pytest.raises(ValueError, match="T > 0"):
            invert_with_certificate(R, cert.H, 0.0)


class TestNormalizeInternallyPassive:
    def test_balanced_family_fixed_point(self):
        from conftest import hull_vertex

        V = hull_vertex(1.0, 1.0, 1.0)
        out = normalize_internally_passive(V, np.eye(2))
        assert np.abs(out.array - V.array).max() < 1e-10

    def test_scalar_rescaling(self):
        R = f_s2_over_s1()
        out = normalize_internally_passive(R, [[4.0]])
        assert abs(out.B[0, 0] - 2.0) < 1e-12  # states scaled by 2
        svals = 1j * np.concatenate([[0.0], np.logspace(-2, 2, 60)])
        assert transfer_gap(out, R, svals) < 1e-9

    def test_identity_is_noop(self):
        R = f_s2_over_s1()
        out = normalize_internally_passive(R, np.eye(1))
        assert np.abs(out.array - R.array).max() < 1e-14

    def test_slack_sign_preserved(self):
        R = f_s2_over_s1()
        cert = find_certificate(R, 0.79)
        out = normalize_internally_passive(R, cert.H)
        assert verify_certificate(out, np.eye(1), 0.79) >= -1e-10


@pytest.fixture(scope="module")
def pool(fast_grid):
    rng = np.random.default_rng(101)
    return random_certified_pool(rng, 50, n_max=2, beta_floor=0.1, grid=fast_grid)


class TestRandomizedGuarantees:
    def test_completeness_at_margin(self, pool, fast_grid):
        # minimal systems with usable margin always certify
        for R, bm in pool:
            if not pbh_test(R).minimal:
                continue
            beta = max(bm - 0.05, 0.5 * bm)
            cert = find_certificate(R, beta)
            assert cert is not None, f"no certificate at beta={beta} (beta_max={bm})"

    def test_soundness(self, pool, fast_grid):
        # a verified certificate implies sweep membership
        for R, bm in pool[:25]:
            beta = 0.8 * bm
            cert = find_certificate(R, beta)
            if cert is None:
                continue
            assert verify_certificate(R, cert.H, cert.T) >= -1e-9
            assert sweep_membership(R, ClassSpec("HP", beta), fast_grid).member

    def test_certificate_reuse_and_inertia(self, pool):
        for R, bm in pool[:25]:
            beta = max(bm - 0.05, 0.5 * bm)
            cert = find_certificate(R, beta)
            if cert is None or cert.slack < 1e-12:
                continue
            R_hat, slack_hat = invert_with_certificate(R, cert.H, beta)
            tau = 1e-8 * (1.0 + np.abs(R.array).max())
            assert slack_hat >= -10 * tau
            rep = observability_inertia_check(R, cert.H, beta)
            if rep.obs_ac:
                assert rep.eig_split == (R.n, R.m)


class TestCertificateFiles:
    def test_round_trip_and_validation(self):
        R = f_s2_over_s1()
        cert = find_certificate(R, 0.7)
        data = certificate_to_dict(cert)
        back = certificate_from_dict(data)
        assert validate_certificate(R, back) == pytest.approx(cert.slack, abs=1e-12)

    def test_tampered_slack_rejected(self):
        R = f_s2_over_s1()
        cert = find_certificate(R, 0.7)
        data = certificate_to_dict(cert)
        data["slack"] = data["slack"] + 1.0
        with pytest.raises(ValueError, match="match"):
            validate_certificate(R, certificate_from_dict(data))

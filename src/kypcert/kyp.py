"""State-space certificates for quantitative positive-real membership.

A Hermitian H > 0 certifies that the transfer function of R = [[A, B], [C, D]]
lies in HP(T), 0 <= T < I, with class form Theta = [[X, V], [V, Y]] =
[[-T, I], [I, -T]], when

    S(H) = [[-H A - A* H, -H B], [-B* H, 0]] + G* Theta G,  G = [[C, D], [0, I]]

is positive semidefinite: the KYP lemma for a quadratic supply rate (Willems
1971, Rantzer 1996). Verification is a single Hermitian eigensolve. The
Popov Hamiltonian reads the blocks C* X C, S = C* (X D + V) and W (the slack
at s = inf) of G* Theta G = [[C* X C, S], [S*, W]].
The search for H goes through an algebraic Riccati equation (the Schur
complement of the D-block of S) solved by the Hamiltonian invariant
subspace when that block is definite; both extremal Riccati solutions and
their midpoint are kept as candidates, and the largest slack wins. Each
extremal solution leaves S(H) singular, and since S(H) is affine in H, so
does the midpoint when n > m: the two extremal kernels meet in at least
n - m dimensions. All three slacks are then zero to the accuracy of the
solve, of either sign (-2.1e-7, -1.2e-14 and -1.0e-7 on one n = 20, m = 4
input); only for n <= m can the midpoint's slack be strictly positive.
When the Riccati path fails, two H-independent parts of S are tested before
anything else: the D-block itself, and the Popov slack F + F* - F* T F - T
midway between the frequencies where the Hamiltonian meets the imaginary
axis (the level-set idea of Boyd, Balakrishnan and Kabamba), which
``classes._popov_hamiltonian`` returns with it. A negative value there
bounds the slack of every H, so the search stops with a proof of
infeasibility before scipy is even imported. Without such a witness, as for
a singular D-block or a slack that only touches zero, the same Riccati
equation is solved once more for the strict inequality S(H) + eps I >= 0,
with eps half the tolerated slack floor. Every candidate is verified against
the unshifted S(H), so soundness never rests on a Riccati solve.

Certified realization arrays are nonsingular for nonsingular weights, and
their plain matrix inverses are certified by the *same* (H, T); that reuse,
and the eigenvalue split of the array it relies on, are exposed here too.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .classes import _axis_frequencies, _gram_blocks, _popov_hamiltonian
from .hermat import _spectrum, hermitian_power, is_pd, min_eig, psd_tolerance, require_hermitian
from .qmi import _class_form, membership_slack_matrix, weight_matrix
from .realization import (
    Realization,
    _pbh_rank_loss,
    array_inverse,
    decode_matrix,
    encode_matrix,
    evaluate_grid,
    pbh_test,
    similarity,
)

__all__ = [
    "Certificate",
    "InertiaSplitReport",
    "kyp_slack_matrix",
    "verify_certificate",
    "find_certificate",
    "infeasibility_witness",
    "observability_inertia_check",
    "invert_with_certificate",
    "normalize_internally_passive",
    "certificate_to_dict",
    "certificate_from_dict",
    "validate_certificate",
]


@dataclass
class Certificate:
    """A verified (H, T) pair with the achieved smallest slack eigenvalue."""

    H: np.ndarray
    T: np.ndarray
    slack: float
    method: str = "user-supplied"


def _gram(R: Realization, form) -> np.ndarray:
    """G* Theta G for G = [[C, D], [0, I]] and the form matrix Theta of ``form``."""
    CXC, S, W = _gram_blocks(R, form)
    G = np.block([[CXC, S], [S.conj().T, W]])
    return 0.5 * (G + G.conj().T)


def _slack_matrix(R: Realization, H: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """S(H) = [[-H A - A* H, -H B], [-B* H, 0]] + ``gram``; exactly Hermitian if H and gram are."""
    J = np.zeros_like(gram)  # [[H A, H B], [0, 0]]
    J[: R.n, : R.n], J[: R.n, R.n :] = H @ R.A, H @ R.B
    return gram - (J + J.conj().T)


def _checked_pair(R: Realization, H, T, definite: bool = True):
    """(H, T) for R after the checks of a public entry point; the first fault raises.

    In order: R is square, H is Hermitian and n x n, H > 0 (if ``definite``), T is a weight.
    """
    if R.p != R.m:
        raise ValueError("certification requires a square realization array")
    H = require_hermitian(H, "H")
    if H.shape != (R.n, R.n):
        raise ValueError(f"H must be {R.n}x{R.n}")
    if definite:
        w, tau = _spectrum(H)
        if np.any(w <= tau):
            raise ValueError("certificate matrix H must be positive definite")
    return H, weight_matrix(T, R.m)


def _slack(R: Realization, H: np.ndarray, T: np.ndarray) -> np.ndarray:
    """S(H) of a checked pair (H, T)."""
    return _slack_matrix(R, H, _gram(R, _class_form("HP", T)))


def kyp_slack_matrix(R: Realization, H, T) -> np.ndarray:
    """The (n+m) x (n+m) Hermitian slack of the certificate inequality."""
    return _slack(R, *_checked_pair(R, H, T, definite=False))


def verify_certificate(R: Realization, H, T) -> float:
    """Smallest eigenvalue of the certificate slack; >= -tau certifies membership."""
    return min_eig(_slack(R, *_checked_pair(R, H, T)))


def _require_certified(R: Realization, H: np.ndarray, T: np.ndarray, failure: str) -> None:
    """Raise ValueError unless the checked pair (H, T) certifies R within the PSD zero band.

    The message is ``failure`` followed by the achieved slack.
    """
    w, tau = _spectrum(_slack(R, H, T))
    if np.any(w < -tau):
        raise ValueError(f"{failure} (slack {w[0]:.3e})")


# ---------------------------------------------------------------------------
# certificate search

SLACK_FLOOR = -1e-6  # smallest certificate slack the search and the CLI accept


class _RiccatiFailure(np.linalg.LinAlgError):
    """Why the Riccati path failed, with what the witness test needs from it.

    ``wmin`` is the smallest eigenvalue of the D-block of the slack, and
    ``crossings`` the frequencies where the Hamiltonian meets the imaginary
    axis; None when there is no Hamiltonian or the failure came later.
    """

    def __init__(self, reason: str, wmin: float, crossings: np.ndarray | None = None):
        super().__init__(reason)
        self.wmin = wmin
        self.crossings = crossings


def _care_extremal(R: Realization, T: np.ndarray, eps: float = 0.0):
    """Extremal Hermitian solutions of the certificate Riccati equation.

    They are read off the stable / antistable invariant subspaces of the
    Hamiltonian of ``_popov_hamiltonian`` (shifted by ``eps``). Raises
    _RiccatiFailure when the D-block is not definite, the Hamiltonian touches
    the imaginary axis or an invariant subspace is unusable.
    """
    n = R.n
    wmin, M, crossings = _popov_hamiltonian(R, _class_form("HP", T), eps)
    if M is None:
        raise _RiccatiFailure("D-block of the slack is not positive definite", wmin)
    if crossings.size:
        raise _RiccatiFailure("Hamiltonian spectrum touches the imaginary axis", wmin, crossings)
    import scipy.linalg  # deferred: it is most of the import time of kypcert

    sols = []
    for sort in ("lhp", "rhp"):
        TT, Z, sdim = scipy.linalg.schur(M, output="complex", sort=sort)
        if sdim != n:
            raise _RiccatiFailure("invariant subspace has wrong dimension", wmin)
        X = Z[:n, :n]
        Y = Z[n:, :n]
        if 1.0 / np.linalg.cond(X) < 1e-12:
            raise _RiccatiFailure("invariant subspace basis is singular", wmin)
        Hs = Y @ np.linalg.inv(X)
        sols.append(0.5 * (Hs + Hs.conj().T))
    return sols[0], sols[1]


def _witness(R: Realization, T: np.ndarray, wmin: float, crossings, floor: float):
    """(omega, bound) with lambda_min S(H) <= bound < floor for every H, or None.

    ``wmin``, the smallest eigenvalue of the D-block, is the slack at omega =
    inf. Otherwise the Popov slack Phi(jw) = F + F* - F* T F - T, the HP(T)
    membership slack, is tried at the midpoints between neighbouring
    Hamiltonian ``crossings`` (Phi is singular at the crossings themselves):
    for u = [(jwI - A)^{-1} B v; v] the H terms of u* S(H) u cancel, leaving
    v* Phi v, so v* Phi v / |u|^2 with v the bottom eigenvector of Phi bounds
    the slack of every H from above.
    """
    if wmin < floor:
        return math.inf, wmin
    if crossings is None:
        return None
    om = _axis_frequencies(R, crossings)
    if om.size == 0:
        return None
    F, X = evaluate_grid(R, 1j * om, _state=True)
    w, V = np.linalg.eigh(membership_slack_matrix(_class_form("HP", T), F))
    v = V[:, :, 0]
    Xv = np.einsum("kij,kj->ki", X, v)
    bound = w[:, 0] / (1.0 + np.sum(np.abs(Xv) ** 2, axis=1))
    k = int(np.argmin(bound))
    if bound[k] < floor:
        return float(om[k]), float(bound[k])
    return None


def infeasibility_witness(R: Realization, T, floor: float = SLACK_FLOOR):
    """A frequency proving that no H reaches certificate slack ``floor``.

    Returns (omega, bound) with lambda_min S(H) <= bound < floor for every
    Hermitian H, or None when neither the D-block (omega = inf) nor the
    Popov slack between neighbouring crossings of the certificate
    Hamiltonian gives one. None proves nothing: a singular D-block, or a
    slack that only touches ``floor``, yields no witness.
    """
    if R.p != R.m:
        raise ValueError("certification requires a square realization array")
    T = weight_matrix(T, R.m)
    wmin, _, crossings = _popov_hamiltonian(R, _class_form("HP", T))
    return _witness(R, T, wmin, crossings, floor)


def _spectral_ascent(*args, **kwargs):
    """Name of the removed spectral-ascent search; never called.

    The benchmark's per-layer tracer (bench/tracing.py) still wraps this
    name. Delete it together with that layer.
    """
    raise NotImplementedError("the shifted Riccati solve replaced the spectral ascent")


def find_certificate(R: Realization, T) -> Certificate | None:
    """Search for a positive definite H certifying weight T.

    Returns None when no H with slack above ``SLACK_FLOOR`` is found. When
    the Riccati path fails and ``infeasibility_witness`` finds a D-block or
    crossing witness, None comes at once and proves, for any realization,
    that no H reaches ``SLACK_FLOOR``. Otherwise the Riccati equation of
    S(H) + eps I >= 0, eps = -SLACK_FLOOR / 2, is solved, and None after
    that is not a proof; only then does a non-minimal realization draw a
    warning, since the converse direction of the certificate theory needs
    minimality. The search is deterministic.
    """
    if R.p != R.m:
        raise ValueError("certification requires a square realization array")
    T = weight_matrix(T, R.m)
    if R.n == 0:
        # no state: the slack matrix is constant in H
        slack = min_eig(_gram(R, _class_form("HP", T)))
        if slack >= SLACK_FLOOR:
            return Certificate(H=np.zeros((0, 0)), T=T, slack=slack, method="riccati")
        return None

    candidates: list[tuple[float, np.ndarray, str]] = []

    def _consider(eps, method):
        # the extremal solutions and their midpoint, each verified unshifted
        Hm, Hp = _care_extremal(R, T, eps)
        gram = _gram(R, _class_form("HP", T))
        for H in (Hm, Hp, 0.5 * (Hm + Hp)):
            if is_pd(H):
                candidates.append((min_eig(_slack_matrix(R, H, gram)), H, method))

    try:
        _consider(0.0, "riccati")
    except _RiccatiFailure as exc:
        # a negative D-block or a slack crossing proves infeasibility; a
        # singular D-block, a touching slack or an unusable invariant
        # subspace leaves the shifted solve
        if _witness(R, T, exc.wmin, exc.crossings, SLACK_FLOOR) is not None:
            return None

    best = max(candidates, key=lambda c: c[0]) if candidates else None
    boundary_noise = 1e-9 * (1.0 + np.linalg.norm(R.array))
    if best is None or best[0] < -boundary_noise:
        try:
            _consider(-0.5 * SLACK_FLOOR, "riccati-shifted")
        except _RiccatiFailure:
            pass  # no usable shifted solution: None, and not a proof
        best = max(candidates, key=lambda c: c[0]) if candidates else None

    if best is None or best[0] < SLACK_FLOOR:
        if not pbh_test(R).minimal:
            warnings.warn(
                "realization is not minimal; certificate search may be conservative",
                stacklevel=2,
            )
        return None
    slack, H, method = best
    return Certificate(H=H, T=T, slack=slack, method=method)


# ---------------------------------------------------------------------------
# structural consequences of a certificate


@dataclass(frozen=True)
class InertiaSplitReport:
    """Observability transfer and half-plane eigenvalue split of the array."""

    obs_ac: bool
    obs_rq: bool
    left_count: int
    right_count: int
    split_defined: bool

    @property
    def eig_split(self) -> tuple[int, int]:
        return (self.left_count, self.right_count)


def observability_inertia_check(R: Realization, H, T) -> InertiaSplitReport:
    """Observability of (A, C) versus (R, Q), and the array eigenvalue split.

    Q is the weighted quadratic term of the certificate inequality. For a
    nonsingular weight the two observability verdicts coincide, and a
    certified observable array has exactly n eigenvalues in the open left
    half-plane and m in the open right one; an eigenvalue inside the zero
    band leaves the split undefined.
    """
    T = weight_matrix(T, R.m)
    obs_ac = not _pbh_rank_loss(R.A, R._modal.lam, R.C)[0].any()
    Q = _gram(R, _class_form("P", np.zeros_like(T))) - _gram(R, _class_form("HP", T))
    M = R.array
    k = R.n + R.m
    lam = np.linalg.eigvals(M)
    obs_rq = not _pbh_rank_loss(M, lam, Q)[0].any()
    tau = psd_tolerance(M)
    left = int(np.sum(lam.real < -tau))
    right = int(np.sum(lam.real > tau))
    return InertiaSplitReport(
        obs_ac=obs_ac,
        obs_rq=obs_rq,
        left_count=left,
        right_count=right,
        split_defined=(left + right == k),
    )


def invert_with_certificate(R: Realization, H, T) -> tuple[Realization, float]:
    """Array-invert a certified realization and re-verify with the same (H, T).

    The slack of the inverse is the original slack congruence-transported by
    the inverse array, so positive semidefiniteness carries over exactly.
    """
    H, T = _checked_pair(R, H, T)
    if not is_pd(T):
        raise ValueError("certificate reuse under inversion requires T > 0")
    _require_certified(R, H, T, "input certificate does not verify; nothing to reuse")
    R_hat = array_inverse(R)
    return R_hat, min_eig(_slack(R_hat, H, T))


def normalize_internally_passive(R: Realization, H) -> Realization:
    """State change x -> H^{1/2} x, turning a certificate (H, T) into (I, T).

    The slack matrix transforms by congruence with diag(H^{-1/2}, I), so the
    certified inequality survives with identity certificate. Realizations
    already certified by H = I are returned unchanged.
    """
    H = require_hermitian(H, "H")
    if R.n == 0:
        return R
    if not is_pd(H):
        raise ValueError("H must be positive definite")
    # similarity with V = H^{-1/2}: A -> H^{1/2} A H^{-1/2}, B -> H^{1/2} B
    return similarity(R, hermitian_power(H, -0.5))


# ---------------------------------------------------------------------------
# certificate files


def certificate_to_dict(cert: Certificate) -> dict:
    return {
        "H": encode_matrix(cert.H),
        "T": encode_matrix(cert.T),
        "slack": cert.slack,
        "method": cert.method,
    }


def certificate_from_dict(data: dict) -> Certificate:
    return Certificate(
        H=decode_matrix(data["H"]),
        T=decode_matrix(data["T"]),
        slack=float(data["slack"]),
        method=str(data.get("method", "user-supplied")),
    )


def validate_certificate(R: Realization, cert: Certificate) -> float:
    """Recompute the slack and check it matches the stored value to 1e-9."""
    slack = verify_certificate(R, cert.H, cert.T)
    if abs(slack - cert.slack) > 1e-9 * (1.0 + abs(cert.slack)):
        raise ValueError(
            f"stored slack {cert.slack!r} does not match recomputed {slack!r}"
        )
    return slack

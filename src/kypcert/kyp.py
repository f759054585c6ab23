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
subspaces when that block is definite: spanned by the Hamiltonian's
eigenvectors (Potter 1966), or by an ordered Schur form of scipy (Laub 1979)
when the eigenvector basis is ill-conditioned. Both extremal Riccati
solutions and their midpoint are kept as candidates. The largest slack
wins; candidates within its zero band tie, and of those the midpoint is
returned when it ties, else the first found. Each extremal solution leaves
S(H) singular, and since S(H) is affine in H, so does the midpoint when
n > m: the two extremal kernels meet in at least n - m dimensions. All
three slacks are then zero to the accuracy of the solve, of either sign
(-2.1e-7, -1.2e-14 and -1.0e-7 on one n = 20, m = 4 input); only for n <= m
can the midpoint's slack be strictly positive.
A negative D-block (the slack at s = inf) ends the search before any
solve. When the unshifted Riccati solve certifies nothing, the exact
sweep's sign test (one step of ``classes._level_set``, the level-set idea
of Boyd, Balakrishnan and Kabamba) looks for a point on the axis where the
Popov slack F + F* - F* T F - T is negative: such a point bounds the slack
of every H, so the search stops with a proof of infeasibility. Without one,
as for a singular D-block or a slack that only touches zero, the same loop
solves the Riccati equation once more for S(H) + eps I >= 0, eps half the
tolerated slack floor. Every candidate is verified against the unshifted
S(H): soundness never rests on a Riccati solve.

Certified realization arrays are nonsingular for nonsingular weights, and
their plain matrix inverses are certified by the *same* (H, T); that reuse,
and the eigenvalue split of the array it relies on, are exposed here too.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .classes import _batched_slack, _gram_blocks, _level_set, _popov_hamiltonian
from .hermat import _band, _singular, _spectrum, hermitian_power, is_pd, min_eig, require_hermitian
from .qmi import _class_form, membership_slack_matrix, weight_matrix
from .realization import (
    Realization,
    _pbh_rank_loss,
    _well_conditioned,
    array_inverse,
    decode_matrix,
    encode_matrix,
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


def _care_extremal(R: Realization, T: np.ndarray, eps: float = 0.0):
    """Extremal Hermitian solutions of the certificate Riccati equation.

    They are read off the stable / antistable invariant subspaces of the
    Hamiltonian of ``_popov_hamiltonian`` (shifted by ``eps``): spanned by
    its eigenvectors (Potter 1966) when the eigenvector basis passes the
    conditioning rule of ``realization._well_conditioned``, and by an ordered
    Schur form of scipy (Laub 1979) otherwise. Raises LinAlgError, which
    proves nothing, when the D-block is not definite, the Hamiltonian
    touches the imaginary axis (an eigenvalue of that one eigensolve within
    ``_band`` of it) or an invariant subspace is unusable.
    """
    n = R.n
    M = _popov_hamiltonian(R, _class_form("HP", T), eps)
    if M is None:
        raise np.linalg.LinAlgError("D-block of the slack is not positive definite")
    ev, Z = np.linalg.eig(M if M.imag.any() else M.real)
    if np.any(np.abs(ev.real) <= _band(ev)):
        raise np.linalg.LinAlgError("Hamiltonian spectrum touches the imaginary axis")
    if _well_conditioned(Z):
        bases = [np.linalg.qr(Z[:, half])[0] for half in (ev.real < 0, ev.real > 0)]
    else:
        import scipy.linalg  # deferred: it is most of the import time of kypcert

        bases = []
        for sort in ("lhp", "rhp"):
            _, Q, sdim = scipy.linalg.schur(M, output="complex", sort=sort)
            bases.append(Q[:, :sdim])
    sols = []
    for U in bases:
        if U.shape[1] != n:
            raise np.linalg.LinAlgError("invariant subspace has wrong dimension")
        X = U[:n]
        Y = U[n:]
        if _singular(X):
            raise np.linalg.LinAlgError("invariant subspace basis is singular")
        Hs = Y @ np.linalg.inv(X)
        sols.append(0.5 * (Hs + Hs.conj().T))
    return sols[0], sols[1]


def _d_block(R: Realization, form):
    """(lambda_min, zero band) of the D-block W, the slack at s = inf.

    W is the matrix ``_popov_hamiltonian`` tests, so W within its band has no
    unshifted Hamiltonian.
    """
    w, tau = _spectrum(_gram_blocks(R, form)[2])
    return float(w[0]), float(tau)


def _witness(R: Realization, form, wmin: float, band: float):
    """(omega, bound) with lambda_min S(H) <= bound < 0 for every H, or None.

    W below its zero band (``_d_block``) gives (inf, wmin); a W within it has
    no Hamiltonian and, as in the exact sweep, no sign test. Otherwise one
    step of ``classes._level_set`` runs on the Popov slack
    Phi(jw) = F + F* - F* T F - T: at w = 0 and the pole frequencies, then
    at the level points of the unshifted Hamiltonian. The first finite w
    with lambda_min Phi below its zero band is the witness; A need not be
    Hurwitz, and a point at a pole on the axis gives NaN and is passed over.
    For u = [(jwI - A)^{-1} B v; v] the H terms of u* S(H) u cancel, leaving
    v* Phi v, so v* Phi v / |u|^2 with v the bottom eigenvector of Phi
    bounds the slack of every H from above.
    """
    if wmin < -band:
        return math.inf, wmin
    if wmin <= band:
        return None
    steps = 0

    def level_test(values):
        nonlocal steps
        steps += 1
        lo, _, tau = values
        if steps > 1 or np.any(lo < -tau):
            return None, None
        return 0.0, _popov_hamiltonian(R, form)

    om, (lo, _, tau), _, _ = _level_set(R, lambda E: _batched_slack(form, E), level_test)
    bad = np.flatnonzero((lo < -tau) & np.isfinite(om))
    if not bad.size:
        return None
    omega = float(om[bad[0]])
    X = np.linalg.solve(1j * omega * np.eye(R.n) - R.A, R.B)
    w, V = np.linalg.eigh(membership_slack_matrix(form, R.C @ X + R.D))
    x = X @ V[:, 0]
    return omega, float(w[0] / (1.0 + np.vdot(x, x).real))


def infeasibility_witness(R: Realization, T):
    """A frequency proving that no H certifies weight T.

    Returns (omega, bound) with lambda_min S(H) <= bound < 0 for every
    Hermitian H, or None: ``_witness`` on the D-block. With a definite
    D-block and no pole on the axis the test is exact, so None means the
    HP(T) slack is nonnegative on the axis up to its zero band; for a
    D-block within its zero band None proves nothing.
    """
    if R.p != R.m:
        raise ValueError("certification requires a square realization array")
    form = _class_form("HP", weight_matrix(T, R.m))
    return _witness(R, form, *_d_block(R, form))


def _spectral_ascent(*args, **kwargs):
    """Name of the removed spectral-ascent search; never called.

    The benchmark's per-layer tracer (bench/tracing.py) still wraps this
    name. Delete it together with that layer.
    """
    raise NotImplementedError("the shifted Riccati solve replaced the spectral ascent")


def find_certificate(R: Realization, T) -> Certificate | None:
    """Search for a positive definite H certifying weight T.

    Returns None when no H with slack above ``SLACK_FLOOR`` is found. A
    witness of ``infeasibility_witness`` (a negative D-block before any
    Riccati solve, else the sign test after the unshifted one) ends the
    search at once with None, which proves for any realization that no H
    certifies T. Otherwise the loop solves the Riccati equation of
    S(H) + eps I >= 0, eps = -SLACK_FLOOR / 2; None after that is no proof,
    and only then does a non-minimal realization draw a warning (the
    converse of the KYP lemma needs minimality). Of the candidates whose
    slack lies within the zero band of the best one, the midpoint of the
    extremal solutions is returned when it is among them, else the first
    found, so the search is deterministic.
    """
    return _search(R, T)[0]


def _search(R: Realization, T):
    """``find_certificate``, and the witness (omega, bound) that ended a failed search, or None."""
    if R.p != R.m:
        raise ValueError("certification requires a square realization array")
    T = weight_matrix(T, R.m)
    form = _class_form("HP", T)
    wmin, band = _d_block(R, form)
    if wmin < -band:
        return None, (math.inf, wmin)

    found = []  # (slack, band, H, method, midpoint) in search order
    best = None  # the first of the largest slack in ``found``
    for eps, method in ((0.0, "riccati"), (-0.5 * SLACK_FLOOR, "riccati-shifted")):
        if best is not None and best[0] >= -best[1]:
            break
        if eps:
            # the unshifted solve certified nothing: a negative slack on the
            # axis proves infeasibility, else a touching slack or a singular
            # D-block goes to the shifted solve, whose failure proves nothing
            witness = _witness(R, form, wmin, band)
            if witness is not None:
                return None, witness
        elif wmin <= band:
            continue  # no unshifted Hamiltonian: only the shifted solve can certify
        try:
            Hm, Hp = _care_extremal(R, T, eps)
        except np.linalg.LinAlgError:
            continue
        gram = _gram(R, form)
        for k, H in enumerate((Hm, Hp, 0.5 * (Hm + Hp))):
            if is_pd(H):
                w, tau = _spectrum(_slack_matrix(R, H, gram))
                found.append((float(w[0]), tau, H, method, k == 2))
        if found:
            best = max(found, key=lambda c: c[0])

    if best is None or best[0] < SLACK_FLOOR:
        if not pbh_test(R).minimal:
            warnings.warn(
                "realization is not minimal; certificate search may be conservative",
                stacklevel=3,
            )
        return None, None
    # slacks within the best one's zero band tie, and rounding alone would
    # pick among them: take the midpoint when it ties, else the first found
    tied = [c for c in found if c[0] >= max(best[0] - best[1], SLACK_FLOOR)]
    slack, _, H, method, _ = next((c for c in tied if c[4]), tied[0])
    return Certificate(H=H, T=T, slack=slack, method=method), None


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
    half-plane and m in the open right one; an eigenvalue whose real part
    lies inside the band ``hermat._band`` of the array's eigenvalues leaves
    the split undefined. R, H and T are checked as a pair, but the report
    depends on R and T alone, not on H.
    """
    _, T = _checked_pair(R, H, T, definite=False)
    obs_ac = not _pbh_rank_loss(R.A, R._modal.lam, R.C)[0].any()
    Q = _gram(R, _class_form("P", np.zeros_like(T))) - _gram(R, _class_form("HP", T))
    M = R.array
    lam = np.linalg.eigvals(M)
    obs_rq = not _pbh_rank_loss(M, lam, Q)[0].any()
    tau = _band(lam)
    left = int(np.sum(lam.real < -tau))
    right = int(np.sum(lam.real > tau))
    return InertiaSplitReport(
        obs_ac=obs_ac,
        obs_rq=obs_rq,
        left_count=left,
        right_count=right,
        split_defined=(left + right == lam.size),
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

"""State-space certificates for quantitative positive-real membership.

A Hermitian H > 0 certifies that the transfer function of R = [[A, B], [C, D]]
lies in the weighted class with weight 0 <= T < I when the block matrix

    S(H) = diag(-H, I) R + R* diag(-H, I) - G* diag(T, T) G,
    G = [[C, D], [0, I]]

is positive semidefinite. Verification is a single Hermitian eigensolve.
The search for H goes through an algebraic Riccati equation (the Schur
complement of the D-block of S) solved by the Hamiltonian invariant
subspace when that block is definite; both extremal Riccati solutions and
their midpoint are kept as candidates, the midpoint typically giving a
strictly interior slack. When the Riccati path fails, two H-independent
parts of S are tested before anything else: the D-block itself, and the
Popov slack F + F* - F* T F - T at the frequencies where the Hamiltonian
meets the imaginary axis (the level-set idea of Boyd, Balakrishnan and
Kabamba). A negative value there bounds the slack of every H, so the search
stops with a proof of infeasibility. Without such a witness, as for a
singular D-block or a slack that only touches zero, the same Riccati
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

from .classes import POLE_SKIP_TOL
from .hermat import hermitian_power, min_eig, psd_tolerance, require_hermitian
from .realization import (
    Realization,
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


def _expand_weight(T, m: int) -> np.ndarray:
    if T is None:
        return np.zeros((m, m), dtype=complex)
    if np.isscalar(T):
        beta = float(T)
        if not 0.0 <= beta < 1.0:
            raise ValueError(f"scalar weight must lie in [0, 1), got {beta}")
        return beta * np.eye(m, dtype=complex)
    T = require_hermitian(T, "T")
    if T.shape != (m, m):
        raise ValueError(f"weight must be {m}x{m}")
    w = np.linalg.eigvalsh(T)
    if w[0] < -psd_tolerance(T) or w[-1] >= 1.0:
        raise ValueError("weight must satisfy 0 <= T < I")
    return T


def _gamma(R: Realization) -> np.ndarray:
    return np.block(
        [
            [R.C, R.D],
            [np.zeros((R.m, R.n)), np.eye(R.m)],
        ]
    )


def kyp_slack_matrix(R: Realization, H, T) -> np.ndarray:
    """The (n+m) x (n+m) Hermitian slack of the certificate inequality."""
    if R.p != R.m:
        raise ValueError("certification requires a square realization array")
    H = require_hermitian(H, "H")
    if H.shape != (R.n, R.n):
        raise ValueError(f"H must be {R.n}x{R.n}")
    T = _expand_weight(T, R.m)
    J = np.block(
        [
            [-H, np.zeros((R.n, R.m))],
            [np.zeros((R.m, R.n)), np.eye(R.m)],
        ]
    )
    G = _gamma(R)
    TT = np.block(
        [[T, np.zeros_like(T)], [np.zeros_like(T), T]]
    )
    S = J @ R.array + R.array.conj().T @ J - G.conj().T @ TT @ G
    return 0.5 * (S + S.conj().T)


def verify_certificate(R: Realization, H, T) -> float:
    """Smallest eigenvalue of the certificate slack; >= -tau certifies membership."""
    H = require_hermitian(H, "H")
    if R.n and np.linalg.eigvalsh(H)[0] <= psd_tolerance(H):
        raise ValueError("certificate matrix H must be positive definite")
    return min_eig(kyp_slack_matrix(R, H, T))


# ---------------------------------------------------------------------------
# certificate search

_AXIS_TOL = 1e-9  # relative distance at which a Hamiltonian eigenvalue is on the axis
SLACK_FLOOR = -1e-6  # smallest certificate slack the search and the CLI accept


class _RiccatiFailure(np.linalg.LinAlgError):
    """Why the Riccati path failed, with what the witness test needs from it.

    ``W`` is the D-block of the slack. ``spectrum`` holds the Hamiltonian
    eigenvalues when they touch the imaginary axis, and is None otherwise.
    """

    def __init__(self, reason: str, W: np.ndarray, spectrum: np.ndarray | None = None):
        super().__init__(reason)
        self.W = W
        self.spectrum = spectrum


def _popov_hamiltonian(R: Realization, T: np.ndarray, eps: float = 0.0):
    """D-block W and Hamiltonian M of the certificate Riccati equation.

    Eliminating the (definite) D-block W = D + D* - T - D* T D of S(H) by a
    Schur complement turns S(H) >= 0 into a Riccati inequality in H;
    equality gives

        H Abar + Abar* H - H Rr H - Qbar = 0

    with Hamiltonian M = [[Abar, -Rr], [Qbar, -Abar*]]. An eigenvalue j*w of
    M marks a frequency -w where the Popov slack F + F* - F* T F - T turns
    singular. With ``eps`` the same is done for S(H) + eps I >= 0: W + eps I
    is the D-block and Qbar - eps I the Riccati constant. Raises
    _RiccatiFailure when W is not positive definite or the spectrum of M
    touches the imaginary axis.
    """
    n, m = R.n, R.m
    A, B, C, D = R.A, R.B, R.C, R.D
    W = D + D.conj().T - T - D.conj().T @ T @ D
    W = 0.5 * (W + W.conj().T) + eps * np.eye(m)
    if np.linalg.eigvalsh(W)[0] <= psd_tolerance(W):
        raise _RiccatiFailure("D-block of the slack is not positive definite", W)
    Wi = np.linalg.inv(W)
    K = (np.eye(m) - T @ D).conj().T  # = I - D* T
    Abar = -A + B @ Wi @ K @ C
    Rr = B @ Wi @ B.conj().T
    Qbar = C.conj().T @ T @ C + C.conj().T @ K.conj().T @ Wi @ K @ C
    Qbar = 0.5 * (Qbar + Qbar.conj().T) - eps * np.eye(n)
    M = np.block([[Abar, -Rr], [Qbar, -Abar.conj().T]])
    ev = np.linalg.eigvals(M)
    if ev.size and np.abs(ev.real).min() <= _AXIS_TOL * (1.0 + np.abs(ev).max()):
        raise _RiccatiFailure("Hamiltonian spectrum touches the imaginary axis", W, ev)
    return W, M


def _care_extremal(R: Realization, T: np.ndarray, eps: float = 0.0):
    """Extremal Hermitian solutions of the certificate Riccati equation.

    They are read off the stable / antistable invariant subspaces of the
    Hamiltonian of ``_popov_hamiltonian`` (shifted by ``eps``). Raises
    _RiccatiFailure when the D-block is not definite, the Hamiltonian touches
    the imaginary axis or an invariant subspace is unusable.
    """
    import scipy.linalg  # deferred: it is most of the import time of kypcert

    n = R.n
    W, M = _popov_hamiltonian(R, T, eps)
    sols = []
    for sort in ("lhp", "rhp"):
        TT, Z, sdim = scipy.linalg.schur(M, output="complex", sort=sort)
        if sdim != n:
            raise _RiccatiFailure("invariant subspace has wrong dimension", W)
        X = Z[:n, :n]
        Y = Z[n:, :n]
        if 1.0 / np.linalg.cond(X) < 1e-12:
            raise _RiccatiFailure("invariant subspace basis is singular", W)
        Hs = Y @ np.linalg.inv(X)
        sols.append(0.5 * (Hs + Hs.conj().T))
    return sols[0], sols[1]


def _witness(R: Realization, T: np.ndarray, W: np.ndarray, spectrum, floor: float):
    """(omega, bound) with lambda_min S(H) <= bound < floor for every H, or None.

    The D-block is the slack at omega = inf. Otherwise the Popov slack
    Phi(jw) = F + F* - F* T F - T is tried at the crossings read off the
    Hamiltonian ``spectrum`` and at the midpoints between neighbours: for
    u = [(jwI - A)^{-1} B v; v] the H terms of u* S(H) u cancel, leaving
    v* Phi v, so v* Phi v / |u|^2 with v the bottom eigenvector of Phi
    bounds the slack of every H from above.
    """
    wmin = float(np.linalg.eigvalsh(W)[0])
    if wmin < floor:
        return math.inf, wmin
    if spectrum is None:
        return None
    on_axis = np.abs(spectrum.real) <= _AXIS_TOL * (1.0 + np.abs(spectrum).max())
    om = -spectrum[on_axis].imag
    if R.is_real:
        om = np.concatenate([om, -om])
    om = np.unique(om)
    om = np.concatenate([om, 0.5 * (om[1:] + om[:-1])])
    if R.is_real:
        om = om[om >= 0.0]  # Phi(-jw) is the conjugate of Phi(jw)
    lam = np.linalg.eigvals(R.A)
    om = om[np.abs(1j * om[:, None] - lam[None, :]).min(axis=1) > POLE_SKIP_TOL]
    if om.size == 0:
        return None
    n, m = R.n, R.m
    X = np.linalg.solve(
        1j * om[:, None, None] * np.eye(n) - R.A, np.broadcast_to(R.B, (om.size, n, m))
    )
    F = R.C @ X + R.D
    Fh = F.conj().transpose(0, 2, 1)
    Phi = F + Fh - Fh @ T @ F - T
    w, V = np.linalg.eigh(0.5 * (Phi + Phi.conj().transpose(0, 2, 1)))
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
    Hermitian H, or None when neither the D-block (omega = inf) nor a
    crossing of the Popov slack read off the certificate Hamiltonian gives
    one. None proves nothing: a singular D-block, or a slack that only
    touches ``floor``, yields no witness.
    """
    if R.p != R.m:
        raise ValueError("certification requires a square realization array")
    T = _expand_weight(T, R.m)
    try:
        W, _ = _popov_hamiltonian(R, T)
        spectrum = None
    except _RiccatiFailure as exc:
        W, spectrum = exc.W, exc.spectrum
    return _witness(R, T, W, spectrum, floor)


def _spectral_ascent(*args, **kwargs):
    """Name of the removed spectral-ascent search; never called.

    The benchmark's per-layer tracer (bench/tracing.py) still wraps this
    name. Delete it together with that layer.
    """
    raise NotImplementedError("the shifted Riccati solve replaced the spectral ascent")


def find_certificate(
    R: Realization,
    T,
    seed: int = 0,
    restarts: int = 5,
    iterations: int = 2000,
    infeasible_slack: float = SLACK_FLOOR,
) -> Certificate | None:
    """Search for a positive definite H certifying weight T.

    Returns None when no H with slack above ``infeasible_slack`` is found.
    When the Riccati path fails and ``infeasibility_witness`` finds a
    D-block or crossing witness, None comes at once and is a proof that no
    H reaches ``infeasible_slack``. Otherwise the Riccati equation of
    S(H) + eps I >= 0, eps = -infeasible_slack / 2, is solved, and None
    after that is not a proof. The search is deterministic: ``seed``,
    ``restarts`` and ``iterations`` are accepted for compatibility and
    ignored. Non-minimal realizations only draw a warning, since the
    converse direction of the certificate theory needs minimality.
    """
    if R.p != R.m:
        raise ValueError("certification requires a square realization array")
    T = _expand_weight(T, R.m)
    if R.n == 0:
        # no state: the slack matrix is constant in H
        slack = min_eig(kyp_slack_matrix(R, np.zeros((0, 0)), T))
        if slack >= infeasible_slack:
            return Certificate(H=np.zeros((0, 0)), T=T, slack=slack, method="riccati")
        return None
    if not pbh_test(R).minimal:
        warnings.warn(
            "realization is not minimal; certificate search may be conservative",
            stacklevel=2,
        )

    candidates: list[tuple[float, np.ndarray, str]] = []

    def _consider(eps, method):
        # the extremal solutions and their midpoint, each verified unshifted
        Hm, Hp = _care_extremal(R, T, eps)
        for H in (Hm, Hp, 0.5 * (Hm + Hp)):
            if np.linalg.eigvalsh(H)[0] > psd_tolerance(H):
                candidates.append((verify_certificate(R, H, T), H, method))

    try:
        _consider(0.0, "riccati")
    except _RiccatiFailure as exc:
        # a negative D-block or a slack crossing proves infeasibility; a
        # singular D-block, a touching slack or an unusable invariant
        # subspace leaves the shifted solve
        if _witness(R, T, exc.W, exc.spectrum, infeasible_slack) is not None:
            return None

    best = max(candidates, key=lambda c: c[0]) if candidates else None
    boundary_noise = 1e-9 * (1.0 + np.linalg.norm(R.array))
    if best is None or best[0] < -boundary_noise:
        try:
            _consider(-0.5 * infeasible_slack, "riccati-shifted")
        except _RiccatiFailure:
            pass  # no usable shifted solution: None, and not a proof
        best = max(candidates, key=lambda c: c[0]) if candidates else None

    if best is None or best[0] < infeasible_slack:
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
    T = _expand_weight(T, R.m)
    obs_ac = pbh_test(R).observable
    G = _gamma(R)
    TT = np.block([[T, np.zeros_like(T)], [np.zeros_like(T), T]])
    Q = G.conj().T @ TT @ G
    M = R.array
    k = R.n + R.m
    lam = np.linalg.eigvals(M)
    obs_rq = True
    eye = np.eye(k)
    for lv in lam:
        stack = np.vstack([M - lv * eye, Q])
        sv = np.linalg.svd(stack, compute_uv=False)
        rank = int(np.sum(sv > 1e-9 * sv[0])) if sv[0] > 0 else 0
        if rank < k:
            obs_rq = False
            break
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
    T = _expand_weight(T, R.m)
    w = np.linalg.eigvalsh(T)
    if w[0] <= psd_tolerance(T):
        raise ValueError("certificate reuse under inversion requires T > 0")
    slack = verify_certificate(R, H, T)
    tau = psd_tolerance(kyp_slack_matrix(R, H, T))
    if slack < -tau:
        raise ValueError(
            f"input certificate does not verify (slack {slack:.3e}); nothing to reuse"
        )
    R_hat = array_inverse(R)
    return R_hat, verify_certificate(R_hat, H, T)


def normalize_internally_passive(R: Realization, H) -> Realization:
    """State change x -> H^{1/2} x, turning a certificate (H, T) into (I, T).

    The slack matrix transforms by congruence with diag(H^{-1/2}, I), so the
    certified inequality survives with identity certificate. Realizations
    already certified by H = I are returned unchanged.
    """
    H = require_hermitian(H, "H")
    if R.n == 0:
        return R
    if np.linalg.eigvalsh(H)[0] <= psd_tolerance(H):
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


def _decode_square(rows) -> np.ndarray:
    if not rows:
        return np.zeros((0, 0), dtype=complex)
    return decode_matrix(rows)


def certificate_from_dict(data: dict) -> Certificate:
    return Certificate(
        H=_decode_square(data["H"]),
        T=_decode_square(data["T"]),
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

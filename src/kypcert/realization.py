"""State-space realization algebra.

A realization stores the block array

    R = [[A, B],
         [C, D]]

of a rational matrix function F(s) = C (sI - A)^{-1} B + D. The array is
treated both as system data and, where square and nonsingular, as a plain
matrix. Two different inversions live side by side here: ``function_inverse``
realizes F(s)^{-1}, while ``array_inverse`` inverts the block array itself
and generally yields a *different* rational function.

Each realization computes one eigendecomposition A = V diag(lam) V^{-1} the
first time it is needed and keeps it; poles, the PBH test, the Gramians and
every frequency response read it. When cond(V) <= _MODAL_COND_MAX the
response is the modal (pole-residue) sum

    F(s) = sum_j (C V)_j (V^{-1} B)_j / (s - lam_j) + D,

one (k, n) @ (n, p m) product for k points. A defective or nearly defective A
(a Jordan block, a repeated pole such as 1/(s + 1)^2) fails that test, and
the response falls back to one dense n x n solve per point.
"""

import json
from dataclasses import dataclass, fields
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .hermat import (
    _band,
    _check_lyapunov,
    _resonance_check,
    _singular,
    as_matrix,
    is_pd,
    solve_lyapunov,
)

__all__ = [
    "PoleError",
    "encode_matrix",
    "decode_matrix",
    "SingularArrayError",
    "Realization",
    "PoleInfo",
    "PbhReport",
    "BalancedForm",
    "evaluate",
    "evaluate_grid",
    "poles",
    "pbh_test",
    "similarity",
    "array_congruence",
    "function_inverse",
    "array_inverse",
    "gramians",
    "balance",
    "series_add",
    "adjoint_realization",
]


class PoleError(ValueError):
    """Evaluation point collides with a pole of the realization."""


class SingularArrayError(np.linalg.LinAlgError):
    """The realization array is singular as a matrix."""


_MODAL_COND_MAX = 1e4  # largest cond(V) for which an eigenvector basis V is used
# Largest number of multiply-adds in one product of the modal sum. OpenBLAS
# runs larger products on its worker threads, which a few hundred points do
# not repay; afterwards a worker spins for about 0.1 s and holds a core, and
# on a 2-vCPU machine a process started in that window (a cold `kypcert`
# call) took 0.15 s instead of 0.105 s.
_PRODUCT_SIZE_MAX = 1 << 16


def _well_conditioned(V: np.ndarray) -> bool:
    """True when an eigenvector matrix V is empty or cond(V) <= _MODAL_COND_MAX.

    The one rule for trusting an eigenbasis: the modal response and Gramians
    here, the eigenvector Riccati solve in ``kyp``.
    """
    return not V.size or np.linalg.cond(V) <= _MODAL_COND_MAX


class _Modal(NamedTuple):
    """Eigendecomposition A = V diag(lam) V^{-1} in the order LAPACK returns.

    ``V``, ``VinvB`` = V^{-1} B and ``residues`` (n, p, m), whose j-th slice is
    (C V)[:, j] (V^{-1} B)[j, :], are None when cond(V) > _MODAL_COND_MAX.
    """

    lam: np.ndarray
    V: np.ndarray | None = None
    VinvB: np.ndarray | None = None
    residues: np.ndarray | None = None


def _read_only(M: np.ndarray) -> np.ndarray:
    """A read-only copy of M."""
    M = M.copy()
    M.flags.writeable = False
    return M


def _freeze(value, names, convert=np.asarray) -> None:
    """Replace the named array fields of a frozen dataclass by read-only copies."""
    for name in names:
        object.__setattr__(value, name, _read_only(convert(getattr(value, name))))


def _rebuild(value):
    """``__reduce__`` through ``__init__``: read-only fields again, and no cached value carried."""
    return type(value), tuple(getattr(value, f.name) for f in fields(value))


@dataclass(frozen=True)
class Realization:
    """State-space data (A, B, C, D) with n states, m inputs, p outputs.

    An immutable value: each block is a read-only complex copy of the input,
    so realizations never share an array with their caller or each other.
    Copies and pickles are rebuilt from the four blocks, and each realization
    computes its own (read-only) eigendecomposition of A and its ``is_real``
    flag on first use.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        _freeze(self, ("A", "B", "C", "D"), as_matrix)
        n = self.A.shape[0]
        if self.A.shape != (n, n):
            raise ValueError(f"A must be square, got {self.A.shape}")
        p, m = self.D.shape
        if self.B.shape != (n, m):
            raise ValueError(f"B must be {n}x{m}, got {self.B.shape}")
        if self.C.shape != (p, n):
            raise ValueError(f"C must be {p}x{n}, got {self.C.shape}")

    __reduce__ = _rebuild

    @cached_property
    def _modal(self) -> _Modal:
        """The eigendecomposition of A; cached_property writes past the frozen setattr."""
        A = self.A if self.A.imag.any() else self.A.real
        lam, V = np.linalg.eig(A)
        lam = lam.astype(complex)
        modal = _Modal(lam)
        if _well_conditioned(V):
            VinvB = np.linalg.solve(V, self.B)
            residues = (self.C @ V).T[:, :, None] * VinvB[:, None, :]
            modal = _Modal(lam, V.astype(complex), VinvB, residues)
        for M in modal:
            if M is not None:
                M.flags.writeable = False
        return modal

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.D.shape[1]

    @property
    def p(self) -> int:
        return self.D.shape[0]

    @property
    def array(self) -> np.ndarray:
        """The (n+p) x (n+m) block array [[A, B], [C, D]]."""
        top = np.hstack([self.A, self.B])
        bot = np.hstack([self.C, self.D])
        return np.vstack([top, bot])

    @cached_property
    def is_real(self) -> bool:
        """Whether every block is real; computed once, as the blocks are read-only."""
        return all(not M.imag.any() for M in (self.A, self.B, self.C, self.D))

    @classmethod
    def from_array(cls, R, n: int) -> "Realization":
        R = as_matrix(R)
        return cls(A=R[:n, :n], B=R[:n, n:], C=R[n:, :n], D=R[n:, n:])

    @classmethod
    def constant(cls, D) -> "Realization":
        D = as_matrix(D)
        p, m = D.shape
        return cls(
            A=np.zeros((0, 0)), B=np.zeros((0, m)), C=np.zeros((p, 0)), D=D
        )

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "p": self.p,
            "A": encode_matrix(self.A),
            "B": encode_matrix(self.B),
            "C": encode_matrix(self.C),
            "D": encode_matrix(self.D),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Realization":
        n, m, p = int(data["n"]), int(data["m"]), int(data["p"])
        R = cls(
            A=decode_matrix(data["A"], (n, n)),
            B=decode_matrix(data["B"], (n, m)),
            C=decode_matrix(data["C"], (p, n)),
            D=decode_matrix(data["D"], (p, m)),
        )
        return R

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=1)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "Realization":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def _encode_entry(z: complex):
    if z.imag == 0.0:
        return z.real
    return [z.real, z.imag]


def encode_matrix(M: np.ndarray):
    """JSON form of a complex matrix: bare reals, or [re, im] pairs."""
    return [[_encode_entry(z) for z in row] for row in M]


def _decode_entry(v) -> complex:
    if isinstance(v, (list, tuple)):
        if len(v) != 2:
            raise ValueError(f"complex entry must be [re, im], got {v!r}")
        return complex(float(v[0]), float(v[1]))
    return complex(float(v), 0.0)


def decode_matrix(rows, shape=None) -> np.ndarray:
    """Inverse of encode_matrix; reshapes to ``shape`` when given, [] is 0 x 0."""
    M = as_matrix([[_decode_entry(v) for v in row] for row in rows])
    if shape is not None:
        M = M.reshape(shape)
    return M


# ---------------------------------------------------------------------------
# evaluation and pole analysis


def _pole_tolerance(lam: np.ndarray) -> float:
    scale = np.abs(lam).max() if lam.size else 0.0
    return 1e-12 * (1.0 + scale)


def evaluate(R: Realization, s) -> np.ndarray:
    """Evaluate F(s) = C (sI - A)^{-1} B + D; at s = inf this is D."""
    if np.isinf(s) or R.n == 0:
        return R.D.copy()
    F = evaluate_grid(R, [s])[0]
    if np.isnan(F).any():
        raise PoleError(f"evaluation point {complex(s)} hits a pole of the realization")
    return F


def evaluate_grid(R: Realization, svals, *, _state: bool = False):
    """Vectorized evaluation; returns an array of shape (k, p, m).

    Points within the pole tolerance of an eigenvalue of A yield NaN blocks
    instead of raising, so sweep drivers can skip and report them. Modal when
    the decomposition of A is well conditioned, one dense solve per point
    otherwise; the modal sum runs in row blocks of at most
    ``_PRODUCT_SIZE_MAX`` multiply-adds, which leaves each value unchanged.
    The private ``_state`` also returns X(s) = (sI - A)^{-1} B, shape
    (k, n, m), with the same NaN rows.
    """
    svals = np.asarray(svals, dtype=complex).ravel()
    n, p, m = R.n, R.p, R.m
    modal = R._modal
    dist = np.abs(svals[:, None] - modal.lam).min(axis=1, initial=np.inf)
    ok = dist > _pole_tolerance(modal.lam)
    s = svals[ok]
    if modal.residues is not None:
        d = 1.0 / (s[:, None] - modal.lam)
        res = modal.residues.reshape(n, p * m)
        Fs = np.empty((s.size, p * m), dtype=complex)
        rows = max(1, _PRODUCT_SIZE_MAX // max(1, n * p * m))
        for i in range(0, s.size, rows):
            np.matmul(d[i : i + rows], res, out=Fs[i : i + rows])
        Fs = Fs.reshape(-1, p, m) + R.D
        Xs = (modal.V * d[:, None, :]) @ modal.VinvB if _state else None
    else:
        lhs = s[:, None, None] * np.eye(n) - R.A
        Xs = np.linalg.solve(lhs, np.broadcast_to(R.B, (s.size, n, m)))
        Fs = R.C @ Xs + R.D
    F = np.full((svals.size, p, m), np.nan, dtype=complex)
    F[ok] = Fs
    if not _state:
        return F
    X = np.full((svals.size, n, m), np.nan, dtype=complex)
    X[ok] = Xs
    return F, X


@dataclass(frozen=True)
class PoleInfo:
    eigenvalues: np.ndarray
    hurwitz: bool
    analytic_in_cr: bool

    def __post_init__(self):
        _freeze(self, ("eigenvalues",))

    __reduce__ = _rebuild


def poles(R: Realization) -> PoleInfo:
    """Eigenvalues of A with half-plane flags.

    Flags are decided from the given (possibly non-minimal) realization; no
    pole-zero cancellation is attempted. A pole whose real part lies inside
    the band ``hermat._band`` of the eigenvalues is on the imaginary axis, so
    the flags do not depend on the state coordinates.
    """
    lam = R._modal.lam
    lam = lam[np.lexsort((lam.imag, lam.real))]
    tau = _band(lam)
    return PoleInfo(eigenvalues=lam, hurwitz=bool(np.all(lam.real < -tau)),
                    analytic_in_cr=bool(np.all(lam.real <= tau)))


@dataclass(frozen=True)
class PbhReport:
    controllable: bool
    observable: bool
    witnesses: tuple

    def __post_init__(self):
        witnesses = tuple((lv, _read_only(np.asarray(d)), which) for lv, d, which in self.witnesses)
        object.__setattr__(self, "witnesses", witnesses)

    __reduce__ = _rebuild

    @property
    def minimal(self) -> bool:
        return self.controllable and self.observable


def _pbh_rank_loss(A: np.ndarray, lam: np.ndarray, K: np.ndarray):
    """Mask of the lam_j where P_j = [A - lam_j I; K] loses rank, and unit v_j with P_j v_j ~ 0.

    One batched SVD decides: sigma_min <= 1e-9 sigma_max. Only failing P_j get singular vectors.
    """
    n = A.shape[0]
    if lam.size == 0:
        return np.zeros(0, dtype=bool), np.zeros((0, n), dtype=complex)
    P = np.concatenate(
        [A - lam[:, None, None] * np.eye(n), np.broadcast_to(K, (lam.size,) + K.shape)], axis=1
    )
    sv = np.linalg.svd(P, compute_uv=False)
    lost = sv[:, -1] <= 1e-9 * sv[:, 0]
    vh = np.linalg.svd(P[lost], full_matrices=False)[2] if lost.any() else np.zeros((0, n, n))
    return lost, vh[:, -1, :].conj()


def pbh_test(R: Realization) -> PbhReport:
    """Eigenvector rank test for controllability and observability.

    A failing eigenvalue contributes a witness ``(lambda, direction, which)``
    where ``direction`` spans the lost rank: u with u* [A - lambda I, B] = 0
    for controllability, v with [A - lambda I; C] v = 0 for observability.
    The controllability witnesses come first, each kind in eigenvalue order.
    """
    lam = R._modal.lam
    # u* [A - lam I, B] = 0 is the observability test of (A*, B*) at conj(lam)
    c_lost, c_dirs = _pbh_rank_loss(R.A.conj().T, lam.conj(), R.B.conj().T)
    o_lost, o_dirs = _pbh_rank_loss(R.A, lam, R.C)
    witnesses = [(lv, u, "controllability") for lv, u in zip(lam[c_lost], c_dirs)]
    witnesses += [(lv, v, "observability") for lv, v in zip(lam[o_lost], o_dirs)]
    return PbhReport(not c_lost.any(), not o_lost.any(), witnesses)


# ---------------------------------------------------------------------------
# coordinate changes and inverses


def similarity(R: Realization, V) -> Realization:
    """State coordinate change (V^{-1} A V, V^{-1} B, C V, D); transfer-preserving."""
    V = as_matrix(V)
    if V.shape != (R.n, R.n):
        raise ValueError(f"V must be {R.n}x{R.n}")
    if _singular(V):
        raise np.linalg.LinAlgError("similarity transform is singular")
    Vi = np.linalg.inv(V) if R.n else V
    return Realization(A=Vi @ R.A @ V, B=Vi @ R.B, C=R.C @ V, D=R.D)


def array_congruence(R: Realization, U) -> Realization:
    """Full-array congruence U* R U on the (n+p) x (n+m) block array.

    This is NOT a state similarity and does NOT preserve the transfer
    function; it exists to study how array-level operations interact with
    system-level properties (it can map a stable realization to an unstable
    one).
    """
    U = as_matrix(U)
    k = R.n + R.m
    if R.p != R.m:
        raise ValueError("array congruence requires a square array (p = m)")
    if U.shape != (k, k):
        raise ValueError(f"U must be {k}x{k}")
    return Realization.from_array(U.conj().T @ R.array @ U, R.n)


def function_inverse(R: Realization) -> Realization:
    """Realization of F(s)^{-1} for proper F with nonsingular D."""
    if R.p != R.m:
        raise ValueError("function inverse requires p = m")
    if _singular(R.D):
        raise SingularArrayError(
            "D is singular: the function inverse exists but is improper"
        )
    Di = np.linalg.inv(R.D)
    return Realization(
        A=R.A - R.B @ Di @ R.C,
        B=R.B @ Di,
        C=-Di @ R.C,
        D=Di,
    )


def array_inverse(R: Realization) -> Realization:
    """Plain matrix inverse of the block array, reinterpreted as a realization.

    Requires p = m and a nonsingular array (``hermat._singular``, the rule
    of every inversion here); an empty array is its own inverse. When A and
    D are themselves nonsingular the Schur-complement block formula

        [[ (A - B D^{-1} C)^{-1},  A^{-1} B (C A^{-1} B - D)^{-1} ],
         [ D^{-1} C (B D^{-1} C - A)^{-1},  (D - C A^{-1} B)^{-1} ]]

    is evaluated as a cross-check and must agree to 1e-10.
    """
    if R.p != R.m:
        raise ValueError("array inverse requires a square array (p = m)")
    M = R.array
    if _singular(M):
        raise SingularArrayError(
            f"realization array is singular (condition number {np.linalg.cond(M):.3e})"
        )
    Minv = np.linalg.inv(M)
    n = R.n
    if n and R.m and not (_singular(R.A) or _singular(R.D)):
        Ai = np.linalg.inv(R.A)
        Di = np.linalg.inv(R.D)
        blk = np.block(
            [
                [
                    np.linalg.inv(R.A - R.B @ Di @ R.C),
                    Ai @ R.B @ np.linalg.inv(R.C @ Ai @ R.B - R.D),
                ],
                [
                    Di @ R.C @ np.linalg.inv(R.B @ Di @ R.C - R.A),
                    np.linalg.inv(R.D - R.C @ Ai @ R.B),
                ],
            ]
        )
        gap = np.abs(blk - Minv).max()
        if gap > 1e-10 * (1.0 + np.abs(Minv).max()):
            raise ArithmeticError(
                f"block-inverse cross-check failed (max deviation {gap:.3e})"
            )
    return Realization.from_array(Minv, n)


# ---------------------------------------------------------------------------
# Gramians and balancing


def gramians(R: Realization) -> tuple[np.ndarray, np.ndarray]:
    """Controllability and observability Gramians of a Hurwitz realization.

    Hc solves A Hc + Hc A* = -B B*, Ho solves A* Ho + Ho A = -C* C. With the
    cached eigendecomposition A = V diag(lam) V^{-1} both are diagonal in the
    eigenbasis:

        Hc = V (-(V^{-1} B)(V^{-1} B)* / (lam_i + conj(lam_j))) V*,
        Ho = V^{-*} (-(C V)*(C V) / (conj(lam_i) + lam_j)) V^{-1},

    checked by the residual test of ``solve_lyapunov``. An ill-conditioned
    eigenbasis, or a residual above that test, falls back to
    ``solve_lyapunov``.
    """
    if not poles(R).hurwitz:
        raise ValueError("Gramians require a Hurwitz A matrix")
    BB, CC = R.B @ R.B.conj().T, R.C.conj().T @ R.C
    modal = R._modal
    if modal.V is not None:
        lam, V, VinvB = modal.lam, modal.V, modal.VinvB
        _resonance_check(lam)
        den = lam[:, None] + lam.conj()
        CV, Vi = R.C @ V, np.linalg.inv(V)
        Hc = V @ (-(VinvB @ VinvB.conj().T) / den) @ V.conj().T
        Ho = Vi.conj().T @ (-(CV.conj().T @ CV) / den.conj()) @ Vi
        try:
            return _check_lyapunov(R.A, Hc, BB), _check_lyapunov(R.A.conj().T, Ho, CC)
        except ArithmeticError:
            pass  # a nearly defective A can pass the cond rule and still miss the residual test
    Hc = solve_lyapunov(R.A, BB, side="controllability")
    Ho = solve_lyapunov(R.A, CC, side="observability")
    return Hc, Ho


@dataclass(frozen=True)
class BalancedForm:
    """A balanced realization, its Hankel singular values, and the transform used.

    An immutable value, as ``Realization`` is: ``sigma`` and ``transform``
    are read-only copies, also through copies and pickles.
    """

    realization: Realization
    sigma: np.ndarray
    transform: np.ndarray

    def __post_init__(self):
        _freeze(self, ("sigma", "transform"))

    __reduce__ = _rebuild


def _fix_column_phases(V: np.ndarray) -> np.ndarray:
    """Deterministic sign convention: first sizable entry of each column real positive."""
    V = V.copy()
    for j in range(V.shape[1]):
        col = V[:, j]
        idx = np.flatnonzero(np.abs(col) > 1e-12 * (1.0 + np.abs(col).max()))
        if idx.size:
            ph = col[idx[0]] / np.abs(col[idx[0]])
            V[:, j] = col / ph
    return V


def balance(R: Realization) -> BalancedForm:
    """Square-root balancing: both Gramians become diag(sigma), sigma nonincreasing.

    Requires a Hurwitz and minimal realization; a Hankel singular value inside
    the PSD zero band signals non-minimality and is rejected.
    """
    Hc, Ho = gramians(R)
    for name, G in (("controllability", Hc), ("observability", Ho)):
        if not is_pd(G):
            raise ValueError(
                f"realization is not minimal: singular {name} Gramian "
                "(zero Hankel singular value)"
            )
    L = np.linalg.cholesky(Hc)
    w, U = np.linalg.eigh(L.conj().T @ Ho @ L)
    # descending Hankel order
    w = w[::-1]
    U = U[:, ::-1]
    sigma = np.sqrt(w)
    V = L @ U @ np.diag(sigma**-0.5)
    V = _fix_column_phases(V)
    bal = similarity(R, V)
    return BalancedForm(realization=bal, sigma=sigma.astype(float), transform=V)


# ---------------------------------------------------------------------------
# composition


def series_add(R1: Realization, R2: Realization) -> Realization:
    """Realization of F1(s) + F2(s) (impedances in series share the current)."""
    if (R1.p, R1.m) != (R2.p, R2.m):
        raise ValueError(
            f"dimension mismatch: ({R1.p},{R1.m}) vs ({R2.p},{R2.m})"
        )
    n1, n2 = R1.n, R2.n
    A = np.zeros((n1 + n2, n1 + n2), dtype=complex)
    A[:n1, :n1] = R1.A
    A[n1:, n1:] = R2.A
    B = np.vstack([R1.B, R2.B])
    C = np.hstack([R1.C, R2.C])
    return Realization(A=A, B=B, C=C, D=R1.D + R2.D)


def adjoint_realization(R: Realization) -> Realization:
    """Realization of s -> (F(conj(s)))*, namely (A*, C*, B*, D*)."""
    return Realization(
        A=R.A.conj().T, B=R.C.conj().T, C=R.B.conj().T, D=R.D.conj().T
    )

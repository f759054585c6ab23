"""Complex Hermitian matrix primitives.

Everything downstream (membership slacks, KYP certificates, Gramians)
reduces to a handful of operations on Hermitian matrices: inertia counts,
fractional powers, Lyapunov solves and the matrix Cayley transform. Every
decision on where an eigenvalue lies reads its zero band 1e-9 (1 + max|lam|)
off the eigenvalues, through the one helper ``_band``: Hermitian signs (in
``_spectrum``), poles on the imaginary axis, the array eigenvalue split,
Hamiltonian crossings, Lyapunov resonance and the Cayley test, which
``_minus_one_in_spectrum`` decides for the matrix and the function Cayley
transforms alike. Whether a matrix may be inverted is the one rule
``_singular``: 1/cond(M) >= 1e-12. Matrices enter through the one coercion
``as_matrix``. ``solve_lyapunov`` is the Bartels-Stewart method of
``scipy.linalg``, imported on its first call; ``realization.gramians`` reads
the Gramians off the modal form of A instead and calls it only as a
fallback. Both routes share the resonance test ``_resonance_check`` and the
residual check ``_check_lyapunov``.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DefinitenessError",
    "ResonanceError",
    "Inertia",
    "as_matrix",
    "herm_tolerance",
    "psd_tolerance",
    "require_hermitian",
    "min_eig",
    "is_psd",
    "is_pd",
    "inertia",
    "hermitian_power",
    "solve_lyapunov",
    "cayley_matrix",
    "hyper_pair_slacks",
]


class DefinitenessError(ValueError):
    """A matrix violated a required (semi)definiteness precondition."""


class ResonanceError(ValueError):
    """Spectrum condition lambda_i + conj(lambda_j) != 0 failed."""


def as_matrix(M) -> np.ndarray:
    """Coerce input to a 2-D complex128 array; an empty 1-D input becomes 0 x 0."""
    A = np.asarray(M, dtype=complex)
    A = A.reshape(0, 0) if A.ndim == 1 and A.size == 0 else np.atleast_2d(A)
    if A.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={A.ndim}")
    return A


def herm_tolerance(M: np.ndarray) -> float:
    """Hermitian-deviation tolerance: 1e-12 * (1 + ||M||_F)."""
    return 1e-12 * (1.0 + np.linalg.norm(M, "fro"))


def psd_tolerance(M: np.ndarray) -> float:
    """Zero band for eigenvalue sign decisions: 1e-9 * (1 + ||M||_2).

    Every ``>= 0`` test means ``lambda_min >= -tau``; ``_spectrum`` gives it to Hermitian M.
    """
    if M.size == 0:
        return 1e-9
    return 1e-9 * (1.0 + np.linalg.norm(M, 2))


def _band(lam: np.ndarray):
    """Zero band 1e-9 * (1 + max|lam|) of eigenvalues ``lam``, one per row of a stack."""
    return 1e-9 * (1.0 + np.abs(lam).max(axis=-1, initial=0.0))


def _singular(M: np.ndarray) -> bool:
    """True for a nonempty M with 1/cond(M) below 1e-12; an infinite or NaN cond counts."""
    return M.size > 0 and not 1.0 / np.linalg.cond(M) >= 1e-12


def _minus_one_in_spectrum(A: np.ndarray) -> bool:
    """True when some eigenvalue of a square A lies within ``_band`` of -1."""
    lam = np.linalg.eigvals(A) if A.size else np.zeros(0)
    return bool(np.any(np.abs(lam + 1.0) <= _band(lam)))


def _spectrum(M: np.ndarray):
    """(w, tau) of a Hermitian matrix or a stack of them.

    w ascends and tau = ``_band(w)`` is ``psd_tolerance`` per matrix: a
    Hermitian 2-norm is its largest |eigenvalue|. The input is not checked.
    """
    w = np.linalg.eigvalsh(M)
    return w, _band(w)


def require_hermitian(M, name: str = "matrix") -> np.ndarray:
    """Validate Hermitian-ness within tolerance and return the symmetrized matrix."""
    A = as_matrix(M)
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"{name} must be square, got shape {A.shape}")
    dev = np.linalg.norm(A - A.conj().T, "fro")
    if dev > herm_tolerance(A):
        raise ValueError(
            f"{name} is not Hermitian: ||M - M*||_F = {dev:.3e} exceeds tolerance"
        )
    return 0.5 * (A + A.conj().T)


def min_eig(M) -> float:
    """Smallest eigenvalue of a Hermitian matrix (symmetrized first)."""
    A = require_hermitian(M)
    if A.size == 0:
        return np.inf
    return float(np.linalg.eigvalsh(A)[0])


def is_psd(M) -> bool:
    w, tau = _spectrum(require_hermitian(M))
    return bool(np.all(w >= -tau))


def is_pd(M) -> bool:
    w, tau = _spectrum(require_hermitian(M))
    return bool(np.all(w > tau))


@dataclass(frozen=True)
class Inertia:
    """Eigenvalue sign counts (n_plus, n_zero, n_minus) of a Hermitian matrix."""

    n_plus: int
    n_zero: int
    n_minus: int

    @property
    def dim(self) -> int:
        return self.n_plus + self.n_zero + self.n_minus

    @property
    def is_psd(self) -> bool:
        return self.n_minus == 0

    @property
    def is_pd(self) -> bool:
        return self.n_minus == 0 and self.n_zero == 0

    def is_balanced(self, q: int) -> bool:
        """Non-singular balanced inertia (q, 0, q)."""
        return self.n_plus == q and self.n_zero == 0 and self.n_minus == q

    def as_tuple(self):
        return (self.n_plus, self.n_zero, self.n_minus)


def inertia(M) -> Inertia:
    """Count eigenvalues above/inside/below the zero band of a Hermitian matrix."""
    w, tau = _spectrum(require_hermitian(M))
    return Inertia(
        n_plus=int(np.sum(w > tau)),
        n_zero=int(np.sum(np.abs(w) <= tau)),
        n_minus=int(np.sum(w < -tau)),
    )


def hermitian_power(M, p) -> np.ndarray:
    """Spectral power of a Hermitian matrix.

    ``p`` is one of ``0.5``, ``-0.5``, ``-1`` or the string ``"pinv"``.
    Square roots require PSD input, negative powers require PD input; the
    pseudo-inverse zeroes eigenvalues inside the PSD zero band.
    """
    w, U = np.linalg.eigh(require_hermitian(M))
    tau = _band(w)
    if p == "pinv":
        if w[0] < -tau:
            raise DefinitenessError(
                f"pseudo-inverse requires M >= 0; smallest eigenvalue {w[0]:.3e}"
            )
        inv = np.where(np.abs(w) <= tau, 0.0, 1.0 / np.where(np.abs(w) <= tau, 1.0, w))
        return U @ np.diag(inv) @ U.conj().T
    p = float(p)
    if p == 0.5:
        if w[0] < -tau:
            raise DefinitenessError(
                f"square root requires M >= 0; smallest eigenvalue {w[0]:.3e}"
            )
        vals = np.sqrt(np.clip(w, 0.0, None))
    elif p in (-0.5, -1.0):
        if w[0] <= tau:
            raise DefinitenessError(
                f"power {p} requires M > 0; smallest eigenvalue {w[0]:.3e}"
            )
        vals = w**p
    else:
        raise ValueError(f"unsupported power {p!r}; use 1/2, -1/2, -1 or 'pinv'")
    return U @ np.diag(vals.astype(complex)) @ U.conj().T


def _resonance_check(lam: np.ndarray) -> None:
    """Raise ResonanceError when lam_i + conj(lam_j) lies within ``_band`` of 0 for some i, j."""
    if np.any(np.abs(lam[:, None] + lam.conj()) <= _band(lam)):
        raise ResonanceError(
            "Lyapunov equation is resonant: some lambda_i + conj(lambda_j) = 0"
        )


def _check_lyapunov(Ah: np.ndarray, X: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """X symmetrized, after checking ||Ah X + X Ah* + Q||_F <= 1e-10 * (1 + ||Q||_F).

    Raises ArithmeticError with the residual when the check fails.
    """
    X = 0.5 * (X + X.conj().T)
    resid = np.linalg.norm(Ah @ X + X @ Ah.conj().T + Q, "fro")
    if resid > 1e-10 * (1.0 + np.linalg.norm(Q, "fro")):
        raise ArithmeticError(f"Lyapunov residual {resid:.3e} above tolerance")
    return X


def solve_lyapunov(A, Q, side: str = "controllability") -> np.ndarray:
    """Solve a continuous Lyapunov equation by the Bartels-Stewart method.

    controllability side:  A X + X A* = -Q
    observability side:    A* X + X A = -Q

    The solve is ``scipy.linalg.solve_continuous_lyapunov`` (Schur forms,
    O(q^3)); the spectrum of ``A`` must avoid the resonance set
    lambda_i + conj(lambda_j) = 0. The result is symmetrized and its
    residual is checked against 1e-10 * (1 + ||Q||_F). scipy is imported on
    the first call; ``realization.gramians`` calls this only when its modal
    Gramians are unusable.
    """
    import scipy.linalg  # deferred: it is most of the import time of kypcert

    A = as_matrix(A)
    Q = require_hermitian(Q, "Q")
    q = A.shape[0]
    if A.shape != (q, q) or Q.shape != (q, q):
        raise ValueError("A and Q must be square with matching dimensions")
    if side not in ("controllability", "observability"):
        raise ValueError(f"unknown side {side!r}")
    if q == 0:
        return np.zeros((0, 0), dtype=complex)
    _resonance_check(np.linalg.eigvals(A))
    # both sides read Ah X + X Ah* = -Q, with Ah = A or A*
    Ah = A if side == "controllability" else A.conj().T
    return _check_lyapunov(Ah, scipy.linalg.solve_continuous_lyapunov(Ah, -Q), Q)


def cayley_matrix(A) -> np.ndarray:
    """Matrix Cayley transform (I - A)(I + A)^{-1}; involutive where defined."""
    A = as_matrix(A)
    q = A.shape[0]
    if A.shape != (q, q):
        raise ValueError("Cayley transform needs a square matrix")
    if _minus_one_in_spectrum(A):
        raise ValueError("Cayley transform undefined: -1 is in the spectrum")
    eye = np.eye(q)
    return (eye - A) @ np.linalg.inv(eye + A)


def hyper_pair_slacks(A, H, T) -> tuple[float, float]:
    """Smallest eigenvalues of the weighted Lyapunov and Stein inclusions.

    Returns ``(lyapunov_slack, stein_slack)`` where

        lyapunov_slack = lambda_min( H A + A* H - T - A* T A )
        stein_slack    = lambda_min( H - Ahat* H Ahat - T - Ahat* T Ahat )

    with ``Ahat`` the matrix Cayley transform of ``A``. The two slack
    matrices are congruent (by (I+A)^{-1}, up to a factor 2), so their sign
    classifications agree on nondegenerate inputs. When -1 sits in the
    spectrum of A the Stein side is undefined and comes back as NaN.
    """
    A = as_matrix(A)
    H = require_hermitian(H, "H")
    T = require_hermitian(T, "T")
    if inertia(H).n_zero:
        raise DefinitenessError("H must be a nonsingular Hermitian matrix")
    if not is_psd(T):
        raise DefinitenessError("T must be positive semidefinite")
    lyap = H @ A + A.conj().T @ H - T - A.conj().T @ T @ A
    try:
        Ahat = cayley_matrix(A)
    except ValueError:
        return min_eig(lyap), float("nan")
    stein = H - Ahat.conj().T @ H @ Ahat - T - Ahat.conj().T @ T @ Ahat
    return min_eig(lyap), min_eig(stein)

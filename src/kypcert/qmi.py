"""Quadratic matrix inclusion sets.

A Hermitian block matrix

    M = [[X, V],
         [V, Y]]

with nonsingular balanced inertia (q, 0, q) defines the set of q x q
matrices E whose quadratic slack

    V E + E* V + E* X E + Y

is positive semidefinite. Positive-real style function classes, their
quantitative refinements, and the KYP inequality itself are all instances
of this one shape, which is why the structural predicates here (convexity,
inversion closure, cone, products, matrix-convexity) drive most of the
package's property guarantees.
"""

from dataclasses import dataclass

import numpy as np

from .hermat import (
    _spectrum,
    as_matrix,
    hermitian_power,
    inertia,
    is_psd,
    min_eig,
    require_hermitian,
)
from .realization import _read_only, _rebuild

__all__ = [
    "ClassSpec",
    "QuadraticForm",
    "StructuralProfile",
    "membership_slack",
    "membership_slack_matrix",
    "structural_profile",
    "class_form",
    "weight_matrix",
    "hp_order_check",
    "matrix_convex_combine",
]

CLASS_TAGS = ("P", "B", "PO", "SP", "HP", "HB")


@dataclass(frozen=True)
class ClassSpec:
    """A function-class descriptor: tag plus optional weight.

    The weight is required exactly for the quantitative tags HP and HB and
    may be a scalar beta in [0, 1) (expanded to beta * I) or a Hermitian
    matrix with 0 <= T < I.
    """

    tag: str
    weight: object = None

    def __post_init__(self):
        if self.tag not in CLASS_TAGS:
            raise ValueError(f"unknown class tag {self.tag!r}; expected one of {CLASS_TAGS}")
        if (self.weight is not None) != (self.tag in ("HP", "HB")):
            raise ValueError("a weight is required exactly for the HP and HB classes")


def weight_matrix(T, m: int) -> np.ndarray:
    """Validate a weight 0 <= T < I and return it as an m x m matrix.

    None is the zero weight and a scalar beta in [0, 1) expands to beta * I;
    a matrix must be Hermitian and m x m. Every weight in the package is
    checked here.
    """
    return _weight(T, m)[0]


def _weight(T, m: int) -> tuple[np.ndarray, float]:
    """``weight_matrix`` of T, with the largest eigenvalue of that matrix."""
    if T is None:
        return np.zeros((m, m), dtype=complex), 0.0
    if np.isscalar(T):
        beta = float(T)
        if not 0.0 <= beta < 1.0:
            raise ValueError(f"scalar weight must lie in [0, 1), got {beta}")
        return beta * np.eye(m, dtype=complex), beta
    T = require_hermitian(T, "T")
    if T.shape != (m, m):
        raise ValueError(f"weight must be {m}x{m}, got {T.shape}")
    w, tau = _spectrum(T)
    if w[0] < -tau:
        raise ValueError(f"weight must satisfy T >= 0; smallest eigenvalue {w[0]:.3e}")
    if w[-1] >= 1.0:
        raise ValueError(f"weight must satisfy T < I; largest eigenvalue {w[-1]:.6g}")
    return T, float(w[-1])


@dataclass(frozen=True)
class QuadraticForm:
    """Read-only blocks (X, V, Y) of a quadratic inclusion; inertia (q,0,q) is enforced."""

    X: np.ndarray
    V: np.ndarray
    Y: np.ndarray

    def __post_init__(self):
        for name in "XVY":
            object.__setattr__(self, name, _read_only(require_hermitian(getattr(self, name), name)))
        q = self.X.shape[0]
        if self.V.shape != (q, q) or self.Y.shape != (q, q):
            raise ValueError("X, V, Y must share one dimension")
        if not inertia(self.block_matrix).is_balanced(q):
            raise ValueError(
                "form matrix [[X, V], [V, Y]] must have nonsingular balanced "
                f"inertia ({q}, 0, {q}); got {inertia(self.block_matrix).as_tuple()}"
            )

    __reduce__ = _rebuild

    @property
    def q(self) -> int:
        return self.X.shape[0]

    @property
    def block_matrix(self) -> np.ndarray:
        return np.block([[self.X, self.V], [self.V, self.Y]])


def _class_form(tag: str, T: np.ndarray) -> QuadraticForm:
    """Unchecked ``class_form`` of a weight 0 <= T < I; T is zero for P, PO, SP and B = HB(0)."""
    eye = np.eye(T.shape[0], dtype=complex)
    hb = tag in ("B", "HB")
    X, V, Y = (-(eye + T), np.zeros_like(eye), eye - T) if hb else (-T, eye, -T)
    for M in (X, V, Y):
        M.setflags(write=False)
    form = object.__new__(QuadraticForm)
    form.__dict__.update(X=X, V=V, Y=Y)  # the dataclass is frozen: past its __setattr__
    return form


def membership_slack_matrix(form: QuadraticForm, E, side: str = "right") -> np.ndarray:
    """The Hermitian slack matrix of E against the form.

    right:  V E + E* V + E* X E + Y
    left:   V E + E* V + E X E* + Y

    E may also be a (k, q, q) stack, which gives the k slack matrices.

    The two sides genuinely differ already for constant 2x2 functions, so
    both are exposed wherever one is.
    """
    E = np.asarray(E, dtype=complex)
    if E.ndim != 3:
        E = as_matrix(E)
    if E.shape[-2:] != (form.q, form.q):
        raise ValueError(f"E must be {form.q}x{form.q}, got {E.shape}")
    Eh = E.conj().swapaxes(-1, -2)
    lin = form.V @ E + Eh @ form.V
    if side == "right":
        quad = Eh @ (form.X @ E)
    elif side == "left":
        quad = E @ (form.X @ Eh)
    else:
        raise ValueError(f"side must be 'right' or 'left', got {side!r}")
    S = lin + quad + form.Y
    return 0.5 * (S + S.conj().swapaxes(-1, -2))


def membership_slack(form: QuadraticForm, E, side: str = "right") -> float:
    """Smallest eigenvalue of the membership slack matrix."""
    return min_eig(membership_slack_matrix(form, E, side=side))


@dataclass(frozen=True)
class StructuralProfile:
    """Exact algebraic closure properties of a quadratic inclusion set."""

    convex: bool
    inversion_closed: bool
    cone: bool
    sign_closed: bool
    product_closed: bool
    scalar_matrix_convex: bool


def _matrices_equal(A: np.ndarray, B: np.ndarray) -> bool:
    return np.linalg.norm(A - B, "fro") <= 1e-10 * (
        1.0 + np.linalg.norm(A, "fro") + np.linalg.norm(B, "fro")
    )


def _is_zero(A: np.ndarray) -> bool:
    return _matrices_equal(A, np.zeros_like(A))


def _scalar_multiple_of_identity(A: np.ndarray):
    """Return the real scalar c with A = c*I, or None."""
    q = A.shape[0]
    c = np.trace(A) / q
    if abs(c.imag) > 1e-10 * (1.0 + abs(c)):
        return None
    if _matrices_equal(A, c.real * np.eye(q)):
        return float(c.real)
    return None


def structural_profile(form: QuadraticForm) -> StructuralProfile:
    """Decide the closure properties of the set defined by the form.

    convex            iff -X >= 0
    inversion_closed  iff X = Y
    cone              iff (X = 0 and Y >= 0) or (X >= 0 and Y >= V X^+ V)
    sign_closed       iff V = 0 and Y >= 0
    product_closed    iff X + Y >= 0
    scalar_matrix_convex iff X, V, Y are real multiples of I with
                          x <= 0 and v^2 > x*y
    """
    X, V, Y = form.X, form.V, form.Y
    convex = is_psd(-X)
    inversion_closed = _matrices_equal(X, Y)
    cone = False
    if _is_zero(X) and is_psd(Y):
        cone = True
    elif is_psd(X):
        Xp = hermitian_power(X, "pinv")
        cone = is_psd(Y - V @ Xp @ V)
    sign_closed = _is_zero(V) and is_psd(Y)
    product_closed = is_psd(X + Y)
    scalar_mc = False
    x = _scalar_multiple_of_identity(X)
    v = _scalar_multiple_of_identity(V)
    y = _scalar_multiple_of_identity(Y)
    if x is not None and v is not None and y is not None:
        scalar_mc = x <= 0.0 and v * v > x * y
    return StructuralProfile(
        convex=convex,
        inversion_closed=inversion_closed,
        cone=cone,
        sign_closed=sign_closed,
        product_closed=product_closed,
        scalar_matrix_convex=scalar_mc,
    )


def class_form(spec: ClassSpec, dim: int | None = None) -> QuadraticForm:
    """Quadratic form whose membership slack defines the given class.

    P:      X = Y = 0,        V = I     (slack  E + E*)
    HP(T):  X = Y = -T,       V = I     (slack  E + E* - T - E* T E)
    B:      X = -I, V = 0,    Y = I     (slack  I - E* E)
    HB(T):  X = -(I + T), V = 0, Y = I - T
                                        (slack  (I - T) - E* (I + T) E)

    The HB normalization is chosen so that the slack matches the defining
    hyper-bounded inequality and the Cayley bridge HP(T) <-> HB(T) holds
    exactly; PO and SP share the P form (their extra conditions live in the
    sweep drivers).
    """
    if spec.weight is not None and not np.isscalar(spec.weight):
        q = as_matrix(spec.weight).shape[0]
    elif dim is not None:
        q = int(dim)
    else:
        raise ValueError("dim is required when the weight does not fix the size")
    T, top = _weight(spec.weight, q)
    # per eigenvalue t of T the form matrix has eigenvalues 1 - t, -1 - t; its norm is 1 + max t
    if 1.0 - top <= 1e-9 * (2.0 + top):
        raise ValueError(f"form matrix must have nonsingular balanced inertia; weight "
                         f"eigenvalue {top!r} is within the zero band of 1")
    return _class_form(spec.tag, T)


def hp_order_check(T1, T2) -> bool:
    """True iff T2 - T1 >= 0, i.e. the T2 class is contained in the T1 class.

    The HP(T1) form matrix minus the HP(T2) one is diag(T2 - T1, T2 - T1), so
    the form difference is PSD too: the mechanism behind the containment.
    """
    m = max(as_matrix(T).shape[0] for T in (T1, T2))  # a scalar expands to beta * I
    diff = weight_matrix(T2, m) - weight_matrix(T1, m)
    return is_psd(diff)


def matrix_convex_combine(elements, isometries) -> np.ndarray:
    """Matrix-convex combination sum_j Y_j* E_j Y_j with sum_j Y_j* Y_j = I.

    ``elements[j]`` is q_j x q_j and ``isometries[j]`` is q_j x nu; the
    resolution-of-identity defect is checked against 1e-10.
    """
    if len(elements) != len(isometries) or not elements:
        raise ValueError("need matching, nonempty element and isometry lists")
    Es = [as_matrix(E) for E in elements]
    Ys = [as_matrix(Y) for Y in isometries]
    nu = Ys[0].shape[1]
    acc = np.zeros((nu, nu), dtype=complex)
    for j, (E, Y) in enumerate(zip(Es, Ys)):
        if Y.shape != (E.shape[0], nu):
            raise ValueError(f"isometry {j} must be {E.shape[0]}x{nu}, got {Y.shape}")
        if E.shape[0] != E.shape[1]:
            raise ValueError(f"element {j} must be square")
        acc += Y.conj().T @ Y
    defect = np.linalg.norm(acc - np.eye(nu), "fro")
    if not defect <= 1e-10:  # NaN fails too
        raise ValueError(f"isometries do not resolve the identity: defect norm {defect:.3e}")
    out = np.zeros((nu, nu), dtype=complex)
    for E, Y in zip(Es, Ys):
        out += Y.conj().T @ E @ Y
    return out

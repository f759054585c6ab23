"""Balanced truncation and matrix-convex combination of realizations.

Truncation is deliberately explicit here: callers hand over either a
balanced form or an internally passive certificate, never a raw realization
that gets silently re-coordinatized. That keeps the commutation result for
realization polytopes honest, since it presumes all vertices share aligned
balanced coordinates.
"""

import json
from dataclasses import dataclass

import numpy as np

from .classes import FrequencyGrid, beta_max, sweep_membership
from .hermat import as_matrix
from .kyp import _require_certified, find_certificate
from .qmi import ClassSpec, matrix_convex_combine, weight_matrix
from .realization import BalancedForm, Realization, _freeze, _rebuild, gramians

__all__ = [
    "TruncationIsometry",
    "RealizationPolytope",
    "CommutationReport",
    "BetaReport",
    "PreservationReport",
    "truncate_balanced",
    "truncate_isometry",
    "combine_realizations",
    "combine_internally_passive",
    "hull_truncation_commutes",
    "hp_preservation_report",
]

ISOMETRY_TOL = 1e-10


def _column_orthonormal(U: np.ndarray) -> float:
    return float(
        np.linalg.norm(U.conj().T @ U - np.eye(U.shape[1]), "fro")
    )


@dataclass(frozen=True)
class TruncationIsometry:
    """Read-only block-diagonal isometry diag(upsilon_n, upsilon_m) acting on states and ports."""

    upsilon_n: np.ndarray
    upsilon_m: np.ndarray

    def __post_init__(self):
        _freeze(self, ("upsilon_n", "upsilon_m"), as_matrix)
        for name, U in (("upsilon_n", self.upsilon_n), ("upsilon_m", self.upsilon_m)):
            if U.shape[1] > U.shape[0]:
                raise ValueError(f"{name} must be tall (columns <= rows)")
            defect = _column_orthonormal(U)
            if not defect <= ISOMETRY_TOL:  # NaN fails too
                raise ValueError(f"{name} is not column-orthonormal: defect {defect:.3e}")

    __reduce__ = _rebuild

    @property
    def nu(self) -> int:
        return self.upsilon_n.shape[1]

    @property
    def mu(self) -> int:
        return self.upsilon_m.shape[1]


@dataclass(frozen=True)
class RealizationPolytope:
    """A tuple of vertices of identical shape with optional read-only convex weights."""

    vertices: tuple
    weights: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(self.vertices))
        if not self.vertices:
            raise ValueError("polytope needs at least one vertex")
        shape = (self.vertices[0].n, self.vertices[0].m, self.vertices[0].p)
        for v in self.vertices[1:]:
            if (v.n, v.m, v.p) != shape:
                raise ValueError("all vertices must share (n, m, p)")
        if self.weights is not None:
            _freeze(self, ("weights",), lambda w: np.asarray(w, dtype=float).ravel())
            if self.weights.size != len(self.vertices):
                raise ValueError("one weight per vertex required")
            if not np.all(self.weights >= 0):  # NaN fails too
                raise ValueError("convex weights must be nonnegative")
            if not abs(self.weights.sum() - 1.0) <= 1e-12:
                raise ValueError(f"weights must sum to 1, got {self.weights.sum()!r}")

    __reduce__ = _rebuild

    def to_dict(self) -> dict:
        out = {"vertices": [v.to_dict() for v in self.vertices]}
        if self.weights is not None:
            out["weights"] = list(self.weights)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "RealizationPolytope":
        verts = [Realization.from_dict(v) for v in data["vertices"]]
        return cls(vertices=verts, weights=data.get("weights"))

    @classmethod
    def load(cls, path) -> "RealizationPolytope":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=1)
            fh.write("\n")


# ---------------------------------------------------------------------------
# truncation


def _leading_blocks(R: Realization, nu: int) -> Realization:
    return Realization(A=R.A[:nu, :nu], B=R.B[:nu, :], C=R.C[:, :nu], D=R.D)


def _check_cut(sigma: np.ndarray, n: int, nu: int) -> None:
    """Require 1 <= nu <= n and a strict Hankel gap sigma_nu > sigma_nu+1 at the cut."""
    if not 1 <= nu <= n:
        raise ValueError(f"truncation order must lie in [1, {n}], got {nu}")
    if nu < n and sigma[nu - 1] - sigma[nu] <= 1e-9 * (1.0 + sigma[0]):
        raise ValueError(
            "Hankel singular values tie at the cut: "
            f"sigma[{nu}] = {float(sigma[nu - 1])!r}, sigma[{nu + 1}] = {float(sigma[nu])!r}"
        )


def truncate_balanced(bal: BalancedForm, nu: int) -> Realization:
    """Leading-block truncation of a balanced realization to nu states.

    Requires 1 <= nu <= n and a strict Hankel gap sigma_nu > sigma_nu+1; a
    tie makes the truncated system depend on the (non-unique) balancing
    basis, so it is rejected with the tied values reported.
    """
    R = bal.realization
    _check_cut(np.asarray(bal.sigma, dtype=float), R.n, nu)
    return _leading_blocks(R, nu)


def truncate_isometry(R: Realization, iso: TruncationIsometry, T) -> Realization:
    """Compress an internally passive realization by a block-diagonal isometry.

    The input must verify the certificate inequality with H = I at weight T;
    the output diag(un, um)* R diag(un, um) then verifies with H = I at the
    restricted weight um* T um (beta I stays beta I), and for scalar weights
    belongs to the same class.
    """
    if R.p != R.m:
        raise ValueError("isometric truncation requires a square realization array")
    un, um = iso.upsilon_n, iso.upsilon_m
    if un.shape[0] != R.n or um.shape[0] != R.m:
        raise ValueError(
            f"isometry rows must match (n, m) = ({R.n}, {R.m}); "
            f"got ({un.shape[0]}, {um.shape[0]})"
        )
    failure = "input is not internally passive at this weight"
    _require_certified(R, np.eye(R.n), weight_matrix(T, R.m), failure)
    return Realization(
        A=un.conj().T @ R.A @ un,
        B=un.conj().T @ R.B @ um,
        C=um.conj().T @ R.C @ un,
        D=um.conj().T @ R.D @ um,
    )


# ---------------------------------------------------------------------------
# combinations


def combine_realizations(poly: RealizationPolytope) -> Realization:
    """Entrywise convex combination of the vertex arrays.

    If every vertex verifies the certificate inequality with one common
    (H, T), the combination verifies with the same pair; the inequality is
    jointly convex in the array for PSD weights.
    """
    if poly.weights is None:
        raise ValueError("combination requires convex weights")
    acc = None
    n = poly.vertices[0].n
    for th, v in zip(poly.weights, poly.vertices):
        acc = th * v.array if acc is None else acc + th * v.array
    return Realization.from_array(acc, n)


@dataclass(frozen=True)
class BetaReport:
    lower_bound: float
    vertex_betas: tuple
    measured: float | None = None


def combine_internally_passive(
    vertices,
    upsilons_n,
    upsilons_m,
    betas,
    grid: FrequencyGrid | None = None,
    measure: bool = True,
) -> tuple[Realization, BetaReport]:
    """Blockwise matrix-convex combination of internally passive realizations.

    The state isometries and port isometries must each resolve the identity
    across the family; every vertex must verify its own scalar weight with
    H = I. The combined array is internally passive at min(betas), which the
    optional measurement corroborates via the sweep.
    """
    k = len(vertices)
    if not (k == len(upsilons_n) == len(upsilons_m) == len(betas)):
        raise ValueError("vertices, isometries and betas must have equal length")
    if k == 0:
        raise ValueError("need at least one vertex")
    nu, mu = as_matrix(upsilons_n[0]).shape[1], as_matrix(upsilons_m[0]).shape[1]
    isometries = []
    for j, (R, un, um) in enumerate(zip(vertices, upsilons_n, upsilons_m)):
        un, um = as_matrix(un), as_matrix(um)
        if un.shape != (R.n, nu) or um.shape != (R.m, mu):
            raise ValueError(f"isometry {j} does not match vertex {j} dimensions")
        isometries.append(np.block([[un, np.zeros((R.n, mu))], [np.zeros((R.m, nu)), um]]))
    # diag(un_j, um_j) resolve the identity iff the state and port isometries each do
    array = matrix_convex_combine([R.array for R in vertices], isometries)
    for j, (R, beta) in enumerate(zip(vertices, betas)):
        failure = f"vertex {j} is not internally passive at beta={beta}"
        _require_certified(R, np.eye(R.n), weight_matrix(float(beta), R.m), failure)
    combined = Realization.from_array(array, nu)
    lower = float(min(betas))
    measured = None
    if measure:
        measured = beta_max(combined, grid=grid).value
    return combined, BetaReport(
        lower_bound=lower, vertex_betas=tuple(float(b) for b in betas), measured=measured
    )


# ---------------------------------------------------------------------------
# polytope truncation


@dataclass(frozen=True)
class CommutationReport:
    lhs: Realization
    rhs: Realization
    defect: float


def _check_balanced_vertex(R: Realization) -> np.ndarray:
    Hc, Ho = gramians(R)
    tol = 1e-8 * (1.0 + max(np.linalg.norm(Hc), np.linalg.norm(Ho)))
    d = np.diag(Hc).real
    for name, G in (("controllability", Hc), ("observability", Ho)):
        if np.linalg.norm(G - np.diag(d)) > tol:
            raise ValueError(
                f"vertex is not balanced: {name} Gramian is not the shared diagonal"
            )
    if np.any(np.diff(d) > tol):
        raise ValueError("balanced Gramian diagonal is not nonincreasing")
    return d


def hull_truncation_commutes(poly: RealizationPolytope, nu: int) -> CommutationReport:
    """Check that truncating a convex combination equals combining truncations.

    All vertices must be balanced in aligned coordinates with one shared
    Hankel diagonal (verified to 1e-8), and the cut must pass
    ``truncate_balanced``'s order and gap check on that diagonal. The two
    sides are then identical linear images of the same data, so the defect
    is zero to machine precision.
    """
    if poly.weights is None:
        raise ValueError("commutation check requires convex weights")
    sig0 = None
    for v in poly.vertices:
        d = _check_balanced_vertex(v)
        if sig0 is None:
            sig0 = d
        elif np.linalg.norm(d - sig0) > 1e-8 * (1.0 + np.linalg.norm(sig0)):
            raise ValueError(
                f"vertices do not share Hankel singular values: {d} vs {sig0}"
            )
    _check_cut(sig0, poly.vertices[0].n, nu)
    combined = combine_realizations(poly)
    lhs = _leading_blocks(combined, nu)
    rhs = combine_realizations(
        RealizationPolytope([_leading_blocks(v, nu) for v in poly.vertices], poly.weights)
    )
    defect = float(np.linalg.norm(lhs.array - rhs.array, "fro"))
    return CommutationReport(lhs=lhs, rhs=rhs, defect=defect)


# ---------------------------------------------------------------------------
# preservation reporting


@dataclass(frozen=True)
class PreservationReport:
    member: bool
    certified: bool
    beta: float
    beta_max_original: float
    beta_max_truncated: float


def hp_preservation_report(
    R: Realization, R_hat: Realization, beta: float, grid: FrequencyGrid | None = None
) -> PreservationReport:
    """Sweep + certificate evidence that a truncation kept the weighted class.

    This reports, it does not guarantee: preservation at a fixed weight is
    assured along the internally passive route (identity certificate plus
    isometric truncation), while plain balanced truncation can shave weights
    right at the extremal boundary. The two measured extremal weights make
    any such loss visible.
    """
    beta = float(beta)
    report = sweep_membership(R_hat, ClassSpec("HP", beta), grid)
    cert = find_certificate(R_hat, beta)
    b0 = beta_max(R, grid=grid).value
    b1 = beta_max(R_hat, grid=grid).value
    return PreservationReport(
        member=report.member,
        certified=cert is not None,
        beta=beta,
        beta_max_original=b0,
        beta_max_truncated=b1,
    )

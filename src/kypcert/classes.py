"""Frequency-domain class membership for realizations.

Membership of F in a positive-real style class is decided by (a) an
analyticity test on the poles of the given realization and (b) the slack on
the imaginary axis plus the point at infinity, which suffices by the maximum
principle for these classes. Every class is one quadratic form (X, V, Y),
and so is its Popov Hamiltonian, whose imaginary eigenvalues are the
frequencies where the slack turns singular; ``_popov_hamiltonian`` returns
them, and every axis test here and in ``kyp`` reads them from it. With A
Hurwitz and a definite D-block, the slack at the midpoints between those
crossings decides P, B, HP and HB exactly; otherwise, and for PO, a
frequency grid decides.

Alongside the sweep live the structure-preserving transforms between the
positive and bounded families (Cayley, the two affine maps, left
conjugation) and the extremal-weight searches (largest scalar weight,
largest weight along a ray, strict-positivity margin). Those are read off
the same Hamiltonian: the weights by a level-set iteration started from the
grid, the margin by a criss-cross search that alternates the exact axis test
of a shifted realization with the real zeros of F + F* along a frequency.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .hermat import _spectrum, hermitian_power, is_pd, require_hermitian
from .qmi import ClassSpec, _class_form, class_form, membership_slack_matrix, weight_matrix
from .realization import (
    Realization,
    adjoint_realization,
    evaluate_grid,
    poles,
)

__all__ = [
    "FrequencyGrid",
    "MembershipReport",
    "ExtremalWeight",
    "Disk",
    "DiskPair",
    "sweep_membership",
    "beta_max",
    "t_ray_max",
    "sp_margin",
    "cayley_function",
    "affine_hb_maps",
    "left_conjugate",
    "disk_params",
    "canonical_check",
]

POLE_SKIP_TOL = 1e-8  # grid points this close to a pole are skipped and reported


@dataclass(frozen=True)
class FrequencyGrid:
    """Read-only nonnegative sample frequencies (rad/s) plus the point at infinity."""

    omegas: np.ndarray

    def __post_init__(self):
        om = np.asarray(self.omegas, dtype=float).ravel()
        if om.size == 0:
            raise ValueError("frequency grid must be nonempty")
        if not np.all(np.isfinite(om)):
            raise ValueError("frequency grid must be finite; infinity is always evaluated")
        if np.any(om < 0):
            raise ValueError("frequency grid must be nonnegative")
        om = np.sort(om)
        om.flags.writeable = False
        object.__setattr__(self, "omegas", om)

    @classmethod
    def default(cls, points: int = 401) -> "FrequencyGrid":
        """0 plus `points` log-spaced frequencies in [1e-6, 1e6]."""
        return cls(np.concatenate([[0.0], np.logspace(-6.0, 6.0, points)]))


@dataclass(frozen=True)
class MembershipReport:
    """Verdict of ``sweep_membership``; ``exact`` means it holds between grid points too."""

    member: bool
    min_slack: float
    argmin_omega: float
    analyticity_ok: bool
    pole_omegas: tuple = ()
    points_used: int = 0
    exact: bool = False


@dataclass(frozen=True)
class ExtremalWeight:
    """The largest admissible weight scale and how it was found.

    ``empty`` is set when no strictly positive scale passes, i.e. the
    function is merely positive. ``argmin_omega`` is the frequency where the
    bound binds (inf for s = inf), ``iterations`` the number of level-set
    steps, and ``exact`` is False when ``value`` is a grid minimum that the
    Hamiltonian could not verify (a singular D-block, or the step cap).
    """

    value: float
    empty: bool
    argmin_omega: float = math.nan
    iterations: int = 0
    exact: bool = True


_DEFAULT_GRID = FrequencyGrid.default()


def _grid_or_default(grid) -> FrequencyGrid:
    return grid if grid is not None else _DEFAULT_GRID


def _sweep_points(R: Realization, grid: FrequencyGrid):
    """Evaluation points, skipping frequencies near the eigenvalues of A.

    Returns (omegas_used, values, skipped_omegas). For realizations with
    complex coefficients the grid is mirrored to negative frequencies.
    """
    om = grid.omegas
    if not R.is_real:
        om = np.unique(np.concatenate([-om[::-1], om]))
    keep = _off_poles(R, om)
    return om[keep], evaluate_grid(R, 1j * om[keep]), tuple(om[~keep])


def _off_poles(R: Realization, om: np.ndarray) -> np.ndarray:
    """Mask of the frequencies w with jw farther than POLE_SKIP_TOL from every pole."""
    dist = np.abs(1j * om[:, None] - R._modal.lam).min(axis=1, initial=math.inf)
    return dist > POLE_SKIP_TOL


def _batched_slack(form, values: np.ndarray, side: str = "right"):
    """Per-point (lambda_min, lambda_max, tau_psd) of the membership slack."""
    w, tau = _spectrum(membership_slack_matrix(form, values, side))
    return w[:, 0], w[:, -1], tau


def sweep_membership(
    R: Realization, spec: ClassSpec, grid: FrequencyGrid | None = None, side: str = "right"
) -> MembershipReport:
    """Membership test of the transfer function against a class.

    Analyticity is required strictly (Hurwitz poles) for B, HP, HB and SP;
    for P and PO poles may sit on the imaginary axis, in which case the
    offending grid points are skipped and reported. For P, B, HP and HB with
    A Hurwitz and no negative point on ``grid`` plus infinity, the slack at
    the midpoints between the Popov Hamiltonian's crossings joins the report
    and decides the verdict. ``exact`` is True when failed analyticity, a
    negative point or the Hamiltonian decides; a singular D-block or a pole
    on the axis leaves a member to the grid. PO, never exact, demands the
    slack vanish at every surviving point (at least three must survive). SP
    delegates to the shift margin, which is exact with a definite D-block.
    """
    grid = _grid_or_default(grid)
    if R.p != R.m:
        raise ValueError("class membership requires a square transfer function")
    info = poles(R)
    strict = spec.tag in ("B", "HP", "HB", "SP")
    analyticity_ok = info.hurwitz if strict else info.analytic_in_cr

    omegas, values, skipped = _sweep_points(R, grid)
    omegas, values = np.append(omegas, math.inf), np.concatenate([values, R.D[None]])
    form = class_form(spec, dim=R.m)
    lo, hi, tau = _batched_slack(form, values, side=side)
    exact = not analyticity_ok or bool(np.any(lo < -tau))
    if info.hurwitz and not exact and spec.tag not in ("PO", "SP"):
        axis = _crossing_slack(R, form, side)
        if axis is not None:
            omegas, lo, hi, tau = (np.concatenate(a) for a in zip((omegas, lo, hi, tau), axis))
            exact = True
    exact = exact and spec.tag != "PO"

    min_slack = argmin = math.nan  # every point was skipped at a pole
    if lo.size:
        k = int(np.lexsort((omegas, lo))[0])
        min_slack, argmin = float(lo[k]), float(omegas[k])
    if spec.tag == "PO":
        equal = np.all(np.abs(lo) <= tau) and np.all(np.abs(hi) <= tau)
        member = analyticity_ok and lo.size >= 3 and bool(equal)
    elif spec.tag == "SP":
        member = False  # unless the margin says so: exact here disproves P
        if not exact and lo.size:
            margin, exact = _sp_margin(R, 1e-8, grid, info)
            member = margin > 0.0
    else:
        member = analyticity_ok and lo.size > 0 and bool(np.all(lo >= -tau))
    return MembershipReport(
        member=member,
        min_slack=min_slack,
        argmin_omega=argmin,
        analyticity_ok=analyticity_ok,
        pole_omegas=skipped,
        points_used=int(lo.size),
        exact=exact,
    )


# ---------------------------------------------------------------------------
# Popov Hamiltonian

_AXIS_TOL = 1e-9  # relative distance at which a Hamiltonian eigenvalue is on the axis


def _gram_blocks(R: Realization, form):
    """(C* X C, S, W) with G* Theta G = [[C* X C, S], [S*, W]] and G = [[C, D], [0, I]].

    Theta = [[X, V], [V, Y]] is the form matrix; S = C* (X D + V) and
    W = D* X D + V D + D* V + Y, the slack at s = inf.
    """
    X, V, Ch, Dh = form.X, form.V, R.C.conj().T, R.D.conj().T
    W = Dh @ X @ R.D + V @ R.D + Dh @ V + form.Y
    return Ch @ X @ R.C, Ch @ (X @ R.D + V), 0.5 * (W + W.conj().T)


def _popov_hamiltonian(R: Realization, form, eps: float = 0.0):
    """lambda_min of the D-block W, Popov Hamiltonian M and axis ``crossings`` of a form.

    M reads the blocks C* X C, S and W of G* Theta G (``_gram_blocks``).
    Eliminating a definite W from the certificate slack S(H) by a Schur
    complement turns S(H) >= 0 into a Riccati inequality in H; equality gives

        H Abar + Abar* H - H Rr H - Qbar = 0

    with Abar = -A + B W^{-1} S*, Rr = B W^{-1} B*, Qbar = S W^{-1} S* - C* X C
    and M = [[Abar, -Rr], [Qbar, -Abar*]]. An eigenvalue j*w of M marks a
    frequency -w where the slack turns singular; ``crossings`` holds those
    frequencies (empty when M misses the axis). With ``eps`` the same is done
    for S(H) + eps I >= 0: W + eps I is the D-block and Qbar - eps I the
    Riccati constant. M and ``crossings`` are None unless W > 0.
    """
    CXC, S, W = _gram_blocks(R, form)
    W = W + eps * np.eye(R.m)
    w, tau = _spectrum(W)
    wmin = float(w[0])
    if wmin <= tau:
        return wmin, None, None
    Wi = np.linalg.inv(W)
    Abar = -R.A + R.B @ Wi @ S.conj().T
    Rr = R.B @ Wi @ R.B.conj().T
    Qbar = S @ Wi @ S.conj().T - CXC
    Qbar = 0.5 * (Qbar + Qbar.conj().T) - eps * np.eye(R.n)
    M = np.block([[Abar, -Rr], [Qbar, -Abar.conj().T]])
    ev = np.linalg.eigvals(M if M.imag.any() else M.real)
    on_axis = np.abs(ev.real) <= _AXIS_TOL * (1.0 + np.abs(ev).max(initial=0.0))
    return wmin, M, -ev[on_axis].imag


def _axis_frequencies(R: Realization, crossings: np.ndarray) -> np.ndarray:
    """The midpoints between neighbouring ``crossings`` of a Popov Hamiltonian.

    Between two neighbouring crossings no eigenvalue of the Popov slack
    changes sign, so one midpoint decides a whole interval; at a crossing
    itself the slack is singular by construction, so it is not returned.
    For real data the crossings are mirrored before the midpoints are taken
    and only w >= 0 is kept, since the slack at -jw is the conjugate of that
    at jw. Midpoints within POLE_SKIP_TOL of an eigenvalue of A are dropped.
    """
    om = crossings
    if R.is_real:
        om = np.concatenate([om, -om])
    om = np.unique(om)
    om = 0.5 * (om[1:] + om[:-1])
    if R.is_real:
        om = om[om >= 0.0]
    return om[_off_poles(R, om)]


def _crossing_slack(R: Realization, form, side: str = "right"):
    """(omegas, lambda_min, lambda_max, tau) of the slack between Hamiltonian crossings.

    The points are the midpoints between neighbouring crossings of the
    Popov Hamiltonian of ``form``; None when its D-block W is not positive
    definite. With A Hurwitz and W > 0 no slack eigenvalue changes sign
    between neighbouring crossings or beyond the outermost ones, so these
    points and s = inf decide the whole axis. The left side at w is the
    right side of the adjoint at -w, the same spectrum for real data.
    """
    if side == "left":
        R = adjoint_realization(R)
    _, M, crossings = _popov_hamiltonian(R, form)
    if M is None:
        return None
    om = _axis_frequencies(R, crossings) if crossings.size else crossings
    lo, hi, tau = _batched_slack(form, evaluate_grid(R, 1j * om))
    return (om if side == "right" or R.is_real else -om), lo, hi, tau


# ---------------------------------------------------------------------------
# extremal weights

LEVEL_SET_STEPS = 50  # cap on Hamiltonian tests per weight or margin; reaching it warns


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")


def _warn_step_cap(step: int, what: str, value: float) -> None:
    warnings.warn(
        f"level-set iteration stopped after {step} steps; "
        f"the {what} {value!r} is not verified on the whole axis",
        RuntimeWarning,
        stacklevel=4,
    )


def _pencil_bound(values: np.ndarray, T_dir: np.ndarray, t_hi: float) -> np.ndarray:
    """Per point, the largest t <= t_hi with F + F* - t (T_dir + F* T_dir F) >= 0.

    This is lambda_min of the pencil (F + F*, N), N = T_dir + F* T_dir F,
    from one batched Cholesky factor N = L L* and the eigenvalues of
    L^{-1} (F + F*) L^{-*}; a negative value means F + F* is indefinite.
    Both sides are relaxed by d = 1e-12 (1 + |N|): the pencil of
    (F + F* + t_hi d I, N + d I) lies between the exact bound and the one
    that allows slack -t_hi d, it has a Cholesky factor where a singular
    direction leaves N singular, and a direction N does not see is capped
    near t_hi.
    """
    def herm(M):
        return 0.5 * (M + M.conj().transpose(0, 2, 1))

    Eh = values.conj().transpose(0, 2, 1)
    N = herm(T_dir + Eh @ T_dir @ values)
    d = 1e-12 * (1.0 + np.linalg.norm(N, axis=(1, 2)))[:, None, None]
    eye = np.eye(N.shape[-1])
    Li = np.linalg.inv(np.linalg.cholesky(N + d * eye))
    P = Li @ (herm(values + Eh) + t_hi * d * eye) @ Li.conj().transpose(0, 2, 1)
    return np.minimum(np.linalg.eigvalsh(herm(P))[:, 0], t_hi)


def _level_set_weight(
    R: Realization, T_dir: np.ndarray, grid: FrequencyGrid, tol: float
) -> ExtremalWeight:
    """Largest t < 1 / lambda_max(T_dir) with F in HP(t T_dir), by level sets.

    The pencil bound t(w) on the grid plus s = inf gives a start t; then the
    Popov Hamiltonian at the level t - tol is built. If its spectrum misses
    the imaginary axis, t(w) >= t - tol on the whole axis, and that level is
    the answer. Otherwise t drops to the smallest bound at the midpoints
    between the crossings (at most the level, which the crossings already
    disprove), and the test repeats: the Bruinsma-Steinbuch iteration, run
    on a minimum. When the D-block at s = inf is only within the zero band
    of definite, the gap below t is doubled instead.
    """
    _check_tol(tol)
    if R.p != R.m:
        raise ValueError("class membership requires a square transfer function")
    if not poles(R).hurwitz:
        return ExtremalWeight(0.0, True)
    # the constraint t * T_dir < I is open: stay 1e-8 inside it
    t_hi = (1.0 - 1e-8) / float(np.linalg.eigvalsh(T_dir)[-1])
    omegas, values, _ = _sweep_points(R, grid)
    omegas = np.append(omegas, math.inf)
    bounds = _pencil_bound(np.concatenate([values, R.D[None]]), T_dir, t_hi)
    k = int(np.argmin(bounds))
    t, argmin = float(bounds[k]), float(omegas[k])

    if not is_pd(T_dir) and not is_pd(R.D + R.D.conj().T):
        # the D-block is singular at every level, so no Hamiltonian exists
        if t < tol:
            return ExtremalWeight(0.0, True, argmin)
        return ExtremalWeight(t, False, argmin, exact=False)
    gap, step = tol, 0
    while True:
        level = t - gap
        if level < tol:
            return ExtremalWeight(0.0, True, argmin, step)
        if step == LEVEL_SET_STEPS:
            _warn_step_cap(step, "weight", level)
            return ExtremalWeight(level, False, argmin, step, exact=False)
        step += 1
        _, M, crossings = _popov_hamiltonian(R, _class_form("HP", level * T_dir))
        if M is None:
            gap *= 2.0
            continue
        if not crossings.size:
            return ExtremalWeight(level, False, argmin, step)
        om = _axis_frequencies(R, crossings)
        t = level
        if om.size:
            b = _pencil_bound(evaluate_grid(R, 1j * om), T_dir, t_hi)
            k = int(np.argmin(b))
            if b[k] < t:
                t, argmin = float(b[k]), float(om[k])


def beta_max(R: Realization, grid: FrequencyGrid | None = None, tol: float = 1e-8) -> ExtremalWeight:
    """Largest beta in [0, 1) with F in HP(beta), by a level-set iteration.

    ``grid`` only seeds the iteration; the value is verified on the whole
    imaginary axis by the Popov Hamiltonian and lies within ``tol`` below
    the smallest per-frequency bound. A function that is positive but not
    quantitatively so comes back as value 0 with the ``empty`` flag set.
    """
    return _level_set_weight(R, np.eye(R.m), _grid_or_default(grid), tol)


def t_ray_max(
    R: Realization,
    T_dir,
    grid: FrequencyGrid | None = None,
    tol: float = 1e-8,
) -> ExtremalWeight:
    """Largest t with t * T_dir < I and F in HP(t * T_dir), along a weight ray.

    The same level-set iteration as ``beta_max``, with the pencil
    (F + F*, T_dir + F* T_dir F). When T_dir and D + D* are both singular
    the D-block of every level is singular, and the grid minimum comes back
    with ``exact`` False.
    """
    grid = _grid_or_default(grid)
    T_dir = require_hermitian(T_dir, "T_dir")
    w, tau = _spectrum(T_dir)
    if w[0] < -tau or w[-1] <= tau:
        raise ValueError("T_dir must be a nonzero positive semidefinite direction")
    return _level_set_weight(R, T_dir, grid, tol)


def sp_margin(R: Realization, tol: float = 1e-8, grid: FrequencyGrid | None = None) -> float:
    """Largest eps >= 0 such that F(s - eps) is still positive real.

    A criss-cross search (Burke-Lewis-Overton) on the set where F + F* has a
    negative eigenvalue, whose rightmost real part is -eps*. It starts
    2 * max(tol, POLE_SKIP_TOL) inside the rightmost pole. At a level eps
    the axis test of the shifted realization finds the frequencies w where
    F(-eps + jw) + F(-eps + jw)* is indefinite; along each such line the
    rightmost real zero p of F(p + jw) + F(p + jw)* bounds eps* by -p, and
    the next level is tol below the smallest bound. The first level whose
    test finds nothing is returned, so it lies within 2 * max(tol,
    POLE_SKIP_TOL) of eps*. With D + D* > 0 the test is exact: F shifted
    by the value is positive real on the whole axis. Otherwise the test
    sweeps ``grid`` and the zeros come from a pencil. A non-Hurwitz
    realization has no margin and returns 0, as does a level that drops to
    0 or below. After LEVEL_SET_STEPS levels the last one is returned
    unverified, with a RuntimeWarning.
    """
    return _sp_margin(R, tol, _grid_or_default(grid), poles(R))[0]


def _line_zeros(R: Realization, omegas: np.ndarray, definite: bool) -> list:
    """Per frequency w, the real p at which F(p + jw) + F(p + jw)* is singular.

    For real p that sum is C_g (pI - A_g)^{-1} B_g + W with
    A_g = diag(A - jwI, A* + jwI), B_g = [B; C*], C_g = [C, B*] and
    W = D + D*. Its zeros are the eigenvalues of A_g - B_g W^{-1} C_g when W
    is ``definite``, and otherwise the finite eigenvalues of the Rosenbrock
    pencil ([[A_g, B_g], [-C_g, -W]], diag(I, 0)). A direction v with
    B_g v = 0 and W v = 0 is in the kernel at every p and would make that
    pencil singular, so those directions are projected out first. The last
    block row and column are scaled by 1 + |w|, the size of A_g, which
    leaves the finite eigenvalues alone and keeps QZ accurate at high
    frequencies.
    """
    n = R.n
    jw = 1j * omegas[:, None, None] * np.eye(n)
    Ag = np.zeros((omegas.size, 2 * n, 2 * n), dtype=complex)
    Ag[:, :n, :n] = R.A - jw
    Ag[:, n:, n:] = R.A.conj().T + jw
    Bg = np.vstack([R.B, R.C.conj().T])
    Cg = np.hstack([R.C, R.B.conj().T])
    W = R.D + R.D.conj().T
    if definite:
        zeros = list(np.linalg.eigvals(Ag - Bg @ np.linalg.solve(W, Cg)))
    else:
        from scipy.linalg import eigvals  # QZ only for a singular D-block

        _, sv, Vh = np.linalg.svd(np.vstack([Bg, W]))
        r = int(np.sum(sv > 1e-12 * sv[0]))
        if r < R.m:
            Q = Vh[:r].conj().T
            Bg, Cg, W = Bg @ Q, Q.conj().T @ Cg, Q.conj().T @ W @ Q
        E = np.diag(np.r_[np.ones(2 * n), np.zeros(W.shape[0])])
        zeros = []
        for M, w in zip(Ag, omegas):
            k = 1.0 + abs(w)
            z = eigvals(np.block([[M, k * Bg], [-k * Cg, -k * k * W]]), E)
            zeros.append(z[np.isfinite(z)])
    return [
        z[np.abs(z.imag) <= _AXIS_TOL * (1.0 + np.abs(z)) * (1.0 + abs(w))].real
        for z, w in zip(zeros, omegas)
    ]


def _sp_margin(R: Realization, tol: float, grid: FrequencyGrid, info) -> tuple[float, bool]:
    """``sp_margin`` from the poles ``info``, and whether the value is exact.

    Exact means D + D* > 0 decided the returned level: it is verified on the
    whole shifted axis, or 0 is proved by a negative slack on the axis.
    """
    _check_tol(tol)
    if R.p != R.m:
        raise ValueError("class membership requires a square transfer function")
    if not info.hurwitz:
        return 0.0, True
    form = class_form(ClassSpec("P"), dim=R.m)
    lo, _, tau = _batched_slack(form, R.D[None])
    if lo[0] < -tau[0]:  # negative at s = inf under every shift
        return 0.0, True
    if R.n == 0:  # a nonnegative constant is entire
        return math.inf, True
    lam = info.eigenvalues
    # start 2 POLE_SKIP_TOL off the rightmost pole, so the axis test keeps the
    # midpoints between the crossings around it
    eps = -float(lam.real.max()) - 2.0 * max(tol, POLE_SKIP_TOL)
    exact, step = False, 0
    while eps > 0.0:
        if step == LEVEL_SET_STEPS:
            _warn_step_cap(step, "margin", eps)
            return eps, False
        step += 1
        shifted = Realization(R.A + eps * np.eye(R.n), R.B, R.C, R.D)
        axis = _crossing_slack(shifted, form)
        exact = axis is not None
        if exact:
            om, lo, _, tau = axis
        else:  # D + D* is singular: the grid decides
            om, values, _ = _sweep_points(shifted, grid)
            lo, _, tau = _batched_slack(form, values)
        bad = om[lo < -tau]
        if not bad.size:
            return eps, exact
        # a line without a zero in (-eps, 0] stays indefinite up to the axis
        p = max(
            max(z[(z > -eps) & (z <= 0.0)], default=0.0)
            for z in _line_zeros(R, bad, exact)
        )
        eps = -p - tol
    return 0.0, exact


# ---------------------------------------------------------------------------
# transforms


def cayley_function(R: Realization) -> Realization:
    """Realization of (I - F)(I + F)^{-1}; involutive on transfer functions."""
    if R.p != R.m:
        raise ValueError("Cayley transform requires a square transfer function")
    eye = np.eye(R.m)
    IpD = eye + R.D
    if R.m and 1.0 / np.linalg.cond(IpD) < 1e-12:
        raise ValueError("Cayley transform undefined: -1 in the spectrum of D")
    W = np.linalg.inv(IpD)
    return Realization(
        A=R.A - R.B @ W @ R.C,
        B=R.B @ W,
        C=-2.0 * W @ R.C,
        D=2.0 * W - eye,
    )


def affine_hb_maps(R: Realization, T) -> tuple[Realization, Realization]:
    """The two affine companions of F inside the hyper-bounded class.

    G2 = (I + T^{-1})^{-1/2} (F - T^{-1}) (I + T^{-1})^{-1/2} and G3 = -G2.
    Both inherit HB(T) membership from HP(T) membership of F. The weight
    must be nonsingular (0 < T < I).
    """
    if R.p != R.m:
        raise ValueError("affine maps require a square transfer function")
    T = weight_matrix(T, R.m)
    if not is_pd(T):
        raise ValueError("affine maps require a nonsingular weight (T > 0)")
    Ti = hermitian_power(T, -1)
    scale = hermitian_power(np.eye(R.m) + Ti, -0.5)
    G2 = Realization(
        A=R.A,
        B=R.B @ scale,
        C=scale @ R.C,
        D=scale @ (R.D - Ti) @ scale,
    )
    G3 = Realization(A=G2.A, B=G2.B, C=-G2.C, D=-G2.D)
    return G2, G3


def left_conjugate(R: Realization, T) -> Realization:
    """Realization of (I - T^2)^{-1/2} (F(conj(s)))* (I - T^2)^{1/2}.

    Built on the adjoint system (A*, C*, B*, D*); membership in the
    weighted class is preserved in both directions.
    """
    if R.p != R.m:
        raise ValueError("left conjugation requires a square transfer function")
    T = weight_matrix(T, R.m)
    eye = np.eye(R.m)
    W = hermitian_power(eye - T @ T, 0.5)
    Wi = hermitian_power(eye - T @ T, -0.5)
    adj = adjoint_realization(R)
    return Realization(A=adj.A, B=adj.B @ W, C=Wi @ adj.C, D=Wi @ adj.D @ W)


@dataclass(frozen=True)
class Disk:
    center: complex
    radius: float


@dataclass(frozen=True)
class DiskPair:
    """Scalar geometry of a weight beta: the sub-unit disk and its Cayley image."""

    center_disk: Disk
    inv_disk: Disk | None
    half_plane: bool

    def __iter__(self):
        yield self.center_disk
        yield self.inv_disk


def disk_params(beta: float) -> DiskPair:
    """Centered disk D(0, sqrt(1-b)/sqrt(1+b)) and its image D(1/b, sqrt(1-b^2)/b).

    At beta = 0 the image degenerates to the right half-plane and the
    ``half_plane`` flag is set.
    """
    beta = float(beta)
    weight_matrix(beta, 1)  # range check 0 <= beta < 1
    center = Disk(0.0 + 0.0j, math.sqrt(1.0 - beta) / math.sqrt(1.0 + beta))
    if beta == 0.0:
        return DiskPair(center_disk=center, inv_disk=None, half_plane=True)
    inv = Disk(1.0 / beta + 0.0j, math.sqrt(1.0 - beta * beta) / beta)
    return DiskPair(center_disk=center, inv_disk=inv, half_plane=False)


_RIGHT_HALF_PLANE_SAMPLES = tuple(
    complex(sig, om)
    for sig in (0.1, 1.0, 10.0)
    for om in (0.0, 0.5, 2.0, 50.0)
)


def canonical_check(R: Realization, T, grid: FrequencyGrid | None = None) -> bool:
    """True for members whose slack vanishes identically on the imaginary axis.

    The defining inequality must hold with equality (within 10x the PSD zero
    band) at every surviving grid frequency while remaining nonnegative at
    interior right-half-plane sample points. Non-members are simply not
    canonical.
    """
    grid = _grid_or_default(grid)
    T = weight_matrix(T, R.m)
    spec = ClassSpec("HP", T)
    report = sweep_membership(R, spec, grid)
    if not report.member:
        return False
    form = class_form(spec, dim=R.m)
    _, values, _ = _sweep_points(R, grid)
    lo, hi, tau = _batched_slack(form, values)
    if not (np.all(np.abs(lo) <= 10 * tau) and np.all(np.abs(hi) <= 10 * tau)):
        return False
    interior = evaluate_grid(R, np.asarray(_RIGHT_HALF_PLANE_SAMPLES))
    lo_i, _, tau_i = _batched_slack(form, interior)
    return bool(np.all(lo_i >= -tau_i))

"""Frequency-domain class membership for realizations.

Membership of F in a positive-real style class is decided by (a) a test of
the poles of the given realization (analyticity, and for P and PO a
Hermitian PSD residue at each pole on the axis) and (b) the slack on
the imaginary axis plus the point at infinity, which suffices by the maximum
principle for these classes. Every class is one quadratic form (X, V, Y),
and so is its Popov Hamiltonian (``_popov_hamiltonian``), whose imaginary
eigenvalues are the frequencies where the slack turns singular; every axis
test here and in ``kyp`` reads them from its spectrum. The D-block W, the
slack at s = inf, has its spectrum taken once per form (``_popov_blocks``),
and ``_popov_hamiltonian`` decides whether a level L has a Hamiltonian (W - L I
above its zero band). With A Hurwitz the least slack over the axis and
s = inf is found by level sets from the pole frequencies, and its sign
decides (SP then asks a P member for its shift margin); a level without a
Hamiltonian ends them, and a verdict they leave open reads a frequency grid.

Alongside the sweep live the structure-preserving transforms between the
positive and bounded families (Cayley, the two affine maps, left
conjugation) and the extremal-weight searches (largest scalar weight,
largest weight along a ray, strict-positivity margin). Those are read off
the same Hamiltonian: the weights by the sweep's level-set iteration on
a per-frequency bound, the margin by a criss-cross search on one pencil
M + eps J + jwI of the Hamiltonian M of F, with J = diag(-I, I).
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .hermat import (
    _band,
    _minus_one_in_spectrum,
    _spectrum,
    hermitian_power,
    is_pd,
    require_hermitian,
)
from .qmi import ClassSpec, _class_form, class_form, membership_slack_matrix, weight_matrix
from .realization import (
    Realization,
    _pole_tolerance,
    _read_only,
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

POLE_SKIP_TOL = 1e-8  # grid points this close to a pole are always skipped and reported


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
        object.__setattr__(self, "omegas", _read_only(np.sort(om)))

    @classmethod
    def default(cls, points: int = 401) -> "FrequencyGrid":
        """0 plus `points` log-spaced frequencies in [1e-6, 1e6]."""
        return cls(np.concatenate([[0.0], np.logspace(-6.0, 6.0, points)]))


@dataclass(frozen=True)
class MembershipReport:
    """Verdict of ``sweep_membership``; ``exact`` means it holds on the whole axis.

    On the level-set path (A Hurwitz, any class) ``min_slack`` is the least
    slack over the axis and s = inf to within 1e-6 (1 + |min_slack|) (at the
    LEVEL_SET_STEPS cap or a level without a Hamiltonian, the least value
    found), attained at ``argmin_omega``; ``points_used`` counts the points
    the iteration evaluated, and ``pole_omegas`` is empty. Otherwise they
    are read off the grid.
    """

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
    function is merely positive. ``argmin_omega`` is where the bound binds
    (inf for s = inf), ``iterations`` the number of Hamiltonians tested, not
    of gap widenings (0 when a seed decides), and ``exact`` is False when
    ``value`` is a minimum no Hamiltonian verified (no D-block, the step cap).
    """

    value: float
    empty: bool
    argmin_omega: float = math.nan
    iterations: int = 0
    exact: bool = True


_DEFAULT_GRID = FrequencyGrid.default()


def _grid_or_default(grid) -> FrequencyGrid:
    return grid if grid is not None else _DEFAULT_GRID


def _sweep_points(R: Realization, grid: FrequencyGrid, shift: float = 0.0):
    """Evaluation points: the grid frequencies w with jw - shift off the poles, then s = inf.

    Returns (omegas_used, F(jw - shift) at them, skipped_omegas); the last
    point is omega = inf with value D. For realizations with complex
    coefficients the grid is mirrored to negative frequencies.
    """
    om = grid.omegas
    if not R.is_real:
        om = _distinct(np.concatenate([-om[::-1], om]))
    s = 1j * om - shift
    keep = np.abs(s[:, None] - R._modal.lam).min(axis=1, initial=math.inf) > _pole_radius(R)
    values = np.concatenate([evaluate_grid(R, s[keep]), R.D[None]])
    return np.append(om[keep], math.inf), values, tuple(om[~keep])


def _distinct(om: np.ndarray) -> np.ndarray:
    """The distinct values of ``om`` in ascending order.

    ``np.sort`` and a ``diff`` mask: the first call of ``np.unique`` imports
    ``numpy.ma``, which costs more than a whole exact sweep.
    """
    om = np.sort(om)
    return om[np.concatenate([[True], np.diff(om) > 0.0])] if om.size else om


def _pole_radius(R: Realization) -> float:
    """Skip radius around a pole: max(POLE_SKIP_TOL, where ``evaluate_grid`` gives NaN)."""
    return max(POLE_SKIP_TOL, _pole_tolerance(R._modal.lam))


def _axis_residues_ok(R: Realization) -> bool:
    """Whether F has a Hermitian PSD residue at each pole on the imaginary axis.

    Near a simple pole jw0 of a positive real F, F ~ K / (s - jw0), and Re F
    >= 0 just right of it needs K = K* >= 0. A pole is on the axis when its
    real part lies inside ``_band`` of the eigenvalues; eigenvalues within
    that band of each other are one repeated pole, and their residues are
    summed. Without modal residues (cond(V) too large) nothing is decided.
    """
    lam, res = R._modal.lam, R._modal.residues
    if res is None:
        return True
    tau = _band(lam)
    for pole in lam[np.abs(lam.real) <= tau]:
        K = res[np.abs(lam - pole) <= tau].sum(axis=0)
        w, band = _spectrum(np.stack([K + K.conj().T, 1j * (K - K.conj().T)]))
        if w[0, 0] < -band[0] or np.abs(w[1]).max() > band[0]:
            return False
    return True


def _batched_slack(form, values: np.ndarray):
    """Per-point (lambda_min, lambda_max, tau_psd) of the right membership slack."""
    w, tau = _spectrum(membership_slack_matrix(form, values))
    return w[:, 0], w[:, -1], tau


def sweep_membership(
    R: Realization, spec: ClassSpec, grid: FrequencyGrid | None = None, side: str = "right"
) -> MembershipReport:
    """Membership test of the transfer function against a class.

    Analyticity is required strictly (Hurwitz poles) for B, HP, HB and SP;
    for P and PO poles may sit on the imaginary axis with Hermitian PSD
    residues, and grid points within ``_pole_radius`` of a pole are skipped
    and reported. With A Hurwitz the least slack over the axis and s = inf
    comes from a level-set iteration (``_min_slack``) seeded at w = 0, the
    pole frequencies and s = inf, whatever the class, and its sign decides;
    a D-block within its zero band reaches the grid only when no seed is negative.
    Otherwise the grid plus infinity is swept, and nothing else. ``exact``
    is True when the poles, a negative point or the Hamiltonian decides; a
    D-block within its zero band or a pole on the axis leaves a member to
    the grid. PO demands the slack vanish at every point read (at least
    three); on the level-set path its slack at s = inf is off its zero
    band, and on the grid it is exact only when its poles disprove it. SP
    is P first: a P member is then decided by the shift margin, which is
    exact with a D-block off its zero band.
    The left slack of F at w is the right slack of the adjoint at -w, as
    every class form has V = I or V = 0: the left side sweeps the adjoint.
    """
    return _sweep(R, spec, _grid_or_default(grid), side)[0]


def _sweep(R: Realization, spec: ClassSpec, grid: FrequencyGrid, side: str):
    """``sweep_membership`` and the (lambda_min, lambda_max, tau) arrays its verdict read.

    The poles and the level set pick the path, never the class; the form's blocks are built once.
    """
    if side not in ("right", "left"):
        raise ValueError(f"side must be 'right' or 'left', got {side!r}")
    if R.p != R.m:
        raise ValueError("class membership requires a square transfer function")
    R, mirror = (adjoint_realization(R), not R.is_real) if side == "left" else (R, False)
    info = poles(R)
    strict = spec.tag in ("B", "HP", "HB", "SP")
    analyticity_ok = info.hurwitz if strict else info.analytic_in_cr

    form = class_form(spec, dim=R.m)
    popov = _popov_blocks(R, form) if info.hurwitz else None
    level_set = _min_slack(R, form, popov[0]) if info.hurwitz else None
    if level_set is not None:
        omegas, (lo, hi, tau) = level_set
        exact, skipped = True, ()
    else:
        omegas, values, skipped = _sweep_points(R, grid)
        lo, hi, tau = _batched_slack(form, values)
        exact = spec.tag != "PO" and bool(np.any(lo < -tau))
    if mirror:  # the adjoint's -w is F's w; real data has one spectrum at +-w
        omegas = np.where(np.isinf(omegas), omegas, -omegas)
        skipped = tuple(-w for w in reversed(skipped))
    poles_ok = analyticity_ok and (info.hurwitz or _axis_residues_ok(R))
    exact = exact or not poles_ok

    k = int(np.lexsort((omegas, lo))[0])
    min_slack, argmin = float(lo[k]), float(omegas[k])
    if spec.tag == "PO":
        equal = np.all(np.abs(lo) <= tau) and np.all(np.abs(hi) <= tau)
        member = poles_ok and lo.size >= 3 and bool(equal)
    else:
        member = poles_ok and bool(np.all(lo >= -tau))
        if spec.tag == "SP" and member:  # SP is P with a positive shift margin
            margin, exact = _sp_margin(R, 1e-8, grid, info, popov)
            member = bool(margin > 0.0)
    return MembershipReport(
        member=member,
        min_slack=min_slack,
        argmin_omega=argmin,
        analyticity_ok=analyticity_ok,
        pole_omegas=skipped,
        points_used=int(lo.size),
        exact=exact,
    ), (lo, hi, tau)


# ---------------------------------------------------------------------------
# Popov Hamiltonian


def _gram_blocks(R: Realization, form):
    """(C* X C, S, W) with G* Theta G = [[C* X C, S], [S*, W]] and G = [[C, D], [0, I]].

    Theta = [[X, V], [V, Y]] is the form matrix; S = C* (X D + V) and
    W = D* X D + V D + D* V + Y, the slack at s = inf.
    """
    X, V, Ch, Dh = form.X, form.V, R.C.conj().T, R.D.conj().T
    W = Dh @ X @ R.D + V @ R.D + Dh @ V + form.Y
    return Ch @ X @ R.C, Ch @ (X @ R.D + V), 0.5 * (W + W.conj().T)


def _popov_blocks(R: Realization, form):
    """((C* X C, S, W, w), sign): ``_gram_blocks`` and W's one ascending spectrum w.

    ``sign`` is -1, 0 or 1 as W, the slack at s = inf, lies below, within or
    above its zero band, the decision the margin and the certificate search read.
    """
    CXC, S, W = _gram_blocks(R, form)
    w = np.linalg.eigvalsh(W)
    tau = _band(w)
    return (CXC, S, W, w), int(w[0] > tau) - int(w[0] < -tau)


def _popov_hamiltonian(R: Realization, blocks, level: float = 0.0, eps: float = 0.0):
    """The Popov Hamiltonian M of ``_popov_blocks``, None unless its D-block is above its band.

    Eliminating a definite W from the certificate slack S(H) by a Schur
    complement turns S(H) >= 0 into a Riccati inequality in H; equality gives

        H Abar + Abar* H - H Rr H - Qbar = 0

    with Abar = -A + B W^{-1} S*, Rr = B W^{-1} B*, Qbar = S W^{-1} S* - C* X C
    and M = [[Abar, -Rr], [Qbar, -Abar*]]. An eigenvalue j*w of M marks a
    frequency -w where the slack turns singular (``_level_candidates``). A
    ``level`` L gives the D-block W - L I of the form (X, V, Y - L I); an
    ``eps`` gives S(H) + eps I >= 0: D-block W + eps I, Riccati constant
    Qbar - eps I. No eigensolve runs here (the D-block's spectrum is
    w + eps - L), and ``inv`` inverts the D-block: rounding from its
    eigenvectors would move which of two tied certificates is returned.
    """
    CXC, S, W, w = blocks
    c = eps - level
    if w[0] + c <= _band(w + c):
        return None
    Wi = np.linalg.inv(W + c * np.eye(R.m))
    n, BWi = R.n, R.B @ Wi
    Qbar = S @ Wi @ S.conj().T - CXC
    M = np.empty((2 * n, 2 * n), dtype=complex)
    M[:n, :n] = BWi @ S.conj().T - R.A
    M[:n, n:] = -(BWi @ R.B.conj().T)
    M[n:, :n] = 0.5 * (Qbar + Qbar.conj().T) - eps * np.eye(n)
    M[n:, n:] = -M[:n, :n].conj().T
    return M


def _eigvals(M: np.ndarray) -> np.ndarray:
    """Eigenvalues of a Hamiltonian, by the real solver when M is real."""
    return np.linalg.eigvals(M if M.imag.any() else M.real)


# ---------------------------------------------------------------------------
# level sets

LEVEL_SET_STEPS = 50  # cap on Hamiltonian tests per sweep, weight or margin


def _level_candidates(ev: np.ndarray) -> np.ndarray:
    """Frequencies -Im(ev) of the Hamiltonian eigenvalues that may lie on the axis.

    An eigenvalue is a candidate when its real part is within ``_band`` of
    zero, or when it is its own mirror. The spectrum of a Hamiltonian is
    symmetric about the imaginary axis, so an eigenvalue lambda off the axis
    has a partner at -conj(lambda). When the eigenvalue nearest to
    -conj(lambda) is lambda itself, it has none, and its real part is
    rounding.
    """
    if not ev.size:
        return ev.real
    mirror = np.argmin(np.abs(ev[:, None] + ev.conj()), axis=0) == np.arange(ev.size)
    return -ev[mirror | (np.abs(ev.real) <= _band(ev))].imag


def _level_points(candidates: np.ndarray, real: bool, search: bool = False) -> np.ndarray:
    """Frequencies that decide one level from its crossing ``candidates``.

    Between two neighbouring crossings no eigenvalue of the slack crosses
    the level, so one point decides a whole interval; at a crossing itself
    the slack is singular by construction, so no candidate is returned.
    The points are the arithmetic midpoint of each pair of neighbouring
    candidates. A minimum ``search`` also takes the geometric mean of each
    such pair of one sign (a minimum approached from inf is bracketed in
    ratio, not in distance) and one point beyond the outermost candidate on
    each side that has one; a one-shot axis test does not need them, and in
    ``sp_margin``'s vertical step each extra negative point costs a
    line-zero eigensolve.
    Data that is ``real`` mirrors the candidates and keeps w >= 0, since the
    slack at -jw is the conjugate of that at jw. No point is dropped near a
    pole: with no pole within ``evaluate_grid``'s pole tolerance of the
    axis, no point on it lies that near a pole.
    """
    om = _distinct(np.concatenate([candidates, -candidates]) if real else candidates)
    if not om.size:
        return om
    a, b = om[:-1], om[1:]
    pts = 0.5 * (a + b)
    if search:
        same = a * b > 0.0
        beyond = [2.0 * om[0]] if om[0] < 0.0 else []
        beyond += [2.0 * om[-1]] if om[-1] > 0.0 else []
        pts = np.concatenate([pts, np.sign(a[same]) * np.sqrt(a[same] * b[same]), beyond])
    return pts[pts >= 0.0] if real else pts


def _seed_frequencies(R: Realization, real: bool) -> np.ndarray:
    """w = 0 and the pole frequencies Im lambda_j(A), |Im lambda_j| for ``real`` data, distinct.

    F(jw) peaks near a lightly damped pole lambda at w = Im lambda; for real
    data w and -w share one spectrum of the slack. Only a pole on the axis
    gives a seed where F is NaN.
    """
    lam = R._modal.lam
    return _distinct(np.append(np.abs(lam.imag) if real else lam.imag, 0.0))


def _level_set(R: Realization, value, level_test):
    """(omegas, values, level, steps) of the level-set iteration on a least value.

    Bruinsma and Steinbuch (Syst. Control Lett. 15, 1990), after Boyd,
    Balakrishnan and Kabamba (Math. Control Signals Syst. 2, 1989).
    ``value`` maps values of F to per-point arrays, the first minimised, at
    s = inf, ``_seed_frequencies`` (with no pole on the axis none is near
    enough a pole to skip) and each Hamiltonian's ``_level_points``.
    ``level_test(values, step)`` gives a level below the least value and the
    Hamiltonian that meets the axis where the first value equals it; a level
    without a Hamiltonian (None) ends the iteration. With no new point below
    it, the level holds between and beyond the candidates (by s = inf), on
    the whole axis. ``steps`` counts the Hamiltonians tested, at most
    LEVEL_SET_STEPS; ``level`` is None unless the last one so holds.
    """
    real = R.is_real
    om = _seed_frequencies(R, real)
    omegas = np.append(om, math.inf)
    values = value(np.concatenate([evaluate_grid(R, 1j * om), R.D[None]]))
    for step in range(LEVEL_SET_STEPS):
        level, M = level_test(values, step)
        if M is None:
            return omegas, values, None, step
        points = _level_points(_level_candidates(_eigvals(M)), real, search=True)
        if points.size:
            new = value(evaluate_grid(R, 1j * points))
            omegas = np.concatenate([omegas, points])
            values = tuple(np.concatenate(a) for a in zip(values, new))
        if not points.size or not np.any(new[0] < level):
            return omegas, values, level, step + 1
    return omegas, values, None, LEVEL_SET_STEPS


def _min_slack(R: Realization, form, blocks):
    """(omegas, (lambda_min, lambda_max, tau)) of an exact sweep, or None.

    ``_level_set`` on lambda_min of the right slack, for A Hurwitz, with the
    form's ``_popov_blocks``. At the least value gamma, L = gamma - 1e-6 (1 +
    |gamma|), never below 0 when gamma >= 0, nor below -tau when gamma is in
    the zero band tau below 0; the Hamiltonian of (X, V, Y - L I) has the
    D-block W - L I, above its band whenever L < lambda_min W, the value at
    s = inf. The last level LEVEL_SET_STEPS allows is the sign test L = -tau,
    needless once gamma < -tau: the points come back whenever a level holds
    or one lies below -tau, at any cap of 1 or more. None when neither holds,
    as for a W within its zero band and no seed below it.
    """

    def level_test(values, step):
        lo, _, tau = values
        k = int(np.argmin(lo))
        gamma, band = float(lo[k]), float(tau[k])
        level = gamma - 1e-6 * (1.0 + abs(gamma))
        if step == LEVEL_SET_STEPS - 1:  # the last level decides the sign alone
            if gamma < -band:
                return None, None
            level = -band
        elif gamma >= 0.0:
            level = max(level, 0.0)
        elif gamma >= -band:
            level = max(level, -band)
        return level, _popov_hamiltonian(R, blocks, level)

    omegas, values, level, _ = _level_set(R, lambda E: _batched_slack(form, E), level_test)
    lo, _, tau = values
    return (omegas, values) if level is not None or np.any(lo < -tau) else None


# ---------------------------------------------------------------------------
# extremal weights


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
    R: Realization, T_dir: np.ndarray, grid: FrequencyGrid | None, tol: float
) -> ExtremalWeight:
    """Largest t < 1 / lambda_max(T_dir) with F in HP(t T_dir), by level sets.

    ``_level_set`` on the pencil bound t(w), at ``tol`` below the least bound
    (a gap doubled, in one level test, until the D-block is above its zero
    band), with the Popov Hamiltonian of HP(level T_dir). A level below
    ``tol`` means no positive weight. With T_dir and D + D* singular no level has a
    Hamiltonian, and the least bound on ``grid`` and s = inf is returned.
    """
    _check_tol(tol)
    if R.p != R.m:
        raise ValueError("class membership requires a square transfer function")
    if not poles(R).hurwitz:
        return ExtremalWeight(0.0, True)
    # the constraint t * T_dir < I is open: stay 1e-8 inside it
    t_hi = (1.0 - 1e-8) / float(np.linalg.eigvalsh(T_dir)[-1])

    if not is_pd(T_dir) and not is_pd(R.D + R.D.conj().T):
        omegas, values, _ = _sweep_points(R, _grid_or_default(grid))
        t = _pencil_bound(values, T_dir, t_hi)
        k = int(np.argmin(t))
        if t[k] < tol:
            return ExtremalWeight(0.0, True, float(omegas[k]))
        return ExtremalWeight(float(t[k]), False, float(omegas[k]), exact=False)
    gap = tol

    def level_test(values, step):
        nonlocal gap
        while (level := float(values[0].min()) - gap) >= tol:
            M = _popov_hamiltonian(R, _popov_blocks(R, _class_form("HP", level * T_dir))[0])
            if M is not None:
                return level, M
            gap *= 2.0
        return level, None

    om, (t,), level, steps = _level_set(R, lambda E: (_pencil_bound(E, T_dir, t_hi),), level_test)
    k = int(np.argmin(t))
    exact = level is not None
    if not exact:
        level = float(t[k]) - gap
        if level < tol:
            return ExtremalWeight(0.0, True, float(om[k]), steps)
        _warn_step_cap(steps, "weight", level)
    return ExtremalWeight(level, False, float(om[k]), steps, exact)


def beta_max(R: Realization, grid: FrequencyGrid | None = None, tol: float = 1e-8) -> ExtremalWeight:
    """Largest beta in [0, 1) with F in HP(beta), by a level-set iteration.

    The sweep's iteration from w = 0, the pole frequencies and s = inf, run
    on the per-frequency bound: the value is verified on the whole axis and
    lies within ``tol`` below the least bound found. ``grid`` is read only
    where no Hamiltonian exists (see ``t_ray_max``). A function that is
    positive but not quantitatively so comes back as 0, flagged ``empty``.
    """
    return _level_set_weight(R, np.eye(R.m), grid, tol)


def t_ray_max(
    R: Realization,
    T_dir,
    grid: FrequencyGrid | None = None,
    tol: float = 1e-8,
) -> ExtremalWeight:
    """Largest t with t * T_dir < I and F in HP(t * T_dir), along a weight ray.

    The same level-set iteration as ``beta_max``, with the pencil (F + F*,
    T_dir + F* T_dir F). With T_dir and D + D* both singular no level has a
    Hamiltonian: the least bound on ``grid`` and s = inf is not ``exact``.
    """
    T_dir = require_hermitian(T_dir, "T_dir")
    w, tau = _spectrum(T_dir)
    if w[0] < -tau or w[-1] <= tau:
        raise ValueError("T_dir must be a nonzero positive semidefinite direction")
    return _level_set_weight(R, T_dir, grid, tol)


def sp_margin(R: Realization, tol: float = 1e-8, grid: FrequencyGrid | None = None) -> float:
    """Largest eps >= 0 such that F(s - eps) is still positive real.

    A criss-cross search (Burke-Lewis-Overton) on the set where F + F* has a
    negative eigenvalue, whose rightmost real part is -eps*. It starts
    2 * max(tol, r) inside the rightmost pole, r the ``_pole_radius`` of the
    sweeps. At a level eps the axis test of F(s - eps) finds the w where
    F(jw - eps) + F(jw - eps)* is indefinite; along each such line the
    rightmost real zero p of F(p + jw) + F(p + jw)* bounds eps* by -p, and
    the next level is tol below the smallest bound. The first level whose
    test finds nothing is returned, so it lies within 2 * max(tol, r) of
    eps*. With D + D* > 0 the test is exact: F shifted by the value is
    positive real on the whole axis. Otherwise the test sweeps ``grid`` and
    the zeros come from a pencil. Real zeros are read through the shared
    zero band (``_line_zeros``). A non-Hurwitz realization has no margin and
    returns 0, as do a D + D* below its zero band and a level that drops to
    0 or below. After LEVEL_SET_STEPS levels the last one is returned
    unverified, with a RuntimeWarning.
    """
    _check_tol(tol)
    if R.p != R.m:
        raise ValueError("class membership requires a square transfer function")
    info = poles(R)
    popov = _popov_blocks(R, class_form(ClassSpec("P"), dim=R.m)) if info.hurwitz else None
    return _sp_margin(R, tol, _grid_or_default(grid), info, popov)[0]


def _line_zeros(R: Realization, omegas: np.ndarray, M) -> list:
    """Per frequency w, the real p at which F(p + jw) + F(p + jw)* is singular.

    For real p that sum is C_g (pI - A_g)^{-1} B_g + W with
    A_g = diag(A - jwI, A* + jwI), B_g = [B; C*], C_g = [C, B*] and
    W = D + D*. With ``M``, the P form's Popov Hamiltonian, its zeros are
    the eigenvalues of A_g - B_g W^{-1} C_g = (M + jwI) diag(-I, I); with
    ``M`` None (W singular) the finite eigenvalues of the Rosenbrock pencil
    ([[A_g, B_g], [-C_g, -W]], diag(I, 0)). A direction v with B_g v = 0 and
    W v = 0 is in the kernel at every p and would make that pencil singular,
    so those directions are projected out first. The last block row and
    column are scaled by 1 + |w|, the size of A_g, which leaves the finite
    eigenvalues alone and keeps QZ accurate at high frequencies. A zero z is
    real when |Im z| lies within the shared zero band ``_band`` of z alone,
    times that size 1 + |w|: QZ can return a rounding-level "finite"
    eigenvalue near 1e15, which would widen a band shared by a line's zeros.
    """
    n = R.n
    if M is not None:
        Z = (M + 1j * omegas[:, None, None] * np.eye(2 * n)) * np.repeat([-1.0, 1.0], n)
        zeros = list(np.linalg.eigvals(Z))  # diag(-I, I) negates the first n columns
    else:
        from scipy.linalg import block_diag, eigvals  # QZ only for a singular D-block

        Bg = np.vstack([R.B, R.C.conj().T])
        Cg = np.hstack([R.C, R.B.conj().T])
        W = R.D + R.D.conj().T
        _, sv, Vh = np.linalg.svd(np.vstack([Bg, W]))
        r = int(np.sum(sv > 1e-12 * sv[0]))
        if r < R.m:
            Q = Vh[:r].conj().T
            Bg, Cg, W = Bg @ Q, Q.conj().T @ Cg, Q.conj().T @ W @ Q
        E = np.diag(np.r_[np.ones(2 * n), np.zeros(W.shape[0])])
        zeros = []
        for w in omegas:
            k, jw = 1.0 + abs(w), 1j * w * np.eye(n)
            Ag = block_diag(R.A - jw, R.A.conj().T + jw)
            z = eigvals(np.block([[Ag, k * Bg], [-k * Cg, -k * k * W]]), E)
            zeros.append(z[np.isfinite(z)])
    return [
        z[np.abs(z.imag) <= (1.0 + abs(w)) * _band(z[:, None])].real
        for z, w in zip(zeros, omegas)
    ]


def _sp_margin(R: Realization, tol: float, grid: FrequencyGrid, info, popov) -> tuple[float, bool]:
    """``sp_margin`` from the poles ``info`` and the P form's ``_popov_blocks``, and whether exact.

    F(s - eps) has the Popov Hamiltonian M + eps J, as the shift moves only
    the -A in Abar. A level reads the midpoints between its crossings and the
    pole frequencies, which catch crossings that rounding pushed off the
    axis; a seed's line is followed only when no midpoint is negative. Exact
    means D + D* > 0 decided the returned level: it is verified on the whole
    shifted axis, or 0 is proved by a negative slack on the axis.
    """
    if not info.hurwitz or popov[1] < 0:  # a negative slack at s = inf stays under every shift
        return 0.0, True
    if R.n == 0:  # a nonnegative constant is entire
        return math.inf, True
    form = class_form(ClassSpec("P"), dim=R.m)
    M = _popov_hamiltonian(R, popov[0])  # None: D + D* is within its band, and the grid decides
    J = np.diag(np.repeat([-1.0, 1.0], R.n))
    seeds = _seed_frequencies(R, R.is_real)
    # start two pole radii off the rightmost pole, beyond the pole tolerance
    # of evaluate_grid, so the axis test can evaluate every point it picks
    eps = -float(info.eigenvalues.real.max()) - 2.0 * max(tol, _pole_radius(R))
    step = 0
    while eps > 0.0:
        if step == LEVEL_SET_STEPS:
            _warn_step_cap(step, "margin", eps)
            return eps, False
        step += 1
        if M is not None:
            mid = _level_points(_level_candidates(_eigvals(M + eps * J)), R.is_real)
            om = np.concatenate([mid, seeds])
            values = evaluate_grid(R, 1j * om - eps)
        else:
            om, values, _ = _sweep_points(R, grid, eps)
        lo, _, tau = _batched_slack(form, values)
        bad = lo < -tau
        if M is not None and bad[:mid.size].any():
            bad[mid.size:] = False
        if not bad.any():
            return eps, M is not None
        # a line without a zero in (-eps, 0] stays indefinite up to the axis
        p = max(
            max(z[(z > -eps) & (z <= 0.0)], default=0.0)
            for z in _line_zeros(R, om[bad], M)
        )
        eps = -p - tol
    return 0.0, step > 0 and M is not None  # a search that tests no level proves nothing


# ---------------------------------------------------------------------------
# transforms


def cayley_function(R: Realization) -> Realization:
    """Realization of (I - F)(I + F)^{-1}; involutive on transfer functions.

    Undefined when an eigenvalue of D lies within the zero band of -1, the
    test ``cayley_matrix`` applies to a matrix.
    """
    if R.p != R.m:
        raise ValueError("Cayley transform requires a square transfer function")
    if _minus_one_in_spectrum(R.D):
        raise ValueError("Cayley transform undefined: -1 in the spectrum of D")
    eye = np.eye(R.m)
    W = np.linalg.inv(eye + R.D)
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


def canonical_check(R: Realization, T, grid: FrequencyGrid | None = None) -> bool:
    """True for members whose slack vanishes identically on the imaginary axis.

    The defining inequality must hold with equality (within 10x the PSD zero
    band) at every point its membership sweep read: the level-set points
    and s = inf, or the grid and s = inf where the level set leaves the
    verdict open. Membership already decides the open right half-plane by the
    maximum principle, so no interior point is sampled; non-members are
    simply not canonical.
    """
    T = weight_matrix(T, R.m)
    report, (lo, hi, tau) = _sweep(R, ClassSpec("HP", T), _grid_or_default(grid), "right")
    vanishes = np.all(np.abs(lo) <= 10 * tau) and np.all(np.abs(hi) <= 10 * tau)
    return report.member and bool(vanishes)

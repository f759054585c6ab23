"""Reference maths for checking kypcert's outputs.

Everything here is written from the definitions, with numpy and scipy only;
nothing is imported from kypcert. A realization is a tuple (A, B, C, D) of
complex arrays, F(s) = C (sI - A)^{-1} B + D.
"""

import numpy as np
import scipy.linalg
import scipy.optimize

from codec import as_complex

# Frequencies the reference samples: 0, a log grid five times denser than
# kypcert's default sweep, and the point at infinity.
REF_OMEGAS = np.concatenate([[0.0], np.logspace(-6.0, 6.0, 2001)])


def freq_response(A, B, C, D, svals):
    """F(s) at each point of ``svals`` (finite), shape (k, p, m), by one solve per point."""
    svals = np.asarray(svals, dtype=complex).ravel()
    n = A.shape[0]
    if n == 0:
        return np.broadcast_to(D, (svals.size,) + D.shape).copy()
    lhs = svals[:, None, None] * np.eye(n) - A
    X = np.linalg.solve(lhs, np.broadcast_to(B, (svals.size,) + B.shape))
    return C @ X + D


def axis_points(real: bool, omegas=REF_OMEGAS):
    """Imaginary-axis sample frequencies; mirrored for complex coefficients."""
    if real:
        return omegas
    return np.unique(np.concatenate([-omegas[::-1], omegas]))


def axis_response(R):
    """(omegas, values) on the axis, with the point at infinity appended as D."""
    A, B, C, D = R
    om = axis_points(all(np.all(M.imag == 0.0) for M in R))
    vals = freq_response(A, B, C, D, 1j * om)
    return np.append(om, np.inf), np.concatenate([vals, D[None]], axis=0)


def _herm(S):
    return 0.5 * (S + np.conj(np.swapaxes(S, -1, -2)))


def class_slack(E, tag, T=None):
    """Hermitian membership slack of values E (..., q, q) for P, B, HP(T), HB(T)."""
    q = E.shape[-1]
    eye = np.eye(q)
    Eh = np.conj(np.swapaxes(E, -1, -2))
    if tag == "P":
        S = E + Eh
    elif tag == "B":
        S = eye - Eh @ E
    elif tag == "HP":
        S = E + Eh - T - Eh @ T @ E
    elif tag == "HB":
        S = (eye - T) - Eh @ (eye + T) @ E
    else:
        raise ValueError(f"no reference slack for class {tag!r}")
    return _herm(S)


def min_eig(S):
    return np.linalg.eigvalsh(_herm(S))[..., 0]


def pencil_bound(E, T_dir):
    """Per point, the largest t with E + E* - t (T_dir + E* T_dir E) >= 0.

    This is lambda_min of the pencil (E + E*, T_dir + E* T_dir E); a negative
    value means E + E* itself is indefinite there.
    """
    Eh = np.conj(np.swapaxes(E, -1, -2))
    N = _herm(T_dir + Eh @ T_dir @ E)
    L = np.linalg.cholesky(N)
    Li = np.linalg.inv(L)
    M = Li @ _herm(E + Eh) @ np.conj(np.swapaxes(Li, -1, -2))
    return np.linalg.eigvalsh(_herm(M))[..., 0]


def witness(R, T_dir):
    """Smallest pencil bound over the axis: (t_upper, omega_witness).

    The grid minimum is refined by a bounded scalar search between its grid
    neighbours, so t_upper is the bound at one exact frequency: no weight
    along T_dir above it can be a member.
    """
    A, B, C, D = R
    om, vals = axis_response(R)
    b = pencil_bound(vals, T_dir)
    k = int(np.argmin(b))
    if not np.isfinite(om[k]) or k == 0 or k >= om.size - 2 or om[k] == 0.0:
        return float(b[k]), float(om[k])
    lo, hi = om[k - 1], om[k + 1]
    if lo <= 0.0 or hi <= 0.0:
        return float(b[k]), float(om[k])

    def f(x):
        return float(pencil_bound(freq_response(A, B, C, D, [1j * np.exp(x)]), T_dir)[0])

    res = scipy.optimize.minimize_scalar(
        f, bounds=(np.log(lo), np.log(hi)), method="bounded", options={"xatol": 1e-10}
    )
    if res.fun < b[k]:
        return float(res.fun), float(np.exp(res.x))
    return float(b[k]), float(om[k])


# ---------------------------------------------------------------------------
# state-space certificates


def kyp_slack(R, H, T):
    """S(H) = diag(-H, I) R + R* diag(-H, I) - G* diag(T, T) G, G = [[C, D], [0, I]]."""
    A, B, C, D = R
    n, m = A.shape[0], D.shape[1]
    arr = np.block([[A, B], [C, D]])
    J = np.zeros((n + m, n + m), dtype=complex)
    J[:n, :n] = -H
    J[n:, n:] = np.eye(m)
    G = np.block([[C, D], [np.zeros((m, n)), np.eye(m)]])
    TT = np.zeros((2 * m, 2 * m), dtype=complex)
    TT[:m, :m] = T
    TT[m:, m:] = T
    return _herm(J @ arr + arr.conj().T @ J - G.conj().T @ TT @ G)


def certificate_ok(R, H, T, floor=-1e-6):
    """(H > 0, smallest slack eigenvalue >= floor) recomputed here."""
    H = as_complex(H)
    n = R[0].shape[0]
    pd = n == 0 or np.linalg.eigvalsh(_herm(H))[0] > 0.0
    slack = float(min_eig(kyp_slack(R, H, as_complex(T))))
    return bool(pd) and slack >= floor, slack


def identity_certified_weight(R, T_dir, t_cap=1.0):
    """Largest t in [0, t_cap) with S(I) >= 0 at weight t * T_dir, by bisection.

    Returns 0 when even t = 0 fails: the identity then certifies nothing.
    """
    n = R[0].shape[0]
    eye = np.eye(n)

    def ok(t):
        return min_eig(kyp_slack(R, eye, t * T_dir)) >= 0.0

    if not ok(0.0):
        return 0.0
    lo, hi = 0.0, t_cap
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return lo


# ---------------------------------------------------------------------------
# transforms and reduction


def cayley(R):
    """Realization of (I - F)(I + F)^{-1}."""
    A, B, C, D = R
    m = D.shape[0]
    W = np.linalg.inv(np.eye(m) + D)
    return (A - B @ W @ C, B @ W, -2.0 * W @ C, 2.0 * W - np.eye(m))


def gramians(R):
    """Controllability and observability Gramians of a Hurwitz realization."""
    A, B, C, _ = R
    Hc = scipy.linalg.solve_continuous_lyapunov(A, -B @ B.conj().T)
    Ho = scipy.linalg.solve_continuous_lyapunov(A.conj().T, -C.conj().T @ C)
    return _herm(Hc), _herm(Ho)


def hankel_singular_values(R):
    Hc, Ho = gramians(R)
    w = np.linalg.eigvals(Hc @ Ho)
    return np.sort(np.sqrt(np.abs(w.real)))[::-1]


def max_gap_norm(R1, R2):
    """Largest spectral norm of F1 - F2 over the reference axis samples."""
    real = all(np.all(M.imag == 0.0) for M in R1 + R2)
    om = axis_points(real, np.concatenate([[0.0], np.logspace(-6.0, 6.0, 601)]))
    E = freq_response(*R1, 1j * om) - freq_response(*R2, 1j * om)
    gap_inf = np.linalg.norm(R1[3] - R2[3], 2)
    return max(float(np.linalg.norm(E, 2, axis=(1, 2)).max()), float(gap_inf))


def rlc_beta(R1, R2):
    """Largest scalar weight of the one-port Series(R1, Parallel(R2, C)).

    Z(jw) traces half of the circle through R1 and R1 + R2 centred on the
    real axis. The set where 2 Re Z / (1 + |Z|^2) >= b is the disk centred
    at 1/b with radius sqrt(1 - b^2) / b, also centred on the real axis, so
    it holds the circle exactly when it holds both real end points:
    beta = min(g(R1), g(R1 + R2)) with g(r) = 2 r / (1 + r^2).
    """

    def g(r):
        return 2.0 * r / (1.0 + r * r)

    return min(g(R1), g(R1 + R2))

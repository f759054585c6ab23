import numpy as np
import pytest

from kypcert.classes import FrequencyGrid, beta_max
from kypcert.realization import Realization


@pytest.fixture(scope="session")
def fast_grid():
    """Coarser grid for property loops; the acceptance suite pins its own."""
    return FrequencyGrid.default(101)


def scalar_realization(a, b, c, d) -> Realization:
    return Realization(A=[[a]], B=[[b]], C=[[c]], D=[[d]])


def f_s2_over_s1() -> Realization:
    # (s + 2)/(s + 1), balanced
    return scalar_realization(-1.0, 1.0, 1.0, 1.0)


def f_s3_over_s1() -> Realization:
    # (s + 3)/(s + 1)
    return scalar_realization(-1.0, 1.0, 2.0, 1.0)


def singular_weight_family(gamma: float) -> Realization:
    """2x2 function with D + D* singular; admits only a singular weight."""
    return Realization(
        A=np.diag([-1.0, -2.0]),
        B=gamma * np.ones((2, 2)),
        C=gamma * np.ones((2, 2)),
        D=[[1.0, 0.0], [0.0, 0.0]],
    )


def delta_dip(delta: float) -> Realization:
    """F = 1 - (1 + delta) 2 z w0 s / (s^2 + 2 z w0 s + w0^2), z = 1e-4, w0 = 30.5492.

    Re F(j w0) = -delta, so F leaves P at w0 (between two default-grid
    points) by an amount that shrinks with delta.
    """
    z, w0 = 1e-4, 30.5492
    return Realization(
        A=[[0.0, 1.0], [-w0 * w0, -2.0 * z * w0]],
        B=[[0.0], [1.0]],
        C=[[0.0, -(1.0 + delta) * 2.0 * z * w0]],
        D=[[1.0]],
    )


def strictly_proper_dip() -> Realization:
    """F = 1/(s+1) - 2 z w0 s / (s^2 + 2 z w0 s + w0^2), z = 1e-4, w0 = 30.5492.

    D = 0, so the P slack at s = inf lies within its zero band, and
    Re F(j w0) = 1/(1 + w0^2) - 1 = -0.999 between two default-grid points.
    """
    z, w0 = 1e-4, 30.5492
    return Realization(
        A=[[-1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, -w0 * w0, -2.0 * z * w0]],
        B=[[1.0], [0.0], [1.0]],
        C=[[1.0, 0.0, -2.0 * z * w0]],
        D=[[0.0]],
    )


def hull_vertex(alpha: float, delta: float, d: float) -> Realization:
    """Degree-2 balanced family with Gramians diag(10, 1) for every parameter."""
    return Realization(
        A=[
            [-(alpha**2) / 5.0, -2.0 * alpha * delta / 11.0],
            [-2.0 * alpha * delta / 11.0, -(delta**2) / 2.0],
        ],
        B=[[2.0 * alpha], [delta]],
        C=[[2.0 * alpha, delta]],
        D=[[d]],
    )


def circuit_realizations():
    """The four inter-related degree-1 one-port realizations at unit elements."""
    Z = scalar_realization(-1.0, 1.0, 1.0, 1.0)
    Y = scalar_realization(-2.0, -1.0, 1.0, 1.0)
    Yhat = scalar_realization(-0.5, 0.5, 0.5, 0.5)
    Zhat = scalar_realization(-1.0, -1.0, 1.0, 2.0)
    return Z, Y, Yhat, Zhat


def random_stable_system(rng, n, m, shift=0.5) -> Realization:
    A = rng.standard_normal((n, n))
    A = A - (np.abs(np.linalg.eigvals(A).real).max() + shift) * np.eye(n)
    B = rng.standard_normal((n, m))
    C = rng.standard_normal((m, n))
    D = rng.standard_normal((m, m)) * 0.3 + (1.0 + rng.uniform(0, 1.5)) * np.eye(m)
    return Realization(A=A, B=B, C=C, D=D)


def random_certified_pool(rng, count, n_max=3, beta_floor=0.1, grid=None):
    """Systems with a usable quantitative margin: returns [(R, beta_max)]."""
    pool = []
    while len(pool) < count:
        n = int(rng.integers(1, n_max + 1))
        m = int(rng.integers(1, 3))
        R = random_stable_system(rng, n, m)
        bm = beta_max(R, grid=grid, tol=1e-7)
        if not bm.empty and bm.value >= beta_floor:
            pool.append((R, bm.value))
    return pool


def transfer_gap(R1, R2, svals) -> float:
    from kypcert.realization import evaluate_grid

    v1 = evaluate_grid(R1, svals)
    v2 = evaluate_grid(R2, svals)
    return float(np.abs(v1 - v2).max())

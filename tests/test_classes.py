import math
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import (
    circuit_realizations,
    f_s2_over_s1,
    f_s3_over_s1,
    random_stable_system,
    scalar_realization,
    singular_weight_family,
    transfer_gap,
)
from kypcert import classes
from kypcert.classes import (
    ExtremalWeight,
    FrequencyGrid,
    affine_hb_maps,
    beta_max,
    canonical_check,
    cayley_function,
    disk_params,
    left_conjugate,
    sp_margin,
    sweep_membership,
    t_ray_max,
)
from kypcert.kyp import find_certificate
from kypcert.qmi import ClassSpec
from kypcert.realization import Realization, evaluate_grid, function_inverse


def canonical_scalar(c: float) -> Realization:
    # (3s + c/3)/(s + c) = 3 - (8c/3)/(s + c)
    return scalar_realization(-c, 1.0, c / 3.0 - 3.0 * c, 3.0)


def lossless_integrator() -> Realization:
    return scalar_realization(0.0, 1.0, 1.0, 0.0)  # 1/s


class TestFrequencyGrid:
    def test_default_shape(self):
        g = FrequencyGrid.default()
        assert g.omegas.size == 402  # 0 plus 401 log-spaced
        assert g.omegas[0] == 0.0
        # 1/(s+1) - 1/2 is positive below w = 1 and -1/2 at s = inf, which
        # every sweep evaluates
        low = FrequencyGrid(g.omegas[g.omegas < 1.0])
        R = scalar_realization(-1.0, 1.0, 1.0, -0.5)
        report = sweep_membership(R, ClassSpec("P"), low)
        assert not report.member
        assert report.argmin_omega == math.inf

    def test_omegas_are_read_only(self):
        for g in (FrequencyGrid.default(), FrequencyGrid([2.0, 0.0, 1.0])):
            with pytest.raises(ValueError, match="read-only"):
                g.omegas[1] = -1.0
        assert classes._grid_or_default(None) is classes._grid_or_default(None)

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="nonnegative"):
            FrequencyGrid(omegas=[-1.0, 0.0])

    def test_sorts(self):
        g = FrequencyGrid(omegas=[3.0, 1.0, 2.0])
        assert list(g.omegas) == [1.0, 2.0, 3.0]


class TestSweepMembership:
    def test_scalar_boundary_weight(self):
        rep = sweep_membership(f_s2_over_s1(), ClassSpec("HP", 0.8))
        assert rep.member
        assert abs(rep.min_slack) < 1e-7
        assert rep.argmin_omega == 0.0

    def test_canonical_slack_vanishes_everywhere(self):
        rep = sweep_membership(canonical_scalar(1.0), ClassSpec("HP", 0.6))
        assert rep.member
        assert abs(rep.min_slack) <= 1e-8

    def test_lossless_integrator_is_odd_positive(self):
        rep = sweep_membership(lossless_integrator(), ClassSpec("PO"))
        assert rep.member
        assert rep.pole_omegas == (0.0,)
        assert rep.points_used >= 3

    def test_lossless_integrator_fails_quantitative(self):
        rep = sweep_membership(lossless_integrator(), ClassSpec("HP", 0.1))
        assert not rep.member
        assert not rep.analyticity_ok

    def test_shifted_function_not_positive(self):
        rep = sweep_membership(scalar_realization(-1.0, 1.0, 1.0, -0.9),
                               ClassSpec("P"))
        assert not rep.member

    def test_rectangular_rejected(self):
        R = Realization(A=[[-1.0]], B=[[1.0]], C=[[1.0], [1.0]], D=[[0.0], [0.0]])
        with pytest.raises(ValueError, match="square"):
            sweep_membership(R, ClassSpec("P"))

    def test_complex_coefficients_mirror_the_grid(self):
        # the response of this system is asymmetric in omega; its least
        # slack sits near omega = -5, which only the mirrored grid visits
        R = Realization(A=[[-1.0 - 5.0j]], B=[[1.0]], C=[[1.0]], D=[[1.0]])
        rep = sweep_membership(R, ClassSpec("HP", 0.9))
        assert not rep.member
        assert rep.argmin_omega < 0.0
        one_sided = sweep_membership(
            Realization(A=[[-1.0 + 5.0j]], B=[[1.0]], C=[[1.0]], D=[[1.0]]),
            ClassSpec("HP", 0.9),
        )
        # conjugate system: same minimum at the opposite frequency sign
        assert abs(one_sided.min_slack - rep.min_slack) < 1e-12
        assert one_sided.argmin_omega == -rep.argmin_omega

    def test_bounded_class_sweep(self):
        g = cayley_function(f_s2_over_s1())
        assert sweep_membership(g, ClassSpec("B")).member
        big = Realization(A=[[-1.0]], B=[[1.0]], C=[[2.0]], D=[[0.0]])  # peak 2
        assert not sweep_membership(big, ClassSpec("B")).member


class TestBetaMax:
    def test_known_scalar(self):
        assert abs(beta_max(f_s2_over_s1()).value - 0.8) < 1e-6

    def test_second_scalar(self):
        assert abs(beta_max(f_s3_over_s1()).value - 0.6) < 1e-6

    def test_truncated_family_value(self):
        gamma = math.sqrt(2.0 / 3.0)
        R = Realization(
            A=np.diag([-1.0, -2.0]),
            B=gamma * np.ones((2, 1)),
            C=gamma * np.ones((1, 2)),
            D=[[1.0]],
        )
        assert abs(beta_max(R).value - 0.8) < 1e-6

    def test_closed_form_cross_check(self, fast_grid):
        # scalar oracle: 1/beta = sup (|f|^2 + 1)/(2 Re f) over the axis
        rng = np.random.default_rng(17)
        for _ in range(10):
            R = scalar_realization(
                -rng.uniform(0.5, 2.0), rng.uniform(0.5, 1.5),
                rng.uniform(0.5, 1.5), rng.uniform(1.0, 3.0),
            )
            om = np.concatenate([[0.0], np.logspace(-6, 6, 4001)])
            f = evaluate_grid(R, 1j * om)[:, 0, 0]
            vals = (np.abs(f) ** 2 + 1.0) / (2.0 * f.real)
            vals = np.append(vals, (abs(R.D[0, 0]) ** 2 + 1) / (2 * R.D[0, 0].real))
            oracle = 1.0 / vals.max()
            assert abs(beta_max(R, grid=fast_grid, tol=1e-9).value - oracle) < 1e-5

    def test_merely_positive_flag(self):
        res = beta_max(lossless_integrator())
        assert res.value == 0.0 and res.empty


class TestTRayMax:
    def test_identity_direction_matches_beta(self, fast_grid):
        R = f_s2_over_s1()
        ray = t_ray_max(R, np.eye(1), grid=fast_grid)
        assert abs(ray.value - beta_max(R, grid=fast_grid).value) < 1e-6

    def test_singular_direction_reaches_half(self):
        ray = t_ray_max(singular_weight_family(1.0), np.diag([1.0, 0.0]))
        assert ray.value >= 0.5 - 1e-6

    def test_isotropic_direction_empty(self):
        ray = t_ray_max(singular_weight_family(1.0), np.eye(2))
        assert ray.value == 0.0 and ray.empty


class TestSpMargin:
    def test_simple_lag(self):
        m = sp_margin(scalar_realization(-1.0, 1.0, 1.0, 0.0))
        assert 0.0 < m < 1.0
        # monotonicity: any smaller shift stays positive
        for eps in (0.25 * m, 0.5 * m, 0.9 * m):
            shifted = scalar_realization(-1.0 + eps, 1.0, 1.0, 0.0)
            assert sweep_membership(shifted, ClassSpec("P")).member

    def test_axis_pole_has_no_margin(self):
        assert sp_margin(lossless_integrator()) == 0.0

    def test_quantitative_implies_strict(self):
        R = f_s2_over_s1()
        assert beta_max(R).value > 0.0
        assert sp_margin(R) > 0.0
        assert (R.D + R.D.conj().T)[0, 0].real > 0.0

    def test_start_level_next_to_the_rightmost_pole(self):
        # both margins sit next to a pole, where the axis test of a shift
        # within POLE_SKIP_TOL of that pole would drop the midpoints around it
        assert abs(sp_margin(circuit_realizations()[1]) - 1.0) <= 2e-8
        R = random_stable_system(np.random.default_rng(3), 4, 2)
        assert abs(sp_margin(R) - 0.32638) < 1e-5

    def test_agrees_with_reference_bisections(self, fast_grid):
        # the value lies between two bisections over the shift on the P sweep:
        # one that asks for a nonnegative least slack and one that accepts the
        # sweep's zero band, which hides the slack of a strictly proper F at
        # high frequencies
        def sweep(F):
            return sweep_membership(F, ClassSpec("P"), fast_grid)

        rng = np.random.default_rng(11)
        tol = 1e-8
        sizes = [(1, 1, False), (2, 1, True), (3, 1, True), (4, 2, True), (4, 3, False),
                 (10, 3, False), (6, 3, True)]
        bases = [passive_realization(rng, n, m, cplx) for n, m, cplx in sizes]
        bases.append(random_stable_system(rng, 3, 2))
        for R in bases:
            for D in (R.D, np.zeros((R.m, R.m))):
                F = Realization(R.A, R.B, R.C, D)
                value = sp_margin(F, tol=tol, grid=fast_grid)
                lower = reference_margin(F, lambda G: sweep(G).min_slack >= 0.0)
                upper = reference_margin(F, lambda G: sweep(G).member)
                assert lower - 3 * tol <= value <= upper + 1e-9, (R.n, R.m, D[0, 0])

    def test_singular_d_block_margin_holds_on_the_default_grid(self):
        # D = 0 on the 13th draw of this sequence (n = 4, m = 3, real): the tip
        # of a negative region falls between default grid points, and following
        # only the lowest point of each run of negative points stopped at
        # 0.5051823, above the margin; every negative point must be followed
        rng = np.random.default_rng(7)
        for _ in range(13):
            n, m, cplx = int(rng.integers(1, 11)), int(rng.integers(1, 4)), bool(rng.integers(0, 2))
            R = passive_realization(rng, n, m, cplx)
        assert (R.n, R.m, R.is_real) == (4, 3, True)
        F = Realization(R.A, R.B, R.C, np.zeros((3, 3)))

        def positive(G):
            E = dense_axis_values(G)
            return np.linalg.eigvalsh(E + E.conj().transpose(0, 2, 1))[:, 0].min() >= 0.0

        ref = reference_margin(F, positive)
        value = sp_margin(F, tol=1e-8)
        assert ref - 2 * max(1e-8, classes.POLE_SKIP_TOL) <= value <= ref + 1e-9

    def test_a_crossing_next_to_the_pole_is_no_violation(self):
        # at the first level the Hamiltonian crosses the axis 7e-8 from the
        # shifted pole, where rounding turns the zero slack at the crossing
        # into -0.07; the midpoints between crossings decide
        R = passive_realization(np.random.default_rng(0), 2, 1, True)
        value = sp_margin(R)
        upper = reference_margin(R, lambda G: sweep_membership(G, ClassSpec("P")).member)
        assert 0.87 < value and upper - 3e-8 <= value <= upper + 1e-9

    def test_a_common_kernel_leaves_the_margin_alone(self, fast_grid):
        # F = B* (sI - A)^{-1} B with two states and three ports vanishes on
        # the kernel of B, so F + F* is singular at every s; the margin is that
        # of F restricted to the orthogonal complement
        R = passive_realization(np.random.default_rng(5), 2, 3, False)
        Q = np.linalg.svd(R.B)[2][:2].T
        F = Realization(R.A, R.B, R.C, np.zeros((3, 3)))
        reduced = Realization(R.A, R.B @ Q, Q.T @ R.C, np.zeros((2, 2)))
        value = sp_margin(F, grid=fast_grid)
        assert 0.0 < value < -np.linalg.eigvals(R.A).real.max() - 1e-3
        assert abs(value - sp_margin(reduced, grid=fast_grid)) < 1e-9

    def test_dip_between_grid_points_needs_few_hamiltonians(self, monkeypatch):
        g = FrequencyGrid.default().omegas
        w0, a = math.sqrt(g[250] * g[251]), 0.5
        R = Realization(A=[[-a, w0], [-w0, -a]], B=[[1.0], [0.0]], C=[[0.0, 0.08]], D=[[1.0]])
        builds = []
        build = classes._popov_hamiltonian

        def counted(*args, **kwargs):
            builds.append(1)
            return build(*args, **kwargs)

        monkeypatch.setattr(classes, "_popov_hamiltonian", counted)
        assert abs(sp_margin(R) - 0.48) < 2e-3
        assert len(builds) <= 8

    def test_step_cap_is_reported(self, monkeypatch):
        monkeypatch.setattr(classes, "LEVEL_SET_STEPS", 0)
        with pytest.warns(RuntimeWarning, match="margin .* not verified"):
            value = sp_margin(f_s2_over_s1())
        assert abs(value - (1.0 - 2e-8)) < 1e-12

    def test_tolerance_must_be_finite_and_positive(self):
        R = f_s2_over_s1()
        with pytest.raises(ValueError, match="tol"):
            beta_max(R, tol=-1.0)
        with pytest.raises(ValueError, match="tol"):
            t_ray_max(R, np.eye(1), tol=math.inf)
        with pytest.raises(ValueError, match="tol"):
            sp_margin(R, tol=math.nan)

    def test_shape_is_checked_before_the_poles(self):
        for a in (-1.0, 1.0):
            R = Realization(A=[[a]], B=[[1.0]], C=[[1.0], [1.0]], D=[[0.0], [0.0]])
            with pytest.raises(ValueError, match="square"):
                sp_margin(R)

    def test_sp_verdict_is_exact_with_a_definite_d_block(self):
        # (s + 2)/(s + 1) has D + D* = 2; 1/(s + 1) has D = 0, so the grid decides
        rep = sweep_membership(scalar_realization(-1.0, 1.0, 1.0, 1.0), ClassSpec("SP"))
        assert rep.member and rep.exact
        rep = sweep_membership(scalar_realization(-1.0, 1.0, 1.0, 0.0), ClassSpec("SP"))
        assert rep.member and not rep.exact

    def test_definite_d_block_leaves_out_scipy(self):
        # only the pencil of a singular D-block needs QZ
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(classes.__file__)))
        code = ("import sys; from kypcert import Realization, sp_margin; "
                "R = Realization([[-1.0, 3.0], [-3.0, -1.0]], [[1.0], [0.5]], [[0.5, 1.0]], [[1.0]]); "
                "print(sp_margin(R) > 0, 'scipy.linalg' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert out.split() == ["True", "False"]


class TestCayleyFunction:
    def test_figure_map(self):
        g1 = cayley_function(f_s3_over_s1())
        om = np.logspace(-3, 3, 100)
        got = evaluate_grid(g1, 1j * om)[:, 0, 0]
        assert np.abs(got + 1.0 / (1j * om + 2.0)).max() < 1e-10

    def test_constant_identity_maps_to_zero(self):
        G = cayley_function(Realization.constant(np.eye(2)))
        assert np.abs(G.D).max() < 1e-15

    def test_involution(self):
        R = f_s2_over_s1()
        back = cayley_function(cayley_function(R))
        svals = 1j * np.concatenate([[0.0], np.logspace(-3, 3, 100)])
        assert transfer_gap(back, R, svals) < 1e-9

    def test_rejects_minus_one_feedthrough(self):
        with pytest.raises(ValueError, match="-1"):
            cayley_function(Realization.constant([[-1.0]]))


class TestAffineMaps:
    def test_figure_values(self):
        g2, g3 = affine_hb_maps(f_s3_over_s1(), 0.6)
        om = np.logspace(-3, 3, 100)
        s = 1j * om
        got2 = evaluate_grid(g2, s)[:, 0, 0]
        assert np.abs(got2 - (2.0 - s) / (4.0 * (s + 1.0))).max() < 1e-10
        got3 = evaluate_grid(g3, s)[:, 0, 0]
        assert np.abs(got3 + got2).max() < 1e-14

    def test_membership_transfers(self, fast_grid):
        g2, g3 = affine_hb_maps(f_s3_over_s1(), 0.6)
        for g in (g2, g3):
            assert sweep_membership(g, ClassSpec("HB", 0.6), fast_grid).member

    def test_fixed_point(self):
        Tinv = 1.0 / 0.4
        G2, _ = affine_hb_maps(Realization.constant([[Tinv]]), 0.4)
        assert np.abs(G2.D).max() < 1e-12

    def test_rejects_singular_weight(self):
        with pytest.raises(ValueError, match="nonsingular"):
            affine_hb_maps(f_s3_over_s1(), np.diag([0.0]))


class TestLeftConjugate:
    def test_real_scalar_zero_weight_identity(self):
        R = f_s2_over_s1()
        out = left_conjugate(R, 0.0)
        svals = np.linspace(0.5, 10.0, 25)  # real axis points
        assert transfer_gap(out, R, svals) < 1e-12

    def test_membership_preserved(self, fast_grid):
        R = f_s2_over_s1()
        out = left_conjugate(R, 0.8)
        a = sweep_membership(R, ClassSpec("HP", 0.8), fast_grid).member
        b = sweep_membership(out, ClassSpec("HP", 0.8), fast_grid).member
        assert a and b

    def test_constant_counterexample_equivalence(self):
        # the right-class failure of the constant function transfers
        F = 0.25 * np.array([[1.0, 1.0], [0.0, 3.0]])
        T = 0.2 * np.diag([2.0, 3.0])
        R = Realization.constant(F)
        out = left_conjugate(R, T)
        spec = ClassSpec("HP", T)
        a = sweep_membership(R, spec)
        b = sweep_membership(out, spec)
        assert not a.member and not b.member
        # both slacks frozen from the independent eigensolve
        assert abs(a.min_slack - (-0.016397739)) < 1e-8
        assert abs(b.min_slack - (-0.017036510)) < 1e-8


class TestDiskParams:
    def test_three_fifths(self):
        pair = disk_params(0.6)
        assert abs(pair.center_disk.radius - 0.5) < 1e-15
        assert abs(pair.inv_disk.center - 5.0 / 3.0) < 1e-12
        assert abs(pair.inv_disk.radius - 4.0 / 3.0) < 1e-12

    def test_zero_weight_half_plane(self):
        pair = disk_params(0.0)
        assert pair.half_plane and pair.inv_disk is None
        assert abs(pair.center_disk.radius - 1.0) < 1e-15

    def test_seven_over_twentyfive(self):
        pair = disk_params(7.0 / 25.0)
        assert abs(pair.inv_disk.center - 25.0 / 7.0) < 1e-12
        assert abs(pair.inv_disk.radius - 24.0 / 7.0) < 1e-12

    def test_boundary_map(self):
        for beta in (0.2, 0.6, 0.9):
            pair = disk_params(beta)
            th = np.linspace(0, 2 * np.pi, 128, endpoint=False)
            z = pair.center_disk.radius * np.exp(1j * th)
            w = (1 - z) / (1 + z)
            dev = np.abs(np.abs(w - pair.inv_disk.center) - pair.inv_disk.radius)
            assert dev.max() < 1e-10

    def test_range_check(self):
        with pytest.raises(ValueError):
            disk_params(1.0)


class TestCanonicalCheck:
    def test_canonical_family(self):
        assert canonical_check(canonical_scalar(2.0), 0.6)

    def test_boundary_touching_function_is_not_member(self):
        # 3/5 + 8/(5 (s+1)^2) touches the class boundary at omega = 1 but
        # exits it near omega = 1.22 (dense-grid slack -0.0256), so it is
        # neither a member nor canonical
        f1 = Realization(A=[[-1.0, 1.0], [0.0, -1.0]], B=[[0.0], [1.0]],
                         C=[[1.6, 0.0]], D=[[0.6]])
        assert not canonical_check(f1, 0.6)
        rep = sweep_membership(f1, ClassSpec("HP", 0.6))
        assert not rep.member
        assert abs(rep.min_slack - (-0.0256)) < 1e-3

    def test_constant_member_is_interior(self):
        assert not canonical_check(Realization.constant([[1.0]]), 0.0)


class TestClassStructure:
    def test_order_on_random_scalars(self, fast_grid):
        rng = np.random.default_rng(23)
        done = 0
        while done < 200:
            R = scalar_realization(
                -rng.uniform(0.2, 3.0), rng.normal(), rng.normal(),
                rng.uniform(0.1, 3.0),
            )
            bm = beta_max(R, grid=fast_grid, tol=1e-6)
            if bm.empty:
                continue
            for beta in (0.0, bm.value / 2.0, bm.value):
                assert sweep_membership(R, ClassSpec("HP", beta), fast_grid).member
            done += 1

    def test_cayley_bridge(self, fast_grid):
        rng = np.random.default_rng(29)
        done = 0
        while done < 100:
            n = int(rng.integers(1, 4))
            R = Realization(
                A=rng.standard_normal((n, n)) - 2.5 * np.eye(n),
                B=rng.standard_normal((n, 1)),
                C=rng.standard_normal((1, n)),
                D=[[rng.uniform(0.2, 3.0)]],
            )
            beta = rng.uniform(0.05, 0.9)
            try:
                G = cayley_function(R)
            except ValueError:
                continue
            hp = sweep_membership(R, ClassSpec("HP", beta), fast_grid).member
            hb = sweep_membership(G, ClassSpec("HB", beta), fast_grid).member
            assert hp == hb
            done += 1

    def test_function_inverse_closure(self, fast_grid):
        rng = np.random.default_rng(37)
        done = 0
        while done < 100:
            n = int(rng.integers(1, 4))
            R = Realization(
                A=rng.standard_normal((n, n)) - 3.0 * np.eye(n),
                B=rng.standard_normal((n, 1)),
                C=rng.standard_normal((1, n)),
                D=[[rng.uniform(0.5, 3.0)]],
            )
            bm = beta_max(R, grid=fast_grid, tol=1e-8)
            if bm.empty or bm.value < 0.05:
                continue
            beta = 0.8 * bm.value
            inv = function_inverse(R)
            assert sweep_membership(inv, ClassSpec("HP", beta), fast_grid).member
            # the extremal weights agree
            assert abs(beta_max(inv, grid=fast_grid, tol=1e-8).value - bm.value) < 1e-6
            done += 1

    def test_inclusion_chain_on_stock_corpus(self, fast_grid):
        corpus = list(circuit_realizations()) + [
            f_s2_over_s1(), f_s3_over_s1(), canonical_scalar(1.0),
        ]
        for R in corpus:
            bm = beta_max(R, grid=fast_grid)
            assert not bm.empty and bm.value > 0.0
            assert sp_margin(R, grid=fast_grid) > 0.0
            assert sweep_membership(R, ClassSpec("P"), fast_grid).member
            assert not sweep_membership(R, ClassSpec("PO"), fast_grid).member


def resonance(k: int) -> Realization:
    """F = 1 - 2 (2 z w0 s) / (s^2 + 2 z w0 s + w0^2), z = 1e-4, Re F(j w0) = -1.

    w0 is the geometric mean of default-grid points k and k + 1, so every
    grid point misses the dip.
    """
    g = FrequencyGrid.default().omegas
    w0 = math.sqrt(g[k] * g[k + 1])
    z = 1e-4
    return Realization(
        A=[[0.0, 1.0], [-w0 * w0, -2.0 * z * w0]],
        B=[[0.0], [1.0]],
        C=[[0.0, -4.0 * z * w0]],
        D=[[1.0]],
    )


def passive_realization(rng, n, m, cplx) -> Realization:
    """A = K - E with K skew-Hermitian and E > 0, C = B*, D + D* > 0: H = I certifies P."""

    def randn(shape):
        X = rng.standard_normal(shape)
        return X + 1j * rng.standard_normal(shape) if cplx else X

    G = randn((n, n))
    E = randn((n, n))
    D = randn((m, m))
    B = randn((n, m))
    return Realization(
        A=0.5 * (G - G.conj().T) - (E @ E.conj().T / n + 0.2 * np.eye(n)),
        B=B,
        C=B.conj().T,
        D=0.2 * D + (0.5 + rng.uniform(0.0, 1.5)) * np.eye(m),
    )


def reference_margin(R: Realization, positive) -> float:
    """sp_margin by a bisection to 1e-10 over the shift, ``positive`` judging each shifted F."""

    def ok(eps: float) -> bool:
        return positive(Realization(R.A + eps * np.eye(R.n), R.B, R.C, R.D))

    if not ok(0.0):
        return 0.0
    lo, hi = 0.0, -float(np.linalg.eigvals(R.A).real.max())
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if ok(mid) else (lo, mid)
    return lo


def dense_axis_values(R: Realization) -> np.ndarray:
    """F at 0, 20k log-spaced frequencies in [1e-6, 1e6] (mirrored if complex) and inf."""
    om = np.concatenate([[0.0], np.logspace(-6.0, 6.0, 20000)])
    if not R.is_real:
        om = np.concatenate([-om[::-1], om])
    return np.concatenate([evaluate_grid(R, 1j * om), R.D[None]])


def pencil_minimum(E: np.ndarray, T_dir, t_hi: float) -> float:
    """Smallest t = lambda_min(F + F*, T_dir + F* T_dir F) over the values E, capped at t_hi."""
    Eh = E.conj().transpose(0, 2, 1)
    Li = np.linalg.inv(np.linalg.cholesky(T_dir + Eh @ T_dir @ E))
    P = Li @ (E + Eh) @ Li.conj().transpose(0, 2, 1)
    return min(float(np.linalg.eigvalsh(P)[:, 0].min()), t_hi)


class TestLevelSetWeights:
    @pytest.mark.parametrize("k", [100, 175, 250, 325])
    def test_resonance_between_grid_points_is_empty(self, k):
        R = resonance(k)
        for res in (beta_max(R), t_ray_max(R, np.eye(1))):
            assert res.value == 0.0 and res.empty
            assert res.exact and res.iterations >= 1
        # the dip found by the crossings, not a grid point
        g = FrequencyGrid.default().omegas
        assert g[k] < beta_max(R).argmin_omega < g[k + 1]

    def test_agreement_with_dense_oracle_and_certificate(self):
        rng = np.random.default_rng(41)
        for n, m in [(1, 1), (4, 2), (10, 3)]:
            for cplx in (False, True):
                R = passive_realization(rng, n, m, cplx)
                E = dense_axis_values(R)
                Q, _ = np.linalg.qr(rng.standard_normal((m, m)))
                T_dir = Q @ np.diag(np.concatenate([[1.0], rng.uniform(0.4, 1.0, m - 1)])) @ Q.T
                for T, res in ((np.eye(m), beta_max(R)), (T_dir, t_ray_max(R, T_dir))):
                    oracle = pencil_minimum(E, T, 1.0 - 1e-8)
                    assert oracle - 1e-5 <= res.value <= oracle + 1e-9
                    assert res.exact and not res.empty
                    cert = find_certificate(R, 0.999 * res.value * T)
                    assert cert is not None and cert.slack >= -1e-6

    def test_singular_direction_returns_grid_minimum(self):
        ray = t_ray_max(singular_weight_family(1.0), np.diag([1.0, 0.0]))
        assert ray.value >= 0.5 - 1e-6 and not ray.empty
        assert not ray.exact and ray.iterations == 0

    def test_binding_frequency_and_steps(self):
        at_zero = beta_max(f_s2_over_s1())
        assert at_zero.argmin_omega == 0.0 and at_zero.iterations == 1
        # 3 - 1/(s+1): 2 Re f / (1 + |f|^2) falls from 0.8 at w = 0 to 0.6 at inf
        at_inf = beta_max(scalar_realization(-1.0, 1.0, -1.0, 3.0))
        assert at_inf.argmin_omega == math.inf
        assert 0.6 - 1e-8 - 1e-12 <= at_inf.value <= 0.6

    def test_tight_d_block_widens_the_gap(self):
        # binding direction d = 0.025 beside d = 8: at the level 1e-8 below
        # the bound the D-block is inside the zero band of its norm
        R = Realization.constant(np.diag([0.025, 8.0]))
        exact = 0.05 / (1.0 + 0.025**2)
        res = beta_max(R)
        assert res.exact and res.iterations >= 2
        assert exact - 1e-7 <= res.value < exact

    def test_step_cap_is_reported(self, monkeypatch):
        monkeypatch.setattr(classes, "LEVEL_SET_STEPS", 0)
        with pytest.warns(RuntimeWarning, match="not verified"):
            res = beta_max(f_s2_over_s1())
        assert not res.exact and res.iterations == 0
        assert abs(res.value - 0.8) < 1e-6

    def test_old_two_field_construction(self):
        res = ExtremalWeight(0.5, False)
        assert math.isnan(res.argmin_omega) and res.iterations == 0 and res.exact

    def test_sp_margin_sees_a_dip_between_grid_points(self):
        # d + 2 Re(r / (s + a - j w0)) with r = 0.04 j: shifted by eps, the
        # real part dips to 1 - 0.02 / (a - eps) within a - eps of w0, far
        # narrower than the grid spacing there (about 2 rad/s)
        g = FrequencyGrid.default().omegas
        w0, a = math.sqrt(g[250] * g[251]), 0.5
        R = Realization(A=[[-a, w0], [-w0, -a]], B=[[1.0], [0.0]], C=[[0.0, 0.08]], D=[[1.0]])
        om = np.concatenate([np.logspace(-6.0, 6.0, 20001), np.linspace(w0 - 3.0, w0 + 3.0, 20001)])

        def dense_member(eps):
            shifted = Realization(R.A + eps * np.eye(2), R.B, R.C, R.D)
            return evaluate_grid(shifted, 1j * om)[:, 0, 0].real.min() >= 0.0

        lo, hi = 0.0, a
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if dense_member(mid) else (lo, mid)
        margin = sp_margin(R)
        assert lo - 1e-4 <= margin <= lo
        assert abs(lo - 0.48) < 2e-3


def dense_slack_minimum(form, E: np.ndarray, side: str) -> float:
    """Smallest eigenvalue of the membership slack over the values E."""
    Eh = E.conj().transpose(0, 2, 1)
    quad = Eh @ form.X @ E if side == "right" else E @ form.X @ Eh
    S = form.V @ E + Eh @ form.V + quad + form.Y
    return float(np.linalg.eigvalsh(0.5 * (S + S.conj().transpose(0, 2, 1)))[:, 0].min())


class TestAxisTest:
    @pytest.mark.parametrize("k", [100, 175, 250, 325])
    @pytest.mark.parametrize("side", ["right", "left"])
    def test_resonance_is_not_positive(self, k, side):
        # the benchmark's resonances: w0 between points k and k + 1 of the
        # 401 log-spaced frequencies
        g = np.logspace(-6.0, 6.0, 401)
        w0 = math.sqrt(g[k] * g[k + 1])
        R = resonance(k + 1)  # the default grid has 0 in front
        rep = sweep_membership(R, ClassSpec("P"), side=side)
        assert not rep.member and rep.exact and rep.analyticity_ok
        assert abs(rep.argmin_omega - w0) <= 1e-6 * w0
        assert rep.min_slack < -1.9

    def test_agreement_with_dense_grid(self):
        from kypcert.qmi import class_form

        # each class gets a member and a non-member at 0.9 and 1.1 times a
        # bound read off the dense grid, so on that grid the verdict is
        # c < 1, except for the left side of HP, whose slack is evaluated
        rng = np.random.default_rng(7)
        verdicts = 0
        for n, m in [(1, 1), (4, 2), (10, 3)]:
            for cplx in (False, True):
                R = passive_realization(rng, n, m, cplx)
                E = dense_axis_values(R)
                G = cayley_function(R)
                gain = float(np.linalg.norm(dense_axis_values(G), 2, axis=(1, 2)).max())
                b = pencil_minimum(E, np.eye(m), 1.0 - 1e-8)
                p_floor = dense_slack_minimum(class_form(ClassSpec("P"), dim=m), E, "right")
                radius = math.sqrt(0.7 / 1.3)  # HB(0.3) is the ball of this radius
                for c in (0.9, 1.1):
                    hp = ClassSpec("HP", min(c * b, 0.5 * (1.0 + b)))
                    g = c / gain
                    cases = [
                        (Realization(R.A, R.B, R.C, R.D - 0.5 * c * p_floor * np.eye(m)),
                         ClassSpec("P")),
                        (R, hp),
                        (Realization(G.A, G.B, g * G.C, g * G.D), ClassSpec("B")),
                        (Realization(G.A, G.B, g * radius * G.C, g * radius * G.D),
                         ClassSpec("HB", 0.3)),
                    ]
                    left_hp = dense_slack_minimum(class_form(hp, dim=m), E, "left") >= -1e-9
                    for F, spec in cases:
                        for side in ("right", "left"):
                            rep = sweep_membership(F, spec, side=side)
                            dense = left_hp if (spec is hp and side == "left") else c < 1.0
                            assert rep.exact
                            assert rep.member == dense, (n, m, cplx, spec, side)
                            verdicts += 1
        assert verdicts == 96

    def test_complex_dip_keeps_its_frequency_sign_on_both_sides(self):
        # 1 - 2a / (s + a + j w0 sign): Re F = -1 at w = -w0 sign, in a dip of
        # width a = 0.02 between two points of the mirrored default grid
        g = FrequencyGrid.default().omegas
        w0, a = math.sqrt(g[250] * g[251]), 0.02
        om = np.concatenate([np.logspace(-6.0, 6.0, 20000), np.linspace(w0 - 1.0, w0 + 1.0, 20001)])
        om = np.concatenate([-om, om])
        for sign in (1.0, -1.0):
            R = Realization(A=[[-a - 1j * sign * w0]], B=[[1.0]], C=[[-2.0 * a]], D=[[1.0]])
            dense = om[np.argmin(evaluate_grid(R, 1j * om)[:, 0, 0].real)]
            assert np.sign(dense) == -sign
            for side in ("right", "left"):
                rep = sweep_membership(R, ClassSpec("P"), side=side)
                assert not rep.member and rep.exact
                assert np.sign(rep.argmin_omega) == np.sign(dense)
                assert abs(rep.argmin_omega - dense) < 1e-3

    def test_singular_d_block_or_axis_pole_is_not_exact(self):
        # W = D + D* = 0 for 1/s, and W = 6 - 0.6 - 0.6 * 9 = 0 for the
        # canonical function at HP(0.6): the grid decides, and says so
        for R, spec in ((lossless_integrator(), ClassSpec("P")),
                        (lossless_integrator(), ClassSpec("PO")),
                        (canonical_scalar(1.0), ClassSpec("HP", 0.6))):
            rep = sweep_membership(R, spec)
            assert rep.member and not rep.exact

    def test_bounded_class_requires_hurwitz_poles(self):
        # 0.1 s / (s^2 + 1) is unbounded at w = 1; the grid skips that point
        R = Realization(A=[[0.0, 1.0], [-1.0, 0.0]], B=[[0.0], [1.0]], C=[[0.0, 0.1]], D=[[0.0]])
        rep = sweep_membership(R, ClassSpec("B"))
        assert rep.pole_omegas == (1.0,)
        assert not rep.analyticity_ok and not rep.member and rep.exact

    def test_left_side_has_its_own_crossings(self):
        # F = D + u v* h(s), h = 2 z w0 s / (s^2 + 2 z w0 s + w0^2) running
        # over the circle |h - 1/2| = 1/2 near w0: with this weight only the
        # left slack F + F* - T - F T F* dips below zero, between grid points
        g = FrequencyGrid.default().omegas
        w0, z = math.sqrt(g[250] * g[251]), 1e-3
        u, v = np.array([[-1.36], [0.84]]), np.array([[0.11, 1.92]])
        R = Realization(A=[[0.0, 1.0], [-w0 * w0, -2.0 * z * w0]], B=np.array([[0.0], [1.0]]) @ v,
                        C=u @ np.array([[0.0, 2.0 * z * w0]]), D=[[1.41, -0.26], [-0.30, 2.51]])
        spec = ClassSpec("HP", np.diag([0.53, 0.14]))
        right, left = (sweep_membership(R, spec, side=side) for side in ("right", "left"))
        assert right.member and right.exact
        assert not left.member and left.exact
        assert abs(left.argmin_omega - w0) < 1e-3 * w0 and left.min_slack < -0.2

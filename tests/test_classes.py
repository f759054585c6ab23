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
    strictly_proper_dip,
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
from kypcert.hermat import cayley_matrix
from kypcert.kyp import find_certificate
from kypcert.qmi import ClassSpec
from kypcert.realization import (
    Realization,
    adjoint_realization,
    evaluate_grid,
    function_inverse,
    poles,
    series_add,
    similarity,
)


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
        made = []
        init = Realization.__post_init__
        monkeypatch.setattr(Realization, "__post_init__", lambda self: made.append(init(self)))
        assert abs(sp_margin(R) - 0.48) < 2e-3
        # one Hamiltonian serves every level, and no shifted realization is built
        assert len(builds) == 1 and not made

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

    def test_constant_realization_has_an_infinite_margin(self):
        assert sp_margin(Realization.constant([[1.0, 0.5], [-0.5, 2.0]])) == math.inf

    def test_indefinite_d_block_has_no_margin(self):
        # Hurwitz, but D + D* = diag(2, -2) is negative at s = inf under every shift
        R = Realization(A=-np.eye(2), B=np.eye(2), C=np.eye(2), D=np.diag([1.0, -1.0]))
        assert poles(R).hurwitz
        assert sp_margin(R) == 0.0

    def test_line_zeros_are_zeros(self):
        # every real p returned for a frequency w makes F(p + jw) + F(p + jw)*
        # singular, for definite and singular D-blocks and real and complex data;
        # at w = 0 a real pole of real data is also returned (the two copies of
        # it in diag(A, A*) decouple), where F is infinite: the search never
        # reads it, since the margin's window lies right of every pole
        from kypcert.qmi import class_form

        rng = np.random.default_rng(23)
        found = at_poles = 0
        for n, m, cplx in [(1, 1, False), (2, 1, True), (3, 2, False), (4, 2, True),
                           (5, 3, False), (3, 3, True)]:
            R = passive_realization(rng, n, m, cplx)
            skew = 0.5 * (R.D - R.D.conj().T)
            v = rng.standard_normal((m, 1))
            for D, definite in ((R.D, True), (skew, False), (skew + v @ v.T, m == 1)):
                F = Realization(R.A, R.B, R.C, D)
                form = class_form(ClassSpec("P"), dim=m)
                blocks = classes._popov_blocks(F, form)[0]
                M = classes._popov_hamiltonian(F, blocks) if definite else None
                om = np.linspace(-3.0, 3.0, 13) if cplx else np.linspace(0.0, 3.0, 7)
                for w, zs in zip(om, classes._line_zeros(F, om, M)):
                    for p in zs:
                        if np.abs(p + 1j * w - poles(F).eigenvalues).min() <= 1e-9:
                            assert w == 0.0 and F.is_real
                            at_poles += 1
                            continue
                        E = evaluate_grid(F, np.array([p + 1j * w]))[0]
                        sv = np.linalg.svd(E + E.conj().T, compute_uv=False)
                        assert sv[-1] <= 1e-8 * np.linalg.norm(E, 2), (n, m, cplx, w, p)
                        found += 1
        assert found > 300 and at_poles < 10

    def test_one_hamiltonian_serves_both_steps(self):
        # under the P form the Hamiltonian of F(s - eps) is M + eps J, and the
        # line-zero matrix A_g - B_g W^{-1} C_g along Im s = w is (M + jwI) J
        from kypcert.qmi import class_form

        rng = np.random.default_rng(29)
        for n, m, cplx in [(1, 1, False), (3, 2, True), (5, 3, False), (4, 2, True)]:
            R = passive_realization(rng, n, m, cplx)
            form = class_form(ClassSpec("P"), dim=m)
            M = classes._popov_hamiltonian(R, classes._popov_blocks(R, form)[0])
            J = np.diag(np.repeat([-1.0, 1.0], n))
            scale = np.linalg.norm(M)
            for eps in (0.0, 0.05, 0.3):
                shifted = Realization(R.A + eps * np.eye(n), R.B, R.C, R.D)
                Ms = classes._popov_hamiltonian(shifted, classes._popov_blocks(shifted, form)[0])
                assert np.linalg.norm(Ms - (M + eps * J)) <= 1e-12 * scale
            W = R.D + R.D.conj().T
            Bg, Cg = np.vstack([R.B, R.C.conj().T]), np.hstack([R.C, R.B.conj().T])
            for w in (-2.0, 0.0, 0.7, 40.0):
                jw = 1j * w * np.eye(n)
                Ag = np.zeros((2 * n, 2 * n), dtype=complex)
                Ag[:n, :n], Ag[n:, n:] = R.A - jw, R.A.conj().T + jw
                Z = Ag - Bg @ np.linalg.solve(W, Cg)
                line = (M + 1j * w * np.eye(2 * n)) @ J
                assert np.linalg.norm(Z - line) <= 1e-12 * np.linalg.norm(Z)

    def test_no_level_tested_is_not_exact(self):
        # 1 + 1/(s + 5e-9) has margin 5e-9, inside the start gap of two pole
        # radii: no level runs and 0 is returned, which is not a proof
        R = scalar_realization(-5e-9, 1.0, 1.0, 1.0)
        popov = classes._popov_blocks(R, classes.class_form(ClassSpec("P"), dim=1))
        assert classes._sp_margin(R, 1e-8, FrequencyGrid.default(), poles(R), popov) == (0.0, False)
        rep = sweep_membership(R, ClassSpec("SP"))
        assert not rep.member and not rep.exact

    def test_an_sp_sweep_builds_the_popov_blocks_once(self, monkeypatch):
        # SP has the P form: the level set and the shift margin read one build
        calls = []

        def counted(R, form):
            calls.append(form)
            return popov_blocks(R, form)

        popov_blocks = classes._popov_blocks
        monkeypatch.setattr(classes, "_popov_blocks", counted)
        rep = sweep_membership(passive_realization(np.random.default_rng(5), 6, 2, False),
                               ClassSpec("SP"))
        assert rep.member and rep.exact
        assert len(calls) == 1

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

    @pytest.mark.parametrize(
        "R",
        [scalar_realization(-1.0, 1.0, 1.0, -1.0 + 1e-14),
         Realization.constant(np.diag([-1.0 + 1e-14, 1.0]))],
        ids=["scalar", "diagonal"],
    )
    def test_rejects_feedthrough_within_the_band_of_minus_one(self, R):
        # the same test as the matrix Cayley transform of D
        with pytest.raises(ValueError, match="-1 is in the spectrum"):
            cayley_matrix(R.D)
        with pytest.raises(ValueError, match="-1 in the spectrum of D"):
            cayley_function(R)


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

    def test_one_sweep_gives_verdict_and_slacks(self, monkeypatch):
        # W = 0 at HP(0.6): the seed w = 0 is not negative and the level has
        # no Hamiltonian, so the seed batch and then the 402 grid points
        sizes = []

        def counted(R, s, **kwargs):
            sizes.append(len(s))
            return evaluate_grid(R, s, **kwargs)

        monkeypatch.setattr(classes, "evaluate_grid", counted)
        assert canonical_check(canonical_scalar(2.0), 0.6)
        assert sizes == [1, 402]


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


def stable_draw(rng, n, m, cplx) -> Realization:
    """``random_stable_system``, with complex parts in every block when ``cplx``."""
    R = random_stable_system(rng, n, m)
    if not cplx:
        return R
    A, B, C, D = (M + 0.3j * rng.standard_normal(M.shape) for M in (R.A, R.B, R.C, R.D))
    shift = max(float(np.linalg.eigvals(A).real.max()) + 0.5, 0.0)
    return Realization(A - shift * np.eye(n), B, C, D)


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
        g = FrequencyGrid.default().omegas
        w0 = math.sqrt(g[k] * g[k + 1])
        for res in (beta_max(R), t_ray_max(R, np.eye(1))):
            assert res.value == 0.0 and res.empty and res.exact
            # the pole seed finds the dip, before any Hamiltonian
            assert res.argmin_omega == pytest.approx(w0, rel=1e-6)
        # the dip found by the seeds, not a grid point
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

    @pytest.mark.parametrize("family", ["passive", "stable", "dips"])
    def test_weight_and_sweep_never_contradict_each_other(self, family):
        # beta_max and the exact sweep must agree on where F leaves the nest
        # of HP classes: a member just below the weight, a non-member just above
        if family == "dips":
            pool = list(dip_corpus())
        else:
            rng, pool = np.random.default_rng([23, family == "stable"]), []
            for k in range(100):
                n, m, cplx = int(rng.integers(1, 11)), int(rng.integers(1, 4)), bool(k % 2)
                if family == "passive":
                    pool.append(passive_realization(rng, n, m, cplx))
                    continue
                R = random_stable_system(rng, n, m)
                if cplx:  # F(s - jc) with complex output coefficients
                    c = rng.standard_normal()
                    C = R.C + 0.3j * rng.standard_normal(R.C.shape)
                    R = Realization(R.A + 1j * c * np.eye(n), R.B, C, R.D)
                pool.append(R)
        for i, R in enumerate(pool):
            res = beta_max(R)
            if family == "dips":
                assert res.empty and t_ray_max(R, np.eye(1)).empty, i
            if res.empty:
                assert not sweep_membership(R, ClassSpec("HP", 1e-6)).member, i
                continue
            below = sweep_membership(R, ClassSpec("HP", max(res.value - 1e-6, 0.0)))
            assert below.member and below.exact, (i, res)
            if res.value + 1e-6 < 1.0:
                above = sweep_membership(R, ClassSpec("HP", res.value + 1e-6))
                assert not above.member and above.exact, (i, res)

    def test_singular_direction_below_tol_is_empty(self):
        # T_dir and D + D* both singular, and at s = inf F = 0 leaves no room
        R = Realization(A=-np.eye(2), B=np.eye(2), C=np.eye(2), D=np.zeros((2, 2)))
        ray = t_ray_max(R, np.diag([1.0, 0.0]))
        assert ray.value == 0.0 and ray.empty and ray.argmin_omega == math.inf

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
        # the bound the D-block is inside the zero band of its norm, so the
        # one level tested sits at the doubled gap 2e-8
        R = Realization.constant(np.diag([0.025, 8.0]))
        exact = 0.05 / (1.0 + 0.025**2)
        res = beta_max(R)
        assert res.exact and res.iterations == 1
        assert abs(res.value - (exact - 2e-8)) <= 1e-10

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


class TestLeftSide:
    def test_left_sweep_is_the_right_sweep_of_the_adjoint(self):
        # complex data with poles on the axis at two grid frequencies, +w1
        # and -w2: the adjoint's frequencies are the negated ones
        g = FrequencyGrid.default().omegas
        w1, w2 = g[300], g[200]
        R = Realization(A=np.diag([1j * w1, -1j * w2, -1.0 + 0.5j]),
                        B=[[1.0, 0.0], [0.0, 1.0], [0.3, 1.0]],
                        C=[[1.0, 0.0, 0.2j], [0.0, 1.0, 1.0]], D=2.0 * np.eye(2))
        for spec in (ClassSpec("P"), ClassSpec("HP", np.array([[0.5, 0.1], [0.1, 0.2]]))):
            left = sweep_membership(R, spec, side="left")
            adj = sweep_membership(adjoint_realization(R), spec)
            assert (left.member, left.min_slack, left.analyticity_ok, left.points_used,
                    left.exact) == (adj.member, adj.min_slack, adj.analyticity_ok,
                                    adj.points_used, adj.exact)
            assert left.argmin_omega == -adj.argmin_omega
            assert sorted(left.pole_omegas) == sorted(-w for w in adj.pole_omegas)
            assert left.pole_omegas == sweep_membership(R, spec).pole_omegas == (-w2, w1)

    def test_left_sweep_reads_the_left_slack(self):
        from kypcert.qmi import class_form, membership_slack_matrix

        # an axis pole at 7j, off the grid, leaves the verdict to the grid
        # plus s = inf; there the left slack formula has the same minimum
        R = Realization(A=np.diag([7j, -1.0 + 0.5j, -2.0 - 3j]),
                        B=[[1.0, 0.5j], [0.3, 1.0], [0.2, -0.4]],
                        C=[[1.0, -0.2j, 0.4], [0.1, 1.0, 0.5j]], D=[[2.0, 0.3j], [0.1, 1.5]])
        spec = ClassSpec("HP", np.array([[0.6, 0.2], [0.2, 0.3]]))
        om = FrequencyGrid.default().omegas
        om = np.append(np.unique(np.concatenate([-om, om])), math.inf)
        E = np.concatenate([evaluate_grid(R, 1j * om[:-1]), R.D[None]])
        lo = np.linalg.eigvalsh(membership_slack_matrix(class_form(spec), E, side="left"))[:, 0]
        rep = sweep_membership(R, spec, side="left")
        k = int(np.argmin(lo))
        assert rep.points_used == om.size
        assert rep.min_slack == pytest.approx(lo[k], rel=1e-12, abs=1e-12)
        assert rep.argmin_omega == om[k]

    def test_bad_side_is_rejected(self):
        with pytest.raises(ValueError, match="side"):
            sweep_membership(f_s2_over_s1(), ClassSpec("P"), side="top")


def companion_probe() -> Realization:
    # 1 + 0.1 s / (s^2 + 0.2 s + 1e8): poles -0.1 +/- 1e4 j, while ||A||_2 = 1e8
    return Realization(A=[[-0.2, -1e8], [1.0, 0.0]], B=[[1.0], [0.0]], C=[[0.1, 0.0]], D=[[1.0]])


class TestCoordinateIndependence:
    def test_companion_pole_probe_and_its_balanced_twin(self):
        # a band read off ||A||_2 = 1e8 swallowed the real part -0.1 of the
        # companion form; the similarity diag(1e4, 1) makes it well scaled
        R = companion_probe()
        twin = similarity(R, np.diag([1e4, 1.0]))
        for G in (R, twin):
            assert poles(G).hurwitz
            rep = sweep_membership(G, ClassSpec("HP", 0.1))
            assert rep.member and rep.exact and rep.analyticity_ok
        assert abs(beta_max(R).value - beta_max(twin).value) <= 1e-8
        # F(j 1e4) = 1.5 binds: 2 * 1.5 / (1 + 1.5^2) = 12/13, and tol = 1e-8 below
        assert 12 / 13 - 2e-8 <= beta_max(R).value < 12 / 13

    def test_a_skipped_frequency_is_one_evaluate_grid_cannot_evaluate(self):
        # F = 1 + 1/(s + 5e-7 - 1e6 j) is positive real; the grid point
        # w = 1e6 lies 5e-7 from the pole, outside POLE_SKIP_TOL but inside
        # the radius 1e-12 (1 + 1e6) where evaluate_grid returns NaN
        R = Realization(A=[[-5e-7 + 1e6j]], B=[[1.0]], C=[[1.0]], D=[[1.0]])
        assert np.isnan(evaluate_grid(R, [1e6j])).all()
        rep = sweep_membership(R, ClassSpec("P"))
        assert rep.member and rep.analyticity_ok
        assert rep.pole_omegas == (1e6,)
        assert np.isfinite(rep.min_slack)

    @pytest.mark.parametrize("cplx", [False, True])
    def test_diagonal_similarities_keep_flags_and_verdicts(self, cplx, fast_grid):
        # seeded stable realizations, n <= 10, scaled by diag(10^k), |k| <= 4
        rng = np.random.default_rng(18 + cplx)
        for k in range(12):
            n, m = int(rng.integers(1, 11)), int(rng.integers(1, 4))
            R = passive_realization(rng, n, m, cplx) if k % 2 else random_stable_system(rng, n, m)
            V = np.diag(10.0 ** rng.integers(-4, 5, size=n))
            S = similarity(R, V)
            pr, ps = poles(R), poles(S)
            assert (pr.hurwitz, pr.analytic_in_cr) == (ps.hurwitz, ps.analytic_in_cr) == (True, True)
            for spec in (ClassSpec("P"), ClassSpec("HP", 0.1)):
                a, b = (sweep_membership(G, spec, fast_grid) for G in (R, S))
                assert a.member == b.member, (n, m, spec.tag)


class TestAxisPoleResidues:
    @pytest.mark.parametrize("tag", ["P", "PO"])
    def test_a_negative_residue_disproves_membership(self, tag):
        # Re F < 0 in the right half-plane for -1/s and -s/(s^2 + 1), although
        # their slack vanishes on the axis
        neg_integrator = scalar_realization(0.0, 1.0, -1.0, 0.0)
        neg_tank = Realization(A=[[0.0, 1.0], [-1.0, 0.0]], B=[[0.0], [1.0]],
                               C=[[0.0, -1.0]], D=[[0.0]])
        for R in (neg_integrator, neg_tank):
            rep = sweep_membership(R, ClassSpec(tag))
            assert not rep.member and rep.exact and rep.analyticity_ok

    @pytest.mark.parametrize("tag", ["P", "PO"])
    def test_a_psd_residue_keeps_membership(self, tag):
        tank = Realization(A=[[0.0, 1.0], [-1.0, 0.0]], B=[[0.0], [1.0]], C=[[0.0, 1.0]], D=[[0.0]])
        for R in (lossless_integrator(), tank):
            assert sweep_membership(R, ClassSpec(tag)).member
        one_plus_integrator = scalar_realization(0.0, 1.0, 1.0, 1.0)
        assert sweep_membership(one_plus_integrator, ClassSpec("P")).member

    def test_a_non_hermitian_residue_disproves_membership(self):
        # j/s has Re F = w / |s|^2 < 0 below the real axis
        rep = sweep_membership(scalar_realization(0.0, 1.0, 1j, 0.0), ClassSpec("P"))
        assert not rep.member and rep.exact

    def test_a_repeated_axis_pole_sums_its_residues(self):
        # F = diag(1, -1)/s + [[0, 0], [0, 2]]/s = I/s: two eigenvalues at 0 whose
        # residues are rank one and indefinite apart, PSD together
        R = Realization(A=np.zeros((3, 3)), B=[[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]],
                        C=[[1.0, 0.0, 0.0], [0.0, -1.0, 2.0]], D=np.zeros((2, 2)))
        assert sweep_membership(R, ClassSpec("P")).member


def level_set_pool(rng, n, m, cplx):
    """(F, spec, dense values of F) around the P, HP, B and HB boundaries of one realization.

    Each class gets a member and a non-member at 0.9 and 1.1 times a bound
    read off the dense grid, as in ``TestAxisTest.test_agreement_with_dense_grid``.
    """
    from kypcert.qmi import class_form

    R = passive_realization(rng, n, m, cplx)
    G = cayley_function(R)
    E, EG = dense_axis_values(R), dense_axis_values(G)
    gain = float(np.linalg.norm(EG, 2, axis=(1, 2)).max())
    b = pencil_minimum(E, np.eye(m), 1.0 - 1e-8)
    p_floor = dense_slack_minimum(class_form(ClassSpec("P"), dim=m), E, "right")
    radius = math.sqrt(0.7 / 1.3)  # HB(0.3) is the ball of this radius
    cases = []
    for c in (0.9, 1.1):
        shift, g = 0.5 * c * p_floor * np.eye(m), c / gain
        cases += [
            (Realization(R.A, R.B, R.C, R.D - shift), ClassSpec("P"), E - shift),
            (R, ClassSpec("HP", min(c * b, 0.5 * (1.0 + b))), E),
            (Realization(G.A, G.B, g * G.C, g * G.D), ClassSpec("B"), g * EG),
            (Realization(G.A, G.B, g * radius * G.C, g * radius * G.D), ClassSpec("HB", 0.3),
             g * radius * EG),
        ]
    return cases


def dip(w0: float, z: float, d: float) -> Realization:
    """(s^2 - 2 d z w0 s + w0^2) / (s^2 + 2 z w0 s + w0^2) in companion form: Re F(j w0) = -d."""
    return Realization(A=[[-2.0 * z * w0, -w0 * w0], [1.0, 0.0]], B=[[1.0], [0.0]],
                       C=[[-2.0 * z * w0 * (1.0 + d), 0.0]], D=[[1.0]])


def dip_corpus():
    """The 108 dips: 54 parameter triples, each in companion form and after diag(w0, 1)."""
    for w0 in (1.0, 1e2, 1e4, 1e5, 3e5, 7e5):
        for z in (1e-3, 1e-5, 1e-7):
            for d in (1e-2, 1e-4, 1e-6):
                R = dip(w0, z, d)
                yield R
                yield similarity(R, np.diag([w0, 1.0]))


class TestLevelSetSweep:
    @pytest.mark.parametrize("n,m", [(1, 1), (4, 2), (10, 3), (20, 4)])
    @pytest.mark.parametrize("cplx", [False, True])
    def test_minimum_agrees_with_a_dense_grid(self, n, m, cplx):
        from kypcert.qmi import class_form, membership_slack_matrix

        rng = np.random.default_rng([22, n, cplx])
        for F, spec, E in level_set_pool(rng, n, m, cplx):
            form = class_form(spec, dim=m)
            # with a scalar weight only HP's left slack has its own spectrum
            right = dense_slack_minimum(form, E, "right")
            for side in ("right", "left"):
                rep = sweep_membership(F, spec, side=side)
                hp_left = side == "left" and spec.tag == "HP"
                dense = dense_slack_minimum(form, E, side) if hp_left else right
                assert rep.exact and abs(dense) > 1e-6, (n, m, cplx, spec, side)
                # never above the dense minimum, beyond the level gap
                assert rep.min_slack <= dense + 1e-6 * (1.0 + abs(dense))
                # and the slack at the frequency it names
                w = rep.argmin_omega
                at = F.D if math.isinf(w) else evaluate_grid(F, [1j * w])[0]
                slack = np.linalg.eigvalsh(membership_slack_matrix(form, at, side))[0]
                assert rep.min_slack == pytest.approx(slack, rel=1e-9, abs=1e-12)
                assert rep.member == (dense >= 0.0)

    def test_an_exact_member_reads_no_grid(self, monkeypatch):
        rng = np.random.default_rng(5)
        R = passive_realization(rng, 20, 4, False)
        sizes = []

        def counted(R, s, **kwargs):
            sizes.append(len(s))
            return evaluate_grid(R, s, **kwargs)

        monkeypatch.setattr(classes, "evaluate_grid", counted)
        rep = sweep_membership(R, ClassSpec("P"))
        assert rep.member and rep.exact
        assert sizes and max(sizes) < 402

    def test_sweep_command_loads_neither_scipy_nor_numpy_ma(self, tmp_path):
        # np.unique imports numpy.ma on its first call; the exact path sorts instead
        src = str(tmp_path / "r.json")
        passive_realization(np.random.default_rng(5), 20, 4, False).save(src)
        code = (
            "import sys, numpy\n"
            "ma_before = 'numpy.ma' in sys.modules\n"
            "from kypcert.cli import main\n"
            f"code = main(['sweep', {src!r}, '--class', 'P'])\n"
            "print(code, any(m.startswith('scipy') for m in sys.modules),\n"
            "      'numpy.ma' in sys.modules and not ma_before)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(classes.__file__)))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert out.splitlines()[-1] == "0 False False"

    def test_a_seed_next_to_a_pole_is_evaluated(self):
        # Re F(jw) = 2 - 5e-9 / (w^2 + 2.5e-17) < 0 for w below about 2e-5; the
        # pole -5e-9 is Hurwitz, and the seed w = 0 within 1e-8 of it decides
        R = Realization(A=[[-5e-9]], B=[[1.0]], C=[[-1.0]], D=[[2.0]])
        assert poles(R).hurwitz
        rep = sweep_membership(R, ClassSpec("P"))
        assert not rep.member and rep.exact
        assert rep.min_slack < -1e8 and rep.argmin_omega == 0.0
        assert rep.pole_omegas == ()

    def test_the_grid_path_decides_when_the_level_set_gives_up(self, monkeypatch):
        member = passive_realization(np.random.default_rng(3), 6, 2, False)
        # Re F(j 100) = -0.01 lies between grid points; the pole seed finds it
        dipped = dip(1e2, 1e-3, 1e-2)
        # with one level allowed it is the sign test, and both verdicts stay exact
        monkeypatch.setattr(classes, "LEVEL_SET_STEPS", 1)
        rep = sweep_membership(member, ClassSpec("P"))
        assert rep.member and rep.exact
        rep = sweep_membership(dipped, ClassSpec("P"))
        assert not rep.member and rep.exact
        assert rep.min_slack == pytest.approx(-0.02, rel=1e-4)
        assert rep.argmin_omega == pytest.approx(100.0, rel=1e-4)
        # with none, a negative seed still decides; a member falls to the grid
        monkeypatch.setattr(classes, "LEVEL_SET_STEPS", 0)
        rep = sweep_membership(dipped, ClassSpec("P"))
        assert not rep.member and rep.exact
        rep = sweep_membership(member, ClassSpec("P"))
        assert rep.member and not rep.exact and rep.points_used >= 403

    def test_no_dip_is_a_member(self):
        # Re F(j w0) = -d < 0 for each dip; the grid used to step over the
        # ones with w0 >= 1e4 and the Hamiltonian found no crossing
        for R in dip_corpus():
            rep = sweep_membership(R, ClassSpec("P"))
            assert not rep.member and rep.exact
            assert rep.min_slack < 0.0

    def test_no_dip_is_an_sp_member(self):
        # SP lies inside P, and the exact P sweep rejects every dip
        for R in dip_corpus():
            rep = sweep_membership(R, ClassSpec("SP"))
            assert not rep.member and rep.exact

    def test_sp_and_po_read_no_grid(self, monkeypatch):
        R = passive_realization(np.random.default_rng(5), 20, 4, False)
        sizes = []

        def counted(R, s, **kwargs):
            sizes.append(len(s))
            return evaluate_grid(R, s, **kwargs)

        monkeypatch.setattr(classes, "evaluate_grid", counted)
        rep = sweep_membership(R, ClassSpec("SP"))
        assert rep.member and rep.exact
        # PO asks for a zero slack, and at s = inf it is D + D* > 0
        rep = sweep_membership(R, ClassSpec("PO"))
        assert not rep.member and rep.exact
        assert sizes and max(sizes) < 402

    @pytest.mark.parametrize("n,m", [(1, 1), (3, 2), (6, 3)])
    @pytest.mark.parametrize("cplx", [False, True])
    def test_a_d_block_below_its_band_reads_no_grid(self, n, m, cplx, monkeypatch):
        # the slack at s = inf disproves membership, and the level set still
        # finds the least slack: W - L I stays definite at every level L
        from kypcert.kyp import infeasibility_witness
        from kypcert.qmi import class_form, membership_slack_matrix

        sizes = []

        def counted(R, s, **kwargs):
            sizes.append(len(s))
            return evaluate_grid(R, s, **kwargs)

        monkeypatch.setattr(classes, "evaluate_grid", counted)
        rng = np.random.default_rng([28, n, cplx])
        for _ in range(2):
            R = stable_draw(rng, n, m, cplx)
            # a dense grid, refined around each pole frequency, and s = inf
            lam = poles(R).eigenvalues
            om = np.concatenate([[0.0], np.logspace(-4.0, 4.0, 4001)])
            om = np.concatenate([-om, om]) if cplx else om
            near = lam.imag if cplx else np.abs(lam.imag)
            om = np.concatenate([om, (near + np.outer(np.linspace(-3, 3, 2001), lam.real)).ravel()])
            E = np.concatenate([evaluate_grid(R, 1j * om), R.D[None]])
            for spec in (ClassSpec("P"), ClassSpec("HP", 0.4), ClassSpec("B"),
                         ClassSpec("HB", 0.3)):
                form = class_form(spec, dim=m)
                # step D until the slack at s = inf has lambda_min below -delta
                delta, D = rng.uniform(0.05, 0.5), R.D
                while np.linalg.eigvalsh(membership_slack_matrix(form, D))[0] > -delta:
                    D = D - 0.25 * np.eye(m) if spec.tag in ("P", "HP") else 1.25 * D
                F, EF = Realization(R.A, R.B, R.C, D), E + (D - R.D)
                # with a scalar weight only HP's left slack has its own spectrum
                right = dense_slack_minimum(form, EF, "right")
                for side in ("right", "left"):
                    sizes.clear()
                    rep = sweep_membership(F, spec, side=side)
                    assert rep.exact and not rep.member, (n, m, cplx, spec, side)
                    assert sizes and max(sizes) < 402
                    hp_left = side == "left" and spec.tag == "HP"
                    dense = dense_slack_minimum(form, EF, side) if hp_left else right
                    gap = 1e-6 * (1.0 + abs(rep.min_slack))
                    assert dense - gap <= rep.min_slack <= dense + gap, (n, m, cplx, spec, side)
                if spec.tag == "P":
                    W = F.D + F.D.conj().T
                    omega, bound = infeasibility_witness(F, 0.0)
                    assert math.isinf(omega)
                    assert bound == pytest.approx(np.linalg.eigvalsh(W)[0], rel=1e-12)
                    assert sp_margin(F) == 0.0

    def test_a_po_sweep_below_its_band_is_exact(self):
        # D + D* = -2 disproves PO at s = inf; the grid left it inexact
        R = Realization(A=[[-1.0]], B=[[1.0]], C=[[1.0]], D=[[-1.0]])
        for side in ("right", "left"):
            rep = sweep_membership(R, ClassSpec("PO"), side=side)
            assert not rep.member and rep.exact and rep.points_used < 402
            assert rep.min_slack == -2.0 and math.isinf(rep.argmin_omega)

    def test_an_sp_member_is_an_exact_p_member(self):
        rng = np.random.default_rng(25)
        pool = list(dip_corpus())
        for n in range(1, 9):
            for cplx in (False, True):
                m = int(rng.integers(1, 4))
                pool += [passive_realization(rng, n, m, cplx), stable_draw(rng, n, m, cplx)]
        members = 0
        for R in pool:
            if sweep_membership(R, ClassSpec("SP")).member:
                members += 1
                rep = sweep_membership(R, ClassSpec("P"))
                assert rep.member and rep.exact
        assert members >= 16

    def test_no_dip_has_a_margin(self):
        assert [sp_margin(R) for R in dip_corpus()] == [0.0] * 108


def skew_d_pool(rng, count):
    """P candidates with D + D* = 0, so the P form's D-block lies within its zero band.

    Real and complex data in turn: a passive draw with D made skew (a
    member), a stable draw with D made skew, and the passive draw minus a
    rank-one resonance b b* 2 g z w0 s / (s^2 + 2 z w0 s + w0^2), z = 1e-4,
    whose dip to Re = -g at its pole frequency w0 lies between two
    default-grid points.
    """
    grid = FrequencyGrid.default().omegas
    for i in range(count):
        n, m, cplx = int(rng.integers(1, 6)), int(rng.integers(1, 4)), bool(i % 2)
        draw = stable_draw if i % 3 == 1 else passive_realization
        R = draw(rng, n, m, cplx)
        R = Realization(R.A, R.B, R.C, 0.5 * (R.D - R.D.conj().T))
        if i % 3 == 2:
            k = int(rng.integers(180, 300))
            w0, z = math.sqrt(grid[k] * grid[k + 1]), 1e-4
            b = rng.standard_normal((m, 1)) + (1j * rng.standard_normal((m, 1)) if cplx else 0)
            b /= np.linalg.norm(b)
            g = 2.0 * (1.0 + np.linalg.norm(evaluate_grid(R, [1j * w0])[0], 2))
            dipped = Realization(A=[[0.0, 1.0], [-w0 * w0, -2.0 * z * w0]],
                                 B=[[0.0], [1.0]] @ b.conj().T,
                                 C=-2.0 * g * z * w0 * b @ [[0.0, 1.0]], D=np.zeros((m, m)))
            R = series_add(R, dipped)
        yield R


class TestSkewDBlock:
    def test_a_strictly_proper_dip_is_an_exact_non_member(self):
        # W = 0, and the seed at the pole frequency w0 is negative: every
        # later level lies below the band, so the level set decides exactly
        w0 = 30.5492
        expected = 2.0 * (1.0 / (1.0 + w0 * w0) - 1.0)
        for spec in (ClassSpec("P"), ClassSpec("PO"), ClassSpec("HP", 0.0)):
            rep = sweep_membership(strictly_proper_dip(), spec)
            assert not rep.member and rep.exact, spec
            assert rep.min_slack == pytest.approx(expected, rel=1e-6)
            assert rep.argmin_omega == pytest.approx(w0, rel=1e-6)
            assert rep.points_used < 402

    def test_verdicts_agree_with_a_dense_grid(self):
        from kypcert.qmi import class_form

        # the truth: 20k log-spaced points in [1e-6, 1e6] (split between the
        # two signs for complex data), w = 0, the pole frequencies and s = inf
        rng = np.random.default_rng(29)
        members = exact = 0
        for R in skew_d_pool(rng, 21):
            form = class_form(ClassSpec("P"), dim=R.m)
            lam = poles(R).eigenvalues
            om = np.logspace(-6.0, 6.0, 20000 if R.is_real else 10000)
            om = np.concatenate([[0.0], om, np.abs(lam.imag)] if R.is_real else
                                [-om, [0.0], om, lam.imag])
            E = np.concatenate([evaluate_grid(R, 1j * om), R.D[None]])
            lo, _, tau = classes._batched_slack(form, E)
            truth = bool(np.all(lo >= -tau))
            for side in ("right", "left"):
                rep = sweep_membership(R, ClassSpec("P"), side=side)
                assert rep.member == truth, (R.n, R.m, R.is_real, side)
                exact += rep.exact
            members += truth
        assert members == 7 and exact >= 28

import numpy as np
import pytest

from conftest import (
    circuit_realizations,
    f_s2_over_s1,
    hull_vertex,
    random_certified_pool,
    singular_weight_family,
)
from kypcert.classes import beta_max, sweep_membership
from kypcert.kyp import find_certificate, normalize_internally_passive, verify_certificate
from kypcert.qmi import ClassSpec
from kypcert.realization import Realization, balance
from kypcert.reduction import (
    RealizationPolytope,
    TruncationIsometry,
    combine_internally_passive,
    combine_realizations,
    hp_preservation_report,
    hull_truncation_commutes,
    truncate_balanced,
    truncate_isometry,
)


def random_isometry(rng, rows, cols, complex_entries=False):
    G = rng.standard_normal((rows, cols))
    if complex_entries:
        G = G + 1j * rng.standard_normal((rows, cols))
    return np.linalg.qr(G)[0][:, :cols]


def family_isometries(rng, row_sizes, cols):
    """Blocks of one tall isometry: their Gram matrices sum to the identity."""
    Q = random_isometry(rng, sum(row_sizes), cols)
    out = []
    at = 0
    for r in row_sizes:
        out.append(Q[at : at + r])
        at += r
    return out


class TestTruncateBalanced:
    def test_family_order_one(self):
        alpha, delta, d = 1.0, 1.0, 1.0
        bal = balance(hull_vertex(alpha, delta, d))
        out = truncate_balanced(bal, 1)
        want = np.array([[-(alpha**2) / 5.0, 2.0 * alpha], [2.0 * alpha, d]])
        assert np.abs(out.array.real - want).max() < 1e-9

    def test_full_order_is_identity(self):
        bal = balance(f_s2_over_s1())
        out = truncate_balanced(bal, 1)
        assert np.abs(out.array - bal.realization.array).max() < 1e-14

    def test_tie_rejected(self):
        # two identical decoupled sections share the Hankel value
        R = Realization(
            A=np.diag([-1.0, -1.0]),
            B=np.eye(2),
            C=np.eye(2),
            D=2.0 * np.eye(2),
        )
        bal = balance(R)
        with pytest.raises(ValueError, match="tie"):
            truncate_balanced(bal, 1)


class TestTruncateIsometry:
    def test_port_cut_of_singular_weight_family(self):
        iso = TruncationIsometry(upsilon_n=np.eye(2), upsilon_m=[[1.0], [0.0]])
        for gamma in (0.5, 1.0, 2.0):
            out = truncate_isometry(singular_weight_family(gamma), iso, 0.0)
            assert out.n == 2 and out.m == 1
            u = 1.5 * gamma * gamma + 1.0
            want = 1.0 / (0.5 * (u + 1.0 / u))
            assert abs(beta_max(out).value - want) < 1e-6

    def test_identity_isometry(self):
        R = f_s2_over_s1()
        iso = TruncationIsometry(upsilon_n=np.eye(1), upsilon_m=np.eye(1))
        out = truncate_isometry(R, iso, 0.5)
        assert np.abs(out.array - R.array).max() < 1e-14

    def test_rejects_non_internally_passive(self):
        # (s+2)/(s+1) at weight 0.8 needs H = 0.6, not the identity
        with pytest.raises(ValueError, match="internally passive"):
            truncate_isometry(
                f_s2_over_s1(),
                TruncationIsometry(upsilon_n=np.eye(1), upsilon_m=np.eye(1)),
                0.8,
            )

    def test_rejects_isometry_defect(self):
        with pytest.raises(ValueError, match="orthonormal"):
            TruncationIsometry(upsilon_n=[[1.0], [1.0]], upsilon_m=np.eye(1))

    def test_rejects_a_nan_isometry(self):
        # a NaN defect is not within the tolerance
        with pytest.raises(ValueError, match="orthonormal"):
            TruncationIsometry(upsilon_n=np.eye(1), upsilon_m=[[np.nan]])

    def test_random_state_cuts_stay_certified(self, fast_grid):
        rng = np.random.default_rng(71)
        pool = random_certified_pool(rng, 10, n_max=3, beta_floor=0.15, grid=fast_grid)
        for R, bm in pool:
            beta = 0.7 * bm
            cert = find_certificate(R, beta)
            if cert is None:
                continue
            Rn = normalize_internally_passive(R, cert.H)
            nu = max(1, R.n - 1)
            iso = TruncationIsometry(
                upsilon_n=random_isometry(rng, R.n, nu),
                upsilon_m=np.eye(R.m),
            )
            out = truncate_isometry(Rn, iso, beta)
            slack = verify_certificate(out, np.eye(nu), beta)
            tau = 1e-8 * (1.0 + np.abs(out.array).max())
            assert slack >= -10 * tau


class TestCombineRealizations:
    def test_single_vertex_identity(self):
        V = hull_vertex(1.0, 1.0, 1.0)
        out = combine_realizations(RealizationPolytope(vertices=[V], weights=[1.0]))
        assert np.abs(out.array - V.array).max() < 1e-15

    def test_two_vertices_share_identity_certificate(self):
        V1 = hull_vertex(1.0, 1.0, 1.0)
        V2 = hull_vertex(2.0, 1.0, 2.0)
        # both vertices are balanced, hence certified by H = I at weight 0
        for V in (V1, V2):
            assert verify_certificate(V, np.eye(2), 0.0) >= -1e-12
        out = combine_realizations(
            RealizationPolytope(vertices=[V1, V2], weights=[0.5, 0.5])
        )
        assert verify_certificate(out, np.eye(2), 0.0) >= -1e-12

    def test_degenerate_weight_selects_vertex(self):
        V1 = hull_vertex(1.0, 1.0, 1.0)
        V2 = hull_vertex(2.0, 1.0, 2.0)
        out = combine_realizations(
            RealizationPolytope(vertices=[V1, V2], weights=[1.0, 0.0])
        )
        assert np.abs(out.array - V1.array).max() < 1e-15

    def test_weight_validation(self):
        with pytest.raises(ValueError, match="sum to 1"):
            RealizationPolytope(vertices=[hull_vertex(1, 1, 1)], weights=[0.5])

    def test_nan_weights_are_rejected(self):
        V = hull_vertex(1, 1, 1)
        with pytest.raises(ValueError, match="nonnegative"):
            RealizationPolytope(vertices=[V, V], weights=[np.nan, np.nan])
        with pytest.raises(ValueError, match="sum to 1"):
            RealizationPolytope(vertices=[V, V], weights=[0.5, np.inf])

    def test_weights_cannot_change_after_validation(self):
        V = hull_vertex(1, 1, 1)
        poly = RealizationPolytope(vertices=[V, V], weights=[0.5, 0.5])
        with pytest.raises(ValueError, match="read-only"):
            poly.weights[0] = 0.9
        assert isinstance(poly.vertices, tuple)
        assert np.abs(combine_realizations(poly).array - V.array).max() < 1e-15


class TestCombineInternallyPassive:
    def test_two_equal_vertices_reproduce(self, fast_grid):
        R = f_s2_over_s1()
        beta = 0.75
        cert = find_certificate(R, beta)
        Rn = normalize_internally_passive(R, cert.H)
        r = np.sqrt(0.5)
        out, report = combine_internally_passive(
            [Rn, Rn], [r * np.eye(1)] * 2, [r * np.eye(1)] * 2, [beta, beta],
            grid=fast_grid,
        )
        assert np.abs(out.array - Rn.array).max() < 1e-12
        assert report.lower_bound == beta
        assert report.measured >= beta - 1e-6

    def test_four_circuit_mix(self, fast_grid):
        beta = 0.79
        vertices = []
        for R in circuit_realizations():
            cert = find_certificate(R, beta)
            assert cert is not None
            vertices.append(normalize_internally_passive(R, cert.H))
        rng = np.random.default_rng(73)
        # scalar state/port coefficients with sum of squares 1 (diagonal
        # 2x2 isometries on each degree-1 array)
        a = rng.standard_normal(4)
        a /= np.linalg.norm(a)
        b = rng.standard_normal(4)
        b /= np.linalg.norm(b)
        out, report = combine_internally_passive(
            vertices,
            [np.array([[v]]) for v in a],
            [np.array([[v]]) for v in b],
            [beta] * 4,
            grid=fast_grid,
        )
        assert report.lower_bound == beta
        assert report.measured >= beta - 1e-6

    def test_plain_positive_vertex_caps_bound(self, fast_grid):
        R1 = f_s2_over_s1()
        cert = find_certificate(R1, 0.75)
        Rn1 = normalize_internally_passive(R1, cert.H)
        R2 = Realization(A=[[-1.0]], B=[[1.0]], C=[[1.0]], D=[[0.0]])  # 1/(s+1)+0
        assert verify_certificate(R2, np.eye(1), 0.0) >= -1e-12
        r = np.sqrt(0.5)
        out, report = combine_internally_passive(
            [Rn1, R2], [r * np.eye(1)] * 2, [r * np.eye(1)] * 2, [0.75, 0.0],
            grid=fast_grid, measure=False,
        )
        assert report.lower_bound == 0.0
        assert sweep_membership(out, ClassSpec("P"), fast_grid).member

    def test_family_defect_rejected(self):
        R = f_s2_over_s1()
        with pytest.raises(ValueError, match="defect"):
            combine_internally_passive(
                [R, R], [np.eye(1)] * 2, [np.eye(1)] * 2, [0.0, 0.0], measure=False
            )

    def test_prop_bound_random_families(self, fast_grid):
        rng = np.random.default_rng(79)
        pool = random_certified_pool(rng, 8, n_max=2, beta_floor=0.15, grid=fast_grid)
        prepared = []
        for R, bm in pool:
            beta = 0.7 * bm
            cert = find_certificate(R, beta)
            if cert is None:
                continue
            prepared.append((normalize_internally_passive(R, cert.H), beta))
        assert len(prepared) >= 6
        done = 0
        while done < 25:
            k = 2
            picks = [prepared[int(rng.integers(len(prepared)))] for _ in range(k)]
            nu = min(R.n for R, _ in picks)
            mu = min(R.m for R, _ in picks)
            ups_n = family_isometries(rng, [R.n for R, _ in picks], nu)
            ups_m = family_isometries(rng, [R.m for R, _ in picks], mu)
            out, report = combine_internally_passive(
                [R for R, _ in picks], ups_n, ups_m, [b for _, b in picks],
                grid=fast_grid,
            )
            assert report.measured >= report.lower_bound - 1e-6
            done += 1


class TestHullTruncation:
    def test_three_vertex_family(self):
        poly = RealizationPolytope(
            vertices=[hull_vertex(1, 1, 1), hull_vertex(2, 1, 2), hull_vertex(1, 2, 1)],
            weights=[0.5, 0.3, 0.2],
        )
        rep = hull_truncation_commutes(poly, 1)
        assert rep.defect <= 1e-12
        assert rep.lhs.n == 1

    def test_single_vertex(self):
        poly = RealizationPolytope(vertices=[hull_vertex(1, 1, 1)], weights=[1.0])
        assert hull_truncation_commutes(poly, 1).defect == 0.0

    def test_mismatched_hankel_rejected(self):
        other = Realization(A=[[-1.0, 0.0], [0.0, -2.0]], B=[[1.0], [1.0]],
                            C=[[1.0, 1.0]], D=[[1.0]])
        poly = RealizationPolytope(
            vertices=[hull_vertex(1, 1, 1), other], weights=[0.5, 0.5]
        )
        with pytest.raises(ValueError, match="balanced|Hankel"):
            hull_truncation_commutes(poly, 1)

    def test_truncation_linearity(self):
        rng = np.random.default_rng(83)
        vs = [hull_vertex(rng.uniform(0.5, 2), rng.uniform(0.5, 2), rng.uniform(0.5, 2))
              for _ in range(3)]
        th = rng.uniform(0.1, 1.0, 3)
        th /= th.sum()
        poly = RealizationPolytope(vertices=vs, weights=th)
        rep = hull_truncation_commutes(poly, 1)
        assert rep.defect == 0.0

    def test_weights_required(self):
        poly = RealizationPolytope(vertices=[hull_vertex(1, 1, 1)])
        with pytest.raises(ValueError, match="convex weights"):
            hull_truncation_commutes(poly, 1)

    @pytest.mark.parametrize("nu", [0, 3])
    def test_order_out_of_range(self, nu):
        poly = RealizationPolytope(vertices=[hull_vertex(1, 1, 1)], weights=[1.0])
        with pytest.raises(ValueError, match=rf"order must lie in \[1, 2\], got {nu}"):
            hull_truncation_commutes(poly, nu)

    def test_tie_at_the_cut(self):
        # both Gramians are I: balanced, with the Hankel values tied
        V = Realization(A=-0.5 * np.eye(2), B=np.eye(2), C=np.eye(2), D=np.eye(2))
        poly = RealizationPolytope(vertices=[V], weights=[1.0])
        with pytest.raises(ValueError, match=r"tie at the cut: sigma\[1\] = "):
            hull_truncation_commutes(poly, 1)

    def test_tie_at_the_cut_prints_plain_floats(self):
        # the tied values read the same under every numpy: float reprs, not np.float64(...)
        V = Realization(A=-0.5 * np.eye(2), B=np.eye(2), C=np.eye(2), D=np.eye(2))
        poly = RealizationPolytope(vertices=[V], weights=[1.0])
        with pytest.raises(ValueError) as excinfo:
            hull_truncation_commutes(poly, 1)
        assert str(excinfo.value) == (
            "Hankel singular values tie at the cut: sigma[1] = 1.0, sigma[2] = 1.0"
        )

    def test_balanced_vertices_with_different_hankel_values(self):
        V = hull_vertex(1, 1, 1)
        # scaling B and C by 2 keeps the Gramians diagonal and equal: diag(40, 4)
        W = Realization(A=V.A, B=2.0 * V.B, C=2.0 * V.C, D=V.D)
        poly = RealizationPolytope(vertices=[V, W], weights=[0.5, 0.5])
        with pytest.raises(ValueError, match="do not share Hankel singular values"):
            hull_truncation_commutes(poly, 1)


class TestPolytopeFile:
    def test_save_load_round_trip(self, tmp_path):
        poly = RealizationPolytope(
            vertices=[hull_vertex(1, 1, 1), hull_vertex(2, 1, 2)], weights=[0.25, 0.75]
        )
        path = tmp_path / "poly.json"
        poly.save(path)
        back = RealizationPolytope.load(path)
        assert len(back.vertices) == 2
        for v, w in zip(back.vertices, poly.vertices):
            assert np.array_equal(v.array, w.array)
        assert np.array_equal(back.weights, poly.weights)


class TestPreservationReport:
    def test_degree_one_trivial(self, fast_grid):
        R = f_s2_over_s1()
        bal = balance(R)
        out = truncate_balanced(bal, 1)
        rep = hp_preservation_report(bal.realization, out, 0.75, grid=fast_grid)
        assert rep.member and rep.certified
        assert abs(rep.beta_max_original - rep.beta_max_truncated) < 1e-6

    def test_family_vertex(self, fast_grid):
        V = hull_vertex(1.0, 1.0, 1.0)
        beta = 0.5 * beta_max(V, grid=fast_grid).value
        bal = balance(V)
        out = truncate_balanced(bal, 1)
        rep = hp_preservation_report(V, out, beta, grid=fast_grid)
        assert rep.member and rep.certified

    def test_port_truncation_beta(self, fast_grid):
        iso = TruncationIsometry(upsilon_n=np.eye(2), upsilon_m=[[1.0], [0.0]])
        R = singular_weight_family(1.0)
        out = truncate_isometry(R, iso, 0.0)
        want = 1.0 / 1.45
        rep = hp_preservation_report(out, out, 0.5, grid=fast_grid)
        assert abs(rep.beta_max_truncated - want) < 1e-6

    def test_balanced_truncation_can_lose_boundary_weights(self, fast_grid):
        # a balanced realization need not carry an identity certificate at
        # its own extremal weight, and plain balanced truncation can then
        # shave the weight slightly; the report states this rather than
        # asserting preservation. Guarantees at a fixed weight go through
        # the internally passive route (truncate_isometry after
        # normalize_internally_passive).
        R = Realization(
            A=[[-2.875084070056, 0.316303776462, 1.761283952294],
               [0.796290956897, -2.391444269419, -0.39013310534],
               [0.138950003376, -1.652412793603, -3.843725394586]],
            B=[[0.646993343822], [-1.779168593348], [0.092891975869]],
            C=[[0.017834285881, 0.38909878434, -1.696297652192]],
            D=[[1.341279725386]],
        )
        out = truncate_balanced(balance(R), 2)
        rep = hp_preservation_report(R, out, 0.821, grid=fast_grid)
        assert rep.beta_max_original > 0.8221
        assert rep.beta_max_truncated < 0.8191
        assert not rep.member  # honest report: 0.821 did not survive
        # interior weights survive fine
        rep_lo = hp_preservation_report(R, out, 0.75, grid=fast_grid)
        assert rep_lo.member and rep_lo.certified

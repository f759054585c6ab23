"""Executable demo corpus.

Each case builds its inputs from scratch, runs the library end to end and
compares against expected values that were frozen from independent
derivations (hand eigensolves, closed-form suprema, dense-grid oracles).
The ``note`` column records where each expected number comes from.
"""

import math
from dataclasses import dataclass

import numpy as np

from .circuits import beta_of_circuit, circuit_beta_formula
from .classes import (
    beta_max,
    canonical_check,
    cayley_function,
    disk_params,
    sp_margin,
    sweep_membership,
    t_ray_max,
    affine_hb_maps,
)
from .kyp import verify_certificate
from .qmi import ClassSpec, class_form, membership_slack
from .realization import (
    Realization,
    array_congruence,
    array_inverse,
    evaluate,
    evaluate_grid,
    gramians,
    poles,
    SingularArrayError,
)
from .reduction import (
    RealizationPolytope,
    TruncationIsometry,
    hull_truncation_commutes,
    truncate_isometry,
)

__all__ = ["DemoCheck", "DemoCase", "DEMO_IDS", "run_demo", "run_all_demos"]


@dataclass
class DemoCheck:
    quantity: str
    expected: object
    got: object
    tol: float
    ok: bool
    note: str


def _num(quantity, expected, got, tol, note) -> DemoCheck:
    ok = bool(abs(got - expected) <= tol)
    return DemoCheck(quantity, expected, got, tol, ok, note)


def _flag(quantity, expected, got, note) -> DemoCheck:
    return DemoCheck(quantity, expected, got, 0.0, bool(got == expected), note)


# ---------------------------------------------------------------------------
# building blocks shared by several demos


def _scalar(A, B, C, D) -> Realization:
    return Realization(A=[[A]], B=[[B]], C=[[C]], D=[[D]])


def _f_s2_over_s1() -> Realization:
    # (s + 2)/(s + 1)
    return _scalar(-1.0, 1.0, 1.0, 1.0)


def _f_s3_over_s1() -> Realization:
    # (s + 3)/(s + 1)
    return _scalar(-1.0, 1.0, 2.0, 1.0)


def _singular_weight_family(gamma: float) -> Realization:
    return Realization(
        A=np.diag([-1.0, -2.0]),
        B=gamma * np.ones((2, 2)),
        C=gamma * np.ones((2, 2)),
        D=[[1.0, 0.0], [0.0, 0.0]],
    )


def _hull_vertex(alpha: float, delta: float, d: float) -> Realization:
    return Realization(
        A=[
            [-(alpha**2) / 5.0, -2.0 * alpha * delta / 11.0],
            [-2.0 * alpha * delta / 11.0, -(delta**2) / 2.0],
        ],
        B=[[2.0 * alpha], [delta]],
        C=[[2.0 * alpha, delta]],
        D=[[d]],
    )


def _grid_values(R: Realization, omegas) -> np.ndarray:
    return evaluate_grid(R, 1j * np.asarray(omegas))[:, 0, 0]


# ---------------------------------------------------------------------------
# cases


def _demo_remark14b():
    F = 0.25 * np.array([[1.0, 1.0], [0.0, 3.0]])
    T = 0.2 * np.diag([2.0, 3.0])
    form = class_form(ClassSpec("HP", T))
    right = membership_slack(form, F, side="right")
    left = membership_slack(form, F, side="left")
    holds_right = right >= -1e-9
    holds_left = left >= -1e-9
    side = "left" if holds_left and not holds_right else (
        "right" if holds_right and not holds_left else "both/neither"
    )
    checks = [
        _flag(
            "exactly one of {right, left} slack is PSD",
            True,
            holds_right != holds_left,
            "hand 2x2 eigensolve: right lambda_min = -0.0164, left = +0.0037",
        ),
        _flag(
            "which side holds",
            "left",
            side,
            "direction question: the constant-function text asserts the "
            "opposite side; frozen from the independent eigensolve",
        ),
    ]
    return checks


def _demo_fig1_disks():
    checks = []
    pair = disk_params(3.0 / 5.0)
    checks.append(_num("center radius at beta=3/5", 0.5, pair.center_disk.radius,
                       1e-12, "sqrt((1-b)/(1+b)) = sqrt(0.4/1.6)"))
    checks.append(_num("image center at beta=3/5", 5.0 / 3.0, pair.inv_disk.center.real,
                       1e-12, "1/b"))
    checks.append(_num("image radius at beta=3/5", 4.0 / 3.0, pair.inv_disk.radius,
                       1e-12, "sqrt(1-b^2)/b = 0.8/0.6"))
    pair = disk_params(7.0 / 25.0)
    checks.append(_num("image center at beta=7/25", 25.0 / 7.0, pair.inv_disk.center.real,
                       1e-12, "1/b"))
    checks.append(_num("image radius at beta=7/25", 24.0 / 7.0, pair.inv_disk.radius,
                       1e-12, "sqrt(1 - 49/625) * 25/7 = 24/7"))
    checks.append(_flag("beta=0 image degenerates to half-plane", True,
                        disk_params(0.0).half_plane, "limit case"))
    # boundary points of the centered disk map onto the image circle
    beta = 3.0 / 5.0
    pair = disk_params(beta)
    th = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    z = pair.center_disk.radius * np.exp(1j * th)
    w = (1.0 - z) / (1.0 + z)
    dev = np.abs(np.abs(w - pair.inv_disk.center) - pair.inv_disk.radius).max()
    checks.append(_num("Cayley boundary map deviation", 0.0, dev, 1e-10,
                       "moebius image of a circle"))
    return checks


def _demo_fig2_maps():
    f = _f_s3_over_s1()
    checks = [
        _num("beta_max((s+3)/(s+1))", 0.6, beta_max(f).value, 1e-6,
             "scalar slack 6 - 10 b vanishes at b = 3/5"),
    ]
    g1 = cayley_function(f)
    omegas = np.logspace(-3, 3, 100)
    got = _grid_values(g1, omegas)
    want = -1.0 / (1j * omegas + 2.0)
    checks.append(_num("Cayley image vs -1/(s+2)", 0.0,
                       float(np.abs(got - want).max()), 1e-10, "rational arithmetic"))
    g2, g3 = affine_hb_maps(f, 0.6)
    got2 = _grid_values(g2, omegas)
    want2 = (2.0 - 1j * omegas) / (4.0 * (1j * omegas + 1.0))
    checks.append(_num("affine image vs (2-s)/(4(s+1))", 0.0,
                       float(np.abs(got2 - want2).max()), 1e-10,
                       "(b f - 1)/(1 + b) at b = 3/5"))
    got3 = _grid_values(g3, omegas)
    checks.append(_num("second affine image is the negative", 0.0,
                       float(np.abs(got3 + got2).max()), 1e-12, "sign symmetry"))
    return checks


def _demo_fig3_nyquist():
    # f1 = 3/5 + 8/(5 (s+1)^2), f2 = 41/15 - 8/(5 (s+1)^2), f3 = (3s + c/3)/(s + c)
    f1 = Realization(A=[[-1.0, 1.0], [0.0, -1.0]], B=[[0.0], [1.0]],
                     C=[[1.6, 0.0]], D=[[0.6]])
    f2 = Realization(A=[[-1.0, 1.0], [0.0, -1.0]], B=[[0.0], [1.0]],
                     C=[[-1.6, 0.0]], D=[[41.0 / 15.0]])
    c = 2.0
    f3 = _scalar(-c, 1.0, c / 3.0 - 3.0 * c, 3.0)
    v1 = evaluate(f1, 1j)[0, 0]
    v2 = evaluate(f2, -1j)[0, 0]
    checks = [
        _num("f1(i) deviation from 3/5 - 4i/5", 0.0, abs(v1 - (0.6 - 0.8j)),
             1e-12, "8/(5(1+i)^2) = -4i/5"),
        _num("f2(-i) deviation from 41/15 - 4i/5", 0.0,
             abs(v2 - (41.0 / 15.0 - 0.8j)), 1e-12,
             "the conjugate frequency carries the displayed sign"),
        _flag("f3 canonical at weight 3/5", True, canonical_check(f3, 0.6),
              "slack is identically zero on the axis for this family"),
        _flag("f1 canonical at weight 3/5", False, canonical_check(f1, 0.6),
              "dense sweep: slack dips to -0.0256 near omega = 1.22, so the "
              "function exits the class between its boundary touches"),
    ]
    rep = sweep_membership(f1, ClassSpec("HP", 0.6))
    checks.append(_num("f1 min sweep slack", -0.0256, rep.min_slack, 1e-3,
                       "dense-grid oracle at omega = 1.2248"))
    return checks


def _demo_ex46_inversion():
    checks = []
    R1 = _scalar(-1.0, 1.0, 1.0, 0.0)
    got = array_inverse(R1).array.real
    checks.append(_num("2x2 array inverse deviation", 0.0,
                       float(np.abs(got - np.array([[0.0, 1.0], [1.0, 1.0]])).max()),
                       1e-12, "adjugate over determinant -1"))
    R2 = Realization(A=[[-1.0, 1.0], [0.0, -1.0]], B=[[0.0], [1.0]],
                     C=[[1.0, 0.0]], D=[[0.0]])
    want = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 1.0]])
    got = array_inverse(R2).array.real
    checks.append(_num("3x3 array inverse deviation", 0.0,
                       float(np.abs(got - want).max()), 1e-12, "hand 3x3 inverse"))
    R3 = Realization(A=[[-1.0]], B=[[-1.0]], C=[[1.0]], D=[[1.0]])
    try:
        array_inverse(R3)
        rejected = False
    except SingularArrayError:
        rejected = True
    checks.append(_flag("singular array rejected", True, rejected,
                        "determinant -1*1 - (-1)*1 = 0"))
    return checks


def _demo_ex47_chain():
    Rp = _scalar(-1.0, 1.0, 1.0, 0.0)  # 1/(s+1)
    margin = sp_margin(Rp)
    Rhat = array_inverse(Rp)  # 1/s + 1
    checks = [
        _flag("1/(s+1) has a strict positivity margin", True, 0.0 < margin < 1.0,
              "criss-cross shift search; the pole reaches the axis at eps = 1"),
        _num("inverse array", 0.0,
             float(np.abs(Rhat.array.real - np.array([[0.0, 1.0], [1.0, 1.0]])).max()),
             1e-12, "hand 2x2 inverse"),
        _num("sp margin of the inverse", 0.0, sp_margin(Rhat), 0.0,
             "pole on the axis kills the shift margin"),
        _flag("inverse stays positive", True,
              sweep_membership(Rhat, ClassSpec("P")).member,
              "pole-tolerant sweep: slack is 2 away from the pole"),
        _flag("inverse is not lossless", False,
              sweep_membership(Rhat, ClassSpec("PO")).member,
              "real part is identically 1, not 0"),
    ]
    return checks


def _demo_ex48_circuit():
    checks = [
        _num("beta(R1=R2=C=1)", 0.8, beta_of_circuit(1.0, 1.0, 1.0), 1e-6,
             "closed form 2/((R1+R2) + 1/(R1+R2)) on the large-R1 branch"),
        _num("beta(R1=0.3, R2=1)", circuit_beta_formula(0.3, 1.0),
             beta_of_circuit(0.3, 1.0, 1.0), 1e-6,
             "small-R1 branch 2/(R1 + 1/R1); grid-sup oracle agrees"),
    ]
    thr = math.sqrt((0.5) ** 2 + 1.0) - 0.5
    b_lo = 2.0 / (thr + 1.0 / thr)
    b_hi = 2.0 / ((thr + 1.0) + 1.0 / (thr + 1.0))
    checks.append(_num("branch continuity at the threshold", 0.0, abs(b_lo - b_hi),
                       1e-12, "R1 (R1 + R2) = 1 makes the branches agree"))
    return checks


def _demo_ex49_singular_weight():
    T = np.diag([0.5, 0.0])
    H = np.eye(2)
    s_boundary = verify_certificate(_singular_weight_family(4.0 / 3.0), H, T)
    s_beyond = verify_certificate(_singular_weight_family(4.0 / 3.0 + 0.01), H, T)
    ray_iso = t_ray_max(_singular_weight_family(1.0), np.diag([1.0, 0.0]))
    ray_full = t_ray_max(_singular_weight_family(1.0), np.eye(2))
    return [
        _flag("identity certificate holds at the boundary gain", True,
              s_boundary >= -1e-8, "3x3 minor determinant vanishes at gamma = 4/3"),
        _flag("identity certificate fails just beyond", True, s_beyond < -1e-4,
              "the same minor goes negative"),
        _flag("diagonal-ray weight reaches 1/2", True,
              ray_iso.value >= 0.5 - 1e-6, "certified by H = I"),
        _flag("isotropic weight is empty", True,
              ray_full.value == 0.0 and ray_full.empty,
              "D + D* is singular, so the slack at infinity is negative for "
              "every positive scale"),
    ]


def _demo_ex51_beta():
    f = _f_s2_over_s1()
    perm = np.array([[0.0, 1.0], [1.0, 0.0]])
    Rg = array_congruence(f, perm)
    return [
        _num("beta_max((s+2)/(s+1))", 0.8, beta_max(f).value, 1e-6,
             "scalar slack 4 - 5 b vanishes at b = 4/5"),
        _flag("full-array congruence breaks stability", False, poles(Rg).hurwitz,
              "permuted array has A-block +1: congruence is not a similarity"),
    ]


def _demo_ex56_truncation():
    checks = []
    iso = TruncationIsometry(upsilon_n=np.eye(2), upsilon_m=[[1.0], [0.0]])
    for gamma in (0.5, 1.0, 2.0):
        R = _singular_weight_family(gamma)
        Rhat = truncate_isometry(R, iso, 0.0)
        u = 1.5 * gamma * gamma + 1.0
        want = 1.0 / (0.5 * (u + 1.0 / u))
        got = beta_max(Rhat).value
        checks.append(
            _num(f"truncated beta at gamma={gamma}", want, got, 1e-6,
                 "supremum of (|f|^2+1)/(2 Re f) sits at s = 0 where f = "
                 "3 gamma^2/2 + 1")
        )
    return checks


def _demo_sec6_hull():
    rng = np.random.default_rng(6)
    checks = []
    worst = 0.0
    sig = np.diag([10.0, 1.0])
    for _ in range(10):
        alpha = rng.uniform(0.3, 2.0) * rng.choice([-1.0, 1.0])
        delta = rng.uniform(0.3, 2.0) * rng.choice([-1.0, 1.0])
        d = rng.uniform(0.2, 3.0)
        V = _hull_vertex(alpha, delta, d)
        Hc, Ho = gramians(V)
        worst = max(
            worst,
            float(np.linalg.norm(Hc - sig)),
            float(np.linalg.norm(Ho - sig)),
        )
    checks.append(_num("worst Gramian residual over 10 draws", 0.0, worst, 1e-10,
                       "the family is built so diag(10, 1) solves both equations"))
    alpha, delta, d = 1.3, -0.7, 0.9
    V = _hull_vertex(alpha, delta, d)
    cut = Realization(A=V.A[:1, :1], B=V.B[:1, :], C=V.C[:, :1], D=V.D)
    want = np.array([[-(alpha**2) / 5.0, 2.0 * alpha], [2.0 * alpha, d]])
    checks.append(_num("order-1 truncation block values", 0.0,
                       float(np.abs(cut.array.real - want).max()), 0.0,
                       "leading blocks are copied verbatim"))
    poly = RealizationPolytope(
        vertices=[_hull_vertex(1, 1, 1), _hull_vertex(2, 1, 2), _hull_vertex(1, 2, 1)],
        weights=[0.5, 0.3, 0.2],
    )
    rep = hull_truncation_commutes(poly, 1)
    checks.append(_num("composition/truncation commutation defect", 0.0, rep.defect,
                       1e-12, "slicing commutes with entrywise sums exactly"))
    return checks


@dataclass(frozen=True)
class DemoCase:
    id: str
    title: str
    run: object


_CASES = [
    DemoCase("remark1-4b", "right versus left membership of a constant function",
             _demo_remark14b),
    DemoCase("fig1-disks", "weight disks and their Cayley images", _demo_fig1_disks),
    DemoCase("fig2-maps", "Cayley and affine companions of (s+3)/(s+1)",
             _demo_fig2_maps),
    DemoCase("fig3-nyquist", "boundary-touching trio at weight 3/5",
             _demo_fig3_nyquist),
    DemoCase("ex4-6-inversion", "array inversion regressions", _demo_ex46_inversion),
    DemoCase("ex4-7-chain", "strict positivity is lost under array inversion",
             _demo_ex47_chain),
    DemoCase("ex4-8-circuit", "series R with parallel RC: extremal weight",
             _demo_ex48_circuit),
    DemoCase("ex4-9-singularT", "singular weight certified where no scalar one is",
             _demo_ex49_singular_weight),
    DemoCase("ex5-1-beta", "extremal weight and the congruence counterexample",
             _demo_ex51_beta),
    DemoCase("ex5-6-truncation", "port truncation and its extremal weight",
             _demo_ex56_truncation),
    DemoCase("sec6-hull", "balanced family: shared Gramians and hull truncation",
             _demo_sec6_hull),
]

DEMOS = {case.id: case for case in _CASES}
DEMO_IDS = tuple(DEMOS)


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def run_demo(demo_id: str, stream=None) -> bool:
    """Run one demo, print its pass/fail table, return overall success."""
    import sys

    out = stream if stream is not None else sys.stdout
    if demo_id not in DEMOS:
        raise KeyError(f"unknown demo id {demo_id!r}; known: {', '.join(DEMO_IDS)}")
    case = DEMOS[demo_id]
    checks = case.run()
    print(f"== {case.id}: {case.title}", file=out)
    ok_all = True
    for ch in checks:
        status = "PASS" if ch.ok else "FAIL"
        ok_all &= ch.ok
        print(
            f"  [{status}] {ch.quantity}: expected {_fmt(ch.expected)}"
            f" got {_fmt(ch.got)} (tol {ch.tol:g})  # {ch.note}",
            file=out,
        )
    return ok_all


def run_all_demos(stream=None) -> bool:
    ok = True
    for demo_id in DEMO_IDS:
        ok &= run_demo(demo_id, stream=stream)
    return ok

"""The benchmark's reference code against closed forms, and its plumbing.

    python3 -m pytest bench/tests -q
"""

import ast
import math
import os
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import inputs  # noqa: E402
import reference as ref  # noqa: E402
from checks import bracket  # noqa: E402


def realization(A, B, C, D):
    return tuple(np.atleast_2d(np.asarray(M, dtype=complex)) for M in (A, B, C, D))


F_S2_S1 = realization([[-1.0]], [[1.0]], [[1.0]], [[1.0]])  # (s + 2) / (s + 1)


def test_reference_imports_nothing_from_kypcert():
    for name in ("reference.py", "codec.py", "inputs.py", "checks.py"):
        with open(os.path.join(BENCH, name)) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                assert not any(a.name.startswith("kypcert") for a in node.names), name
            elif isinstance(node, ast.ImportFrom):
                assert not (node.module or "").startswith("kypcert"), name


def test_beta_of_s2_over_s1_is_four_fifths():
    beta, omega = ref.witness(F_S2_S1, np.eye(1))
    assert beta == pytest.approx(0.8, abs=1e-9)
    assert omega == 0.0  # 4 - 5 b vanishes where F(0) = 2


def test_identity_certified_slack_closed_form():
    # S(I) at weight b is [[2 - b, -b], [-b, 2 - 2 b]]
    for b in (0.0, 0.3, 0.7):
        S = ref.kyp_slack(F_S2_S1, np.eye(1), b * np.eye(1))
        tr, det = 4.0 - 3.0 * b, (2.0 - b) * (2.0 - 2.0 * b) - b * b
        assert ref.min_eig(S) == pytest.approx(0.5 * (tr - math.sqrt(tr * tr - 4.0 * det)), abs=1e-12)
    # det = b^2 - 6 b + 4 vanishes at 3 - sqrt(5): below beta_max = 0.8, as a certificate may be
    beta_I = ref.identity_certified_weight(F_S2_S1, np.eye(1))
    assert beta_I == pytest.approx(3.0 - math.sqrt(5.0), abs=1e-12)
    assert ref.certificate_ok(F_S2_S1, np.eye(1), beta_I * np.eye(1), floor=-1e-12)[0]


@pytest.mark.parametrize("R1, R2, C", [(0.2, 0.5, 1.0), (0.5, 2.0, 0.1), (2.0, 1.0, 7.0), (0.9, 0.3, 3.0)])
def test_rlc_closed_form(R1, R2, C):
    # Z = R1 + R2 / (1 + s R2 C)
    Z = realization([[-1.0 / (R2 * C)]], [[1.0]], [[1.0 / C]], [[R1]])
    threshold = math.sqrt((R2 / 2.0) ** 2 + 1.0) - R2 / 2.0
    r = R1 if R1 <= threshold else R1 + R2
    assert ref.rlc_beta(R1, R2) == pytest.approx(2.0 / (r + 1.0 / r), abs=1e-12)
    assert ref.witness(Z, np.eye(1))[0] == pytest.approx(ref.rlc_beta(R1, R2), abs=1e-9)


def test_pencil_bound_is_where_the_slack_vanishes():
    rng = np.random.default_rng(3)
    R = inputs.passive_realization(rng, 4, 2, True)
    T_dir = inputs.weight_direction(rng, 2, True)
    _, vals = ref.axis_response(R)
    t = ref.pencil_bound(vals, T_dir)
    slack = ref.min_eig(ref.class_slack(vals, "HP", t[:, None, None] * T_dir))
    assert np.abs(slack).max() < 1e-9


def test_cayley_is_involutive_and_maps_positive_to_bounded():
    rng = np.random.default_rng(4)
    R = inputs.passive_realization(rng, 3, 2, False)
    s = 1j * np.logspace(-2, 2, 9)
    back = ref.cayley(ref.cayley(R))
    assert np.allclose(ref.freq_response(*back, s), ref.freq_response(*R, s), atol=1e-12)
    _, vals = ref.axis_response(ref.cayley(R))
    assert ref.min_eig(ref.class_slack(vals, "B")).min() > 0.0


def test_gramians_of_a_diagonal_system():
    a, b, c = np.array([1.0, 3.0]), np.array([[2.0], [1.0]]), np.array([[1.0, 4.0]])
    R = realization(np.diag(-a), b, c, [[0.0]])
    Hc, Ho = ref.gramians(R)
    assert np.allclose(Hc, (b @ b.T) / (a[:, None] + a[None, :]))
    assert np.allclose(Ho, (c.T @ c) / (a[:, None] + a[None, :]))


def test_resonance_family_is_not_positive_real():
    for k in inputs.RESONANCE_GRID_INDEX:
        R, w0 = inputs.resonance(k)
        F = ref.freq_response(*R, [1j * w0])[0, 0, 0]
        assert F.real == pytest.approx(-1.0, abs=1e-9)


def test_inputs_repeat_from_the_seed(tmp_path):
    a = inputs.generate("certify", 7, str(tmp_path / "a"))
    b = inputs.generate("certify", 7, str(tmp_path / "b"))
    c = inputs.generate("certify", 8, str(tmp_path / "c"))
    assert a["jobs"] == b["jobs"]
    assert a["jobs"] != c["jobs"]
    for name in a["files"].values():
        assert (tmp_path / "a" / name).read_text() == (tmp_path / "b" / name).read_text()


def test_bracket():
    truth = {"lower": 0.2, "upper": 0.5, "witness": 1.0}
    assert bracket(0.3, False, truth) is None
    assert bracket(0.6, False, truth) is not None
    assert bracket(0.1, False, truth) is not None
    assert bracket(0.0, True, truth) is not None
    not_pr = {"lower": 0.0, "upper": -1.0, "witness": 2.0}
    assert bracket(0.0, True, not_pr) is None
    assert bracket(0.99998, False, not_pr) is not None

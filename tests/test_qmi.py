import copy
import dataclasses
import pickle

import numpy as np
import pytest

from kypcert.classes import canonical_check, left_conjugate
from kypcert.hermat import psd_tolerance
from kypcert.kyp import find_certificate, verify_certificate
from kypcert.qmi import (
    ClassSpec,
    QuadraticForm,
    class_form,
    hp_order_check,
    matrix_convex_combine,
    membership_slack,
    membership_slack_matrix,
    structural_profile,
    weight_matrix,
)
from kypcert.realization import Realization


def hp_form(T):
    T = np.atleast_2d(np.asarray(T, dtype=complex))
    return class_form(ClassSpec("HP", T))


def sample_member(form, rng, base, spread, side="right", tries=400):
    """Rejection-sample a matrix with nonnegative slack."""
    q = form.q
    for _ in range(tries):
        E = base + spread * (rng.standard_normal((q, q)) + 1j * rng.standard_normal((q, q)))
        if membership_slack(form, E, side=side) >= 0.0:
            return E
    raise RuntimeError("no member found; widen the sampler")


class TestQuadraticForm:
    def test_rejects_unbalanced_inertia(self):
        eye = np.eye(2)
        with pytest.raises(ValueError, match="balanced"):
            QuadraticForm(X=eye, V=eye, Y=eye)

    def test_accepts_positivity_form(self):
        form = class_form(ClassSpec("P"), dim=3)
        assert form.q == 3

    def test_blocks_are_read_only(self):
        X = np.zeros((2, 2))
        user = QuadraticForm(X=X, V=np.eye(2), Y=X)
        X[0, 0] = 1.0  # the form keeps its own copy
        assert user.X[0, 0] == 0.0
        forms = (user, copy.deepcopy(user), pickle.loads(pickle.dumps(user)),
                 class_form(ClassSpec("HP", 0.3), dim=2), class_form(ClassSpec("B"), dim=2))
        for form in forms:
            with pytest.raises(dataclasses.FrozenInstanceError):
                form.X = np.eye(2)
            with pytest.raises(ValueError, match="read-only"):
                form.X[0, 0] = 1.0


class TestMembershipSlack:
    def test_constant_function_sides_disagree(self):
        F = 0.25 * np.array([[1.0, 1.0], [0.0, 3.0]])
        T = 0.2 * np.diag([2.0, 3.0])
        form = hp_form(T)
        right = membership_slack(form, F, side="right")
        left = membership_slack(form, F, side="left")
        assert (right >= 0.0) != (left >= 0.0)
        # frozen from a hand 2x2 eigensolve
        assert left > 0.0 > right
        assert abs(right - (-0.016397739)) < 1e-8
        assert abs(left - 0.0036682586) < 1e-8
        # a (k, q, q) stack gives the k single slack matrices, on either side
        stack = np.stack([F, F.T, (1.0 - 2.0j) * F])
        for side in ("right", "left"):
            S = membership_slack_matrix(form, stack, side=side)
            single = [membership_slack_matrix(form, E, side=side) for E in stack]
            np.testing.assert_allclose(S, single, rtol=1e-14, atol=1e-15)

    def test_identity_in_positivity_form(self):
        form = class_form(ClassSpec("P"), dim=2)
        assert abs(membership_slack(form, np.eye(2)) - 2.0) < 1e-14

    def test_zero_fails_weighted_form(self):
        T = np.diag([0.5, 0.25])
        form = hp_form(T)
        slack = membership_slack(form, np.zeros((2, 2)))
        assert abs(slack - (-0.5)) < 1e-14  # lambda_min(-T)

    def test_dimension_mismatch(self):
        form = class_form(ClassSpec("P"), dim=2)
        with pytest.raises(ValueError, match="2x2"):
            membership_slack(form, np.eye(3))
        with pytest.raises(ValueError, match="2x2"):
            membership_slack_matrix(form, np.zeros((4, 2, 3)))


class TestStructuralProfile:
    def test_positivity_form(self):
        prof = structural_profile(class_form(ClassSpec("P"), dim=2))
        assert prof.convex
        assert prof.inversion_closed
        assert prof.cone
        assert prof.product_closed
        assert not prof.sign_closed
        assert prof.scalar_matrix_convex

    def test_weighted_form(self):
        prof = structural_profile(hp_form(0.5 * np.eye(2)))
        assert prof.convex
        assert prof.inversion_closed
        assert prof.scalar_matrix_convex
        assert not prof.cone

    def test_bounded_form(self):
        prof = structural_profile(class_form(ClassSpec("B"), dim=2))
        assert prof.convex
        assert prof.sign_closed
        assert prof.product_closed  # X + Y = 0
        assert not prof.inversion_closed


class TestClassForm:
    def test_zero_weight_collapses_to_positivity(self):
        hp0 = class_form(ClassSpec("HP", np.zeros((2, 2))))
        p = class_form(ClassSpec("P"), dim=2)
        assert np.array_equal(hp0.block_matrix, p.block_matrix)

    def test_zero_weight_bounded(self):
        hb0 = class_form(ClassSpec("HB", np.zeros((2, 2))))
        b = class_form(ClassSpec("B"), dim=2)
        assert np.array_equal(hb0.block_matrix, b.block_matrix)
        rng = np.random.default_rng(0)
        for _ in range(20):
            E = 0.7 * rng.standard_normal((2, 2))
            s1 = membership_slack(hb0, E)
            s2 = membership_slack(b, E)
            assert np.sign(s1) == np.sign(s2) or max(abs(s1), abs(s2)) < 1e-12

    def test_scalar_weight_expansion(self):
        form = class_form(ClassSpec("HP", 0.6), dim=1)
        assert abs(form.X[0, 0] + 0.6) < 1e-15
        assert abs(form.Y[0, 0] + 0.6) < 1e-15
        assert abs(form.V[0, 0] - 1.0) < 1e-15

    def test_hb_slack_matches_defining_inequality(self):
        # (I - T) - G* (I + T) G
        rng = np.random.default_rng(1)
        T = np.diag([0.3, 0.6])
        form = class_form(ClassSpec("HB", T))
        G = 0.2 * rng.standard_normal((2, 2))
        S = membership_slack_matrix(form, G)
        want = (np.eye(2) - T) - G.conj().T @ (np.eye(2) + T) @ G
        assert np.abs(S - want).max() < 1e-14

    def test_weight_range_enforced(self):
        with pytest.raises(ValueError, match="T < I"):
            class_form(ClassSpec("HP", np.diag([1.0, 0.5])))

    @pytest.mark.parametrize("tag", ["HP", "HB"])
    def test_weight_at_the_zero_band_of_one(self, tag):
        # 1 - max eig(T) inside the zero band 1e-9 (2 + max eig(T)) leaves the
        # form matrix singular: class_form rejects exactly what the full
        # inertia check of a user-built QuadraticForm rejects
        eye = np.eye(2)
        for gap in (1e-12, 1e-10, 1e-9, 2e-9, 4e-9, 1e-8, 1e-6):
            t = 1.0 - gap
            for weight in (t, np.diag([t, 0.5])):
                T = weight_matrix(weight, 2)
                blocks = (-T, eye, -T) if tag == "HP" else (-(eye + T), 0 * eye, eye - T)
                try:
                    QuadraticForm(*blocks)
                except ValueError:
                    with pytest.raises(ValueError, match="balanced inertia"):
                        class_form(ClassSpec(tag, weight), dim=2)
                    assert gap <= 2e-9
                else:
                    assert class_form(ClassSpec(tag, weight), dim=2).q == 2
                    assert gap >= 4e-9


# a minimal 2x2 realization, used only to reach each entry point's weight check
_R2 = Realization(A=[[-1.0]], B=[[1.0, 0.0]], C=[[1.0], [0.0]], D=np.eye(2))

_WEIGHT_ENTRY_POINTS = {
    "class_form": lambda T: class_form(ClassSpec("HP", T)),
    "find_certificate": lambda T: find_certificate(_R2, T),
    "verify_certificate": lambda T: verify_certificate(_R2, np.eye(1), T),
    "left_conjugate": lambda T: left_conjugate(_R2, T),
    "canonical_check": lambda T: canonical_check(_R2, T),
    "hp_order_check": lambda T: hp_order_check(T, np.zeros((2, 2))),
}


class TestWeightValidation:
    @pytest.mark.parametrize("entry", sorted(_WEIGHT_ENTRY_POINTS))
    @pytest.mark.parametrize(
        "T, message", [(np.diag([1.0, 0.5]), "T < I"), (np.diag([-0.1, 0.5]), "T >= 0")]
    )
    def test_out_of_range_weight_rejected(self, entry, T, message):
        with pytest.raises(ValueError, match=message):
            _WEIGHT_ENTRY_POINTS[entry](T)

    def test_scalar_and_none_expand(self):
        assert np.array_equal(weight_matrix(0.25, 3), 0.25 * np.eye(3))
        assert np.array_equal(weight_matrix(None, 2), np.zeros((2, 2)))
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            weight_matrix(1.0, 2)

    def test_shape_checked(self):
        with pytest.raises(ValueError, match="2x2"):
            weight_matrix(np.diag([0.1, 0.2, 0.3]), 2)


class TestHpOrder:
    def test_zero_below_half(self):
        assert hp_order_check(np.zeros((2, 2)), 0.5 * np.eye(2))

    def test_reflexive(self):
        T = np.diag([0.2, 0.4])
        assert hp_order_check(T, T)

    def test_incomparable(self):
        assert not hp_order_check(np.diag([0.6, 0.0]), np.diag([0.0, 0.6]))

    def test_order_implies_slack_transfer(self):
        rng = np.random.default_rng(21)
        hits = 0
        while hits < 200:
            q = int(rng.integers(1, 4))
            # draw T1 <= T2 < I by construction, sharing an eigenbasis
            d1 = rng.uniform(0.0, 0.9, q)
            d2 = d1 + rng.uniform(0.0, 1.0, q) * (0.95 - d1)
            U = np.linalg.qr(rng.standard_normal((q, q)) + 1j * rng.standard_normal((q, q)))[0]
            T1 = U @ np.diag(d1) @ U.conj().T
            T2 = U @ np.diag(d2) @ U.conj().T
            assert hp_order_check(T1, T2)
            form2 = hp_form(T2)
            form1 = hp_form(T1)
            try:
                E = sample_member(form2, rng, base=2.0 * np.eye(q), spread=0.6)
            except RuntimeError:
                continue
            s1 = membership_slack(form1, E)
            tau = psd_tolerance(membership_slack_matrix(form1, E))
            assert s1 >= -tau
            hits += 1


class TestMatrixConvexCombine:
    def test_single_identity(self):
        E = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = matrix_convex_combine([E], [np.eye(2)])
        assert np.array_equal(out, E)

    def test_equal_elements_halved(self):
        E = np.array([[2.0, 0.0], [1.0, 1.0]])
        Y = np.sqrt(0.5) * np.eye(2)
        out = matrix_convex_combine([E, E], [Y, Y])
        assert np.abs(out - E).max() < 1e-12

    def test_defect_rejected(self):
        with pytest.raises(ValueError, match="defect"):
            matrix_convex_combine([np.eye(2), np.eye(2)], [np.eye(2), np.eye(2)])

    def test_nan_isometry_rejected(self):
        with pytest.raises(ValueError, match="defect"):
            matrix_convex_combine([np.eye(2)], [np.full((2, 2), np.nan)])

    def test_scalar_weight_class_closed(self):
        rng = np.random.default_rng(31)
        form = hp_form(0.5 * np.eye(2))
        for _ in range(60):
            E0 = sample_member(form, rng, base=2.0 * np.eye(2), spread=0.5)
            E1 = sample_member(form, rng, base=2.0 * np.eye(2), spread=0.5)
            G = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
            Q = np.linalg.qr(G)[0]
            Y0, Y1 = Q[:2], Q[2:]
            out = matrix_convex_combine([E0, E1], [Y0, Y1])
            S = membership_slack_matrix(form, out)
            assert membership_slack(form, out) >= -psd_tolerance(S)


class TestStructuralWitnesses:
    def test_convexity_witness(self):
        rng = np.random.default_rng(41)
        form = hp_form(0.5 * np.eye(2))
        assert structural_profile(form).convex
        for _ in range(200):
            E0 = sample_member(form, rng, base=2.0 * np.eye(2), spread=0.5)
            E1 = sample_member(form, rng, base=2.0 * np.eye(2), spread=0.5)
            for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
                E = alpha * E1 + (1 - alpha) * E0
                S = membership_slack_matrix(form, E)
                assert membership_slack(form, E) >= -psd_tolerance(S)

    def test_nonconvex_form_falsified(self):
        # indefinite X: the outside-the-disk set, which is not convex
        form = QuadraticForm(X=np.diag([1.0, -1.0]), V=np.zeros((2, 2)),
                             Y=np.diag([-1.0, 1.0]))
        assert not structural_profile(form).convex
        rng = np.random.default_rng(43)
        found = False
        for _ in range(10**4):
            E0 = sample_member(form, rng, base=np.diag([2.0, 0.0]), spread=0.7)
            E1 = sample_member(form, rng, base=np.diag([-2.0, 0.0]), spread=0.7)
            for alpha in (0.25, 0.5, 0.75):
                E = alpha * E1 + (1 - alpha) * E0
                if membership_slack(form, E) < -1e-6:
                    found = True
                    break
            if found:
                break
        assert found

    def test_inversion_witness(self):
        rng = np.random.default_rng(47)
        form = hp_form(np.diag([0.5, 0.2]))
        assert structural_profile(form).inversion_closed
        for _ in range(200):
            E = sample_member(form, rng, base=2.0 * np.eye(2), spread=0.5)
            if 1.0 / np.linalg.cond(E) < 1e-8:
                continue
            Einv = np.linalg.inv(E)
            S = membership_slack_matrix(form, Einv)
            assert membership_slack(form, Einv) >= -psd_tolerance(S)

    def test_product_witness(self):
        rng = np.random.default_rng(53)
        form = class_form(ClassSpec("B"), dim=2)
        assert structural_profile(form).product_closed
        for _ in range(200):
            E0 = sample_member(form, rng, base=np.zeros((2, 2)), spread=0.4)
            E1 = sample_member(form, rng, base=np.zeros((2, 2)), spread=0.4)
            S = membership_slack_matrix(form, E0 @ E1)
            assert membership_slack(form, E0 @ E1) >= -psd_tolerance(S)

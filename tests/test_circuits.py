import numpy as np
import pytest

from conftest import circuit_realizations, transfer_gap
from kypcert.circuits import (
    Capacitor,
    ImproperTopologyError,
    Inductor,
    Parallel,
    Resistor,
    Series,
    beta_of_circuit,
    build_impedance,
    circuit_beta_formula,
    tree_from_dict,
    tree_to_dict,
)
from kypcert.realization import evaluate_grid


GRID = 1j * np.concatenate([[0.0], np.logspace(-3, 3, 100)])


def series_rc_tree(r1=1.0, r2=1.0, c=1.0):
    return Series(Resistor(r1), Parallel(Resistor(r2), Capacitor(c)))


class TestBuildImpedance:
    def test_rc_ladder_matches_table(self):
        Z = build_impedance(series_rc_tree())
        table, _, _, _ = circuit_realizations()
        assert transfer_gap(Z, table, GRID) < 1e-9

    def test_rl_ladder_matches_formula(self):
        r1, r2, ell = 2.0, 3.0, 1.0
        Z = build_impedance(Series(Resistor(r1), Parallel(Resistor(r2), Inductor(ell))))
        got = evaluate_grid(Z, GRID)[:, 0, 0]
        want = r1 + GRID * r2 / (GRID + r2 / ell)
        assert np.abs(got - want).max() < 1e-9

    def test_single_resistor(self):
        Z = build_impedance(Resistor(5.0))
        assert Z.n == 0
        assert abs(Z.D[0, 0] - 5.0) < 1e-15

    def test_series_resistor_capacitor(self):
        Z = build_impedance(Series(Resistor(1.0), Capacitor(1.0)))
        s = 1j * np.logspace(-2, 2, 50)
        got = evaluate_grid(Z, s)[:, 0, 0]
        assert np.abs(got - (1.0 + 1.0 / s)).max() < 1e-12

    def test_lc_tank_is_lossless(self):
        from kypcert.classes import sweep_membership
        from kypcert.qmi import ClassSpec

        Z = build_impedance(Parallel(Inductor(1.0), Capacitor(1.0)))
        assert sweep_membership(Z, ClassSpec("PO")).member

    def test_bare_inductor_rejected(self):
        with pytest.raises(ImproperTopologyError, match="inductive"):
            build_impedance(Inductor(1.0))

    def test_series_inductor_rejected(self):
        with pytest.raises(ImproperTopologyError, match="inductive"):
            build_impedance(Series(Resistor(1.0), Inductor(1.0)))

    def test_bare_capacitor_rejected(self):
        with pytest.raises(ImproperTopologyError, match="capacitor"):
            build_impedance(Capacitor(1.0))

    def test_capacitor_bank_rejected(self):
        with pytest.raises(ImproperTopologyError, match="capacitor"):
            build_impedance(Parallel(Capacitor(1.0), Capacitor(2.0)))

    def test_nonpositive_value_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            build_impedance(Resistor(0.0))

    @pytest.mark.parametrize(
        "tree, impedance",
        [
            # the admittance of a series child is the reciprocal of its impedance
            (
                Parallel(Series(Resistor(2.0), Capacitor(0.5)), Resistor(3.0)),
                lambda s: 1.0 / (1.0 / (2.0 + 2.0 / s) + 1.0 / 3.0),
            ),
            # a parallel child adds its admittances in place
            (
                Parallel(Parallel(Resistor(2.0), Capacitor(0.5)), Resistor(3.0)),
                lambda s: 1.0 / (0.5 + 0.5 * s + 1.0 / 3.0),
            ),
            # two series capacitors are a pure integrator; its reciprocal is a slope
            (
                Parallel(Series(Capacitor(0.5), Capacitor(0.25)), Resistor(3.0)),
                lambda s: 1.0 / (s / 6.0 + 1.0 / 3.0),
            ),
        ],
        ids=["series-child", "parallel-child", "integrator-child"],
    )
    def test_composite_children_of_a_parallel_node(self, tree, impedance):
        s = 1j * np.logspace(-3, 3, 61)
        got = evaluate_grid(build_impedance(tree), s)[:, 0, 0]
        assert np.abs(got - impedance(s)).max() < 1e-12


class TestNodeConstruction:
    @pytest.mark.parametrize("leaf", [Resistor, Inductor, Capacitor])
    def test_leaf_rejects_nonpositive_value(self, leaf):
        with pytest.raises(ValueError, match="positive"):
            leaf(-1.0)

    @pytest.mark.parametrize("node", [Series, Parallel])
    def test_composite_rejects_empty(self, node):
        with pytest.raises(ValueError, match="child"):
            node()

    @pytest.mark.parametrize("node", [Series, Parallel])
    def test_composite_rejects_non_node(self, node):
        with pytest.raises(TypeError, match="not a tree node"):
            node(Resistor(1.0), 2.0)

    def test_leaf_kinds_stay_distinct(self):
        assert Resistor(1.0) != Inductor(1.0)
        assert repr(Capacitor(2.0)) == "Capacitor(value=2.0)"


class TestBetaOfCircuit:
    def test_unit_elements(self):
        assert abs(beta_of_circuit(1.0, 1.0, 1.0) - 0.8) < 1e-6

    def test_small_r1_branch(self):
        got = beta_of_circuit(0.3, 1.0, 1.0)
        assert abs(got - 2.0 / (0.3 + 1.0 / 0.3)) < 1e-6

    def test_branch_continuity(self):
        r2 = 1.0
        thr = np.sqrt((r2 / 2.0) ** 2 + 1.0) - r2 / 2.0
        lo = 2.0 / (thr + 1.0 / thr)
        hi = 2.0 / ((thr + r2) + 1.0 / (thr + r2))
        assert abs(lo - hi) < 1e-12

    def test_formula_against_bisection(self):
        rng = np.random.default_rng(97)
        for _ in range(8):
            r1 = rng.uniform(0.1, 4.0)
            r2 = rng.uniform(0.1, 4.0)
            c = rng.uniform(0.2, 2.0)
            assert abs(beta_of_circuit(r1, r2, c) - circuit_beta_formula(r1, r2)) < 1e-6

    def test_capacitance_only_rescales_frequency(self):
        assert abs(beta_of_circuit(0.7, 1.3, 0.1) - beta_of_circuit(0.7, 1.3, 5.0)) < 1e-6


class TestTreeJson:
    def test_round_trip(self):
        tree = series_rc_tree(2.0, 3.0, 0.5)
        data = tree_to_dict(tree)
        assert data["type"] == "series"
        back = tree_from_dict(data)
        assert back == tree

    def test_parse_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown"):
            tree_from_dict({"type": "transformer", "value": 1.0})

    def test_parse_rejects_nonpositive_value(self):
        with pytest.raises(ValueError, match="positive"):
            tree_from_dict({"type": "series", "children": [{"type": "C", "value": -1.0}]})

    def test_parse_rejects_empty_composite(self):
        with pytest.raises(ValueError, match="child"):
            tree_from_dict({"type": "parallel", "children": []})

"""One-port RLC impedance trees and their state-space realizations.

Trees are built from R/L/C leaves combined by Series and Parallel nodes;
a node checks its own values and children when it is constructed.
Internally each subtree carries its driving-point impedance or admittance
as a proper realization plus a linear slope coefficient (the ``a`` in
G(s) = G0(s) + a*s), because inductor impedances and capacitor admittances
are improper on their own while the composed one-port usually is not. One
recursion builds both immittances: a Series node adds impedances, a Parallel
node adds admittances, and any other node is the reciprocal of its dual.
Improper results at the top level are rejected, as is the degenerate
pure-capacitor bank.
"""

from dataclasses import dataclass

import numpy as np

from .classes import FrequencyGrid, beta_max
from .realization import Realization, function_inverse, series_add

__all__ = [
    "ImproperTopologyError",
    "Resistor",
    "Inductor",
    "Capacitor",
    "Series",
    "Parallel",
    "tree_from_dict",
    "tree_to_dict",
    "build_impedance",
    "beta_of_circuit",
    "circuit_beta_formula",
]


class ImproperTopologyError(ValueError):
    """The requested one-port has no proper impedance realization."""


@dataclass(frozen=True)
class _Leaf:
    value: float

    def __post_init__(self):
        if self.value <= 0:
            raise ValueError(f"element values must be positive, got {self.value}")


class Resistor(_Leaf):
    pass


class Inductor(_Leaf):
    pass


class Capacitor(_Leaf):
    pass


@dataclass(frozen=True)
class _Composite:
    children: tuple

    def __init__(self, *children):
        if not children:
            raise ValueError(f"{type(self).__name__} node needs at least one child")
        for c in children:
            if not isinstance(c, (_Leaf, _Composite)):
                raise TypeError(f"not a tree node: {c!r}")
        object.__setattr__(self, "children", tuple(children))


class Series(_Composite):
    pass


class Parallel(_Composite):
    pass


_LEAF_TYPES = {"R": Resistor, "L": Inductor, "C": Capacitor}


def tree_from_dict(data: dict):
    """Parse {"type": "R"|"L"|"C"|"series"|"parallel", "value"|..., "children": [...]}."""
    kind = data.get("type")
    if kind in _LEAF_TYPES:
        return _LEAF_TYPES[kind](float(data["value"]))
    if kind in ("series", "parallel"):
        children = [tree_from_dict(c) for c in data.get("children", [])]
        cls = Series if kind == "series" else Parallel
        return cls(*children)
    raise ValueError(f"unknown tree node type {kind!r}")


def tree_to_dict(node) -> dict:
    if isinstance(node, Resistor):
        return {"type": "R", "value": node.value}
    if isinstance(node, Inductor):
        return {"type": "L", "value": node.value}
    if isinstance(node, Capacitor):
        return {"type": "C", "value": node.value}
    if isinstance(node, Series):
        return {"type": "series", "children": [tree_to_dict(c) for c in node.children]}
    if isinstance(node, Parallel):
        return {"type": "parallel", "children": [tree_to_dict(c) for c in node.children]}
    raise TypeError(f"not a tree node: {node!r}")


# ---------------------------------------------------------------------------
# proper-part + slope arithmetic


@dataclass
class _Branch:
    """A scalar rational G(s) = proper(s) + slope * s."""

    proper: Realization
    slope: float


def _const(v: float) -> _Branch:
    return _Branch(Realization.constant([[complex(v)]]), 0.0)


def _integrator(gain: float) -> _Branch:
    # gain / s
    return _Branch(
        Realization(A=[[0.0]], B=[[1.0]], C=[[gain]], D=[[0.0]]), 0.0
    )


def _add(parts) -> _Branch:
    acc = parts[0]
    for p in parts[1:]:
        acc = _Branch(series_add(acc.proper, p.proper), acc.slope + p.slope)
    return acc


def _is_pure_integrator(R: Realization) -> bool:
    if R.n == 0:
        return False
    scale = 1.0 + max(np.abs(R.array).max(), 0.0)
    return (
        np.abs(R.D).max() <= 1e-12 * scale and np.abs(R.A).max() <= 1e-12 * scale
    )


def _invert(branch: _Branch) -> _Branch:
    """Reciprocal of a slope-augmented scalar branch.

    slope > 0: (G0 + a s)^{-1} is strictly proper; the slope becomes one
      extra state fed back through G0.
    slope = 0 with invertible feedthrough: plain function inverse.
    slope = 0 with a pure-integrator branch k/s: reciprocal is s/k.
    Anything else has no proper-plus-slope reciprocal here.
    """
    G0, a = branch.proper, branch.slope
    if a > 0.0:
        A0, B0, C0, D0 = G0.A, G0.B, G0.C, G0.D
        n = G0.n
        A = np.zeros((n + 1, n + 1), dtype=complex)
        A[:n, :n] = A0
        A[:n, n:] = B0
        A[n:, :n] = -C0 / a
        A[n, n] = -D0[0, 0] / a
        B = np.zeros((n + 1, 1), dtype=complex)
        B[n, 0] = 1.0 / a
        C = np.zeros((1, n + 1), dtype=complex)
        C[0, n] = 1.0
        return _Branch(Realization(A=A, B=B, C=C, D=[[0.0]]), 0.0)
    if np.abs(G0.D[0, 0]) > 1e-12 * (1.0 + np.abs(G0.array).max()):
        return _Branch(function_inverse(G0), 0.0)
    if _is_pure_integrator(G0):
        gain = (G0.C @ G0.B)[0, 0].real
        if gain <= 0:
            raise ImproperTopologyError("degenerate integrator branch")
        return _Branch(Realization.constant([[0.0]]), 1.0 / gain)
    raise ImproperTopologyError(
        "branch reciprocal is improper beyond a single capacitive slope"
    )


def _immittance(node, admittance: bool) -> _Branch:
    """Impedance (or admittance) of a subtree.

    A Series node adds impedances and a Parallel node adds admittances; any
    other node is the reciprocal of its dual. An inductor's impedance and a
    capacitor's admittance are slopes, the other two leaf cases integrators.
    """
    if isinstance(node, Resistor):
        return _const(1.0 / node.value if admittance else node.value)
    if isinstance(node, (Inductor, Capacitor)):
        if isinstance(node, Capacitor) == admittance:
            return _Branch(Realization.constant([[0.0]]), node.value)
        return _integrator(1.0 / node.value)
    if isinstance(node, Parallel if admittance else Series):
        return _add([_immittance(c, admittance) for c in node.children])
    if isinstance(node, _Composite):
        return _invert(_immittance(node, not admittance))
    raise TypeError(f"not a tree node: {node!r}")


def build_impedance(tree) -> Realization:
    """Realize the driving-point impedance of an RLC tree.

    Rejects one-ports whose impedance is improper (a series inductive path
    survives to the top) and the pure capacitor bank, whose impedance
    degenerates to a bare 1/(Cs) integrator.
    """
    branch = _immittance(tree, admittance=False)
    if branch.slope > 0.0:
        raise ImproperTopologyError(
            "impedance is improper: a series inductive path contributes "
            f"{branch.slope!r} * s; realize the admittance instead"
        )
    if _is_pure_integrator(branch.proper):
        raise ImproperTopologyError(
            "tree reduces to a pure capacitor bank with impedance 1/(C s); "
            "rejected as a degenerate one-port"
        )
    return branch.proper


def circuit_beta_formula(R1: float, R2: float) -> float:
    """Closed-form largest scalar weight of the series R / parallel RC one-port.

    Piecewise in R1 with the branch point at sqrt((R2/2)^2 + 1) - R2/2,
    where the two expressions agree; independent of the capacitance, which
    only rescales frequency.
    """
    if R1 <= 0 or R2 <= 0:
        raise ValueError("element values must be positive")
    threshold = np.sqrt((R2 / 2.0) ** 2 + 1.0) - R2 / 2.0
    if R1 <= threshold:
        return 2.0 / (R1 + 1.0 / R1)
    total = R1 + R2
    return 2.0 / (total + 1.0 / total)


def beta_of_circuit(
    R1: float,
    R2: float,
    Cap: float,
    grid: FrequencyGrid | None = None,
    tol: float = 1e-8,
) -> float:
    """Largest scalar weight of Series(R1, Parallel(R2, C)), via ``beta_max``."""
    tree = Series(Resistor(R1), Parallel(Resistor(R2), Capacitor(Cap)))
    return beta_max(build_impedance(tree), grid=grid, tol=tol).value

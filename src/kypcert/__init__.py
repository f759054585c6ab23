"""Certification of quantitative positive-real matrix functions.

State-space realizations are tested for membership in positive-real style
classes and their quantitative refinements, certified by KYP-type matrix
inequalities, transformed (Cayley, affine, inverses) without leaving the
class, and reduced by balanced truncation, vertexwise over whole polytopes
of realizations.
"""

from .hermat import (
    DefinitenessError,
    Inertia,
    ResonanceError,
    cayley_matrix,
    hermitian_power,
    hyper_pair_slacks,
    inertia,
    solve_lyapunov,
)
from .realization import (
    BalancedForm,
    PoleError,
    Realization,
    SingularArrayError,
    array_congruence,
    array_inverse,
    balance,
    evaluate,
    function_inverse,
    gramians,
    pbh_test,
    poles,
    series_add,
    similarity,
)
from .qmi import (
    ClassSpec,
    QuadraticForm,
    StructuralProfile,
    class_form,
    hp_order_check,
    matrix_convex_combine,
    membership_slack,
    structural_profile,
)
from .classes import (
    ExtremalWeight,
    FrequencyGrid,
    MembershipReport,
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
from .kyp import (
    Certificate,
    find_certificate,
    infeasibility_witness,
    invert_with_certificate,
    kyp_slack_matrix,
    normalize_internally_passive,
    observability_inertia_check,
    verify_certificate,
)
from .reduction import (
    RealizationPolytope,
    TruncationIsometry,
    combine_internally_passive,
    combine_realizations,
    hp_preservation_report,
    hull_truncation_commutes,
    truncate_balanced,
    truncate_isometry,
)
from .circuits import (
    Capacitor,
    ImproperTopologyError,
    Inductor,
    Parallel,
    Resistor,
    Series,
    beta_of_circuit,
    build_impedance,
)

__version__ = "0.1.0"

"""Exact-arithmetic toolkit for 3-dimensional simplicial toric geometry.

Integer lattices and normal forms, simplicial cones and fans, cyclic quotient
singularity types with the terminal criterion, weighted projective space fans,
and the SL2-invariant polynomial identities.  The package is integer-only: all
of it runs on arbitrary-precision integers, with no rationals and no floating
point.
"""

from .cones import (
    Cone,
    Fan,
    FanFormatError,
    cone_multiplicity,
    fan_from_dict,
    fan_from_json,
    fan_to_dict,
    fan_to_json,
    is_complete,
    load_fan,
    make_cone,
    make_fan,
    save_fan,
    validate_fan,
)
from .lattice import (
    det,
    hermite_normal_form,
    identity,
    is_primitive,
    mat_mul,
    mat_vec,
    matrix,
    smith_normal_form,
)
from .quotients import (
    CyclicQuotientType,
    NonCyclicType,
    is_terminal,
    lattice_equivalent,
    normalize_type,
    quotient_type,
    quotient_type_from_adjugate,
    standard_cone,
)
from .sl2 import (
    Poly,
    invariant_ideal_generators,
    quadric_family,
    quotient_images_sign_invariant,
    quotient_map_substitution,
    rep_weights,
    verify_invariant_ideal,
)
from .varieties import (
    AnalysisReport,
    Case1Record,
    LinkingSolution,
    analyze,
    build_wps_fan,
    classify_case1,
    fan_lattice_equivalent,
    solve_linking_equations,
)

__version__ = "0.1.0"

"""Exact computations around automorphism-group actions on the
Weierstrass points of compact Riemann surfaces.

Everything is integer or Fraction arithmetic; there is no floating
point anywhere.  The central objects: total Weierstrass weight g^3 - g,
Macbeath-style fixed-point counts, orbit-weight Diophantine equations,
branched double covers of regular spherical maps, PSL(2,q) as a
permutation group on the projective line, Kato's bi-elliptic weight
window, and the distinguished points of the Fermat curves.
"""

from .bielliptic import (
    WeightWindow,
    bielliptic_window,
    garcia_transitivity_test,
    kato_max_weight,
    nu,
    scan_nontransitive,
    two_hyperelliptic,
)
from .fermat import (
    AccountingReport,
    FermatPoint,
    PointClass,
    automorphism_group_order,
    fermat_genus,
    fermat_transitivity,
    leopoldt_points,
    leopoldt_weight_bound,
    orbit_enumerate,
    trivial_point_weight,
    trivial_points,
    weight_accounting,
)
from .fixedpoints import (
    cyclic_fixed_points,
    is_realizable_order,
    psl2q_fixed_points,
    schoeneberg_is_weierstrass,
)
from .orbitweights import (
    OrbitProfile,
    SimplePointOutcome,
    TransitivityStatus,
    TransitivityVerdict,
    WeightEquationSolutionSet,
    classify,
    hurwitz_divisibility,
    necessary_weight,
    orbit_profile,
    simple_point_analysis,
    solve_weight_equation,
)
from .platonic import (
    BranchLocus,
    CoverResult,
    GroupDescriptor,
    SphericalMap,
    accola_maclachlan,
    catalog,
    dihedron,
    double_cover,
    dual,
    enumerate_transitive_hyperelliptic,
    hosohedron,
    star_map,
)
from .pslgroups import (
    FiniteField,
    HurwitzStatus,
    OrderCensus,
    field_build,
    hurwitz_genus,
    is_hurwitz_psl2q,
    modular_surface_verdict,
    order_census,
    prime_power,
    psl2_order,
    psl2q_transitivity_verdict,
)
from .report import (
    CommandRequest,
    ReportDocument,
    run,
    validate_section6_dataset,
)
from .surfacecore import (
    FuchsianSignature,
    MapValidation,
    RegularMapDescriptor,
    WeightDistribution,
    double_cover_genus,
    hyperelliptic_signature,
    rh_area_consistency,
    total_weight,
    validate_map,
    weierstrass_count_bounds,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

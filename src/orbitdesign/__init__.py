"""D-optimal approximate designs for two-level interaction models on
hypercube regions where the number of active factors is bounded from both
sides.

``optimal_design(K, lower, upper)`` decides the regime of a region,
constructs its design -- fully efficient for wide bounds, with an optimized
outer-orbit weight for narrow bounds -- and certifies optimality through
the equivalence theorem.  See the command line front end in
``orbitdesign.cli`` for the packaged workflows.
"""

from .exceptions import (
    EstimabilityError,
    OrbitDesignError,
    SingularDesignError,
    UnsupportedRegionError,
    WrongRegimeError,
)
from .orbits import (
    OrbitDesign,
    Region,
    enumerate_orbit,
    orbit_size,
    point_weight,
)
from .moments import MomentSet, design_moments, orbit_moment
from .info_matrix import (
    InfoMatrix,
    ModelDims,
    RegularityReport,
    assemble_general,
    assemble_inverse,
    build_s_matrix,
    info_matrix_of,
    inverse_coefficients,
    log_det_symmetric,
    model_dims,
    regularity,
)
from .construct import (
    NarrowDesignSpec,
    OptimalDesign,
    WideDesignSpec,
    full_factorial,
    is_integer_threshold,
    lemma2_design,
    narrow_design,
    optimal_design,
    regime,
    threshold_b,
    wide_design,
)
from .verify import (
    KwReport,
    SensitivityPoly,
    brute_force_info,
    kw_check,
    sensitivity_poly,
)

__all__ = [
    "EstimabilityError",
    "InfoMatrix",
    "KwReport",
    "ModelDims",
    "MomentSet",
    "NarrowDesignSpec",
    "OptimalDesign",
    "OrbitDesign",
    "OrbitDesignError",
    "Region",
    "RegularityReport",
    "SensitivityPoly",
    "SingularDesignError",
    "UnsupportedRegionError",
    "WideDesignSpec",
    "WrongRegimeError",
    "assemble_general",
    "assemble_inverse",
    "brute_force_info",
    "build_s_matrix",
    "design_moments",
    "enumerate_orbit",
    "full_factorial",
    "info_matrix_of",
    "inverse_coefficients",
    "is_integer_threshold",
    "kw_check",
    "lemma2_design",
    "log_det_symmetric",
    "model_dims",
    "narrow_design",
    "optimal_design",
    "orbit_moment",
    "orbit_size",
    "point_weight",
    "regime",
    "regularity",
    "sensitivity_poly",
    "threshold_b",
    "wide_design",
]

__version__ = "0.1.0"

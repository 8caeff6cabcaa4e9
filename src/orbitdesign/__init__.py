"""D-optimal approximate designs for two-level interaction models on
hypercube regions where the number of active factors is bounded from both
sides.

``optimal_design(K, lower, upper)`` decides the regime of a region,
constructs its design -- fully efficient for wide bounds, with an optimized
outer-orbit weight for narrow bounds -- and certifies optimality through
the equivalence theorem.  See the command line front end in
``orbitdesign.cli`` for the packaged workflows.

``__all__`` names three groups: the region and its designs (``Region``,
``OrbitDesign``, ``MomentSet``), the constructors with their regime test
and result types, and ``kw_check`` with its ``KwReport``; plus the
exceptions.  The block algebra and the dense oracles are imported from
``orbitdesign.info_matrix``; orbit sizes and enumeration from
``orbitdesign.orbits``, single-orbit moments from ``orbitdesign.moments``.
"""

from .exceptions import (
    EstimabilityError,
    OrbitDesignError,
    SingularDesignError,
    UnsupportedRegionError,
    WrongRegimeError,
)
from .orbits import OrbitDesign, Region
from .moments import MomentSet
from .construct import (
    NarrowDesignSpec,
    OptimalDesign,
    WideDesignSpec,
    full_factorial,
    lemma2_design,
    narrow_design,
    optimal_design,
    regime,
    threshold_b,
    wide_design,
)
from .verify import KwReport, kw_check

# Reached as ``orbitdesign.<name>`` by perfbench/jobs.py; not public.
from .moments import design_moments
from .info_matrix import assemble_inverse, info_matrix_of, log_det_symmetric
from .verify import brute_force_info, sensitivity_poly

__all__ = [
    "EstimabilityError", "OrbitDesignError", "SingularDesignError",
    "UnsupportedRegionError", "WrongRegimeError",
    "OrbitDesign", "Region", "MomentSet",
    "optimal_design", "wide_design", "narrow_design", "full_factorial",
    "lemma2_design", "regime", "threshold_b",
    "kw_check",
    "OptimalDesign", "WideDesignSpec", "NarrowDesignSpec", "KwReport",
]

__version__ = "0.1.0"

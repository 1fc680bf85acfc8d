"""Numerical laboratory for entire-function growth: a contour-integral
construction of order-n functions with n prescribed asymptotic functions,
the classical order-n/2 counterexample, angular-measure/Carleman bounds on
path-system domains, walk-on-spheres harmonic measure, and order fitting.
"""

from .classic import ClassicDCA, dca_asymptotic_value, eval_dca, log_dca
from .construct import (
    ConstructedF,
    TooCloseToContour,
    c_constant,
    classify_region,
    contour_identity,
    d_constant,
    eval_E,
    eval_f,
    eval_phi,
    residual_lc,
)
from .geometry import (
    AngularSlice,
    CarlemanReport,
    DegenerateRadiusError,
    EmptySliceError,
    LabelConflictError,
    PathSystem,
    SegmentalPath,
    a0_constant,
    angular_measure,
    carleman_integral,
    carleman_report,
    check_sector_inequality,
    normalize_collection,
    point_in_domain,
)
from .growth import (
    Classic,
    Constructed,
    EntireSpec,
    GrowthSample,
    InsufficientDynamicRangeError,
    OrderFit,
    Theorem1Report,
    fit_order,
    max_on_circle,
    max_on_circles,
    spec_from_json_dict,
    spec_to_json_dict,
    trace_ray,
    trace_rays,
    verify_theorem1,
)
from .logcx import CancellationWarning, LC_ONE, LC_ZERO, LogComplex, lc_add, lc_mul
from .quadrature import (
    QuadratureNonconvergence,
    QuadResult,
    envelope_tail_bound,
    integrate_segment,
    truncation_radius,
)
from .specs import Polynomial, Series, TargetFunction
from .wos import StartOutsideDomainError, WosConfig, WosEstimate, estimate_harmonic_measure

__version__ = "0.1.0"

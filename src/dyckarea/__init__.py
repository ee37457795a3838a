"""Exact and asymptotic evaluation of the area-and-length generating
function of Dyck paths.

The library exposes four layers:

* ``enumeration``: exact integer tables of path counts by length and area,
  with an independent brute-force oracle.
* ``qseries``: the alternating q-series H(t), the ratio and continued
  fraction forms of the generating function G(t, q), the pole boundary,
  and quadrature/remainder validation utilities.
* ``special_functions``: in-house Airy pair, Airy zeros and zeta sums,
  complex dilogarithm, and the scaling function Ai'/Ai.
* ``asymptotics``: saddle-point data, the uniform Airy approximation of
  H and G, tricritical scaling laws, and finite-size scaling of the
  fixed-area series.

``datasets`` builds figure-reproduction scans, and ``cli`` wraps
everything in a deterministic command-line tool.
"""

__version__ = "0.1.0"

from .enumeration import (  # noqa: E402
    AreaPolynomial,
    CoefficientTable,
    area_columns,
    build_area_polynomials,
    brute_force_area_polynomial,
    catalan_number,
    eval_G_truncated,
    partition_series,
)
from .qseries import (  # noqa: E402
    EvalSettings,
    RemainderCheck,
    contour_h,
    euler_maclaurin_check,
    g_cfrac,
    g_ratio,
    h_series,
    log_q_pochhammer,
    t_infinity,
)
from .special_functions import (  # noqa: E402
    A0,
    AiryPair,
    airy,
    airy_zeros,
    airy_zeta,
    dilog,
    scaling_F,
    scaling_F_series,
)
from .asymptotics import (  # noqa: E402
    SaddleData,
    finite_size_phi,
    g_scaling,
    g_uniform,
    h_uniform,
    phase_f,
    q_m_asymptotic,
    saddle_data,
    scaling_s,
    scaling_t,
)
from . import qseries  # noqa: E402

qseries._debug()  # where logging is loaded already, the NullHandler of debug-level route decisions

__all__ = [
    "__version__",
    "A0",
    "AiryPair",
    "AreaPolynomial",
    "CoefficientTable",
    "EvalSettings",
    "RemainderCheck",
    "SaddleData",
    "airy",
    "airy_zeros",
    "airy_zeta",
    "area_columns",
    "build_area_polynomials",
    "brute_force_area_polynomial",
    "catalan_number",
    "contour_h",
    "dilog",
    "euler_maclaurin_check",
    "eval_G_truncated",
    "finite_size_phi",
    "g_cfrac",
    "g_ratio",
    "g_scaling",
    "g_uniform",
    "h_series",
    "h_uniform",
    "log_q_pochhammer",
    "partition_series",
    "phase_f",
    "q_m_asymptotic",
    "saddle_data",
    "scaling_F",
    "scaling_F_series",
    "scaling_s",
    "scaling_t",
    "t_infinity",
]

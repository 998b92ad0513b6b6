"""Exact-arithmetic toolkit for Gilbert graphs.

Computes the closed-form spectra of Gilbert graphs G_{q,n,d} and their
descent-level quotients, evaluates spectral bounds on the maximum code size
A_q(n, d) as exact rationals, and constructs [n, n-s, d]_q linear codes by
spectral descent, with exhaustive distance verification.
"""

from .bounds import (
    BoundReport,
    asymptotic_gv,
    build_bound_report,
    descent_bound,
    gv_bound,
    hoffman_bound,
    hoffman_paper_literal,
)
from .codes import (
    INFINITE_DISTANCE,
    LinearCode,
    format_pchk,
    min_distance,
    read_pchk,
    write_pchk,
)
from .combinat import GraphParams, ball_volume, is_prime
from .descent import DescentTrace, LevelRecord, descend, run_algorithm1, select_pivot
from .errors import DEFAULT_BUDGET, BudgetError, DivisibilityError, PchkFormatError
from .spectrum import SpectrumTable, build_spectrum_level0
from .vectors import FqVector

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "BudgetError",
    "DEFAULT_BUDGET",
    "DescentTrace",
    "DivisibilityError",
    "FqVector",
    "GraphParams",
    "INFINITE_DISTANCE",
    "LevelRecord",
    "LinearCode",
    "PchkFormatError",
    "SpectrumTable",
    "asymptotic_gv",
    "ball_volume",
    "build_bound_report",
    "build_spectrum_level0",
    "descend",
    "descent_bound",
    "format_pchk",
    "gv_bound",
    "hoffman_bound",
    "hoffman_paper_literal",
    "is_prime",
    "min_distance",
    "read_pchk",
    "run_algorithm1",
    "select_pivot",
    "write_pchk",
]

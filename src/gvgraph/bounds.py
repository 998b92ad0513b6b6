"""Closed-form and descent-based bounds on the maximum code size A_q(n, d).

Every bound is an exact ``fractions.Fraction``; the only non-rational output
is the asymptotic rate, a high-precision Decimal.  Rounding toward an
integer code size is always explicit: ceilings for lower bounds, floors for
upper bounds.

``descent_bound`` alone evaluates the descent-bound formula; the descent
calls it per level.  This module never runs the descent itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

from .combinat import GraphParams, entropy_q
from .spectrum import build_spectrum_level0

if TYPE_CHECKING:
    from .descent import DescentTrace

__all__ = [
    "BoundReport",
    "asymptotic_gv",
    "build_bound_report",
    "descent_bound",
    "gv_bound",
    "hoffman_bound",
    "hoffman_paper_literal",
    "wilf_cor27_bound",
]


def gv_bound(params: GraphParams) -> Fraction:
    """Greedy sphere-covering lower bound q^n / V_q(n, d-1)."""
    return Fraction(params.num_vertices, params.degree + 1)


def asymptotic_gv(q: int, delta, digits: int = 50) -> Decimal:
    """Asymptotic rate lower bound 1 - h_q(delta) for 0 <= delta < 1 - 1/q."""
    if not 0 <= Fraction(delta) < 1 - Fraction(1, q):
        raise ValueError(f"delta must lie in [0, 1 - 1/q) = [0, {1 - Fraction(1, q)}), got {delta}")
    with localcontext() as ctx:
        ctx.prec = digits + 10
        value = 1 - entropy_q(q, delta, digits + 5)
    with localcontext() as ctx:
        ctx.prec = digits
        return +value


def hoffman_bound(params: GraphParams, lambda_min: int) -> Fraction:
    """Hoffman ratio upper bound N * (-lambda_min) / (D - lambda_min).

    This is the standard form of the bound (denominator D - lambda_min); the
    printed variant with D + lambda_min is exposed separately as
    ``hoffman_paper_literal`` for transparency.
    """
    if lambda_min >= 0:
        raise ValueError(f"Hoffman bound needs a negative minimum eigenvalue, got {lambda_min}")
    degree = params.degree
    return Fraction(params.num_vertices * (-lambda_min), degree - lambda_min)


def hoffman_paper_literal(params: GraphParams, lambda_min: int) -> Fraction | None:
    """The D + lambda_min denominator variant; None when that denominator is 0."""
    if lambda_min >= 0:
        raise ValueError(f"Hoffman bound needs a negative minimum eigenvalue, got {lambda_min}")
    denom = params.degree + lambda_min
    if denom == 0:
        return None
    return Fraction(params.num_vertices * (-lambda_min), denom)


def wilf_cor27_bound(params: GraphParams, lambda_min: int) -> Fraction:
    """Eigenvector lower bound q^n / (V_q(n,d-1) + (q-1) lambda_min + q)."""
    return descent_bound(params, [lambda_min])


def descent_bound(params: GraphParams, lambda_min_sequence: Sequence[int]) -> Fraction:
    """Improved lower bound after descending through the given level minima.

    q^n / (V_q(n,d-1) + sum_i (q-1) q^i lambda_i + q^(t+1)) for the minima
    lambda_0..lambda_t; with a single level minimum it is ``wilf_cor27_bound``.
    """
    if not lambda_min_sequence:
        raise ValueError("lambda_min_sequence must contain at least one level minimum")
    q = params.q
    denom = params.degree + 1
    for i, lam in enumerate(lambda_min_sequence):
        denom += (q - 1) * q**i * lam
    denom += q ** len(lambda_min_sequence)
    if denom <= 0:
        raise ValueError(f"bound denominator {denom} is not positive; the bound is vacuous here")
    return Fraction(params.num_vertices, denom)


@dataclass(frozen=True)
class BoundReport:
    """All bound values for one parameter triple, exact where mathematics is."""

    params: GraphParams
    lambda_min: int
    gv: Fraction
    wilf_cor27: Fraction | None
    hoffman_upper: Fraction | None
    hoffman_paper_literal: Fraction | None
    descent_bounds: tuple[Fraction, ...] | None
    constructed_code_size: int | None
    s: int | None
    asymptotic_rate: Decimal | None
    degenerate: bool


def build_bound_report(params: GraphParams, trace: DescentTrace | None = None) -> BoundReport:
    """Assemble a full report; the descent fields come from ``trace``.

    Closed-form fields never need a table budget.  The descent fields are
    copied from ``trace`` (a ``run_algorithm1`` result for ``params``) and
    are None without one; no descent is run here.  Level 0's minimum comes
    from the trace's first level when it has one, else (no trace, or an
    edgeless level 0) from the level-0 spectrum.
    """
    q, n, d = params.q, params.n, params.d
    if trace is not None and trace.levels:
        lam_min = trace.levels[0].lambda_min
    else:
        lam_min = build_spectrum_level0(params).min_value
    gv = gv_bound(params)
    wilf = wilf_cor27_bound(params, lam_min)
    if lam_min < 0:
        hoffman = hoffman_bound(params, lam_min)
        hoffman_literal = hoffman_paper_literal(params, lam_min)
    else:
        hoffman = None
        hoffman_literal = None
    delta = Fraction(d, n)
    rate = asymptotic_gv(q, delta) if delta < 1 - Fraction(1, q) else None

    return BoundReport(
        params=params,
        lambda_min=lam_min,
        gv=gv,
        wilf_cor27=wilf,
        hoffman_upper=hoffman,
        hoffman_paper_literal=hoffman_literal,
        descent_bounds=None if trace is None else trace.bounds,
        constructed_code_size=None if trace is None else trace.code_size,
        s=None if trace is None else trace.s,
        asymptotic_rate=rate,
        degenerate=params.is_edgeless or params.is_complete,
    )

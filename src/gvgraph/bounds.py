"""Closed-form and descent-based bounds on the maximum code size A_q(n, d).

Every bound is an exact ``fractions.Fraction``; the only non-rational output
is the asymptotic rate, a ``decimal.Decimal`` rounded once, from one
expression in cached integer logarithms, to 50 significant digits
(``asymptotic_gv``).  Rounding toward an integer code size is always
explicit: ceilings for lower bounds, floors for upper bounds.

``descent_bound`` alone evaluates the descent-bound formula; the descent
calls it per level, and the report's single-level eigenvector bound
(``wilf_cor27``) is its value at the level-0 minimum.  This module never
runs the descent itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING, Sequence

from .combinat import GraphParams, is_prime
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
]


# Significant digits of the asymptotic rate.
_RATE_DIGITS = 50


def gv_bound(params: GraphParams) -> Fraction:
    """Greedy sphere-covering lower bound q^n / V_q(n, d-1)."""
    return Fraction(params.num_vertices, params.degree + 1)


@lru_cache(maxsize=256)
def _ln(k: int, prec: int) -> Decimal:
    """ln k at ``prec`` significant digits.  Decimal ``ln`` is correctly
    rounded (half-even, whatever the context's rounding), so a cached value
    equals a fresh one."""
    with localcontext() as ctx:
        ctx.prec = prec
        return Decimal(k).ln()


def asymptotic_gv(q: int, delta) -> Decimal:
    """Asymptotic rate lower bound 1 - h_q(delta), rounded once to 50 significant digits.

    ``delta`` must be a ``Fraction`` or an ``int`` with 0 <= delta < 1 - 1/q;
    any other input, floats included, is refused so no binary rounding ever
    enters.  The rate at delta = 0 is exactly 1.

    With delta = a/b in lowest terms and c = b - a, the rate is one
    expression in logarithms of integers,

        (b ln q - a ln(q-1) - b ln b + a ln a + c ln c) / (b ln q),

    each ln k from a cache keyed by (k, precision), so a sweep row reuses
    ln n and ln(q-1) and a multi-q sweep reuses all but ln q.  The terms
    are about b ln b, while g = (q-1)b - qa >= 1 puts delta g/(qb) below
    1 - 1/q and the rate is at least 2 (g/(qb))^2 / ln q, so the sum loses
    about 2 log10(qb/g) + log10(ln b) digits to cancellation.  It is formed
    with that many digits beyond 64, and only the quotient is rounded, half
    even, so every digit is right however close delta is to 0 or to 1 - 1/q.
    """
    if not is_prime(q):
        raise ValueError(f"q must be prime, got {q}")
    if not isinstance(delta, (Fraction, int)):
        raise TypeError(f"expected an exact rational (Fraction or int), got {type(delta).__name__}")
    delta = Fraction(delta)
    if not 0 <= delta < 1 - Fraction(1, q):
        raise ValueError(f"delta must lie in [0, 1 - 1/q) = [0, {1 - Fraction(1, q)}), got {delta}")
    if delta == 0:
        return Decimal(1)
    a, b = delta.numerator, delta.denominator
    c, g = b - a, (q - 1) * b - q * a
    # 50 digits, 14 guard digits, 2 log10(qb/g) and log10(ln b), from bit
    # lengths (str() of a huge b is refused); rounded up to a multiple of 16
    # so that nearby cells share cached logarithms.
    prec = 64 + (6 * ((q * b).bit_length() - g.bit_length() + 2) + 9) // 10 + len(str(b.bit_length()))
    prec = (prec + 15) // 16 * 16
    with localcontext() as ctx:
        ctx.prec, ctx.rounding = prec, ROUND_HALF_EVEN
        den = b * _ln(q, prec)
        num = den - a * _ln(q - 1, prec) - b * _ln(b, prec) + a * _ln(a, prec) + c * _ln(c, prec)
        ctx.prec = _RATE_DIGITS
        return num / den


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


def descent_bound(params: GraphParams, lambda_min_sequence: Sequence[int]) -> Fraction:
    """Improved lower bound after descending through the given level minima.

    q^n / (V_q(n,d-1) + sum_i (q-1) q^i lambda_i + q^(t+1)) for the minima
    lambda_0..lambda_t; with the level-0 minimum alone it is the eigenvector
    bound q^n / (V_q(n,d-1) + (q-1) lambda_0 + q) of the report's ``wilf_cor27``.
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
    wilf = descent_bound(params, [lam_min])
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

"""Spectral descent: iterated quotient spectra and the resulting parity rows.

Starting from the level-0 spectrum, each step picks the smallest
character index attaining the minimum eigenvalue, intersects the vertex
subspace with that character's kernel, and rebuilds the spectrum of the
induced graph by exact averaging:

    lam_t[v] = (1/q) * sum over r in 0..q-1 of lam_{t-1}[v + r * pivot]

The average is always an exact integer (each side is an eigenvalue sum of a
genuine Cayley graph); any remainder is reported as a hard error.  The level
degree obeys D_{t+1} = (D_t + (q-1) * lam_min_t) / q, with exact
divisibility, and the run stops at the first level whose minimum eigenvalue
is 0, equivalently degree 0.  The surviving vertex subspace is then a linear
code of minimum distance at least d whose parity-check rows are the chosen
pivots.

Typed levels and the handoff
----------------------------
Levels start typed (one value per type, see ``spectrum``).  The q parents
v + r * pivot of a next-level type v are types of the previous level, and
each next-level class sits inside one previous class, shifted by r times
the pivot's digit there, while the pivot column itself holds r times the
pivot's leading digit.  So the next level's classes are the previous
ones split by the pivot's digit (``spectrum._split``), the parent codes of
the next-level types are, per r, an outer sum of short per-class lists,
kept as its two halves, and the mean is taken as below.  Every level
scans its values once for the minimum; only a level that picks a pivot
derives the argmin from it, on a typed level from the nonzero types tied
at the minimum alone: their least dense indices are read from the halves
of the least-index outer sum.  The pivot is checked by reading the value
at its type's position (``_Types.position``), so a level that hands off
to edges builds no code -> value lookup.  The edgeless last level
computes no argmin.  Every level is typed until it
hands off to edge levels, below: a level is typed or edges, and its
``values`` are only what ``densify`` adds to print it.  Budgets are checked
against q^n before level 0, the number of its indices.

Edge levels
-----------
Level t is the Cayley graph on C_t = {x : <x, p_i> = 0 for every pivot},
with connection set S_t, the words of C_t of weight 1..d-1, so
|S_t| = D_t.  Let E_t be its m = D_t / (q-1) monic words.  Since the sum of
z^(a x) over a in F_q^* is q - 1 for x = 0 and -1 otherwise,

    lam_t(v) = q * Z(v) - m,    Z(v) = #{c in E_t : <c, v> = 0},

so a level with few edges is known from E_t alone (``spectrum``, "Edge
levels"), and the next one keeps the words orthogonal to the pivot:
E_{t+1} = {c in E_t : <c, p_{t+1}> = 0}.  A typed level t hands off when
q^m <= count and V_q(n-t-1, d-1) <= count, with count the type count of
level t+1 and m from its recursion degree (``_edge_route``): then level
t+1's edges are found among the V_q(n-t-1, d-1) free-digit patterns of
weight below d (``_low_weight_words``), and its q^r <= q^m patterns replace
an average over count types.  The route is decided from the next level's
classes and type count alone, before its layout is built.  Every later
level is an edge level.  Checks: (q-1) * |E_t| must equal the recursion
degree (the same RuntimeError as a typed level whose zero-character value
disagrees), and the pivot's Z, counted word by word
by ``value_of``, must give the pattern minimum; ``select_pivot`` checks
the argmin as on any level.

Exact means
-----------
A typed level gathers the q parents of every new type into q slabs of
parent values, each read through the level's code -> value lookup straight
from the two halves of one parent-code outer sum (one addition and one
lookup per type; no list of parent codes is built), sums them type by
type with ``map(operator.add, ...)`` and looks each sum up in a dict of
exact quotients.  A sum is divided, with ``divmod``, the first time it
occurs; a nonzero remainder raises DivisibilityError naming that sum, the
first offending one in type order.  Every later occurrence reuses the
stored quotient, so a level holds one int object per distinct eigenvalue
(a few dozen) instead of one per type.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from operator import add, mul
from time import perf_counter
from typing import Iterable, Iterator, Sequence

from .bounds import descent_bound
from .combinat import GraphParams
from .errors import DivisibilityError
from .modq import _Slots, kernel_basis, rref
from .spectrum import (
    SpectrumTable,
    _check_dense,
    _lead_col,
    _outer_halves,
    _split,
    _type_count,
    _Types,
    _weighted,
    build_spectrum_level0,
    edge_level,
)
from .vectors import FqVector

__all__ = ["DescentTrace", "LevelRecord", "descend", "run_algorithm1", "select_pivot"]

log = logging.getLogger("gvgraph")

@dataclass(frozen=True)
class LevelRecord:
    """One descent level: its degree, minimum eigenvalue, pivot, and bound."""

    t: int
    pivot: FqVector
    lambda_min: int
    degree: int
    bound: Fraction
    pivot_orthogonal: bool


@dataclass(frozen=True)
class DescentTrace:
    """Full history of a descent run down to the edgeless level s."""

    params: GraphParams
    levels: tuple[LevelRecord, ...]
    s: int
    final_degree: int

    @property
    def parity_rows(self) -> tuple[FqVector, ...]:
        return tuple(rec.pivot for rec in self.levels)

    @property
    def lambda_history(self) -> tuple[int, ...]:
        return tuple(rec.lambda_min for rec in self.levels)

    @property
    def degree_history(self) -> tuple[int, ...]:
        return tuple(rec.degree for rec in self.levels)

    @property
    def bounds(self) -> tuple[Fraction, ...]:
        return tuple(rec.bound for rec in self.levels)

    @property
    def code_size(self) -> int:
        return self.params.q ** (self.params.n - self.s)


def select_pivot(table: SpectrumTable) -> FqVector:
    """Smallest canonical index attaining the (negative) minimum eigenvalue."""
    value, argmin = table.min_eigenvalue()
    if value >= 0:
        raise ValueError(
            f"level {table.level} has minimum eigenvalue {value}; "
            "pivot selection requires a level with an edge (negative minimum)"
        )
    if argmin.is_zero:
        raise RuntimeError(f"level {table.level}: argmin is the zero vector")
    lead = next(x for x in argmin.digits if x)
    if lead != 1:
        # Scalar multiples of an argmin index are argmin indices with the same
        # eigenvalue, so the smallest one always starts with digit 1.
        raise RuntimeError(f"level {table.level}: argmin {argmin} is not monic")
    return argmin


class _Quotients(dict):
    """Eigenvalue sums mapped to their exact quotients by q, one object per value."""

    def __init__(self, q: int, level: int) -> None:
        super().__init__()
        self.q = q
        self.level = level

    def __missing__(self, total: int) -> int:
        div, rem = divmod(total, self.q)
        if rem:
            raise DivisibilityError(
                f"level {self.level}: eigenvalue sum {total} is not divisible by {self.q}"
            )
        self[total] = div
        return div


def _exact_means(slabs: Sequence[Iterable[int]], q: int, level: int) -> tuple[int, ...]:
    """Entry-by-entry sums of the q slabs, each divided exactly by q."""
    sums: Iterator[int] = iter(slabs[0])
    for slab in slabs[1:]:
        sums = map(add, sums, slab)
    return tuple(map(_Quotients(q, level).__getitem__, sums))


def _parent_codes(parent: _Types, types: _Types, pivot: FqVector) -> list[tuple[Sequence[int], list[int]]]:
    """Per r, the parent type code of ``v + r * pivot`` for every type v of
    the next level, in its type order, as ``_outer_halves``."""
    q, lead = parent.q, _lead_col(pivot)
    codes_of = {key: codes for codes, (key, _) in zip(parent.digit_codes, parent.classes)}
    lead_codes = next(codes for codes, (_, cols) in zip(parent.digit_codes, parent.classes) if lead in cols)
    parts: list[list[list[int]]] = [[] for _ in range(q)]
    # v is zero at the pivot column, so v + r * pivot holds r * lead digit there.
    starts = [lead_codes[r * pivot.digits[lead] % q] for r in range(q)]
    for (key, cols), radices in zip(reversed(types.classes), reversed(types.radices)):
        codes, a, f = codes_of[key[:-1]], key[-1], len(cols)
        # Slot s counts digit s (any nonzero digit in the zero class, where
        # every nonzero digit adds the same code); in the parent such a
        # column holds s + r*a, a zero column r*a.  So a class with a = 0
        # gives every r the same list, and a code of 0 for its zero columns.
        if not a:
            shared = _weighted(f, codes[1 : len(radices) + 1])
            for part in parts:
                part.append(shared)
            continue
        for r, part in enumerate(parts):
            shift = r * a % q
            rotated = codes[shift:] + codes[:shift]
            starts[r] += f * rotated[0]
            part.append(_weighted(f, [x - rotated[0] for x in rotated[1:]]))
    return [_outer_halves(part, start) for part, start in zip(parts, starts)]


def _check_pivot(table: SpectrumTable, v_chosen: FqVector) -> None:
    """Refuse a pivot that is zero, not canonical or not at the level minimum."""
    q, n = table.params.q, table.params.n
    if v_chosen.q != q or v_chosen.n != n:
        raise ValueError("pivot parameters do not match the table")
    if v_chosen.is_zero:
        raise ValueError("pivot must be nonzero")
    value = table.value_of(v_chosen)  # refuses a non-canonical pivot
    if value != table.min_value:
        raise ValueError(f"pivot eigenvalue {value} is not the level minimum {table.min_value}")


def _descend_types(table: SpectrumTable, v_chosen: FqVector, types: _Types) -> SpectrumTable:
    """The next level of a typed table, one exact mean of q parents per type.

    ``v_chosen`` must be a canonical representative attaining the table's
    minimum eigenvalue; ``types`` is the next level's layout.  A nonzero
    remainder raises DivisibilityError naming the first offending sum in
    type order.
    """
    _check_pivot(table, v_chosen)
    q, by = table.params.q, table._by_code
    slabs = [[by[o + i] for o in outer for i in inner] for outer, inner in _parent_codes(table.types, types, v_chosen)]
    out = SpectrumTable(params=table.params, pivots=table.pivots + (v_chosen,), weight_values=_exact_means(slabs, q, table.level))
    vars(out).update(types=types, free_cols=types.free_cols)  # the cached layout, built once per level
    return out


def _edge_route(params: GraphParams, level: int, degree: int, count: int) -> bool:
    """Whether level ``level`` of degree ``degree``, ``count`` types if typed,
    is built from its edges: both q^m and V_q(n - level, d - 1) at most
    ``count``, m = degree / (q - 1).  Bit lengths are compared first, so q^m
    is formed only when it is small."""
    q, free, radius = params.q, params.n - level, params.d - 1
    m = degree // (q - 1)
    if m * (q.bit_length() - 1) >= count.bit_length() or q**m > count:
        return False
    return sum(comb(free, i) * (q - 1) ** i for i in range(min(radius, free) + 1)) <= count


def _low_weight_words(params: GraphParams, pivots: tuple[FqVector, ...]) -> tuple[tuple[int, ...], ...]:
    """The monic words of weight 1..d-1 orthogonal to every pivot, sorted.

    A word is fixed by its free digits (its pivot-column digits are a linear
    image of them, the kernel basis of the pivots' RREF), and its free
    weight is at most its weight.  So the free digit patterns of weight
    1..d-1 whose first nonzero digit is 1, one per class of nonzero
    multiples, are summed as packed words (``modq``, "Row format"), and the
    words of weight at most d-1 are kept, each scaled to be monic.
    """
    q, n, d = params.q, params.n, params.d
    slots = _Slots(q, n)
    basis = kernel_basis(*rref([slots.pack(p.digits) for p in pivots], slots), slots)
    high, bias, shift = slots.high, slots.bias, slots.w - 1
    # Per free column, its multiples 1..q-1 as (m, m + bias): x + m reduces
    # to x + m - (((x + m + bias) & high) >> shift) * q.
    multiples = [[(m, m + bias) for m in slots.multiples(vec)] for vec in basis]
    # (word, index of the next free column it may extend by), by free weight.
    frontier = [(mult[0][0], j + 1) for j, mult in enumerate(multiples)]
    found: list[int] = []
    for weight in range(1, d):
        found += [word for word, _ in frontier]
        if weight < d - 1:
            frontier = [
                (word + m - (((word + mb) & high) >> shift) * q, j + 1)
                for word, start in frontier
                for j in range(start, len(multiples))
                for m, mb in multiples[j]
            ]
    words = []
    for word, weight in zip(found, slots.weights(found)):
        if weight < d:
            digits = slots.unpack(word)
            inv = pow(next(filter(None, digits)), -1, q)
            words.append(digits if inv == 1 else tuple(inv * x % q for x in digits))
    return tuple(sorted(words))


def _descend_edges(table: SpectrumTable, v_chosen: FqVector) -> SpectrumTable:
    """The next level from its edges: the words of ``table`` orthogonal to
    the pivot, or, from a typed table, every low-weight word."""
    _check_pivot(table, v_chosen)
    pivots, q = table.pivots + (v_chosen,), table.params.q
    if table.edges is None:
        edges = _low_weight_words(table.params, pivots)
    else:
        edges = tuple(c for c in table.edges if sum(map(mul, c, v_chosen.digits)) % q == 0)
    return edge_level(table.params, pivots, edges)


def descend(params: GraphParams, budget: int | None = None) -> Iterator[tuple[SpectrumTable, LevelRecord | None]]:
    """Algorithm 1 one level at a time: yield ``(table, record)`` for t = 0..s.

    ``record`` is None at the final, edgeless level s.  Level t+1 is computed
    only when the caller asks for it.
    """
    q, n = params.q, params.n
    _check_dense(params, 0, budget)
    start = perf_counter()
    table = build_spectrum_level0(params)
    degree = params.degree
    minima: list[int] = []
    while True:
        t = table.level
        if table.degree != degree:
            raise RuntimeError(
                f"level {t}: zero-character eigenvalue {table.degree} "
                f"disagrees with the degree recursion value {degree}"
            )
        value, kind = table.min_value, table.kind
        held = table.edges if kind == "edges" else table.weight_values
        log.debug(
            "level %d: %s, %d %s, lambda_min %d, degree %d, %.6f s",
            t, kind, len(held), "monic edges" if kind == "edges" else "entries", value, degree, perf_counter() - start,
        )
        if value == 0:
            if degree != 0:
                raise RuntimeError(f"level {t}: minimum eigenvalue 0 but degree {degree} != 0")
            yield table, None
            return
        pivot = select_pivot(table)
        orthogonal = all(pivot.dot(prev) == 0 for prev in table.pivots)
        minima.append(value)
        yield table, LevelRecord(
            t=t,
            pivot=pivot,
            lambda_min=value,
            degree=degree,
            bound=descent_bound(params, minima),
            pivot_orthogonal=orthogonal,
        )
        start = perf_counter()
        total = degree + (q - 1) * value
        degree, rem = divmod(total, q)
        if rem:
            raise DivisibilityError(f"level {t}: degree recursion value {total} not divisible by {q}")
        if kind == "typed":
            classes = _split(table.types.classes, pivot)
            if _edge_route(params, t + 1, degree, _type_count(q, classes)):
                table = _descend_edges(table, pivot)
            else:
                table = _descend_types(table, pivot, _Types(q, classes))
        else:
            table = _descend_edges(table, pivot)
        if table.level > n:
            raise RuntimeError("descent failed to terminate within n levels")


def run_algorithm1(params: GraphParams, budget: int | None = None) -> DescentTrace:
    """Descend from the full Gilbert graph until the level graph is edgeless.

    Returns the complete trace: pivots (the parity-check rows), minimum
    eigenvalues, degrees, and the improved lower bound after each level.
    Deterministic: identical parameters produce identical traces.
    """
    records: list[LevelRecord] = []
    for table, record in descend(params, budget):
        if record is not None:
            records.append(record)
    return DescentTrace(params=params, levels=tuple(records), s=table.level, final_degree=table.degree)

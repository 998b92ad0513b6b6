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

Each level is built from the one above by ``SpectrumTable.next_level``:
typed levels first, then edge levels (``spectrum``, "Types" and "Edge
levels").  The budget is checked against q^n before level 0, the number
of its indices.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter
from typing import Iterator

from .bounds import descent_bound
from .combinat import GraphParams
from .errors import DivisibilityError, check_budget
from .spectrum import SpectrumTable, build_spectrum_level0
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


@dataclass(frozen=True)
class DescentTrace:
    """Full history of a descent run down to the edgeless level s."""

    params: GraphParams
    levels: tuple[LevelRecord, ...]
    s: int

    @property
    def parity_rows(self) -> tuple[FqVector, ...]:
        return tuple(rec.pivot for rec in self.levels)

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


def descend(params: GraphParams, budget: int | None = None) -> Iterator[tuple[SpectrumTable, LevelRecord | None]]:
    """Algorithm 1 one level at a time: yield ``(table, record)`` for t = 0..s.

    ``record`` is None at the final, edgeless level s.  Level t+1 is computed
    only when the caller asks for it.
    """
    q, n = params.q, params.n
    check_budget(q, n, budget, f"dense level-0 spectrum of G_({q},{n},{params.d})")
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
        value = table.min_value
        if log.isEnabledFor(logging.DEBUG):
            kind = table.kind
            held = table.edges if kind == "edges" else table.weight_values
            log.debug(
                "level %d: %s, %d %s, lambda_min %d, degree %d, %.6f s",
                t, kind, len(held), "edges" if kind == "edges" else "entries", value, degree, perf_counter() - start,
            )
        if value == 0:
            if degree != 0:
                raise RuntimeError(f"level {t}: minimum eigenvalue 0 but degree {degree} != 0")
            yield table, None
            return
        pivot = select_pivot(table)
        minima.append(value)
        yield table, LevelRecord(t=t, pivot=pivot, lambda_min=value, degree=degree, bound=descent_bound(params, minima))
        start = perf_counter()
        total = degree + (q - 1) * value
        degree, rem = divmod(total, q)
        if rem:
            raise DivisibilityError(f"level {t}: degree recursion value {total} not divisible by {q}")
        table = table.next_level(pivot, degree)
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
    return DescentTrace(params=params, levels=tuple(records), s=table.level)

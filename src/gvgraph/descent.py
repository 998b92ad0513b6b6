"""Spectral descent: iterated quotient spectra and the resulting parity rows.

Starting from the dense level-0 spectrum, each step picks the smallest
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

Averaging without vector arithmetic
-----------------------------------
Let the previous level have m free columns and let the pivot's leading
column sit at position ``pos`` among them (its earlier free digits are all
zero, since the pivot is a canonical representative).  Writing a previous
index as (hi, r, lo) -- hi the digits before pos, r the digit at pos, lo the
digits after -- the q parents of a new entry (hi, lo) are

    parent_r = hi * q^(m-pos)  +  r * q^(m-1-pos)  +  perm_r(lo),

where perm_r adds r times the pivot's trailing digits to lo.  For q = 2 the
permutation is a constant XOR mask, which keeps the whole run fast enough
to descend a million-entry table in seconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .combinat import GraphParams, ball_volume
from .errors import DivisibilityError
from .spectrum import SpectrumTable, build_spectrum_level0
from .vectors import FqVector

__all__ = ["DescentTrace", "LevelRecord", "descend", "run_algorithm1", "select_pivot", "spectrum_descend"]


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


def spectrum_descend(table: SpectrumTable, v_chosen: FqVector) -> SpectrumTable:
    """Spectrum of the next level graph, averaging over the pivot's multiples.

    ``v_chosen`` must be a canonical representative attaining the table's
    minimum eigenvalue.  Every new entry is the exact mean of its q parent
    entries; a nonzero remainder raises DivisibilityError.
    """
    if not table.is_dense:
        table = table.densify()
    params = table.params
    q, n = params.q, params.n
    if v_chosen.q != q or v_chosen.n != n:
        raise ValueError("pivot parameters do not match the table")
    if v_chosen.is_zero:
        raise ValueError("pivot must be nonzero")
    if any(v_chosen.digits[c] for c in table.pivot_cols):
        raise ValueError("pivot must be a canonical representative (zero at pivot columns)")
    min_val, _ = table.min_eigenvalue()
    if table.eigenvalue_of(v_chosen) != min_val:
        raise ValueError(
            f"pivot eigenvalue {table.eigenvalue_of(v_chosen)} is not the "
            f"level minimum {min_val}"
        )

    free = table.free_cols
    m = len(free)
    lead_col = next(c for c in free if v_chosen.digits[c])
    pos = free.index(lead_col)
    # Monic copy of the pivot for row-reduction bookkeeping (the recorded
    # pivot itself is returned untouched by the caller).
    inv = pow(v_chosen.digits[lead_col], -1, q)
    row = tuple((inv * x) % q for x in v_chosen.digits)

    tail_cols = free[pos + 1 :]
    k = len(tail_cols)
    low_count = q**k
    stride = q * low_count
    high_count = q**pos
    vals = table.values
    assert vals is not None
    out = [0] * (high_count * low_count)

    if q == 2:
        mask = 0
        for c in tail_cols:
            mask = (mask << 1) | row[c]
        idx = 0
        for hi in range(high_count):
            b0 = hi * stride
            b1 = b0 + low_count
            for lo in range(low_count):
                s = vals[b0 + lo] + vals[b1 + (lo ^ mask)]
                if s & 1:
                    raise DivisibilityError(
                        f"level {table.level}: eigenvalue sum {s} is not divisible by 2"
                    )
                out[idx] = s >> 1
                idx += 1
    else:
        tail = [row[c] for c in tail_cols]
        perms = []
        for r in range(1, q):
            add = [(r * x) % q for x in tail]
            perm = [0] * low_count
            digits = [0] * k
            for lo in range(low_count):
                enc = 0
                for i in range(k):
                    enc = enc * q + (digits[i] + add[i]) % q
                perm[lo] = enc
                for i in range(k - 1, -1, -1):
                    digits[i] += 1
                    if digits[i] < q:
                        break
                    digits[i] = 0
            perms.append(perm)
        idx = 0
        for hi in range(high_count):
            base = hi * stride
            for lo in range(low_count):
                s = vals[base + lo]
                for r in range(1, q):
                    s += vals[base + r * low_count + perms[r - 1][lo]]
                div, rem = divmod(s, q)
                if rem:
                    raise DivisibilityError(
                        f"level {table.level}: eigenvalue sum {s} is not divisible by {q}"
                    )
                out[idx] = div
                idx += 1

    # Extend the reduced basis: clear the new pivot column from older rows.
    new_rows = []
    for old in table.rref_rows:
        c = old[lead_col]
        if c:
            old = tuple((a - c * b) % q for a, b in zip(old, row))
        new_rows.append(old)
    new_rows.append(row)
    cols = list(table.pivot_cols) + [lead_col]
    order = sorted(range(len(cols)), key=cols.__getitem__)

    return SpectrumTable(
        params=params,
        level=table.level + 1,
        pivots=table.pivots + (v_chosen,),
        rref_rows=tuple(new_rows[i] for i in order),
        pivot_cols=tuple(cols[i] for i in order),
        free_cols=tuple(c for c in free if c != lead_col),
        values=tuple(out),
    )


def descend(params: GraphParams, budget: int | None = None) -> Iterator[tuple[SpectrumTable, LevelRecord | None]]:
    """Algorithm 1 one level at a time: yield ``(table, record)`` for t = 0..s.

    ``record`` is None at the final, edgeless level s.  Level t+1 is computed
    only when the caller asks for it.
    """
    q, n = params.q, params.n
    table = build_spectrum_level0(params, dense=True, budget=budget)
    volume = ball_volume(params, params.d - 1)
    degree = volume - 1
    denom = volume
    size = q**n
    while True:
        t = table.level
        if table.degree != degree:
            raise RuntimeError(
                f"level {t}: averaged zero-character eigenvalue {table.degree} "
                f"disagrees with the degree recursion value {degree}"
            )
        value, _ = table.min_eigenvalue()
        if value == 0:
            if degree != 0:
                raise RuntimeError(f"level {t}: minimum eigenvalue 0 but degree {degree} != 0")
            yield table, None
            return
        pivot = select_pivot(table)
        orthogonal = all(pivot.dot(prev) == 0 for prev in table.pivots)
        denom += (q - 1) * q**t * value
        bound = Fraction(size, denom + q ** (t + 1))
        yield table, LevelRecord(
            t=t,
            pivot=pivot,
            lambda_min=value,
            degree=degree,
            bound=bound,
            pivot_orthogonal=orthogonal,
        )
        table = spectrum_descend(table, pivot)
        total = degree + (q - 1) * value
        degree, rem = divmod(total, q)
        if rem:
            raise DivisibilityError(f"level {t}: degree recursion value {total} not divisible by {q}")
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

"""Exact spectra of Gilbert graphs and of their descent-level quotients.

A Gilbert graph is a Cayley graph on (F_q^n, +) whose difference set is the
punctured Hamming ball {u : 1 <= w(u) <= d-1}, so its eigenvectors are the
q^n additive characters u -> z^<u,v> (z a primitive q-th root of unity) and
the eigenvalue attached to the character indexed by v is the character sum
over the difference set.  That sum is a real integer and depends only on
w(v): it equals K_{d-1}(w(v)-1; n-1, q) - 1 for w(v) != 0 and the regular
degree V_q(n, d-1) - 1 for v = 0.

Index-space conventions
-----------------------
At descent level t the character indices live in the quotient of F_q^n by
the span of the t chosen pivots, and a level is named by its pivots alone.
A pivot column is a pivot's leading (first nonzero) column.  Each pivot is
canonical when chosen, so it is zero at every earlier pivot column, and the
t pivot columns are distinct.  Each coset is named by its canonical
representative: the unique member that is zero at every pivot column, which
is also the base-q smallest member (digit 1 most significant).  The other
n - t columns are the free columns.  A dense table stores one exact integer
per canonical representative, ordered by the base-q number formed by the
free digits; that ordering agrees with lexicographic order on the vectors,
so "first index attaining the minimum" is exactly the smallest argmin
vector.

Level-0 tables are stored compressed by weight (n + 1 entries, each with
multiplicity C(n,w)(q-1)^w) and are expanded to a dense q^n table only when
a descent run needs per-vector values.

All tables are logically immutable and safe to share across threads; every
function here is pure.  A table's argmin is computed on first use and kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import Iterable, Iterator, Sequence

from .combinat import GraphParams, ball_volume, binomial, krawtchouk
from .errors import check_budget
from .vectors import FqVector

__all__ = [
    "RealEigenvector",
    "SpectrumTable",
    "build_spectrum_level0",
    "eigenvalue_level0",
    "real_eigenvector",
]


# Dense level-0 weights are stored one per byte, and w -> w + 1 is a
# translation table; densify refuses n > _MAX_WEIGHT, so no weight wraps.
_MAX_WEIGHT = 255
_PLUS_ONE = bytes(range(1, _MAX_WEIGHT + 1)) + bytes([_MAX_WEIGHT])


def _first_argmin(vals: Sequence[int]) -> int:
    """First position of the least entry of ``vals`` after position 0."""
    return vals.index(min(islice(vals, 1, None)), 1)


def eigenvalue_level0(params: GraphParams, weight: int) -> int:
    """Eigenvalue of any weight-``weight`` character index at level 0."""
    if not 0 <= weight <= params.n:
        raise ValueError(f"weight must lie in [0, n], got {weight} with n={params.n}")
    if weight == 0:
        return ball_volume(params, params.d - 1) - 1
    return krawtchouk(params.d - 1, weight - 1, params.n - 1, params.q) - 1


def _lead_col(v: FqVector) -> int:
    """Column of the first nonzero digit of ``v``."""
    return next(c for c, x in enumerate(v.digits) if x)


def _check_densifiable(params: GraphParams, budget: int | None) -> None:
    """Refuse a dense level-0 table over the budget or beyond one byte per weight."""
    q, n = params.q, params.n
    check_budget(q, n, budget, f"dense level-0 spectrum of G_({q},{n},{params.d})")
    if n > _MAX_WEIGHT:
        raise ValueError(f"dense weights are stored one byte each; n = {n} exceeds {_MAX_WEIGHT}")


@dataclass(frozen=True)
class SpectrumTable:
    """Exact integer eigenvalues of a descent-level graph, indexed by characters.

    The level is named by its ``pivots``.  Either ``weight_values`` (level 0,
    compressed by weight) or ``values`` (dense, one entry per canonical coset
    representative) is set.
    """

    params: GraphParams
    pivots: tuple[FqVector, ...] = ()
    values: tuple[int, ...] | None = None
    weight_values: tuple[int, ...] | None = None

    @property
    def level(self) -> int:
        return len(self.pivots)

    @cached_property
    def free_cols(self) -> tuple[int, ...]:
        """Every column but the pivot columns, in increasing order."""
        pivot_cols = set(map(_lead_col, self.pivots))
        return tuple(c for c in range(self.params.n) if c not in pivot_cols)

    @property
    def size(self) -> int:
        return self.params.q ** (self.params.n - self.level)

    @property
    def degree(self) -> int:
        """Eigenvalue of the zero character: the regular degree of the level graph."""
        if self.values is not None:
            return self.values[0]
        assert self.weight_values is not None
        return self.weight_values[0]

    def multiplicity_for_weight(self, weight: int) -> int:
        """Number of weight-``weight`` character indices: C(n,w)(q-1)^w."""
        q, n = self.params.q, self.params.n
        return binomial(n, weight) * (q - 1) ** weight

    def vector_at(self, index: int) -> FqVector:
        """Canonical representative at a dense-table position."""
        if not 0 <= index < self.size:
            raise ValueError(f"index {index} out of range for table of size {self.size}")
        q, n = self.params.q, self.params.n
        digits = [0] * n
        for col in reversed(self.free_cols):
            index, digits[col] = divmod(index, q)
        return FqVector(q, tuple(digits))

    def index_of(self, v: FqVector) -> int:
        """Dense-table position of a canonical representative: its free digits, base q."""
        q = self.params.q
        if v.q != q or v.n != self.params.n:
            raise ValueError("vector parameters do not match the table")
        if any(v.digits[_lead_col(p)] for p in self.pivots):
            raise ValueError(f"{v} is not a canonical representative (nonzero at a pivot column)")
        idx = 0
        for col in self.free_cols:
            idx = idx * q + v.digits[col]
        return idx

    def min_eigenvalue(self) -> tuple[int, FqVector]:
        """Minimum eigenvalue and its smallest attaining index.

        Ties break to the base-q smallest vector, digit 1 most significant.
        The zero index (whose eigenvalue is the degree, the maximum) is
        excluded from the argmin unless it is the only index.
        """
        return self._minimum

    @cached_property
    def _minimum(self) -> tuple[int, FqVector]:
        q, n = self.params.q, self.params.n
        if self.values is not None:
            if self.size == 1:
                return self.values[0], FqVector.zero(q, n)
            arg = _first_argmin(self.values)
            return self.values[arg], self.vector_at(arg)
        assert self.weight_values is not None
        best_w = _first_argmin(self.weight_values)
        argmin = FqVector(q, (0,) * (n - best_w) + (1,) * best_w)
        return self.weight_values[best_w], argmin

    def entries(self) -> Iterator[tuple[FqVector, int]]:
        """(canonical representative, eigenvalue) pairs in index order."""
        if self.values is None:
            raise ValueError("entries() requires a dense table; call densify() first")
        for i, lam in enumerate(self.values):
            yield self.vector_at(i), lam

    def weight_rows(self) -> Iterator[tuple[int, int, int]]:
        """(weight, eigenvalue, multiplicity) rows of a compressed level-0 table."""
        if self.weight_values is None:
            raise ValueError("weight_rows() requires a compressed level-0 table")
        for w, lam in enumerate(self.weight_values):
            yield w, lam, self.multiplicity_for_weight(w)

    def densify(self, budget: int | None = None) -> "SpectrumTable":
        """Expand a compressed level-0 table to one entry per vector."""
        if self.values is not None:
            return self
        assert self.weight_values is not None
        params = self.params
        q, n = params.q, params.n
        _check_densifiable(params, budget)
        # Weight of every index, one leading digit at a time: prefixing digit
        # 0 keeps the weights, each of the q-1 nonzero digits adds 1.
        weights = b"\0"
        for _ in range(n):
            weights += weights.translate(_PLUS_ONE) * (q - 1)
        return SpectrumTable(
            params=params,
            # list.__getitem__ is a direct method, tuple's a slower slot wrapper.
            values=tuple(map(list(self.weight_values).__getitem__, weights)),
        )


def build_spectrum_level0(
    params: GraphParams, dense: bool = False, budget: int | None = None
) -> SpectrumTable:
    """Level-0 spectrum, compressed by weight unless ``dense`` is requested.

    A dense request is checked against the budget before the closed form is
    computed, so a refusal costs nothing at any n.
    """
    if dense:
        _check_densifiable(params, budget)
    table = SpectrumTable(
        params=params,
        weight_values=tuple(eigenvalue_level0(params, w) for w in range(params.n + 1)),
    )
    return table.densify(budget) if dense else table


@dataclass(frozen=True)
class RealEigenvector:
    """Real-valued eigenvector supported on two entry values, q-1 and -1.

    The entry at vertex u is q-1 when <u, 1_A> = 0 and -1 otherwise, where
    1_A is the indicator vector of the (1-based) support set A.  This is the
    sum of the q-1 character eigenvectors indexed by the nonzero multiples
    of 1_A, hence an eigenvector whose eigenvalue is the common level-0
    eigenvalue of weight |A|; its entries sum to zero and its squared norm
    is q^n (q-1).
    """

    params: GraphParams
    support: frozenset[int]
    eigenvalue: int

    @property
    def indicator(self) -> FqVector:
        digits = [0] * self.params.n
        for i in self.support:
            digits[i - 1] = 1
        return FqVector(self.params.q, tuple(digits))

    def entry(self, u: FqVector) -> int:
        return self.params.q - 1 if u.dot(self.indicator) == 0 else -1

    def dense_entries(self, budget: int | None = None) -> list[int]:
        params = self.params
        check_budget(params.q, params.n, budget, "dense real eigenvector")
        ind = self.indicator
        q = params.q
        return [q - 1 if u.dot(ind) == 0 else -1 for u in FqVector.enumerate_all(q, params.n)]

    @property
    def norm_squared(self) -> int:
        q, n = self.params.q, self.params.n
        return q**n * (q - 1)


def real_eigenvector(params: GraphParams, support: Iterable[int]) -> RealEigenvector:
    """The two-valued real eigenvector attached to a nonempty support set."""
    a = frozenset(support)
    if not a:
        raise ValueError("support set must be nonempty")
    if not all(1 <= i <= params.n for i in a):
        raise ValueError(f"support positions must lie in 1..{params.n}")
    return RealEigenvector(params, a, eigenvalue_level0(params, len(a)))

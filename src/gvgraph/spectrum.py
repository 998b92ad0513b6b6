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
n - t columns are the free columns.  A representative's dense index is the
base-q number formed by its free digits; that ordering agrees with
lexicographic order on the vectors, so "first index attaining the minimum"
is exactly the smallest argmin vector.  A level is held typed or as edges,
never one value per index: ``values``, one exact integer per dense index,
is only the expansion ``densify`` adds for ``entries`` to print a level.

Types
-----
A typed table (``weight_values``) stores one integer per *type* instead.
The free columns fall into classes by their column vector over the t
pivots; every u in the pivots' span is constant on each class.  The type of
a representative v is its digit histogram on each class, except that the
class whose column vector is zero keeps only v's weight there.  A level-t
eigenvalue is the mean of level-0 eigenvalues lam_0(w(v + u)) over the span,
and w(v + u) depends on v only through its type, so one value per type
describes the whole level.  At level 0 the one class is every column and a
type is a weight: ``weight_values`` then has n + 1 entries, one per weight.

A type's code is additive in digit counts: each class owns one mixed-radix
slot per nonzero digit (one slot in all for the zero class), a slot counts
the columns of its class holding that digit, and the code is the sum of the
slot counts times their radices.  A column with digit b therefore adds a
fixed amount to the code, so every map between indices and codes is an
outer sum of short per-column or per-class lists, kept as its two halves
(``_outer_halves``): entry i is outer[i // len(inner)] + inner[i % len(inner)],
so one entry is read without the whole list.  Only histograms whose
counts fit their class are types; ``weight_values`` lists the types in
increasing code order.  A type's position in that list is gap-free: per
class, the rank of its histogram in ``_histograms`` (``_ranks``), combined
mixed-radix with each class's histogram count, and ``value_of`` reads
``weight_values`` there.  The code -> value lookup (``_by_code``: the
values themselves when every code below the type count is a type, else a
dict, the codes being gapped, which happens only for q > 2) is built only
where whole maps are read: ``densify`` indexes it with the code of every
dense index, ``next_level`` with the parent code of every next-level type.
The smallest vector of a type fills each class's columns with the class's
digits in increasing order, so its dense index is a sum of one term per
class, read at the class's histogram rank.  The least indices of all types,
in type order, are thus an outer sum of one list per class, and each tied
type's is read from its two halves (``least_index``).

A level's layout is four fields, built once with the level: its pivot
columns, its free columns and, when typed, its types (classes and type
count), or, on edges, its pattern columns.  ``build_spectrum_level0``
builds level 0's (no pivot column, and the one class of every column);
``next_level`` and ``edge_level`` build each next level's from the level
above, the one new pivot column being the pivot's leading column, found
once.  ``dataclasses.replace`` (so ``densify``) keeps the layout, so no
level derives it from its pivots or counts its types twice.  The types
hold no copy of the free columns: the table passes its own to the two
type methods that walk the dense order (``dense_codes``, ``least_index``).

``next_level`` first checks the pivot: nonzero, canonical (zero at every
pivot column) and at the level minimum, its value read by type position,
so a typed level that hands off to edge levels (below) builds no code ->
value lookup.  The q parents v + r * pivot of a next-level type v are
types of this level: each next-level class sits inside one class here,
shifted by r times the pivot's digit there, while the pivot column holds
r times the pivot's leading digit.  So the next level's classes are these split by the
pivot's digit (``_split``), and the parent codes of its types are, per r,
an outer sum of short per-class lists, kept as its two halves
(``_parent_codes``).  Adding r * a to every digit of a class, a the
pivot's digit there, moves each of its histograms to another, so its list
for r is its histograms' codes in the parent class, read through one
cached permutation (``_rotations``).  Parent values are read through the code -> value
lookup straight from those halves (one addition and one lookup per parent;
no list of parent codes is built).  The q pairs of halves share one split,
so the sums are taken a block of outer entries at a time (``_means``): one
comprehension over the zipped outer halves and the zipped inner halves sums
each type's parents 0 and 1, and each further parent's values for the block
are added with ``map(operator.add, ...)``.  No parent slab and no list of
every sum is ever held, for any q.  Each sum is looked up in a
dict of exact quotients (``_Quotients``): a sum is divided, with ``divmod``,
the first time it occurs, and a nonzero remainder raises DivisibilityError
naming that sum, the first offending one in type order.  Every later
occurrence reuses the stored quotient, so a level holds one int object per
distinct eigenvalue (a few dozen) instead of one per type.

Edge levels
-----------
Level t is the Cayley graph on C_t = {x : <x, p_i> = 0 for every pivot},
with connection set S_t, the words of C_t of weight 1..d-1, so |S_t| is
the level degree D_t.  An edge table (``edges``) keeps E, one word of each
class {a c : a in F_q^*} of S_t, so m = D_t / (q-1) words, in the order
the low-weight word search finds them (below).  Since the sum of z^(a x)
over a in F_q^* is q - 1 for x = 0 and -1 otherwise,

    lam(v) = q * Z(v) - m,    Z(v) = #{c in E : <c, v> = 0},

so a level with few edges is known from E alone, and no value depends on
the order of E or on which multiple of a class it holds.  Z depends on v
only through its pattern y = (<c, v>)_c, the combination of the columns of
E weighted by v's digits.  The free columns whose column of E is not in
the span of the free columns to their right are the pattern columns: the
column rank profile, read as the lead columns of E's rows on the free
columns, right to left, after forward elimination
(``modq.forward_eliminate``).  There are r = rank E of them, and each of
the q^r patterns is the combination of exactly one digit choice on them.  The
vectors zero off the pattern columns are then the least members of their
classes {v : E v = y}: a column outside them is a combination of columns to
its right, so the least vector of a class is zero there.  They are ordered
as their digits on the pattern columns, so with the patterns listed in
that order (first pattern column most significant), the first pattern
attaining the minimum gives the least dense index attaining it.  An edge
table's ``weight_values`` holds the q^r pattern values in that order, one
value object per weight of y: the degree (q-1) * m first, at y = 0.  Each
y is a packed m-digit word (``modq``, "Row format"), and Z is m less the
weight of y.  ``_edge_values`` builds both tables: it packs E's columns at
the columns it is given, right to left, and weighs their span in that
order (``modq._span_weights``).  At the pattern columns that span is the
patterns in pattern order (``edge_level``); at every free column it is
the dense order (``densify``).  ``value_of`` counts Z word by word.

On an edge level ``next_level`` keeps the words orthogonal to the pivot:
E_{t+1} = {c in E_t : <c, p_{t+1}> = 0}.  A typed level t hands off when
V_q(n-t-1, d-1) <= count and q^r <= count, with count the type count of
level t+1 and r the rank of its words (``_edge_route``).  The route is
decided from the split classes and their type count, before any types are
built.  Level t+1's words are searched for among its V_q(n-t-1, d-1)
free-digit patterns of weight below d (``_low_weight_words``), each class
once, as its member whose first nonzero free digit is 1, and their pattern
columns are found (``_pattern_cols``).  The search runs when q^m <= count,
with m from the recursion degree, so r <= m makes the handoff sure; past
that, only when V is a small share of count and m is not far past count's
bit length, so that a search the rank then refuses is rare.  The words and
pattern columns found are handed to ``edge_level``, and the q^r <= count
patterns replace an average over count types.  Every later level is an
edge level, which finds its own pattern columns.  The descent checks
(q-1) * |E_t| against the recursion degree, as it checks a typed level's
zero-character value, and the pivot check counts the pivot's Z word by
word (``value_of``), which must give the pattern minimum.

The minimum comes first.  A typed level built by ``next_level`` is built
with it: the dict of exact quotients holds each distinct value of the level
once, the degree (the largest eigenvalue) among them, so the least of them
is the minimum over the nonzero types, and no entry is scanned for it.  On
level 0, on an edge level and on a ``dataclasses.replace`` copy,
``min_value`` is one C-level ``min`` over the entries after the zero index.
The argmin (``min_eigenvalue``) is derived
from that value only when asked for.  On a typed level the nonzero types
holding it are found in one pass of ``tuple.index`` calls, and the least
dense index among them is read from their positions alone.  On an edge
level it is the vector of the first pattern holding it.

All tables are logically immutable and safe to share across threads; every
function here is pure.  A table's minimum and argmin are computed on first
use and kept, with no lock (``combinat._cached``): a race computes the same
value twice.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field, replace
from functools import cache
from itertools import accumulate, chain, islice, repeat
from math import comb
from operator import add, mul
from typing import Iterable, Iterator, Sequence

from .combinat import GraphParams, _cached, krawtchouk_row
from .errors import DivisibilityError, check_budget
from .modq import _monic_combinations, _Slots, _span_weights, back_substitute, forward_eliminate, kernel_basis
from .vectors import FqVector

__all__ = ["SpectrumTable", "build_spectrum_level0"]


def _lead_col(v: FqVector) -> int:
    """Column of the first nonzero digit of ``v``."""
    return v.digits.index(next(filter(None, v.digits)))


def _vector_at(params: GraphParams, cols: Sequence[int], index: int) -> FqVector:
    """The vector holding ``index``'s base-q digits at ``cols`` (the last one
    least significant) and 0 elsewhere."""
    q, digits = params.q, [0] * params.n
    for col in reversed(cols):
        if not index:  # every digit left is 0
            break
        index, digits[col] = divmod(index, q)
    return FqVector(q, tuple(digits))


# Least size of _outer_sum's inner list: 16 to 256 timed the same on the
# descent's index maps, 1024 was slower.
_INNER = 64


def _outer_halves(parts: Sequence[Sequence[int]], start: int = 0) -> tuple[Sequence[int], list[int]]:
    """Halves (outer, inner) of ``_outer_sum(parts, start)``: its entry i is
    ``outer[i // len(inner)] + inner[i % len(inner)]``.

    The last parts are summed first into the inner list, of at least
    ``_INNER`` entries (or all of them), the rest into the outer list, which
    is ``[0]`` when the inner list took every part.
    """
    inner, k = [start], len(parts)
    while k and len(inner) < _INNER:
        k -= 1
        inner = [x + t for x in parts[k] for t in inner]
    if not k:
        return [0], inner
    outer = parts[0]
    for part in parts[1:k]:
        outer = [o + x for o in outer for x in part]
    return outer, inner


def _outer_sum(parts: Sequence[Sequence[int]], start: int = 0) -> list[int]:
    """``start + x_0 + ... + x_k`` for every choice of x_i in parts[i], parts[0] varying slowest.

    One pass pairs the two ``_outer_halves``, so each output entry costs one
    addition.
    """
    outer, inner = _outer_halves(parts, start)
    return [o + t for o in outer for t in inner]


@cache
def _histograms(f: int, slots: int) -> tuple[tuple[int, ...], ...]:
    """Slot-count tuples with sum at most ``f``, in increasing order of
    their code (the last slot most significant).

    Cached: every level asks again for the same few (f, slots) pairs, f at
    most n and slots 1 or q - 1.
    """
    out: list[tuple[int, ...]] = [()]
    for _ in range(slots):
        out = [(k,) + h for h in out for k in range(f - sum(h) + 1)]
    return tuple(out)


@cache
def _ranks(f: int, slots: int) -> dict[tuple[int, ...], int]:
    """Each histogram of ``_histograms(f, slots)`` -> its position there."""
    return {h: i for i, h in enumerate(_histograms(f, slots))}


@cache
def _rotations(f: int, q: int) -> tuple[tuple[int, ...], ...]:
    """Per shift c mod q, the position in ``_histograms(f, q - 1)`` of each
    one's rotation by c: c added to each of f columns' digits, so the count
    of digit b moves to digit b + c (the f - sum(h) zeros to digit c)."""
    ranks = _ranks(f, q - 1)
    counts = [(f - sum(h),) + h for h in _histograms(f, q - 1)]  # per digit, 0 first
    return tuple(tuple(ranks[(full[q - c :] + full[: q - c])[1:]] for full in counts) for c in range(q))


@cache
def _slot_columns(f: int, slots: int) -> tuple[tuple[int, ...], ...]:
    """Per slot, its count in every histogram of ``_histograms(f, slots)``, in that order."""
    return tuple(zip(*_histograms(f, slots)))


@cache
def _tail_columns(f: int, slots: int) -> tuple[tuple[int, ...], ...]:
    """Per slot s, the count T_s of digits >= s in every histogram of
    ``_histograms(f, slots)``, in that order: the ``_slot_columns`` summed
    from the last slot down."""
    tails = accumulate(reversed(_slot_columns(f, slots)), lambda tail, column: tuple(map(add, tail, column)))
    return tuple(tails)[::-1]


def _weighted(f: int, weights: Sequence[int]) -> Sequence[int]:
    """``sum(map(mul, h, weights))`` for every histogram h of
    ``_histograms(f, len(weights))``, in that order, the ``weights`` all
    positive: a ``range`` for one slot, else one ``map`` over each slot's
    column of counts."""
    if len(weights) == 1:  # the histograms (0,), (1,), ..., (f,)
        step = weights[0]
        return range(0, step * (f + 1), step)
    columns = _slot_columns(f, len(weights))
    out: Iterable[int] = map(mul, columns[0], repeat(weights[0]))
    for column, weight in zip(columns[1:], weights[1:]):
        out = map(add, out, map(mul, column, repeat(weight)))
    return list(out)


_Classes = list[tuple[tuple[int, ...], list[int]]]


def _split(classes: _Classes, pivot: FqVector, lead: int) -> _Classes:
    """The next level's classes: each class split by the pivot's digit on
    it, less the pivot's leading column ``lead``.  Keys extend the parent
    keys, so the split classes come out in key order."""
    digits = pivot.digits
    out = []
    for key, cols in classes:
        parts: dict[int, list[int]] = {}
        for col in cols:
            if col != lead:
                parts.setdefault(digits[col], []).append(col)
        out += [(key + (a,), parts[a]) for a in sorted(parts)]
    return out


def _type_count(q: int, classes: _Classes) -> int:
    """The number of types: per class, the histograms of its columns over
    its slots (q - 1, one in the zero class)."""
    count = 1
    for key, cols in classes:
        slots = q - 1 if any(key) else 1
        count *= comb(len(cols) + slots, slots)
    return count


class _Types:
    """The type layout of a descent level (see "Types" above).

    ``classes`` holds (column vector over the pivots, columns) pairs sorted
    by column vector, so the zero class comes first; class j's slots are
    less significant than class j+1's.  ``digit_codes[j][b]`` is what one
    column of class j holding digit b adds to a type code.  Level 0 has the
    one class ``((), every column)``; ``_split`` gives each next level's.
    The type count is handed in by the level that builds this one, which
    already holds it; the free columns stay with the table, which passes
    them to the two methods that read them in dense order.
    """

    def __init__(self, q: int, classes: _Classes, count: int) -> None:
        self.q, self.classes, self.count = q, classes, count
        # Per class: the slot radices and the code one column adds per digit;
        # slot s (1-based) counts digit s, or every nonzero digit in the zero class.
        self.radices: list[list[int]] = []
        self.digit_codes: list[list[int]] = []
        radix = 1
        for key, cols in classes:
            base = len(cols) + 1  # a slot counts 0 to len(cols) columns
            if any(key):
                radices = [radix]
                for _ in range(q - 2):
                    radices.append(radices[-1] * base)
                codes = [0, *radices]
            else:
                radices, codes = [radix], [0] + [radix] * (q - 1)
            radix = radices[-1] * base
            self.radices.append(radices)
            self.digit_codes.append(codes)
        # Codes skip the histograms that overfill a class exactly when the
        # code space is larger than the type count.
        self.gapped = radix != self.count

    def codes(self) -> list[int]:
        """Every type's code, in increasing order (for a gapped layout)."""
        parts = [_weighted(len(cols), radices) for radices, (_, cols) in zip(self.radices, self.classes)]
        return _outer_sum(parts[::-1])

    def dense_codes(self, free_cols: Sequence[int]) -> list[int]:
        """Type code of every dense index: an outer sum of one list per free column."""
        code_of = {col: codes for codes, (_, cols) in zip(self.digit_codes, self.classes) for col in cols}
        return _outer_sum([code_of[col] for col in free_cols])

    def position(self, digits: Sequence[int]) -> int:
        """Position in type order of the type of a representative with these
        digits: its histogram ranks in ``_histograms``, one per class,
        combined mixed-radix (class j+1 more significant)."""
        pos, scale = 0, 1
        for radices, (_, cols) in zip(self.radices, self.classes):
            held = [digits[c] for c in cols]
            if len(radices) == 1:  # one slot, counting every nonzero digit: histogram (k,) has rank k
                pos += scale * (len(held) - held.count(0))
                scale *= len(held) + 1
            else:
                ranks = _ranks(len(cols), len(radices))
                pos += scale * ranks[tuple(map(held.count, range(1, self.q)))]
                scale *= len(ranks)
        return pos

    def least_index(self, free_cols: Sequence[int], positions: Iterable[int]) -> int:
        """The least dense index, over ``free_cols``, of the types at ``positions`` (0 if none).

        The smallest vector of a type fills each class's columns with the
        class's digits in increasing order, so its index is a sum of one
        term per class: the sum over s >= 1 of the place values of the
        class's last T_s columns, where T_s counts its digits >= s.  Each
        class lists that term for every one of its histograms, in
        ``_histograms`` order.  A position combines the ranks of its
        classes' histograms mixed-radix, class j+1 more significant, so the
        least indices of all types, in type order, are the outer sum of those
        lists, last class slowest; each position's is read from its two
        halves (``_outer_halves``).
        """
        place, value = {}, 1
        for col in reversed(free_cols):
            place[col], value = value, value * self.q
        terms = []
        for radices, (_, cols) in zip(self.radices, self.classes):
            suffix = list(accumulate(map(place.__getitem__, reversed(cols)), initial=0))
            columns = _tail_columns(len(cols), len(radices))
            term: Iterable[int] = map(suffix.__getitem__, columns[0])
            for column in columns[1:]:
                term = map(add, term, map(suffix.__getitem__, column))
            terms.append(list(term))
        outer, inner = _outer_halves(terms[::-1])
        size = len(inner)
        return min((outer[pos // size] + inner[pos % size] for pos in positions), default=0)


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


# Types per block of parent sums (``_means``): the block's lists, one of
# sums and one per further parent, are the only per-type lists besides the
# output tuple.  2^12 to 2^18 timed the same on (2, 28, 5); 2^18 held 13 MB more.
_BLOCK = 1 << 16


def _means(by: Sequence[int] | dict[int, int], parents: list[tuple[Sequence[int], list[int]]], quot: _Quotients) -> tuple[int, ...]:
    """Each type's q parent values, read through ``by`` at their parent-code
    halves, summed and divided exactly through ``quot``, in type order.  The
    halves share one split (it depends only on the list lengths), so a block
    of outer entries at a time, one comprehension over the zipped outer and
    zipped inner halves sums parents 0 and 1, and each further parent's
    values for the block are added to those sums lazily."""
    (outer0, inner0), (outer1, inner1), *rest = parents
    pairs = list(zip(inner0, inner1))
    step = max(1, _BLOCK // len(pairs))

    def block(k: int) -> Iterator[int]:
        sums: Iterable[int] = [by[a + x] + by[b + y] for a, b in zip(outer0[k : k + step], outer1[k : k + step]) for x, y in pairs]
        for outer, inner in rest:
            sums = map(add, sums, [by[o + i] for o in outer[k : k + step] for i in inner])
        return map(quot.__getitem__, sums)

    return tuple(chain.from_iterable(map(block, range(0, len(outer0), step))))


def _parent_codes(parent: _Types, types: _Types, pivot: FqVector, lead: int) -> list[tuple[Sequence[int], list[int]]]:
    """Per r, the parent type code of ``v + r * pivot`` for every type v of
    the next level, in its type order, as ``_outer_halves``; ``lead`` is the
    pivot's leading column.  A class on which the pivot has digit a lists
    its histograms' codes in the parent class, read at their rotation by
    r * a (``_rotations``; as they are at shift 0)."""
    q = parent.q
    codes_of = {key: codes for codes, (key, _) in zip(parent.digit_codes, parent.classes)}
    lead_codes = next(codes for codes, (_, cols) in zip(parent.digit_codes, parent.classes) if lead in cols)
    parts: list[list[Sequence[int]]] = [[] for _ in range(q)]
    for (key, cols), radices in zip(reversed(types.classes), reversed(types.radices)):
        a, f = key[-1], len(cols)
        codes = _weighted(f, codes_of[key[:-1]][1 : len(radices) + 1])
        for r, part in enumerate(parts):
            shift = r * a % q
            part.append(list(map(codes.__getitem__, _rotations(f, q)[shift])) if shift else codes)
    # v is zero at the pivot column, so v + r * pivot holds r * lead digit there.
    return [_outer_halves(part, lead_codes[r * pivot.digits[lead] % q]) for r, part in enumerate(parts)]


def _check_pivot(table: SpectrumTable, pivot: FqVector) -> None:
    """Refuse a pivot that is zero, not canonical or not at the level minimum."""
    if pivot.is_zero:
        raise ValueError("pivot must be nonzero")
    value = table.value_of(pivot)  # refuses a non-canonical pivot
    if value != table.min_value:
        raise ValueError(f"pivot eigenvalue {value} is not the level minimum {table.min_value}")


# Gate on a handoff's word search when q^m > count (``_edge_route``): the
# search runs when _SPARSE * V <= count and m <= _BITS * count.bit_length(),
# so that the searches whose rank then refuses the handoff stay rare.  Over
# every cell with q^n <= 7 * 10^7 and d >= 2, _BITS = 3 lost (2, 19, 5)'s
# handoff at m / bits = 3.85 and 5 kept 8 more refusals than 4; _SPARSE = 4
# lost (2, 20, 5)'s level 7, where 3 * V = 3,279 of 4,096 types.
_SPARSE = 3
_BITS = 4


def _edge_route(
    params: GraphParams, pivots: tuple[FqVector, ...], free_cols: tuple[int, ...], degree: int, count: int
) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]] | None:
    """The edge words and pattern columns of the level named by ``pivots``,
    of free columns ``free_cols``, degree ``degree`` and ``count`` types if
    typed, when it is built from its edges; else None.

    It is built from edges when q^r <= ``count``, r = rank E.  The words are
    searched for only when V = V_q(n - level, d - 1) <= ``count`` and either
    q^m <= ``count`` (m = degree / (q - 1) >= r, so the handoff is sure) or
    both ``_SPARSE`` * V <= ``count`` and m <= ``_BITS`` * ``count``'s bit
    length.  Bit lengths are compared before q^m is formed or V summed.
    """
    q, free, radius = params.q, params.n - len(pivots), params.d - 1
    m, bits = degree // (q - 1), count.bit_length()
    sure = m * (q.bit_length() - 1) < bits and q**m <= count
    if not sure and m > _BITS * bits:
        return None
    volume = sum(comb(free, i) * (q - 1) ** i for i in range(min(radius, free) + 1))
    if volume > (count if sure else count // _SPARSE):
        return None
    words = _low_weight_words(params, pivots)
    pattern_cols = _pattern_cols(q, words, free_cols)
    if q ** len(pattern_cols) > count:
        return None
    return words, pattern_cols


def _low_weight_words(params: GraphParams, pivots: tuple[FqVector, ...]) -> tuple[tuple[int, ...], ...]:
    """The words of weight 1..d-1 orthogonal to every pivot, one per class
    of nonzero multiples, in the order the frontier finds them.

    A word is fixed by its free digits (its pivot-column digits are a linear
    image of them, the kernel basis of the pivots' RREF), and its free
    weight is at most its weight.  So the free digit patterns of weight
    1..d-1 whose first nonzero digit is 1 are summed as packed words
    (``modq._monic_combinations``), and the words of weight at most d-1 are
    kept.  Each class is found once: its one member whose first kernel-basis
    coefficient is 1.
    """
    q, n, d = params.q, params.n, params.d
    slots = _Slots(q, n)
    echelon = forward_eliminate([slots.pack(p.digits) for p in pivots], slots)
    found = _monic_combinations(slots, kernel_basis(*back_substitute(echelon, slots), slots), d - 1)
    return tuple(slots.unpack(word) for word, weight in zip(found, slots.weights(found)) if weight < d)


@dataclass(frozen=True)
class SpectrumTable:
    """Exact integer eigenvalues of a descent-level graph, indexed by characters.

    The level is named by its ``pivots``.  ``weight_values`` holds one
    entry per type in code order (typed; at level 0 one per weight), or,
    when ``edges`` is set too, one entry per pattern (see "Edge levels"
    above); every query reads these.  ``values`` (one entry per canonical
    coset representative) is set only by ``densify`` and read only by
    ``entries``, to print a level.  ``pivot_cols``, ``free_cols``, ``types``
    (typed) and ``pattern_cols`` (edges) are the layout (see "Types"
    above), passed in by whoever builds the level and left out of
    comparisons; ``types`` reads the free columns from this table, which
    holds the one copy of them.  ``minimum``, when given, is kept as
    ``min_value``; it is no field, so a ``dataclasses.replace`` copy takes
    the minimum of its own values.
    """

    params: GraphParams
    pivots: tuple[FqVector, ...] = ()
    values: tuple[int, ...] | None = None
    weight_values: tuple[int, ...] | None = None
    edges: tuple[tuple[int, ...], ...] | None = None
    pivot_cols: tuple[int, ...] = field(kw_only=True, compare=False, repr=False)
    free_cols: tuple[int, ...] = field(kw_only=True, compare=False, repr=False)
    types: _Types | None = field(default=None, kw_only=True, compare=False, repr=False)
    pattern_cols: tuple[int, ...] | None = field(default=None, kw_only=True, compare=False, repr=False)
    minimum: InitVar[int | None] = field(default=None, kw_only=True)

    def __post_init__(self, minimum: int | None) -> None:
        if minimum is not None:
            self.__dict__["min_value"] = minimum  # read before the _cached scan

    @property
    def level(self) -> int:
        return len(self.pivots)

    @property
    def kind(self) -> str:
        """The representation: "typed" or "edges"."""
        return "typed" if self.edges is None else "edges"

    @property
    def size(self) -> int:
        return self.params.q ** (self.params.n - self.level)

    @property
    def degree(self) -> int:
        """Eigenvalue of the zero character: the regular degree of the level graph."""
        assert self.weight_values is not None
        return self.weight_values[0]

    def vector_at(self, index: int) -> FqVector:
        """Canonical representative at a dense-table position."""
        if not 0 <= index < self.size:
            raise ValueError(f"index {index} out of range for table of size {self.size}")
        return _vector_at(self.params, self.free_cols, index)

    def _canonical_digits(self, v: FqVector) -> tuple[int, ...]:
        """The digits of ``v``, refused unless it is a canonical representative
        here: zero at every pivot column."""
        if v.q != self.params.q or v.n != self.params.n:
            raise ValueError("vector parameters do not match the table")
        if any(map(v.digits.__getitem__, self.pivot_cols)):
            raise ValueError(f"{v} is not a canonical representative (nonzero at a pivot column)")
        return v.digits

    def value_of(self, v: FqVector) -> int:
        """Eigenvalue at a canonical representative.

        On an edge level it is q * Z - m, with Z counted word by word.
        """
        digits = self._canonical_digits(v)
        if self.edges is not None:
            q = self.params.q
            zeros = sum(1 for c in self.edges if sum(map(mul, c, digits)) % q == 0)
            return q * zeros - len(self.edges)
        assert self.weight_values is not None
        return self.weight_values[self.types.position(digits)]

    @_cached
    def _by_code(self) -> tuple[int, ...] | dict[int, int]:
        """Type code -> value of a typed table: a dict if the codes are gapped,
        else the values themselves, each at its code."""
        assert self.weight_values is not None
        return dict(zip(self.types.codes(), self.weight_values)) if self.types.gapped else self.weight_values

    @_cached
    def min_value(self) -> int:
        """Least eigenvalue over the nonzero indices (the degree if none): one
        scan, no argmin, unless the builder handed it in (``minimum``)."""
        vals = self.weight_values
        assert vals is not None
        return min(islice(vals, 1, None), default=vals[0])

    def min_eigenvalue(self) -> tuple[int, FqVector]:
        """Minimum eigenvalue and its smallest attaining index.

        Ties break to the base-q smallest vector, digit 1 most significant.
        The zero index (whose eigenvalue is the degree, the maximum) is
        excluded from the argmin unless it is the only index.
        """
        return self._minimum

    @_cached
    def _minimum(self) -> tuple[int, FqVector]:
        value, vals = self.min_value, self.weight_values
        if self.edges is not None:
            if len(vals) == 1:  # no edge: every value is 0
                return value, self.vector_at(1 if self.size > 1 else 0)
            return value, _vector_at(self.params, self.pattern_cols, vals.index(value, 1))
        # Only the positions after 0 that hold the minimum are visited, in
        # one pass of index() calls that ends when none is left.
        tied, i = [], 0
        try:
            while True:
                i = vals.index(value, i + 1)
                tied.append(i)
        except ValueError:
            pass
        return value, _vector_at(self.params, self.free_cols, self.types.least_index(self.free_cols, tied))

    def entries(self) -> Iterator[tuple[FqVector, int]]:
        """(canonical representative, eigenvalue) pairs in index order."""
        if self.values is None:
            raise ValueError("entries() requires the values that densify() adds")
        for i, lam in enumerate(self.values):
            yield self.vector_at(i), lam

    def weight_rows(self) -> Iterator[tuple[int, int, int]]:
        """(weight, eigenvalue, multiplicity) rows of a typed level-0 table;
        C(n, w) (q-1)^w indices have weight w."""
        if self.weight_values is None or self.level:
            raise ValueError("weight_rows() requires a typed level-0 table")
        q, n = self.params.q, self.params.n
        for w, lam in enumerate(self.weight_values):
            yield w, lam, comb(n, w) * (q - 1) ** w

    def densify(self, budget: int | None = None) -> "SpectrumTable":
        """This table with ``values`` set, one per canonical representative, for ``entries``;
        every query still reads the table's own ``weight_values`` and ``edges``."""
        if self.values is not None:
            return self
        q, n, level = self.params.q, self.params.n, self.level
        check_budget(q, n - level, budget, f"dense level-{level} spectrum of G_({q},{n},{self.params.d})")
        if self.edges is not None:
            values = _edge_values(q, self.edges, self.free_cols)
        else:
            values = tuple(map(self._by_code.__getitem__, self.types.dense_codes(self.free_cols)))
        return replace(self, values=values)

    def next_level(self, pivot: FqVector, degree: int) -> "SpectrumTable":
        """The level below along ``pivot``, of recursion degree ``degree``.

        ``pivot`` must be a canonical representative attaining this level's
        minimum.  An edge level keeps its words orthogonal to the pivot.  A
        typed level is built from the low-weight words and pattern columns
        that ``_edge_route`` returns, when it returns them, else as one exact
        mean of q parents per type, with its minimum; a nonzero remainder
        raises DivisibilityError naming the first offending sum in type order.
        """
        _check_pivot(self, pivot)
        lead = _lead_col(pivot)
        params, pivots, pivot_cols = self.params, self.pivots + (pivot,), self.pivot_cols + (lead,)
        free_cols = tuple(c for c in self.free_cols if c != lead)
        q = params.q
        if self.edges is not None:
            edges = tuple(c for c in self.edges if sum(map(mul, c, pivot.digits)) % q == 0)
            return edge_level(params, pivots, edges, pivot_cols, free_cols)
        classes = _split(self.types.classes, pivot, lead)
        count = _type_count(q, classes)
        route = _edge_route(params, pivots, free_cols, degree, count)
        if route:
            words, patterns = route
            return edge_level(params, pivots, words, pivot_cols, free_cols, patterns)
        types, by, quot = _Types(q, classes, count), self._by_code, _Quotients(q, self.level)
        parents = _parent_codes(self.types, types, pivot, lead)
        values = _means(by, parents, quot)
        # quot holds each distinct value once, the degree (the largest) among
        # them, so its least is the minimum over the nonzero types.
        return SpectrumTable(
            params, pivots, weight_values=values, pivot_cols=pivot_cols, free_cols=free_cols, types=types,
            minimum=min(quot.values()),
        )


def _edge_values(q: int, edges: Sequence[tuple[int, ...]], cols: Sequence[int]) -> tuple[int, ...]:
    """q * Z - m for every m-digit word y of the span of the ``edges``' columns
    at ``cols``, each packed, right to left, in the order ``modq._span_weights``
    weighs them; Z, the number of zero digits of y, is read from y's weight,
    so the values are m + 1 objects in all."""
    m = len(edges)
    slots = _Slots(q, m)
    by_weight = [(q - 1) * m - q * w for w in range(m + 1)]
    basis = [slots.pack([word[col] for word in edges]) for col in reversed(cols)]
    return tuple(map(by_weight.__getitem__, _span_weights(slots, basis)))


def _pattern_cols(q: int, edges: Sequence[tuple[int, ...]], free_cols: tuple[int, ...]) -> tuple[int, ...]:
    """The pattern columns of the ``edges`` over ``free_cols``, in increasing order.

    Each word's digits on the free columns, read right to left, are packed
    and forward eliminated (``modq.forward_eliminate``); the lead slots of
    the rows kept are the column rank profile.
    """
    right_to_left = free_cols[::-1]
    slots = _Slots(q, len(free_cols))
    echelon = forward_eliminate([slots.pack([word[col] for col in right_to_left]) for word in edges], slots)
    return tuple(sorted(right_to_left[offset // slots.w] for offset, _, _ in echelon))


def edge_level(
    params: GraphParams,
    pivots: tuple[FqVector, ...],
    edges: tuple[tuple[int, ...], ...],
    pivot_cols: tuple[int, ...],
    free_cols: tuple[int, ...],
    pattern_cols: tuple[int, ...] | None = None,
) -> SpectrumTable:
    """The level named by ``pivots``, of pivot columns ``pivot_cols`` and free
    columns ``free_cols``, from its edge words, one per class of nonzero
    multiples in any order: one value per pattern.

    ``pattern_cols`` is passed by a typed level's handoff, whose route found
    them with the words; an edge level built from an edge level finds its own
    (``_pattern_cols``).
    """
    if pattern_cols is None:
        pattern_cols = _pattern_cols(params.q, edges, free_cols)
    values = _edge_values(params.q, edges, pattern_cols)
    return SpectrumTable(
        params, pivots, weight_values=values, edges=edges, pivot_cols=pivot_cols, free_cols=free_cols, pattern_cols=pattern_cols
    )


def build_spectrum_level0(params: GraphParams) -> SpectrumTable:
    """Level-0 spectrum, typed by weight; ``densify`` expands it.

    The row is K_{d-1}(w - 1; n - 1, q) - 1 for w >= 1 by the Krawtchouk
    recurrence in x, after the regular degree at w = 0.
    """
    q, cols = params.q, tuple(range(params.n))
    row = krawtchouk_row(params.d - 1, params.n - 1, q)
    classes: _Classes = [((), list(cols))]
    types = _Types(q, classes, _type_count(q, classes))
    return SpectrumTable(params, weight_values=(params.degree, *(k - 1 for k in row)), pivot_cols=(), free_cols=cols, types=types)


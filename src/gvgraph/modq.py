"""Small exact linear algebra mod a prime q on packed words: RREF, rank, kernel bases, spans.

Row format
----------
A row of n digits mod q is one Python int, its packed word.  Digit i sits
in bits [w*i, w*i + w); ``_Slots`` holds this layout for one (q, n).

For q = 2, w = 1 and there is no guard bit: digit i is bit i, the sum of
two words is their XOR, and a word's weight is its popcount.

For q > 2, w = (q-1).bit_length() + 1: the low w - 1 bits hold the digit,
and the slot's top bit is a guard bit, clear in every reduced word.  Since
q <= 2^(w-1), two digits sum to at most 2q - 2 < 2^w, so one integer add
``s = x + m`` adds every slot at once and no slot carries into the next.
Adding ``bias`` (2^(w-1) - q in every slot) keeps each slot in [0, 2^w) and
sets its guard bit exactly when the slot's sum is at least q; shifting the
guard bits down by w - 1 and multiplying by q gives the q to take from each
such slot, again with no borrow, so

    s - (((s + bias) & high) >> (w - 1)) * q

reduces every slot mod q (``high`` holds the guard bits).  In the same way a
digit plus 2^(w-1) - 1 sets the guard bit exactly when the digit is nonzero,
so the weight of a word x is ``((x + nz) & high).bit_count()``.  These three
constants belong to the guarded layout, and no q = 2 path reads them.

For w <= 5 (q <= 16) the word read in base 2^w has the digits themselves
as its digits, so ``pack`` and ``parse`` read a row as one numeral.  For
q = 2 the numeral is in base 2, which already refuses any digit of 2 or
more; for q > 2 ``parse`` then checks each digit is below q on the guard
bits.

Row operations
--------------
The lead column of a nonzero word is its lowest set slot.  A row operation
eliminates digit c of a row with the monic pivot row p by adding
(q - c) * p: for q = 2 one XOR, for other q one guarded add-and-reduce with
that multiple, formed on first use and kept with p (``_Negatives``).  q
prime guarantees every nonzero lead digit is invertible (pow(a, -1, q)).

The RREF is formed in two phases.  The forward elimination
(``forward_eliminate``) reduces each row by the pivot rows so far and keeps
the rows that stay nonzero, made monic: their count is the rank, so this
phase alone is the rank check, and the rows it keeps span the row space.
The back substitution (``back_substitute``) then clears each lead column
from the rows before it, with the multiples the forward phase stored, and
sorts the rows by lead column.  Only a kernel basis needs the second phase.
The lead columns of the forward phase alone are the column rank profile,
which names an edge level's pattern columns (``spectrum``, "Edge levels").

Combinations
------------
``_monic_combinations`` lists the combinations of 1 to k basis words whose
first nonzero coefficient is 1, fewer words first, for the low-weight word
search of an edge level (``spectrum``, "Edge levels").  Its frontier is one
list per next index, and each list of the next frontier is every nonzero
multiple of one basis word added to the lists before it.  ``_span`` grows a
span the same way, one basis word at a time.  Both add the multiples with
``_Slots.plus_multiples``: for q = 2 one ``map`` of the word's ``__xor__``,
for other q one guarded add-and-reduce comprehension per multiple.  No
tuple is built per word.

``_span_weights`` weighs every word of a span, a packed chunk at a time.
``verify`` weighs a code's codewords or dual words with it (``codes``), and
an edge level's tables are read from it, by pattern and dense (``spectrum``).
"""

from __future__ import annotations

from array import array
from operator import lshift
from typing import Iterable, Iterator, Sequence

from .combinat import _cached

__all__ = ["back_substitute", "forward_eliminate", "kernel_basis", "rank"]


# Digit byte x < 32 to its character in base 32; every other byte to "!",
# which int() refuses.
_BASE32 = b"0123456789abcdefghijklmnopqrstuv".ljust(256, b"!")


class _Slots:
    """The packed layout of n digits mod q (module docstring): slot width and per-slot constants."""

    def __init__(self, q: int, n: int) -> None:
        self.q = q
        self.n = n
        self.w = w = 1 if q == 2 else (q - 1).bit_length() + 1
        self.mask = (1 << w) - 1

    # The n-slot constants are built on first use: a code with no parity
    # rows may state a huge n that the budget check refuses later.
    @_cached
    def ones(self) -> int:
        """1 at the bottom of every slot."""
        return ((1 << (self.w * self.n)) - 1) // self.mask

    @_cached
    def high(self) -> int:
        return self.ones << (self.w - 1)

    @_cached
    def bias(self) -> int:
        return self.ones * ((1 << (self.w - 1)) - self.q)

    @_cached
    def nz(self) -> int:
        return self.ones * ((1 << (self.w - 1)) - 1)

    def pack(self, digits: Sequence[int]) -> int:
        """The word of n digits.

        For w <= 5 (q <= 13) the word read in base 2^w has the digits
        themselves as its digits (q = 2: base 2, one bit a digit), so it is
        parsed from one string of n characters, in time linear in n.  Larger
        q keep the sum of shifted digits, which is quadratic in n, since
        each add copies the word so far.
        """
        if self.w <= 5:
            return int(bytes(reversed(digits)).translate(_BASE32) or b"0", 1 << self.w)
        return sum(map(lshift, digits, range(0, self.w * self.n, self.w)))

    def parse(self, tokens: Sequence[str]) -> int | None:
        """The word of n tokens that are one decimal digit below q each, or None.

        As in ``pack``, for w <= 5 the reversed row is one base-2^w numeral,
        read by one ``int`` call.  For q = 2 that call is the whole range
        check: base 2 refuses any digit of 2 or more.  For q > 2 the guard
        bits then check its range: ``word & high`` is set by a digit of
        2^(w-1) or more, and ``(word + bias) & high`` by a digit of q or
        more.  None for q < 2, for w > 5, and for any other tokens, which
        the caller reads digit by digit.
        """
        n = self.n
        if len(tokens) != n or self.w > 5 or self.q < 2:
            return None
        text = "".join(reversed(tokens))
        if len(text) != n or not (text.isascii() and text.isdigit()):
            return None
        try:
            word = int(text, 1 << self.w)
        except ValueError:  # a digit of 2^w or more
            return None
        if self.q == 2:
            return word
        return None if word & self.high or (word + self.bias) & self.high else word

    def unpack(self, word: int) -> tuple[int, ...]:
        mask = self.mask
        return tuple((word >> shift) & mask for shift in range(0, self.w * self.n, self.w))

    def add(self, x: int, m: int) -> int:
        """The reduced sum of two reduced words: for q = 2 their XOR."""
        if self.q == 2:
            return x ^ m
        s = x + m
        return s - (((s + self.bias) & self.high) >> (self.w - 1)) * self.q

    def multiples(self, word: int) -> list[int]:
        """word, 2 word, ..., (q-1) word, each one add from the one before."""
        out = [word]
        for _ in range(2, self.q):
            out.append(self.add(out[-1], word))
        return out

    def plus_multiples(self, vec: int, words: Sequence[int]) -> list[int]:
        """Every word of ``words`` plus ``vec``, then plus 2 ``vec``, ..., plus
        (q-1) ``vec``, reduced: for q = 2 one XOR each, for other q one
        guarded add-and-reduce comprehension per multiple."""
        if self.q == 2:
            return list(map(vec.__xor__, words))
        q, high, shift = self.q, self.high, self.w - 1
        out: list[int] = []
        for m in self.multiples(vec):
            mb = m + self.bias  # s + bias below is x + mb, with s = x + m
            out += [x + m - (((x + mb) & high) >> shift) * q for x in words]
        return out

    def scale(self, word: int, c: int) -> int:
        """c * word, reduced, by doubling and adding: about 2 log2(c) adds."""
        out = 0
        while c:
            if c & 1:
                out = self.add(out, word) if out else word
            c >>= 1
            if c:
                word = self.add(word, word)
        return out

    def weights(self, words: Iterable[int]) -> Iterator[int]:
        """The weight of each reduced word: for q = 2, one bit a digit, its popcount."""
        if self.q == 2:
            return map(int.bit_count, words)
        nz, high = self.nz, self.high
        return (((x + nz) & high).bit_count() for x in words)


def _span(slots: _Slots, basis: Iterable[int], start: Iterable[int] = (0,)) -> list[int]:
    """Every combination of the packed ``basis`` words, zero first: for each
    basis word b, the words so far plus b, then plus 2b, ..., plus (q-1)b.
    From ``start``, the words of a span built so far, it extends that span."""
    words = list(start)
    for vec in basis:
        words += slots.plus_multiples(vec, words)
    return words


def _monic_combinations(slots: _Slots, basis: Sequence[int], most: int) -> list[int]:
    """Every combination of 1 to ``most`` of the packed ``basis`` words whose
    first nonzero coefficient is 1, those of fewer words first.

    The frontier is one list per next index: list j holds the combinations
    that may be extended by ``basis[j:]``, so the next frontier's list
    j + 1 is every nonzero multiple of ``basis[j]`` added to lists 0 to j
    (``_Slots.plus_multiples``).
    """
    groups: list[list[int]] = [[]] + [[vec] for vec in basis]
    found: list[int] = []
    for k in range(1, most + 1):
        for group in groups:
            found += group
        if k < most:
            extendable: list[int] = []
            grown: list[list[int]] = [[]]
            for group, vec in zip(groups, basis):
                extendable += group
                grown.append(slots.plus_multiples(vec, extendable))
            groups = grown
    return found


# The most bytes of words in one chunk of ``_span_weights``: a larger span
# is weighed in chunks, with about ten ints of a chunk's size alive at once.
_WEIGH_BYTES = 1 << 16

# The longest word, in bytes, that ``_span_weights`` weighs in a packed
# chunk.  Packed, a binary word costs about 5 ns per byte (sums by byte
# position); as an int of its own about 0.12 us.  Timed on 2^14 binary
# words, packed against one int each: 1.3 against 1.9 ms at 16 bytes
# (n = 128), 1.7 against 2.0 at 20 (n = 160), 2.0 against 2.0 at 24
# (n = 192).  q > 2 words, whose own ints cost more to reduce and weigh,
# are packed twice as fast at 20 bytes (q = 3, n = 53: 2.8 against 5.9 ms).
_PACKED_BYTES = 20

# Byte x to the number of its set bits.
_POPCOUNT = bytes(map(int.bit_count, range(256)))

# (item size, unsigned ``array`` type code of that size), narrowest first.
_ARRAY_TYPES = sorted({array(t).itemsize: t for t in "QLIHB"}.items())


def _span_weights(slots: _Slots, basis: Sequence[int]) -> bytes | array:
    """The weight of every word of ``_span(slots, basis)``, in that order.

    The first basis words span a bundle of words that fits in
    ``_WEIGH_BYTES`` bytes; every combination of the remaining words, in
    ``_span`` order, is added to the whole bundle to give one chunk of the
    span, which is weighed and dropped before the next.

    A word of at most ``_PACKED_BYTES`` bytes builds no Python int of its
    own.  The chunk is one int, word i in the i-th byte-aligned field of
    ``nbytes`` bytes.  Each basis word b grows the bundle in a few whole-int
    operations: b (for q > 2 each multiple of b) times ``ones``, 1 in every
    field, is XORed or added and reduced, as ``_Slots.add`` does, into all
    fields at once, and the result is shifted past the fields so far.  To
    weigh, the guard bits of ``(x + nz) & high`` mark each nonzero slot
    (q = 2: one bit a digit, the word's bits are its digits), each byte
    becomes its popcount, and a field's byte counts are summed by adding
    the ``nbytes`` ints that hold the counts at one byte position of every
    field.  The sum of a field is its weight, at most n, so no field
    carries into the next.
    Longer words are built one int each, a chunk at a time, and weighed by
    ``_Slots.weights``.

    The weights are bytes for n < 256, else an ``array`` of items wide
    enough for n.  A packed chunk holds at most 160 slots a word (binary
    words, one bit a slot), so its weights are at most 160 and fit in
    bytes.
    """
    q, shift = slots.q, slots.w - 1
    nbytes = max(1, (slots.w * slots.n + 7) // 8)  # bytes per word
    inner, fields = 0, 1  # fields: the words of a bundle of the first inner basis words
    while inner < len(basis) and fields * q * nbytes <= _WEIGH_BYTES:
        inner, fields = inner + 1, fields * q
    outer = _span(slots, basis[inner:])
    if nbytes > _PACKED_BYTES:
        weights = array(next(t for size, t in _ARRAY_TYPES if 256**size > slots.n))
        for word in outer:
            weights.fromlist(list(slots.weights(_span(slots, basis[:inner], (word,)))))  # faster than extend
        return weights.tobytes() if weights.itemsize == 1 else weights
    bundle, ones, bits = 0, 1, 8 * nbytes  # bits: the bundle's width
    for vec in basis[:inner]:
        if q == 2:
            bundle |= (bundle ^ vec * ones) << bits
            ones |= ones << bits
        else:
            words, one, bias, high = bundle, ones, slots.bias * ones, slots.high * ones
            for j, m in enumerate(slots.multiples(vec), 1):
                added = words + m * one
                bundle |= (added - (((added + bias) & high) >> shift) * q) << (bits * j)
                ones |= one << (bits * j)
        bits *= q
    if q > 2:
        bias, high, nz = slots.bias * ones, slots.high * ones, slots.nz * ones
    chunks = []
    for word in outer:
        chunk = bundle
        if q == 2:
            chunk ^= word * ones
        else:
            if word:
                chunk += word * ones
                chunk -= (((chunk + bias) & high) >> shift) * q
            chunk = (chunk + nz) & high
        counts = chunk.to_bytes(bits // 8, "little").translate(_POPCOUNT)
        total = sum(int.from_bytes(counts[j::nbytes], "little") for j in range(nbytes))
        chunks.append(total.to_bytes(fields, "little"))
    return b"".join(chunks)


class _Negatives(dict):
    """For a monic pivot row and q > 2: digit c to (m, m + bias), m = (q - c) * row.

    Adding m clears digit c from the row's lead slot, as ``x + m -
    (((x + m + bias) & high) >> (w - 1)) * q``; each pair is formed on first
    use (``_Slots.scale``), so a huge q costs only the digits met.
    """

    def __init__(self, slots: _Slots, row: int) -> None:
        self.slots, self.row = slots, row
        self[slots.q - 1] = (row, row + slots.bias)

    def __missing__(self, c: int) -> tuple[int, int]:
        m = self.slots.scale(self.row, self.slots.q - c)
        pair = self[c] = (m, m + self.slots.bias)
        return pair


def forward_eliminate(rows: Sequence[int], slots: _Slots) -> list[tuple[int, int, _Negatives | None]]:
    """Forward elimination of the packed ``rows`` mod q: the rank check.

    Each row is reduced by the pivot rows so far, in insertion order; a row
    that falls to zero is dropped, and any other is made monic and becomes
    the next pivot row.  Returns one (offset, row, negatives) per pivot row,
    in insertion order: the bit offset of its lead slot, the row, and for
    q > 2 its ``_Negatives`` (None for q = 2, where clearing is one XOR).
    The rows span the rows given, and each is zero in the lead columns of
    the rows before it.
    """
    q, w, mask = slots.q, slots.w, slots.mask
    if q > 2 and rows:  # the n-slot constants, built only for rows to reduce
        high, shift = slots.high, w - 1
    pivots: list[tuple[int, int, _Negatives | None]] = []
    for row in rows:
        # Pivot j is zero in the lead columns of pivots i < j, so clearing
        # them in insertion order leaves every lead column clear.
        if q == 2:
            for offset, pivot, _ in pivots:
                if row >> offset & 1:
                    row ^= pivot
        else:
            for offset, _, negatives in pivots:
                c = (row >> offset) & mask
                if c:
                    m, mb = negatives[c]
                    row += m - (((row + mb) & high) >> shift) * q
        if not row:
            continue
        offset = (row & -row).bit_length() - 1
        offset -= offset % w
        c = (row >> offset) & mask
        if c != 1:
            row = slots.scale(row, pow(c, -1, q))
        pivots.append((offset, row, _Negatives(slots, row) if q > 2 else None))
    return pivots


def back_substitute(pivots: list[tuple[int, int, _Negatives | None]], slots: _Slots) -> tuple[list[int], list[int]]:
    """The reduced row-echelon form of ``forward_eliminate``'s pivot rows.

    Each pivot row, as the forward phase left it, clears its lead column
    from the rows before it, with the multiples stored beside it: it is zero
    in their lead columns, so no column cleared before is set again.
    Returns (rref_rows, pivot_cols), sorted by pivot column; each row has a
    leading 1 in its pivot column and zeros in every other row's.
    """
    q, mask = slots.q, slots.mask
    if q > 2 and pivots:
        high, shift = slots.high, slots.w - 1
    echelon = [row for _, row, _ in pivots]
    for j, (offset, pivot, negatives) in enumerate(pivots):
        for i in range(j):
            c = (echelon[i] >> offset) & mask
            if c:
                if q == 2:
                    echelon[i] ^= pivot
                else:
                    m, mb = negatives[c]
                    echelon[i] += m - (((echelon[i] + mb) & high) >> shift) * q
    order = sorted(range(len(pivots)), key=lambda i: pivots[i][0])
    return [echelon[i] for i in order], [pivots[i][0] // slots.w for i in order]


def rank(rows: Sequence[int], slots: _Slots) -> int:
    return len(forward_eliminate(rows, slots))


def kernel_basis(rref_rows: list[int], pivot_cols: list[int], slots: _Slots) -> list[int]:
    """A basis of the joint kernel {u : <u, row> = 0 for every row}, from the rows' RREF (``back_substitute``), packed.

    One basis word per free column f: 1 at f, -row[f] at each pivot column,
    0 elsewhere.  Returned in increasing free-column order.
    """
    q, w, mask = slots.q, slots.w, slots.mask
    pivots = set(pivot_cols)
    basis = []
    for f in range(slots.n):
        if f in pivots:
            continue
        word = 1 << (w * f)
        for row, col in zip(rref_rows, pivot_cols):
            x = (row >> (w * f)) & mask
            if x:
                word |= (q - x) << (w * col)
        basis.append(word)
    return basis

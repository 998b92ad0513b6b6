"""Linear codes from parity-check rows and exact distance verification.

A code here is always the joint kernel of its parity rows, so the minimum
distance equals the minimum nonzero codeword weight.  The trivial code {0}
has no nonzero codeword; its distance is the explicit marker
``INFINITE_DISTANCE`` (math.inf), never a sentinel integer.

Minimum distance from the smaller side
--------------------------------------

A [n, k] code with s = n - k parity rows has q^k codewords and q^s dual
words (the span of the parity rows).  ``min_distance`` weighs every word of
the smaller side (``modq._span_weights``, "Packed rows" below), as one
weight per word in one ``bytes`` object.  When k <= s it weighs the
codewords, spanned by a kernel basis, and the distance is the least j >= 1
that occurs among those bytes (``j in weights``, one byte search per j).
When s < k it weighs the dual words instead, spanned by the echelon rows
that the rank check kept (the RREF rows span the same words), counts their
weights (B_x words of weight x, ``weights.count(x)`` for each x that
occurs) and applies the MacWilliams transform (MacWilliams & Sloane, ch. 5):

    A_j = q^-s * sum_x B_x * K_j(x; n, q),

with K_j the Krawtchouk polynomial.  The distance is the least j >= 1 with
A_j > 0.  A_1, A_2, ... are taken in turn, each from the next entry of one
Krawtchouk column K_0(x), K_1(x), ... per distinct dual weight x
(``combinat.krawtchouk_column``), so distance d costs O(d) steps per dual
weight.  Every A_j is an exact count, so a nonzero remainder or a negative
A_j raises ``DivisibilityError``.  From n = 256 on a weight can exceed one
byte, so the weights come as an ``array`` of wider items, which is
scanned once (``min``, ``Counter``) rather than searched per value.  The
side weighed is checked against the budget first: q^s when 0 < s < k,
else q^k, so a code with s >= 1 is refused only when its smaller side is
over the budget, and the message names that side.  The whole space (s = 0)
is checked at q^n although it has one dual word: a pchk file of s >= 1 rows
holds s * n digits, so its size bounds n, but one with s = 0 states n only
in its header, and each packed word has n slots.

Packed rows
-----------

From parse to weight a row or word is one Python int, one slot per digit:
one bit for q = 2, else a slot with a guard bit (``modq``, "Row format").
``parse_pchk`` reads a row of n one-character decimal digits with one
``int`` call (``modq._Slots.parse``, for 2 <= q <= 16); any other row, and
any row outside [0, q), is read digit by digit, which packs it or raises
the row's format error.  ``LinearCode`` holds its parity rows only as
these words, whichever way it was built; ``format_pchk`` unpacks each to
its digits as it writes the row.  It checks the rank by the forward
elimination alone (``modq.forward_eliminate``: one XOR per row operation
for q = 2, else one guarded add-and-reduce with a stored multiple of the
pivot row) and keeps the echelon rows, whose span is the dual words.  The
RREF, by the back substitution on those rows (``modq.back_substitute``),
is formed on first read, for the kernel basis that the codeword route of
``min_distance`` spans.  A word's weight is the number of its nonzero
slots.

``modq._span_weights`` weighs a span a chunk at a time: the first basis
words span a bundle of at most ``modq._WEIGH_BYTES`` bytes of words, and
every combination of the remaining basis words is added to the whole
bundle.  Words of up to ``modq._PACKED_BYTES`` bytes build no int of
their own: the chunk is one int, one byte-aligned field per word,
grown by a few whole-int operations per basis word (the basis word times a
constant with 1 in every field, XORed for q = 2 or added and reduced into
every field at once, then shifted past the fields so far).  Its weights
come from the int's bytes: for q > 2 the guard bits first mark the nonzero
slots, then each byte becomes its popcount (``bytes.translate``) and the
counts of a field's bytes are summed by adding one int per byte position.
Longer words cost more in those sums than an int each, so they are built
one int each, a chunk at a time, and weighed in turn.

The file format ``gvpchk v1`` is plain UTF-8 text with LF newlines:

    # gvpchk v1
    q <integer>
    n <integer>
    s <integer>
    <s rows of n space-separated digits in [0, q), digit 1 first>

Parsers reject wrong magic, malformed headers, out-of-range digits, wrong
row length, and every code ``LinearCode`` refuses (q not prime, n < 1, row
rank below s).
"""

from __future__ import annotations

import math
import os
import sys
from collections import Counter
from dataclasses import dataclass, field
from itertools import islice

from .combinat import _cached, _check_field, krawtchouk_column
from .errors import DivisibilityError, PchkFormatError, check_budget
# ``rank`` is unused here; the benchmark's tracer tests check that it is patched in this namespace.
from .modq import _Negatives, _Slots, _span_weights, back_substitute, forward_eliminate, kernel_basis, rank  # noqa: F401
from .vectors import FqVector

__all__ = [
    "INFINITE_DISTANCE",
    "LinearCode",
    "format_pchk",
    "min_distance",
    "read_pchk",
    "write_pchk",
]

INFINITE_DISTANCE = math.inf

PCHK_MAGIC = "# gvpchk v1"


@dataclass(frozen=True, init=False)
class LinearCode:
    """The kernel of a full-rank set of parity-check rows over F_q; ``parse_pchk`` relies on its checks.

    The rows are held packed, once (module docstring, "Packed rows").
    """

    q: int
    n: int
    _rows: tuple[int, ...]
    _slots: _Slots = field(repr=False, compare=False)
    _pivots: list[tuple[int, int, _Negatives | None]] = field(repr=False, compare=False)

    def __init__(self, q: int, n: int, parity_rows: tuple[FqVector, ...]) -> None:
        parity_rows = tuple(parity_rows)
        _check_field(q, n)
        for row in parity_rows:
            if row.q != q or row.n != n:
                raise ValueError("parity row parameters do not match the code")
        slots = _Slots(q, n)
        self._reduce(q, n, [slots.pack(row.digits) for row in parity_rows], slots)

    @classmethod
    def _from_words(cls, q: int, n: int, rows: list[int], slots: _Slots) -> LinearCode:
        """The code of the packed ``rows``, laid out by ``slots``, with the constructor's checks."""
        _check_field(q, n)
        code = object.__new__(cls)
        code._reduce(q, n, rows, slots)
        return code

    def _reduce(self, q: int, n: int, rows: list[int], slots: _Slots) -> None:
        pivots = forward_eliminate(rows, slots)
        if len(pivots) != len(rows):
            raise ValueError(f"parity rows are linearly dependent: rank below s = {len(rows)}")
        vars(self).update(q=q, n=n, _rows=tuple(rows), _slots=slots, _pivots=pivots)

    @_cached
    def _rref(self) -> tuple[list[int], list[int]]:
        """The parity rows' RREF and pivot columns, for a kernel basis."""
        return back_substitute(self._pivots, self._slots)

    @property
    def s(self) -> int:
        return len(self._rows)

    @property
    def dimension(self) -> int:
        return self.n - self.s

    @property
    def size(self) -> int:
        return self.q**self.dimension


def _distance_from_dual(dual_weights: dict[int, int], q: int, n: int, s: int) -> int:
    """Least j >= 1 with A_j > 0, A_j the MacWilliams transform of the q^s dual
    words' weight counts ``dual_weights`` (module docstring).  The code must
    have dimension n - s >= 1, so finding no such j is an error too."""
    size = q**s
    columns = [(b, islice(krawtchouk_column(x, n, q), 1, None)) for x, b in dual_weights.items()]
    for j in range(1, n + 1):
        count, rem = divmod(sum(b * next(column) for b, column in columns), size)
        if rem or count < 0:
            raise DivisibilityError(f"MacWilliams sum for weight {j} is not a nonnegative multiple of {q}^{s}")
        if count:
            return j
    raise DivisibilityError(f"MacWilliams sums give the {q}^{n - s} codewords no nonzero weight")


def min_distance(code: LinearCode, budget: int | None = None) -> int | float:
    """Exact minimum distance: the least nonzero codeword weight, {0} included.

    Enumerates the codewords, or the dual words when they are fewer (module
    docstring); the side it weighs is checked against the budget first.
    """
    q, n, s, k = code.q, code.n, code.s, code.dimension
    if 0 < s < k:
        check_budget(q, s, budget, f"dual-word enumeration of a [{n}, {k}] code")
    else:
        check_budget(q, k, budget, f"codeword enumeration of a [{n}, {k}] code")
    slots = code._slots
    if s < k:  # the echelon rows span the dual words, as the RREF rows do
        weights = _span_weights(slots, [row for _, row, _ in code._pivots])
    else:
        weights = _span_weights(slots, kernel_basis(*code._rref, slots))
    # Bytes are searched once per weight value; an array of wider weights
    # (n >= 256), whose searches compare item by item, is scanned once.
    narrow = isinstance(weights, bytes)
    if s < k:
        counts = {x: weights.count(x) for x in range(n + 1) if x in weights} if narrow else Counter(weights)
        return _distance_from_dual(counts, q, n, s)
    if narrow:  # weights[0] is the zero word's
        return next((j for j in range(1, n + 1) if j in weights), INFINITE_DISTANCE)
    return min(islice(weights, 1, None), default=INFINITE_DISTANCE)


def format_pchk(code: LinearCode) -> str:
    """Canonical gvpchk v1 text for a code; byte-identical across runs."""
    lines = [PCHK_MAGIC, f"q {code.q}", f"n {code.n}", f"s {code.s}"]
    lines += [" ".join(map(str, code._slots.unpack(row))) for row in code._rows]
    return "\n".join(lines) + "\n"


# Names tried for a temp file before giving up, as ``tempfile.mkstemp`` does.
_TEMP_TRIES = 10000


def _temp_name() -> str:
    """A fresh name for a temp file: ``.gvgraph-<random hex>.tmp``."""
    return f".gvgraph-{os.urandom(6).hex()}.tmp"


def _atomic_write_text(path: str, text: str) -> None:
    """Write UTF-8 text with LF newlines to a temp file beside ``path``, then rename it over ``path``.

    The temp file is created as ``tempfile.mkstemp`` creates one, with
    ``O_CREAT | O_EXCL`` and mode 0600, so a name that exists is skipped,
    never overwritten; its bytes go out by ``os.write``, with no text
    wrapper.  On any failure the temp file is removed, and a failure to
    create it names ``path``, not the temp name.
    """
    directory = os.path.dirname(os.path.abspath(path))
    data = memoryview(text.encode("utf-8"))
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
    for _ in range(_TEMP_TRIES):
        tmp = os.path.join(directory, _temp_name())
        try:
            fd = os.open(tmp, flags, 0o600)
        except FileExistsError:
            continue
        except OSError as exc:
            exc.filename = path
            raise
        break
    else:
        raise FileExistsError(f"no unused temp file name in {directory}")
    try:
        try:
            while data:
                data = data[os.write(fd, data) :]
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_pchk(path: str, code: LinearCode) -> None:
    """Atomically write the parity-check file (temp file + rename)."""
    _atomic_write_text(path, format_pchk(code))


def _header_int(line: str, key: str, lineno: int) -> int:
    parts = line.split()
    if len(parts) != 2 or parts[0] != key:
        raise PchkFormatError(f"line {lineno}: expected '{key} <integer>', got {line!r}")
    try:
        return int(parts[1])
    except ValueError:
        # Python 3.10.7 on refuses to read a decimal integer of more digits
        # than a limit; such a token is named by its size, not echoed.
        token = parts[1]
        digits = token[1:] if token[0] in "+-" else token
        limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
        if limit and len(digits) > limit and digits.isascii() and digits.isdigit():
            raise PchkFormatError(f"line {lineno}: the integer has {len(digits)} digits, more than the limit of {limit}") from None
        raise PchkFormatError(f"line {lineno}: {parts[1]!r} is not an integer") from None


def _row_word(line: str, parts: list[str], offset: int, slots: _Slots) -> int:
    """The word of one row of ``parts``, read digit by digit, or its format error."""
    if len(parts) != slots.n:
        raise PchkFormatError(f"row {offset}: expected {slots.n} digits, got {len(parts)}")
    try:
        digits = tuple(map(int, parts))
    except ValueError:
        raise PchkFormatError(f"row {offset}: non-integer digit in {line!r}") from None
    if digits and (min(digits) < 0 or max(digits) >= slots.q):
        raise PchkFormatError(f"row {offset}: digit out of range [0, {slots.q})")
    return slots.pack(digits)


def parse_pchk(text: str) -> LinearCode:
    """A code from gvpchk v1 text, its rows packed as the module docstring's
    "Packed rows" says: by one ``int`` call, else digit by digit."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != PCHK_MAGIC:
        raise PchkFormatError(f"bad magic line: expected {PCHK_MAGIC!r}")
    if len(lines) < 4:
        raise PchkFormatError("missing header lines (need q, n, s)")
    q = _header_int(lines[1], "q", 2)
    n = _header_int(lines[2], "n", 3)
    s = _header_int(lines[3], "s", 4)
    if s < 0:
        raise PchkFormatError(f"s must be nonnegative, got {s}")
    if len(lines) != 4 + s:
        raise PchkFormatError(f"expected {s} rows after the header, found {len(lines) - 4}")
    slots = _Slots(q, n)
    rows = []
    for offset, line in enumerate(lines[4:]):
        parts = line.split()
        word = slots.parse(parts)
        rows.append(_row_word(line, parts, offset, slots) if word is None else word)
    try:
        return LinearCode._from_words(q, n, rows, slots)
    except ValueError as exc:
        raise PchkFormatError(str(exc)) from None


def read_pchk(path: str) -> LinearCode:
    """Parse a gvpchk v1 file, rejecting any format violation."""
    with open(path, "r", encoding="utf-8", newline="") as handle:
        text = handle.read()
    return parse_pchk(text.replace("\r\n", "\n"))

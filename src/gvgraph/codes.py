"""Linear codes from parity-check rows and exact distance verification.

A code here is always the joint kernel of its parity rows, so the minimum
distance equals the minimum nonzero codeword weight and is found by
enumerating the q^(n-s) codewords from a kernel basis.  The trivial code {0}
has no nonzero codeword; its distance is the explicit marker
``INFINITE_DISTANCE`` (math.inf), never a sentinel integer.

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
import tempfile
from dataclasses import dataclass
from typing import Iterable

from .combinat import GraphParams, is_prime
from .errors import PchkFormatError, check_budget
from .modq import kernel_basis, rank
from .vectors import FqVector

__all__ = [
    "INFINITE_DISTANCE",
    "LinearCode",
    "codewords",
    "format_pchk",
    "is_independent_set",
    "min_distance",
    "read_pchk",
    "write_pchk",
]

INFINITE_DISTANCE = math.inf

PCHK_MAGIC = "# gvpchk v1"


@dataclass(frozen=True)
class LinearCode:
    """The kernel of a full-rank set of parity-check rows over F_q; ``parse_pchk`` relies on its checks."""

    q: int
    n: int
    parity_rows: tuple[FqVector, ...]

    def __post_init__(self) -> None:
        if not is_prime(self.q):
            raise ValueError(f"q must be prime, got {self.q}")
        if self.n < 1:
            raise ValueError(f"n must be positive, got {self.n}")
        for row in self.parity_rows:
            if row.q != self.q or row.n != self.n:
                raise ValueError("parity row parameters do not match the code")
        rows = [row.digits for row in self.parity_rows]
        if rows and rank(list(rows), self.q) != len(rows):
            raise ValueError(f"parity rows are linearly dependent: rank below s = {len(rows)}")

    @property
    def s(self) -> int:
        return len(self.parity_rows)

    @property
    def dimension(self) -> int:
        return self.n - self.s

    @property
    def size(self) -> int:
        return self.q**self.dimension


def codewords(code: LinearCode, budget: int | None = None) -> list[FqVector]:
    """All q^(n-s) vectors orthogonal to every parity row, zero included."""
    check_budget(code.q, code.dimension, budget, f"codeword enumeration of a [{code.n}, {code.dimension}] code")
    q, n = code.q, code.n
    basis = kernel_basis([row.digits for row in code.parity_rows], q, n)
    words = [FqVector.zero(q, n)]
    for vec in basis:
        b = FqVector(q, vec)
        multiples = [b.scale(c) for c in range(1, q)]
        words += [w.add(m) for m in multiples for w in words]
    return words


def min_distance(code: LinearCode, budget: int | None = None) -> int | float:
    """Exact minimum distance: least nonzero codeword weight, by enumeration (even for {0})."""
    words = codewords(code, budget)
    return min((w.weight for w in words if not w.is_zero), default=INFINITE_DISTANCE)


def is_independent_set(params: GraphParams, vectors: Iterable[FqVector]) -> bool:
    """Whether all pairwise Hamming distances are at least d."""
    vecs = list(vectors)
    if len(set(vecs)) != len(vecs):
        raise ValueError("vectors must be distinct")
    for v in vecs:
        if v.q != params.q or v.n != params.n:
            raise ValueError("vector parameters do not match")
    for i, u in enumerate(vecs):
        for v in vecs[i + 1 :]:
            if u.hamming_distance(v) < params.d:
                return False
    return True


def format_pchk(code: LinearCode) -> str:
    """Canonical gvpchk v1 text for a code; byte-identical across runs."""
    lines = [PCHK_MAGIC, f"q {code.q}", f"n {code.n}", f"s {code.s}"]
    lines += [" ".join(str(x) for x in row.digits) for row in code.parity_rows]
    return "\n".join(lines) + "\n"


def _atomic_write_text(path: str, text: str) -> None:
    """Write UTF-8 text with LF newlines to a temp file beside ``path``, then rename it over ``path``."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".gvgraph-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
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
        raise PchkFormatError(f"line {lineno}: {parts[1]!r} is not an integer") from None


def parse_pchk(text: str) -> LinearCode:
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
    rows = []
    for offset, line in enumerate(lines[4:]):
        parts = line.split()
        if len(parts) != n:
            raise PchkFormatError(f"row {offset}: expected {n} digits, got {len(parts)}")
        try:
            digits = tuple(int(x) for x in parts)
        except ValueError:
            raise PchkFormatError(f"row {offset}: non-integer digit in {line!r}") from None
        if any(not 0 <= x < q for x in digits):
            raise PchkFormatError(f"row {offset}: digit out of range [0, {q})")
        rows.append(digits)
    try:
        return LinearCode(q, n, tuple(FqVector(q, digits) for digits in rows))
    except ValueError as exc:
        raise PchkFormatError(str(exc)) from None


def read_pchk(path: str) -> LinearCode:
    """Parse a gvpchk v1 file, rejecting any format violation."""
    with open(path, "r", encoding="utf-8", newline="") as handle:
        text = handle.read()
    return parse_pchk(text.replace("\r\n", "\n"))

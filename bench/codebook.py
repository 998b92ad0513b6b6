"""Codes of known minimum distance and the seeded transforms that disguise them.

Each entry of ``CODEBOOK`` is a classical code whose length, dimension and
minimum distance come from coding theory (MacWilliams & Sloane), not from
gvgraph.  ``disguise`` turns one into another parity-check matrix of an
equivalent code: a coordinate permutation, a nonzero scalar per coordinate
and invertible row operations.  The first two give a monomially equivalent
code and the last keeps the row space, so weights, and hence the distance,
are preserved by construction.

Everything here is self-contained: the kernel computation and the weight
enumeration are the benchmark's own, so the expectations never depend on the
code under test.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

Matrix = list[list[int]]


@dataclass(frozen=True)
class KnownCode:
    name: str
    q: int
    n: int
    k: int
    d: int
    parity: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return self.q**self.k


def _nullspace(rows: Matrix, q: int, n: int) -> Matrix:
    """Basis of {x : rows . x = 0} over GF(q), one vector per free column."""
    work = [[x % q for x in r] for r in rows]
    pivots: list[int] = []
    r = 0
    for c in range(n):
        p = next((i for i in range(r, len(work)) if work[i][c]), None)
        if p is None:
            continue
        work[r], work[p] = work[p], work[r]
        inv = pow(work[r][c], -1, q)
        work[r] = [(inv * x) % q for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c]:
                f = work[i][c]
                work[i] = [(a - f * b) % q for a, b in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
    basis = []
    for f in (c for c in range(n) if c not in pivots):
        vec = [0] * n
        vec[f] = 1
        for row, c in zip(work, pivots):
            vec[c] = (-row[f]) % q
        basis.append(vec)
    return basis


def _cyclic_generator(g: list[int], n: int) -> Matrix:
    """Shifts of the generator polynomial g (coefficients, constant term first)."""
    k = n - (len(g) - 1)
    return [[0] * i + g + [0] * (n - len(g) - i) for i in range(k)]


def _extend(gen: Matrix, q: int) -> Matrix:
    """Append the coordinate that makes every row sum to zero."""
    return [row + [(-sum(row)) % q] for row in gen]


def _hamming_parity(q: int, r: int) -> Matrix:
    """One nonzero column per 1-dimensional subspace of GF(q)^r, first nonzero digit 1."""
    cols = [v for v in itertools.product(range(q), repeat=r) if any(v) and next(x for x in v if x) == 1]
    return [[col[i] for col in cols] for i in range(r)]


def _extended_hamming_parity(r: int) -> Matrix:
    h = _hamming_parity(2, r)
    return [row + [0] for row in h] + [[1] * (2**r)]


def _reed_muller_1(m: int) -> Matrix:
    points = list(itertools.product((0, 1), repeat=m))
    return [[1] * len(points)] + [[p[i] for p in points] for i in range(m)]


def _known(name: str, q: int, n: int, k: int, d: int, parity: Matrix) -> KnownCode:
    return KnownCode(name, q, n, k, d, tuple(tuple(r) for r in parity))


def _from_generator(name: str, q: int, n: int, d: int, gen: Matrix) -> KnownCode:
    return _known(name, q, n, len(gen), d, _nullspace(gen, q, n))


_GOLAY23 = _cyclic_generator([1, 0, 1, 0, 1, 1, 1, 0, 0, 0, 1, 1], 23)
_TERNARY_GOLAY11 = _cyclic_generator([2, 0, 1, 2, 1, 1], 11)

CODEBOOK: dict[str, KnownCode] = {
    c.name: c
    for c in (
        _known("hamming-7-4", 2, 7, 4, 3, _hamming_parity(2, 3)),
        _known("hamming-15-11", 2, 15, 11, 3, _hamming_parity(2, 4)),
        _known("ext-hamming-8-4", 2, 8, 4, 4, _extended_hamming_parity(3)),
        _known("ext-hamming-16-11", 2, 16, 11, 4, _extended_hamming_parity(4)),
        _from_generator("golay-23-12", 2, 23, 7, _GOLAY23),
        _from_generator("golay-24-12", 2, 24, 8, _extend(_GOLAY23, 2)),
        _from_generator("rm1-32-6", 2, 32, 16, _reed_muller_1(5)),
        _from_generator("ternary-golay-11-6", 3, 11, 5, _TERNARY_GOLAY11),
        _from_generator("ternary-golay-12-6", 3, 12, 6, _extend(_TERNARY_GOLAY11, 3)),
        _known("quinary-hamming-6-4", 5, 6, 4, 3, _hamming_parity(5, 2)),
    )
}


def disguise(code: KnownCode, rng: random.Random) -> Matrix:
    """Parity rows of a seeded code equivalent to ``code``, which has at least two."""
    q, n = code.q, code.n
    perm = list(range(n))
    rng.shuffle(perm)
    scale = [rng.randrange(1, q) for _ in range(n)]
    rows = [[(scale[j] * row[perm[j]]) % q for j in range(n)] for row in code.parity]
    for _ in range(3 * len(rows)):
        i, j = rng.sample(range(len(rows)), 2)
        op, f = rng.randrange(3), rng.randrange(1, q)
        if op == 0:
            rows[i] = [(a + f * b) % q for a, b in zip(rows[i], rows[j])]
        elif op == 1:
            rows[i] = [(f * a) % q for a in rows[i]]
        else:
            rows[i], rows[j] = rows[j], rows[i]
    return rows


def pchk_text(q: int, rows: Matrix) -> str:
    """gvpchk v1 text for parity rows (the format gvgraph reads)."""
    n = len(rows[0])
    lines = ["# gvpchk v1", f"q {q}", f"n {n}", f"s {len(rows)}"]
    lines += [" ".join(map(str, r)) for r in rows]
    return "\n".join(lines) + "\n"


def weight_distribution(q: int, rows: Matrix) -> list[int]:
    """Weight distribution of the kernel of ``rows``, by checking every vector of GF(q)^n."""
    n = len(rows[0])
    dist = [0] * (n + 1)
    for v in itertools.product(range(q), repeat=n):
        if all(sum(a * b for a, b in zip(r, v)) % q == 0 for r in rows):
            dist[sum(1 for x in v if x)] += 1
    return dist

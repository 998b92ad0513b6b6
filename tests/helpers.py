"""Brute-force oracles and reference implementations shared by the test suite.

Everything here recomputes results from first principles -- explicit vector
enumeration, explicit character sums over materialized difference sets,
explicit induced subgraphs -- and never reuses the library's quotient-index
machinery, so agreement is a genuine two-route check.  The reference
averaging loops and dense level-0 expressions are the library's earlier
entry-by-entry implementations, kept as the oracle its slice kernels are
compared against; so are the codeword enumeration's former ``FqVector``
doubling loop, the former list RREF and kernel basis on digit tuples, the
former shift-sum ``_Slots.pack`` (``reference_pack``) and the former
digit-by-digit ``parse_pchk`` (``reference_parse_pchk``).
``reference_monic_combinations`` lists the low-weight word search's
combinations one by one, each summed from its coefficients.  ``mpmath_rate``
is the asymptotic rate from mpmath, correctly rounded, and
``parity_digits`` a code's rows as digit tuples.  ``krawtchouk`` is the
explicit-sum Krawtchouk value that the package's recurrences
(``krawtchouk_row``, ``krawtchouk_column``) are compared against, and
``eigenvalue_level0`` the level-0 eigenvalue of one weight taken from it.
``RealEigenvector`` is the paper's two-valued real eigenvector, an oracle
for the level-0 eigenvalues; ``index_of`` and the trace histories
(``lambda_history``, ``degree_history``, ``pivot_orthogonality``) read a
table or trace the way the tests need and the package does not.
The dense route (``dense_minimum``, ``dense_descend``, ``dense_descent``)
runs Algorithm 1 on dense values through ``reference_average``, with its own
argmin scan, degree and pivot lookup: the second route the typed and edge
levels are compared against; ``parent_sums`` gives its undivided parent
sums.  The vector helpers at the top (rank order, distances, supports,
independent sets) are the test-only parts of the former ``FqVector`` and
``codes`` API.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction
from math import comb
from typing import Iterable, Iterator

import numpy as np

from gvgraph import BudgetError, FqVector, GraphParams, LevelRecord, SpectrumTable, build_spectrum_level0, descent_bound
from gvgraph.codes import PCHK_MAGIC, _header_int
from gvgraph.combinat import is_prime
from gvgraph.errors import DivisibilityError, PchkFormatError, check_budget
from gvgraph.modq import _Slots
from gvgraph.spectrum import _lead_col

EXACT_SEARCH_CAP = 64


def from_rank(q: int, n: int, rank: int) -> FqVector:
    """Inverse of ``rank``: digits of ``rank`` base q, digit 1 most significant."""
    if not 0 <= rank < q**n:
        raise ValueError(f"rank {rank} out of range for q={q}, n={n}")
    digits = [0] * n
    for i in range(n - 1, -1, -1):
        rank, digits[i] = divmod(rank, q)
    return FqVector(q, tuple(digits))


def rank(v: FqVector) -> int:
    """The vector read as a base-q number, digit 1 most significant."""
    r = 0
    for x in v.digits:
        r = r * v.q + x
    return r


def enumerate_all(q: int, n: int) -> Iterator[FqVector]:
    """All q**n vectors in increasing rank order."""
    for r in range(q**n):
        yield from_rank(q, n, r)


def support(v: FqVector) -> frozenset[int]:
    """1-based positions of the nonzero digits."""
    return frozenset(i + 1 for i, x in enumerate(v.digits) if x != 0)


def hamming_distance(u: FqVector, v: FqVector) -> int:
    if u.q != v.q or u.n != v.n:
        raise ValueError(f"mismatched parameters: (q={u.q}, n={u.n}) vs (q={v.q}, n={v.n})")
    return hamming(u.digits, v.digits)


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
            if hamming_distance(u, v) < params.d:
                return False
    return True


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
        return self.params.q - 1 if dot(u.digits, self.indicator.digits, self.params.q) == 0 else -1

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


def dense_entries(vector: RealEigenvector, budget: int | None = None) -> list[int]:
    """The entries of a two-valued real eigenvector at every vertex, in rank order."""
    q, n = vector.params.q, vector.params.n
    check_budget(q, n, budget, "dense real eigenvector")
    return [vector.entry(u) for u in enumerate_all(q, n)]


def all_vectors(q, n):
    return list(itertools.product(range(q), repeat=n))


def weight(v):
    return sum(1 for x in v if x != 0)


def dot(u, v, q):
    return sum(a * b for a, b in zip(u, v)) % q


def hamming(u, v):
    return sum(1 for a, b in zip(u, v) if a != b)


def vadd(u, v, q):
    return tuple((a + b) % q for a, b in zip(u, v))


def vscale(c, v, q):
    return tuple((c * a) % q for a in v)


def char_sum(S, v, q):
    """Residue-count evaluation of the character sum over S at index v."""
    counts = [0] * q
    for u in S:
        counts[dot(u, v, q)] += 1
    assert all(c == counts[1] for c in counts[2:]), f"unequal residue counts {counts}"
    return counts[0] - counts[1]


def ball_volume_brute(q, n, r):
    return sum(comb(n, i) * (q - 1) ** i for i in range(r + 1))


def mpmath_rate(q: int, x: Fraction, dps: int = 130) -> Decimal:
    """1 - h_q(x) evaluated by mpmath at ``dps`` digits from x itself (not
    from integer logarithms), then rounded half-even to 50 significant
    digits: the correctly rounded rate while the cancellation near
    x = 1 - 1/q costs fewer than dps - 70 digits.  The rate at 0 is 1."""
    import mpmath

    if x == 0:
        return Decimal(1)
    with mpmath.workdps(dps):
        xm = mpmath.mpf(x.numerator) / x.denominator
        rate = 1 - xm * mpmath.log(q - 1, q) + xm * mpmath.log(xm, q) + (1 - xm) * mpmath.log(1 - xm, q)
        text = mpmath.nstr(rate, dps - 10, strip_zeros=False)
    with localcontext() as ctx:
        ctx.prec, ctx.rounding = 50, ROUND_HALF_EVEN
        return +Decimal(text)


def parity_digits(code) -> list[tuple[int, ...]]:
    """A code's parity rows as digit tuples, unpacked from the packed rows it holds."""
    return [code._slots.unpack(row) for row in code._rows]


def reference_pack(digits, w: int) -> int:
    """The former ``_Slots.pack``: the sum of each digit shifted to its slot, quadratic in n."""
    return sum(x << (w * i) for i, x in enumerate(digits))


def reference_parse_pchk(text):
    """The former ``parse_pchk``, digit by digit: every token through ``int``,
    then the code's checks (q prime, n >= 1), with the rank from
    ``reference_rref``.  Returns (q, n, rows packed by ``reference_pack``),
    or raises the ``PchkFormatError`` of the first fault."""
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
            digits = tuple(int(part) for part in parts)
        except ValueError:
            raise PchkFormatError(f"row {offset}: non-integer digit in {line!r}") from None
        if digits and (min(digits) < 0 or max(digits) >= q):
            raise PchkFormatError(f"row {offset}: digit out of range [0, {q})")
        rows.append(digits)
    try:
        if not is_prime(q):
            raise ValueError(f"q must be prime, got {q}")
        if n < 1:
            raise ValueError(f"n must be positive, got {n}")
        if len(reference_rref(rows, q)[0]) != s:
            raise ValueError(f"parity rows are linearly dependent: rank below s = {s}")
    except ValueError as exc:
        raise PchkFormatError(str(exc)) from None
    w = _Slots(q, n).w
    return q, n, tuple(reference_pack(digits, w) for digits in rows)


def krawtchouk(k: int, x: int, n: int, q: int) -> int:
    """Exact value of K_k(x; n, q) = sum_j (-1)^j C(x,j) C(n-x,k-j) (q-1)^(k-j)."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if not 0 <= x <= n:
        raise ValueError(f"x must lie in [0, n], got x={x}, n={n}")
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    total = 0
    for j in range(k + 1):
        term = comb(x, j) * comb(n - x, k - j) * (q - 1) ** (k - j)
        total += -term if j & 1 else term
    return total


def eigenvalue_level0(params: GraphParams, weight: int) -> int:
    """Eigenvalue of any weight-``weight`` character index at level 0."""
    if not 0 <= weight <= params.n:
        raise ValueError(f"weight must lie in [0, n], got {weight} with n={params.n}")
    if weight == 0:
        return params.degree
    return krawtchouk(params.d - 1, weight - 1, params.n - 1, params.q) - 1


def krawtchouk_genfunc(k, x, n, q):
    """Coefficient of z^k in (1 + (q-1) z)^(n-x) (1 - z)^x, by polynomial expansion."""

    def poly_mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
        return out

    def poly_pow(p, e):
        out = [1]
        for _ in range(e):
            out = poly_mul(out, p)
        return out

    poly = poly_mul(poly_pow([1, q - 1], n - x), poly_pow([1, -1], x))
    return poly[k] if k < len(poly) else 0


def gilbert_neighbor_lists(q, n, d):
    """Explicit adjacency of the Gilbert graph as index lists over rank order."""
    vecs = all_vectors(q, n)
    adj = [[] for _ in vecs]
    for i, u in enumerate(vecs):
        for j in range(i + 1, len(vecs)):
            if 1 <= hamming(u, vecs[j]) <= d - 1:
                adj[i].append(j)
                adj[j].append(i)
    return vecs, adj


def reference_descent(q, n, d):
    """Materialized-subgraph descent, entirely independent of the library.

    Holds the explicit vertex subspace and difference set at each level,
    evaluates every coset eigenvalue by a direct character sum, picks the
    smallest canonical (coset-minimal) representative attaining the minimum,
    and checks regularity, vertex counts and trace identities along the way.
    Returns (s, lambda_history, degree_history, pivots, min_distance).
    """
    vecs = all_vectors(q, n)
    S0 = [u for u in vecs if 1 <= weight(u) <= d - 1]
    zero = tuple([0] * n)
    pivots = []
    lam_hist = []
    deg_hist = []
    t = 0
    while True:
        Vt = [u for u in vecs if all(dot(u, p, q) == 0 for p in pivots)]
        St = [u for u in S0 if all(dot(u, p, q) == 0 for p in pivots)]
        D = len(St)
        assert len(Vt) == q ** (n - t)
        for u in Vt:
            degu = sum(1 for w in Vt if 1 <= hamming(u, w) <= d - 1)
            assert degu == D
        span = {zero}
        for p in pivots:
            span = {vadd(s, vscale(c, p, q), q) for s in span for c in range(q)}
        table = {}
        seen = set()
        for v in vecs:
            coset = frozenset(vadd(v, s, q) for s in span)
            if coset in seen:
                continue
            seen.add(coset)
            table[min(coset)] = char_sum(St, v, q)
        assert len(table) == q ** (n - t)
        assert sum(table.values()) == 0
        assert sum(x * x for x in table.values()) == len(Vt) * D
        assert table[zero] == D
        lam_min = min(table.values())
        if lam_min == 0:
            break
        argmin = min(rep for rep, val in table.items() if val == lam_min and rep != zero)
        lam_hist.append(lam_min)
        deg_hist.append(D)
        pivots.append(argmin)
        t += 1
        assert t <= n
    code = [u for u in vecs if all(dot(u, p, q) == 0 for p in pivots)]
    assert len(code) == q ** (n - t)
    mind = min((weight(u) for u in code if any(u)), default=None)
    return t, lam_hist, deg_hist, pivots, mind


def alpha_bruteforce(q, n, d):
    """Exact independence number by unpruned recursion; only for q^n <= 32."""
    vecs = all_vectors(q, n)
    N = len(vecs)
    assert N <= 32
    adj = [0] * N
    for i in range(N):
        for j in range(N):
            if i != j and 1 <= hamming(vecs[i], vecs[j]) <= d - 1:
                adj[i] |= 1 << j
    best = 0

    def expand(cand, size):
        nonlocal best
        if size + bin(cand).count("1") <= best:
            return
        if cand == 0:
            best = max(best, size)
            return
        v = (cand & -cand).bit_length() - 1
        expand(cand & ~adj[v] & ~(1 << v), size + 1)
        expand(cand & ~(1 << v), size)

    expand((1 << N) - 1, 0)
    return best


def vector_matrix(q, n):
    """All q^n vectors in rank order as a numpy int8 matrix."""
    N = q**n
    M = np.zeros((N, n), dtype=np.int8)
    ranks = np.arange(N)
    for col in range(n - 1, -1, -1):
        M[:, col] = ranks % q
        ranks //= q
    return M


def residue_counts_by_weight(q, n):
    """counts[w, r, j] = #{u : weight(u) = w, <u, v_j> = r} for every index j.

    Vectorized residue tallies of all inner products, bucketed by the weight
    shell of the left argument; summing shells 1..d-1 gives the counts over
    the level-0 difference set for any d at once.
    """
    M = vector_matrix(q, n).astype(np.int32)
    G = (M @ M.T) % q
    weights = (M != 0).sum(axis=1)
    N = q**n
    counts = np.zeros((n + 1, q, N), dtype=np.int64)
    for w in range(n + 1):
        rows = np.nonzero(weights == w)[0]
        block = G[rows]
        for r in range(q):
            counts[w, r] = (block == r).sum(axis=0)
    return counts, weights


def pairwise_distance_matrix(M):
    """Hamming distances between all row pairs of a digit matrix."""
    N, n = M.shape
    dist = np.zeros((N, N), dtype=np.int16)
    for col in range(n):
        dist += M[:, col : col + 1] != M[:, col][None, :]
    return dist


def character_sum_oracle(difference_set: Iterable[FqVector], v: FqVector) -> int:
    """Brute-force eigenvalue of the character indexed by ``v``.

    Counts how many elements of the difference set land in each inner-product
    residue class.  For a set closed under multiplication by every nonzero
    scalar the classes 1..q-1 must be equally populated, making the
    root-of-unity sum the exact integer c_0 - c_1; unequal counts mean the
    closure precondition fails and a ValueError is raised.
    """
    q = v.q
    counts = [0] * q
    for u in difference_set:
        counts[dot(u.digits, v.digits, q)] += 1
    if q > 2 and any(c != counts[1] for c in counts[2:]):
        raise ValueError(
            "difference set is not closed under nonzero scalar multiplication: "
            f"residue counts {counts} are unequal beyond residue 0"
        )
    return counts[0] - counts[1]


def gilbert_adjacency(params: GraphParams, budget: int | None = None) -> list[int]:
    """Adjacency bitmasks of the explicit Gilbert graph in rank order."""
    total = params.num_vertices
    check_budget(params.q, 2 * params.n, budget, f"explicit adjacency of G_({params.q},{params.n},{params.d})")
    vecs = list(enumerate_all(params.q, params.n))
    adj = [0] * total
    for i, u in enumerate(vecs):
        for j in range(i + 1, total):
            if 1 <= hamming_distance(u, vecs[j]) <= params.d - 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return adj


def _clique_cover_bound(cand: int, adj: list[int]) -> int:
    """Greedy clique cover size of the candidate set: an upper bound on its
    independence number, since an independent set meets each clique at most once."""
    covers = 0
    while cand:
        v = (cand & -cand).bit_length() - 1
        cand &= ~(1 << v)
        common = adj[v] & cand
        while common:
            u = (common & -common).bit_length() - 1
            cand &= ~(1 << u)
            common &= adj[u] & ~(1 << u)
        covers += 1
    return covers


def max_independent_set_oracle(params: GraphParams) -> tuple[int, frozenset[FqVector]]:
    """Exact independence number by branch and bound, for q^n <= 64.

    The returned size is deterministic; the witness is one maximizer.
    """
    total = params.num_vertices
    if total > EXACT_SEARCH_CAP:
        raise BudgetError(
            f"exact independence search is capped at {EXACT_SEARCH_CAP} vertices, got {total}"
        )
    adj = gilbert_adjacency(params)
    best_size = 0
    best_set = 0

    def expand(cand: int, chosen: int, size: int) -> None:
        nonlocal best_size, best_set
        if size > best_size:
            best_size, best_set = size, chosen
        if not cand or size + _clique_cover_bound(cand, adj) <= best_size:
            return
        v = (cand & -cand).bit_length() - 1
        bit = 1 << v
        expand(cand & ~adj[v] & ~bit, chosen | bit, size + 1)
        expand(cand & ~bit, chosen, size)

    expand((1 << total) - 1, 0, 0)
    witness = frozenset(
        from_rank(params.q, params.n, i) for i in range(total) if best_set >> i & 1
    )
    return best_size, witness


def reference_average(vals, q, tail, level):
    """Exact means of the q parents of every next-level entry, one entry at a time.

    ``vals`` is a dense level table, ``tail`` the monic pivot's digits after
    its leading free column.  The q = 2 XOR-mask loop and the q > 2
    permutation-table loop are the descent's former averaging code.
    """
    k = len(tail)
    low_count = q**k
    stride = q * low_count
    high_count = len(vals) // stride
    out = [0] * (high_count * low_count)

    if q == 2:
        mask = 0
        for x in tail:
            mask = (mask << 1) | x
        idx = 0
        for hi in range(high_count):
            b0 = hi * stride
            b1 = b0 + low_count
            for lo in range(low_count):
                s = vals[b0 + lo] + vals[b1 + (lo ^ mask)]
                if s & 1:
                    raise DivisibilityError(
                        f"level {level}: eigenvalue sum {s} is not divisible by 2"
                    )
                out[idx] = s >> 1
                idx += 1
    else:
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
                        f"level {level}: eigenvalue sum {s} is not divisible by {q}"
                    )
                out[idx] = div
                idx += 1
    return tuple(out)


def index_of(table, v):
    """Dense position of a canonical representative of ``table``'s level:
    its free digits, base q.  A vector nonzero at a pivot column is refused."""
    digits, index = table._canonical_digits(v), 0
    for col in table.free_cols:
        index = index * table.params.q + digits[col]
    return index


def lambda_history(trace):
    """Each level's minimum eigenvalue, in level order."""
    return tuple(rec.lambda_min for rec in trace.levels)


def degree_history(trace):
    """Each level's degree, in level order (the final, edgeless level's is 0)."""
    return tuple(rec.degree for rec in trace.levels)


def pivot_orthogonality(trace):
    """Per level, whether its pivot is orthogonal to every earlier pivot."""
    rows = trace.parity_rows
    return tuple(all(dot(p.digits, prev.digits, p.q) == 0 for prev in rows[:t]) for t, p in enumerate(rows))


def dense_minimum(table):
    """The least of ``table.densify().values`` after the zero index (the
    degree if none) and the first index holding it, by a scan of the values."""
    values = table.densify().values
    value = min(values[1:], default=values[0])
    return value, table.vector_at(values.index(value, 1) if len(values) > 1 else 0)


def dense_descend(table, pivot):
    """The next level's dense values, by ``reference_average`` of ``table.densify().values``,
    as a table that sets ``values`` and its pivot and free columns alone.

    The pivot is checked as the descent checks it (nonzero, canonical, at
    the level minimum), the value at it looked up by its index; ``tail``
    holds the monic pivot's free digits after its leading column.
    """
    table = table.densify()
    if pivot.is_zero:
        raise ValueError("pivot must be nonzero")
    value, least = table.values[index_of(table, pivot)], dense_minimum(table)[0]
    if value != least:
        raise ValueError(f"pivot eigenvalue {value} is not the level minimum {least}")
    q, free = table.params.q, table.free_cols
    lead, tail = pivot_tail(table, pivot)
    values = reference_average(table.values, q, tail, table.level)
    return SpectrumTable(
        table.params, table.pivots + (pivot,), values, pivot_cols=table.pivot_cols + (free[lead],), free_cols=free[:lead] + free[lead + 1 :]
    )


def pivot_tail(table, pivot):
    """The position of ``pivot``'s leading column among ``table``'s free
    columns, and the monic pivot's free digits after it (``reference_average``'s ``tail``)."""
    q, free = table.params.q, table.free_cols
    lead = free.index(_lead_col(pivot))
    inv = pow(pivot.digits[free[lead]], -1, q)
    return lead, [inv * pivot.digits[c] % q for c in free[lead + 1 :]]


def parent_sums(table, pivot):
    """The sum of the q parent values of every entry of the level below
    ``table`` along ``pivot``, in dense order and not divided: ``reference_average``
    of q times ``table``'s dense values."""
    q = table.params.q
    return reference_average([q * x for x in table.densify().values], q, pivot_tail(table, pivot)[1], table.level)


def dense_descent(params):
    """Algorithm 1 on dense values: ``[(table, record)]`` for t = 0..s, as
    ``list(descend(params))`` gives them, each pivot the ``dense_minimum``,
    each degree ``values[0]`` and each next level ``dense_descend``."""
    table, minima, levels = build_spectrum_level0(params).densify(), [], []
    value, pivot = dense_minimum(table)
    while value:
        minima.append(value)
        bound = descent_bound(params, minima)
        levels.append((table, LevelRecord(table.level, pivot, value, table.values[0], bound)))
        table = dense_descend(table, pivot)
        value, pivot = dense_minimum(table)
    return levels + [(table, None)]


def reference_dense_level0(lam_w, q, n):
    """Dense level-0 values from per-weight eigenvalues, one expression per entry."""
    total = q**n
    if q == 2:
        return tuple(lam_w[i.bit_count()] for i in range(total))
    weights = [0] * total
    for i in range(1, total):
        weights[i] = weights[i // q] + (1 if i % q else 0)
    return tuple(lam_w[w] for w in weights)


def kernel_bruteforce(q, n, rows):
    """Every vector of F_q^n orthogonal to every row, scanned in rank order."""
    return [v for v in all_vectors(q, n) if all(dot(v, row, q) == 0 for row in rows)]


def reference_rref(rows, q):
    """Reduced row-echelon form of digit tuples mod q, row by row on lists:
    the library's former list RREF, kept as the oracle for
    ``modq.back_substitute(modq.forward_eliminate(...))``.

    Returns (rref_rows, pivot_cols); zero rows are dropped, each surviving
    row has a leading 1 in a distinct pivot column and zeros in every other
    row's pivot column.
    """
    work = [list(r) for r in rows]
    out = []
    pivot_cols = []
    for row in work:
        # eliminate with existing pivots
        for prow, col in zip(out, pivot_cols):
            c = row[col]
            if c:
                row[:] = [(a - c * b) % q for a, b in zip(row, prow)]
        lead = next((i for i, x in enumerate(row) if x), None)
        if lead is None:
            continue
        inv = pow(row[lead], -1, q)
        row[:] = [(inv * a) % q for a in row]
        # back-eliminate the new column from existing rows
        for prow in out:
            c = prow[lead]
            if c:
                prow[:] = [(a - c * b) % q for a, b in zip(prow, row)]
        out.append(row)
        pivot_cols.append(lead)
    order = sorted(range(len(out)), key=pivot_cols.__getitem__)
    return [tuple(out[i]) for i in order], [pivot_cols[i] for i in order]


def reference_kernel_basis(rref_rows, pivot_cols, q, n):
    """A basis of the joint kernel of ``reference_rref``'s rows, as digit
    tuples: one vector per free column f, 1 at f, -row[f] at each pivot
    column, 0 elsewhere, in increasing free-column order."""
    free_cols = [c for c in range(n) if c not in pivot_cols]
    basis = []
    for f in free_cols:
        vec = [0] * n
        vec[f] = 1
        for row, col in zip(rref_rows, pivot_cols):
            vec[col] = (-row[f]) % q
        basis.append(tuple(vec))
    return basis


def reference_monic_combinations(slots, basis, most):
    """Per k from 1 to ``most``, every combination of k of the packed
    ``basis`` words whose first coefficient is 1, one word per choice of k
    indices and of the other k - 1 coefficients in 1..q-1, summed with
    ``_Slots.scale`` and ``_Slots.add``: the oracle for
    ``modq._monic_combinations``, one list per layer."""
    layers = []
    for k in range(1, most + 1):
        layer = []
        for chosen in itertools.combinations(basis, k):
            for coeffs in itertools.product(range(1, slots.q), repeat=k - 1):
                word = chosen[0]
                for vec, c in zip(chosen[1:], coeffs):
                    word = slots.add(word, slots.scale(vec, c))
                layer.append(word)
        layers.append(layer)
    return layers


def reference_codewords(code, budget=None):
    """All q^(n-s) vectors orthogonal to every parity row, zero included."""
    check_budget(code.q, code.dimension, budget, f"codeword enumeration of a [{code.n}, {code.dimension}] code")
    q, n = code.q, code.n
    basis = reference_kernel_basis(*reference_rref(parity_digits(code), q), q, n)
    words = [FqVector(q, (0,) * n)]
    for vec in basis:
        multiples = [vscale(c, vec, q) for c in range(1, q)]
        words += [FqVector(q, vadd(w.digits, m, q)) for m in multiples for w in words]
    return words


def _poly_divmod(num, den, q):
    """Quotient and remainder of polynomials over F_q, coefficients lowest degree first."""
    num = list(num)
    inv = pow(den[-1], -1, q)
    quot = [0] * max(len(num) - len(den) + 1, 0)
    for i in range(len(quot) - 1, -1, -1):
        c = num[i + len(den) - 1] * inv % q
        quot[i] = c
        for j, b in enumerate(den):
            num[i + j] = (num[i + j] - c * b) % q
    return quot, num[: len(den) - 1]


def cyclic_parity_rows(q, n, generator):
    """Parity rows of the length-n cyclic code generated by ``generator`` (lowest degree first).

    With h = (x^n - 1)/g, the dual code is cyclic with generator the
    reciprocal of h, so its s = deg g shifts are independent parity rows.
    """
    h, rem = _poly_divmod([q - 1] + [0] * (n - 1) + [1], generator, q)
    assert not any(rem), "generator does not divide x^n - 1"
    recip = h[::-1]
    s = len(generator) - 1
    return [tuple([0] * i + recip + [0] * (s - 1 - i)) for i in range(s)]


def extended_parity_rows(rows):
    """Parity rows of the code extended by one digit making every codeword's digit sum 0."""
    return [row + (0,) for row in rows] + [(1,) * (len(rows[0]) + 1)]


def hamming_parity_rows(m):
    """Parity rows of the binary [2^m - 1, 2^m - 1 - m, 3] Hamming code: column j is j + 1 in binary."""
    return [tuple(((j + 1) >> i) & 1 for j in range(2**m - 1)) for i in range(m)]


_GOLAY23 = cyclic_parity_rows(2, 23, [1, 0, 1, 0, 1, 1, 1, 0, 0, 0, 1, 1])

# name -> (q, n, k, d, parity rows), built from each code's generator polynomial.
CLASSICAL_CODES = {
    "hamming_7_4_3": (2, 7, 4, 3, cyclic_parity_rows(2, 7, [1, 1, 0, 1])),
    "hamming_15_11_3": (2, 15, 11, 3, cyclic_parity_rows(2, 15, [1, 1, 0, 0, 1])),
    "golay_23_12_7": (2, 23, 12, 7, _GOLAY23),
    "golay_24_12_8": (2, 24, 12, 8, extended_parity_rows(_GOLAY23)),
    "ternary_golay_11_6_5": (3, 11, 6, 5, cyclic_parity_rows(3, 11, [2, 0, 1, 2, 1, 1])),
}

"""Packed RREF and kernel basis against the list oracle on digit tuples."""

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from gvgraph import modq
from gvgraph.modq import _Slots
from helpers import reference_kernel_basis, reference_pack, reference_rref

PRIMES = [2, 3, 5, 7, 13, 17, 257]


@st.composite
def matrices(draw):
    """(q, n, rows): random rows, some zero, some combinations of rows drawn before them."""
    q = draw(st.sampled_from(PRIMES))
    n = draw(st.integers(1, 9))
    # Extreme digits often, so slot sums reach 2q - 2.
    digit = st.one_of(st.integers(0, q - 1), st.sampled_from([0, 1, q - 1]))
    rows = draw(st.lists(st.tuples(*[digit] * n), max_size=6))
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
        a, b = draw(digit), draw(digit)
        rows.insert(draw(st.integers(0, len(rows))), tuple((a * x + b * y) % q for x, y in zip(rows[i], rows[j])))
    return q, n, rows


class TestPackedRows:
    @settings(max_examples=200, deadline=None)
    @given(matrices())
    @example((2, 4, []))  # s = 0
    @example((3, 3, [(0, 0, 0), (1, 2, 0), (0, 0, 0)]))  # zero rows
    @example((5, 4, [(1, 2, 3, 4), (2, 4, 1, 3), (0, 1, 1, 0), (1, 3, 4, 4)]))  # dependent rows
    # q = 17: 16 + 16 is exactly the guard bit of a slot (w = 6), and
    # clearing a pivot slot sums c + (17 - c) = 17, which the bias lifts to it.
    @example((17, 2, [(1, 16), (16, 16)]))
    @example((257, 3, [(0, 256, 1), (0, 1, 256), (256, 0, 0)]))
    def test_packed_rref_and_kernel_basis_equal_the_list_oracle(self, case):
        q, n, rows = case
        slots = _Slots(q, n)
        packed, cols = modq.rref([slots.pack(row) for row in rows], slots)
        want_rows, want_cols = reference_rref(rows, q)
        assert [slots.unpack(x) for x in packed] == want_rows
        assert cols == want_cols
        assert modq.rank([slots.pack(row) for row in rows], slots) == len(want_rows)
        basis = modq.kernel_basis(packed, cols, slots)
        assert [slots.unpack(x) for x in basis] == reference_kernel_basis(want_rows, want_cols, q, n)
        # Every word stays reduced: no guard bit is left set.
        assert not any(x & slots.high for x in packed + basis)

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(PRIMES).flatmap(lambda q: st.tuples(st.just(q), st.lists(st.integers(0, q - 1), min_size=1, max_size=9))))
    def test_slot_arithmetic(self, case):
        q, digits = case
        slots = _Slots(q, len(digits))
        word = slots.pack(digits)
        assert slots.unpack(word) == tuple(digits)
        assert list(slots.weights([word])) == [sum(1 for x in digits if x)]
        assert [slots.unpack(m) for m in slots.multiples(word)] == [tuple(c * x % q for x in digits) for c in range(1, q)]
        for c in (1, q - 1, q // 2 + 1):
            assert slots.unpack(slots.scale(word, c)) == tuple(c * x % q for x in digits)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([2, 3, 5, 7, 11]), st.integers(0, 2000), st.integers(0, 2**32))
    @example(2, 0, 0)  # the empty word
    def test_pack_equals_the_shift_sum(self, q, n, seed):
        rng, slots = random.Random(seed), _Slots(q, n)
        for digits in ([rng.randrange(q) for _ in range(n)], [q - 1] * n, [0] * n):
            assert slots.pack(digits) == reference_pack(digits, slots.w)
            assert slots.unpack(slots.pack(digits)) == tuple(digits)


def test_binary_rref_on_a_dense_matrix():
    # 26 x 32 over F_2: 20 dense random rows and 6 sums of some of them,
    # shuffled, so rows fall to zero after several XORs each.
    slots = _Slots(2, 32)
    for seed in range(5):
        rng = random.Random(seed)
        rows = [tuple(rng.randrange(2) for _ in range(32)) for _ in range(20)]
        for _ in range(6):
            picked = rng.sample(rows[:20], rng.randint(2, 6))
            rows.append(tuple(sum(col) % 2 for col in zip(*picked)))
        rng.shuffle(rows)
        packed, cols = modq.rref([slots.pack(row) for row in rows], slots)
        want_rows, want_cols = reference_rref(rows, 2)
        assert len(want_rows) <= 20
        assert [slots.unpack(x) for x in packed] == want_rows
        assert cols == want_cols
        assert not any(x & slots.high for x in packed)

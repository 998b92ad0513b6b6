"""Packed RREF and kernel basis against the list oracle on digit tuples."""

import math
import random
import tracemalloc
from array import array
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gvgraph import modq
from gvgraph.modq import _Slots
from helpers import reference_kernel_basis, reference_monic_combinations, reference_pack, reference_rref

PRIMES = [2, 3, 5, 7, 13, 17, 257]


@st.composite
def matrices(draw, primes=PRIMES, max_span=None):
    """(q, n, rows): random rows, some zero, some combinations of rows drawn
    before them.  With ``max_span``, at most log_q(max_span) rows are drawn
    before the combinations, so the rows span at most that many words."""
    q = draw(st.sampled_from(primes))
    n = draw(st.integers(1, 9))
    # Extreme digits often, so slot sums reach 2q - 2.
    digit = st.one_of(st.integers(0, q - 1), st.sampled_from([0, 1, q - 1]))
    most = 6 if max_span is None else max(r for r in range(7) if q**r <= max_span)
    rows = draw(st.lists(st.tuples(*[digit] * n), max_size=most))
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
        packed, cols = modq.back_substitute(modq.forward_eliminate([slots.pack(row) for row in rows], slots), slots)
        want_rows, want_cols = reference_rref(rows, q)
        assert [slots.unpack(x) for x in packed] == want_rows
        assert cols == want_cols
        assert modq.rank([slots.pack(row) for row in rows], slots) == len(want_rows)
        basis = modq.kernel_basis(packed, cols, slots)
        assert [slots.unpack(x) for x in basis] == reference_kernel_basis(want_rows, want_cols, q, n)
        # Every word stays in its n slots and, for q > 2, reduced: no guard
        # bit is left set.  (For q = 2 a slot is one bit, with no guard bit.)
        assert not any(x >> (slots.w * n) for x in packed + basis)
        if q > 2:
            assert not any(x & slots.high for x in packed + basis)

    @settings(max_examples=200, deadline=None)
    @given(matrices(primes=[2, 3, 5, 7], max_span=4096))
    @example((2, 4, []))
    @example((7, 3, [(1, 2, 3), (2, 4, 6), (0, 6, 1), (3, 0, 0)]))  # a row twice a row before it
    def test_forward_then_backward_is_the_rref(self, case):
        # The forward phase keeps one row per unit of rank; the back
        # substitution brings those rows to the RREF; and the echelon rows
        # span words of the same weights as the RREF rows, which is what
        # the dual route of ``codes.min_distance`` weighs.
        q, n, rows = case
        slots = _Slots(q, n)
        want_rows, want_cols = reference_rref(rows, q)
        pivots = modq.forward_eliminate([slots.pack(row) for row in rows], slots)
        assert len(pivots) == len(want_rows)
        packed, cols = modq.back_substitute(pivots, slots)
        assert [slots.unpack(x) for x in packed] == want_rows and cols == want_cols
        echelon = [row for _, row, _ in pivots]
        assert Counter(modq._span_weights(slots, echelon)) == Counter(modq._span_weights(slots, packed))

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
        packed, cols = modq.back_substitute(modq.forward_eliminate([slots.pack(row) for row in rows], slots), slots)
        want_rows, want_cols = reference_rref(rows, 2)
        assert len(want_rows) <= 20
        assert [slots.unpack(x) for x in packed] == want_rows
        assert cols == want_cols
        assert not any(x >> 32 for x in packed)  # no bit past the 32 one-bit slots


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 300).flatmap(lambda n: st.tuples(*[st.lists(st.integers(0, 1), min_size=n, max_size=n)] * 2)))
def test_binary_words_are_bits_and_their_arithmetic_is_xor(case):
    # q = 2 packs one bit a digit, with no guard bit: bit i is digit i.
    a, b = case
    slots = _Slots(2, len(a))
    x, y = slots.pack(a), slots.pack(b)
    assert slots.w == 1
    assert x == sum(bit << i for i, bit in enumerate(a))
    assert slots.unpack(x) == tuple(a) and slots.unpack(y) == tuple(b)
    assert slots.add(x, y) == x ^ y
    assert slots.multiples(x) == [x]
    assert slots.plus_multiples(x, [0, y, x]) == [x, x ^ y, 0]
    assert [slots.scale(x, c) for c in (0, 1)] == [0, x]
    assert list(slots.weights([x, y])) == [sum(a), sum(b)]


def span_weights_list(slots, basis):
    """The weights of ``_span``'s words, one at a time: what ``_span_weights`` must give."""
    return list(slots.weights(modq._span(slots, basis)))


class TestSpanWeights:
    """``_span_weights`` against the words of ``_span`` weighed one by one, in order."""

    @pytest.mark.parametrize("q", [2, 3, 5, 7, 11, 13, 17, 19])
    def test_random_spans(self, q):
        # w is 1 to 6 bits a slot (q = 2: 1; q = 17 and 19: 6): n = 8 words
        # fill whole bytes, n = 1, 5, 7 and 33 words end inside a byte.  The
        # basis words are drawn with repeats from zero, all-(q-1) and random
        # words.
        rng = random.Random(q)
        for n in (1, 5, 7, 8, 12, 33):
            slots = _Slots(q, n)
            assert (slots.w * n % 8 == 0) == (n == 8 or (n == 12 and slots.w % 2 == 0))
            words = [0, slots.pack([q - 1] * n)] + [slots.pack([rng.randrange(q) for _ in range(n)]) for _ in range(4)]
            for k in range(5 if q <= 7 else 4):
                basis = [rng.choice(words) for _ in range(k)]
                weights = modq._span_weights(slots, basis)
                assert type(weights) is bytes
                assert list(weights) == span_weights_list(slots, basis), (n, k)

    def test_no_basis_word_is_one_zero_weight(self):
        for q, n in ((2, 1), (3, 8), (19, 300)):
            assert list(modq._span_weights(_Slots(q, n), [])) == [0]

    @pytest.mark.parametrize("q, n", [(2, 255), (2, 256), (2, 300), (3, 256), (5, 260), (17, 257)])
    def test_weights_past_255(self, q, n):
        rng = random.Random(n)
        slots = _Slots(q, n)
        basis = [slots.pack([1] * n), slots.pack([q - 1] * (n - 1) + [0])] + [slots.pack([rng.randrange(q) for _ in range(n)]) for _ in range(2)]
        weights = modq._span_weights(slots, basis)
        assert list(weights) == span_weights_list(slots, basis)
        assert max(weights) == n
        assert (type(weights) is bytes) == (n < 256)

    @pytest.mark.parametrize("n", [127, 128, 129, 159, 160, 161])
    def test_binary_weights_at_the_packed_boundary(self, n):
        # From n = 128 on a field's weight sets the top bit of its low byte,
        # which must not carry into the next field.  n = 160 (20 bytes) is
        # the longest binary word weighed packed; n = 161 is weighed one int
        # per word.
        slots = _Slots(2, n)
        assert ((n + 7) // 8 <= modq._PACKED_BYTES) == (n <= 160)
        for seed in range(3):
            rng = random.Random(n * 10 + seed)
            basis = [slots.pack([1] * n)] + [slots.pack([rng.randrange(2) for _ in range(n)]) for _ in range(12)]
            rng.shuffle(basis)
            weights = modq._span_weights(slots, basis)
            assert type(weights) is bytes
            assert list(weights) == span_weights_list(slots, basis)
            assert max(weights) == n

    @pytest.mark.parametrize("packed", [16, 0])
    @pytest.mark.parametrize("cap", [1, 2, 5, 9, 40, 100, 400, 4000])
    @pytest.mark.parametrize("q", [2, 3, 5, 17])
    def test_many_chunks(self, monkeypatch, q, cap, packed):
        # A bundle of at most ``cap`` bytes of words, shifted by every
        # combination of the remaining words: one chunk per combination.
        # n = 300 words are weighed one int each; so are n = 4 and 9 when
        # no word counts as short (``_PACKED_BYTES`` = 0).
        monkeypatch.setattr(modq, "_WEIGH_BYTES", cap)
        monkeypatch.setattr(modq, "_PACKED_BYTES", packed)
        rng = random.Random(q * 100 + cap)
        for n in (4, 9, 300):
            slots = _Slots(q, n)
            basis = [slots.pack([rng.randrange(q) for _ in range(n)]) for _ in range(5 if q <= 3 else 3)]
            assert list(modq._span_weights(slots, basis)) == span_weights_list(slots, basis)

    @pytest.mark.parametrize("q, n", [(2, 3000), (3, 1500), (2, 600_000)])
    def test_long_words(self, q, n):
        # Under the real cap a bundle holds 2^7 words of 3,000 one-bit slots
        # (375 bytes) or 3^4 words of 1,500 3-bit slots (563 bytes); a word
        # of 600,000 slots (75,000 bytes) overfills the cap alone, so each
        # chunk is one word.
        rng = random.Random(n)
        slots = _Slots(q, n)
        k = 8 if n < 10_000 else 2
        basis = [slots.pack([rng.randrange(q) for _ in range(n)]) for _ in range(k)]
        assert list(modq._span_weights(slots, basis)) == span_weights_list(slots, basis)

    @pytest.mark.parametrize("q, n, k", [(2, 40, 16), (3, 20, 10), (2, 2000, 13)])
    def test_memory_stays_near_the_cap(self, q, n, k):
        # 2^16 words of 5 bytes, 3^10 of 8 bytes, 2^13 of 250 bytes: as a
        # list of ints they would take 2.6, 2.4 and 2.5 MB.  About ten ints
        # of a chunk's size are alive at once, each at most the cap.
        rng = random.Random(n)
        slots = _Slots(q, n)
        basis = [slots.pack([rng.randrange(q) for _ in range(n)]) for _ in range(k)]
        tracemalloc.start()
        try:
            weights = modq._span_weights(slots, basis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(weights) == q**k
        out = len(weights) * (weights.itemsize if isinstance(weights, array) else 1)
        assert peak < 16 * modq._WEIGH_BYTES + out


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([2, 3, 5, 7]).flatmap(
        lambda q: st.integers(1, 8).flatmap(
            lambda n: st.tuples(st.just(q), st.just(n), st.lists(st.lists(st.integers(0, q - 1), min_size=n, max_size=n), max_size=5))
        )
    ),
    st.integers(1, 4),
)
@example((3, 3, [[1, 2, 0], [2, 1, 0], [1, 2, 0], [0, 0, 0]]), 3)  # dependent basis words, a zero among them
def test_monic_combinations_match_the_reference(cell, most):
    # The reference sums each combination from its coefficients; the
    # frontier grows one layer from the last.  Each layer holds the same
    # words, the combinations of fewer words coming first.
    q, n, rows = cell
    slots = _Slots(q, n)
    basis = [slots.pack(row) for row in rows]
    found = modq._monic_combinations(slots, basis, most)
    layers = reference_monic_combinations(slots, basis, most)
    assert len(found) == sum(math.comb(len(basis), k) * (q - 1) ** (k - 1) for k in range(1, most + 1))
    start = 0
    for k, layer in enumerate(layers, 1):
        end = start + len(layer)
        assert sorted(found[start:end]) == sorted(layer), k
        start = end

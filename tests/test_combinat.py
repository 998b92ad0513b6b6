from decimal import Decimal
from fractions import Fraction
from math import comb, gcd, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gvgraph import GraphParams, asymptotic_gv, ball_volume, is_prime
from gvgraph.bounds import _ln
from gvgraph.combinat import krawtchouk_column, krawtchouk_row
from helpers import all_vectors, ball_volume_brute, krawtchouk, krawtchouk_genfunc, mpmath_rate, weight

# 50 significant digits, frozen from an independent mpmath evaluation.
H2_QUARTER = Decimal("0.81127812445913286390969579203913761843013919423064")


def test_is_prime_small_values():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31}
    for m in range(-3, 32):
        assert is_prime(m) == (m in primes)


def test_is_prime_agrees_with_trial_division_below_1e5():
    def trial_division(m):
        return m >= 2 and all(m % f for f in range(2, isqrt(m) + 1))

    assert all(is_prime(m) == trial_division(m) for m in range(10**5))


def test_is_prime_large_values():
    # Strong pseudoprimes to the bases 2, 3, 5, 7 (3215031751) and to every
    # prime base up to 31 (3825123056546413051), and a product of two primes.
    for m in (3215031751, 3825123056546413051, (10**9 + 7) * (10**9 + 9)):
        assert not is_prime(m)
    for m in (10**18 + 3, 2**61 - 1):
        assert is_prime(m)


def test_is_prime_refuses_beyond_the_exact_bound():
    # 2^89 - 1 is a Mersenne prime above 3.317e24, where the 13 bases are not
    # proven exact; a composite with a small factor is still decided.
    with pytest.raises(ValueError, match="cannot decide primality"):
        is_prime(2**89 - 1)
    assert not is_prime(3 * (2**89 - 1))


class TestGraphParams:
    def test_rejects_composite_q(self):
        for q in (1, 4, 6, 8, 9, 10, 12):
            with pytest.raises(ValueError, match="q must be prime"):
                GraphParams(q, 4, 2)

    def test_rejects_bad_n_and_d(self):
        with pytest.raises(ValueError):
            GraphParams(2, 0, 1)
        with pytest.raises(ValueError):
            GraphParams(2, 4, 0)
        with pytest.raises(ValueError):
            GraphParams(2, 4, 6)

    def test_degenerate_flags(self):
        assert GraphParams(2, 4, 1).is_edgeless
        assert GraphParams(2, 4, 5).is_complete
        p = GraphParams(2, 4, 3)
        assert not p.is_edgeless and not p.is_complete
        assert p.num_vertices == 16

    def test_degree_matches_neighbor_count(self):
        p = GraphParams(2, 7, 3)
        assert p.degree == 28
        assert GraphParams(3, 3, 2).degree == 6


class TestKrawtchouk:
    def test_anchors(self):
        assert krawtchouk(2, 3, 6, 2) == -3
        for q in (2, 3, 5):
            for x in range(0, 7):
                assert krawtchouk(0, x, 6, q) == 1

    def test_x_zero_closed_form(self):
        for q in (2, 3, 5):
            for n in (4, 7):
                for k in range(n + 1):
                    assert krawtchouk(k, 0, n, q) == comb(n, k) * (q - 1) ** k

    def test_rejects_x_outside_range(self):
        with pytest.raises(ValueError):
            krawtchouk(1, -1, 4, 2)
        with pytest.raises(ValueError):
            krawtchouk(1, 5, 4, 2)

    def test_matches_generating_function_expansion(self):
        # Second, independent evaluation route over the full identity grid.
        for q in (2, 3, 5):
            for n in range(1, 13):
                for x in range(n + 1):
                    for k in range(n + 1):
                        assert krawtchouk(k, x, n, q) == krawtchouk_genfunc(k, x, n, q)

    def test_summation_identity(self):
        # sum_{k<d} K_k(x; n, q) telescopes to K_{d-1}(x-1; n-1, q).
        for q in (2, 3, 5):
            for n in range(2, 13):
                for d in range(1, n + 1):
                    for x in range(1, n + 1):
                        total = sum(krawtchouk(k, x, n, q) for k in range(d))
                        assert total == krawtchouk(d - 1, x - 1, n - 1, q)


class TestKrawtchoukRow:
    """The recurrence in x against the explicit sum, which stays the oracle."""

    @pytest.mark.parametrize("q", [2, 3, 5, 7])
    def test_matches_explicit_sum(self, q):
        for n in range(16):
            for k in range(n + 2):
                assert krawtchouk_row(k, n, q) == [krawtchouk(k, x, n, q) for x in range(n + 1)]

    def test_long_row_at_a_few_points(self):
        row = krawtchouk_row(1499, 2999, 2)
        assert len(row) == 3000
        for x in (0, 1, 2, 1499, 2998, 2999):
            assert row[x] == krawtchouk(1499, x, 2999, 2)

    def test_rejects_negative_arguments(self):
        with pytest.raises(ValueError):
            krawtchouk_row(-1, 4, 2)
        with pytest.raises(ValueError):
            krawtchouk_row(1, -1, 2)


class TestKrawtchoukColumn:
    """The recurrence in k against the explicit sum."""

    @pytest.mark.parametrize("q", [2, 3, 5, 7])
    def test_matches_explicit_sum(self, q):
        for n in range(14):
            for x in range(n + 1):
                assert list(krawtchouk_column(x, n, q)) == [krawtchouk(k, x, n, q) for k in range(n + 1)]

    def test_rejects_x_outside_0_to_n(self):
        for x in (-1, 5):
            with pytest.raises(ValueError):
                next(krawtchouk_column(x, 4, 2))


class TestBallVolume:
    def test_anchors(self):
        assert ball_volume(GraphParams(2, 7, 3), 2) == 29
        for q, n in ((2, 5), (3, 4), (5, 3)):
            p = GraphParams(q, n, 2)
            assert ball_volume(p, 0) == 1
            assert ball_volume(p, n) == q**n

    def test_rejects_radius_out_of_range(self):
        p = GraphParams(2, 5, 2)
        with pytest.raises(ValueError):
            ball_volume(p, -1)
        with pytest.raises(ValueError):
            ball_volume(p, 6)

    def test_matches_exhaustive_enumeration(self):
        # full q^n <= 10^4 coverage at the largest cells
        for q, n in ((2, 7), (2, 13), (3, 8), (5, 5), (7, 4)):
            counts = [0] * (n + 1)
            for v in all_vectors(q, n):
                counts[weight(v)] += 1
            running = 0
            p = GraphParams(q, n, 2)
            for r in range(n + 1):
                running += counts[r]
                assert ball_volume(p, r) == running

    def test_matches_binomial_sum_at_large_n(self):
        for q, n, r in ((2, 3000, 1499), (3, 500, 321), (7, 200, 200)):
            assert ball_volume(GraphParams(q, n, 2), r) == ball_volume_brute(q, n, r)


class TestEntropy:
    """The q-ary entropy h_q through the one value it feeds, the rate 1 - h_q(delta)."""

    def test_zero_by_continuity(self):
        for q in (2, 3, 5):
            assert asymptotic_gv(q, 0) == 1
            assert str(asymptotic_gv(q, 0)) == "1"

    def test_quarter_anchor_to_50_digits(self):
        from decimal import localcontext

        rate = asymptotic_gv(2, Fraction(1, 4))
        assert len(rate.as_tuple().digits) == 50
        with localcontext() as ctx:
            ctx.prec = 100
            assert rate + H2_QUARTER == 1

    def test_cached_logarithms_equal_fresh_ones(self):
        from decimal import ROUND_DOWN, localcontext

        for k in (1, 2, 3, 5, 7, 100, 101, 10**30 + 57):
            for prec in (11, 60, 80):
                with localcontext() as ctx:
                    ctx.prec = prec
                    fresh = Decimal(k).ln()
                    ctx.rounding = ROUND_DOWN  # ln ignores the rounding mode
                    assert _ln(k, prec) == fresh
                    assert str(_ln(k, prec)) == str(fresh)

    def test_is_correctly_rounded_on_the_grid(self):
        """Every delta = a/b < 1 - 1/q with b <= 160, for q <= 13: mpmath's
        value rounded half-even to 50 digits, digit for digit.  The former
        routine, which rounded h, then 1 - h, then the rate, was wrong at 19
        of these cells."""
        pytest.importorskip("mpmath")
        grid = [(a, b) for b in range(1, 161) for a in range(b) if gcd(a, b) == 1]
        cells = [(q, Fraction(a, b)) for q in (2, 3, 5, 7, 11, 13) for a, b in grid if a * q < b * (q - 1)]
        assert [str(asymptotic_gv(q, x)) for q, x in cells] == [str(mpmath_rate(q, x)) for q, x in cells]

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from((2, 3, 5, 7, 11, 13)),
        st.integers(1, 10**6).flatmap(lambda b: st.tuples(st.integers(0, b), st.just(b))),
    )
    def test_is_correctly_rounded_up_to_a_denominator_of_a_million(self, q, ab):
        """Each a/b at or above 1 - 1/q is taken one step of 1/(qb) below it,
        where the cancellation is deepest."""
        pytest.importorskip("mpmath")
        a, b = ab
        x = min(Fraction(a, b), 1 - Fraction(1, q) - Fraction(1, q * b))
        assert str(asymptotic_gv(q, x)) == str(mpmath_rate(q, x))

    @pytest.mark.parametrize("q, x", [(2, Fraction(1, 2**200)), (2, Fraction(1, 10**80)), (3, Fraction(7, 10**70))])
    def test_tiny_x_against_mpmath_at_400_digits(self, q, x):
        """Right to the last of 50 digits, where a routine that rounded 1 - x
        to 60 digits was wrong in h from the third."""
        pytest.importorskip("mpmath")
        assert str(asymptotic_gv(q, x)) == str(mpmath_rate(q, x, dps=400))

    @pytest.mark.parametrize(
        "q, x",
        [
            (2, Fraction(1, 2) - Fraction(1, 10**12)),
            (2, Fraction(1499, 2999)),
            (7, Fraction(6, 7) - Fraction(1, 10**30)),
            (31, Fraction(96, 113)),
        ],
    )
    def test_near_the_top_every_digit_is_right(self, q, x):
        """Close to 1 - 1/q, where the former routine printed 32 or 48 digits,
        a wrong last digit, or 0E-54 for a rate of 2.1E-60."""
        pytest.importorskip("mpmath")
        rate = asymptotic_gv(q, x)
        assert len(rate.as_tuple().digits) == 50
        assert str(rate) == str(mpmath_rate(q, x, dps=200))

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            asymptotic_gv(2, Fraction(3, 4))
        with pytest.raises(ValueError):
            asymptotic_gv(2, Fraction(1, 2))
        with pytest.raises(ValueError):
            asymptotic_gv(2, Fraction(-1, 4))
        with pytest.raises(ValueError, match="q must be prime"):
            asymptotic_gv(4, Fraction(1, 4))
        with pytest.raises(TypeError):
            asymptotic_gv(2, 0.25)
        with pytest.raises(TypeError):
            asymptotic_gv(2, Decimal("0.25"))

    def test_mpmath_cross_check(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(60):
            for q, num, den in ((2, 1, 4), (2, 1, 3), (3, 1, 2), (5, 2, 3)):
                x = mpmath.mpf(num) / den
                expected = 1 - (
                    x * mpmath.log(q - 1, q)
                    - x * mpmath.log(x, q)
                    - (1 - x) * mpmath.log(1 - x, q)
                )
                got = asymptotic_gv(q, Fraction(num, den))
                assert abs(Decimal(mpmath.nstr(expected, 45)) - got) < Decimal("1e-40")

import contextlib
import dataclasses
import inspect
import io
import itertools
import math
import os
import random
import stat
import sys
import tempfile
from collections import Counter
from unittest import mock

import pytest
from hypothesis import assume, example, given, reject, settings
from hypothesis import strategies as st

from gvgraph import (
    INFINITE_DISTANCE,
    BudgetError,
    DivisibilityError,
    FqVector,
    GraphParams,
    LinearCode,
    PchkFormatError,
    format_pchk,
    min_distance,
    read_pchk,
    run_algorithm1,
    write_pchk,
)
from gvgraph import cli, codes, modq, spectrum
from gvgraph.codes import PCHK_MAGIC, parse_pchk
from helpers import (
    CLASSICAL_CODES,
    RealEigenvector,
    alpha_bruteforce,
    gilbert_adjacency,
    hamming,
    is_independent_set,
    kernel_bruteforce,
    max_independent_set_oracle,
    parity_digits,
    rank,
    reference_codewords,
    reference_kernel_basis,
    reference_parse_pchk,
    reference_rref,
    weight,
)

HAMMING_ROWS = ("0001111", "0110011", "1010101")


def make_code(q, rows):
    return LinearCode(q, len(rows[0]), tuple(FqVector(q, tuple(int(c) for c in r)) for r in rows))


def least_nonzero_weight(code):
    return min((weight(w.digits) for w in reference_codewords(code) if weight(w.digits)), default=INFINITE_DISTANCE)


@contextlib.contextmanager
def only_expected_route(code):
    """Fail if ``min_distance`` takes the other route: the dual one needs no
    kernel basis, the codeword one no Krawtchouk column."""

    def refuse(*args):
        raise AssertionError(f"min_distance took the wrong route for s = {code.s}, k = {code.dimension}")

    with mock.patch.object(codes, "kernel_basis" if code.s < code.dimension else "krawtchouk_column", refuse):
        yield


def dual_weights(code):
    """Weight counts of the q^s dual words, as the codewords of the code whose parity rows span ``code``."""
    q, n = code.q, code.n
    rows = parity_digits(code)
    generators = tuple(FqVector(q, v) for v in reference_kernel_basis(*reference_rref(rows, q), q, n))
    return Counter(weight(w.digits) for w in reference_codewords(LinearCode(q, n, generators)))


class TestLinearCode:
    def test_hamming_dimensions(self):
        code = make_code(2, HAMMING_ROWS)
        assert code.s == 3
        assert code.dimension == 4
        assert code.size == 16

    def test_rejects_dependent_rows(self):
        with pytest.raises(ValueError, match="linearly dependent"):
            make_code(2, ("1100", "0110", "1010"))

    def test_rejects_mismatched_rows(self):
        with pytest.raises(ValueError):
            LinearCode(2, 4, (FqVector(2, (1, 0, 0)),))


class TestMinDistance:
    def test_hamming_is_three(self):
        assert min_distance(make_code(2, HAMMING_ROWS)) == 3

    def test_whole_space_is_one(self):
        assert min_distance(LinearCode(2, 5, ())) == 1

    def test_trivial_code_is_infinite(self):
        code = make_code(2, ("10", "01"))
        assert min_distance(code) == INFINITE_DISTANCE
        assert min_distance(code) > 10**9

    def test_trivial_code_is_still_enumerated(self):
        code = make_code(2, ("10", "01"))
        with pytest.raises(BudgetError):
            min_distance(code, budget=0)
        assert min_distance(code, budget=1) == INFINITE_DISTANCE

    def test_matches_all_pairs_brute_force(self):
        for q, rows in [(2, HAMMING_ROWS), (3, ("0111", "1012")), (2, ("0011", "0101", "1000"))]:
            code = make_code(q, rows)
            words = reference_codewords(code)
            brute = min(
                hamming(u.digits, v.digits)
                for u, v in itertools.combinations(words, 2)
            )
            assert min_distance(code) == brute


# ``test_both_sides_agree`` weighs both sides of the codes with at most this many words on each.
AGREEMENT_CAP = 729

# Largest n with q^n <= 5000 for each q the brute-force kernel scan covers.
ORACLE_MAX_N = {2: 12, 3: 7, 5: 5, 7: 4, 13: 3, 17: 3}


@st.composite
def small_codes(draw):
    q = draw(st.sampled_from(sorted(ORACLE_MAX_N)))
    n = draw(st.integers(1, ORACLE_MAX_N[q]))
    s = draw(st.integers(0, n))
    digits = st.tuples(*[st.integers(0, q - 1)] * n)
    rows = draw(st.lists(digits, min_size=s, max_size=s))
    try:
        return LinearCode(q, n, tuple(FqVector(q, row) for row in rows))
    except ValueError:
        reject()


class TestPackedEnumeration:
    """``min_distance``'s packed weighing against a scan of all q^n vectors and the former loop's words.

    At q = 3, 5 and 17, q - 1 is a power of two, so two digits q - 1 sum
    to exactly 2^(w-1), the guard bit (q = 2 has one bit a digit and no
    guard bit).  The explicit examples with parity rows reach that sum in a
    pivot slot; every explicit example holds the all-(q-1) word, whose
    every slot sets the guard bit in the weight sum.
    The last two examples have s >= k and take the codeword route; the
    others take the dual route.
    """

    @settings(max_examples=150, deadline=None)
    @given(small_codes())
    @example(make_code(3, ("111111",)))
    @example(make_code(5, ("11111", "12340")))
    @example(LinearCode(17, 3, (FqVector(17, (1, 1, 15)),)))
    @example(make_code(2, ("1111111111",)))
    @example(LinearCode(17, 3, ()))
    @example(LinearCode(3, 7, ()))
    @example(make_code(5, ("1400", "0014")))
    @example(make_code(2, ("110", "011")))
    def test_matches_bruteforce_kernel(self, code):
        q, n = code.q, code.n
        oracle = kernel_bruteforce(q, n, parity_digits(code))
        with only_expected_route(code):
            distance = min_distance(code)
        assert distance == min((weight(v) for v in oracle if any(v)), default=INFINITE_DISTANCE)
        assert distance == least_nonzero_weight(code)

    @pytest.mark.parametrize(
        "cell", [(2, 10, 3), (2, 12, 5), (3, 6, 4), (5, 4, 3), (5, 6, 3), (7, 4, 3), (13, 3, 2), (17, 3, 2)]
    )
    def test_same_list_as_former_loop_on_constructed_codes(self, cell):
        params = GraphParams(*cell)
        code = LinearCode(params.q, params.n, run_algorithm1(params).parity_rows)
        with only_expected_route(code):
            distance = min_distance(code)
        assert distance == least_nonzero_weight(code)
        assert distance >= params.d

    @pytest.mark.parametrize(
        "rows, d, backward",
        [(HAMMING_ROWS, 3, 0), (("1100", "0110", "0011"), 4, 1)],
        ids=["dual", "codewords"],
    )
    def test_verify_eliminates_forward_once(self, monkeypatch, tmp_path, rows, d, backward):
        # One forward elimination per verify, the rank check; the back
        # substitution runs only where a kernel basis is needed.
        calls = []

        def counted(name, real):
            def call(*args):
                calls.append(name)
                return real(*args)

            return call

        for name in ("forward_eliminate", "back_substitute"):
            counted_phase = counted(name, getattr(modq, name))
            monkeypatch.setattr(modq, name, counted_phase)
            monkeypatch.setattr(codes, name, counted_phase)
        path = tmp_path / "code.pchk"
        write_pchk(str(path), make_code(2, rows))
        calls.clear()
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["verify", str(path), "-d", str(d)]) == 0
        assert calls == ["forward_eliminate"] + ["back_substitute"] * backward


def classical_code(name):
    q, n, k, d, rows = CLASSICAL_CODES[name]
    code = LinearCode(q, n, tuple(FqVector(q, row) for row in rows))
    assert code.dimension == k
    return code, d


class TestDualRoute:
    """``min_distance`` by the MacWilliams transform of the dual words when s < k."""

    @pytest.mark.parametrize("name", sorted(CLASSICAL_CODES))
    def test_classical_codes(self, name):
        code, d = classical_code(name)
        with only_expected_route(code):
            assert min_distance(code) == d
        assert least_nonzero_weight(code) == d

    @pytest.mark.parametrize("name", ["hamming_7_4_3", "hamming_15_11_3", "golay_23_12_7", "ternary_golay_11_6_5"])
    def test_krawtchouk_entry_off_by_one_raises(self, name):
        code, _ = classical_code(name)
        real = codes.krawtchouk_column
        for x in dual_weights(code):
            for delta in (1, -1):

                def off_by_one(y, n, q, x=x, delta=delta):
                    # K_j(x) off by delta for every j >= 1, the other columns exact.
                    return (k + delta * (y == x and j > 0) for j, k in enumerate(real(y, n, q)))

                with mock.patch.object(codes, "krawtchouk_column", off_by_one), pytest.raises(DivisibilityError):
                    min_distance(code)

    @pytest.mark.parametrize("name", ["hamming_7_4_3", "hamming_15_11_3", "golay_23_12_7", "ternary_golay_11_6_5"])
    def test_corrupted_dual_count_raises(self, name):
        code, d = classical_code(name)
        weights = dual_weights(code)
        assert sum(weights.values()) == code.q**code.s
        assert codes._distance_from_dual(weights, code.q, code.n, code.s) == d
        for x in range(code.n + 1):
            for delta in (1, -1):
                mutated = weights.copy()
                mutated[x] += delta
                with pytest.raises(DivisibilityError):
                    codes._distance_from_dual(mutated, code.q, code.n, code.s)
        # q^s more words of weight n keep every sum divisible and add K_1(n) = -n to A_1 = 0.
        mutated = weights.copy()
        mutated[code.n] += code.q**code.s
        with pytest.raises(DivisibilityError, match="weight 1 "):
            codes._distance_from_dual(mutated, code.q, code.n, code.s)

    def test_budget_is_checked_on_the_side_weighed(self):
        code, d = classical_code("hamming_15_11_3")
        assert min_distance(code, budget=16) == d
        with pytest.raises(BudgetError, match=r"^dual-word enumeration of a \[15, 11\] code needs 2\^4 table entries"):
            min_distance(code, budget=15)
        # k <= s: the codewords are the smaller side.
        short = make_code(2, ("1100", "0110", "0011"))
        assert min_distance(short, budget=2) == 4
        with pytest.raises(BudgetError, match=r"needs 2\^1 "):
            min_distance(short, budget=1)
        # The whole space (s = 0) is checked at q^n, though it has one dual word.
        with pytest.raises(BudgetError, match=r"^codeword enumeration of a \[5, 5\] code needs 2\^5 "):
            min_distance(LinearCode(2, 5, ()), budget=31)

    @settings(max_examples=100, deadline=None)
    @given(small_codes())
    def test_both_sides_agree(self, code):
        # Where both sides fit a small cap: the least nonzero codeword weight
        # equals the MacWilliams distance from the dual words' weight counts.
        q, n, s, k = code.q, code.n, code.s, code.dimension
        assume(k >= 1 and q**s <= AGREEMENT_CAP and q**k <= AGREEMENT_CAP)
        slots = code._slots
        words = modq._span(slots, modq.kernel_basis(*code._rref, slots))
        primal = min(slots.weights(words[1:]))
        dual = Counter(slots.weights(modq._span(slots, code._rref[0])))
        assert codes._distance_from_dual(dual, q, n, s) == primal
        assert min_distance(code) == primal

    def test_whole_space_counts_raise(self):
        # Counts proportional to the whole space's make every A_j with j >= 1 zero,
        # which no code of dimension n - s >= 1 has.
        weights = Counter({x: math.comb(7, x) for x in range(8)})
        with pytest.raises(DivisibilityError, match="no nonzero weight"):
            codes._distance_from_dual(weights, 2, 7, 3)


def repetition_code(q, n):
    """[n, 1, n]: parity rows e_0 - e_i, i = 1 .. n - 1."""
    rows = tuple(FqVector(q, tuple(1 if j == 0 else q - 1 if j == i else 0 for j in range(n))) for i in range(1, n))
    return LinearCode(q, n, rows)


def even_weight_code(n):
    """[n, n - 1, 2]: the binary words of even weight."""
    return LinearCode(2, n, (FqVector(2, (1,) * n),))


class TestMinDistanceOnBothRoutes:
    """``min_distance`` from the weights of a whole span, on the route the code takes."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: make_code(2, ("10", "01")),  # k = 0
            lambda: LinearCode(5, 3, tuple(FqVector(5, row) for row in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))),  # k = 0
            lambda: LinearCode(3, 4, ()),  # s = 0: dual route, one dual word
            lambda: LinearCode(2, 9, ()),  # s = 0
            lambda: make_code(2, HAMMING_ROWS),  # dual route
            lambda: make_code(2, ("1100", "0110", "0011")),  # codeword route
            lambda: make_code(5, ("1400", "0014")),
            lambda: repetition_code(2, 300),  # codeword route, weights past 255
            lambda: repetition_code(3, 260),
        ],
        ids=["k0_q2", "k0_q5", "s0_q3", "s0_q2", "hamming_7_4", "k1_s3", "q5", "repetition_300", "ternary_repetition_260"],
    )
    def test_against_reference_codewords(self, build):
        code = build()
        with only_expected_route(code):
            distance = min_distance(code)
        assert distance == min((weight(w.digits) for w in reference_codewords(code) if weight(w.digits)), default=INFINITE_DISTANCE)

    def test_long_codes_of_known_distance(self):
        assert min_distance(repetition_code(2, 300)) == 300
        assert min_distance(even_weight_code(300)) == 2

    @pytest.mark.parametrize(
        "q, n, s", [(2, 300, 6), (3, 257, 3), (2, 256, 7), (2, 300, 293), (3, 270, 265), (2, 100, 7), (2, 100, 90), (5, 40, 3), (5, 40, 34)]
    )
    def test_long_codes_against_the_word_list(self, q, n, s):
        # Words of more than 16 bytes, weighed one int each, on both routes
        # (weights past 255 from n = 256), against the span's words weighed one by one.
        rng = random.Random(n + s)
        code = LinearCode(q, n, tuple(FqVector(q, tuple(rng.randrange(q) for _ in range(n))) for _ in range(s)))
        slots = code._slots
        if s < code.dimension:
            want = codes._distance_from_dual(Counter(slots.weights(modq._span(slots, code._rref[0]))), q, n, s)
        else:
            want = min(slots.weights(modq._span(slots, modq.kernel_basis(*code._rref, slots))[1:]))
        with only_expected_route(code):
            assert min_distance(code) == want

    @pytest.mark.parametrize(
        "build, budget, message",
        [
            (lambda: classical_code("hamming_15_11_3")[0], 15, "dual-word enumeration of a [15, 11] code needs 2^4 table entries, exceeding the budget of 15"),
            (lambda: make_code(2, ("1100", "0110", "0011")), 1, "codeword enumeration of a [4, 1] code needs 2^1 table entries, exceeding the budget of 1"),
            (lambda: repetition_code(2, 300), 1, "codeword enumeration of a [300, 1] code needs 2^1 table entries, exceeding the budget of 1"),
            (lambda: even_weight_code(300), 1, "dual-word enumeration of a [300, 299] code needs 2^1 table entries, exceeding the budget of 1"),
            (lambda: LinearCode(2, 5, ()), 31, "codeword enumeration of a [5, 5] code needs 2^5 table entries, exceeding the budget of 31"),
            (lambda: make_code(2, ("10", "01")), 0, "codeword enumeration of a [2, 0] code needs 2^0 table entries, exceeding the budget of 0"),
        ],
        ids=["dual", "codewords", "repetition_300", "even_weight_300", "s0", "k0"],
    )
    def test_budget_refusals_keep_their_messages(self, monkeypatch, build, budget, message):
        code = build()

        def refuse(*args):
            raise AssertionError("weighed a span over the budget")

        monkeypatch.setattr(codes, "_span_weights", refuse)
        with pytest.raises(BudgetError) as info:
            min_distance(code, budget=budget)
        assert str(info.value) == message + "; raise the budget to proceed"


def test_public_api_holds_no_test_oracles():
    import gvgraph

    for name in ("character_sum_oracle", "gilbert_adjacency", "is_independent_set", "max_independent_set_oracle", "spectrum_descend"):
        assert name not in gvgraph.__all__ and not hasattr(gvgraph, name)
    for name in ("enumerate_all", "from_rank", "hamming_distance", "rank", "support"):
        assert not hasattr(gvgraph.FqVector, name)
    assert not hasattr(RealEigenvector, "dense_entries")
    # The eigenvector oracle and the thin wrappers live in the tests' helpers only.
    for name in ("RealEigenvector", "real_eigenvector"):
        assert name not in gvgraph.__all__ and not hasattr(gvgraph, name) and not hasattr(spectrum, name)
    for name in ("index_of", "multiplicity_for_weight"):
        assert not hasattr(gvgraph.SpectrumTable, name)
    for name in ("lambda_history", "degree_history"):
        assert not hasattr(gvgraph.DescentTrace, name)
    assert "pivot_orthogonal" not in {f.name for f in dataclasses.fields(gvgraph.LevelRecord)}
    assert "free_cols" not in inspect.signature(spectrum._Types.__init__).parameters
    # C(x, j) is math.comb, which refuses negative arguments itself.
    assert "binomial" not in gvgraph.__all__ and not hasattr(gvgraph, "binomial") and not hasattr(gvgraph.combinat, "binomial")
    # The explicit-sum references live in the tests' helpers; no command runs the rest.
    for module, name in (
        (gvgraph.combinat, "krawtchouk"),
        (gvgraph.spectrum, "eigenvalue_level0"),
        (gvgraph.bounds, "sufficient_dimension"),
    ):
        assert name not in gvgraph.__all__ and not hasattr(gvgraph, name)
        assert name not in module.__all__ and not hasattr(module, name)
    assert not hasattr(gvgraph.combinat, "_as_fraction")
    for name in ("zero", "weight", "dot", "add", "scale", "_check_compatible"):
        assert not hasattr(gvgraph.FqVector, name)
    assert "__lt__" not in vars(gvgraph.FqVector)
    assert "final_degree" not in {f.name for f in dataclasses.fields(gvgraph.DescentTrace)}
    # The rate is one routine with no precision knob; the one-level descent bound has no alias.
    for module, name in ((gvgraph.combinat, "entropy_q"), (gvgraph.bounds, "wilf_cor27_bound")):
        assert name not in gvgraph.__all__ and not hasattr(gvgraph, name)
        assert name not in module.__all__ and not hasattr(module, name)
    assert list(inspect.signature(gvgraph.asymptotic_gv).parameters) == ["q", "delta"]
    # combinat is integer-only: it holds nothing from ``decimal``.
    assert all(getattr(value, "__module__", None) != "decimal" for value in vars(gvgraph.combinat).values())
    assert not hasattr(gvgraph.LinearCode, "parity_rows")


class TestIndependentSet:
    def test_singleton(self):
        p = GraphParams(2, 7, 3)
        assert is_independent_set(p, [FqVector(2, (0,) * 7)])

    def test_close_pair_rejected(self):
        p = GraphParams(2, 7, 3)
        pair = [FqVector(2, (0,) * 7), FqVector(2, (0, 0, 0, 0, 0, 1, 1))]
        assert not is_independent_set(p, pair)

    def test_verified_code_is_independent(self):
        p = GraphParams(2, 7, 3)
        assert is_independent_set(p, reference_codewords(make_code(2, HAMMING_ROWS)))

    def test_duplicates_rejected(self):
        p = GraphParams(2, 3, 2)
        v = FqVector(2, (1, 0, 0))
        with pytest.raises(ValueError, match="distinct"):
            is_independent_set(p, [v, v])


class TestGilbertAdjacency:
    def test_regular_degree(self):
        for cell in [(2, 5, 3), (3, 3, 2), (2, 6, 4)]:
            p = GraphParams(*cell)
            adj = gilbert_adjacency(p)
            degrees = {mask.bit_count() for mask in adj}
            assert degrees == {p.degree}

    def test_edgeless_and_complete(self):
        assert all(m == 0 for m in gilbert_adjacency(GraphParams(2, 3, 1)))
        full = gilbert_adjacency(GraphParams(2, 3, 4))
        assert all(m.bit_count() == 7 for m in full)


class TestAlphaOracle:
    def test_anchor_values(self):
        assert max_independent_set_oracle(GraphParams(2, 4, 2))[0] == 8
        assert max_independent_set_oracle(GraphParams(2, 3, 3))[0] == 2
        assert max_independent_set_oracle(GraphParams(2, 5, 3))[0] == 4
        assert max_independent_set_oracle(GraphParams(3, 3, 2))[0] == 9

    def test_edgeless_whole_space(self):
        size, witness = max_independent_set_oracle(GraphParams(2, 3, 1))
        assert size == 8 and len(witness) == 8

    def test_complete_graph(self):
        assert max_independent_set_oracle(GraphParams(2, 2, 3))[0] == 1

    def test_witness_is_independent(self):
        for cell in [(2, 4, 2), (2, 5, 3), (3, 3, 2), (2, 6, 3)]:
            p = GraphParams(*cell)
            size, witness = max_independent_set_oracle(p)
            assert len(witness) == size
            assert is_independent_set(p, witness)

    def test_matches_unpruned_brute_force(self):
        for cell in [(2, 4, 2), (2, 4, 3), (2, 5, 3), (2, 5, 4), (3, 3, 2), (3, 3, 3), (5, 2, 2)]:
            assert max_independent_set_oracle(GraphParams(*cell))[0] == alpha_bruteforce(*cell)

    def test_budget_cap(self):
        with pytest.raises(BudgetError):
            max_independent_set_oracle(GraphParams(2, 7, 3))


def _garbage_line():
    return st.text(alphabet="0123456789 -\t\rqnsx", max_size=24)


@st.composite
def pchk_like_texts(draw):
    """The magic line, then q, n and s lines and digit rows, each possibly replaced by garbage."""
    lines = [PCHK_MAGIC]
    for key, top in (("q", 12), ("n", 8), ("s", 4)):
        lines.append(draw(st.one_of(st.integers(-1, top).map(lambda v, key=key: f"{key} {v}"), _garbage_line())))
    digit_rows = st.lists(st.integers(-1, 12), max_size=8).map(lambda row: " ".join(map(str, row)))
    lines += draw(st.lists(st.one_of(digit_rows, _garbage_line()), max_size=5))
    return "\n".join(lines) + draw(st.sampled_from(["\n", "", "\n\n"]))


class TestPchkFormat:
    def test_round_trip(self, tmp_path):
        code = make_code(2, HAMMING_ROWS)
        path = tmp_path / "h.pchk"
        write_pchk(str(path), code)
        text = path.read_text(encoding="utf-8")
        assert text == "# gvpchk v1\nq 2\nn 7\ns 3\n0 0 0 1 1 1 1\n0 1 1 0 0 1 1\n1 0 1 0 1 0 1\n"
        parsed = read_pchk(str(path))
        assert parity_digits(parsed) == parity_digits(code)
        assert format_pchk(parsed) == text

    def test_header_only_for_zero_rows(self, tmp_path):
        code = LinearCode(3, 4, ())
        path = tmp_path / "e.pchk"
        write_pchk(str(path), code)
        assert path.read_text() == "# gvpchk v1\nq 3\nn 4\ns 0\n"
        assert read_pchk(str(path)).dimension == 4

    @pytest.mark.parametrize(
        "text, message",
        [
            ("# gvpchk v2\nq 2\nn 3\ns 0\n", "magic"),
            ("q 2\nn 3\ns 0\n", "magic"),
            ("# gvpchk v1\nq 2\nn 3\n", "header"),
            ("# gvpchk v1\nq 2\nn 3\ns x\n", "integer"),
            ("# gvpchk v1\nq 6\nn 3\ns 0\n", "prime"),
            ("# gvpchk v1\nq 4\nn 2\ns 1\n1 3\n", "prime"),
            ("# gvpchk v1\nq 2\nn 0\ns 0\n", "positive"),
            ("# gvpchk v1\nq 2\nn 3\ns -1\n", "nonnegative"),
            ("# gvpchk v1\nq 2\nn 3\ns 1\n0 1\n", "expected 3 digits"),
            ("# gvpchk v1\nq 2\nn 3\ns 1\n0 1 2\n", "out of range"),
            ("# gvpchk v1\nq 2\nn 3\ns 1\n", "expected 1 rows"),
            ("# gvpchk v1\nq 2\nn 3\ns 2\n0 1 1\n0 1 1\n", "rank"),
            ("# gvpchk v1\nq 2\nn 3\ns 2\n0 1 1\n0 1 1\n", "linearly dependent"),
            ("# gvpchk v1\nq 2\nn 3\ns 1\n0 a 1\n", "non-integer"),
        ],
    )
    def test_rejections(self, text, message):
        with pytest.raises(PchkFormatError, match=message):
            parse_pchk(text)

    @pytest.mark.parametrize(
        "token, message",
        [
            ("9" * 5000, "the integer has 5000 digits, more than the limit of {limit}"),
            ("-" + "9" * 4301, "the integer has 4301 digits, more than the limit of {limit}"),
            ("9" * 4999 + "x", repr("9" * 4999 + "x") + " is not an integer"),
            ("+-9", "'+-9' is not an integer"),
            ("x", "'x' is not an integer"),
        ],
        ids=["past-limit", "signed-past-limit", "long-non-integer", "two-signs", "non-integer"],
    )
    def test_header_integer_messages(self, token, message):
        # Only a well-formed integer past the int-from-str digit limit is
        # named by its size; every other non-integer is echoed as before.
        with pytest.raises(PchkFormatError) as info:
            parse_pchk(f"# gvpchk v1\nq 2\nn {token}\ns 0\n")
        assert str(info.value) == "line 3: " + message.format(limit=sys.get_int_max_str_digits())

    @pytest.mark.parametrize(
        "text, message",
        [
            ("# gvpchk v1\nq 1\nn 2\ns 0\n", "q must be prime, got 1"),
            ("# gvpchk v1\nq 1\nn 2\ns 1\n0 0\n", "q must be prime, got 1"),
            ("# gvpchk v1\nq -3\nn 0\ns 1\n\n", "q must be prime, got -3"),
            ("# gvpchk v1\nq 2\nn 0\ns 0\n", "n must be positive, got 0"),
            ("# gvpchk v1\nq 2\nn 0\ns 1\n\n", "n must be positive, got 0"),
            ("# gvpchk v1\nq 3\nn 0\ns 2\n\n\n", "n must be positive, got 0"),
        ],
        ids=["q1", "q1_rows", "q_negative_rows", "n0", "n0_row", "n0_rows"],
    )
    def test_one_message_per_field_fault(self, text, message):
        # q < 2 and n = 0 are named by the code's own checks, with rows or without.
        with pytest.raises(PchkFormatError) as info:
            parse_pchk(text)
        assert str(info.value) == message

    @pytest.mark.parametrize("q, n, message", [(4, 3, "q must be prime, got 4"), (2, 0, "n must be positive, got 0")])
    def test_graph_params_codes_and_pchk_headers_share_the_field_messages(self, q, n, message):
        faults = [
            lambda: GraphParams(q, n, 1),
            lambda: LinearCode(q, n, ()),
            lambda: parse_pchk(f"# gvpchk v1\nq {q}\nn {n}\ns 0\n"),
        ]
        for fault in faults:
            with pytest.raises(ValueError) as info:
                fault()
            assert str(info.value) == message

    @pytest.mark.parametrize(
        "q, rows, bad",
        [
            (2, ["0 1 2"], 0),
            (5, ["1 0 0", "0 0 5"], 1),
            (5, ["1 0 0", "0 -1 4"], 1),
            (3, ["-1 0 0", "0 1 3"], 0),
        ],
    )
    def test_digit_range_message(self, q, rows, bad):
        # The first row holding a digit outside [0, q), at either end, is named.
        text = f"# gvpchk v1\nq {q}\nn 3\ns {len(rows)}\n" + "".join(row + "\n" for row in rows)
        with pytest.raises(PchkFormatError, match=rf"^row {bad}: digit out of range \[0, {q}\)$"):
            parse_pchk(text)

    @settings(max_examples=100, deadline=None)
    @given(small_codes())
    def test_format_parse_round_trip(self, code):
        text = format_pchk(code)
        parsed = parse_pchk(text)
        assert (parsed.q, parsed.n, parity_digits(parsed)) == (code.q, code.n, parity_digits(code))
        assert format_pchk(parsed) == text

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.text(), pchk_like_texts()))
    @example("# gvpchk v1\nq 2\nn 3\ns 1\n1 1 1\n")
    def test_parse_raises_only_format_or_value_errors(self, text):
        try:
            parse_pchk(text)
        except (PchkFormatError, ValueError):
            pass

    def test_write_is_atomic_no_temp_left(self, tmp_path):
        code = make_code(2, HAMMING_ROWS)
        path = tmp_path / "out.pchk"
        write_pchk(str(path), code)
        leftovers = [p for p in tmp_path.iterdir() if p.name != "out.pchk"]
        assert leftovers == []

    def test_failed_rename_keeps_the_old_file_and_leaves_no_temp(self, tmp_path, monkeypatch):
        path = tmp_path / "out.pchk"
        path.write_bytes(b"old bytes\n")

        def failing(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(codes.os, "replace", failing)
        with pytest.raises(OSError, match="rename refused"):
            write_pchk(str(path), make_code(2, HAMMING_ROWS))
        assert path.read_bytes() == b"old bytes\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.pchk"]

    def test_an_existing_temp_name_is_skipped_not_overwritten(self, tmp_path, monkeypatch):
        taken = tmp_path / ".gvgraph-taken.tmp"
        taken.write_bytes(b"someone else's\n")
        names = iter([taken.name, ".gvgraph-free.tmp"])
        monkeypatch.setattr(codes, "_temp_name", lambda: next(names))
        codes._atomic_write_text(str(tmp_path / "out.txt"), "new text\n")
        assert taken.read_bytes() == b"someone else's\n"
        assert (tmp_path / "out.txt").read_bytes() == b"new text\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [taken.name, "out.txt"]

    def test_written_file_has_the_mode_mkstemp_gives(self, tmp_path):
        fd, reference = tempfile.mkstemp(dir=tmp_path)
        os.close(fd)
        path = tmp_path / "out.pchk"
        write_pchk(str(path), make_code(2, HAMMING_ROWS))
        assert stat.S_IMODE(path.stat().st_mode) == stat.S_IMODE(os.stat(reference).st_mode)

    def test_written_bytes_are_the_utf8_text(self, tmp_path):
        path = tmp_path / "out.txt"
        text = "q,n\n2,\u00e9\n" * 1000
        codes._atomic_write_text(str(path), text)
        assert path.read_bytes() == text.encode("utf-8")


def parse_outcome(parse, text):
    """(q, n, packed rows) from a parse, or its PchkFormatError message."""
    try:
        result = parse(text)
    except PchkFormatError as exc:
        return str(exc)
    return result if isinstance(result, tuple) else (result.q, result.n, result._rows)


PARSE_PRIMES = [2, 3, 5, 7, 11, 13]
# Tokens that int() reads, refuses, or reads as another digit.
ODD_TOKENS = ["10", "12", "+", "-", "_", "2", "3", "9", "\u0663", "\uff13", "\u00b2", "1_0", "+1", "-0", "-1", "00", "x"]


def disguised_pchk(rng, q):
    """A pchk text of random rows put through seeded row operations,
    sometimes with a dependent row, sometimes one odd token, and sometimes
    tabs and runs of spaces between and around the digits."""
    n = rng.randint(1, 33)
    s = rng.randint(1, min(n, 8))
    rows = [[rng.randrange(q) for _ in range(n)] for _ in range(s)]
    for _ in range(2 * s if s > 1 else 0):
        i, j = rng.sample(range(s), 2)
        f = rng.randrange(1, q)
        rows[i] = [(a + f * b) % q for a, b in zip(rows[i], rows[j])]
    if s > 1 and rng.random() < 0.3:
        i, j = rng.sample(range(s), 2)
        f = rng.randrange(q)
        rows[i] = [f * b % q for b in rows[j]]
    lines = []
    for row in rows:
        tokens = list(map(str, row))
        if rng.random() < 0.15:
            tokens[rng.randrange(n)] = rng.choice(ODD_TOKENS)
        sep = rng.choice([" ", "  ", "\t", " \t "]) if rng.random() < 0.3 else " "
        pad = rng.choice(["", " ", "\t"])
        lines.append(pad + sep.join(tokens) + pad)
    return f"{PCHK_MAGIC}\nq {q}\nn {n}\ns {s}\n" + "".join(line + "\n" for line in lines)


class TestParserEquivalence:
    """``parse_pchk`` packs rows of one-character digits by one int() call;
    every text must parse to the words, or fail with the message, of the
    digit-by-digit reference."""

    @pytest.mark.parametrize("q", PARSE_PRIMES)
    def test_random_disguised_files(self, q):
        rng = random.Random(q)
        outcomes = Counter()
        for _ in range(150):
            text = disguised_pchk(rng, q)
            want = parse_outcome(reference_parse_pchk, text)
            assert parse_outcome(parse_pchk, text) == want, text
            outcomes[isinstance(want, tuple)] += 1
        assert outcomes[True] > 30 and outcomes[False] > 10, outcomes

    @pytest.mark.parametrize("q", PARSE_PRIMES)
    @pytest.mark.parametrize(
        "n, row",
        [
            (3, "10 1"),  # three characters in two tokens
            (3, "1 + 0"),
            (3, "1 - 0"),
            (3, "1 _ 0"),
            (3, "0 2 1"),
            (3, "0 3 1"),
            (3, "9 0 1"),
            (3, "0 7 1"),
            (3, "1 0 \u0663"),  # ARABIC-INDIC DIGIT THREE, which int() reads as 3
            (3, "1 \u00b2 0"),  # SUPERSCRIPT TWO: a digit to str.isdigit, not to int()
            (3, "1\t0  1 "),
            (4, "1 10 0 1"),
        ],
        ids=["10_1", "plus", "minus", "underscore", "2", "3", "9", "7", "arabic_indic_3", "superscript_2", "tabs", "two_chars"],
    )
    def test_odd_rows(self, q, n, row):
        text = f"{PCHK_MAGIC}\nq {q}\nn {n}\ns 2\n1 {' '.join(['0'] * (n - 1))}\n{row}\n"
        assert parse_outcome(parse_pchk, text) == parse_outcome(reference_parse_pchk, text)

    @pytest.mark.parametrize(
        "q, row, message",
        [
            (2, "0 2 1", r"^row 1: digit out of range \[0, 2\)$"),
            (2, "0 3 1", r"^row 1: digit out of range \[0, 2\)$"),
            (2, "9 0 1", r"^row 1: digit out of range \[0, 2\)$"),
            (3, "0 3 1", r"^row 1: digit out of range \[0, 3\)$"),
            # 7 fills its 3-bit slot: adding the bias carries it out, so only its own guard bit shows it.
            (3, "0 7 1", r"^row 1: digit out of range \[0, 3\)$"),
            (2, "10 1", r"^row 1: expected 3 digits, got 2$"),
            (5, "1 _ 0", r"^row 1: non-integer digit in '1 _ 0'$"),
            (2, "1 0 0", r"linearly dependent: rank below s = 2$"),
        ],
        ids=["q2_2", "q2_3", "q2_9", "q3_3", "q3_7", "q2_10_1", "q5_underscore", "q2_dependent"],
    )
    def test_fast_path_faults_keep_their_messages(self, q, row, message):
        text = f"{PCHK_MAGIC}\nq {q}\nn 3\ns 2\n1 0 0\n{row}\n"
        with pytest.raises(PchkFormatError, match=message):
            parse_pchk(text)

    @settings(max_examples=300, deadline=None)
    @given(pchk_like_texts())
    @example(f"{PCHK_MAGIC}\nq 1\nn 2\ns 1\n0 0\n")  # q < 2 with rows: the code's q check, as without rows
    @example(f"{PCHK_MAGIC}\nq 2\nn 0\ns 1\n\n")
    def test_malformed_texts(self, text):
        assert parse_outcome(parse_pchk, text) == parse_outcome(reference_parse_pchk, text)

    def test_parsed_rows_become_vectors_only_when_read(self):
        q, n, _, _, rows = CLASSICAL_CODES["golay_24_12_8"]
        text = format_pchk(LinearCode(q, n, tuple(FqVector(q, row) for row in rows)))
        code = parse_pchk(text)
        assert not hasattr(code, "parity_rows")
        assert parity_digits(code) == rows
        assert format_pchk(code) == text


def test_end_to_end_constructed_codes_are_independent_sets():
    # Distance->independence equivalence on cells small enough to materialize.
    for cell in [(2, 5, 3), (2, 6, 3), (2, 6, 4), (3, 4, 3)]:
        params = GraphParams(*cell)
        trace = run_algorithm1(params)
        code = LinearCode(params.q, params.n, trace.parity_rows)
        words = reference_codewords(code)
        assert min_distance(code) >= params.d
        assert is_independent_set(params, words)
        adj = gilbert_adjacency(params)
        ranks = [rank(w) for w in words]
        for i, r in enumerate(ranks):
            for r2 in ranks[i + 1 :]:
                assert not (adj[r] >> r2) & 1


def test_constructed_codewords_independent_in_explicit_graph_at_1024():
    import numpy as np

    from helpers import pairwise_distance_matrix, vector_matrix

    for cell in [(2, 10, 3), (2, 10, 5), (3, 6, 4), (5, 4, 3)]:
        params = GraphParams(*cell)
        trace = run_algorithm1(params)
        code = LinearCode(params.q, params.n, trace.parity_rows)
        ranks = [rank(w) for w in reference_codewords(code)]
        dist = pairwise_distance_matrix(vector_matrix(params.q, params.n))
        sub = dist[np.ix_(ranks, ranks)]
        edges = (sub >= 1) & (sub <= params.d - 1)
        assert not edges.any()

import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gvgraph import (
    BudgetError,
    FqVector,
    GraphParams,
    build_spectrum_level0,
    run_algorithm1,
)
from gvgraph import spectrum
from helpers import (
    all_vectors,
    char_sum,
    character_sum_oracle,
    dense_entries,
    dense_minimum,
    eigenvalue_level0,
    gilbert_neighbor_lists,
    real_eigenvector,
    reference_dense_level0,
    weight,
)

# Small-enough cells for pure-Python exhaustive checks.
SMALL_GRID = [
    (q, n, d)
    for q, n_max in ((2, 8), (3, 5), (5, 3))
    for n in range(1, n_max + 1)
    for d in range(1, n + 2)
]


def vecs_of(q, n):
    return [FqVector(q, t) for t in all_vectors(q, n)]


class TestEigenvalueLevel0:
    def test_273_anchors(self):
        p = GraphParams(2, 7, 3)
        assert eigenvalue_level0(p, 0) == 28
        assert eigenvalue_level0(p, 4) == -4
        assert [eigenvalue_level0(p, w) for w in range(8)] == [28, 14, 4, -2, -4, -2, 4, 14]

    def test_edgeless_is_all_zero(self):
        p = GraphParams(3, 4, 1)
        assert all(eigenvalue_level0(p, w) == 0 for w in range(5))

    def test_weight_out_of_range(self):
        with pytest.raises(ValueError):
            eigenvalue_level0(GraphParams(2, 4, 2), 5)

    def test_zero_weight_is_regular_degree(self):
        for q, n, d in [(2, 5, 3), (3, 4, 2), (5, 3, 3)]:
            p = GraphParams(q, n, d)
            assert eigenvalue_level0(p, 0) == p.degree


@st.composite
def level0_cells(draw):
    """(q, n, d) with q^n <= 2^14 and 1 <= d <= n + 1."""
    q, n_max = draw(st.sampled_from([(2, 14), (3, 8), (5, 6), (7, 5)]))
    n = draw(st.integers(1, n_max))
    return q, n, draw(st.integers(1, n + 1))


class TestSpectrumTable:
    def test_compressed_shape_and_multiplicities(self):
        p = GraphParams(2, 7, 3)
        table = build_spectrum_level0(p)
        rows = list(table.weight_rows())
        assert [r[0] for r in rows] == list(range(8))
        assert [r[1] for r in rows] == [28, 14, 4, -2, -4, -2, 4, 14]
        assert sum(r[2] for r in rows) == 2**7
        for q, n in ((3, 4), (5, 3)):
            t = build_spectrum_level0(GraphParams(q, n, 2))
            assert sum(m for _, _, m in t.weight_rows()) == q**n

    def test_min_eigenvalue_anchors(self):
        val, arg = build_spectrum_level0(GraphParams(2, 7, 3)).min_eigenvalue()
        assert (val, arg.digits) == (-4, (0, 0, 0, 1, 1, 1, 1))
        val, arg = build_spectrum_level0(GraphParams(2, 4, 2)).min_eigenvalue()
        assert (val, arg.digits) == (-4, (1, 1, 1, 1))

    def test_min_eigenvalue_edgeless(self):
        val, arg = build_spectrum_level0(GraphParams(2, 3, 1)).min_eigenvalue()
        assert val == 0
        assert arg.digits == (0, 0, 1)

    def test_min_eigenvalue_tie_across_weights_takes_smallest_vector(self):
        # (2, 4, 3): minimum -2 attained at weights 2 and 3; 0011 < 0111.
        val, arg = build_spectrum_level0(GraphParams(2, 4, 3)).min_eigenvalue()
        assert (val, arg.digits) == (-2, (0, 0, 1, 1))

    def test_maximum_is_degree_at_zero_vector(self):
        for q, n, d in [(2, 6, 3), (2, 6, 4), (3, 4, 3), (5, 3, 2)]:
            p = GraphParams(q, n, d)
            dense = build_spectrum_level0(p).densify()
            assert dense.values[0] == max(dense.values) == p.degree

    def test_densify_matches_compressed(self):
        for q, n, d in [(2, 5, 3), (3, 3, 2), (5, 2, 2)]:
            p = GraphParams(q, n, d)
            dense = build_spectrum_level0(p).densify()
            assert len(dense.values) == q**n
            for v, lam in dense.entries():
                assert lam == eigenvalue_level0(p, weight(v.digits))

    @settings(max_examples=60, deadline=None)
    @given(level0_cells())
    def test_densify_matches_reference(self, cell):
        q, n, d = cell
        table = build_spectrum_level0(GraphParams(q, n, d))
        dense = table.densify().values
        assert isinstance(dense, tuple)
        assert dense == reference_dense_level0(table.weight_values, q, n)

    def test_typed_level0_beyond_one_byte_weights(self):
        # A typed level stores weights as ints, so n > 255 needs no cap.
        p = GraphParams(2, 300, 5)
        table = build_spectrum_level0(p)
        assert len(table.weight_values) == 301
        value, argmin = table.min_eigenvalue()
        assert table.value_of(argmin) == value == eigenvalue_level0(p, weight(argmin.digits))
        assert table.value_of(FqVector(2, (1,) * 300)) == eigenvalue_level0(p, 300)

    def test_dense_min_agrees_with_compressed(self):
        for q, n, d in [(2, 6, 3), (2, 6, 4), (3, 4, 3), (5, 2, 2)]:
            p = GraphParams(q, n, d)
            assert build_spectrum_level0(p).min_eigenvalue() == dense_minimum(build_spectrum_level0(p))

    def test_budget_refusal(self):
        with pytest.raises(BudgetError):
            build_spectrum_level0(GraphParams(2, 10, 3)).densify(512)

    def test_dense_budget_checked_before_the_closed_form(self, monkeypatch):
        # A refusal must not pay for the n + 1 Krawtchouk values first.
        def closed_form(k, n, q):
            raise AssertionError("closed form computed before the budget check")

        monkeypatch.setattr(spectrum, "krawtchouk_row", closed_form)
        with pytest.raises(BudgetError, match=r"needs 2\^3000 table entries"):
            run_algorithm1(GraphParams(2, 3000, 1500))

    def test_trace_identities_level0(self):
        for q, n, d in SMALL_GRID:
            p = GraphParams(q, n, d)
            table = build_spectrum_level0(p)
            total = sum(lam * mult for _, lam, mult in table.weight_rows())
            square = sum(lam * lam * mult for _, lam, mult in table.weight_rows())
            assert total == 0
            assert square == p.num_vertices * p.degree


class TestCharacterSumOracle:
    def test_zero_index_counts_whole_set(self):
        p = GraphParams(2, 7, 3)
        S = [v for v in vecs_of(2, 7) if 1 <= weight(v.digits) <= 2]
        assert character_sum_oracle(S, FqVector(2, (0,) * 7)) == 28

    def test_anchor_weight_four(self):
        S = [v for v in vecs_of(2, 7) if 1 <= weight(v.digits) <= 2]
        v = FqVector(2, (1, 1, 1, 1, 0, 0, 0))
        assert character_sum_oracle(S, v) == -4

    def test_empty_set(self):
        assert character_sum_oracle([], FqVector(3, (1, 0))) == 0

    def test_scalar_closure_violation_detected(self):
        # {(1,0)} over q=3 is not closed under scaling by 2.
        with pytest.raises(ValueError, match="not closed under nonzero scalar"):
            character_sum_oracle([FqVector(3, (1, 0))], FqVector(3, (1, 1)))

    def test_matches_level0_on_small_grid(self):
        for q, n, d in SMALL_GRID:
            p = GraphParams(q, n, d)
            vecs = vecs_of(q, n)
            S = [v for v in vecs if 1 <= weight(v.digits) <= d - 1]
            for v in vecs:
                assert character_sum_oracle(S, v) == eigenvalue_level0(p, weight(v.digits))


class TestRealEigenvector:
    def test_entry_rule(self):
        p = GraphParams(3, 4, 2)
        b = real_eigenvector(p, {1, 3})
        assert b.entry(FqVector(3, (0,) * 4)) == 2
        assert b.entry(FqVector(3, (1, 0, 0, 0))) == -1
        assert b.entry(FqVector(3, (1, 0, 2, 0))) == 2

    def test_rejects_empty_or_bad_support(self):
        p = GraphParams(2, 4, 2)
        with pytest.raises(ValueError):
            real_eigenvector(p, set())
        with pytest.raises(ValueError):
            real_eigenvector(p, {0})
        with pytest.raises(ValueError):
            real_eigenvector(p, {5})

    def test_two_values_zero_sum_and_norm(self):
        for q, n, d in [(2, 4, 2), (2, 5, 3), (3, 3, 2), (3, 4, 3), (5, 2, 2)]:
            p = GraphParams(q, n, d)
            for size in range(1, n + 1):
                b = real_eigenvector(p, set(range(1, size + 1)))
                entries = dense_entries(b)
                assert set(entries) <= {q - 1, -1}
                assert sum(entries) == 0
                assert sum(e * e for e in entries) == q**n * (q - 1) == b.norm_squared

    def test_eigenvalue_matches_weight_class(self):
        p = GraphParams(2, 7, 3)
        assert real_eigenvector(p, {1, 2, 3, 4}).eigenvalue == -4

    def test_adjacency_action_anchor(self):
        # q=2, n=4, d=2, A={1}: eigenvalue K_1(0;3,2) - 1 = 2.
        p = GraphParams(2, 4, 2)
        b = real_eigenvector(p, {1})
        assert b.eigenvalue == 2
        vecs, adj = gilbert_neighbor_lists(2, 4, 2)
        entries = dense_entries(b)
        for i in range(len(vecs)):
            assert sum(entries[j] for j in adj[i]) == 2 * entries[i]

    def test_adjacency_action_grid(self):
        # Every singleton support and one multi-element support per size.
        for q, n, d in [(2, 4, 3), (2, 5, 2), (2, 6, 3), (2, 8, 3), (3, 4, 3), (5, 2, 2)]:
            p = GraphParams(q, n, d)
            vecs, adj = gilbert_neighbor_lists(q, n, d)
            supports = [{i} for i in range(1, n + 1)]
            supports += [set(range(1, size + 1)) for size in range(2, n + 1)]
            for support in supports:
                b = real_eigenvector(p, support)
                entries = dense_entries(b)
                for i in range(len(vecs)):
                    assert sum(entries[j] for j in adj[i]) == b.eigenvalue * entries[i]

    def test_adjacency_action_at_thousand_vertices(self):
        # Same invariant on the largest in-budget graphs, vectorized.
        np = pytest.importorskip("numpy")
        from helpers import pairwise_distance_matrix, vector_matrix

        for q, n, d in [(2, 10, 4), (3, 6, 3)]:
            p = GraphParams(q, n, d)
            dist = pairwise_distance_matrix(vector_matrix(q, n))
            adjacency = ((dist >= 1) & (dist <= d - 1)).astype(np.int64)
            supports = [{i} for i in range(1, n + 1)]
            supports += [set(range(1, size + 1)) for size in range(2, n + 1)]
            for support in supports:
                b = real_eigenvector(p, support)
                entries = np.array(dense_entries(b), dtype=np.int64)
                assert np.array_equal(adjacency @ entries, b.eigenvalue * entries)


def test_weight_multiplicity_partition():
    for q, n in ((2, 9), (3, 5), (5, 3)):
        table = build_spectrum_level0(GraphParams(q, n, 2))
        assert sum(mult for _, _, mult in table.weight_rows()) == q**n


def test_oracle_residue_equality_holds_on_shells():
    # Scalar closure of the weight shells forces equal residue counts; the
    # helper asserts that internally for every evaluation on the grid.
    for q, n, d in [(3, 4, 3), (5, 3, 2), (5, 3, 3)]:
        S = [t for t in all_vectors(q, n) if 1 <= weight(t) <= d - 1]
        for v in all_vectors(q, n):
            char_sum(S, v, q)


class TestOuterSum:
    """``_outer_sum`` against the sums over ``itertools.product``."""

    @staticmethod
    def product_sums(parts, start):
        return [start + sum(choice) for choice in itertools.product(*parts)]

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.lists(st.integers(-10**6, 10**6), max_size=9), max_size=5), st.integers(-100, 100))
    @example([], 0)
    @example([], 7)
    @example([[5]], 3)
    @example([[1], [2, 3], [4]], 0)
    @example([[0, 1]] * 6, 0)
    def test_matches_the_product(self, parts, start):
        assert spectrum._outer_sum(parts, start) == self.product_sums(parts, start)

    # Trailing part sizes that fill the inner list just below, at and just
    # above the threshold, with one part, with two, or never.
    @pytest.mark.parametrize("sizes", [
        (3, spectrum._INNER - 1), (3, spectrum._INNER), (3, spectrum._INNER + 1),
        (2, 3, 8, spectrum._INNER // 8), (2, 3, 7, 9), (2, 1, spectrum._INNER + 1, 1),
        (spectrum._INNER - 1,), (1, 1, 1),
    ])
    def test_inner_list_threshold(self, sizes):
        rng = random.Random(sum(sizes))
        parts = [rng.sample(range(-10**6, 10**6), k) for k in sizes]
        parts[0] = range(0, 7 * sizes[0], 7)  # a range as the slowest part, as in the dense averaging
        assert spectrum._outer_sum(parts, 11) == self.product_sums(parts, 11)


@pytest.mark.parametrize("q", [2, 3, 5, 7])
@pytest.mark.parametrize("f", range(7))
def test_rotations_are_the_cyclic_shifts_of_the_histograms(q, f):
    # Shift c adds c to every column's digit: a permutation of the
    # histograms, the identity at c = 0, and two shifts compose to their sum.
    histograms = spectrum._histograms(f, q - 1)
    rotations = spectrum._rotations(f, q)
    positions = list(range(len(histograms)))
    assert len(rotations) == q
    assert list(rotations[0]) == positions
    for c, rotation in enumerate(rotations):
        assert sorted(rotation) == positions, c
        for c2, then in enumerate(rotations):
            assert [then[i] for i in rotation] == list(rotations[(c + c2) % q]), (c, c2)
    # Shift 1 moves the count of digit b to digit b + 1, the zeros to digit 1.
    for h, i in zip(histograms, rotations[1 % q]):
        assert histograms[i] == ((f - sum(h),) + h)[: q - 1], h

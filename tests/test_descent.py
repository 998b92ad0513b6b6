import dataclasses
import functools
import itertools
import logging
import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gvgraph import (
    BudgetError,
    DivisibilityError,
    FqVector,
    GraphParams,
    LinearCode,
    build_spectrum_level0,
    descend,
    min_distance,
    run_algorithm1,
    select_pivot,
)
from gvgraph import modq
from gvgraph import spectrum as spectrum_module
from gvgraph.spectrum import edge_level
from helpers import (
    all_vectors,
    character_sum_oracle,
    degree_history,
    dense_descend,
    dense_descent,
    dense_minimum,
    dot,
    enumerate_all,
    index_of,
    lambda_history,
    parent_sums,
    pivot_orthogonality,
    reference_descent,
    reference_kernel_basis,
    reference_rref,
    vadd,
    vscale,
    weight,
)


def digits(*rows):
    return [tuple(int(c) for c in row) for row in rows]


def monic_forms(words, q):
    """Each word scaled so that its first nonzero digit is 1."""
    return [vscale(pow(next(x for x in word if x), -1, q), word, q) for word in words]


class TestAnchors273:
    """Everything about the flagship (2, 7, 3) run, frozen from the
    materialized-subgraph oracle."""

    def setup_method(self):
        self.trace = run_algorithm1(GraphParams(2, 7, 3))

    def test_termination_and_histories(self):
        assert self.trace.s == 3
        assert lambda_history(self.trace) == (-4, -4, -4)
        assert degree_history(self.trace) == (28, 12, 4)

    def test_pivots_are_hamming_rows(self):
        assert [p.digits for p in self.trace.parity_rows] == digits("0001111", "0110011", "1010101")

    def test_bounds_per_level(self):
        assert self.trace.bounds == (Fraction(128, 27), Fraction(128, 21), Fraction(128, 9))

    def test_pivots_all_orthogonal_here(self):
        assert pivot_orthogonality(self.trace) == (True, True, True)

    def test_code_is_hamming(self):
        code = LinearCode(2, 7, self.trace.parity_rows)
        assert code.dimension == 4
        assert self.trace.code_size == 16
        assert min_distance(code) == 3


class TestSpectrumDescend:
    """The tests' dense route (helpers.dense_descend) against first principles."""

    def test_first_descent_zero_class_reproduces_degree_recursion(self):
        p = GraphParams(2, 7, 3)
        table = build_spectrum_level0(p).densify()
        level1 = dense_descend(table, FqVector(2, (0, 0, 0, 1, 1, 1, 1)))
        assert level1.values[0] == 12  # (28 + (-4)) / 2
        assert level1.size == 64
        assert sum(level1.values) == 0
        assert sum(v * v for v in level1.values) == 64 * 12

    def test_descended_entries_match_character_sums(self):
        # Independent route: explicit difference set of the level-1 graph.
        p = GraphParams(2, 7, 3)
        pivot = FqVector(2, (0, 0, 0, 1, 1, 1, 1))
        level1 = dense_descend(build_spectrum_level0(p).densify(), pivot)
        S1 = [
            v
            for v in enumerate_all(2, 7)
            if 1 <= weight(v.digits) <= 2 and dot(v.digits, pivot.digits, 2) == 0
        ]
        assert len(S1) == 12
        for vec, lam in level1.entries():
            assert character_sum_oracle(S1, vec) == lam

    def test_edgeless_parent_descends_to_zeros(self):
        p = GraphParams(2, 3, 1)
        table = build_spectrum_level0(p).densify()
        level1 = dense_descend(table, FqVector(2, (0, 0, 1)))
        assert level1.values == (0, 0, 0, 0)

    def test_rejects_non_canonical_and_non_argmin_pivots(self):
        p = GraphParams(2, 7, 3)
        table = build_spectrum_level0(p).densify()
        with pytest.raises(ValueError, match="not the"):
            dense_descend(table, FqVector(2, (1, 0, 0, 0, 0, 0, 0)))
        with pytest.raises(ValueError, match="nonzero"):
            dense_descend(table, FqVector(2, (0,) * 7))
        level1 = dense_descend(table, FqVector(2, (0, 0, 0, 1, 1, 1, 1)))
        bad = FqVector(2, (0, 0, 0, 1, 0, 0, 0))  # nonzero at a pivot column
        with pytest.raises(ValueError, match="canonical"):
            dense_descend(level1, bad)

    def test_divisibility_violation_is_reported(self):
        p = GraphParams(2, 4, 2)
        table = build_spectrum_level0(p).densify()
        doctored = dataclasses.replace(table, values=table.values[:-1] + (table.values[-1] + 1,))
        pivot = FqVector(2, (1, 1, 1, 1))
        with pytest.raises(DivisibilityError):
            dense_descend(doctored, pivot)


# Free digits per q so that a table has at most 4096 entries.
MAX_DIGITS = {2: 12, 3: 7, 5: 5, 7: 4}


class TestSelectPivot:
    def test_level0_anchor(self):
        table = build_spectrum_level0(GraphParams(2, 7, 3)).densify()
        assert select_pivot(table).digits == (0, 0, 0, 1, 1, 1, 1)

    def test_complete_graph_all_nonzero_tie(self):
        table = build_spectrum_level0(GraphParams(2, 3, 4)).densify()
        assert select_pivot(table).digits == (0, 0, 1)

    def test_terminated_level_rejected(self):
        table = build_spectrum_level0(GraphParams(2, 3, 1)).densify()
        with pytest.raises(ValueError, match="requires a level with an edge"):
            select_pivot(table)

    def test_compressed_table_tie_break_across_weights(self):
        # (2, 4, 2): minimum -4 at weight 4 only.
        table = build_spectrum_level0(GraphParams(2, 4, 2))
        assert select_pivot(table).digits == (1, 1, 1, 1)


FROZEN_TRACES = {
    # (q, n, d): (s, lambdas, degrees, pivot digit strings, orthogonality flags)
    (2, 4, 3): (3, (-2, -2, -1), (10, 4, 1), ("0011", "0101", "1000"), (True, False, True)),
    (2, 5, 3): (3, (-3, -2, -2), (15, 6, 2), ("00111", "01001", "10010"), (True, False, False)),
    (2, 6, 3): (3, (-3, -3, -3), (21, 9, 3), ("000111", "011001", "101010"), (True, False, False)),
    (2, 4, 2): (1, (-4,), (4,), ("1111",), (True,)),
    (3, 3, 2): (1, (-3,), (6,), ("111",), (True,)),
    (3, 4, 3): (2, (-4, -4), (32, 8), ("0111", "1012"), (True, True)),
}


class TestRunAlgorithm1:
    @pytest.mark.parametrize("cell", sorted(FROZEN_TRACES))
    def test_frozen_traces(self, cell):
        s, lams, degs, pivots, orth = FROZEN_TRACES[cell]
        trace = run_algorithm1(GraphParams(*cell))
        assert trace.s == s
        assert lambda_history(trace) == lams
        assert degree_history(trace) == degs
        assert tuple(str(p) for p in trace.parity_rows) == pivots
        assert pivot_orthogonality(trace) == orth

    @pytest.mark.parametrize(
        "cell", [(2, 4, 2), (2, 4, 3), (2, 5, 3), (2, 5, 2), (2, 6, 4), (3, 3, 2), (3, 4, 3), (5, 2, 2)]
    )
    def test_matches_reference_descent(self, cell):
        q, n, d = cell
        ref_s, ref_lams, ref_degs, ref_pivots, ref_mind = reference_descent(q, n, d)
        trace = run_algorithm1(GraphParams(q, n, d))
        assert trace.s == ref_s
        assert lambda_history(trace) == tuple(ref_lams)
        assert degree_history(trace) == tuple(ref_degs)
        assert [p.digits for p in trace.parity_rows] == ref_pivots
        code = LinearCode(q, n, trace.parity_rows)
        got = min_distance(code)
        assert (ref_mind is None and code.dimension == 0) or got == ref_mind

    def test_edgeless_immediate_termination(self):
        trace = run_algorithm1(GraphParams(2, 3, 1))
        assert trace.s == 0
        assert trace.levels == ()
        assert trace.code_size == 8

    def test_complete_graph_full_descent(self):
        # d = n + 1: every level is a complete graph, s = n, code {0}.
        trace = run_algorithm1(GraphParams(2, 4, 5))
        assert trace.s == 4
        assert lambda_history(trace) == (-1, -1, -1, -1)
        assert trace.code_size == 1

    def test_termination_identity_corrected_form(self):
        from gvgraph import ball_volume

        for cell in [(2, 4, 3), (2, 7, 3), (2, 8, 4), (3, 4, 3), (3, 5, 4), (5, 3, 2)]:
            params = GraphParams(*cell)
            trace = run_algorithm1(params)
            q = params.q
            total = sum((q - 1) * q**t * lam for t, lam in enumerate(lambda_history(trace)))
            volume = ball_volume(params, params.d - 1)
            assert volume - 1 + total == 0
            assert volume + total == 1  # the off-by-one form can never reach 0

    def test_determinism_bit_for_bit(self):
        for cell in [(2, 6, 3), (3, 4, 3), (2, 9, 4)]:
            assert run_algorithm1(GraphParams(*cell)) == run_algorithm1(GraphParams(*cell))

    def test_pivots_linearly_independent_rank_s(self):
        for cell in [(2, 8, 3), (2, 9, 3), (3, 5, 3), (5, 3, 2), (2, 10, 5)]:
            trace = run_algorithm1(GraphParams(*cell))
            code = LinearCode(*cell[:2], trace.parity_rows)  # raises if dependent
            assert code.s == trace.s

    def test_budget_refusal(self):
        with pytest.raises(BudgetError):
            run_algorithm1(GraphParams(2, 12, 3), budget=1024)

    def test_sparsity_ratio_monotonicity(self):
        # vertex-to-(degree+1) ratio never decreases along a run.
        for cell in [(2, 7, 3), (2, 8, 3), (2, 9, 4), (3, 5, 3), (3, 5, 4)]:
            params = GraphParams(*cell)
            trace = run_algorithm1(params)
            degrees = list(degree_history(trace)) + [0]
            ratios = [
                Fraction(params.q ** (params.n - t), deg + 1) for t, deg in enumerate(degrees)
            ]
            assert all(a <= b for a, b in zip(ratios, ratios[1:]))

    def test_bound_strictness_matches_lambda_threshold(self):
        # Consecutive bounds strictly improve iff the new level minimum <= -2.
        for cell in [(2, 4, 3), (2, 7, 3), (2, 9, 3), (3, 5, 3)]:
            trace = run_algorithm1(GraphParams(*cell))
            for prev, cur in zip(trace.levels, trace.levels[1:]):
                if cur.lambda_min <= -2:
                    assert cur.bound > prev.bound
                else:
                    assert cur.bound == prev.bound


def test_descent_trace_vertex_counts():
    trace = run_algorithm1(GraphParams(2, 6, 3))
    # level t spectrum has q^(n-t) characters; checked through the bound
    # denominators: final bound is q^n / (q^s + 1).
    assert trace.bounds[-1] == Fraction(2**6, 2**trace.s + 1)


class TestDescend:
    """The level generator that run_algorithm1 and `spectrum --level` share."""

    @pytest.mark.parametrize("cell", [(2, 7, 3), (2, 10, 4), (3, 5, 3), (5, 4, 3), (2, 3, 1), (2, 4, 5)])
    def test_levels_match_trace_and_pivot_redescent(self, cell):
        params = GraphParams(*cell)
        trace = run_algorithm1(params)
        levels = list(descend(params))
        assert [table.level for table, _ in levels] == list(range(trace.s + 1))
        assert tuple(rec for _, rec in levels[:-1]) == trace.levels
        assert levels[-1][1] is None
        # Reference route: re-descend level 0 along the trace's pivots.
        expected = build_spectrum_level0(params).densify()
        for (table, _), rec in zip(levels, trace.levels + (None,)):
            assert table.values is None
            assert table.densify().values == expected.values
            if rec is not None:
                expected = dense_descend(expected, rec.pivot)

    def test_stopping_early_descends_no_further(self, monkeypatch):
        # Levels 0 and 1 of (2, 10, 4) are averaged typed, level 3 is never built.
        averaged = []
        real = spectrum_module.SpectrumTable.next_level

        def counting(table, pivot, degree):
            out = real(table, pivot, degree)
            averaged.append((table.level, out.kind))
            return out

        monkeypatch.setattr(spectrum_module.SpectrumTable, "next_level", counting)
        for table, _ in descend(GraphParams(2, 10, 4)):
            if table.level == 2:
                break
        assert averaged == [(0, "typed"), (1, "typed")]

    @pytest.mark.parametrize("q", [2, 3, 5, 7])
    def test_no_level_is_dense(self, monkeypatch, q):
        # Every level is typed until it hands off to edge levels; no dense
        # table is built on the way.
        built = []
        init = spectrum_module.SpectrumTable.__init__

        def recording(self, *args, **kwargs):
            init(self, *args, **kwargs)
            if self.values is not None:
                built.append(self.level)

        monkeypatch.setattr(spectrum_module.SpectrumTable, "__init__", recording)
        for n in range(1, MAX_DIGITS[q] + 1):
            for d in range(1, n + 2):
                kinds = [table.kind for table, _ in descend(GraphParams(q, n, d))]
                handoff = kinds.index("edges") if "edges" in kinds else len(kinds)
                assert set(kinds[:handoff]) <= {"typed"} and set(kinds[handoff:]) <= {"edges"}, (n, d)
        assert built == []


class TestCosetIndexing:
    """A level's layout and indexing, checked against its pivots by second routes."""

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_every_level_of_every_small_cell(self, q):
        for n in range(1, MAX_DIGITS[q] + 1):
            for d in range(1, n + 2):
                for table, _ in descend(GraphParams(q, n, d)):
                    pivots = table.pivots
                    assert table.level == len(pivots)
                    # Second route to the pivot columns: the RREF of the pivot span.
                    pivot_cols = reference_rref([p.digits for p in pivots], q)[1]
                    assert table.free_cols == tuple(c for c in range(n) if c not in pivot_cols)
                    for i in range(table.size):
                        assert index_of(table, table.vector_at(i)) == i
                    for col in pivot_cols:
                        unit = FqVector(q, tuple(int(c == col) for c in range(n)))
                        for bad in (unit, FqVector(q, vadd(table.vector_at(table.size - 1).digits, unit.digits, q))):
                            with pytest.raises(ValueError, match="canonical"):
                                index_of(table, bad)
                    for pivot in pivots:
                        with pytest.raises(ValueError, match="canonical"):
                            index_of(table, pivot)

    @pytest.mark.parametrize("q", [2, 3, 5, 7])
    def test_each_level_holds_the_layout_it_was_built_with(self, monkeypatch, q):
        # Default levels (typed, then edges in the larger cells) and levels
        # on edges from level 1 on, so both layouts are met in every cell.
        for n in range(1, MAX_DIGITS[q] + 1):
            for d in range(1, n + 2):
                params = GraphParams(q, n, d)
                for table, _ in list(descend(params)) + edged_levels(monkeypatch, params):
                    pivots = table.pivots
                    assert table.pivot_cols == tuple(next(i for i, x in enumerate(p.digits) if x) for p in pivots)
                    ranked = reference_rref([p.digits for p in pivots], q)[1]
                    assert sorted(table.pivot_cols) == ranked
                    assert table.free_cols == tuple(c for c in range(n) if c not in ranked)
                    if table.kind == "typed":
                        assert table.pattern_cols is None
                        groups = {}
                        for col in table.free_cols:
                            groups.setdefault(tuple(p.digits[col] for p in pivots), []).append(col)
                        classes = sorted(groups.items())
                        assert table.types.classes == classes, (n, d, table.level)
                        # A type: the weight on the zero class, the sorted digits on any other.
                        seen = set()
                        for v in itertools.product(range(q), repeat=len(table.free_cols)):
                            at = dict(zip(table.free_cols, v))
                            seen.add(tuple(
                                sum(1 for c in cols if at[c]) if not any(key) else tuple(sorted(at[c] for c in cols))
                                for key, cols in classes
                            ))
                        assert table.types.count == len(seen), (n, d, table.level)
                        kept = table.types
                    else:
                        assert table.types is None
                        # Right to left, the free columns at which the rank of the words' columns grows.
                        right, grows = [], []
                        for col in reversed(table.free_cols):
                            right.append(tuple(word[col] for word in table.edges))
                            if len(reference_rref(right, q)[0]) > len(grows):
                                grows.append(col)
                        assert table.pattern_cols == tuple(reversed(grows)), (n, d, table.level)
                        kept = table.pattern_cols
                    same = dataclasses.replace(table, weight_values=table.weight_values)
                    for copy in (same, table.densify()):
                        assert (copy.types, copy.pattern_cols)[table.kind == "edges"] is kept
                        assert copy.pivot_cols is table.pivot_cols and copy.free_cols is table.free_cols


@pytest.mark.parametrize("cell", [(2, 10, 4), (2, 9, 3), (3, 5, 3), (5, 4, 3), (2, 18, 4), (3, 11, 4)])
def test_one_argmin_scan_per_level(monkeypatch, cell):
    # Counts real scans of a table's entries, not calls to min_value or
    # min_eigenvalue: descend, select_pivot and the pivot check all ask for
    # each level's minimum.  A typed level built by next_level is handed its
    # minimum with its values and scans none; level 0 and each edge level
    # share one value scan.  Only a level that picks a pivot derives the
    # argmin from that value (a typed one through its types' least-index
    # halves, an edge level from its pattern values), so the edgeless level
    # s pays for no argmin.  (2, 18, 4) and (3, 11, 4) end on edge levels.
    q, n, _ = cell
    kinds = [table.kind for table, _ in descend(GraphParams(*cell))]
    table_cls = spectrum_module.SpectrumTable
    real_least = spectrum_module._Types.least_index
    events = []

    def counted(name, kind):
        real = vars(table_cls)[name].func

        def scan(table):
            events.append((kind, table.level, table.kind))
            return real(table)

        prop = functools.cached_property(scan)
        prop.__set_name__(table_cls, name)
        monkeypatch.setattr(table_cls, name, prop)

    def least(types, free_cols, positions):
        events.append(("least", n - len(free_cols), "typed"))
        return real_least(types, free_cols, positions)

    counted("min_value", "value")
    counted("_minimum", "argmin")
    monkeypatch.setattr(spectrum_module._Types, "least_index", least)
    trace = run_algorithm1(GraphParams(*cell))
    assert len(kinds) == trace.s + 1
    assert set(kinds) <= {"typed", "edges"}
    scanned = [t for t in range(trace.s + 1) if t == 0 or kinds[t] == "edges"]
    assert [e for e in events if e[0] == "value"] == [("value", t, kinds[t]) for t in scanned]
    assert [e for e in events if e[0] == "argmin"] == [("argmin", t, kinds[t]) for t in range(trace.s)]
    assert [e for e in events if e[0] == "least"] == [("least", t, "typed") for t in range(trace.s) if kinds[t] == "typed"]
    if cell in [(2, 18, 4), (3, 11, 4)]:
        assert kinds[trace.s] == "edges"


@pytest.mark.parametrize("cell", [(3, 11, 4), (2, 20, 5)])
def test_each_level_step_derives_its_layout_once(monkeypatch, cell):
    # A level is handed its pivot columns, free columns and type count by
    # the level that builds it.  (3, 11, 4) runs four typed levels, the last
    # one gapped, and (2, 20, 5) eight; each then hands off to edge levels.
    counts = Counter()
    for name in ("_lead_col", "_type_count", "_low_weight_words"):
        def counting(*args, _real=getattr(spectrum_module, name), _name=name):
            counts[_name] += 1
            return _real(*args)

        monkeypatch.setattr(spectrum_module, name, counting)
    tables = [table for table, _ in descend(GraphParams(*cell))]
    kinds = [table.kind for table in tables]
    handoffs = sum(pair == ("typed", "edges") for pair in zip(kinds, kinds[1:]))
    assert handoffs == 1 and kinds[-1] == "edges"
    assert counts["_lead_col"] <= len(tables[-1].pivots)
    # Once per typed level, and once more for the level that hands off.
    assert counts["_type_count"] == kinds.count("typed") + handoffs
    assert counts["_low_weight_words"] == handoffs


def no_edges(*args):
    """An edge-route rule that never switches."""
    return False


def typed_levels(params):
    """Every level of the descent, kept typed to the end."""
    old = spectrum_module._edge_route
    spectrum_module._edge_route = no_edges
    try:
        return [table for table, _ in descend(params)]
    finally:
        spectrum_module._edge_route = old


# The cells below 6 * 10^4 entries, for the comparisons with the dense route.
DENSE_ROUTE_CELLS = {q: [(q, n, d) for n in range(1, 17) if q**n <= 6 * 10**4 for d in range(1, n + 2)] for q in (2, 3, 5, 7)}


@functools.cache
def dense_levels(cell):
    """The dense route's levels of one cell, built once for the tests that share it."""
    return dense_descent(GraphParams(*cell))


def trace_key(trace):
    return trace.s, trace.levels


class TestTypedLevels:
    """Typed levels against the dense route they replace."""

    @pytest.mark.parametrize("q", [2, 3, 5, 7])
    def test_dense_route_gives_the_same_trace(self, monkeypatch, q):
        # Second route: densify at level 0 and average dense tables only,
        # against the descent with and without its edge levels.
        for cell in DENSE_ROUTE_CELLS[q]:
            levels = dense_levels(cell)
            assert levels[-1][0].values[0] == 0, cell
            want = (len(levels) - 1, tuple(rec for _, rec in levels[:-1]))
            assert trace_key(run_algorithm1(GraphParams(*cell))) == want, cell
            with monkeypatch.context() as patch:
                patch.setattr(spectrum_module, "_edge_route", no_edges)
                assert trace_key(run_algorithm1(GraphParams(*cell))) == want, cell

    @pytest.mark.parametrize("cell", [(2, 9, 3), (3, 6, 3), (5, 4, 3), (7, 4, 4), (3, 7, 5)])
    def test_every_typed_level_densifies_to_the_dense_level(self, cell):
        params = GraphParams(*cell)
        dense = [table for table, _ in dense_descent(params)]
        typed = typed_levels(params)
        assert len(typed) == len(dense)
        for table, want in zip(typed, dense):
            assert table.values is None
            assert len(table.weight_values) == table.types.count
            assert table.densify().values == want.values
            assert table.min_eigenvalue() == dense_minimum(want)

    @pytest.mark.parametrize("cell", [(2, 9, 3), (3, 6, 3), (5, 4, 3), (7, 4, 4)])
    def test_ties_across_types_take_the_smallest_vector(self, cell):
        # Random values from a short range put the minimum on many types at
        # once, with no scalar symmetry: the typed argmin must still be the
        # dense rule's first index attaining the minimum.
        rng = random.Random(7)
        most_tied = 0
        for table in typed_levels(GraphParams(*cell))[:-1]:
            for _ in range(20):
                vals = tuple(rng.randint(-3, 0) for _ in range(table.types.count))
                doctored = dataclasses.replace(table, weight_values=vals)
                assert doctored.min_eigenvalue() == dense_minimum(doctored)
                most_tied = max(most_tied, vals[1:].count(min(vals[1:])))
        assert most_tied > 3

    def test_doctored_typed_table_raises(self):
        params = GraphParams(2, 8, 3)
        level1 = typed_levels(params)[1]
        pivot = select_pivot(level1)
        value, _ = level1.min_eigenvalue()
        vals = list(level1.weight_values)
        bumped = next(i for i, x in enumerate(vals) if i and x != value)
        vals[bumped] += 1
        doctored = dataclasses.replace(level1, weight_values=tuple(vals))
        with pytest.raises(DivisibilityError, match="level 1: eigenvalue sum -?[0-9]+ is not divisible by 2"):
            doctored.next_level(pivot, (level1.degree + value) // 2)

    @pytest.mark.parametrize("q, most_n", [(2, 10), (3, 6), (5, 4), (7, 3)])
    def test_min_value_comes_with_each_level(self, q, most_n):
        # A typed level built by next_level is handed its minimum, the least
        # of its distinct quotients; level 0 and edge levels scan for it.  A
        # dataclasses.replace copy takes the minimum of its own values.
        rng = random.Random(q)
        for n in range(1, most_n + 1):
            for d in range(1, n + 2):
                params = GraphParams(q, n, d)
                for table in [table for table, _ in descend(params)] + typed_levels(params):
                    vals = table.weight_values
                    assert table.min_value == min(vals[1:], default=table.degree), (q, n, d, table.level)
                    doctored = tuple(rng.randint(-9, 9) for _ in vals)
                    copy = dataclasses.replace(table, weight_values=doctored)
                    assert copy.min_value == min(doctored[1:], default=doctored[0]), (q, n, d, table.level)

    @staticmethod
    def check_first_offending_sums(monkeypatch, cell):
        """Bump two parent types of each typed level of ``cell`` by 1, five
        times, and check the error names the offending sum of the least type
        position, read from the undivided dense parent sums (``parent_sums``)
        mapped to type positions.  Returns the number of errors checked and
        of those whose offending type lies past the first ``inner`` types,
        ``inner`` the length of the inner halves ``_means`` was handed."""
        monkeypatch.setattr(spectrum_module, "_edge_route", no_edges)
        real, inner_sizes = spectrum_module._means, []

        def recording(by, parents, quot):
            inner_sizes.append(len(parents[0][1]))
            return real(by, parents, quot)

        monkeypatch.setattr(spectrum_module, "_means", recording)
        q, rng = cell[0], random.Random(5)
        levels = [table for table, _ in descend(GraphParams(*cell))]
        checked = reordered = past_first = 0
        for table, below in zip(levels, levels[1:]):
            pivot, value = below.pivots[-1], table.min_value
            bumpable = [i for i, x in enumerate(table.weight_values) if i and x != value]
            for _ in range(5 if len(bumpable) > 1 else 0):
                vals = list(table.weight_values)
                for i in rng.sample(bumpable, 2):
                    vals[i] += 1
                doctored = dataclasses.replace(table, weight_values=tuple(vals))
                sums = parent_sums(doctored, pivot)
                by_type = {}
                for k, total in enumerate(sums):
                    assert by_type.setdefault(below.types.position(below.vector_at(k).digits), total) == total
                offending = [p for p in sorted(by_type) if by_type[p] % q]
                if not offending:  # the two bumps meet in every sum that holds either
                    doctored.next_level(pivot, below.degree)
                    continue
                want = by_type[offending[0]]
                reordered += want != next(total for total in sums if total % q)
                message = f"^level {table.level}: eigenvalue sum {want} is not divisible by {q}$"
                with pytest.raises(DivisibilityError, match=message):
                    doctored.next_level(pivot, below.degree)
                checked += 1
                past_first += offending[0] >= inner_sizes[-1]
        assert checked >= 10 and reordered
        return checked, past_first

    @pytest.mark.parametrize("cell", [(2, 10, 4), (3, 6, 3)])
    def test_divisibility_error_names_the_first_offending_type(self, monkeypatch, cell):
        self.check_first_offending_sums(monkeypatch, cell)

    def test_divisibility_error_past_a_block_boundary(self, monkeypatch):
        # With blocks of one outer entry, a block of len(inner) types, a
        # first offending sum past the first inner types lies past a block
        # boundary.  (3, 9, 3)'s levels 2 and 3 have 6 and 9 outer entries.
        monkeypatch.setattr(spectrum_module, "_BLOCK", 1)
        _, past_first = self.check_first_offending_sums(monkeypatch, (3, 9, 3))
        assert past_first

    def test_means_in_blocks_of_one_outer_entry(self, monkeypatch):
        # Parent sums are taken a block of outer entries at a time, for every
        # q; blocks of one outer entry give the same levels and minima as the
        # default blocks.  (5, 8, 3) reaches no level of more than one outer
        # entry, (5, 9, 4) one of 125.
        real, outer_sizes = spectrum_module._means, {}

        def recording(by, parents, quot):
            q = len(parents)
            outer_sizes[q] = max(outer_sizes.get(q, 0), len(parents[0][0]))
            return real(by, parents, quot)

        monkeypatch.setattr(spectrum_module, "_means", recording)
        for cell in [(2, 12, 4), (2, 16, 5), (2, 18, 4), (3, 11, 4), (5, 8, 3), (5, 9, 4), (7, 7, 4)]:
            want = [(table.weight_values, table.min_value) for table, _ in descend(GraphParams(*cell))]
            with monkeypatch.context() as patch:
                patch.setattr(spectrum_module, "_BLOCK", 1)
                got = [(table.weight_values, table.min_value) for table, _ in descend(GraphParams(*cell))]
            assert got == want, cell
        assert sorted(outer_sizes) == [2, 3, 5, 7]
        assert all(size > 1 for size in outer_sizes.values()), outer_sizes

    def test_means_peak_below_32_bytes_per_type(self):
        # (5, 14, 4)'s level 2 holds 343,000 types.  The output tuple takes
        # 8 B a type; the blocks of sums and of parent values stay a fixed size.
        levels = list(itertools.islice(descend(GraphParams(5, 14, 4), budget=5**14), 3))
        level1, level2 = levels[1][0], levels[2][0]
        assert level2.kind == "typed" and level2.types.count == 343_000
        tracemalloc.start()
        try:
            built = level1.next_level(level2.pivots[-1], level2.degree)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert built == level2
        assert peak < 32 * level2.types.count, peak / level2.types.count

    def test_typed_pivot_checks(self):
        level1 = typed_levels(GraphParams(2, 7, 3))[1]
        # The checks refuse the pivot before the next level's layout is built.
        degree = (level1.degree + level1.min_value) // 2
        with pytest.raises(ValueError, match="nonzero"):
            level1.next_level(FqVector(2, (0,) * 7), degree)
        with pytest.raises(ValueError, match="canonical"):
            level1.next_level(FqVector(2, (0, 0, 0, 1, 0, 0, 0)), degree)
        with pytest.raises(ValueError, match="not the level minimum"):
            level1.next_level(FqVector(2, (1, 0, 0, 0, 0, 0, 0)), degree)

    def test_large_dense_tables_are_never_built(self, monkeypatch):
        # The dense route would build 2^22 entries at level 0.  Typed to the
        # end (first loop) or handing off to edge levels (last loop), neither
        # cell builds a dense table at any level.
        built = []
        init = spectrum_module.SpectrumTable.__init__

        def recording(self, *args, **kwargs):
            init(self, *args, **kwargs)
            if self.values is not None:
                built.append((self.level, len(self.values)))

        monkeypatch.setattr(spectrum_module.SpectrumTable, "__init__", recording)
        monkeypatch.setattr(spectrum_module, "_edge_route", no_edges)
        for cell in [(2, 22, 5), (2, 14, 4)]:
            assert {table.kind for table, _ in descend(GraphParams(*cell))} == {"typed"}
        assert built == []
        monkeypatch.undo()
        monkeypatch.setattr(spectrum_module.SpectrumTable, "__init__", recording)
        for cell in [(2, 22, 5), (2, 14, 4)]:
            assert [table.kind for table, _ in descend(GraphParams(*cell))][-1] == "edges"
        assert built == []

    @pytest.mark.parametrize("q", [2, 3, 5, 7])
    def test_least_indices_match_a_scan_of_the_dense_codes(self, q):
        for n in range(1, MAX_DIGITS[q] + 1):
            for d in range(1, n + 2):
                for table in typed_levels(GraphParams(q, n, d)):
                    types = table.types
                    codes = types.dense_codes(table.free_cols)
                    # A type's position is the rank of its code among the codes that occur.
                    position = {code: i for i, code in enumerate(sorted(set(codes)))}
                    assert len(position) == types.count
                    first = {}
                    for index, code in enumerate(codes):
                        first.setdefault(position[code], index)
                    least = [types.least_index(table.free_cols, [i]) for i in range(types.count)]
                    assert len(set(least)) == types.count
                    assert least == [first[i] for i in range(types.count)]
                    assert types.least_index(table.free_cols, range(types.count)) == 0

    @pytest.mark.parametrize("q", [2, 3, 5, 7])
    def test_tied_types_and_positions_match_the_dense_level(self, q):
        # Every typed level of every small cell, and (3, 9, 4), whose level
        # 3 holds its minimum on 60 of 324 types: the argmin from the tied
        # types alone is the first dense index after 0 attaining the
        # minimum, and value_of, which reads a type by its position, gives
        # the densified value at every canonical representative (gapped
        # layouts included for q > 2).
        cells = [(q, n, d) for n in range(1, MAX_DIGITS[q] + 1) for d in range(1, n + 2)]
        most_tied = 0
        for cell in cells + ([(3, 9, 4)] if q == 3 else []):
            for table in typed_levels(GraphParams(*cell)):
                dense = table.densify().values
                value = min(dense[1:], default=dense[0])
                first = dense.index(value, 1) if len(dense) > 1 else 0
                assert table.min_eigenvalue() == (value, table.vector_at(first)), (cell, table.level)
                positions = [table.types.position(table.vector_at(i).digits) for i in range(table.size)]
                assert [table.value_of(table.vector_at(i)) for i in range(table.size)] == list(dense), (cell, table.level)
                assert [table.weight_values[p] for p in positions] == list(dense)
                assert sorted(set(positions)) == list(range(table.types.count))
                most_tied = max(most_tied, table.weight_values[1:].count(value))
        assert most_tied >= (60 if q == 3 else 2)

    def test_gapped_handoff_level_builds_no_code_lookup(self, monkeypatch):
        # (3, 11, 4)'s level 3 is gapped and hands off to edges: its pivot is
        # checked by type position, and no code -> value lookup is built.
        table_cls = spectrum_module.SpectrumTable
        real = vars(table_cls)["_by_code"].func
        built = []

        def recording(table):
            built.append(table.level)
            return real(table)

        prop = functools.cached_property(recording)
        prop.__set_name__(table_cls, "_by_code")
        monkeypatch.setattr(table_cls, "_by_code", prop)
        levels = list(descend(GraphParams(3, 11, 4)))
        kinds = [table.kind for table, _ in levels]
        assert kinds == ["typed"] * 4 + ["edges"] * 2
        assert levels[3][0].types.gapped
        assert built == [0, 1, 2]

    def test_one_debug_record_per_level_shows_the_handoff(self, caplog):
        # (2, 12, 4) and (2, 14, 4) run typed levels, then edge levels.
        caplog.set_level(logging.DEBUG, logger="gvgraph")
        for n in (12, 14):
            caplog.clear()
            trace = run_algorithm1(GraphParams(2, n, 4))
            records = [r.getMessage() for r in caplog.records if r.name == "gvgraph"]
            assert len(records) == trace.s + 1
            kinds = [message.split(": ")[1].split(",")[0] for message in records]
            handoff = kinds.index("edges")
            assert 0 < handoff and set(kinds[:handoff]) == {"typed"} and set(kinds[handoff:]) == {"edges"}
            degrees = degree_history(trace) + (0,)
            for t in range(handoff, trace.s + 1):
                # Over F_2 each edge word is its own monic multiple: m = degree.
                assert records[t].startswith(f"level {t}: edges, {degrees[t]} edges, lambda_min ")
            assert records[0].startswith(f"level 0: typed, {n + 1} entries, lambda_min {lambda_history(trace)[0]}, degree")
            assert records[-1].split(", ")[2:4] == ["lambda_min 0", "degree 0"]


def always_edges(params, pivots, free_cols, degree, count):
    """An edge-route rule that switches at the first typed level: the words
    and pattern columns the route returns when it hands off."""
    words = spectrum_module._low_weight_words(params, pivots)
    return words, spectrum_module._pattern_cols(params.q, words, free_cols)


def edged_levels(monkeypatch, params):
    """Every level of the descent, on edges from level 1 on."""
    with monkeypatch.context() as patch:
        patch.setattr(spectrum_module, "_edge_route", always_edges)
        return list(descend(params))


class TestEdgeLevels:
    """Edge levels against the dense route and against brute force."""

    @pytest.mark.parametrize(
        "q, weighing",
        [pytest.param(q, {}, id=str(q)) for q in (2, 3, 5, 7)]
        + [pytest.param(q, {"_WEIGH_BYTES": 16}, id=f"{q}-chunked") for q in (2, 3)]
        + [pytest.param(q, {"_PACKED_BYTES": 0}, id=f"{q}-unpacked") for q in (2, 3)],
    )
    def test_forced_edge_route_gives_the_dense_levels(self, monkeypatch, q, weighing):
        # Second route: densify at level 0 and average dense tables only.
        # ``modq._span_weights`` weighs the pattern and dense tables as set,
        # in packed chunks of at most 16 bytes or one int per word, for the
        # q = 2 and 3 spans that are long enough to take many chunks.
        for name, value in weighing.items():
            monkeypatch.setattr(modq, name, value)
        for cell in DENSE_ROUTE_CELLS[q]:
            edged = edged_levels(monkeypatch, GraphParams(*cell))
            dense = dense_levels(cell)
            assert [rec for _, rec in edged] == [rec for _, rec in dense], cell
            for (table, _), (want, _) in zip(edged, dense):
                assert table.kind == ("edges" if table.level else "typed")
                assert table.densify().values == want.values, (cell, table.level)
                assert table.min_eigenvalue() == dense_minimum(want)

    @pytest.mark.parametrize("cell", [(2, 9, 4), (2, 10, 5), (3, 6, 4), (5, 4, 3), (7, 4, 3)])
    def test_edges_are_the_monic_low_weight_codewords(self, monkeypatch, cell):
        q, n, d = cell
        vectors = all_vectors(q, n)
        for table, _ in edged_levels(monkeypatch, GraphParams(*cell))[1:]:
            rows = [p.digits for p in table.pivots]
            want = [
                v for v in vectors
                if 0 < weight(v) < d and all(dot(v, row, q) == 0 for row in rows) and next(x for x in v if x) == 1
            ]
            # One word per class of nonzero multiples, in any order.
            forms = monic_forms(table.edges, q)
            assert len(set(forms)) == len(forms)
            assert sorted(forms) == want
            assert (q - 1) * len(table.edges) == table.degree

    @pytest.mark.parametrize("cell", [(2, 9, 4), (2, 10, 5), (2, 8, 7), (3, 6, 4), (5, 4, 3)])
    def test_low_weight_words_for_random_pivots(self, cell):
        # Independent pivot sets of every size, so every free weight and
        # every free column of the frontier is reached.
        q, n, d = cell
        rng = random.Random(n * d)
        vectors = all_vectors(q, n)
        for count in list(range(n)) * 2:
            rows = []
            while len(rows) < count:
                row = tuple(rng.randrange(q) for _ in range(n))
                if len(reference_rref(rows + [row], q)[0]) > len(rows):
                    rows.append(row)
            want = [
                v for v in vectors
                if 0 < weight(v) < d and all(dot(v, row, q) == 0 for row in rows) and next(x for x in v if x) == 1
            ]
            pivots = tuple(FqVector(q, row) for row in rows)
            forms = monic_forms(spectrum_module._low_weight_words(GraphParams(*cell), pivots), q)
            assert len(set(forms)) == len(forms), rows
            assert sorted(forms) == want, rows

    @pytest.mark.parametrize("cell", [(2, 10, 4), (3, 6, 3), (5, 4, 3)])
    def test_edge_tables_ignore_word_order_and_scalars(self, monkeypatch, cell):
        # The words of a class are multiples of one another, so a level
        # handed its words reversed, each times a nonzero scalar, must have
        # the same pattern columns, pattern values and dense values.
        q = cell[0]
        rng = random.Random(q)
        for table, _ in edged_levels(monkeypatch, GraphParams(*cell))[1:]:
            words = tuple(vscale(rng.randrange(1, q), word, q) for word in reversed(table.edges))
            level = edge_level(table.params, table.pivots, words, table.pivot_cols, table.free_cols)
            assert len(words) < 2 or level.edges != table.edges
            assert level.pattern_cols == table.pattern_cols
            assert level.weight_values == table.weight_values
            assert level.densify().values == table.densify().values

    @pytest.mark.parametrize("cell", [(2, 9, 3), (3, 6, 3), (5, 4, 3), (7, 4, 4)])
    def test_pattern_values_and_argmin_match_direct_counts(self, cell):
        # Random word sets orthogonal to the pivots, so the minimum lies on
        # many patterns at once: the values from the patterns must equal Z
        # counted word by word, and the argmin the dense rule's first index.
        rng = random.Random(11)
        params = GraphParams(*cell)
        q, n, _ = cell
        for table in typed_levels(params):
            basis = reference_kernel_basis(*reference_rref([p.digits for p in table.pivots], q), q, n)
            for _ in range(8):
                words = []
                while basis and len(words) < rng.randint(1, 6):
                    word = [0] * n
                    for vec in basis:
                        c = rng.choice([0, 0, 1])
                        word = [(x + c * y) % q for x, y in zip(word, vec)]
                    if any(word):
                        words.append(tuple(word))
                level = edge_level(params, table.pivots, tuple(words), table.pivot_cols, table.free_cols)
                dense = level.densify()
                assert dense.values == tuple(level.value_of(level.vector_at(i)) for i in range(level.size))
                assert level.min_value == dense_minimum(level)[0]
                assert level.min_eigenvalue() == dense_minimum(level)

    def test_doctored_edge_sets_raise(self, monkeypatch):
        # (2, 20, 5) enumerates its edges at level 7 and filters them at level 8.
        real_words = spectrum_module._low_weight_words
        monkeypatch.setattr(spectrum_module, "_low_weight_words", lambda params, pivots: real_words(params, pivots)[1:])
        with pytest.raises(RuntimeError, match="level 7: zero-character eigenvalue 21 disagrees with the degree recursion value 22"):
            run_algorithm1(GraphParams(2, 20, 5))
        monkeypatch.undo()

        def dropping(params, pivots, edges, *layout):
            return edge_level(params, pivots, edges[1:] if len(pivots) == 8 else edges, *layout)

        monkeypatch.setattr(spectrum_module, "edge_level", dropping)
        with pytest.raises(RuntimeError, match="level 8: zero-character eigenvalue 5 disagrees with the degree recursion value 6"):
            run_algorithm1(GraphParams(2, 20, 5))

    @pytest.mark.parametrize("cell, handoff", [((2, 18, 4), 4), ((2, 20, 5), 7)])
    def test_handoff_by_rank_gives_the_typed_level(self, cell, handoff):
        # The rank r of the words, not their number m, decides the handoff:
        # (2, 18, 4)'s level 4 holds 2,916 types with m = 12 and r = 10, and
        # (2, 20, 5)'s level 7 4,096 types with m = 22 and r = 11.
        params = GraphParams(*cell)
        tables = [table for table, _ in descend(params)]
        assert [table.kind for table in tables].index("edges") == handoff
        level, typed = tables[handoff], typed_levels(params)[handoff]
        assert len(level.weight_values) <= typed.types.count < 2 ** len(level.edges)
        assert level.densify().values == typed.densify().values
        assert level.min_eigenvalue() == typed.min_eigenvalue()

    def test_every_search_hands_off_when_the_rank_allows(self, monkeypatch):
        # Gates lifted, so every typed level with V <= count searches for its
        # words: the route hands off exactly when q^r <= count as well, and a
        # level whose q^r > count stays typed (8 of them on this grid, for
        # q = 2 and 3).  Traces equal the typed ones.
        monkeypatch.setattr(spectrum_module, "_SPARSE", 1)
        monkeypatch.setattr(spectrum_module, "_BITS", 10**9)
        real, calls = spectrum_module._edge_route, []

        def recording(params, pivots, free_cols, degree, count):
            route = real(params, pivots, free_cols, degree, count)
            calls.append((params, pivots, count, route))
            return route

        monkeypatch.setattr(spectrum_module, "_edge_route", recording)
        for cell in [cell for q in (2, 3, 5, 7) for cell in DENSE_ROUTE_CELLS[q]]:
            params = GraphParams(*cell)
            with monkeypatch.context() as patch:
                patch.setattr(spectrum_module, "_edge_route", no_edges)
                want = trace_key(run_algorithm1(params))
            assert trace_key(run_algorithm1(params)) == want, cell
        refused = 0
        for params, pivots, count, route in calls:
            q, free, d = params.q, params.n - len(pivots), params.d
            volume = sum(math.comb(free, i) * (q - 1) ** i for i in range(min(d - 1, free) + 1))
            words = spectrum_module._low_weight_words(params, pivots)
            rank = len(reference_rref(list(words), q)[0])
            assert (route is not None) == (volume <= count and q**rank <= count), (params, len(pivots))
            refused += volume <= count < q**rank
        assert refused == 8

    def test_edge_pivot_checks(self):
        params = GraphParams(2, 18, 4)
        level = next(table for table, _ in descend(params) if table.kind == "edges")
        pivot = select_pivot(level)
        assert level.value_of(pivot) == level.min_value
        # One word fewer and the pattern values kept: the pivot's Z, counted
        # word by word, no longer gives the pattern minimum.
        doctored = dataclasses.replace(level, edges=level.edges[1:])
        degree = (level.degree + level.min_value) // 2
        with pytest.raises(ValueError, match="not the level minimum"):
            doctored.next_level(pivot, degree)
        with pytest.raises(ValueError, match="nonzero"):
            level.next_level(FqVector(2, (0,) * 18), degree)
        with pytest.raises(ValueError, match="canonical"):
            level.next_level(level.pivots[0], degree)


class TestDensify:
    """``densify`` adds only the rows ``spectrum --level t`` prints."""

    @pytest.mark.parametrize("q", [2, 3, 5, 7])
    def test_densified_levels_answer_as_their_source_and_print_the_dense_rows(self, monkeypatch, q):
        # Every typed level (kept typed to the end) and every edge level (on
        # edges from level 1) of the small cells, gapped layouts included.
        gapped = False
        for n in range(1, MAX_DIGITS[q] + 1):
            for d in range(1, n + 2):
                params = GraphParams(q, n, d)
                dense = [want for want, _ in dense_levels((q, n, d))]
                for tables in (typed_levels(params), [table for table, _ in edged_levels(monkeypatch, params)]):
                    assert len(tables) == len(dense), (n, d)
                    for table, want in zip(tables, dense):
                        full = table.densify()
                        assert (full.kind, full.degree, full.min_value, full.min_eigenvalue()) == (
                            table.kind, table.degree, table.min_value, table.min_eigenvalue()
                        ), (n, d, table.level)
                        # At most 16 representatives: an edge level's value_of counts word by word.
                        vectors = [table.vector_at(i) for i in range(0, table.size, -(-table.size // 16))]
                        assert list(map(full.value_of, vectors)) == list(map(table.value_of, vectors))
                        assert list(full.entries()) == list(want.entries()), (n, d, table.level)
                        gapped |= table.kind == "typed" and table.types.gapped
        assert gapped == (q > 2)


@st.composite
def small_cells(draw):
    q = draw(st.sampled_from(sorted(MAX_DIGITS)))
    n = draw(st.integers(1, MAX_DIGITS[q]))
    return GraphParams(q, n, draw(st.integers(1, n + 1)))


class TestDescentProperties:
    @settings(max_examples=80, deadline=None)
    @given(small_cells())
    def test_trace_properties(self, params):
        q, n = params.q, params.n
        trace = run_algorithm1(params)
        degrees = degree_history(trace) + (0,)
        # The degree recursion D_{t+1} = (D_t + (q-1) lambda_t) / q, down to degree 0.
        assert degrees[0] == params.degree
        for t, rec in enumerate(trace.levels):
            assert q * degrees[t + 1] == degrees[t] + (q - 1) * rec.lambda_min
        code = LinearCode(q, n, trace.parity_rows)
        assert min_distance(code) >= params.d
        assert all(bound <= q ** (n - trace.s) for bound in trace.bounds)

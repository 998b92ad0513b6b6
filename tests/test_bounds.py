from decimal import Decimal
from fractions import Fraction

import pytest

from gvgraph import (
    BoundReport,
    BudgetError,
    GraphParams,
    asymptotic_gv,
    build_bound_report,
    build_spectrum_level0,
    descent_bound,
    gv_bound,
    hoffman_bound,
    hoffman_paper_literal,
    run_algorithm1,
)
from helpers import lambda_history

# Frozen from an independent mpmath evaluation.
RATE_2_QUARTER = Decimal("0.18872187554086713609030420796086238156986080576936")


class TestGvBound:
    def test_anchors(self):
        assert gv_bound(GraphParams(2, 7, 3)) == Fraction(128, 29)
        assert gv_bound(GraphParams(2, 4, 2)) == Fraction(16, 5)

    def test_whole_space_at_d1(self):
        for q, n in ((2, 5), (3, 4)):
            assert gv_bound(GraphParams(q, n, 1)) == q**n


class TestAsymptoticGv:
    def test_at_zero(self):
        assert asymptotic_gv(2, 0) == 1

    def test_quarter_anchor(self):
        assert asymptotic_gv(2, Fraction(1, 4)) == RATE_2_QUARTER

    def test_approaches_zero_near_half(self):
        eps = Fraction(1, 10**12)
        assert 0 < asymptotic_gv(2, Fraction(1, 2) - eps) < Decimal("1e-10")

    def test_rejects_delta_at_or_beyond_limit(self):
        with pytest.raises(ValueError):
            asymptotic_gv(2, Fraction(1, 2))
        with pytest.raises(ValueError):
            asymptotic_gv(3, Fraction(7, 10))


class TestHoffman:
    def test_flagship_anchor(self):
        assert hoffman_bound(GraphParams(2, 7, 3), -4) == 16

    def test_242_anchor(self):
        assert hoffman_bound(GraphParams(2, 4, 2), -4) == 8

    def test_complete_graph_gives_one(self):
        for q, n in ((2, 3), (3, 2)):
            p = GraphParams(q, n, n + 1)
            assert hoffman_bound(p, -1) == 1

    def test_paper_literal_variant(self):
        assert hoffman_paper_literal(GraphParams(2, 7, 3), -4) == Fraction(64, 3)
        # degree 1 and lambda -1 zero the printed denominator
        assert hoffman_paper_literal(GraphParams(2, 1, 2), -1) is None

    def test_requires_negative_lambda(self):
        with pytest.raises(ValueError):
            hoffman_bound(GraphParams(2, 4, 2), 0)


class TestWilfCor27:
    def test_flagship_anchor(self):
        assert descent_bound(GraphParams(2, 7, 3), [-4]) == Fraction(128, 27)

    def test_improvement_over_gv(self):
        assert descent_bound(GraphParams(2, 7, 3), [-4]) > gv_bound(GraphParams(2, 7, 3))

    def test_degenerate_d1(self):
        p = GraphParams(2, 5, 1)
        assert descent_bound(p, [0]) == Fraction(2**5, 1 + 0 + 2)

    def test_strictness_threshold_is_exact(self):
        # Improvement over GV iff (q-1) * lambda_min + q < 0; equality at 0.
        for cell in [(2, 2, 2), (2, 4, 3)]:
            p = GraphParams(*cell)
            lam, _ = build_spectrum_level0(p).min_eigenvalue()
            assert lam == -2
            assert (p.q - 1) * lam + p.q == 0
            assert descent_bound(p, [lam]) == gv_bound(p)
        for cell in [(2, 7, 3), (2, 5, 3), (3, 3, 2)]:
            p = GraphParams(*cell)
            lam, _ = build_spectrum_level0(p).min_eigenvalue()
            assert (p.q - 1) * lam + p.q < 0
            assert descent_bound(p, [lam]) > gv_bound(p)

    def test_rejects_vacuous_denominator(self):
        with pytest.raises(ValueError, match="not positive"):
            descent_bound(GraphParams(2, 4, 2), [-8])


class TestDescentBound:
    def test_flagship_values(self):
        p = GraphParams(2, 7, 3)
        assert descent_bound(p, [-4]) == Fraction(128, 27)
        assert descent_bound(p, [-4, -4]) == Fraction(128, 21)
        assert descent_bound(p, [-4, -4, -4]) == Fraction(128, 9)

    def test_full_run_bound_dominates_first_level(self):
        for cell in [(2, 7, 3), (2, 9, 3), (3, 5, 3)]:
            trace = run_algorithm1(GraphParams(*cell))
            assert trace.bounds[-1] >= trace.bounds[0]

    def test_final_bound_closed_form(self):
        # At termination the accumulated denominator telescopes to q^s + 1.
        for cell in [(2, 7, 3), (2, 8, 3), (3, 4, 3), (2, 10, 5)]:
            p = GraphParams(*cell)
            trace = run_algorithm1(p)
            assert descent_bound(p, lambda_history(trace)) == Fraction(
                p.num_vertices, p.q**trace.s + 1
            )

    def test_rejects_empty_and_vacuous(self):
        p = GraphParams(2, 4, 2)
        with pytest.raises(ValueError):
            descent_bound(p, [])
        with pytest.raises(ValueError, match="not positive"):
            descent_bound(p, [-8])


class TestBoundReport:
    def test_flagship_report(self):
        p = GraphParams(2, 7, 3)
        report = build_bound_report(p, run_algorithm1(p))
        assert isinstance(report, BoundReport)
        assert report.lambda_min == -4
        assert report.gv == Fraction(128, 29)
        assert report.wilf_cor27 == Fraction(128, 27)
        assert report.hoffman_upper == 16
        assert report.hoffman_paper_literal == Fraction(64, 3)
        assert report.descent_bounds == (Fraction(128, 27), Fraction(128, 21), Fraction(128, 9))
        assert report.constructed_code_size == 16
        assert report.s == 3
        assert not report.degenerate
        assert report.asymptotic_rate is not None

    def test_monotone_chain_gv_wilf_descent(self):
        for cell in [(2, 7, 3), (2, 8, 3), (2, 9, 4), (3, 5, 3), (3, 4, 3)]:
            p = GraphParams(*cell)
            report = build_bound_report(p, run_algorithm1(p))
            assert report.gv <= report.wilf_cor27
            chain = (report.wilf_cor27,) + report.descent_bounds
            assert all(a <= b for a, b in zip(chain, chain[1:]))

    def test_sandwich_code_size_between_final_bound_and_hoffman(self):
        from math import ceil, floor

        for cell in [(2, 7, 3), (2, 8, 3), (2, 9, 4), (3, 5, 3), (5, 3, 2)]:
            p = GraphParams(*cell)
            report = build_bound_report(p, run_algorithm1(p))
            assert ceil(report.descent_bounds[-1]) <= report.constructed_code_size
            assert report.constructed_code_size <= floor(report.hoffman_upper)

    def test_degenerate_d1(self):
        p = GraphParams(2, 5, 1)
        report = build_bound_report(p, run_algorithm1(p))
        assert report.degenerate
        assert report.lambda_min == 0
        assert report.hoffman_upper is None
        assert report.s == 0
        assert report.descent_bounds == ()
        assert report.constructed_code_size == 2**5

    def test_degenerate_complete(self):
        p = GraphParams(2, 4, 5)
        report = build_bound_report(p, run_algorithm1(p))
        assert report.degenerate
        assert report.hoffman_upper == 1
        assert report.constructed_code_size == 1
        assert report.asymptotic_rate is None

    def test_budget_propagates_and_closed_form_fallback(self):
        with pytest.raises(BudgetError):
            build_bound_report(GraphParams(2, 12, 3), run_algorithm1(GraphParams(2, 12, 3), budget=100))
        report = build_bound_report(GraphParams(2, 12, 3))
        assert report.descent_bounds is None
        assert report.constructed_code_size is None
        assert report.gv == Fraction(2**12, 1 + 12 + 66)

    def test_report_without_trace_never_descends(self, monkeypatch):
        import gvgraph.descent

        def refuse(*args, **kwargs):
            raise AssertionError("build_bound_report ran the descent")

        monkeypatch.setattr(gvgraph.descent, "descend", refuse)
        report = build_bound_report(GraphParams(2, 7, 3))
        assert (report.descent_bounds, report.constructed_code_size, report.s) == (None, None, None)
        assert report.wilf_cor27 == Fraction(128, 27)

    def test_level0_minimum_taken_from_the_trace(self, monkeypatch):
        # A trace with a level already holds lambda_0, so the report builds
        # no level-0 spectrum; an edgeless level 0 leaves the trace without
        # levels, and without a trace the report builds it once.
        import gvgraph.bounds

        traces = {cell: run_algorithm1(GraphParams(*cell)) for cell in [(2, 7, 3), (3, 5, 3), (2, 4, 5), (2, 5, 1)]}
        wanted = {cell: build_bound_report(GraphParams(*cell)).lambda_min for cell in traces}
        built = []
        real = gvgraph.bounds.build_spectrum_level0

        def counted(params):
            built.append(params)
            return real(params)

        monkeypatch.setattr(gvgraph.bounds, "build_spectrum_level0", counted)
        for cell, trace in traces.items():
            built.clear()
            report = build_bound_report(GraphParams(*cell), trace)
            assert report.lambda_min == wanted[cell]
            assert len(built) == (0 if trace.levels else 1), cell
        built.clear()
        build_bound_report(GraphParams(2, 7, 3))
        assert len(built) == 1

    def test_asymptotic_rate_absent_when_delta_too_large(self):
        assert build_bound_report(GraphParams(2, 4, 3)).asymptotic_rate is None
        assert build_bound_report(GraphParams(2, 8, 3)).asymptotic_rate is not None

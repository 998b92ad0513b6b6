import pytest

from gvgraph import DEFAULT_BUDGET, BudgetError
from gvgraph.errors import check_budget


def test_default_budget_is_two_to_the_26():
    assert DEFAULT_BUDGET == 2**26
    check_budget(2, 26, None, "a table")
    with pytest.raises(BudgetError, match=r"needs 2\^27 table entries, exceeding the budget of 67108864"):
        check_budget(2, 27, None, "a table")

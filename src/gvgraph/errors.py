"""Shared error types and the table-entry budget."""

# Default cap on table / enumeration entries: the q^n indices of a descent's
# level 0 (checked before it starts, although its typed and edge levels hold
# far fewer entries), the q^(n-t) rows ``spectrum --level t`` prints, and the
# codewords or dual words ``verify`` weighs.  The CLI exposes --budget to
# override it.
DEFAULT_BUDGET = 2**26


class BudgetError(RuntimeError):
    """A computation would materialize more entries than the budget allows."""


class PchkFormatError(ValueError):
    """A parity-check file violates the gvpchk v1 format."""


class DivisibilityError(ArithmeticError):
    """An exact count or average failed exact divisibility.

    Raised when an eigenvalue average, a degree recursion value or a
    MacWilliams sum (a weight count of a code, computed from its dual) is
    not an exact nonnegative integer where one must be.  This cannot happen
    for tables and codes produced by the library (the averaged character
    sums are integer eigenvalue sums of a genuine Cayley graph, and the
    MacWilliams sums count codewords); it signals corrupted data or an
    implementation bug.
    """


def check_budget(q: int, k: int, budget: int | None, what: str) -> None:
    """Refuse to materialize q^k entries (q >= 2) when that exceeds the budget.

    Since q^k >= 2^k, an exponent at or beyond the cap's bit length is
    refused before the power is computed, so the check is instant at any k.
    """
    cap = DEFAULT_BUDGET if budget is None else budget
    if k >= cap.bit_length() or q**k > cap:
        raise BudgetError(
            f"{what} needs {q}^{k} table entries, exceeding the budget of {cap}; "
            f"raise the budget to proceed"
        )

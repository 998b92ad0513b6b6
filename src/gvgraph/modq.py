"""Small exact linear algebra mod a prime q: RREF, rank, kernel bases.

Rows are plain digit tuples; q prime guarantees every nonzero pivot is
invertible (pow(a, -1, q)).
"""

from __future__ import annotations

__all__ = ["kernel_basis", "rank", "rref"]


def rref(rows: list[tuple[int, ...]], q: int) -> tuple[list[tuple[int, ...]], list[int]]:
    """Reduced row-echelon form of ``rows`` mod q.

    Returns (rref_rows, pivot_cols); zero rows are dropped, each surviving
    row has a leading 1 in a distinct pivot column and zeros in every other
    row's pivot column.
    """
    work = [list(r) for r in rows]
    n = len(work[0]) if work else 0
    out: list[list[int]] = []
    pivot_cols: list[int] = []
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


def rank(rows: list[tuple[int, ...]], q: int) -> int:
    return len(rref(rows, q)[0])


def kernel_basis(rref_rows: list[tuple[int, ...]], pivot_cols: list[int], q: int, n: int) -> list[tuple[int, ...]]:
    """A basis of the joint kernel {u : <u, row> = 0 for every row}, from the rows' ``rref``.

    One basis vector per free column f: 1 at f, -row[f] at each pivot
    column, 0 elsewhere.  Returned in increasing free-column order.
    """
    free_cols = [c for c in range(n) if c not in pivot_cols]
    basis = []
    for f in free_cols:
        vec = [0] * n
        vec[f] = 1
        for row, col in zip(rref_rows, pivot_cols):
            vec[col] = (-row[f]) % q
        basis.append(tuple(vec))
    return basis

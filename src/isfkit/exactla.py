"""The library's one exact elimination: fraction-free Gauss-Jordan over the
integers, for the ranks of simplicial homology (integer boundary matrices).

Each step replaces a row by p*row - f*pivot_row, where p is the pivot and f
the row's entry in the pivot column, and divides the result by the gcd of its
entries.  Entries stay integers and no rational number is ever built; the
gcd division keeps them small, where Bareiss (Math. Comp. 22 (1968)) divides
by the previous pivot instead.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, Sequence

__all__ = ["echelon"]


def echelon(rows: Iterable[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """The reduced row-echelon form over Q of integer rows, each row scaled to
    a primitive integer vector with a positive pivot, without zero rows.

    The result is canonical: two row sets span the same Q-space exactly when
    their forms are equal, and the rank is the number of rows returned.
    """
    mat = [list(r) for r in rows if any(r)]
    if not mat:
        return ()
    rank = 0
    for col in range(len(mat[0])):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if pivot is None:
            continue
        prow = mat[pivot]
        mat[pivot] = mat[rank]
        g = gcd(*prow)
        if prow[col] < 0:
            g = -g
        if g != 1:
            prow = [x // g for x in prow]
        mat[rank] = prow
        p = prow[col]
        for r, row in enumerate(mat):
            f = row[col]
            if f and r != rank:
                row = [p * a - f * b for a, b in zip(row, prow)]
                g = gcd(*row)
                if g > 1:
                    row = [x // g for x in row]
                mat[r] = row
        rank += 1
        if rank == len(mat):
            break
    return tuple(tuple(row) for row in mat[:rank])

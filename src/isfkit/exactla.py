"""The library's one exact Gauss-Jordan elimination, over any field whose
elements support + - * / and truthiness: Fraction for simplicial homology
ranks, the Gaussian rationals of `arrangement` for intersection lattices."""

from __future__ import annotations

from typing import Iterable, Sequence

__all__ = ["rref"]


def rref(rows: Iterable[Sequence]) -> tuple:
    """Reduced row-echelon form with unit pivots and no zero rows.

    The result is canonical: two row sets span the same space exactly when
    their forms are equal, and the rank is the number of rows returned.
    """
    mat = [list(r) for r in rows]
    if not mat:
        return ()
    ncols = len(mat[0])
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        scale = mat[rank][col]
        mat[rank] = [x / scale for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                factor = mat[r][col]
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return tuple(tuple(row) for row in mat[:rank])

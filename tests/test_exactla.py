import random
from math import gcd

from isfkit.exactla import echelon

from helpers import oracle_in_span, oracle_rank


def seeded_matrices(seed, count=200):
    """(rows, column count): small entries, mostly zero, some zero rows and
    some matrices with no rows at all."""
    rng = random.Random(seed)
    for _ in range(count):
        cols = rng.randint(1, 7)
        mat = []
        for _ in range(rng.randint(0, 6)):
            if rng.random() < 0.15:
                mat.append([0] * cols)
            else:
                mat.append([rng.choice([0, 0, 0, 1, -1, 2, -3, 5]) for _ in range(cols)])
        yield mat, cols


def unit(k, cols):
    return [int(c == k) for c in range(cols)]


def test_echelon_small_cases():
    assert echelon([]) == ()
    assert echelon([[0, 0, 0], [0, 0, 0]]) == ()
    assert echelon([[-2, 4, 0]]) == ((1, -2, 0),)
    assert echelon([[0, -3, 6], [0, 0, -5]]) == ((0, 1, 0), (0, 0, 1))
    assert echelon([[2, 1], [-4, 3]]) == ((1, 0), (0, 1))
    assert echelon([[3, 1, 2], [-6, 1, 0]]) == ((9, 0, 2), (0, 3, 4))


def test_echelon_rank_and_span_match_fraction_oracle():
    for mat, _ in seeded_matrices(11):
        form = echelon(mat)
        assert len(form) == oracle_rank(mat), mat
        assert all(oracle_in_span(row, mat) for row in form), mat
        assert all(oracle_in_span(row, form) for row in mat), mat


def test_echelon_rows_are_primitive_reduced_with_positive_pivots():
    for mat, _ in seeded_matrices(13):
        form = echelon(mat)
        pivots = [next(k for k, x in enumerate(row) if x) for row in form]
        assert pivots == sorted(set(pivots)), form
        for row, p in zip(form, pivots):
            assert row[p] > 0 and gcd(*row) == 1, form
            assert all(row[q] == 0 for q in pivots if q != p), form


def test_echelon_is_canonical():
    rng = random.Random(17)
    for mat, cols in seeded_matrices(19):
        form = echelon(mat)
        scales = [rng.choice([1, -1, 2, -6, 7]) for _ in mat]
        scaled = [[c * x for x in row] for c, row in zip(scales, mat)]
        assert echelon(scaled) == form, mat
        shuffled = mat[:]
        rng.shuffle(shuffled)
        assert echelon(shuffled) == form, mat
        combos = []
        for _ in range(3):
            coeffs = [rng.randint(-3, 3) for _ in mat]
            combos.append(
                [sum(c * row[k] for c, row in zip(coeffs, mat)) for k in range(cols)]
            )
        assert echelon(mat + combos) == form, mat
        outside = [unit(k, cols) for k in range(cols) if not oracle_in_span(unit(k, cols), mat)]
        if outside:
            assert echelon(mat + outside[:1]) != form, mat

import itertools
import random
from math import comb

from helpers import avoiding
from isfkit.walks import (
    block_transversals,
    count_by_size,
    downward_closed,
    independent_set_counts,
    members,
)


def items_of(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def test_downward_closed_matches_subset_filter_in_preorder():
    rng = random.Random(31)
    for _ in range(60):
        q = rng.randint(0, 10)
        forbidden = [
            sum(1 << i for i in rng.sample(range(q), rng.randint(1, min(q, 4))))
            for _ in range(rng.randint(0, 6) if q else 0)
        ]
        blockers = [[] for _ in range(q)]
        for f in forbidden:
            top = f.bit_length() - 1
            blockers[top].append(f ^ 1 << top)
        walked = list(downward_closed(q, avoiding(blockers), 0))
        expected = [m for m in range(1 << q) if not any(m & f == f for f in forbidden)]
        assert len(walked) == len(set(walked))
        # depth-first preorder is lexicographic order on the item lists
        assert walked == sorted(expected, key=items_of)


def test_downward_closed_threads_the_state_of_each_set():
    def extend(mask, state, i):
        assert state == mask
        return None if mask.bit_count() == 3 else mask | 1 << i

    walked = list(downward_closed(6, extend, 0))
    assert walked == sorted((m for m in range(64) if m.bit_count() <= 3), key=items_of)


def test_block_transversals_and_counts():
    choices = list(block_transversals([["a", "b"], ["c"]]))
    assert choices == [(), ("c",), ("a",), ("a", "c"), ("b",), ("b", "c")]
    assert count_by_size([0, 4, 1, 5, 2, 6]) == {0: 1, 1: 3, 2: 2}
    assert members("abc", 5) == ["a", "c"]


def neighbour_masks(q, edges):
    nbrs = [0] * q
    for a, b in edges:
        nbrs[a] |= 1 << b
        nbrs[b] |= 1 << a
    return nbrs


def brute_independent_counts(q, edges):
    return count_by_size(
        m for m in range(1 << q) if not any(m >> a & m >> b & 1 for a, b in edges)
    )


def disjoint_union(*graphs):
    q, edges = 0, []
    for size, part in graphs:
        edges += [(a + q, b + q) for a, b in part]
        q += size
    return q, edges


def path(q):
    return q, [(i, i + 1) for i in range(q - 1)]


def cycle(q):
    return q, [(i, (i + 1) % q) for i in range(q)]


def test_independent_set_counts_match_brute_force_beyond_unions_of_cliques():
    rng = random.Random(43)
    graphs = [path(q) for q in range(13)] + [cycle(q) for q in range(3, 13)]
    graphs += [disjoint_union(path(4), cycle(5)),
               disjoint_union(cycle(3), path(1), cycle(4))]
    for q in range(13):
        for _ in range(4):
            pairs = itertools.combinations(range(q), 2)
            graphs.append((q, [e for e in pairs if rng.random() < 0.5]))
    for q, edges in graphs:
        # as drawn, and relabeled at random, so that the lowest vertex, where
        # the recursion branches, is not always an end of a path
        for labels in (range(q), rng.sample(range(q), q)):
            relabeled = [(labels[a], labels[b]) for a, b in edges]
            assert independent_set_counts(neighbour_masks(q, relabeled)) == (
                brute_independent_counts(q, relabeled)
            )


def test_independent_set_counts_of_known_families():
    # k independent vertices of the path on q vertices: C(q - k + 1, k)
    q, edges = path(22)
    assert independent_set_counts(neighbour_masks(q, edges)) == {
        k: comb(23 - k, k) for k in range(12)
    }
    assert independent_set_counts([0] * 22) == {k: comb(22, k) for k in range(23)}
    q, edges = 22, list(itertools.combinations(range(22), 2))
    assert independent_set_counts(neighbour_masks(q, edges)) == {0: 1, 1: 22}
    assert independent_set_counts([]) == {0: 1}

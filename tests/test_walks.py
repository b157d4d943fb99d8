import random

from isfkit.walks import (
    avoiding,
    block_transversals,
    count_by_size,
    downward_closed,
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

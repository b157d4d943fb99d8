"""Enumeration kernels for the subset-closed families of the paper.

Increasing spanning forests, NBC sets of a graph or of a lattice, tight
forests and cage-free subcomplexes are all closed under taking subsets; each
cross-check of a factored product enumerates or counts one of them.  `downward_closed`
walks such a family, a member being a bitmask over the items range(q) with
bit i set when item i is chosen; `block_transversals` lists the "at most one
item per block" products, and `independent_set_counts` counts the
independent sets of a graph by size without listing them.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, Iterator, Sequence


def downward_closed(q: int, extend: Callable, state) -> Iterator[int]:
    """Every member of a subset-closed family over range(q), as a bitmask.

    The empty set is a member with the given state.  `extend(mask, state, i)`
    is called only with i above every item of mask; it returns the state of
    mask | 1 << i, or None when that set is not a member.  Every member is
    reached from the member without its largest item, so the walk costs O(q)
    per member, not 2**q.  Members come once each, in lexicographic
    depth-first preorder: a set before its extensions, smaller items first.
    """
    yield 0
    stack = [(0, state, 0)]
    while stack:
        mask, state, i = stack.pop()
        while i < q:
            child = extend(mask, state, i)
            if child is not None:
                stack.append((mask, state, i + 1))
                mask |= 1 << i
                state = child
                yield mask
            i += 1


def independent_set_counts(neighbours: Sequence[int]) -> dict[int, int]:
    """Independent sets of the graph on range(q) whose vertex i has the
    neighbour bitmask neighbours[i], counted by size in increasing size.

    A memoized recursion on vertex bitmasks: a disconnected set multiplies
    the counts of the component of its lowest vertex and of the rest, and a
    connected one takes I(G - v) + t I(G - N[v]) at its lowest vertex v.  The
    counts are packed into one int, width q + 1 bits per size, so a product
    is one multiplication and t a shift.  Each call removes at least one
    vertex before it recurses twice, so the depth is at most 2q."""
    q = len(neighbours)
    width = q + 1
    memo = {0: 1}

    def count(s: int) -> int:
        got = memo.get(s)
        if got is None:
            low = s & -s
            part = frontier = low
            while frontier:
                bit = frontier & -frontier
                frontier ^= bit
                new = neighbours[bit.bit_length() - 1] & s & ~part
                part |= new
                frontier |= new
            if part != s:
                got = count(part) * count(s ^ part)
            else:
                closed = neighbours[low.bit_length() - 1] | low
                got = count(s ^ low) + (count(s & ~closed) << width)
            memo[s] = got
        return got

    return unpack_counts(count((1 << q) - 1), width)


def block_transversals(blocks: Iterable[Sequence]) -> Iterator[tuple]:
    """Every choice of at most one item from each block, as the tuple of the
    chosen items, in itertools.product order with "none" first."""
    for choice in itertools.product(*[[None, *block] for block in blocks]):
        yield tuple(item for item in choice if item is not None)


def count_by_size(masks: Iterable[int]) -> dict[int, int]:
    """Member counts keyed by member size, in increasing size."""
    counts: dict[int, int] = {}
    for mask in masks:
        k = mask.bit_count()
        counts[k] = counts.get(k, 0) + 1
    return dict(sorted(counts.items()))


def unpack_counts(packed: int, width: int) -> dict[int, int]:
    """The nonzero counts c_k of the packing sum c_k << width * k, each below
    2**width, keyed by k in increasing order."""
    mask, fields = (1 << width) - 1, -(-packed.bit_length() // width)
    return {k: c for k in range(fields) if (c := packed >> width * k & mask)}


def members(items: Sequence, mask: int) -> list:
    """The items whose bits are set in mask, in item order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(items[low.bit_length() - 1])
        mask ^= low
    return out

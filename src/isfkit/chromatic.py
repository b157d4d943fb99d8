"""The routes of the chromatic polynomial.  `graphcore` imports this
module only when it colours a graph, so the commands that do not colour
never compile it.

`_by_contraction` is a memoized deletion- and addition-contraction
recursion on tuples of neighbour bitmasks.  `_by_colour_classes` expands
the counts of `_class_counts`, a transfer over the vertices whose states
are the partitions of the frontier into colour classes, in the
falling-factorial basis.  The two share no table, and each χ identity
compares two routes: `graphcore.chromatic_polynomial` (`graph chromatic`,
`forest verify`) compares these two, and `graphcore.verify_isf_nbc`
(`graph verify`) compares the colour classes with Whitney's signed counts
of the NBC transfer, so the recursion does not run there.
`graphcore.acyclic_orientation_count` given no χ (`complex verify`, on
each upper link) takes the recursion alone where its source-set recursion
fits the 2-core and checks it, and `chromatic_polynomial` elsewhere, so
the colour classes run there only on a link whose core is past the
orientation budgets.  The colour classes run through
`graphcore._run_transfer`, which applies the table and bits budgets, and
the recursion checks its memo, and its result before it starts, against
the same two constants of `graphcore`.
"""

from __future__ import annotations

from typing import Sequence

from . import graphcore
from .graphcore import Graph


def _touched(G: Graph) -> list[int]:
    """The vertices with an edge, in label order."""
    return sorted({v for e in G.edges for v in e})


def _neighbour_masks(G: Graph, touched: Sequence[int]) -> list[int]:
    """The neighbour bitmasks of the vertices `touched`, those with an edge,
    numbered 0, 1, ... in label order."""
    index = {v: i for i, v in enumerate(touched)}
    masks = [0] * len(touched)
    for i, j in G.edges:
        masks[index[i]] |= 1 << index[j]
        masks[index[j]] |= 1 << index[i]
    return masks


def _class_counts(G: Graph) -> tuple[list[int], int]:
    """a[k], the number of partitions of the vertices with an edge into k
    independent colour classes, and the number of vertices without an edge,
    by a transfer that lists no partition.

    The vertices with an edge are taken in label order.  A state is the
    partition of the frontier, the placed vertices that still have a later
    neighbour, into colour classes: a sorted tuple of bitmasks, one per open
    class.  Each state maps to its counts by k, the number of classes, open
    or closed, as a list.  A new vertex w opens a class (k + 1), joins one
    of the k - o closed classes, o being the state's open classes, or joins
    an open class that holds no neighbour of w.  A vertex leaves its class
    after its last neighbour, and a class left empty is closed.
    """
    touched = _touched(G)
    # step j holds counts for k = 0..j, each below j**j
    state_bits = [(j + 1) * j * j.bit_length() for j in range(1, len(touched) + 1)]
    # the runner checks these bits before its first step: run it with no
    # step, so that a graph past the bits budget is refused before its
    # neighbour masks are built
    graphcore._run_transfer("colour-class transfer", "vertices", (), {}, None, state_bits)
    adj = _neighbour_masks(G, touched)
    # leave[w]: the vertices whose last neighbour is w, w itself if it has
    # no later one
    leave = [0] * len(adj)
    for v, nb in enumerate(adj):
        leave[max(v, nb.bit_length() - 1)] |= 1 << v

    def step(table: dict[tuple[int, ...], list[int]], w: int, limit: int):
        wb, earlier, keep = 1 << w, adj[w] & ((1 << w) - 1), ~leave[w]
        nxt: dict[tuple[int, ...], list[int]] = {}

        def add(classes, counts):
            key = tuple(sorted(c for c in (x & keep for x in classes) if c))
            old = nxt.get(key)
            nxt[key] = counts if old is None else [x + y for x, y in zip(old, counts)]

        for classes, counts in table.items():
            o = len(classes)
            padded = counts + [0]
            # open a class, or join one of the k - o closed ones
            add((*classes, wb),
                [(k - o) * a + b for k, (a, b) in enumerate(zip(padded, [0, *counts]))])
            for i, c in enumerate(classes):
                if not c & earlier:
                    add((*classes[:i], c | wb, *classes[i + 1:]), padded)
            if len(nxt) > limit:
                break
        return nxt

    table = graphcore._run_transfer("colour-class transfer", "vertices", range(len(adj)),
                                    {(): [1]}, step, state_bits)
    return table[()], G.n - len(touched)


def _by_colour_classes(G: Graph) -> list[int]:
    """The coefficients of P(G), in t**i, from `_class_counts`: each
    partition into k colour classes is coloured in t(t-1)...(t-k+1) ways,
    and a vertex without an edge multiplies by t."""
    counts, isolated = _class_counts(G)
    return [0] * isolated + _falling_to_power(counts)


def _falling_to_power(counts: Sequence[int]) -> list[int]:
    """The coefficients, in t**i, of sum counts[k] t(t-1)...(t-k+1), by
    Horner's rule: c <- c (t - k) + counts[k] from the top k down."""
    coeffs: list[int] = []
    for k in range(len(counts) - 1, -1, -1):
        coeffs = [p - k * q for p, q in zip([0, *coeffs], [*coeffs, 0])]
        coeffs[0] += counts[k]
    return coeffs


def _strip(masks: list[int], gone: int = 0) -> tuple[tuple[int, ...], int, int]:
    """(core, a, b) with P(G) = t**a (t - 1)**b P(core): while one is left,
    remove a vertex with no neighbour (a factor t) or with one (a factor
    t - 1, which deletion-contraction of its edge gives).  The core's masks
    are renumbered in order; the vertices of `gone` are dropped first, and
    no mask may hold one of them."""
    a = b = 0
    low = [v for v, x in enumerate(masks) if not x & (x - 1) and not gone >> v & 1]
    if low:
        masks = list(masks)
    while low:
        v = low.pop()
        if gone >> v & 1:
            continue
        gone |= 1 << v
        x = masks[v]
        if x:
            b += 1
            u = x.bit_length() - 1
            y = masks[u] = masks[u] ^ (1 << v)
            if not y & (y - 1):
                low.append(u)
        else:
            a += 1
    kept = [x for v, x in enumerate(masks) if not gone >> v & 1]
    # squeeze out the runs of gone vertices, the highest first
    while gone and kept:
        top = gone.bit_length()
        bottom = (~gone & ((1 << top) - 1)).bit_length()
        below = (1 << bottom) - 1
        kept = [x & below | x >> (top - bottom) & ~below for x in kept]
        gone &= below
    return tuple(kept), a, b


def _split(core: tuple[int, ...]):
    """(sign, first, second) with P(core) = P(first) + sign P(second), each
    a stripped triple, or None for a complete graph.  Up to half the vertex
    pairs joined, delete and contract an edge at a vertex of least degree:
    P(G) = P(G - e) - P(G / e); past that, add and contract a missing edge
    at a vertex of most degree: P(G) = P(G + e) + P(G / e)."""
    v = len(core)
    degrees = [x.bit_count() for x in core]
    twice = sum(degrees)
    if twice == v * (v - 1):
        return None
    first = list(core)
    if 2 * twice <= v * (v - 1):
        sign, u = -1, degrees.index(min(degrees))
        w = (core[u] & -core[u]).bit_length() - 1
    else:
        sign = 1
        u = max(range(v), key=lambda x: degrees[x] if degrees[x] < v - 1 else -1)
        missing = ~core[u] & ((1 << v) - 1) & ~(1 << u)
        w = (missing & -missing).bit_length() - 1
    first[u] ^= 1 << w
    first[w] ^= 1 << u
    # contract: w's neighbours become u's, and w goes
    wb, ub = 1 << w, 1 << u
    second = [x ^ wb | ub if x & wb else x for x in core]
    second[u] = (core[u] | core[w]) & ~(ub | wb)
    second[w] = 0
    return sign, _strip(first), _strip(second, wb)


def _times_t_minus_one(coeffs: list[int], b: int) -> list[int]:
    """coeffs times (t - 1)**b; a stripped tree, coeffs [1], takes the
    binomial row at once."""
    if coeffs == [1]:
        row, c = [], (-1) ** b
        for i in range(b + 1):
            row.append(c)
            c = -c * (b - i) // (i + 1)
        return row
    for _ in range(b):
        coeffs = [p - q for p, q in zip([0, *coeffs], [*coeffs, 0])]
    return coeffs


def _by_contraction(G: Graph) -> list[int]:
    """The coefficients of P(G), in t**i, by deletion-contraction on sparse
    graphs and addition-contraction on dense ones (`_split`), down to
    complete graphs, P(K_v) = t(t-1)...(t-v+1).

    A graph is a tuple of neighbour bitmasks, stripped of the vertices with
    at most one neighbour (`_strip`), and the memo holds P of each such core
    as a list of ints.  The recursion keeps its own stack, so long paths and
    cycles do not recurse.  `_TABLE_BUDGET` caps the memo's entries, and
    `_COUNT_BITS` the bits they hold: a core on v vertices has coefficients
    below v**v.  The result on the vertices with an edge is bounded the same
    way and refused before the recursion starts, so a long tree, whose core
    is empty, cannot expand (t - 1)**b past the bits budget.
    """
    touched = _touched(G)
    v = len(touched)
    if (v + 1) * v * v.bit_length() > graphcore._COUNT_BITS:  # before the masks
        raise graphcore._refusal("chromatic recursion", "memo entries", bits=True)
    isolated = G.n - v
    root, a, b = _strip(_neighbour_masks(G, touched))
    budget = graphcore._TABLE_BUDGET
    memo: dict[tuple[int, ...], list[int]] = {(): [1]}
    splits: dict[tuple[int, ...], tuple] = {}
    stack, spent = [root], 0
    while stack:
        core = stack[-1]
        if core in memo:
            stack.pop()
            continue
        if core not in splits:
            splits[core] = split = _split(core)
            todo = [c for c, _, _ in split[1:] if c not in memo] if split else ()
            if todo:
                stack += todo
                continue
        stack.pop()
        split, v = splits.pop(core), len(core)
        if split is None:
            coeffs = _falling_to_power([0] * v + [1])
        else:
            sign, (c1, a1, b1), (c2, a2, b2) = split
            first = [0] * a1 + _times_t_minus_one(memo[c1], b1)
            second = [0] * a2 + _times_t_minus_one(memo[c2], b2)
            coeffs = [p + sign * q for p, q in zip(first, [*second, 0])]
        memo[core] = coeffs
        spent += (v + 1) * v * v.bit_length()
        if len(memo) > budget or spent > graphcore._COUNT_BITS:
            raise graphcore._refusal("chromatic recursion", "memo entries",
                                     bits=len(memo) <= budget)
    return [0] * (isolated + a) + _times_t_minus_one(memo[root], b)

"""Simple labeled graphs on {1..n}: increasing spanning forests, NBC sets,
chromatic polynomials, perfect elimination orderings, and the simple-cycle
listing that the tests keep as their reference.

Increasing forests and NBC sets are closed under taking subsets, so both
are enumerated by `walks.downward_closed` over the edges in a fixed order,
at a cost proportional to the number of sets found rather than 2**|E|.  The
increasing forests are the edge sets in which no two edges share their
larger endpoint.  The NBC sets, those containing no broken circuit, are
found by the closure test instead, with no cycle listed: the walk takes the
edges from the order-largest down and accepts an edge when the edges that
joining its endpoints' components closes hold none below it.  `nbc_sets`
counts them without the walk: a transfer over the same edges keeps only the
partition of the vertices that still have an edge to come.  With one more
field, the vertices that have taken their edge from below, the same transfer
counts the increasing forests that are NBC sets, so `verify_isf_nbc` checks
ISF ⊆ NBC by counts and lists no set; the walks remain the second route of
`verify_tf_theorems` and of the set listings.  A graph keeps its NBC counts
under the lexicographic order once `nbc_sets` has found them.  The
chromatic polynomial compares the two routes of `chromatic`: a memoized
deletion- and addition-contraction recursion on neighbour bitmasks, and the
counts of a colour-class transfer over the vertices, expanded in the
falling-factorial basis.  `verify_isf_nbc` compares the colour classes with
Whitney's signed NBC counts instead, and runs no recursion; given no χ,
`acyclic_orientation_count` checks the recursion alone against its
source-set count where that runs.
"""

from __future__ import annotations

import itertools
from collections import Counter, defaultdict
from math import perm, prod
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import BudgetExceededError, InputError, InternalCheckError, require_int
from .polycore import IntPolynomial, WeightedGF, poly_from_linear_factors
from .report import Report, _Kept, _set
from .walks import count_by_size, downward_closed, members, unpack_counts

__all__ = [
    "Graph",
    "EdgeOrder",
    "edge_partition",
    "isf_set_list",
    "enumerate_isf",
    "isf_polynomial",
    "simple_cycles",
    "nbc_set_list",
    "nbc_sets",
    "chromatic_polynomial",
    "count_proper_colorings",
    "is_peo",
    "find_peo",
    "acyclic_orientation_count",
    "verify_isf_nbc",
    "is_bipartite",
    "has_triangle",
]

Edge = tuple[int, int]

# The budgets: past one, BudgetExceededError is raised, or a cross-check skipped
_EDGE_BUDGET = 25  # edges of the ISF, NBC and tight-forest walks and tf_polynomial
_TABLE_BUDGET = 1 << 17  # states of the transfers, entries of the chromatic memo
_COUNT_BITS = 1 << 31  # bits of counts each of those holds, summed over its steps
_MEMBER_BUDGET = 1 << 20  # members a walk or listing visits, terms a weighted GF lists
_OUTPUT_BUDGET = 10**5  # vertices of an output with an entry per vertex
_VERTEX_BUDGET = 8  # 2-core vertices of the orientation cross-check's table
_ORIENTATION_BUDGET = 16  # 2-core edges that acyclic_orientation_count cross-checks


class Graph(_Kept):
    """A simple graph with vertex set {1..n} and edges stored as (i, j), i < j.

    The fields cannot be assigned after construction, so one derived value
    is kept in a slot that takes no part in equality, repr or JSON: `_nbc`,
    the NBC counts by size under the lexicographic order, found on first
    use by `nbc_sets`."""

    __slots__ = ("n", "edges", "_nbc")

    def __init__(self, n: int, edges: Iterable[Edge] = ()):
        n = require_int(n, "vertex count n")
        if n < 0:
            raise InputError("vertex count must be nonnegative")
        clean = set()
        for e in edges:
            if len(e) != 2:
                raise InputError(f"edge {e} must have exactly two endpoints")
            i, j = e[0], e[1]
            if type(i) is not int or type(j) is not int:  # require_int's test
                require_int(i, "edge endpoint")
                require_int(j, "edge endpoint")
            if not (1 <= i < j <= n):
                raise InputError(f"edge ({i},{j}) {_edge_problem(i, j, n)}")
            if (i, j) in clean:
                raise InputError(f"edge ({i},{j}) is repeated")
            clean.add((i, j))
        _set(self, "n", n)
        _set(self, "edges", frozenset(clean))
        _set(self, "_nbc", None)

    def adjacency(self) -> dict[int, list[int]]:
        adj: dict[int, list[int]] = {v: [] for v in range(1, self.n + 1)}
        for i, j in self.edges:
            adj[i].append(j)
            adj[j].append(i)
        for v in adj:
            adj[v].sort()
        return adj

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edges

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges)

    def relabeled_edges(self, perm: Sequence[int]) -> frozenset[Edge]:
        """The edge set under the vertex relabeling v -> perm[v-1]."""
        perm = _check_permutation(perm, self.n)
        return frozenset(
            (min(perm[i - 1], perm[j - 1]), max(perm[i - 1], perm[j - 1]))
            for i, j in self.edges
        )

    def relabeled(self, perm: Sequence[int]) -> "Graph":
        """Apply the vertex relabeling v -> perm[v-1]."""
        return Graph(self.n, self.relabeled_edges(perm))

    def to_json(self) -> dict:
        return {"n": self.n, "edges": [list(e) for e in self.sorted_edges()]}

    @classmethod
    def from_json(cls, data) -> "Graph":
        if not isinstance(data, dict) or "n" not in data or "edges" not in data:
            raise InputError('graph JSON must be {"n": int, "edges": [[i,j],...]}')
        edges = data["edges"]
        if not isinstance(edges, list) or any(
            not isinstance(e, (list, tuple)) or len(e) != 2 for e in edges
        ):
            raise InputError("graph edges must be pairs [i, j]")
        return cls(
            require_int(data["n"], "vertex count n"),
            [tuple(require_int(v, "edge endpoint") for v in e) for e in edges],
        )

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Graph(n={self.n}, edges={self.sorted_edges()})"


class EdgeOrder:
    """A total order on the edges of a graph; default is lexicographic.
    Each entry must be a pair of ints, and is stored smaller endpoint first."""

    __slots__ = ("sequence",)

    def __init__(self, sequence: Sequence[Edge]):
        seq = []
        for e in sequence:
            try:
                i, j = e
            except (TypeError, ValueError):
                raise InputError(f"edge {e} must have exactly two endpoints") from None
            if type(i) is not int or type(j) is not int:  # require_int's test
                require_int(i, "edge endpoint")
                require_int(j, "edge endpoint")
            seq.append((i, j) if i < j else (j, i))
        if len(set(seq)) != len(seq):
            raise InputError("edge order contains duplicates")
        self.sequence = tuple(seq)

    @classmethod
    def lexicographic(cls, graph: Graph) -> "EdgeOrder":
        return cls(graph.sorted_edges())

    @classmethod
    def from_sequence(cls, graph: Graph, sequence: Sequence[Edge]) -> "EdgeOrder":
        order = cls(sequence)
        _order_sequence(graph, order)
        return order


def _order_sequence(G: Graph, order: EdgeOrder | None) -> Sequence[Edge]:
    """The edges of G in `order`, lexicographic when it is None; refuses an
    order of another edge set."""
    if order is None:
        return G.sorted_edges()
    if set(order.sequence) != G.edges:
        raise InputError("edge order must be a permutation of the edge set")
    return order.sequence


def _within_output_budget(n: int) -> None:
    """Refuse an output with an entry per vertex, such as a polynomial of
    degree n or an ordering, past the output budget."""
    if n > _OUTPUT_BUDGET:
        raise BudgetExceededError(f"n={n} exceeds the output budget {_OUTPUT_BUDGET}")


def _within_member_budget(size: int, family: str) -> None:
    """Refuse a walk over a family of `size` members past the member budget."""
    if size > _MEMBER_BUDGET:
        raise BudgetExceededError(
            f"{size} {family} exceed the member budget {_MEMBER_BUDGET}"
        )


def _within_weighted_budget(sizes: Sequence[int], family: str) -> None:
    """Refuse the weighted expansion over blocks of these sizes past the
    member budget, before it starts: by its terms, one per `family` member,
    prod_B (1 + |B|), then by the variables it prints, the term count with
    |B| of its 1 + |B| choices in each block B,
    sum_B |B| prod_{B' != B} (1 + |B'|)."""
    terms = prod(1 + s for s in sizes)
    _within_member_budget(terms, family)
    _within_member_budget(
        sum(s * (terms // (1 + s)) for s in sizes), "variables in the weighted terms"
    )


def _check_permutation(perm: Sequence[int], n: int) -> list[int]:
    perm = [require_int(v, "permutation entry") for v in perm]
    if sorted(perm) != list(range(1, n + 1)):
        raise InputError(f"expected a permutation of 1..{n}")
    return perm


def _edge_problem(i: int, j: int, n: int) -> str:
    """Why (i, j) is not an edge of a graph on 1..n, stored with i < j."""
    if i == j:
        return "is a loop"
    if i > j:
        return "must list its smaller endpoint first"
    return f"out of range for n={n}"


def _by_rank(vertices: Iterable[int], edges: Iterable[Edge]) -> Graph:
    """The edges among the vertices, as a graph on 1..k that numbers the k
    vertices in increasing order, so the relative order of labels is kept."""
    rank = {v: r for r, v in enumerate(sorted(vertices), start=1)}
    return Graph(len(rank), [(rank[i], rank[j]) for i, j in edges])


# ---------------------------------------------------------------------------
# Increasing spanning forests
# ---------------------------------------------------------------------------


def edge_partition(G: Graph) -> dict[int, frozenset[Edge]]:
    """Partition the edges by their larger endpoint: E_k = {(j,k) : j < k}."""
    blocks: dict[int, set[Edge]] = {k: set() for k in range(1, G.n + 1)}
    for i, j in G.edges:
        blocks[j].add((i, j))
    return {k: frozenset(v) for k, v in blocks.items()}


def _increasing_masks(edges: Sequence[tuple]) -> Iterator[int]:
    """Edge sets, as bitmasks over the edge list, in which no two edges share
    their larger endpoint, edge[1]."""
    tops = [1 << e[1] for e in edges]

    def extend(mask: int, used: int, i: int) -> int | None:
        return None if used & tops[i] else used | tops[i]

    return downward_closed(len(tops), extend, 0)


def _edges_within_budget(G: Graph) -> list[Edge]:
    if len(G.edges) > _EDGE_BUDGET:
        raise BudgetExceededError(
            f"{len(G.edges)} edges exceeds the enumeration budget {_EDGE_BUDGET}"
        )
    return G.sorted_edges()


def isf_set_list(G: Graph) -> list[frozenset[Edge]]:
    """All increasing spanning forests, as edge sets.

    Walks the edges in lexicographic order; a set dies as soon as a vertex
    would receive a second edge from below, which is sound because subsets
    of increasing forests are increasing.
    """
    edges = _edges_within_budget(G)
    return [frozenset(members(edges, mask)) for mask in _increasing_masks(edges)]


def enumerate_isf(G: Graph) -> dict[int, int]:
    """Counts of increasing spanning forests by edge count."""
    return count_by_size(_increasing_masks(_edges_within_budget(G)))


def isf_polynomial(
    G: Graph, weights: Mapping[Edge, object] | None = None
) -> IntPolynomial | WeightedGF:
    """The factored generating function prod_k (t + |E_k|).

    With a weights mapping, each edge contributes its own variable and the
    result is the weighted product prod_k (t + sum of weights over E_k),
    expanded to one term per increasing spanning forest.  The output budget
    caps n, and the member budget the forests of a weighted result and the
    variables it prints.
    """
    _within_output_budget(G.n)
    blocks = edge_partition(G)
    sizes = [len(blocks[k]) for k in range(1, G.n + 1)]
    if weights is None:
        return poly_from_linear_factors(sizes)
    _within_weighted_budget(sizes, "increasing spanning forests")
    return WeightedGF(
        [weights[e] for e in sorted(blocks[k])] for k in range(1, G.n + 1)
    )


def _isf_count(G: Graph) -> int:
    """The number of increasing spanning forests, prod_k (1 + |E_k|), from
    the edges alone."""
    return prod(1 + c for c in Counter(j for _, j in G.edges).values())


def counts_to_polynomial(counts: Mapping[int, int], n: int) -> IntPolynomial:
    """Assemble sum_m counts[m] * t**(n-m) from a size-indexed count map."""
    coeffs = [0] * (n + 1)
    for m, c in counts.items():
        if not 0 <= m <= n:
            raise InputError(f"count index {m} outside 0..{n}")
        coeffs[n - m] = c
    return IntPolynomial(coeffs)


# ---------------------------------------------------------------------------
# Simple cycles, NBC sets
# ---------------------------------------------------------------------------


def simple_cycles(G: Graph) -> list[tuple[int, ...]]:
    """Every simple cycle, as a vertex tuple starting at its smallest vertex.

    Each cycle appears once: the walk fixes the smallest vertex first and
    keeps the orientation with second vertex below last vertex.  The walk
    keeps an explicit stack of neighbour iterators, one per path vertex, so
    long paths do not recurse.  Nothing in the package calls it; the tests
    use it as the reference listing.
    """
    adj = G.adjacency()
    cycles: list[tuple[int, ...]] = []
    for s in range(1, G.n + 1):
        path, on_path, stack = [s], {s}, [iter(adj[s])]
        while stack:
            w = next(stack[-1], None)
            if w is None:
                stack.pop()
                on_path.discard(path.pop())
            elif w == s:
                if len(path) >= 3 and path[1] < path[-1]:
                    cycles.append(tuple(path))
                    _within_member_budget(len(cycles), "simple cycles")
            elif w > s and w not in on_path:
                path.append(w)
                on_path.add(w)
                stack.append(iter(adj[w]))
    return cycles


def _nbc_walk(G: Graph, order: EdgeOrder | None):
    """NBC sets by Bjorner's closure test: s_1 < ... < s_k is NBC exactly
    when each s_i is the order-smallest edge of cl{s_i, ..., s_k}.  Each new
    edge s is the smallest of its set, and the state holds, per vertex, the
    bitmask of the edges incident to its component; merging the components
    of s's endpoints closes the edges incident to both."""
    _edges_within_budget(G)
    # walk position i holds the i-th largest edge; the edges below it are
    # the bits above i
    seq = tuple(_order_sequence(G, order))[::-1]
    incident = [0] * (G.n + 1)
    for i, (u, v) in enumerate(seq):
        incident[u] |= 1 << i
        incident[v] |= 1 << i

    def extend(mask: int, reach: tuple, i: int) -> tuple | None:
        u, v = seq[i]
        ru, rv = reach[u], reach[v]
        if (ru & rv) >> (i + 1):
            return None
        # a component whose mask equals ru or rv holds u or v, since s is
        # incident to it
        return tuple(ru | rv if r == ru or r == rv else r for r in reach)

    return seq, downward_closed(len(seq), extend, tuple(incident))


def _walk_budgets(G: Graph) -> dict[int, int]:
    """The budgets `verify_tf_theorems` checks before any walk or per-vertex
    output: the edge budget, the output budget, and the member budget of
    the NBC walk, whose size `nbc_sets` counts.  Returns those counts by
    size."""
    _edges_within_budget(G)
    _within_output_budget(G.n)
    counted = nbc_sets(G)
    _within_member_budget(sum(counted.values()), "NBC sets")
    return counted


def _checked_nbc_walk(G: Graph, counted: dict[int, int]) -> tuple[tuple, set[int]]:
    """The NBC walk's edge order and its sets as bitmasks over that order;
    their counts by size must equal `counted`, those of `nbc_sets`."""
    seq, masks = _nbc_walk(G, None)
    nbc = set(masks)
    walked = count_by_size(nbc)
    if walked != counted:
        raise InternalCheckError(
            f"NBC counts {counted} of the transfer differ from the {walked} "
            f"of the walk on {G!r}"
        )
    return seq, nbc


def nbc_set_list(G: Graph, order: EdgeOrder | None = None) -> list[frozenset[Edge]]:
    """All edge sets containing no broken circuit, under the given order."""
    seq, masks = _nbc_walk(G, order)
    return [frozenset(members(seq, mask)) for mask in masks]


def nbc_sets(G: Graph, order: EdgeOrder | None = None) -> dict[int, int]:
    """Counts of NBC edge sets by size, by `_nbc_transfer`, which lists no
    set.  G keeps its counts under the default lexicographic order from the
    first call, and each call returns its own copy; a call with `order`
    always runs the transfer, and refuses an order of another edge set."""
    if order is not None:
        return _nbc_transfer(G, _order_sequence(G, order))
    if G._nbc is None:
        G._nbc = _nbc_transfer(G, G.sorted_edges())
    return dict(G._nbc)


def _nbc_transfer(G: Graph, seq: Sequence[Edge]) -> dict[int, int]:
    """Counts of NBC edge sets by size under the edge order `seq`, by a
    connectivity transfer that lists no set.

    The edges are taken from the order-largest down, as `_nbc_walk` takes
    them.  A state is the partition, into the components of the chosen
    edges, of the frontier: the vertices that still have an edge to come.
    Only blocks of two or more vertices are kept, as a sorted tuple of
    bitmasks over the vertices numbered as the steps reach them, and each
    state maps to its counts by size, packed into one int.  Skipping the
    edge s = uv keeps the state; taking it is the closure test of the walk:
    u and v lie in different blocks, and no edge still to come joins those
    blocks.  Taking s merges them.  A vertex leaves its block after its last
    edge.  One scan of a state's blocks finds those of u and v and keeps
    the others as they are, since only the blocks of u and v can lose a
    vertex or merge; within a step the closure test's answer is kept for
    each pair of blocks, as the edges still to come do not change.

    The cost grows with the table, not with the sets: the 200-vertex path
    keeps one state, K_n peaks at the Bell number B(n-1).  `_run_transfer`
    applies the budgets.  The second routes: `verify_isf_nbc` checks
    Whitney's alternating sum of these counts against the colour-class
    transfer's chromatic polynomial, and `verify_tf_theorems` checks the
    counts against `_nbc_walk`, which lists the sets.
    """
    width, state_bits, down, rest = _transfer_setup(G, seq)

    def step(table: dict[tuple[int, ...], int], edge: Edge, limit: int):
        u, v = edge
        ub, vb = 1 << u, 1 << v
        uv = ub | vb
        rest[u] ^= vb
        rest[v] ^= ub
        gone = (0 if rest[u] else ub) | (0 if rest[v] else vb)
        keep = ~gone
        nxt: dict[tuple[int, ...], int] = {}
        apart: dict[tuple[int, int], bool] = {}  # no edge to come joins the pair
        for blocks, counts in table.items():
            bu, bv, hit, others = ub, vb, 0, []
            for b in blocks:
                if b & uv:
                    hit |= b
                    if b & ub:
                        bu = b
                    if b & vb:
                        bv = b
                else:
                    others.append(b)
            if hit & gone:  # only the blocks of u and v can lose a vertex
                stay = others.copy()
                b = bu & keep
                if b & (b - 1):
                    stay.append(b)
                if bv != bu:
                    b = bv & keep
                    if b & (b - 1):
                        stay.append(b)
                key = tuple(sorted(stay) if len(stay) > 1 else stay)
            else:
                key = blocks
            nxt[key] = nxt.get(key, 0) + counts
            if bu != bv:
                far = apart.get((bu, bv))
                if far is None:
                    w = bu
                    while w and not rest[(w & -w).bit_length() - 1] & bv:
                        w &= w - 1
                    far = apart[bu, bv] = not w
                if far:
                    merged = (bu | bv) & keep
                    if merged & (merged - 1):
                        others.append(merged)
                    key = tuple(sorted(others) if len(others) > 1 else others)
                    nxt[key] = nxt.get(key, 0) + (counts << width)
            if len(nxt) > limit:
                break
        return nxt

    table = _run_transfer("NBC transfer", "edges", down, {(): 1}, step, state_bits)
    return unpack_counts(table[()], width)


def _isf_nbc_counts(G: Graph) -> dict[int, int]:
    """Counts by size of the increasing spanning forests that are NBC sets
    under the lexicographic edge order, by the `nbc_sets` transfer with one
    more state field.

    A state is (blocks, taken): the blocks of `nbc_sets` and the bitmask of
    the frontier vertices that have already taken their one edge from below.
    The edge (i, j), i < j, is taken only when it passes the closure test and
    j is not in `taken`; taking it sets j's bit, and a vertex leaves `taken`
    with its last edge.  Taken from the order-largest down, a vertex's edges
    to larger vertices come before its edges from below, so a set bit marks
    a vertex with only edges from below left.  The blocks are scanned and
    rebuilt, and the closure test kept per pair of blocks, as in
    `_nbc_transfer`; the two step bodies stay apart so that neither hot
    loop branches on its caller.
    """
    width, state_bits, down, rest = _transfer_setup(G, G.sorted_edges())

    def step(table: dict[tuple[tuple[int, ...], int], int], edge: Edge, limit: int):
        u, v = edge
        ub, vb = 1 << u, 1 << v  # v is the larger label of the edge
        uv = ub | vb
        rest[u] ^= vb
        rest[v] ^= ub
        gone = (0 if rest[u] else ub) | (0 if rest[v] else vb)
        keep = ~gone
        nxt: dict[tuple[tuple[int, ...], int], int] = {}
        apart: dict[tuple[int, int], bool] = {}  # no edge to come joins the pair
        for state, counts in table.items():
            blocks, taken = state
            bu, bv, hit, others = ub, vb, 0, []
            for b in blocks:
                if b & uv:
                    hit |= b
                    if b & ub:
                        bu = b
                    if b & vb:
                        bv = b
                else:
                    others.append(b)
            if hit & gone:  # only the blocks of u and v can lose a vertex
                stay = others.copy()
                b = bu & keep
                if b & (b - 1):
                    stay.append(b)
                if bv != bu:
                    b = bv & keep
                    if b & (b - 1):
                        stay.append(b)
                key = (tuple(sorted(stay) if len(stay) > 1 else stay), taken & keep)
            elif taken & gone:
                key = (blocks, taken & keep)
            else:
                key = state
            nxt[key] = nxt.get(key, 0) + counts
            if bu != bv and not taken & vb:
                far = apart.get((bu, bv))
                if far is None:
                    w = bu
                    while w and not rest[(w & -w).bit_length() - 1] & bv:
                        w &= w - 1
                    far = apart[bu, bv] = not w
                if far:
                    merged = (bu | bv) & keep
                    if merged & (merged - 1):
                        others.append(merged)
                    key = (tuple(sorted(others) if len(others) > 1 else others),
                           (taken | vb) & keep)
                    nxt[key] = nxt.get(key, 0) + (counts << width)
            if len(nxt) > limit:
                break
        return nxt

    table = _run_transfer("NBC transfer", "edges", down, {((), 0): 1}, step, state_bits)
    return unpack_counts(table[(), 0], width)


def _transfer_setup(G: Graph, seq: Sequence[Edge]) -> tuple[int, list[int], list, list[int]]:
    """What the NBC transfers over the edge order `seq` share: the count
    field width, the count bits a state holds at each step, the edges taken
    from the order-largest down with each endpoint renumbered, and `rest`,
    the neighbours of each renumbered vertex over the edges still to come."""
    # the counts by size k, packed as the sum of count << width * k; no
    # count exceeds 2**len(seq), so one field never carries into the next
    width = len(seq) + 1
    # a state holds at most min(step + 1, n) counts of width bits at the
    # steps 1..width - 1
    state_bits = [k * width for k in range(2, min(width, G.n) + 1)]
    state_bits += [G.n * width] * (width - 1 - len(state_bits))
    # the runner checks these bits before its first step: run it with no
    # step, so that a graph past the bits budget is refused before its
    # neighbour masks are built
    _run_transfer("NBC transfer", "edges", (), {}, None, state_bits)
    # the k vertices with an edge are numbered 0..k-1 as the steps reach
    # them, so a bitmask has at most k <= min(2|E|, n) bits whatever the
    # labels; a state's at most min(step, k/2) blocks then hold less than
    # twice the bits of its counts
    index: dict[int, int] = {}
    down = []
    for u, v in reversed(seq):
        down.append((index.setdefault(u, len(index)), index.setdefault(v, len(index))))
    # rest[w]: the neighbours of w over the edges still to come
    rest = [0] * len(index)
    for u, v in down:
        rest[u] |= 1 << v
        rest[v] |= 1 << u
    return width, state_bits, down, rest


def _run_transfer(what: str, unit: str, steps, table: dict, step, state_bits) -> dict:
    """The last table of the transfer `what` from `table` over `steps`, one
    `unit` each: `step(table, s, limit)` returns the next table, and may stop
    growing it past `limit` states, the lesser of `_TABLE_BUDGET` and the
    states that `_COUNT_BITS` leaves.  That caps the bits of counts summed
    over the steps, a state holding at most `state_bits[i]` at the i-th step,
    and bounds long counts, as on a long path.  A state per step already
    spends sum(state_bits), so that is checked first."""
    if sum(state_bits) > _COUNT_BITS:
        raise _refusal(what, unit, bits=True)
    spent = 0
    for s, per_state in zip(steps, state_bits):
        limit = min(_TABLE_BUDGET, (_COUNT_BITS - spent) // per_state)
        table = step(table, s, limit)
        if len(table) > limit:
            if limit < _TABLE_BUDGET:
                raise _refusal(what, unit, bits=True)
            raise _refusal(f"{what} table", "states", bits=False)
        spent += len(table) * per_state
    return table


def _refusal(what: str, unit: str, bits: bool) -> BudgetExceededError:
    """The refusal of `what` past `_TABLE_BUDGET` `unit`, or, with `bits`,
    past `_COUNT_BITS` bits of counts summed over the `unit`."""
    budget = f"{_COUNT_BITS} bits of counts summed over the" if bits else _TABLE_BUDGET
    return BudgetExceededError(f"{what} exceeds its budget of {budget} {unit}")


# ---------------------------------------------------------------------------
# Chromatic polynomial, two ways
# ---------------------------------------------------------------------------


def count_proper_colorings(G: Graph, colors: int) -> int:
    """Number of proper colorings of G with the given number of colors.

    Sums a[k] * colors! / (colors - k)! over the transfer's counts of
    partitions into k colour classes, times colors for each vertex without
    an edge, so it never uses the contraction recursion.
    """
    from . import chromatic  # only the commands that colour compile it
    if colors < 0:
        raise InputError("color count must be nonnegative")
    counts, isolated = chromatic._class_counts(G)
    return colors**isolated * sum(a * perm(colors, k) for k, a in enumerate(counts))


def chromatic_polynomial(G: Graph) -> IntPolynomial:
    """Chromatic polynomial computed by two independent routes.

    Route one is the contraction recursion on neighbour bitmasks; route two
    expands the colour-class transfer's partition counts a[k] in the
    falling-factorial basis, sum a[k] * t(t-1)...(t-k+1), since each
    partition into k color classes is colored in t(t-1)...(t-k+1) ways, and
    a vertex without an edge multiplies by t.  Both live in `chromatic`,
    build integer lists and share no table; they must agree, otherwise an
    InternalCheckError is raised.  The output budget caps n.
    """
    from . import chromatic  # only the commands that colour compile it
    _within_output_budget(G.n)
    by_transfer = chromatic._by_colour_classes(G)
    by_recursion = chromatic._by_contraction(G)
    if by_recursion != by_transfer:
        raise InternalCheckError(
            "contraction and colour-class chromatic polynomials differ: "
            f"{by_recursion} vs {by_transfer}"
        )
    return IntPolynomial(by_recursion)


# ---------------------------------------------------------------------------
# Perfect elimination orderings
# ---------------------------------------------------------------------------


def is_peo(G: Graph, ordering: Sequence[int]) -> bool:
    """Whether earlier neighbors of each vertex form a clique in this order."""
    ordering = _check_permutation(ordering, G.n)
    pos = {v: k for k, v in enumerate(ordering)}
    adj = G.adjacency()
    for v in ordering:
        earlier = [u for u in adj[v] if pos[u] < pos[v]]
        for a, b in itertools.combinations(earlier, 2):
            if not G.has_edge(a, b):
                return False
    return True


def find_peo(G: Graph) -> list[int] | None:
    """A perfect elimination ordering via maximum cardinality search.

    Returns None exactly when the graph is not chordal; the MCS output is
    always validated with is_peo before being returned.  Each step numbers
    the unnumbered vertex of largest weight, the smallest on a tie, from a
    bucket queue (Tarjan-Yannakakis): one min-heap of vertices per weight,
    where an entry whose vertex was numbered or has moved up is skipped.
    The output budget caps n.
    """
    _within_output_budget(G.n)
    import heapq  # only this search needs it; every CLI command loads graphcore
    adj = G.adjacency()
    weight = [0] * (G.n + 1)
    numbered = [False] * (G.n + 1)
    buckets = [list(range(1, G.n + 1))]  # sorted, so already a heap
    top = 0
    selection: list[int] = []
    while len(selection) < G.n:
        if not buckets[top]:
            top -= 1
            continue
        z = heapq.heappop(buckets[top])
        if numbered[z] or weight[z] != top:
            continue
        numbered[z] = True
        selection.append(z)
        for u in adj[z]:
            if not numbered[u]:
                weight[u] += 1
                if weight[u] == len(buckets):
                    buckets.append([])
                heapq.heappush(buckets[weight[u]], u)
                top = max(top, weight[u])
    # the earlier-neighbors-form-a-clique convention wants the MCS visit
    # order itself, not its reversal
    return selection if is_peo(G, selection) else None


# ---------------------------------------------------------------------------
# Acyclic orientations
# ---------------------------------------------------------------------------


def _two_core(G: Graph) -> tuple[list[int], int]:
    """Each label's degree in the 2-core of G, the induced subgraph left
    once pendant edges are stripped, round after round (0 outside it; entry
    0 unused), and the number of pendant edges stripped.  In linear time:
    each vertex keeps its degree and the XOR of its neighbours left, so a
    vertex of degree one names its last neighbour."""
    degree, link = [0] * (G.n + 1), [0] * (G.n + 1)
    for i, j in G.edges:
        degree[i] += 1
        degree[j] += 1
        link[i] ^= j
        link[j] ^= i
    leaves = [w for w, d in enumerate(degree) if d == 1]
    pendant = 0
    while leaves:
        w = leaves.pop()
        if degree[w] == 1:
            x = link[w]
            degree[w] = 0
            degree[x] -= 1
            link[x] ^= w
            pendant += 1
            if degree[x] == 1:
                leaves.append(x)
    return degree, pendant


def acyclic_orientation_count(
    G: Graph,
    orientation_budget: int = _ORIENTATION_BUDGET,
    chromatic: IntPolynomial | None = None,
) -> int:
    """Number of acyclic orientations, evaluated as (-1)**n P(G, -1).

    It is also counted without P on the 2-core of G, the graph left once
    vertices without an edge and pendant edges are stripped, round after
    round: a vertex without an edge leaves the count as it is, and a pendant
    edge doubles it, whichever way it points.  Within the orientation budget
    on the core's edges and the vertex budget on its vertices, the core's
    count comes from inclusion-exclusion over its nonempty independent
    source sets T: a(S) = sum (-1)**(|T|+1) a(S - T) over T within S,
    a(empty) = 1.  The totals must agree.  A forest's core is empty, so a
    forest of any size is checked.

    P is the `chromatic` given, as `verify_isf_nbc` passes it.  Without
    one, the output budget refuses first; then, where the recursion runs,
    P comes from the contraction recursion of `chromatic` alone, which the
    recursion checks, and elsewhere from `chromatic_polynomial`, which
    compares it with the colour classes.  Either way the count has two
    independent routes.
    """
    if chromatic is None:
        _within_output_budget(G.n)
    degree, pendant = _two_core(G)
    core = [w for w, d in enumerate(degree) if d]
    checked = len(G.edges) - pendant <= orientation_budget and len(core) <= _VERTEX_BUDGET
    if chromatic is None:
        if checked:
            from .chromatic import _by_contraction  # only colouring compiles it
            chromatic = IntPolynomial(_by_contraction(G))
        else:
            chromatic = chromatic_polynomial(G)
    count = (-1) ** G.n * chromatic(-1)
    if checked:
        rank = {w: r for r, w in enumerate(core)}
        masks = [0] * len(core)
        for i, j in G.edges:  # an edge of two core vertices is a core edge
            if degree[i] and degree[j]:
                masks[rank[i]] |= 1 << rank[j]
                masks[rank[j]] |= 1 << rank[i]
        # sign[T]: (-1)**(|T|+1) for an independent T, 0 for a dependent one
        sign, acyclic = [-1], [1]
        for S in range(1, 1 << len(core)):
            rest = S & (S - 1)
            sign.append(0 if masks[(S ^ rest).bit_length() - 1] & rest else -sign[rest])
            total, T = 0, S
            while T:
                if sign[T]:
                    total += sign[T] * acyclic[S ^ T]
                T = (T - 1) & S
            acyclic.append(total)
        if acyclic[-1] << pendant != count:
            raise InternalCheckError(
                f"source-set recursion gives {acyclic[-1] << pendant}, "
                f"chromatic route {count}"
            )
    return count


# ---------------------------------------------------------------------------
# Combined verification
# ---------------------------------------------------------------------------


def verify_isf_nbc(G: Graph) -> Report:
    """Cross-check the ISF/NBC/chromatic theorems on one graph.

    Every identity is computed along both of its routes.  `passed` is False
    only if an assertion that must hold for every graph fails, which would
    falsify this implementation rather than the mathematics.  No family is
    listed: the set facts come from three counts by size, the ISF counts of
    the factored polynomial, the NBC counts of `nbc_sets` and the ISF ∩ NBC
    counts of the joint transfer.  ISF ⊆ NBC exactly when the joint counts
    equal the ISF counts, and at any size the two families are equal exactly
    when all three counts agree there.  The joint counts are the second
    route of the factorization while the theorem holds.  χ has two routes
    that share no table: Whitney's signed NBC counts,
    sum (-1)**m |NBC_m| t**(n-m), and the colour-class transfer of
    `chromatic`; `whitney_alternating_sum_vs_chromatic` compares them, and
    the colour-class χ feeds the PEO and orientation facts.  The contraction
    recursion of `chromatic_polynomial` does not run here.  G keeps its NBC
    counts, so a later `nbc_sets(G)` does not rerun the transfer.  The output
    budget refuses first, then the transfers' table and bits budgets as
    their tables grow.
    """
    from . import chromatic  # only the commands that colour compile it
    report = Report()
    _within_output_budget(G.n)
    nbc_counts = nbc_sets(G)
    chrom = IntPolynomial(chromatic._by_colour_classes(G))
    joint = _isf_nbc_counts(G)
    factored = isf_polynomial(G)
    isf_counts = {G.n - d: c for d, c in enumerate(factored.coeffs) if c}
    report.check("isf_enumeration_vs_factorization", counts_to_polynomial(joint, G.n),
                 factored, expect_equal=True)

    whitney = counts_to_polynomial({m: (-1) ** m * c for m, c in nbc_counts.items()}, G.n)
    report.check("whitney_alternating_sum_vs_chromatic", whitney, chrom,
                 expect_equal=True)

    natural_peo = is_peo(G, range(1, G.n + 1))
    report.fact("natural_order_is_peo", natural_peo)

    signed_chrom = (-1) ** G.n * chrom.compose_neg()
    isf_eq_chrom = report.check("isf_vs_signed_chromatic", factored, signed_chrom)
    report.fact("isf_chromatic_identity_iff_peo", isf_eq_chrom == natural_peo,
                required=True)

    contained = joint == isf_counts
    report.fact("isf_subset_of_nbc", contained, required=True)
    if not contained:
        report.witnesses["isf_not_in_nbc_by_size"] = {
            k: d for k in sorted(isf_counts.keys() | joint.keys())
            if (d := isf_counts.get(k, 0) - joint.get(k, 0))
        }

    eq_all = contained and isf_counts == nbc_counts
    eq_two = joint.get(2, 0) == isf_counts.get(2, 0) == nbc_counts.get(2, 0)
    report.fact("isf_equals_nbc_all_sizes", eq_all)
    report.fact("isf_equals_nbc_at_size_2", eq_two)
    report.fact(
        "three_way_equivalence",
        eq_all == natural_peo and eq_two == natural_peo,
        required=True,
    )

    ao = acyclic_orientation_count(G, chromatic=chrom)
    isf_total = factored(1)
    report.fact("isf_at_most_ao", isf_total <= ao, required=True)
    report.fact("isf_equals_ao_iff_peo", (isf_total == ao) == natural_peo,
                required=True)
    report.witnesses["isf_count"] = isf_total
    report.witnesses["acyclic_orientation_count"] = ao
    return report


# ---------------------------------------------------------------------------
# Small structural helpers used by other modules
# ---------------------------------------------------------------------------


def is_bipartite(G: Graph) -> bool:
    color: dict[int, int] = {}
    adj = G.adjacency()
    for start in range(1, G.n + 1):
        if start in color:
            continue
        color[start] = 0
        queue = [start]
        while queue:
            u = queue.pop()
            for w in adj[u]:
                if w not in color:
                    color[w] = 1 - color[u]
                    queue.append(w)
                elif color[w] == color[u]:
                    return False
    return True


def has_triangle(G: Graph) -> bool:
    """Whether some edge's endpoints share a neighbour; only the endpoints of
    edges get a neighbour set."""
    adj: dict[int, set[int]] = defaultdict(set)
    for i, j in G.edges:
        adj[i].add(j)
        adj[j].add(i)
    return any(adj[i] & adj[j] for i, j in G.edges)

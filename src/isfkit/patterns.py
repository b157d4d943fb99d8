"""Permutation-pattern machinery for labeled forests: tight forests (root
paths avoiding 231, 312, 321), quasi-perfect orderings, and the associated
generating-function identities for triangle-free graphs.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from operator import itemgetter
from typing import Iterable, Mapping, Sequence

from .errors import BudgetExceededError, InputError, InternalCheckError, require_int
from . import graphcore
from .graphcore import Graph, counts_to_polynomial
from .polycore import IntPolynomial, poly_integer_roots
from .report import Report, _Frozen, _set
from .walks import count_by_size, downward_closed, members, unpack_counts

__all__ = [
    "Pattern",
    "TIGHT_PATTERNS",
    "RootedLabeledForest",
    "standardize",
    "contains_pattern",
    "is_tight_sequence",
    "is_tight_forest",
    "tf_set_list",
    "tf_polynomial",
    "candidate_paths",
    "qpo_condition_holds",
    "QPOResult",
    "is_qpo",
    "verify_tf_theorems",
    "long_cycle_chord_check",
    "tf_integer_roots_classification",
    "count_pattern_avoiding_permutations",
    "tight_permutation_count",
]

# The budgets, past which BudgetExceededError is raised; walks use the edge budget
_PATH_VERTEX_BUDGET = 12  # vertices of candidate_paths
_SWEEP_VERTEX_BUDGET = 6  # vertices of the integer-roots ordering sweep
_PERMUTATION_BUDGET = 15  # k of the pattern-avoiding permutation count


class Pattern(_Frozen):
    """A permutation pattern, stored as a permutation of {1..k}."""

    __slots__ = ("perm",)

    def __init__(self, perm: Sequence[int]):
        perm = tuple(require_int(v, "pattern entry") for v in perm)
        if sorted(perm) != list(range(1, len(perm) + 1)):
            raise InputError(f"{perm} is not a permutation of 1..{len(perm)}")
        _set(self, "perm", perm)

    def __len__(self):
        return len(self.perm)

    def __repr__(self):
        return f"Pattern({''.join(map(str, self.perm))})"


TIGHT_PATTERNS = (Pattern((2, 3, 1)), Pattern((3, 1, 2)), Pattern((3, 2, 1)))


def standardize(seq: Sequence[int]) -> tuple[int, ...]:
    """The unique permutation of {1..k} order-isomorphic to the sequence."""
    _check_distinct(seq)
    ranks = {v: r for r, v in enumerate(sorted(seq), start=1)}
    return tuple(ranks[v] for v in seq)


def _check_distinct(seq: Sequence[int]):
    if len(set(seq)) != len(seq):
        raise InputError(f"sequence {seq} has repeated entries")


def contains_pattern(seq: Sequence[int], pat: Pattern | Sequence[int]) -> bool:
    """Whether some subsequence is order-isomorphic to the pattern."""
    if not isinstance(pat, Pattern):
        pat = Pattern(pat)
    _check_distinct(seq)
    return any(
        standardize([seq[i] for i in combo]) == pat.perm
        for combo in itertools.combinations(range(len(seq)), len(pat))
    )


def _is_adjacent_involution(perm: tuple[int, ...]) -> bool:
    """Involutions whose two-cycles swap consecutive values only."""
    i = 0
    k = len(perm)
    while i < k:
        if perm[i] == i + 1:
            i += 1
        elif perm[i] == i + 2 and i + 1 < k and perm[i + 1] == i + 1:
            i += 2
        else:
            return False
    return True


def _avoids_231(seq: Sequence[int]) -> bool:
    """Stack sorting (Knuth, TAOCP vol. 1, 2.2.1): every later entry must
    exceed an entry popped because a larger one arrived."""
    stack: list[int] = []
    popped = None
    for v in seq:
        if popped is not None and v < popped:
            return False
        while stack and stack[-1] < v:
            popped = stack.pop()
        stack.append(v)
    return True


def _avoids_321(seq: Sequence[int]) -> bool:
    """No entry lies below an earlier entry and above a later one."""
    prefix_max = list(itertools.accumulate(seq, max))
    suffix_min = list(itertools.accumulate(reversed(seq), min))[::-1]
    return not any(
        prefix_max[j - 1] > seq[j] > suffix_min[j + 1]
        for j in range(1, len(seq) - 1)
    )


def _tight_step(state: tuple[int, int], w: int) -> tuple[int, int] | None:
    """Extend a tight root path by the label w.

    A tight sequence standardizes to a direct sum of 1s and 21s, so its state
    is (m, low): its maximum m, and the bound low that a later entry below m
    must exceed.  A root r starts at (r, 0).  A new maximum gives (w, m); an
    entry between low and m closes a 21 block, after which nothing may go
    below m, giving (m, m); any other w completes a 231, 312 or 321 (None).
    """
    m, low = state
    if w > m:
        return w, m
    if low < w:
        return m, m
    return None


def is_tight_sequence(seq: Sequence[int]) -> bool:
    """Whether the sequence avoids 231, 312, and 321.

    Checked both by three linear pattern tests (312 is 231 in the reverse
    complement) and by the equivalent statement that the standardization is
    an involution built from swaps of consecutive values; the two must agree.
    """
    by_involution = _is_adjacent_involution(standardize(seq))
    by_patterns = (
        _avoids_231(seq)
        and _avoids_231([-v for v in reversed(seq)])
        and _avoids_321(seq)
    )
    if by_patterns != by_involution:
        raise InternalCheckError(
            f"tightness criteria disagree on sequence {tuple(seq)}"
        )
    return by_patterns


# ---------------------------------------------------------------------------
# Rooted labeled forests
# ---------------------------------------------------------------------------


class RootedLabeledForest:
    """A forest of labeled trees, each rooted at its smallest label."""

    __slots__ = ("parents",)

    def __init__(self, parents: Mapping[int, int | None]):
        parents = {
            require_int(v, "forest label"):
                None if p is None else require_int(p, "forest parent")
            for v, p in parents.items()
        }
        if any(v < 1 for v in parents):
            raise InputError("labels must be positive integers")
        for v, p in parents.items():
            if p is not None and p not in parents:
                raise InputError(f"parent {p} of {v} is not a label")
        self.parents = parents
        # a label on a cycle, or below one, is never reached from a root
        order = self._preorder()
        if len(order) != len(parents):
            raise InputError("parent map contains a cycle")
        root_of: dict[int, int] = {}
        for v in order:
            root_of[v] = v if parents[v] is None else root_of[parents[v]]
            if v < root_of[v]:
                raise InputError(
                    f"the tree of {v} must be rooted at its minimum, "
                    f"not at {root_of[v]}"
                )

    def labels(self) -> set[int]:
        return set(self.parents)

    def roots(self) -> list[int]:
        return sorted(v for v, p in self.parents.items() if p is None)

    def children(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {v: [] for v in self.parents}
        for v, p in sorted(self.parents.items()):
            if p is not None:
                out[p].append(v)
        return out

    def _preorder(self) -> list[int]:
        """Every label, trees in increasing root order, each depth first with
        smaller children first, so a parent always precedes its children."""
        kids = self.children()
        order: list[int] = []
        stack = self.roots()[::-1]
        while stack:
            u = stack.pop()
            order.append(u)
            stack.extend(reversed(kids[u]))
        return order

    def _root_path(self, v: int) -> tuple[int, ...]:
        """The labels from v's root down to v."""
        path = [v]
        while self.parents[path[-1]] is not None:
            path.append(self.parents[path[-1]])
        return tuple(reversed(path))

    def root_to_leaf_paths(self) -> list[tuple[int, ...]]:
        inner = set(self.parents.values())
        return [self._root_path(v) for v in self._preorder() if v not in inner]

    def to_json(self) -> dict:
        return {
            "labels": sorted(self.parents),
            "parents": {str(v): self.parents[v] for v in sorted(self.parents)},
        }

    @classmethod
    def from_json(cls, data) -> "RootedLabeledForest":
        if not isinstance(data, dict) or not {"labels", "parents"} <= set(data):
            raise InputError('forest JSON must be {"labels": [...], "parents": {...}}')
        labels, raw = data["labels"], data["parents"]
        if not isinstance(labels, list) or not isinstance(raw, dict):
            raise InputError("forest labels must be a list, parents an object")
        parents = {}
        for v in labels:
            v = require_int(v, "forest label")
            if v in parents:
                raise InputError(f"forest label {v} is repeated")
            p = raw.get(str(v))
            parents[v] = None if p is None else require_int(p, "forest parent")
        unknown = set(raw) - {str(v) for v in parents}
        if unknown:
            raise InputError(f"forest parents keys {sorted(unknown)} are not labels")
        return cls(parents)

    def __repr__(self):
        return f"RootedLabeledForest({self.parents})"


def is_tight_forest(F: RootedLabeledForest) -> bool:
    """Whether every path starting at a root is a tight sequence.

    Route one carries the `_tight_step` state from each root down its tree,
    in linear time.  Route two tests every root-to-leaf path with
    `is_tight_sequence`; those paths suffice, because any root path is a
    prefix of one and pattern containment only grows along extensions.  The
    two must agree.
    """
    states: dict[int, tuple[int, int] | None] = {}
    for v in F._preorder():
        p = F.parents[v]
        states[v] = (v, 0) if p is None else _tight_step(states[p], v)
        if states[v] is None:
            break
    by_states = None not in states.values()
    by_paths = all(is_tight_sequence(p) for p in F.root_to_leaf_paths())
    if by_states != by_paths:
        raise InternalCheckError(f"tightness routes disagree on {F!r}")
    return by_states


# ---------------------------------------------------------------------------
# Tight spanning forests of a graph
# ---------------------------------------------------------------------------


def _tf_walk(n: int, edges: Sequence[tuple[int, int]]):
    """Tight spanning forests on {1..n}, as bitmasks over the edge list."""

    # state, per vertex: the minimum of its component (the component's root),
    # its neighbours in the forest, and the `_tight_step` state of its root
    # path.  Joining two components re-roots only the one with the larger
    # minimum: its root paths now run through the new edge.
    def extend(mask: int, state, i: int):
        comp, adj, paths = state
        u, v = edges[i]
        if comp[u] == comp[v]:
            return None
        if comp[u] > comp[v]:
            u, v = v, u
        comp, paths = list(comp), list(paths)
        stack = [(v, u)]
        while stack:
            w, parent = stack.pop()
            paths[w] = _tight_step(paths[parent], w)
            if paths[w] is None:
                return None
            comp[w] = comp[u]
            stack.extend((x, w) for x in adj[w] if x != parent)
        adj = list(adj)
        adj[u] += (v,)
        adj[v] += (u,)
        return comp, adj, paths

    vertices = range(n + 1)
    start = (list(vertices), [()] * (n + 1), [(v, 0) for v in vertices])
    return downward_closed(len(edges), extend, start)


def tf_set_list(G: Graph) -> list[frozenset[tuple[int, int]]]:
    """All tight spanning forests, as edge sets.

    Walks the edges in lexicographic order; pruning is sound because
    subforests of tight forests are tight and subsets of forests are
    forests.  Only the re-rooted component of a new edge is rechecked.
    """
    edges = graphcore._edges_within_budget(G)
    return [frozenset(members(edges, mask)) for mask in _tf_walk(G.n, edges)]


def tf_polynomial(G: Graph) -> IntPolynomial:
    """The tight-forest generating function, sum over tight spanning forests
    F of t**(n - |F|), counted without listing the forests.

    Add the vertices w = 1..n in increasing order, each with its edges to
    earlier vertices.  As w is larger than every earlier label, a root path
    ending in w takes the `_tight_step` branch of a new maximum, whatever
    came before it; so all a later vertex needs of an earlier one is m, the
    maximum of its root path.  When w arrives:

    - w may hang below any earlier neighbour x, whose root path has
      maximum m (x itself when x is still alone);
    - any other component that w joins is re-rooted through w, its root
      paths reading ..., m, ..., w, y, ... from its vertex y next to w.
      Nothing after y may go below w, and y must lie above m, so that
      component is a single vertex y with y > m;
    - so two components with more than one vertex never merge, and a root
      path never changes once its vertex has company.

    The state is the tuple of m over the frontier, the earlier vertices
    that still have a later neighbour, with 0 for a vertex still alone;
    each state maps to its counts by edge number.  `_tf_step` adds a vertex,
    `_tf_close` the last; `verify_tf_theorems` checks the counts against the
    tight-forest walk.  The output budget caps n, `_TABLE_BUDGET` the states.
    """
    edges = graphcore._edges_within_budget(G)
    graphcore._within_output_budget(G.n)
    adj = G.adjacency()
    # the counts by edge number k, packed as the sum of count << width * k;
    # no count exceeds 2**len(edges), so no field carries into the next, and
    # multiplying by (1 + 2**width)**a spreads them over a subset of a edges
    width = len(edges) + 1
    top = [0] + [max(adj[v], default=0) for v in range(1, G.n + 1)]
    frontier, table = [], {(): 1}
    for w in range(1, G.n):
        below = [x for x in adj[w] if x < w]
        frontier, table = _tf_step(table, frontier, w, below, top, width)
    return counts_to_polynomial(unpack_counts(_tf_close(table, frontier, width), width), G.n)


def _tf_step(table: dict, frontier: list[int], w: int, below: list[int],
             top: Sequence[int], width: int) -> tuple[list[int], dict]:
    """One vertex of the `tf_polynomial` transfer: the label w, joined to
    the earlier labels `below`, in increasing order, is added to `table`
    over `frontier`; top[v] > w exactly when the label v has a neighbour
    after w.  Returns the new frontier, the labels up to w that keep a
    later neighbour, and its table.

    The ordering sweep calls this mostly on tables of one to five states,
    so the work per call is kept small.  A state is projected onto the kept
    frontier positions by one `itemgetter` (one position, or none, by a
    slice, so the result is a tuple), with w at the end.  Hanging w below
    x rewrites x's entry only when x was alone, as the entry of a vertex
    with company is already its maximum m.  Only a neighbour after x can be
    a lone y > m; the lone y that leave the frontier by joining w change
    only the edge number, so they are counted by a binomial, multiplied in
    only when some leave, and only the lone y that stay are listed.
    """
    budget = graphcore._TABLE_BUDGET
    picks, kept = [], []
    for i, v in enumerate(frontier):
        if top[v] > w:
            picks.append(i)
            kept.append(v)
    if len(picks) > 1:
        project = itemgetter(*picks)
    else:
        project = itemgetter(slice(picks[0], picks[0] + 1) if picks else slice(0))
    alone = joined = ()  # w's entry, if w stays: alone, or below a neighbour
    if top[w] > w:
        kept.append(w)
        alone, joined = (0,), (w,)
    # each neighbour x: its frontier position, its new slot and the later ones
    joins: list[tuple] = []
    for x in reversed(below):
        joins.append((frontier.index(x), x, kept.index(x) if top[x] > w else None,
                      joins[::-1]))
    spread = 1 + (1 << width)
    nxt: dict[tuple[int, ...], int] = {}
    for state, counts in table.items():
        body = project(state)
        stay = body + alone
        nxt[stay] = nxt.get(stay, 0) + counts
        body += joined
        for i, x, x_slot, later in joins:
            m = state[i]
            key = body
            if not m:  # x was alone: its maximum is now x
                m = x
                if x_slot is not None:
                    key = body[:x_slot] + (x,) + body[x_slot + 1:]
            gone, listed = 0, []
            for j, y, s, _ in later:
                if y > m and not state[j]:
                    if s is None:
                        gone += 1
                    else:
                        listed.append(s)
            packed = counts << width
            if gone:
                packed *= spread ** gone
            nxt[key] = nxt.get(key, 0) + packed
            for r in range(1, len(listed) + 1):
                for ys in itertools.combinations(listed, r):
                    grown = list(key)
                    for s in ys:
                        grown[s] = w
                    grown = tuple(grown)
                    nxt[grown] = nxt.get(grown, 0) + (packed << width * r)
        if len(nxt) > budget:
            raise graphcore._refusal("tight-forest transfer table", "states", bits=False)
    return kept, nxt


def _tf_close(table: dict, frontier: list[int], width: int) -> int:
    """`_tf_step(table, frontier, n, ...)[1][()]` for the last label n, whose
    neighbours are the frontier, with no table: n alone keeps the counts,
    and n below a neighbour x of root path maximum m takes along any subset
    of the g lone y > m, so counts are summed by g and spread once per g.
    A state with no lone vertex, so no 0, adds n below each x with g = 0
    and is not scanned.  No close fused with the step of label n - 1 is
    kept: in paired runs the fused close was slower."""
    total = 0
    by_g = [0] * (len(frontier) + 1)
    for state, counts in table.items():
        total += counts
        if 0 not in state:
            by_g[0] += counts * len(state)
            continue
        # the frontier is increasing, so the lone y above m are a suffix
        alone = [y for y, m in zip(frontier, state) if not m]
        g = len(alone)
        for x, m in zip(frontier, state):
            by_g[g - bisect_right(alone, m or x)] += counts
    spread = 1 + (1 << width)
    return total + sum((c << width) * spread ** g for g, c in enumerate(by_g) if c)


# ---------------------------------------------------------------------------
# Quasi-perfect orderings
# ---------------------------------------------------------------------------


def candidate_paths(G: Graph) -> list[tuple[int, ...]]:
    """Simple paths a,c,b,v_1..v_m with a<b<c, m>=1, and only v_m below c."""
    if G.n > _PATH_VERTEX_BUDGET:
        raise BudgetExceededError(
            f"n={G.n} exceeds the candidate-path cap {_PATH_VERTEX_BUDGET}"
        )
    adj = G.adjacency()
    out: list[tuple[int, ...]] = []

    def extend(u: int, c: int, visited: set[int], prefix: tuple[int, ...]):
        for w in adj[u]:
            if w in visited:
                continue
            if w > c:
                visited.add(w)
                extend(w, c, visited, prefix + (w,))
                visited.discard(w)
            else:
                out.append(prefix + (w,))

    for c in range(1, G.n + 1):
        for a in adj[c]:
            if a >= c:
                continue
            for b in adj[c]:
                if b <= a or b >= c:
                    continue
                extend(b, c, {a, c, b}, (a, c, b))
    return sorted(out)


def qpo_condition_holds(G: Graph, path: Sequence[int]) -> bool:
    """Either a-d is an edge, or d lies below b and c-d is an edge."""
    a, c, b = path[0], path[1], path[2]
    d = path[-1]
    return G.has_edge(a, d) or (d < b and G.has_edge(c, d))


class QPOResult(_Frozen):
    __slots__ = ("ok", "witness")

    def __init__(self, ok: bool, witness: tuple[int, ...] | None = None):
        _set(self, "ok", ok)
        _set(self, "witness", witness)

    def __bool__(self) -> bool:
        return self.ok


def is_qpo(G: Graph) -> QPOResult:
    """Whether every candidate path satisfies the quasi-perfect condition."""
    for path in candidate_paths(G):
        if not qpo_condition_holds(G, path):
            return QPOResult(False, path)
    return QPOResult(True)


def long_cycle_chord_check(G: Graph) -> bool:
    """Whether every cycle of length at least 5 has a chord, that is, whether
    G has no hole (chordless cycle) of length at least 5.

    Such a hole runs through an induced path a-b-c-d and returns from d to a
    outside the closed neighbourhoods N[b] and N[c]; conversely a shortest
    such return path closes a hole.  So for each induced path a breadth-first
    search from a over the vertices outside N[b] and N[c] looks for a
    neighbour of d (Nikolopoulos and Palios, Algorithmica 47 (2007)).  One
    orientation of each middle edge b-c suffices: reversing the path swaps
    the roles of a and d.
    """
    adj = {v: set(ns) for v, ns in G.adjacency().items()}
    for b, c in G.edges:
        blocked = adj[b] | adj[c]
        ends = adj[c] - adj[b] - {b}
        for a in adj[b] - adj[c] - {c}:
            far_ends = ends - adj[a]
            if not far_ends:
                continue
            reached, queue = {a}, [a]
            for x in queue:
                for y in adj[x] - blocked - reached:
                    reached.add(y)
                    queue.append(y)
            if any(adj[d] & reached for d in far_ends):
                return False
    return True


# ---------------------------------------------------------------------------
# The theorem suite for tight forests
# ---------------------------------------------------------------------------


def verify_tf_theorems(G: Graph) -> Report:
    """Containment, strictness, and equivalence checks for tight forests.

    The forest masks of the tight-forest walk and the counts of
    `tf_polynomial` are two routes to the generating function; they must
    agree, and so must the NBC counts of the walk and of the `nbc_sets`
    transfer.  The edge, output and member budgets refuse before the
    triangle test and any walk start: the members are counted by
    `nbc_sets` and by `tf_polynomial` at 1.  The candidate-path budget
    refuses next, and the tight forests and NBC sets are kept as bitmasks
    over the NBC walk's edge order.
    """
    report = Report()
    nbc_counts = graphcore._walk_budgets(G)
    tf_poly = tf_polynomial(G)
    graphcore._within_member_budget(tf_poly(1), "tight spanning forests")
    chrom = graphcore.chromatic_polynomial(G)
    qpo = is_qpo(G)
    triangle = graphcore.has_triangle(G)
    report.fact("has_triangle", triangle)
    seq, nbc = graphcore._checked_nbc_walk(G, nbc_counts)
    tf = set(_tf_walk(G.n, seq))
    listed = counts_to_polynomial(count_by_size(tf), G.n)
    if tf_poly != listed:
        raise InternalCheckError(
            f"tight-forest counts {tf_poly.coeffs} by vertex order differ "
            f"from the {listed.coeffs} of the listed forests on {G!r}"
        )
    signed = (-1) ** G.n * chrom.compose_neg()
    poly_equal = report.check("tf_vs_signed_chromatic", tf_poly, signed)

    report.fact("is_qpo", qpo.ok)
    if qpo.witness is not None:
        report.witnesses["qpo_violation_path"] = list(qpo.witness)
    if qpo.ok:
        report.fact("long_cycles_have_chords", long_cycle_chord_check(G),
                    required=True)
        if not triangle:
            report.fact("triangle_free_qpo_is_bipartite",
                        graphcore.is_bipartite(G), required=True)

    if not triangle:
        report.fact("tf_subset_of_nbc", tf <= nbc, required=True)
        sets_equal = tf == nbc
        report.fact("tf_equals_nbc", sets_equal)
        report.fact(
            "three_way_equivalence",
            qpo.ok == sets_equal and sets_equal == poly_equal,
            required=True,
        )
    else:
        tf_two = {s for s in tf if s.bit_count() == 2}
        nbc_two = {s for s in nbc if s.bit_count() == 2}
        report.witnesses["tf_size_2_count"] = len(tf_two)
        report.witnesses["nbc_size_2_count"] = len(nbc_two)
        report.fact("nbc_2_subset_of_tf_2", nbc_two <= tf_two, required=True)
        strict = tf_two - nbc_two
        report.fact("tf_2_strictly_contains_nbc_2", bool(strict), required=True)
        if strict:
            report.witnesses["tight_broken_circuit"] = min(
                sorted(members(seq, s)) for s in strict
            )
        report.fact("tf_differs_from_signed_chromatic", not poly_equal,
                    required=True)
    return report


def _tf_orderings(G: Graph):
    """(perm, the counts of G.relabeled(perm), packed as in `tf_polynomial`)
    for every ordering, in `itertools.permutations` order, whose labeled
    graph was not seen before.

    A labeled graph is keyed by its label pairs: the edge of labels a < b
    is bit (b - 1) * n + (a - 1), read per edge from a pair-bit table, so
    row b of the key holds the lower neighbours of b.  Only a key not seen
    before reads each label's lower neighbours and its largest neighbour
    from the rows.  The transfer table after labels 1..k depends only on
    the key's bits below k * n, the edges among those labels, and on the
    mask of the labels up to k with a neighbour above k: every `below` up
    to k is in the low bits, and each top[v] > w test for v <= w <= k reads
    the low bits or the mask.  So each table for k <= n - 2 is kept under
    that signature, which a vertex prefix fixes, and a later labeling
    resumes from its longest kept one; `_tf_close` adds label n.
    """
    n = G.n
    width = len(graphcore._edges_within_budget(G)) + 1
    # bit[a][b]: the bit of the label pair a, b, the larger label major
    bit = [[1 << (max(a, b) - 1) * n + min(a, b) - 1 if a and b else 0
            for b in range(n + 1)] for a in range(n + 1)]
    edges = [(u - 1, v - 1) for u, v in G.edges]
    row = (1 << n) - 1
    seen: set[int] = set()
    # tables[k]: the signature of labels 1..k -> (frontier, table)
    tables: list[dict[int, tuple]] = [{} for _ in range(max(n - 1, 1))]
    tables[0][0] = ([], {(): 1})
    for perm in itertools.permutations(range(1, n + 1)):
        key = 0
        for u, v in edges:
            key |= bit[perm[u]][perm[v]]
        if key in seen:
            continue
        seen.add(key)
        below = [[]] * (n + 1)
        top = [0] * (n + 1)  # each label's largest neighbour above it
        for b in range(2, n + 1):
            lower = key >> (b - 1) * n & row
            below[b] = [a for a in range(1, b) if lower >> a - 1 & 1]
            for a in below[b]:
                top[a] = b
        # sigs[k]: the low bits of labels 1..k, with the mask above them;
        # label k joins the mask, and a label whose last neighbour is k leaves
        sigs, mask = [0], 0
        for k in range(1, n - 1):
            if top[k] > k:
                mask |= 1 << k
            for a in below[k]:
                if top[a] == k:
                    mask ^= 1 << a
            sigs.append(key & (1 << k * n) - 1 | mask << n * n)
        k = len(sigs) - 1
        while sigs[k] not in tables[k]:
            k -= 1
        frontier, table = tables[k][sigs[k]]
        for w in range(k + 1, n):
            frontier, table = _tf_step(table, frontier, w, below[w], top, width)
            if w < len(sigs):
                tables[w][sigs[w]] = (frontier, table)
        yield perm, _tf_close(table, frontier, width)


def _integer_root_ordering(G: Graph) -> tuple[tuple[int, ...], list[int]] | None:
    """The first ordering of `_tf_orderings` whose polynomial has only
    integer roots, with those roots.  Many orderings share their counts, so
    only a packed int not seen before is expanded and root-tested."""
    width = len(G.edges) + 1
    failed: set[int] = set()
    for perm, packed in _tf_orderings(G):
        if packed in failed:
            continue
        roots = poly_integer_roots(
            counts_to_polynomial(unpack_counts(packed, width), G.n))
        if roots is not None:
            return perm, roots
        failed.add(packed)
    return None


def tf_integer_roots_classification(G: Graph) -> Report:
    """Search all vertex orderings for one whose tight-forest generating
    function has only integer roots; this succeeds exactly for forests.

    Orderings are tried in `itertools.permutations` order.  An ordering
    whose labeled graph, or whose packed counts, were seen before is not
    tested again: the sweep stops at the first graph with integer roots,
    so the first witness and its roots are those of the full sweep.

    A labeling G_s of m edges has only integer roots exactly when every
    edge set is a tight forest, TF(G_s) = t**(n - m) * (t + 1)**m: the
    coefficients are nonnegative, so the roots are -r_i with integers
    r_i >= 0; every edge is tight, so sum r_i = m; any two edges are a
    tight forest, their root paths reading 12, 123 or 132, so
    e_2 = C(m, 2) and sum r_i**2 = m**2 - m * (m - 1) = m = sum r_i, which
    forces each r_i into {0, 1}.  Tightness reads only the relative order
    of labels inside a tree, so an edge set of a subgraph H that is not a
    tight forest under the rank order s induces on H is none in G_s, and
    TF(G_s)(1) < 2**m.  So each component of G's 2-core
    (`graphcore._two_core`), numbered by rank, by least vertex, is swept
    first, and if one has no witness, G is not swept.  A forest's core is
    empty.  A core's witness is never reported: G is then swept in full.
    """
    if G.n > _SWEEP_VERTEX_BUDGET:
        raise BudgetExceededError(
            f"n={G.n} exceeds the ordering-sweep cap {_SWEEP_VERTEX_BUDGET}")
    comp = {v: {v} for v in range(1, G.n + 1)}  # each vertex's component
    for u, v in G.edges:
        if comp[u] is not comp[v]:
            comp[u] |= comp[v]
            for w in comp[v]:
                comp[w] = comp[u]
    parts = [C for v, C in comp.items() if v == min(C)]  # by least vertex
    # a simple graph is a forest exactly when |E| = n - #components
    forest = len(G.edges) == G.n - len(parts)
    report = Report()
    report.fact("is_forest", forest)
    # a component's 2-core is connected, so it is one core component
    degree, _ = graphcore._two_core(G)
    cores = [K for K in ({v for v in C if degree[v]} for C in parts) if K]
    found = None
    if all(
        _integer_root_ordering(graphcore._by_rank(
            K, [(u, v) for u, v in G.edges if u in K and v in K]))
        for K in cores
    ):
        found = _integer_root_ordering(G)
    report.fact("integer_root_ordering_exists", found is not None)
    report.fact("integer_roots_iff_forest", (found is not None) == forest,
                required=True)
    if found is not None:
        report.witnesses["ordering"] = list(found[0])
        report.witnesses["roots"] = found[1]
    return report


# ---------------------------------------------------------------------------
# Pattern-avoiding permutation counting
# ---------------------------------------------------------------------------


def count_pattern_avoiding_permutations(
    k: int, patterns: Iterable[Pattern] = TIGHT_PATTERNS
) -> int:
    """Exhaustive count of permutations of {1..k} avoiding every pattern.

    Builds permutations position by position and abandons a prefix as soon
    as it realizes a pattern, which is sound because containment persists
    under extension.
    """
    if k < 1:
        raise InputError("k must be positive")
    if k > _PERMUTATION_BUDGET:
        raise BudgetExceededError(
            f"k={k} exceeds the counting cap {_PERMUTATION_BUDGET}"
        )
    pats = [p if isinstance(p, Pattern) else Pattern(p) for p in patterns]
    if any(len(p) > 4 for p in pats):
        raise InputError("patterns of length at most 4 are supported")
    all_pats = [p.perm for p in pats]
    # a value above the whole prefix can only complete a pattern whose
    # maximum sits in the last position
    max_last_pats = [p for p in all_pats if p[-1] == len(p)]

    def new_containment(prefix: tuple[int, ...], check) -> bool:
        m = len(prefix) - 1
        last = prefix[-1]
        for perm in check:
            L = len(perm)
            if L == 3:
                p01, p02, p12 = perm[0] < perm[1], perm[0] < perm[2], perm[1] < perm[2]
                for j in range(1, m):
                    b = prefix[j]
                    if (b < last) != p12:
                        continue
                    for i in range(j):
                        a = prefix[i]
                        if (a < b) == p01 and (a < last) == p02:
                            return True
                continue
            for combo in itertools.combinations(range(m), L - 1):
                sub = tuple(prefix[i] for i in combo) + (last,)
                if standardize(sub) == perm:
                    return True
        return False

    count = 0
    stack: list[tuple[int, ...]] = [()]
    while stack:
        prefix = stack.pop()
        if len(prefix) == k:
            count += 1
            continue
        top = max(prefix, default=0)
        for v in range(1, k + 1):
            check = max_last_pats if v > top else all_pats
            if v not in prefix and not new_containment((*prefix, v), check):
                stack.append((*prefix, v))
    return count


def tight_permutation_count(k: int) -> int:
    """Permutations of {1..k} avoiding 231, 312, and 321."""
    return count_pattern_avoiding_permutations(k, TIGHT_PATTERNS)

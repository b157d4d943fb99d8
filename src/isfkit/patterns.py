"""Permutation-pattern machinery for labeled forests: tight forests (root
paths avoiding 231, 312, 321), quasi-perfect orderings, and the associated
generating-function identities for triangle-free graphs.
"""

from __future__ import annotations

import itertools
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import BudgetExceededError, InputError, InternalCheckError, require_int
from . import graphcore
from .graphcore import Graph, counts_to_polynomial, edges_are_acyclic
from .polycore import IntPolynomial, poly_integer_roots
from .report import Report
from .walks import count_by_size, downward_closed, members

__all__ = [
    "Pattern",
    "TIGHT_PATTERNS",
    "RootedLabeledForest",
    "standardize",
    "contains_pattern",
    "avoids_set",
    "is_tight_sequence",
    "is_tight_forest",
    "forest_from_edge_set",
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


class Pattern:
    """A permutation pattern, stored as a permutation of {1..k}."""

    __slots__ = ("perm",)

    def __init__(self, perm: Sequence[int]):
        perm = tuple(int(v) for v in perm)
        if sorted(perm) != list(range(1, len(perm) + 1)):
            raise InputError(f"{perm} is not a permutation of 1..{len(perm)}")
        self.perm = perm

    def __len__(self):
        return len(self.perm)

    def __eq__(self, other):
        if not isinstance(other, Pattern):
            return NotImplemented
        return self.perm == other.perm

    def __hash__(self):
        return hash(("Pattern", self.perm))

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
    k = len(pat)
    if len(seq) < k:
        return False
    return any(
        standardize([seq[i] for i in combo]) == pat.perm
        for combo in itertools.combinations(range(len(seq)), k)
    )


def avoids_set(seq: Sequence[int], patterns: Iterable[Pattern]) -> bool:
    return not any(contains_pattern(seq, p) for p in patterns)


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


def is_tight_sequence(seq: Sequence[int]) -> bool:
    """Whether the sequence avoids 231, 312, and 321.

    Checked both by pattern containment and by the equivalent statement
    that the standardization is an involution built from swaps of
    consecutive values; the two must agree.
    """
    by_patterns = avoids_set(seq, TIGHT_PATTERNS)
    by_involution = _is_adjacent_involution(standardize(seq))
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
        parents = {int(v): (None if p is None else int(p))
                   for v, p in parents.items()}
        labels = set(parents)
        if any(v < 1 for v in labels):
            raise InputError("labels must be positive integers")
        for v, p in parents.items():
            if p is not None and p not in labels:
                raise InputError(f"parent {p} of {v} is not a label")
        # climb to the root from every vertex, rejecting cycles
        root_of: dict[int, int] = {}
        for v in labels:
            trail = []
            u = v
            while u not in root_of and parents[u] is not None:
                if u in trail:
                    raise InputError("parent map contains a cycle")
                trail.append(u)
                u = parents[u]
            root = root_of.get(u, u)
            for w in trail + [v]:
                root_of[w] = root
        components: dict[int, set[int]] = defaultdict(set)
        for v, r in root_of.items():
            components[r].add(v)
        for r, members in components.items():
            if r != min(members):
                raise InputError(
                    f"component {sorted(members)} must be rooted at its minimum"
                )
        self.parents = parents

    @classmethod
    def from_edge_set(
        cls, edges: Iterable[tuple[int, int]], vertices: Iterable[int] = ()
    ) -> "RootedLabeledForest":
        """Orient an acyclic edge set away from each component's minimum."""
        edges = list(edges)
        if not edges_are_acyclic(edges):
            raise InputError("edge set contains a cycle")
        verts = set(vertices)
        adj: dict[int, list[int]] = defaultdict(list)
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
            verts.update((u, v))
        parents: dict[int, int | None] = {}
        for root in sorted(verts):
            if root in parents:
                continue
            parents[root] = None
            stack = [root]
            while stack:
                u = stack.pop()
                for w in adj[u]:
                    if w not in parents:
                        parents[w] = u
                        stack.append(w)
        return cls(parents)

    def labels(self) -> set[int]:
        return set(self.parents)

    def roots(self) -> list[int]:
        return sorted(v for v, p in self.parents.items() if p is None)

    def children(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {v: [] for v in self.parents}
        for v, p in self.parents.items():
            if p is not None:
                out[p].append(v)
        for v in out:
            out[v].sort()
        return out

    def root_to_leaf_paths(self) -> list[tuple[int, ...]]:
        kids = self.children()
        paths: list[tuple[int, ...]] = []

        def walk(u: int, path: tuple[int, ...]):
            if not kids[u]:
                paths.append(path)
                return
            for w in kids[u]:
                walk(w, path + (w,))

        for r in self.roots():
            walk(r, (r,))
        return paths

    def all_root_paths(self) -> list[tuple[int, ...]]:
        """Every downward path starting at a root (all prefixes included)."""
        kids = self.children()
        paths: list[tuple[int, ...]] = []

        def walk(u: int, path: tuple[int, ...]):
            paths.append(path)
            for w in kids[u]:
                walk(w, path + (w,))

        for r in self.roots():
            walk(r, (r,))
        return paths

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
            p = raw.get(str(v))
            parents[v] = None if p is None else require_int(p, "forest parent")
        return cls(parents)

    def __repr__(self):
        return f"RootedLabeledForest({self.parents})"


def forest_from_edge_set(
    edges: Iterable[tuple[int, int]], vertices: Iterable[int] = ()
) -> RootedLabeledForest:
    return RootedLabeledForest.from_edge_set(edges, vertices)


def is_tight_forest(F: RootedLabeledForest) -> bool:
    """Whether every path starting at a root is a tight sequence.

    Root-to-leaf paths suffice: any root path is a prefix of one, and
    pattern containment only grows along extensions.
    """
    return all(is_tight_sequence(p) for p in F.root_to_leaf_paths())


# ---------------------------------------------------------------------------
# Tight spanning forests of a graph
# ---------------------------------------------------------------------------


def _bad_last_triple(a: int, b: int, c: int) -> bool:
    # c is the last element; allowed shapes are 123, 213 (c largest) and 132
    return not (c > a and c > b) and not (a < c < b)


def _component_is_tight(edges: Sequence[tuple[int, int]], root: int) -> bool:
    """Tightness of the component rooted at its minimum `root`: no root path
    ends in a bad triple."""
    adj: dict[int, list[int]] = defaultdict(list)
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    stack = [(root, 0, (root,))]
    while stack:
        u, parent, path = stack.pop()
        for w in adj[u]:
            if w == parent:
                continue
            if w < max(path) and any(
                _bad_last_triple(path[i], path[j], w)
                for j in range(1, len(path))
                for i in range(j)
            ):
                return False
            stack.append((w, u, path + (w,)))
    return True


def _tf_walk(G: Graph, budget: int):
    edges = graphcore._edges_within_budget(G, budget)

    # state: each vertex's component, labeled by its minimum; the chosen edges
    def extend(mask: int, state, i: int):
        comp, chosen = state
        lo, hi = sorted((comp[edges[i][0]], comp[edges[i][1]]))
        if lo == hi:
            return None
        candidate = chosen + (edges[i],)
        if not _component_is_tight(candidate, lo):
            return None
        return {w: (lo if c == hi else c) for w, c in comp.items()}, candidate

    start = ({v: v for v in range(1, G.n + 1)}, ())
    return edges, downward_closed(len(edges), extend, start)


def tf_set_list(G: Graph, budget: int = 25) -> list[frozenset[tuple[int, int]]]:
    """All tight spanning forests, as edge sets.

    Walks the edges in lexicographic order; pruning is sound because
    subforests of tight forests are tight and subsets of forests are
    forests.  Only the component touched by the new edge is rechecked.
    """
    edges, masks = _tf_walk(G, budget)
    return [frozenset(members(edges, mask)) for mask in masks]


def tf_polynomial(G: Graph, budget: int = 25) -> IntPolynomial:
    return counts_to_polynomial(count_by_size(_tf_walk(G, budget)[1]), G.n)


# ---------------------------------------------------------------------------
# Quasi-perfect orderings
# ---------------------------------------------------------------------------


def candidate_paths(G: Graph, vertex_cap: int = 12) -> list[tuple[int, ...]]:
    """Simple paths a,c,b,v_1..v_m with a<b<c, m>=1, and only v_m below c."""
    if G.n > vertex_cap:
        raise BudgetExceededError(
            f"n={G.n} exceeds the candidate-path cap {vertex_cap}"
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


@dataclass(frozen=True)
class QPOResult:
    ok: bool
    witness: tuple[int, ...] | None = None

    def __bool__(self) -> bool:
        return self.ok


def is_qpo(G: Graph, vertex_cap: int = 12) -> QPOResult:
    """Whether every candidate path satisfies the quasi-perfect condition."""
    for path in candidate_paths(G, vertex_cap=vertex_cap):
        if not qpo_condition_holds(G, path):
            return QPOResult(False, path)
    return QPOResult(True)


def long_cycle_chord_check(G: Graph, cap: int = 10**6) -> bool:
    """Whether every cycle of length at least 5 has a chord."""
    for cycle in graphcore.simple_cycles(G, cap=cap):
        k = len(cycle)
        if k < 5:
            continue
        chords = (
            G.has_edge(cycle[i], cycle[j])
            for i in range(k)
            for j in range(i + 2, k)
            if not (i == 0 and j == k - 1)
        )
        if not any(chords):
            return False
    return True


# ---------------------------------------------------------------------------
# The theorem suite for tight forests
# ---------------------------------------------------------------------------


def verify_tf_theorems(G: Graph, budget: int = 25) -> Report:
    """Containment, strictness, and equivalence checks for tight forests."""
    report = Report()
    triangle = graphcore.has_triangle(G)
    report.fact("has_triangle", triangle)

    tf_sets = set(tf_set_list(G, budget=budget))
    nbc = set(graphcore.nbc_set_list(G, budget=budget))
    tf_poly = counts_to_polynomial(Counter(len(s) for s in tf_sets), G.n)
    chrom = graphcore.chromatic_polynomial(G)
    signed = (-1) ** G.n * chrom.compose_neg()
    poly_equal = report.check("tf_vs_signed_chromatic", tf_poly, signed)

    qpo = is_qpo(G)
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
        report.fact("tf_subset_of_nbc", tf_sets <= nbc, required=True)
        sets_equal = tf_sets == nbc
        report.fact("tf_equals_nbc", sets_equal)
        report.fact(
            "three_way_equivalence",
            qpo.ok == sets_equal and sets_equal == poly_equal,
            required=True,
        )
    else:
        tf_two = {s for s in tf_sets if len(s) == 2}
        nbc_two = {s for s in nbc if len(s) == 2}
        report.witnesses["tf_size_2_count"] = len(tf_two)
        report.witnesses["nbc_size_2_count"] = len(nbc_two)
        report.fact("nbc_2_subset_of_tf_2", nbc_two <= tf_two, required=True)
        strict = tf_two - nbc_two
        report.fact("tf_2_strictly_contains_nbc_2", bool(strict), required=True)
        if strict:
            report.witnesses["tight_broken_circuit"] = sorted(
                sorted(s) for s in strict
            )[0]
        report.fact("tf_differs_from_signed_chromatic", not poly_equal,
                    required=True)
    return report


def tf_integer_roots_classification(G: Graph, vertex_cap: int = 6) -> Report:
    """Search all vertex orderings for one whose tight-forest generating
    function has only integer roots; this succeeds exactly for forests."""
    if G.n > vertex_cap:
        raise BudgetExceededError(f"n={G.n} exceeds the ordering-sweep cap")
    forest = edges_are_acyclic(G.edges)
    report = Report()
    report.fact("is_forest", forest)
    found = None
    for perm in itertools.permutations(range(1, G.n + 1)):
        roots = poly_integer_roots(tf_polynomial(G.relabeled(perm)))
        if roots is not None:
            found = {"ordering": list(perm), "roots": roots}
            break
    report.fact("integer_root_ordering_exists", found is not None)
    report.fact("integer_roots_iff_forest", (found is not None) == forest,
                required=True)
    if found is not None:
        report.witnesses["ordering"] = found["ordering"]
        report.witnesses["roots"] = found["roots"]
    return report


# ---------------------------------------------------------------------------
# Pattern-avoiding permutation counting
# ---------------------------------------------------------------------------


def count_pattern_avoiding_permutations(
    k: int, patterns: Iterable[Pattern] = TIGHT_PATTERNS, cap: int = 15
) -> int:
    """Exhaustive count of permutations of {1..k} avoiding every pattern.

    Builds permutations position by position and abandons a prefix as soon
    as it realizes a pattern, which is sound because containment persists
    under extension.
    """
    if k < 1:
        raise InputError("k must be positive")
    if k > cap:
        raise BudgetExceededError(f"k={k} exceeds the counting cap {cap}")
    pats = [p if isinstance(p, Pattern) else Pattern(p) for p in patterns]
    if any(len(p) > 4 for p in pats):
        raise InputError("patterns of length at most 4 are supported")
    all_pats = [p.perm for p in pats]
    # a value above the whole prefix can only complete a pattern whose
    # maximum sits in the last position
    max_last_pats = [p for p in all_pats if p[-1] == len(p)]
    count = 0
    prefix: list[int] = []
    used = [False] * (k + 1)

    def order_iso(sub: tuple[int, ...], perm: tuple[int, ...]) -> bool:
        return all(
            (sub[i] < sub[j]) == (perm[i] < perm[j])
            for j in range(1, len(perm))
            for i in range(j)
        )

    def new_containment(check: list[tuple[int, ...]]) -> bool:
        m = len(prefix) - 1
        last = prefix[-1]
        for perm in check:
            L = len(perm)
            if m + 1 < L:
                continue
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
                if order_iso(sub, perm):
                    return True
        return False

    def extend(prefix_max: int):
        nonlocal count
        if len(prefix) == k:
            count += 1
            return
        for v in range(1, k + 1):
            if used[v]:
                continue
            prefix.append(v)
            used[v] = True
            check = max_last_pats if v > prefix_max else all_pats
            if not new_containment(check):
                extend(max(prefix_max, v))
            used[v] = False
            prefix.pop()

    extend(0)
    return count


def tight_permutation_count(k: int, cap: int = 15) -> int:
    """Permutations of {1..k} avoiding 231, 312, and 321."""
    return count_pattern_avoiding_permutations(k, TIGHT_PATTERNS, cap=cap)

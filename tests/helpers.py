"""Shared fixtures and tiny independent oracles used across the test suite.

The oracle functions here deliberately reimplement things by the dumbest
possible route (full subset sweeps, literal definitions) so that library
results are checked against genuinely independent computations.
"""

from __future__ import annotations

import itertools
import sys
from collections import Counter
from fractions import Fraction
from math import lcm

from isfkit.errors import BudgetExceededError, InputError, InternalCheckError
from isfkit.graphcore import EdgeOrder, Graph, simple_cycles
from isfkit import patterns
from isfkit.patterns import RootedLabeledForest
from isfkit.polycore import IntPolynomial
from isfkit.simplicial import PureComplex, SpanningSubcomplex
from isfkit import arrangement
from isfkit.arrangement import (GaussRational, IntersectionLattice, LabeledMultigraph,
                                atom_blocks)
from isfkit.exactla import echelon


# -- the two labelings of the paw graph (triangle plus a pendant edge) -------


def paw_peo() -> Graph:
    """Pendant at vertex 2; the natural order is a perfect elimination order."""
    return Graph(4, [(1, 2), (2, 3), (1, 4), (2, 4)])


def paw_non_peo() -> Graph:
    """Pendant at vertex 4; the natural order is not a PEO."""
    return Graph(4, [(1, 2), (1, 4), (2, 4), (3, 4)])


def house_graph() -> Graph:
    """Square 1-5-4-3 with roof apex 2 over the edge 1-3."""
    return Graph(5, [(1, 2), (1, 3), (1, 5), (2, 3), (3, 4), (4, 5)])


def cycle_graph(n: int) -> Graph:
    edges = [(i, i + 1) for i in range(1, n)] + [(1, n)]
    return Graph(n, edges)


def complete_graph(n: int) -> Graph:
    return Graph(n, itertools.combinations(range(1, n + 1), 2))


def complete_bipartite(xs, ys) -> Graph:
    n = max(max(xs), max(ys))
    return Graph(n, [(min(a, b), max(a, b)) for a in xs for b in ys])


def increasing_tree() -> Graph:
    """Eight-vertex tree whose root paths all increase (vertex 1 isolated)."""
    return Graph(9, [(3, 5), (2, 3), (2, 4), (4, 7), (3, 9), (2, 6), (4, 8)])


def non_increasing_tree() -> Graph:
    """Same shape, relabeled so the path 2,7,4 descends (vertex 1 isolated)."""
    return Graph(9, [(3, 5), (2, 3), (2, 6), (7, 8), (3, 9), (2, 7), (4, 7)])


# -- complexes ---------------------------------------------------------------


def fan_complex() -> PureComplex:
    return PureComplex(4, 2, [(1, 2, 3), (1, 2, 4), (1, 3, 4)])


def bipyramid() -> PureComplex:
    """Triangular bipyramid: apexes 1 and 3 over the triangle {2,4,5}."""
    return PureComplex(
        5, 2, [(1, 2, 4), (1, 2, 5), (1, 4, 5), (2, 3, 4), (2, 3, 5), (3, 4, 5)]
    )


def oracle_upper_links(delta: PureComplex) -> dict:
    """Every peak's upper link by scanning every facet for it: a facet that
    contains the peak and adds two vertices above its largest is an edge."""
    links = {}
    for sigma in delta.peaks():
        bound = sigma[-1] if sigma else 0
        edges = set()
        for f in delta.facets:
            if set(sigma) <= set(f):
                i, j = sorted(set(f) - set(sigma))
                if bound < i:
                    edges.add((i, j))
        links[sigma] = Graph(delta.n, edges)
    return links


# swapping 2 and 3 keeps a PEO; the five-cycle relabeling below breaks it
BIPYRAMID_PEO_RELABELING = [1, 3, 2, 4, 5]
BIPYRAMID_NON_PEO_RELABELING = [5, 3, 2, 4, 1]


def bowtie_complex() -> PureComplex:
    return PureComplex(5, 2, [(1, 2, 3), (3, 4, 5)])


def tetrahedron_boundary() -> PureComplex:
    return PureComplex(4, 2, [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)])


def oracle_is_shifted(obj: PureComplex | SpanningSubcomplex) -> bool:
    """The exchange condition on every face: swapping any vertex of a face
    for a smaller one outside it stays a face."""
    faces = obj.faces()
    for face in faces:
        members = set(face)
        for k in face:
            for j in range(1, k):
                if j in members:
                    continue
                swapped = tuple(sorted(members - {k} | {j}))
                if swapped not in faces:
                    return False
    return True


# -- multigraphs -------------------------------------------------------------


def anchored_multigraph() -> LabeledMultigraph:
    """Zero edges at 1 and 3, a parallel pair on 1-2, one edge 1-3.

    Generic labels use distinct small primes; this instance is perfectly
    labeled and its lattice has 13 elements.
    """
    return LabeledMultigraph(
        3, zero_edges=[1, 3], labeled_edges=[(1, 2, 2), (1, 2, 3), (1, 3, 5)]
    )


def bare_parallel_pair() -> LabeledMultigraph:
    """A parallel pair on 1-2 with no zero edge: not perfectly labelable."""
    return LabeledMultigraph(2, [], [(1, 2, 2), (1, 2, 3)])


def graph_as_multigraph(G: Graph) -> LabeledMultigraph:
    """Embed a simple graph with all labels 1 and no zero edges."""
    return LabeledMultigraph(G.n, [], [(i, j, 1) for i, j in G.edges])


# -- test-local oracles ------------------------------------------------------


def all_edge_subsets(G: Graph):
    edges = G.sorted_edges()
    for r in range(len(edges) + 1):
        yield from (frozenset(c) for c in itertools.combinations(edges, r))


def oracle_increasing(subset) -> bool:
    """Literal criterion: no vertex receives two edges from below."""
    tops = [j for _, j in subset]
    return len(tops) == len(set(tops))


def edges_are_acyclic(edges) -> bool:
    """Whether no edge joins two vertices already joined (union-find)."""
    root: dict[int, int] = {}

    def find(v):
        while root.setdefault(v, v) != v:
            v = root[v]
        return v

    for u, v in edges:
        if (ru := find(u)) == (rv := find(v)):
            return False
        root[ru] = rv
    return True


def forest_from_edge_set(edges, vertices=()) -> RootedLabeledForest:
    """Orient an acyclic edge set away from each component's minimum; the
    given vertices without an edge become roots."""
    edges = list(edges)
    assert edges_are_acyclic(edges), edges
    parents: dict[int, int | None] = {}
    for root in sorted({*vertices, *itertools.chain(*edges)}):
        if root in parents:
            continue
        parents[root], stack = None, [root]
        while stack:
            u = stack.pop()
            for w in {a + b - u for a, b in edges if u in (a, b)} - parents.keys():
                parents[w] = u
                stack.append(w)
    return RootedLabeledForest(parents)


def oracle_isf_counts(G: Graph) -> dict[int, int]:
    counts = Counter(
        len(s) for s in all_edge_subsets(G) if oracle_increasing(s)
    )
    return dict(sorted(counts.items()))


def _cycle_edges(cycle) -> list[tuple[int, int]]:
    return [
        (min(u, v), max(u, v)) for u, v in zip(cycle, cycle[1:] + cycle[:1])
    ]


def broken_circuits(G: Graph, order: EdgeOrder | None = None) -> frozenset:
    """By definition: each cycle's edge set minus its order-smallest edge."""
    sequence = (order or EdgeOrder.lexicographic(G)).sequence
    index = {e: i for i, e in enumerate(sequence)}
    out = set()
    for cycle in simple_cycles(G):
        es = frozenset(_cycle_edges(cycle))
        out.add(es - {min(es, key=index.__getitem__)})
    return frozenset(out)


def oracle_nbc_sets(G: Graph, broken) -> set[frozenset]:
    return {
        s for s in all_edge_subsets(G) if not any(b <= s for b in broken)
    }


def oracle_long_cycles_have_chords(G: Graph) -> bool:
    """Lists every simple cycle and looks for one of length at least 5 with
    no chord."""
    for cycle in simple_cycles(G):
        sides = set(_cycle_edges(cycle))
        if len(cycle) >= 5 and not any(
            G.has_edge(u, v) and (u, v) not in sides
            for u, v in itertools.combinations(sorted(cycle), 2)
        ):
            return False
    return True


def _bad_last_triple(a: int, b: int, c: int) -> bool:
    # c is the last element; allowed shapes are 123, 213 (c largest) and 132
    return not (c > a and c > b) and not (a < c < b)


def oracle_is_tight_forest(edges) -> bool:
    """Whether the edges form a forest whose root paths, each component
    rooted at its minimum, never end in a 231, 312 or 321 (an O(L^2) scan
    of every root path for a bad last triple)."""
    adj: dict[int, list[int]] = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    seen = set()
    for root in sorted(adj):
        if root in seen:
            continue
        seen.add(root)
        stack = [(root, 0, (root,))]
        while stack:
            u, parent, path = stack.pop()
            for w in adj[u]:
                if w == parent:
                    continue
                if w in seen:
                    return False  # a cycle
                if any(
                    _bad_last_triple(path[i], path[j], w)
                    for j in range(1, len(path))
                    for i in range(j)
                ):
                    return False
                seen.add(w)
                stack.append((w, u, path + (w,)))
    return True


def oracle_tf_sets(G: Graph) -> set[frozenset]:
    """Tight spanning forests, level by level: a tight forest minus its
    largest edge is a tight forest one level down."""
    edges = G.sorted_edges()
    level: list[tuple[int, ...]] = [()]
    found = {frozenset()}
    while level:
        level = [
            (*chosen, i)
            for chosen in level
            for i in range(chosen[-1] + 1 if chosen else 0, len(edges))
            if oracle_is_tight_forest([edges[j] for j in (*chosen, i)])
        ]
        found |= {frozenset(edges[j] for j in chosen) for chosen in level}
    return found


def oracle_tf_roots_report(G: Graph, roots_of) -> dict:
    """The report JSON of the integer-roots ordering sweep, with no ordering
    skipped: `roots_of` is asked about every relabeling, in
    itertools.permutations order, until one has integer roots."""
    forest = edges_are_acyclic(G.edges)
    witnesses = {}
    for perm in itertools.permutations(range(1, G.n + 1)):
        roots = roots_of(G.relabeled(perm))
        if roots is not None:
            witnesses = {"ordering": list(perm), "roots": roots}
            break
    found = bool(witnesses)
    return {
        "passed": found == forest,
        "identity_checks": [],
        "boolean_facts": {
            "integer_root_ordering_exists": found,
            "integer_roots_iff_forest": found == forest,
            "is_forest": forest,
        },
        "witnesses": witnesses,
    }


def oracle_tf_orderings(G: Graph):
    """The ordering sweep of `patterns._tf_orderings`, with its tables kept
    under vertex prefixes: (perm, packed counts) for the first ordering of
    each labeled graph, in `itertools.permutations` order.

    Let sigma be the inverse of perm: sigma[k-1] gets label k.  The table
    after labels 1..k depends only on sigma[:k], so each table for
    k <= n - 2 is kept under its prefix and a later ordering resumes from
    its longest kept prefix.  The last label n is added by one more step,
    not by `_tf_close`, so the oracle checks the close too; it calls the
    step through the module, so a test can count the calls."""
    n = G.n
    width = len(G.edges) + 1
    # the neighbours of each vertex, all 0-based, so perm[u] is u's label
    nbrs = [[u - 1 for u in us] for us in G.adjacency().values()]
    edges = [(u - 1, v - 1) for u, v in G.edges]
    seen: set[int] = set()
    tables = {(): ([], {(): 1})}
    for perm in itertools.permutations(range(1, n + 1)):
        key = 0
        top = [0] * (n + 1)  # each label's largest later neighbour label
        for u, v in edges:
            a, b = perm[u], perm[v]
            if a > b:
                a, b = b, a
            key |= 1 << a * n + b
            if b > top[a]:
                top[a] = b
        if key in seen:
            continue
        seen.add(key)
        sigma = sorted(range(n), key=perm.__getitem__)
        k = max(n - 2, 0)
        while tuple(sigma[:k]) not in tables:
            k -= 1
        frontier, table = tables[tuple(sigma[:k])]
        for w in range(k + 1, n + 1):
            below = sorted(x for u in nbrs[sigma[w - 1]] if (x := perm[u]) < w)
            frontier, table = patterns._tf_step(table, frontier, w, below, top, width)
            if w <= n - 2:
                tables[tuple(sigma[:w])] = (frontier, table)
        yield perm, table[()]


def oracle_coloring_count(G: Graph, t: int) -> int:
    """Pure-python sweep of all t**n colorings."""
    total = 0
    for coloring in itertools.product(range(t), repeat=G.n):
        if all(coloring[i - 1] != coloring[j - 1] for i, j in G.edges):
            total += 1
    return total


def oracle_partition_counts(G: Graph) -> list[int]:
    """a[k], the number of partitions of all n vertices into k nonempty
    independent sets, by a table over all 2**n vertex sets: each set's
    partitions choose first the block T that holds its lowest vertex."""
    neighbors = [0] * G.n
    for i, j in G.edges:
        neighbors[i - 1] |= 1 << (j - 1)
        neighbors[j - 1] |= 1 << (i - 1)
    independent = [True] * (1 << G.n)
    for S in range(1, 1 << G.n):
        rest = S & (S - 1)
        low = (S ^ rest).bit_length() - 1
        independent[S] = independent[rest] and not neighbors[low] & rest
    partitions = [[1]]
    for S in range(1, 1 << G.n):
        low, counts = S & -S, [0] * (S.bit_count() + 1)
        T = S
        while T:
            if T & low and independent[T]:
                for k, c in enumerate(partitions[S ^ T]):
                    counts[k + 1] += c
            T = (T - 1) & S
        partitions.append(counts)
    return partitions[-1]


def oracle_chromatic_by_partitions(G: Graph) -> IntPolynomial:
    """sum a[k] t(t-1)...(t-k+1) over the partition table's counts."""
    total, falling = IntPolynomial(), IntPolynomial.one()
    for k, a in enumerate(oracle_partition_counts(G)):
        total = total + a * falling
        falling = falling * IntPolynomial((-k, 1))
    return total


def _lagrange_integer(points: list[tuple[int, int]]) -> IntPolynomial:
    m = len(points)
    coeffs = [Fraction(0)] * m
    for i, (xi, yi) in enumerate(points):
        num = [Fraction(1)]
        denom = 1
        for j, (xj, _) in enumerate(points):
            if j == i:
                continue
            nxt = [Fraction(0)] * (len(num) + 1)
            for k, c in enumerate(num):
                nxt[k + 1] += c
                nxt[k] -= xj * c
            num = nxt
            denom *= xi - xj
        scale = Fraction(yi, denom)
        for k, c in enumerate(num):
            coeffs[k] += c * scale
    if any(c.denominator != 1 for c in coeffs):
        raise InternalCheckError("interpolated chromatic coefficients not integral")
    return IntPolynomial(int(c) for c in coeffs)


def oracle_acyclic_orientation_count(G: Graph) -> int:
    """Sweep all 2**|E| orientations; one is acyclic when deleting the
    vertices without incoming arcs, round after round, deletes them all."""
    edges = G.sorted_edges()
    total = 0
    for flips in itertools.product((False, True), repeat=len(edges)):
        arcs = {(j, i) if flip else (i, j) for (i, j), flip in zip(edges, flips)}
        left = set(range(1, G.n + 1))
        while True:
            sources = left - {head for _, head in arcs}
            if not sources:
                break
            left -= sources
            arcs = {(tail, head) for tail, head in arcs if tail in left}
        total += not left
    return total


def oracle_signed_count(G: LabeledMultigraph, s: int) -> int:
    """Sweep all (2s+1)**n vectors x over {-s..s}: x_k != 0 on each zero edge
    0--k, x_i != label * x_j on each edge (i, j, +-1)."""
    return sum(
        all(x[k - 1] != 0 for k in G.zero_edges)
        and all(x[i - 1] != z.re * x[j - 1] for i, j, z in G.labeled_edges)
        for x in itertools.product(range(-s, s + 1), repeat=G.n)
    )


def _normals(G: LabeledMultigraph) -> list[list[GaussRational]]:
    """One hyperplane normal per edge, in edge order, over GaussRational."""
    normals = []
    for i, j, z in G.edge_list():
        row = [GaussRational(0)] * G.n
        row[j - 1] = GaussRational(1)
        if i:
            row[i - 1], row[j - 1] = GaussRational(1), -z
        normals.append(row)
    return normals


def _reduce(vec, basis):
    for pivot, row in basis:
        if vec[pivot]:
            c = vec[pivot] / row[pivot]
            vec = [a - c * b for a, b in zip(vec, row)]
    return vec


def _echelon_basis(rows):
    """Row echelon basis of the span of rows over any field whose elements
    support + - * / and truthiness (Fraction, GaussRational)."""
    basis = []
    for vec in rows:
        vec = _reduce(vec, basis)
        pivot = next((k for k, x in enumerate(vec) if x), None)
        if pivot is not None:
            basis.append((pivot, vec))
    return basis


def oracle_rank(rows) -> int:
    """Rank over Q of integer or Fraction rows, by Fraction elimination."""
    return len(_echelon_basis([[Fraction(x) for x in row] for row in rows]))


def oracle_in_span(vec, rows) -> bool:
    """Whether vec lies in the Q-span of rows, by Fraction elimination."""
    basis = _echelon_basis([[Fraction(x) for x in row] for row in rows])
    return not any(_reduce([Fraction(x) for x in vec], basis))


def oracle_top_homology_rank(upsilon: SpanningSubcomplex) -> int:
    """Kernel dimension of the top boundary map, by Fraction elimination on
    its transpose: one row per kept facet f, one column per ridge r, with
    entry (-1)**i when r is f without its i-th vertex."""
    facets = sorted(upsilon.kept_facets)
    ridges = sorted({f[:i] + f[i + 1:] for f in facets for i in range(len(f))})
    rows = []
    for f in facets:
        row = [0] * len(ridges)
        for i in range(len(f)):
            row[ridges.index(f[:i] + f[i + 1:])] = (-1) ** i
        rows.append(row)
    return len(facets) - oracle_rank(rows)


def oracle_flat_count(G: LabeledMultigraph) -> int:
    """Distinct closures of edge subsets, i.e. the flats of the arrangement.

    The closure of a subset is every edge whose hyperplane normal lies in
    the span of the subset's normals; spans are tested by GaussRational
    elimination, so labels may be non-real.
    """
    normals = _normals(G)
    closures = set()
    for r in range(len(normals) + 1):
        for subset in itertools.combinations(normals, r):
            basis = _echelon_basis(subset)
            closures.add(frozenset(
                e for e, vec in enumerate(normals) if not any(_reduce(vec, basis))
            ))
    return len(closures)


def oracle_rho_and_chi(G: LabeledMultigraph) -> tuple[int, IntPolynomial]:
    """Rank of the arrangement and Whitney's formula for its characteristic
    polynomial, chi(t) = sum over edge subsets S of (-1)**|S| *
    t**(rank - rank(S)), with ranks by GaussRational elimination."""
    normals = _normals(G)
    rho = len(_echelon_basis(normals))
    chi = IntPolynomial()
    for r in range(len(normals) + 1):
        for subset in itertools.combinations(normals, r):
            chi = chi + IntPolynomial.monomial(
                rho - len(_echelon_basis(subset)), (-1) ** r
            )
    return rho, chi


def _oracle_integers(values):
    """The Fractions scaled by the lcm of their denominators."""
    scale = lcm(*(q.denominator for q in values))
    return [q.numerator * (scale // q.denominator) for q in values]


def _oracle_atom_forms(A) -> tuple[int, list[tuple], tuple]:
    """The rows per rank (1 for a real arrangement, 2 for a realified one),
    the `exactla.echelon` form of each distinct hyperplane in order, and the
    top's form, on the coordinates some normal touches.  A real normal is
    its own integer row in Z^n; a non-real one v = x + iy is realified as
    the rows (x, y) and (-y, x) in Z^(2n), whose Q-span determines the
    Q(i)-span of the normals.  The library's hyperplane budget and its
    zero-normal refusal apply."""
    if len(A.normals) > arrangement._HYPERPLANE_BUDGET:
        raise BudgetExceededError(
            f"{len(A.normals)} hyperplanes exceeds budget {arrangement._HYPERPLANE_BUDGET}"
        )
    if any(not any(row) for row in A.normals):
        raise InputError("hyperplane normals must be nonzero")
    cols = sorted({k for row in A.normals for k, z in enumerate(row) if z})
    if A.real_flag:
        per_rank = 1
        row_sets = [(_oracle_integers([row[k].re for k in cols]),) for row in A.normals]
    else:
        per_rank, row_sets = 2, []
        for row in A.normals:
            xy = _oracle_integers([row[k].re for k in cols] + [row[k].im for k in cols])
            row_sets.append((xy, [-c for c in xy[len(cols):]] + xy[:len(cols)]))
    atom_forms: list[tuple] = []
    for rows in row_sets:
        f = echelon(rows)
        if f not in atom_forms:
            atom_forms.append(f)
    return per_rank, atom_forms, echelon(row for atom in atom_forms for row in atom)


def oracle_intersection_lattice(A) -> IntersectionLattice:
    """The lattice of flats by one `exactla.echelon` elimination per (flat
    X, atom a) pair with a not below X, rank by rank, with atom forms of its
    own (`_oracle_atom_forms`) and the library's budgets.  It shares no code
    with the library's gain-graph closure.  Each level keeps its flats in
    the order its pairs first reach them."""
    per_rank, atom_forms, top_form = _oracle_atom_forms(A)
    ranks: dict[int, int] = {0: 0}
    atom_joins: dict[tuple[int, int], int] = {}
    level: dict[tuple, int] = {(): 0}
    while level:
        joined_masks: dict[tuple, int] = {}
        joined_forms: list[tuple[int, int, tuple]] = []
        coatoms = len(next(iter(level))) + per_rank == len(top_form)
        for form, mask in level.items():
            for a, atom in enumerate(atom_forms):
                if mask >> a & 1:
                    continue
                joined = top_form if coatoms else echelon(form + atom)
                if joined not in joined_masks:
                    joined_masks[joined] = 0
                    if len(ranks) + len(joined_masks) > arrangement._LATTICE_BUDGET:
                        raise BudgetExceededError(
                            f"intersection lattice exceeds "
                            f"{arrangement._LATTICE_BUDGET} elements"
                        )
                joined_masks[joined] |= mask | 1 << a
                joined_forms.append((mask, a, joined))
        for mask, a, joined in joined_forms:
            atom_joins[mask, a] = joined_masks[joined]
        for form, mask in joined_masks.items():
            ranks[mask] = len(form) // per_rank
        level = joined_masks
    return IntersectionLattice(ranks, atom_joins)


def oracle_mobius(L) -> dict[int, int]:
    """mu(0, x) for each element of L by its recursive definition, scanning
    the sub-masks: a proper subflat has lower rank, so it comes earlier in
    rank order."""
    mob: dict[int, int] = {}
    for x in sorted(L.rank, key=lambda m: (L.rank[m], m)):
        mob[x] = 1 if x == 0 else -sum(mu for y, mu in mob.items() if y & ~x == 0)
    return mob


def oracle_modular_elements(L) -> set[int]:
    """The elements x of L that are modular by definition: rank(x) + rank(y)
    = rank(x v y) + rank(x ^ y) for every element y, with joins from L and
    the meet x & y."""
    return {
        x for x in L.rank
        if all(L.rank[x] + L.rank[y] == L.rank[L.join(x, y)] + L.rank[x & y]
               for y in L.rank)
    }


def oracle_is_supersolvable(L) -> bool:
    """Search, with backtracking, for a maximal bottom-to-top chain of
    modular elements of L."""
    modular = oracle_modular_elements(L)
    dead: set[int] = set()

    def climb(x: int) -> bool:
        if x == L.top:
            return True
        if x in dead:
            return False
        for y in modular:
            if L.rank[y] == L.rank[x] + 1 and x & ~y == 0 and climb(y):
                return True
        dead.add(x)
        return False

    return 0 in modular and climb(0)


def oracle_region_count(A, planar: list[int] | None = None) -> int:
    """Regions of a real arrangement by the deletion-restriction recurrence
    r(A) = r(A - H) + r(A restricted to H), over Fraction normals scaled to a
    leading 1, in the coordinates that some normal uses.  With no `planar`
    it runs down to the empty arrangement.  Given `planar`, it stops only at
    two hyperplanes, which cut space into 4 regions, and never in the plane;
    the line count of each arrangement of three or more distinct lines in a
    plane that it passes through is appended to `planar`."""

    def rec(normals, dim: int) -> int:
        hs = []
        for v in normals:
            lead = next((x for x in v if x), None)
            if lead is not None and [x / lead for x in v] not in hs:
                hs.append([x / lead for x in v])
        if not hs:
            return 1
        if planar is not None:
            if len(hs) <= 2:
                return 1 << len(hs)
            if dim == 2:
                planar.append(len(hs))
        h, rest = hs[-1], hs[:-1]
        pivot = next(i for i, x in enumerate(h) if x)
        # g restricted to H, in the coordinates other than the pivot
        restricted = [[g[k] - g[pivot] * h[k] for k in range(dim) if k != pivot]
                      for g in rest]
        return rec(rest, dim) + rec(restricted, dim - 1)

    assert A.real_flag
    cols = [k for k in range(A.dim) if any(row[k] for row in A.normals)]
    return rec([[row[k].re for k in cols] for row in A.normals], len(cols))


def oracle_lattice_nbc_sets(G: LabeledMultigraph, order) -> set[frozenset[int]]:
    """Edge-index sets containing no broken circuit of the arrangement's
    matroid, where `order` lists the edge indices from smallest to largest.

    Circuits are the minimal dependent edge sets, found by GaussRational
    ranks of the normals over every subset.
    """
    normals = _normals(G)
    subsets = [
        frozenset(c)
        for r in range(len(normals) + 1)
        for c in itertools.combinations(range(len(normals)), r)
    ]
    independent = {
        s for s in subsets
        if len(_echelon_basis([normals[e] for e in s])) == len(s)
    }
    position = {e: k for k, e in enumerate(order)}
    broken = [
        s - {min(s, key=position.__getitem__)}
        for s in subsets
        if s not in independent and all(s - {e} in independent for e in s)
    ]
    return {s for s in subsets if not any(b <= s for b in broken)}


def all_root_paths(F) -> list[tuple[int, ...]]:
    """Every downward path from a root of the forest, one per label: the
    labels from its root down to it."""
    paths = []
    for v in F.parents:
        path = [v]
        while F.parents[path[-1]] is not None:
            path.append(F.parents[path[-1]])
        paths.append(tuple(reversed(path)))
    return paths


def atomic_transversal_sets(L, multichain) -> list[frozenset[int]]:
    """Atom sets meeting each multichain-induced block at most once."""
    choices = itertools.product(*[[None, *b] for b in atom_blocks(L, multichain)])
    return [frozenset(a for a in choice if a is not None) for choice in choices]


def relabel_to_natural_peo(G: Graph, peo) -> Graph:
    """Relabel so the given elimination order becomes 1, 2, ..., n."""
    perm = [0] * G.n
    for position, vertex in enumerate(peo, start=1):
        perm[vertex - 1] = position
    return G.relabeled(perm)


def avoiding(blockers):
    """The `walks.downward_closed` extend of the sets containing no forbidden
    set: blockers[i] holds, for each forbidden set whose largest item is i,
    the mask of its other items.  The state passes through unchanged."""

    def extend(mask, state, i):
        for rest in blockers[i]:
            if mask & rest == rest:
                return None
        return state

    return extend


def isfkit_calls(run) -> set[str]:
    """The isfkit functions, as module.name, that `run()` calls, leaving out
    methods, those whose first argument is self or cls, such as
    IntPolynomial.__call__."""
    called = set()

    def profile(frame, event, arg):
        code = frame.f_code
        module = frame.f_globals.get("__name__", "")
        if (event == "call" and module.startswith("isfkit.")
                and code.co_varnames[:1] not in (("self",), ("cls",))):
            called.add(f"{module}.{getattr(code, 'co_qualname', code.co_name)}")

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return called

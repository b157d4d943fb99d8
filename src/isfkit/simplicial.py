"""Pure simplicial complexes: cage-free spanning subcomplexes, their
generating function, upper links, and the simplicial notion of a perfect
elimination ordering.

A pure d-complex is stored by its facets ((d+1)-subsets of {1..n}); a
spanning subcomplex keeps a subset of the facets and implicitly all faces
of lower dimension.  Facets are grouped into blocks indexed by (peak,
largest vertex); a subcomplex is cage-free exactly when it keeps at most
one facet per block, which is what makes the generating function factor.
The cross-check counts the cage-free subcomplexes without the blocks: two
facets conflict when the pair scan finds a ridge they cage, and
`walks.independent_set_counts` counts the facet sets free of conflicting
pairs.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from typing import Iterable, Mapping, Sequence

from .errors import BudgetExceededError, InputError, InternalCheckError, require_int
from . import graphcore
from .exactla import echelon
from .graphcore import Graph, counts_to_polynomial
from .polycore import IntPolynomial, WeightedGF, poly_from_linear_factors
from .report import Report, _Kept, _set
from .walks import independent_set_counts

__all__ = [
    "PureComplex",
    "SpanningSubcomplex",
    "phi_partition",
    "cage_free_subcomplexes",
    "enumerate_cage_free",
    "cf_polynomial",
    "upper_link",
    "upper_links",
    "verify_product_formula",
    "is_simplicial_peo",
    "top_homology_rank",
    "has_leaf",
    "is_shifted",
    "structure_report",
    "full_subcomplex",
]

_FACET_BUDGET = 22  # facets of the cage-free sweep; past it, BudgetExceededError

Face = tuple[int, ...]


class PureComplex(_Kept):
    """A pure d-dimensional simplicial complex on {1..n}, stored by facets.
    The fields cannot be assigned after construction, so two private slots
    keep values derived from them from their first use: `_masks`, the
    facets' ridge bitmasks (`_ridge_masks`), and `_links`, the upper links,
    the effective peaks, the links on their touched vertices and the facet
    blocks (`_kept_links`), which the verify, the PEO test and the block
    product read.  A relabeled complex is a new object with slots of its
    own."""

    __slots__ = ("n", "d", "facets", "_masks", "_links")

    def __init__(self, n: int, d: int, facets: Iterable[Sequence[int]] = ()):
        n, d = require_int(n, "vertex count n"), require_int(d, "dimension d")
        if d < 1:
            raise InputError("complex dimension must be at least 1")
        if n < 0:
            raise InputError("vertex count must be nonnegative")
        clean = set()
        for f in facets:
            face = tuple(sorted(require_int(v, "facet vertex") for v in f))
            if len(face) != d + 1 or len(set(face)) != d + 1:
                raise InputError(f"facet {f} must have {d + 1} distinct vertices")
            if face[0] < 1 or face[-1] > n:
                raise InputError(f"facet {f} out of range for n={n}")
            if face in clean:
                raise InputError(f"facet {list(face)} is repeated")
            clean.add(face)
        _set(self, "n", n)
        _set(self, "d", d)
        _set(self, "facets", frozenset(clean))
        _set(self, "_masks", None)
        _set(self, "_links", None)

    def faces(self) -> set[Face]:
        """Downward closure of the facets, excluding the empty face.  A facet
        f has 2^|f| subsets, so past the member budget over the facets it is
        refused before any face is listed."""
        graphcore._within_member_budget(sum(1 << len(f) for f in self.facets),
                                        "facet subsets")
        out: set[Face] = set()
        for f in self.facets:
            for k in range(1, len(f) + 1):
                out.update(itertools.combinations(f, k))
        return out

    def peaks(self) -> list[Face]:
        """The (d-2)-dimensional faces; for d=1 this is the empty face."""
        if self.d == 1:
            return [()]
        return sorted(
            {sub for f in self.facets
             for sub in itertools.combinations(f, self.d - 1)}
        )

    def ridges(self) -> list[Face]:
        return sorted(
            {sub for f in self.facets
             for sub in itertools.combinations(f, self.d)}
        )

    def _ridge_masks(self) -> dict[Face, int]:
        """Each facet's ridge bitmask, bit i for the i-th sorted ridge, so a
        facet's lowest bit omits its last vertex; built once, not compared."""
        if self._masks is None:
            index = {r: i for i, r in enumerate(self.ridges())}
            self._masks = {
                f: sum(1 << index[f[:i] + f[i + 1:]] for i in range(len(f)))
                for f in self.facets
            }
        return self._masks

    def relabeled(self, perm: Sequence[int]) -> "PureComplex":
        """Apply the vertex relabeling v -> perm[v-1]."""
        perm = graphcore._check_permutation(perm, self.n)
        return PureComplex(
            self.n, self.d,
            (tuple(perm[v - 1] for v in f) for f in self.facets),
        )

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "d": self.d,
            "facets": [list(f) for f in sorted(self.facets)],
        }

    @classmethod
    def from_json(cls, data) -> "PureComplex":
        if not isinstance(data, dict) or not {"n", "d", "facets"} <= set(data):
            raise InputError(
                'complex JSON must be {"n": int, "d": int, "facets": [[...],...]}'
            )
        facets = data["facets"]
        if not isinstance(facets, list) or any(
            not isinstance(f, list) for f in facets
        ):
            raise InputError("complex facets must be a list of vertex lists")
        return cls(
            require_int(data["n"], "vertex count n"),
            require_int(data["d"], "dimension d"),
            [[require_int(v, "facet vertex") for v in f] for f in facets],
        )

    def __eq__(self, other):
        if not isinstance(other, PureComplex):
            return NotImplemented
        return (self.n, self.d, self.facets) == (other.n, other.d, other.facets)

    def __hash__(self):
        return hash((self.n, self.d, self.facets))

    def __repr__(self):
        return f"PureComplex(n={self.n}, d={self.d}, facets={sorted(self.facets)})"


class SpanningSubcomplex:
    """A spanning subcomplex: a facet subset plus every lower face of the parent.

    `_masks` holds the kept facets' ridge bitmasks (`PureComplex._ridge_masks`)
    and `_free` the bitmask of its free ridges, those in exactly one kept
    facet.  `cage_free_subcomplexes` carries both from its build; otherwise
    `_kept_masks` builds both on first use.  `parent` and `kept_facets` are
    read-only properties over private slots, so the kept masks never
    outlive the facets they were read from; the constructor and the build
    store the slots directly."""

    __slots__ = ("_parent", "_kept_facets", "_masks", "_free")

    def __init__(self, parent: PureComplex, kept_facets: Iterable[Sequence[int]]):
        kept = set()
        for f in kept_facets:
            face = tuple(sorted(require_int(v, "facet vertex") for v in f))
            if face not in parent.facets:
                raise InputError("kept facets must be facets of the parent complex")
            if face in kept:
                raise InputError(f"facet {list(face)} is repeated")
            kept.add(face)
        self._parent = parent
        self._kept_facets = frozenset(kept)
        self._masks = None
        self._free = None

    @property
    def parent(self) -> PureComplex:
        return self._parent

    @property
    def kept_facets(self) -> frozenset[Face]:
        return self._kept_facets

    def faces(self) -> set[Face]:
        """All faces: lower-dimensional parent faces plus kept facets' closures;
        the parent's faces are listed first, so its bound refuses first."""
        out = {f for f in self.parent.faces() if len(f) <= self.parent.d}
        for f in self.kept_facets:
            for k in range(1, len(f) + 1):
                out.update(itertools.combinations(f, k))
        return out

    def __repr__(self):
        return (
            f"SpanningSubcomplex({sorted(self.kept_facets)} "
            f"of n={self.parent.n}, d={self.parent.d})"
        )


def full_subcomplex(delta: PureComplex) -> SpanningSubcomplex:
    return SpanningSubcomplex(delta, delta.facets)


def _facet_block(facet: Face) -> tuple[Face, int]:
    return facet[:-2], facet[-1]


def phi_partition(delta: PureComplex) -> dict[tuple[Face, int], frozenset[Face]]:
    """Group each facet by its d-1 smallest vertices and its largest vertex,
    the blocks keyed by (peak, largest vertex); their number is N, the
    degree of CF."""
    blocks: dict[tuple[Face, int], set[Face]] = defaultdict(set)
    for f in delta.facets:
        blocks[_facet_block(f)].add(f)
    return {k: frozenset(v) for k, v in blocks.items()}


# ---------------------------------------------------------------------------
# Caged ridges and cage-free subcomplexes
# ---------------------------------------------------------------------------


def _caged_ridge(f1: Face, f2: Face) -> Face | None:
    """The ridge sigma + (k,) the two facets share, when they add to it
    vertices i and j that both lie between the largest vertex of sigma
    and k; otherwise None."""
    shared = tuple(sorted(set(f1) & set(f2)))
    if len(shared) != len(f1) - 1:
        return None
    k = shared[-1]
    sigma = shared[:-1]
    (i,) = set(f1) - set(shared)
    (j,) = set(f2) - set(shared)
    bound = sigma[-1] if sigma else 0
    return shared if bound < i < k and bound < j < k else None


def cage_free_subcomplexes(delta: PureComplex) -> list[SpanningSubcomplex]:
    """Every cage-free spanning subcomplex: at most one facet per block.

    The blocks are those the complex keeps (`_kept_links`).  Each subcomplex
    keeps facets of delta, which `PureComplex` has checked, so each is
    built directly, with its kept facets' ridge masks and its free ridges.
    A subcomplex's kept facets are its prefix's frozenset joined with a
    one-facet frozenset made once per facet: a set entry keeps its hash, so
    no facet is hashed twice.  Along the block product each prefix also
    carries the ridges of its facets met at least once and at least twice;
    the free ridges of a finished subcomplex are those met once only, so
    `has_leaf` and the first collapse round of `top_homology_rank` scan no
    facet."""
    mask = delta._ridge_masks()
    blocks = [[(frozenset((f,)), (mask[f],), mask[f]) for f in sorted(block)]
              for _, block in sorted(_kept_links(delta)[3].items())]
    last = blocks.pop() if blocks else []
    # (kept facets, their masks, ridges met once or more, twice or more), in
    # `walks.block_transversals` order; a prefix that keeps no facet of the
    # block is kept as it is
    chosen = [(frozenset(), (), 0, 0)]
    for options in blocks:
        grown = []
        for prefix in chosen:
            grown.append(prefix)
            fs, ms, once, twice = prefix
            for s, t, m in options:
                grown.append((fs | s, ms + t, once | m, twice | once & m))
        chosen = grown
    # the last block makes the subcomplexes themselves, without a prefix
    # tuple each; twice lies within once, so once ^ twice is met once only
    new = SpanningSubcomplex.__new__
    out = []
    for fs, ms, once, twice in chosen:
        upsilon = new(SpanningSubcomplex)
        upsilon._parent = delta
        upsilon._kept_facets = fs
        upsilon._masks = ms
        upsilon._free = once ^ twice
        out.append(upsilon)
        for s, t, m in last:
            upsilon = new(SpanningSubcomplex)
            upsilon._parent = delta
            upsilon._kept_facets = fs | s
            upsilon._masks = ms + t
            upsilon._free = (once | m) ^ (twice | once & m)
            out.append(upsilon)
    return out


def enumerate_cage_free(delta: PureComplex) -> dict[int, int]:
    """Counts of cage-free subcomplexes by facet count.

    Two facets conflict when the pair scan of the defining condition finds a
    ridge they cage; the counts are those of the facet sets free of
    conflicting pairs, the independent sets of the conflict graph.  The
    blocks are not used.
    """
    facets = _facets_within_budget(delta)
    conflicts = [0] * len(facets)
    for (a, f1), (b, f2) in itertools.combinations(enumerate(facets), 2):
        if _caged_ridge(f1, f2) is not None:
            conflicts[a] |= 1 << b
            conflicts[b] |= 1 << a
    return independent_set_counts(conflicts)


def _facets_within_budget(delta: PureComplex) -> list[Face]:
    if len(delta.facets) > _FACET_BUDGET:
        raise BudgetExceededError(
            f"{len(delta.facets)} facets exceeds the sweep budget {_FACET_BUDGET}"
        )
    return sorted(delta.facets)


def cf_polynomial(
    delta: PureComplex, weights: Mapping[Face, object] | None = None
) -> IntPolynomial | WeightedGF:
    """The factored cage-free generating function, one linear factor per block.

    With a weights mapping, each facet contributes its own variable, and the
    product is expanded to one term per cage-free subcomplex; the member
    budget caps their number, prod_B (1 + |B|), and the variables they
    print (`graphcore._within_weighted_budget`).
    """
    partition = phi_partition(delta)
    blocks = [block for _, block in sorted(partition.items())]
    sizes = [len(b) for b in blocks]
    if weights is None:
        return poly_from_linear_factors(sizes)
    graphcore._within_weighted_budget(sizes, "cage-free subcomplexes")
    return WeightedGF([weights[f] for f in sorted(block)] for block in blocks)


# ---------------------------------------------------------------------------
# Upper links and the product formula
# ---------------------------------------------------------------------------


def upper_link(delta: PureComplex, sigma: Sequence[int]) -> Graph:
    """The upper link of a peak sigma, d - 1 distinct vertices of 1..n: the
    graph whose edge ij records the facet sigma + (i, j) with
    max sigma < i < j.  Any other peak is refused with InputError; a peak
    that lies in no facet has an empty link."""
    peak = tuple(sorted(require_int(v, "peak vertex") for v in sigma))
    if len(peak) != delta.d - 1 or len(set(peak)) != len(peak):
        raise InputError(
            f"peak {list(peak)} must have {delta.d - 1} distinct vertices"
        )
    if peak and (peak[0] < 1 or peak[-1] > delta.n):
        raise InputError(f"peak {list(peak)} out of range for n={delta.n}")
    return Graph(delta.n, {f[-2:] for f in delta.facets if f[:-2] == peak})


def upper_links(delta: PureComplex) -> tuple[dict[Face, Graph], list[Face]]:
    """Upper links of every peak, plus the list of effective peaks.

    One pass over the facets: of the peaks in a sorted facet f, only
    f[:-2] has both other vertices above its largest, so f is the edge
    f[-2:] of that one link."""
    edges: dict[Face, list[tuple[int, int]]] = {p: [] for p in delta.peaks()}
    for f in delta.facets:
        edges[f[:-2]].append(f[-2:])
    links = {sigma: Graph(delta.n, e) for sigma, e in edges.items()}
    return links, [sigma for sigma, e in edges.items() if e]


def _kept_links(
    delta: PureComplex,
) -> tuple[dict[Face, Graph], list[Face], dict[Face, Graph],
           dict[tuple[Face, int], frozenset[Face]]]:
    """The complex's `_links` slot, filled on first use: its upper links and
    effective peaks (`upper_links`), each effective peak's link on its
    touched vertices (`_touched`) and the facet blocks (`phi_partition`).
    The containers are shared, so their readers do not change them."""
    if delta._links is None:
        links, effective = upper_links(delta)
        touched = {sigma: _touched(links[sigma]) for sigma in effective}
        delta._links = links, effective, touched, phi_partition(delta)
    return delta._links


def verify_product_formula(delta: PureComplex) -> Report:
    """Check the factorization and upper-link product identities on one complex.

    The facet, output and member budgets refuse before the sweep and the
    link walks start: the sweep counts, and does not list, the cage-free
    sets of at most `_FACET_BUDGET` facets, and the member budget reads each
    link's ISF product.  The orientation counts of the upper links are
    taken next, each on the vertices the link's edges touch, where an
    isolated vertex does not change the count; the cross-check's budgets
    read the 2-core of that graph, and, where they fit it, its χ comes from
    the contraction recursion alone (`graphcore.acyclic_orientation_count`).
    A budget refusal in a link names its peak.  The links, their touched
    graphs and the facet blocks are read from the complex's `_links` slot
    (`_kept_links`), built once per complex: the touched graphs also serve
    the PEO test, here and in `is_simplicial_peo`, and the factored
    polynomial is read from the blocks."""
    report = Report()
    _facets_within_budget(delta)
    graphcore._within_output_budget(delta.n)
    links, effective, touched, partition = _kept_links(delta)
    ao_product = 1
    for sigma in effective:
        try:
            graphcore._within_member_budget(
                graphcore._isf_count(links[sigma]), "increasing spanning forests"
            )
            ao_product *= graphcore.acyclic_orientation_count(touched[sigma])
        except BudgetExceededError as exc:
            raise BudgetExceededError(f"upper link of peak {sigma}: {exc}") from exc
    factored = poly_from_linear_factors([len(b) for b in partition.values()])
    counts = enumerate_cage_free(delta)
    enum_poly = counts_to_polynomial(counts, len(partition))
    report.check("cf_factorization_vs_enumeration", factored, enum_poly,
                 expect_equal=True)

    isf_product, isf_total = IntPolynomial.one(), 1
    for sigma in effective:
        isf_product = isf_product * graphcore.isf_polynomial(links[sigma])
        isf_total *= sum(graphcore.enumerate_isf(links[sigma]).values())
    # CF has degree N and the product degree n per effective peak; shift CF
    # up by the gap
    shift = delta.n * len(effective) - len(partition)
    if shift < 0:
        raise InternalCheckError("block count exceeded total upper-link degree")
    report.check(
        "cf_times_t_gap_vs_isf_product",
        factored.shifted(shift),
        isf_product,
        expect_equal=True,
    )

    cf_total = sum(counts.values())
    report.check("cage_free_count_vs_isf_count_product", cf_total, isf_total,
                 expect_equal=True)

    # an empty link is PEO-ordered, so the effective peaks' links suffice
    speo = _peo_by_both_routes(delta, partition, touched.values())
    report.fact("natural_labeling_is_peo", speo)
    report.fact("cf_at_most_ao_product", cf_total <= ao_product, required=True)
    report.fact("cf_equals_ao_product_iff_peo", (cf_total == ao_product) == speo,
                required=True)
    report.witnesses["cage_free_count"] = cf_total
    report.witnesses["ao_product"] = ao_product
    report.witnesses["effective_peaks"] = [list(p) for p in effective]
    return report


# ---------------------------------------------------------------------------
# Simplicial perfect elimination orderings
# ---------------------------------------------------------------------------


def is_simplicial_peo(
    delta: PureComplex, labeling: Sequence[int] | None = None
) -> bool:
    """Whether the (relabeled) complex closes every block pair.

    The defining condition: facets built from a peak by appending i,k and
    j,k force the facet appending i,j.  This is checked directly and also
    via the equivalent statement that every upper link is PEO-ordered by
    the natural labels; the routes must agree.  A link is tested on the k
    vertices its edges touch, numbered 1..k in increasing order: a vertex
    with no edge has no earlier neighbours, so it changes nothing, and an
    empty link is PEO-ordered, so the effective peaks' links suffice.  Both
    routes read the complex's `_links` slot (`_kept_links`); a relabeled
    complex fills its own.
    """
    complex_ = delta if labeling is None else delta.relabeled(labeling)
    _, _, touched, partition = _kept_links(complex_)
    return _peo_by_both_routes(complex_, partition, touched.values())


def _peo_by_both_routes(
    delta: PureComplex, partition: Mapping[tuple[Face, int], frozenset[Face]],
    touched: Iterable[Graph]
) -> bool:
    """`is_simplicial_peo` on the complex's own labels, given its partition
    and its upper links on their touched vertices."""
    direct = all(
        tuple(sorted(sigma + (i, j))) in delta.facets
        for (sigma, _), block in partition.items()
        for i, j in itertools.combinations(sorted(f[-2] for f in block), 2)
    )
    via_links = all(graphcore.is_peo(g, range(1, g.n + 1)) for g in touched)
    if direct != via_links:
        raise InternalCheckError(
            "simplicial PEO criteria disagree "
            f"(direct={direct}, links={via_links})"
        )
    return direct


def _touched(g: Graph) -> Graph:
    """The graph on the vertices its edges touch, numbered 1..k in
    increasing order."""
    return graphcore._by_rank({v for e in g.edges for v in e}, g.edges)


# ---------------------------------------------------------------------------
# Structure of spanning subcomplexes
# ---------------------------------------------------------------------------


def _kept_masks(upsilon: SpanningSubcomplex) -> tuple[Sequence[int], int]:
    """The kept facets' ridge masks and the free-ridge mask: those a
    subcomplex carries, or, for one from the public constructor, built and
    stored on first use."""
    if upsilon._masks is None:
        mask = upsilon.parent._ridge_masks()
        upsilon._masks = [mask[f] for f in upsilon.kept_facets]
        upsilon._free = _free_ridges(upsilon._masks)
    return upsilon._masks, upsilon._free


def _free_ridges(masks: Iterable[int]) -> int:
    """The ridges, as a bitmask, that lie in exactly one of the facets."""
    once = twice = 0
    for m in masks:
        twice |= once & m
        once |= m
    return once & ~twice


def top_homology_rank(upsilon: SpanningSubcomplex) -> int:
    """Rank of the kernel of the top boundary map, over the rationals.

    First collapse: a facet with a free ridge (one in no other kept facet)
    has the only nonzero entry of that ridge's row, so no cycle uses it and
    removing it leaves the rank unchanged (an elementary collapse, which
    preserves homology).  A free ridge stays free as other facets go, so
    each round removes every facet with a free ridge, until none is left.
    The first round reads the free-ridge mask the subcomplex carries in its
    slots, which `_kept_masks` fills only for one that carries none; each
    later round, reached only while a core is left, finds the core's free
    ridges with one `_free_ridges` call.  A cage-free subcomplex collapses
    to nothing, most of them in the first round, so a round filters with a
    plain loop, which costs no function call as a comprehension would.
    Only the remaining core is eliminated with `exactla.echelon` (rows by
    the parent's ridge index; an empty core has rank 0).  The top homology
    group embeds in a free abelian group, so it is torsion-free and its
    integral rank equals this rational one.
    """
    core, free = upsilon._masks, upsilon._free
    if core is None:
        core, free = _kept_masks(upsilon)
    while free:
        left = []
        for m in core:
            if not m & free:
                left.append(m)
        core = left
        free = _free_ridges(core) if core else 0
    if not core:
        return 0
    matrix = [[0] * len(core) for _ in range(max(core).bit_length())]
    for col, m in enumerate(core):
        sign = (-1) ** upsilon.parent.d  # the lowest bit omits the last vertex
        while m:
            low = m & -m
            matrix[low.bit_length() - 1][col] = sign
            sign, m = -sign, m ^ low
    return len(core) - len(echelon(matrix))


def has_leaf(upsilon: SpanningSubcomplex) -> bool:
    """Whether some ridge lies in exactly one kept facet: whether the
    free-ridge mask the subcomplex carries in its `_free` slot is nonzero,
    so no facet is scanned; `_kept_masks` fills the slot only for one that
    carries none.  Every nonempty cage-free subcomplex has one."""
    if upsilon._masks is None:
        return bool(_kept_masks(upsilon)[1])
    return bool(upsilon._free)


def is_shifted(obj: PureComplex | SpanningSubcomplex) -> bool:
    """Exchange condition: swapping any vertex of a face for a smaller one
    outside it stays a face.

    It is tested on the generators alone, each swap within the generator's
    own level: the facets of a complex; the kept facets of a subcomplex and
    the parent's ridges, which hold every lower face.  That suffices: if a
    face s lies in a generator F and j is not in s, then s - k + j lies in
    F - k + j when j is not in F, and in F itself otherwise.  So a facet of
    d + 1 vertices costs at most (d + 1) n swaps, and no 2**(d+1) faces are
    listed."""
    if isinstance(obj, SpanningSubcomplex):
        levels = (obj.kept_facets, set(obj.parent.ridges()))
    else:
        levels = (obj.facets,)
    for level in levels:
        for face in level:
            members = set(face)
            for k in face:
                for j in range(1, k):
                    if j not in members and tuple(sorted(members - {k} | {j})) not in level:
                        return False
    return True


def _link_graph(upsilon: SpanningSubcomplex, sigma: Face) -> Graph:
    sig = set(sigma)
    edges = set()
    for f in upsilon.kept_facets:
        if sig <= set(f):
            rest = sorted(set(f) - sig)
            if len(rest) == 2:
                edges.add((rest[0], rest[1]))
    return Graph(upsilon.parent.n, edges)


def structure_report(upsilon: SpanningSubcomplex) -> dict:
    """Topological and order-theoretic facts about one spanning subcomplex."""
    peaks = upsilon.parent.peaks()
    lex_min = min(peaks) if peaks else None
    link_peo = None
    if lex_min is not None:
        link_peo = graphcore.find_peo(_link_graph(upsilon, lex_min))
    return {
        "top_homology_rank": top_homology_rank(upsilon),
        "has_leaf": has_leaf(upsilon),
        "is_shifted": is_shifted(upsilon),
        "lex_min_peak": list(lex_min) if lex_min is not None else None,
        "lex_min_peak_link_chordal": link_peo is not None,
        "link_peo_witness": link_peo,
    }

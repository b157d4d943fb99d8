"""Labeled multigraphs, their hyperplane arrangements over exact Gaussian
rationals, intersection lattices, characteristic polynomials, perfect
labelings, lattice NBC theory, signed-graph coloring, and supersolvability.

The intersection lattice is built as a lattice of flats: each element is
the bitmask of the hyperplanes (atoms) containing it.  The hyperplanes are
x_i = z*x_j and x_k = 0, so the arrangement is gain-graphic, and by
Zaslavsky ("Biased graphs. IV", J. Combin. Theory Ser. B 89, 2003) a flat
is a set of coordinates forced to zero plus balanced blocks with
potentials.  Construction joins flats with atoms by one union-find step on
that closure form (`_join`), whose canonical normalization tells flats
apart: integer potentials on a real arrangement, Gaussian rationals on a
non-real one; the rank is the support size less the number of blocks.  Once
built, the masks are the elements, and order, meet and join are bit
operations on them.  The lattice NBC sets come from the closure test on
these masks, with no circuit listed: the walk takes the atoms from the
order-largest down, keeps the set's flat, and accepts an atom when its join
with that flat lies above no earlier atom.
"""

from __future__ import annotations

import itertools
import re
from collections import defaultdict
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Iterable, Sequence

from .errors import BudgetExceededError, InputError, InternalCheckError, require_int
from . import graphcore
from .graphcore import (_edge_problem, _increasing_masks, _within_output_budget,
                        counts_to_polynomial)
from .polycore import IntPolynomial, poly_from_linear_factors
from .report import Report, _Frozen, _Kept, _set
from .walks import block_transversals, count_by_size, downward_closed, members

__all__ = [
    "GaussRational",
    "LabeledMultigraph",
    "Arrangement",
    "IntersectionLattice",
    "build_arrangement",
    "intersection_lattice",
    "characteristic_polynomial",
    "multigraph_edge_partition",
    "multigraph_isf_polynomial",
    "is_perfectly_labeled",
    "PerfectLabelingResult",
    "prefix_multichain",
    "atom_blocks",
    "block_compatible_atom_order",
    "lattice_nbc_sets",
    "lattice_nbc",
    "verify_isf_chi",
    "topology_report",
    "region_count_deletion_restriction",
    "signed_chromatic_count",
    "is_supersolvable",
]

# The budgets: past one, BudgetExceededError is raised, or a cross-check skipped
_CROSS_CHECK_BUDGET = 16  # edges that multigraph_isf_polynomial enumerates
_HYPERPLANE_BUDGET = 20  # hyperplanes of an intersection lattice
_LATTICE_BUDGET = 5000  # elements of an intersection lattice

_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")  # what to_json writes


class GaussRational:
    """An exact Gaussian rational a + b*i with Fraction components."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        # a Fraction is immutable, so one given is kept, not copied
        self.re = re if type(re) is Fraction else Fraction(re)
        self.im = im if type(im) is Fraction else Fraction(im)

    def __add__(self, other):
        other = _coerce(other)
        return GaussRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussRational(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        other = _coerce(other)
        return GaussRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        norm = other.re * other.re + other.im * other.im
        if norm == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussRational(
            (self.re * other.re + self.im * other.im) / norm,
            (self.im * other.re - self.re * other.im) / norm,
        )

    def __rtruediv__(self, other):
        return _coerce(other) / self

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = GaussRational(other)
        if not isinstance(other, GaussRational):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        # a real value equals its Fraction, which hashes like an equal int
        return hash((self.re, self.im)) if self.im else hash(self.re)

    def is_real(self) -> bool:
        return not self.im

    def sort_key(self):
        return (self.re, self.im)

    def __repr__(self):
        if self.im == 0:
            return f"GaussRational({self.re})"
        return f"GaussRational({self.re}, {self.im})"

    def to_json(self) -> dict:
        return {"re": str(self.re), "im": str(self.im)}

    @classmethod
    def from_json(cls, data) -> "GaussRational":
        """Components as JSON integers or "p" / "p/q" decimal strings; bools,
        floats, exponents and other strings are rejected."""
        if not isinstance(data, dict) or "re" not in data:
            raise InputError('labels must be {"re": "p/q", "im": "r/s"}')
        return cls(_component(data["re"]), _component(data.get("im", 0)))


def _component(value) -> Fraction:
    if type(value) is int:
        return Fraction(value)
    match = _RATIONAL.fullmatch(value) if isinstance(value, str) else None
    if match is None:
        raise InputError(f"rational component must be an integer or a "
                         f"\"p/q\" string, got {value!r}")
    try:
        return Fraction(int(match[1]), int(match[2] or 1))
    except (ValueError, ZeroDivisionError) as exc:  # digit limit, or q = 0
        raise InputError(f"bad rational component: {exc}") from exc


def _coerce(value) -> GaussRational:
    if isinstance(value, GaussRational):
        return value
    if isinstance(value, (int, Fraction)):
        return GaussRational(value)
    raise TypeError(f"cannot treat {value!r} as a Gaussian rational")


GR_ZERO = GaussRational(0)
GR_ONE = GaussRational(1)


# ---------------------------------------------------------------------------
# Labeled multigraphs
# ---------------------------------------------------------------------------

# An edge token is (0, k, None) for the plain edge 0--k, or (i, j, label)
# with 1 <= i < j <= n for a labeled edge.
EdgeToken = tuple[int, int, GaussRational | None]


class LabeledMultigraph(_Kept):
    """A multigraph on {0..n}: optional plain edges from 0, labeled edges between
    nonzero vertices (nonzero Gaussian-rational labels, parallels allowed).

    The fields cannot be assigned after construction, so five derived
    values are kept in slots that take no part in repr or JSON: `_edges`,
    the canonical edge list, sorted once at construction; `_arrangement`,
    built on first use by `build_arrangement`; `_lattice`, built on first
    use by `_lattice_of`; `_isf`, the factored ISF polynomial, kept by
    `multigraph_isf_polynomial` once its enumeration cross-check has passed;
    and `_perfect`, the `is_perfectly_labeled` result."""

    __slots__ = ("n", "zero_edges", "labeled_edges", "_edges", "_arrangement",
                 "_lattice", "_isf", "_perfect")

    def __init__(
        self,
        n: int,
        zero_edges: Iterable[int] = (),
        labeled_edges: Iterable[tuple[int, int, object]] = (),
    ):
        n = require_int(n, "vertex count n")
        if n < 1:
            raise InputError("multigraph needs at least one nonzero vertex")
        zset = set()
        for k in zero_edges:
            k = require_int(k, "zero-edge endpoint")
            if not 1 <= k <= n:
                raise InputError(f"zero-edge endpoint {k} out of range")
            if k in zset:
                raise InputError(f"duplicate zero edge (0,{k})")
            zset.add(k)
        lset = set()
        for i, j, label in labeled_edges:
            i, j = require_int(i, "edge endpoint"), require_int(j, "edge endpoint")
            label = _coerce(label) if not isinstance(label, GaussRational) else label
            if not 1 <= i < j <= n:
                raise InputError(f"labeled edge ({i},{j}) {_edge_problem(i, j, n)}")
            if not label:
                raise InputError(f"edge ({i},{j}) has zero label")
            if (i, j, label) in lset:
                raise InputError(f"duplicate edge ({i},{j}) with equal label")
            lset.add((i, j, label))
        _set(self, "n", n)
        _set(self, "zero_edges", frozenset(zset))
        _set(self, "labeled_edges", frozenset(lset))
        _set(self, "_edges", (
            *[(0, k, None) for k in sorted(zset)],
            *sorted(lset, key=lambda e: (e[0], e[1], e[2].sort_key())),
        ))
        _set(self, "_arrangement", None)
        _set(self, "_lattice", None)
        _set(self, "_isf", None)
        _set(self, "_perfect", None)

    def edge_list(self) -> list[EdgeToken]:
        """All edges in a canonical deterministic order: the zero edges by
        endpoint, then the labeled edges by endpoints and label."""
        return list(self._edges)

    def is_real(self) -> bool:
        return all(z.is_real() for _, _, z in self.labeled_edges)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "zero_edges": sorted(self.zero_edges),
            "edges": [[i, j, z.to_json()]
                      for i, j, z in self.edge_list()[len(self.zero_edges):]],
        }

    @classmethod
    def from_json(cls, data) -> "LabeledMultigraph":
        if not isinstance(data, dict) or not {"n", "zero_edges", "edges"} <= set(data):
            raise InputError(
                'multigraph JSON must be {"n", "zero_edges", "edges"}'
            )
        zero, edges = data["zero_edges"], data["edges"]
        if not isinstance(zero, list) or not isinstance(edges, list) or any(
            not isinstance(e, list) or len(e) != 3 for e in edges
        ):
            raise InputError("multigraph zero_edges must be a list of vertices "
                             "and edges a list of [i, j, label]")
        return cls(
            require_int(data["n"], "vertex count n"),
            [require_int(k, "zero-edge endpoint") for k in zero],
            [(require_int(i, "edge endpoint"), require_int(j, "edge endpoint"),
              GaussRational.from_json(z)) for i, j, z in edges],
        )

    def __repr__(self):
        return (
            f"LabeledMultigraph(n={self.n}, zero_edges={sorted(self.zero_edges)}, "
            f"labeled_edges={self.edge_list()[len(self.zero_edges):]})"
        )


def multigraph_edge_partition(G: LabeledMultigraph) -> dict[int, list[EdgeToken]]:
    """Edges grouped by larger nonzero endpoint; the 0--k edge joins group k."""
    _within_output_budget(G.n)
    blocks: dict[int, list[EdgeToken]] = {k: [] for k in range(1, G.n + 1)}
    for e in G.edge_list():
        blocks[e[1]].append(e)
    return blocks


def multigraph_isf_polynomial(
    G: LabeledMultigraph, cross_check_budget: int = _CROSS_CHECK_BUDGET
) -> IntPolynomial:
    """The factored ISF generating function prod_k (t + |E_k|).

    Within the budget, the edge sets are also enumerated by the
    no-two-edges-into-a-vertex-from-below criterion (parallel edges count
    as a cycle); disagreement with the factored form is a library bug.  A
    polynomial whose cross-check passed is kept on G and returned by later
    calls; one whose cross-check was skipped is not kept.
    """
    if G._isf is not None:
        return G._isf
    blocks = multigraph_edge_partition(G)
    factored = poly_from_linear_factors(
        [len(blocks[k]) for k in range(1, G.n + 1)]
    )
    edges = G.edge_list()
    if len(edges) <= cross_check_budget:
        enum = counts_to_polynomial(count_by_size(_increasing_masks(edges)), G.n)
        if enum != factored:
            raise InternalCheckError(
                f"multigraph ISF enumeration {enum!r} != factored {factored!r}"
            )
        G._isf = factored
    return factored


class PerfectLabelingResult(_Frozen):
    __slots__ = ("ok", "failed_condition", "witness")

    def __init__(self, ok: bool, failed_condition: int | None = None,
                 witness: tuple | None = None):
        _set(self, "ok", ok)
        _set(self, "failed_condition", failed_condition)
        _set(self, "witness", witness)

    def __bool__(self) -> bool:
        return self.ok


def is_perfectly_labeled(G: LabeledMultigraph) -> PerfectLabelingResult:
    """Check the three closure conditions; return the first violation found.

    (1) edges i-k and j-k (i<j<k) force an i-j edge labeled by the quotient;
    (2) parallel edges at j-k force the plain edge 0-j;
    (3) a j-k edge together with 0-k forces 0-j.

    The result is kept on G, so the conditions are checked once per
    multigraph.
    """
    if G._perfect is None:
        G._perfect = _first_violation(G)
    return G._perfect


def _first_violation(G: LabeledMultigraph) -> PerfectLabelingResult:
    """The scan behind `is_perfectly_labeled`, conditions in order."""
    by_pair: dict[tuple[int, int], list[GaussRational]] = defaultdict(list)
    for i, j, z in G.edge_list()[len(G.zero_edges):]:
        by_pair[(i, j)].append(z)
    by_top: dict[int, list[tuple[int, GaussRational]]] = defaultdict(list)
    for (i, j), labels in sorted(by_pair.items()):
        for z in labels:
            by_top[j].append((i, z))

    for k in sorted(by_top):
        for (i, alpha), (j, beta) in itertools.combinations(by_top[k], 2):
            if i == j:
                continue
            if i > j:
                (i, alpha), (j, beta) = (j, beta), (i, alpha)
            needed = alpha / beta
            if needed not in by_pair.get((i, j), ()):
                return PerfectLabelingResult(False, 1, (i, j, k, alpha, beta))
    for (j, k), labels in sorted(by_pair.items()):
        if len(labels) >= 2 and j not in G.zero_edges:
            return PerfectLabelingResult(False, 2, (j, k))
    for (j, k), labels in sorted(by_pair.items()):
        if k in G.zero_edges and j not in G.zero_edges:
            return PerfectLabelingResult(False, 3, (j, k))
    return PerfectLabelingResult(True)


# ---------------------------------------------------------------------------
# Arrangements and intersection lattices
# ---------------------------------------------------------------------------


class Arrangement(_Frozen):
    """Central hyperplane arrangement given by one normal vector per hyperplane.

    `real_flag` promises that every normal is real; it may be False for real
    normals, but a True flag over a non-real normal is refused."""

    __slots__ = ("dim", "normals", "real_flag")

    def __init__(self, dim: int, normals: tuple[tuple[GaussRational, ...], ...],
                 real_flag: bool):
        if real_flag and not all(z.is_real() for row in normals for z in row):
            raise InputError("real_flag is set but a normal is not real")
        _set(self, "dim", dim)
        _set(self, "normals", normals)
        _set(self, "real_flag", real_flag)


def build_arrangement(G: LabeledMultigraph) -> Arrangement:
    """One hyperplane per edge: x_i = label * x_j for i-j, x_k = 0 for 0-k.
    Built on the first call and kept on G."""
    if G._arrangement is None:
        _within_output_budget(G.n)
        normals = []
        for i, j, z in G.edge_list():
            vec = [GR_ZERO] * G.n
            if i == 0:
                vec[j - 1] = GR_ONE
            else:
                vec[i - 1] = GR_ONE
                vec[j - 1] = -z
            normals.append(tuple(vec))
        G._arrangement = Arrangement(G.n, tuple(normals), G.is_real())
    return G._arrangement


class IntersectionLattice:
    """The intersection lattice of a central arrangement, as its lattice of
    flats.

    Each element is the bitmask of the atoms below it: bit a is set when the
    a-th distinct hyperplane contains the subspace.  A flat is the
    intersection of the hyperplanes containing it, so this mask determines
    the element.  The bottom (the ambient space) is 0, the atoms are 1 << a
    in hyperplane order and the top is the full mask; order is mask
    inclusion, the meet is the mask intersection and a join adds one atom
    at a time.

    `rank` maps every element to its codimension, in order of rank, and
    `mobius` maps it to mu(0, x); `_atom_joins` maps (x, a) to the join of x
    with each atom a not below it.
    """

    def __init__(self, ranks: dict[int, int], atom_joins: dict[tuple[int, int], int]):
        self.rank = ranks
        self.size = len(ranks)
        self.atoms = [1 << a for a in range(sum(r == 1 for r in ranks.values()))]
        self.top = (1 << len(self.atoms)) - 1
        self.rho = ranks[self.top]
        self._atom_joins = atom_joins
        self.mobius = self._mobius()

    def _mobius(self) -> dict[int, int]:
        """mu(0, x) by Weisner's theorem (Trans. Amer. Math. Soc. 38, 1935):
        for an atom a below x != 0, the sum of mu(y) over the y with
        y v a = x is 0.  In a geometric lattice those y, besides x, are the
        lower covers of x not above a, and `_atom_joins[y, a] = x` holds
        exactly for them, so one pass over the stored covers, with a the
        lowest atom of x, gives mu(x) = -(sum over them of mu(y))."""
        mu = dict.fromkeys(self.rank, 0)
        mu[0] = 1
        # filled rank by rank, so mu(y) is complete before y's covers are read
        for (y, b), x in self._atom_joins.items():
            if not x & ((1 << b) - 1):
                mu[x] -= mu[y]
        return mu

    def join(self, x: int, y: int) -> int:
        """The least flat above x and y; y may be any mask of atoms."""
        rest = y & ~x
        while rest:
            x = self._atom_joins[x, (rest & -rest).bit_length() - 1]
            rest &= ~x
        return x


def _support(normals: Sequence[Sequence]) -> list[int]:
    """The coordinates where some normal is nonzero.  Dropping the others
    changes neither the flats nor the regions, and a normal then has an
    entry per vertex an edge touches, not per vertex.  The shared GR_ZERO
    that `build_arrangement` fills in is skipped without a test."""
    return sorted(
        {k for row in normals for k, z in enumerate(row) if z is not GR_ZERO and z}
    )


def _integers(values: Sequence[Fraction]) -> list[int]:
    """The values scaled by the lcm of their denominators."""
    scale = lcm(*(q.denominator for q in values))
    return [q.numerator * (scale // q.denominator) for q in values]


def _real_rows(normals: Sequence[Sequence[GaussRational]],
               cols: Sequence[int]) -> list[list[int]]:
    """Each real normal as one integer row on the columns `cols`."""
    return [_integers([row[k].re for k in cols]) for row in normals]


def _primitive(values: list[int]) -> list[int]:
    """A real block's potentials: the primitive integer vector with a
    positive root entry, the first."""
    g = gcd(*values)
    if values[0] < 0:
        g = -g
    return values if g == 1 else [v // g for v in values]


def _monic(values: list[GaussRational]) -> list[GaussRational]:
    """A non-real block's potentials: divided by the root entry, the first."""
    root = values[0]
    return [v / root for v in values]


def _join(form: tuple, edge: tuple, normalize: Callable) -> tuple:
    """The flat of `form` cut by the hyperplane a*x_i + b*x_j = 0 of `edge`
    (i, a, j, b); a zero edge x_i = 0 is (i, 1, i, 0).

    A form holds, per support coordinate, None when the flat forces it to 0,
    and otherwise (root, p): the flat sets x_k = p * t_B on each block B of
    coordinates, which the least coordinate, the root, names.  An edge to a
    zero coordinate, or inside one block with a*p_i + b*p_j != 0 (a zero
    edge always), zeroes the block; an edge across two blocks merges them,
    the first's potentials times b*p_j and the second's times -a*p_i, so
    that the edge holds on the merged block.  A flat already on the
    hyperplane is returned as it is."""
    i, a, j, b = edge
    ci, cj = form[i], form[j]
    if ci is None:
        if cj is None:
            return form
        dead = cj[0]
    elif cj is None:
        dead = ci[0]
    else:
        ri, p = ci
        rj, q = cj
        if ri == rj:
            if a * p + b * q == 0:
                return form
            dead = ri
        else:
            s, t = b * q, -a * p
            block, values = [], []
            for k, c in enumerate(form):
                if c is not None:
                    if c[0] == ri:
                        block.append(k)
                        values.append(c[1] * s)
                    elif c[0] == rj:
                        block.append(k)
                        values.append(c[1] * t)
            root, out = block[0], list(form)
            for k, v in zip(block, normalize(values)):
                out[k] = (root, v)
            return tuple(out)
    return tuple([None if c is not None and c[0] == dead else c for c in form])


def _gain_edges(A: Arrangement) -> tuple[int, list[tuple], Callable]:
    """The number of support coordinates, those where some normal is
    nonzero (dropping the others changes no flat), each hyperplane as the
    edge (i, a, j, b) of `_join` on them, and the normalization of the
    potentials.  A real arrangement's edges have integer coefficients and
    its potentials are integers (`_primitive`); a non-real one's are
    Gaussian rationals (`_monic`).  Past the hyperplane budget, or with a
    zero normal or one of more than two nonzero entries, which is not
    gain-graphic, the arrangement is refused."""
    if len(A.normals) > _HYPERPLANE_BUDGET:
        raise BudgetExceededError(
            f"{len(A.normals)} hyperplanes exceeds budget {_HYPERPLANE_BUDGET}"
        )
    # the nonzero entries of each normal; the shared GR_ZERO that
    # `build_arrangement` fills in is skipped without a test
    entries = []
    for h, row in enumerate(A.normals):
        nonzero = [k for k, z in enumerate(row) if z is not GR_ZERO and z]
        if not nonzero:
            raise InputError("hyperplane normals must be nonzero")
        if len(nonzero) > 2:
            raise InputError(
                f"hyperplane {h} has {len(nonzero)} nonzero normal entries; an "
                f"intersection lattice needs at most two (x_i = z*x_j or x_k = 0)"
            )
        entries.append(nonzero)
    cols = {k: c for c, k in enumerate(sorted(set().union(*entries)))}
    edges = []
    for row, (i, *rest) in zip(A.normals, entries):
        if not rest:
            edges.append((cols[i], 1, cols[i], 0))
            continue
        j = rest[0]
        if A.real_flag:  # (x, y) times the product of their denominators
            x, y = row[i].re, row[j].re
            a, b = x.numerator * y.denominator, y.numerator * x.denominator
        else:
            a, b = row[i], row[j]
        edges.append((cols[i], a, cols[j], b))
    normalize = _primitive if A.real_flag else _monic
    return len(cols), edges, normalize


def intersection_lattice(A: Arrangement) -> IntersectionLattice:
    """Build the flats rank by rank, deduplicating each rank by the closure
    form of `_join`: by Zaslavsky ("Biased graphs. IV", J. Combin. Theory
    Ser. B 89, 2003) a flat of this gain-graphic arrangement is its zero
    coordinates and balanced blocks with potentials, and the normalized form
    is canonical, so two flats are equal exactly when their forms are.

    Each flat X is joined with the atoms a not below it, in order.  Every
    atom below a flat Z of rank r is reached as X v a from some flat X of
    rank r - 1 that does not contain it, so OR-ing the masks of all such X,
    plus the bit of a, gives the full atom set of Z.  A join already known
    is read, not computed again.  The lattice of flats is semimodular
    (Orlik-Terao, *Arrangements of Hyperplanes*, 1992, section 2.1): for
    the lower cover W that X was first reached from, Y = W v a is a stored
    flat of X's rank and X v a = X v Y, so the join of each pair {X, Y} is
    kept for the level.  Failing that, a cover of X found so far whose mask
    already holds X and a is the join, since both have rank r + 1.  Only
    when both miss is the form joined with the atom.  A central arrangement
    has one flat of top rank rho, the join of all atoms, so the joins from
    rank rho - 1 take its form with no closure step, and the joins of the
    bottom are the atoms' own forms.  Each level still finds its flats in
    the order of its (X, a) pairs, so the order of `rank` and the point
    where the lattice budget refuses do not depend on which way a join was
    found.
    """
    support, edges, normalize = _gain_edges(A)
    bottom = tuple((k, 1) for k in range(support))
    # each distinct hyperplane's form, to the first edge that gives it
    atoms: dict[tuple, tuple] = {}
    for edge in edges:
        atoms.setdefault(_join(bottom, edge, normalize), edge)
    atom_forms, atom_edges = list(atoms), list(atoms.values())
    top = bottom
    for edge in atom_edges:
        top = _join(top, edge, normalize)
    rho = support - sum(c is not None and c[0] == k for k, c in enumerate(top))
    ranks: dict[int, int] = {0: 0}
    atom_joins: dict[tuple[int, int], int] = {}
    # each flat of a level: its form, its mask and the lower cover it was
    # first reached from
    level: list[tuple[tuple, int, int]] = [(bottom, 0, 0)]
    rank = 0
    while level:
        rank += 1
        index: dict[tuple, int] = {}  # the form of each flat found, to its place
        masks: list[int] = []  # the atoms found below each flat so far
        reached_from: list[int] = []
        pair_joins: dict[tuple[int, int], int] = {}
        joins: list[tuple[int, int, int]] = []

        def place(form: tuple, mask: int) -> int:
            z = index.get(form)
            if z is None:
                if len(ranks) + len(masks) >= _LATTICE_BUDGET:
                    raise BudgetExceededError(
                        f"intersection lattice exceeds {_LATTICE_BUDGET} elements"
                    )
                z = index[form] = len(masks)
                masks.append(0)
                reached_from.append(mask)
            return z

        coatoms = rank == rho  # from rank rho - 1 each join is the top
        for form, mask, below in level:
            covers: list[int] = []  # the places of X's covers found so far
            for a, atom in enumerate(atom_forms):
                bit = 1 << a
                if mask & bit:
                    continue
                if coatoms or not mask:
                    z = place(top if coatoms else atom, mask)
                else:
                    other = atom_joins[below, a]
                    pair = (mask, other) if mask < other else (other, mask)
                    z = pair_joins.get(pair)
                    if z is None:
                        for z in covers:  # each holds X; the join is one holding a
                            if masks[z] & bit:
                                break
                        else:
                            z = place(_join(form, atom_edges[a], normalize), mask)
                        pair_joins[pair] = z
                masks[z] |= mask | bit
                if z not in covers:
                    covers.append(z)
                joins.append((mask, a, z))
        for mask, a, z in joins:
            atom_joins[mask, a] = masks[z]
        level = [(form, masks[z], reached_from[z]) for form, z in index.items()]
        for _, mask, _ in level:
            ranks[mask] = rank
    return IntersectionLattice(ranks, atom_joins)


def _lattice_of(G: LabeledMultigraph) -> IntersectionLattice:
    """G's intersection lattice, built on the first call and kept on G."""
    if G._lattice is None:
        G._lattice = intersection_lattice(build_arrangement(G))
    return G._lattice


def characteristic_polynomial(L: IntersectionLattice) -> IntPolynomial:
    """chi(L, t) = sum over elements of mobius * t**(rank(L) - rank(x))."""
    coeffs = [0] * (L.rho + 1)
    for x, mu in L.mobius.items():
        coeffs[L.rho - L.rank[x]] += mu
    return IntPolynomial(coeffs)


# ---------------------------------------------------------------------------
# Multichains, blocks, transversals, lattice NBC sets
# ---------------------------------------------------------------------------


def prefix_multichain(G: LabeledMultigraph, L: IntersectionLattice) -> list[int]:
    """The multichain joining in the hyperplanes of E_1, then E_2, and so on."""
    edges = G.edge_list()
    if len(L.atoms) != len(edges):
        raise InternalCheckError("atoms do not correspond to edges one-to-one")
    atom_of_edge = dict(zip(edges, L.atoms))
    blocks = multigraph_edge_partition(G)
    chain = [0]
    for k in range(1, G.n + 1):
        chain.append(L.join(chain[-1], sum(atom_of_edge[e] for e in blocks[k])))
    if chain[-1] != L.top:
        raise InternalCheckError("prefix multichain does not reach the top")
    return chain


def atom_blocks(L: IntersectionLattice, multichain: Sequence[int]) -> list[list[int]]:
    """Partition the atoms: block i holds atoms below z_i but not below z_{i-1},
    the bits of the mask difference."""
    return [members(L.atoms, cur & ~prev)
            for prev, cur in zip(multichain, multichain[1:])]


def block_compatible_atom_order(
    L: IntersectionLattice, blocks: Sequence[Sequence[int]]
) -> list[int]:
    order = [a for block in blocks for a in block]
    if sorted(order) != sorted(L.atoms):
        raise InternalCheckError("blocks do not partition the atom set")
    return order


def _lattice_nbc_walk(L: IntersectionLattice, atom_order):
    """NBC atom sets by the closure test, as for graphs: each new atom s is
    the smallest of its set, the state is the set's flat, and s is accepted
    when its join with the flat lies above no atom that comes before s.

    By Rota's NBC theorem (Z. Wahrscheinlichkeitstheorie 2, 1964) the walk
    lists sum |mu(0, x)| sets, which the member budget caps before it
    starts."""
    order = list(atom_order) if atom_order is not None else list(L.atoms)
    if sorted(order) != L.atoms:
        raise InputError("atom order must be a permutation of the atoms")
    graphcore._within_member_budget(sum(map(abs, L.mobius.values())), "lattice NBC sets")
    order.reverse()
    # lower[i]: the atoms that come before order[i]
    lower, below = [0] * len(order), 0
    for i in reversed(range(len(order))):
        lower[i] = below
        below |= order[i]

    def extend(mask: int, flat: int, i: int) -> int | None:
        joined = L.join(flat, order[i])
        return None if joined & lower[i] else joined

    return order, downward_closed(len(order), extend, 0)


def lattice_nbc_sets(
    L: IntersectionLattice, atom_order: Sequence[int] | None = None
) -> list[frozenset[int]]:
    """All atom sets containing no broken circuit of the lattice's matroid."""
    order, masks = _lattice_nbc_walk(L, atom_order)
    return [frozenset(members(order, mask)) for mask in masks]


def lattice_nbc(L: IntersectionLattice) -> dict[int, int]:
    """Counts of the lattice NBC sets by size, which do not depend on the
    atom order."""
    return count_by_size(_lattice_nbc_walk(L, None)[1])


# ---------------------------------------------------------------------------
# The ISF / characteristic polynomial correspondence
# ---------------------------------------------------------------------------


def verify_isf_chi(G: LabeledMultigraph) -> Report:
    """Check that the ISF polynomial matches the signed characteristic
    polynomial exactly when the labeling is perfect, along with the
    multichain factorization and the transversal/NBC facts.  Transversals
    and NBC sets are bitmasks over the NBC walk's atom order."""
    report = Report()
    isf = multigraph_isf_polynomial(G)
    L = _lattice_of(G)
    chi = characteristic_polynomial(L)
    perfect = is_perfectly_labeled(G)
    report.fact("perfectly_labeled", perfect.ok)
    if not perfect.ok:
        report.witnesses["perfect_labeling_violation"] = {
            "condition": perfect.failed_condition,
            "witness": [str(w) for w in perfect.witness],
        }
    report.fact("lattice_rank_equals_vertex_count", L.rho == G.n)
    report.witnesses["lattice_size"] = L.size

    signed_chi = ((-1) ** L.rho * chi.compose_neg()).shifted(G.n - L.rho)
    isf_matches = report.check("isf_vs_signed_characteristic", isf, signed_chi)
    report.fact("isf_chi_identity_iff_perfect", isf_matches == perfect.ok,
                required=True)

    chain = prefix_multichain(G, L)
    blocks = atom_blocks(L, chain)
    # prod (t - |B|) over the blocks B is (-1)^(#blocks) times prod (-t + |B|)
    sizes = [len(block) for block in blocks]
    chain_product = (-1) ** len(sizes) * poly_from_linear_factors(sizes).compose_neg()
    chain_matches = report.check(
        "chain_factorization_vs_chi", chi.shifted(G.n - L.rho), chain_product
    )
    report.fact("chain_factorization_iff_perfect", chain_matches == perfect.ok,
                required=True)

    order = block_compatible_atom_order(L, blocks)
    atoms, nbc_masks = _lattice_nbc_walk(L, order)
    bit = {a: 1 << i for i, a in enumerate(atoms)}
    bits = [[bit[a] for a in block] for block in blocks]
    transversals = set(map(sum, block_transversals(bits)))
    nbc = set(nbc_masks)
    report.fact("transversals_are_nbc", transversals <= nbc, required=True)
    trans_counts, nbc_counts = count_by_size(transversals), count_by_size(nbc)
    report.check(
        "transversal_counts_vs_isf_coefficients",
        trans_counts,
        {m: isf.coefficient(G.n - m) for m in range(G.n + 1)
         if isf.coefficient(G.n - m)},
        expect_equal=True,
    )
    all_m = sorted(set(trans_counts) | set(nbc_counts))
    report.fact(
        "isf_counts_at_most_nbc_counts",
        all(trans_counts.get(m, 0) <= nbc_counts.get(m, 0) for m in all_m),
        required=True,
    )
    counts_equal = all(
        trans_counts.get(m, 0) == nbc_counts.get(m, 0) for m in all_m
    )
    report.fact("isf_equals_nbc_iff_perfect", counts_equal == perfect.ok,
                required=True)

    rota = counts_to_polynomial({m: (-1) ** m * c for m, c in nbc_counts.items()}, L.rho)
    report.check("rota_nbc_sum_vs_chi", rota, chi, expect_equal=True)

    supersolvable = is_supersolvable(L)
    report.fact("supersolvable", supersolvable)
    if perfect.ok:
        report.fact("perfect_implies_supersolvable", supersolvable, required=True)
    return report


# ---------------------------------------------------------------------------
# Topology of the complement
# ---------------------------------------------------------------------------


def _normalize_real(vec: Sequence[int]) -> tuple[int, ...] | None:
    """The primitive integer multiple of vec with a positive lead."""
    lead = next((x for x in vec if x != 0), None)
    if lead is None:
        return None
    g = gcd(*vec) if lead > 0 else -gcd(*vec)
    return tuple(x // g for x in vec)


def region_count_deletion_restriction(A: Arrangement) -> int:
    """Regions of a real arrangement by Zaslavsky's deletion-restriction
    recurrence r(A) = r(A - H) + r(A restricted to H) ("Facing up to
    arrangements", Mem. Amer. Math. Soc. 154, 1975), in linear algebra on the
    normals, with no lattice.  The recursion stops at two hyperplanes, which
    are independent and cut space into 4 regions, or in the plane, where k
    distinct lines through 0 cut it into 2k regions."""

    def distinct(normals: list[Sequence[int]]) -> list[tuple[int, ...]]:
        seen: dict[tuple, None] = {}
        for v in normals:
            norm = _normalize_real(v)
            if norm is not None:
                seen.setdefault(norm, None)
        return list(seen)

    def rec(hs: list[tuple[int, ...]], dim: int) -> int:
        """r of the distinct primitive normals hs."""
        if len(hs) <= 2:  # distinct hyperplanes through 0: 2 are independent
            return 1 << len(hs)
        if dim == 2:
            return 2 * len(hs)
        h = hs[-1]
        rest = hs[:-1]
        pivot = next(i for i, x in enumerate(h) if x != 0)
        # the vectors h[pivot] * e_k - h[k] * e_pivot, k != pivot, are an
        # integer basis of H
        restricted = [
            [h[pivot] * g[k] - h[k] * g[pivot] for k in range(dim) if k != pivot]
            for g in rest
        ]
        return rec(rest, dim) + rec(distinct(restricted), dim - 1)

    if not A.real_flag:
        raise InputError("region counting requires all-real edge labels")
    cols = _support(A.normals)
    return rec(distinct(_real_rows(A.normals, cols)), len(cols))


def topology_report(G: LabeledMultigraph) -> Report:
    """Betti profile of the complement from lattice NBC counts and, for real
    labels, the region count cross-checked by deletion-restriction."""
    report = Report()
    L = _lattice_of(G)
    nbc_counts = lattice_nbc(L)
    betti = {G.n - m: c for m, c in nbc_counts.items()}
    report.witnesses["betti_profile"] = dict(sorted(betti.items()))

    isf_poly = multigraph_isf_polynomial(G)
    isf_by_m = {
        m: isf_poly.coefficient(G.n - m)
        for m in range(G.n + 1)
        if isf_poly.coefficient(G.n - m)
    }
    report.fact(
        "isf_at_most_betti",
        all(c <= betti.get(G.n - m, 0) for m, c in isf_by_m.items()),
        required=True,
    )
    perfect = is_perfectly_labeled(G)
    report.fact("perfectly_labeled", perfect.ok)
    equality = all(
        isf_by_m.get(m, 0) == nbc_counts.get(m, 0)
        for m in set(isf_by_m) | set(nbc_counts)
    )
    report.fact("isf_equals_betti_iff_perfect", equality == perfect.ok,
                required=True)

    if G.is_real():
        regions = sum(nbc_counts.values())
        regions_dr = region_count_deletion_restriction(build_arrangement(G))
        report.check("regions_nbc_vs_deletion_restriction", regions, regions_dr,
                     expect_equal=True)
        report.witnesses["regions"] = regions
        report.fact(
            "isf_at_most_regions", sum(isf_by_m.values()) <= regions,
            required=True,
        )
        report.fact(
            "isf_equals_regions_iff_perfect",
            (sum(isf_by_m.values()) == regions) == perfect.ok,
            required=True,
        )
    return report


# ---------------------------------------------------------------------------
# Signed graphs
# ---------------------------------------------------------------------------


def signed_chromatic_count(G: LabeledMultigraph, s: int) -> int:
    """Proper colorings of a signed graph by {-s..s}, counted by backtracking
    over the vertices 1..n: x_k may not be eps * x_i for a lower neighbour i
    joined by a sign-eps edge, nor 0 if k has a zero edge.

    The values of vertex n are counted, not visited, so the backtrack visits
    at most (2s+1)^(n-1) colorings of vertices 1..n-1; past the member
    budget it raises BudgetExceededError instead."""
    if s < 0:
        raise InputError("s must be nonnegative")
    _within_output_budget(G.n)
    # a zero edge 0--k is a +1 edge to vertex 0, whose only value is 0
    lower = [[(0, 1)] if k in G.zero_edges else [] for k in range(G.n + 1)]
    for i, j, z in G.labeled_edges:
        if not z.is_real() or z.re not in (1, -1):
            raise InputError("signed graphs require labels +1 or -1")
        lower[j].append((i, int(z.re)))
    partial = 1  # grown factor by factor, so a huge n or s stops early
    for _ in range(G.n - 1):
        partial *= 2 * s + 1
        if partial > graphcore._MEMBER_BUDGET:
            raise BudgetExceededError(
                f"(2s+1)^(n-1) = {2 * s + 1}^{G.n - 1} partial colorings exceed "
                f"the member budget {graphcore._MEMBER_BUDGET}"
            )
    x = [0] * (G.n + 1)

    def banned(k: int) -> set[int]:
        return {eps * x[i] for i, eps in lower[k]}

    count, stack = 0, [iter([0])]
    while stack:
        k = len(stack) - 1
        x[k] = next(stack[-1], None)
        if x[k] is None:
            stack.pop()
        elif k == G.n - 1:  # every banned value lies in -s..s
            count += 2 * s + 1 - len(banned(G.n))
        else:
            # filterfalse binds this level's set now; a generator expression
            # would read `ban` when iterated, after deeper levels rebind it
            ban = banned(k + 1)
            stack.append(itertools.filterfalse(ban.__contains__, range(-s, s + 1)))
    return count


# ---------------------------------------------------------------------------
# Supersolvability
# ---------------------------------------------------------------------------


def is_supersolvable(L: IntersectionLattice) -> bool:
    """Whether L has a maximal chain of modular flats, by a descent from the
    top through modular coatoms.

    A coatom H of a geometric lattice [0, X] is modular exactly when every
    line (rank-2 flat) below X meets H (Brylawski, "Modular constructions
    for combinatorial geometries", Trans. Amer. Math. Soc. 203, 1975), one
    mask AND per line.  A modular flat of a modular flat is modular, so L is
    supersolvable exactly when some modular coatom H has [0, H]
    supersolvable (Stanley, "Supersolvable lattices", Algebra Universalis 2,
    1972).  Then every modular coatom does: the meets of H with a maximal
    chain of modular flats are modular flats, since the meet of two modular
    flats is modular (Brylawski), and they form a maximal chain of [0, H].
    So the descent takes the first modular coatom it finds, and never
    backtracks."""
    by_rank: list[list[int]] = [[] for _ in range(L.rho + 1)]
    for x, rank in L.rank.items():
        by_rank[rank].append(x)
    X = L.top
    for rank in range(L.rho, 2, -1):  # a geometric lattice of rank 2 is modular
        lines = [line for line in by_rank[2] if not line & ~X]
        X = next((H for H in by_rank[rank - 1]
                  if not H & ~X and all(line & H for line in lines)), None)
        if X is None:
            return False
    return True

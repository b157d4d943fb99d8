import copy
import itertools
import pickle
import random
from collections import Counter
from fractions import Fraction

import pytest

from isfkit import arrangement
from isfkit.errors import BudgetExceededError, InputError, InternalCheckError
from isfkit.arrangement import (
    Arrangement,
    GaussRational,
    LabeledMultigraph,
    atom_blocks,
    block_compatible_atom_order,
    build_arrangement,
    characteristic_polynomial,
    multigraph_edge_partition,
    intersection_lattice,
    is_perfectly_labeled,
    is_supersolvable,
    lattice_nbc,
    lattice_nbc_sets,
    multigraph_isf_polynomial,
    prefix_multichain,
    region_count_deletion_restriction,
    signed_chromatic_count,
    topology_report,
    verify_isf_chi,
)
from isfkit.polycore import IntPolynomial
from isfkit import graphcore
from isfkit.cli import gen_multigraph

from helpers import (
    anchored_multigraph,
    atomic_transversal_sets,
    bare_parallel_pair,
    cycle_graph,
    graph_as_multigraph,
    oracle_flat_count,
    oracle_intersection_lattice,
    oracle_is_supersolvable,
    oracle_lattice_nbc_sets,
    oracle_modular_elements,
    oracle_mobius,
    oracle_region_count,
    oracle_rho_and_chi,
    oracle_signed_count,
    relabel_to_natural_peo,
)


def random_multigraph(rng, n, max_edges=7):
    primes = [1, 2, 3, 5, 7]
    pool = [("z", k) for k in range(1, n + 1)]
    pool += [
        ("l", i, j, q)
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        for q in primes
    ]
    rng.shuffle(pool)
    zero, labeled = [], []
    for item in pool[: rng.randint(0, max_edges)]:
        if item[0] == "z":
            zero.append(item[1])
        else:
            labeled.append((item[1], item[2], item[3]))
    return LabeledMultigraph(n, zero, labeled)


# -- Gaussian rationals -------------------------------------------------------


def test_gauss_rational_field_ops():
    a = GaussRational(Fraction(1, 2), 3)
    b = GaussRational(2, -1)
    assert a + b == GaussRational(Fraction(5, 2), 2)
    assert a - b == GaussRational(Fraction(-3, 2), 4)
    assert a * b == GaussRational(4, Fraction(11, 2))
    assert (a / b) * b == a
    assert a / a == GaussRational(1)
    assert not GaussRational(0, 0)
    with pytest.raises(ZeroDivisionError):
        a / GaussRational(0)


def test_gauss_rational_json():
    z = GaussRational(Fraction(3, 4), Fraction(-2, 5))
    assert z.to_json() == {"re": "3/4", "im": "-2/5"}
    assert GaussRational.from_json(z.to_json()) == z
    assert GaussRational.from_json({"re": "2"}) == GaussRational(2)
    assert GaussRational.from_json({"re": -3, "im": "06/4"}) == GaussRational(-3, Fraction(3, 2))


def test_a_real_gauss_rational_hashes_like_the_equal_number():
    for z, x in ((GaussRational(1), 1), (GaussRational(Fraction(1, 2)), Fraction(1, 2))):
        assert z == x and hash(z) == hash(x)
        assert len({z, x}) == 1
    assert len({GaussRational(1, 1), GaussRational(1), 1}) == 2


@pytest.mark.parametrize(
    "component",
    [1.5, 2.0, True, None, [1], "1e10", "1.5", "+1", " 1", "1/-2", "1/0", "١", "9" * 5000],
    ids=["float", "integral-float", "bool", "null", "list", "exponent", "decimal-point",
         "plus-sign", "space", "negative-denominator", "zero-denominator",
         "non-ascii-digit", "past-digit-limit"],
)
def test_gauss_rational_json_rejects_all_but_integers_and_fractions(component):
    for data in ({"re": component}, {"re": "1", "im": component}):
        with pytest.raises(InputError):
            GaussRational.from_json(data)


# -- multigraphs --------------------------------------------------------------


def test_multigraph_validation():
    with pytest.raises(InputError):
        LabeledMultigraph(2, [], [(1, 2, 0)])
    with pytest.raises(InputError):
        LabeledMultigraph(2, [3], [])
    with pytest.raises(InputError):
        LabeledMultigraph(2, [], [(2, 1, 1)])
    with pytest.raises(InputError, match=r"duplicate zero edge \(0,1\)"):
        LabeledMultigraph(2, [1, 1], [])


def test_multigraph_json_roundtrip():
    G = anchored_multigraph()
    back = LabeledMultigraph.from_json(G.to_json())
    assert back.zero_edges == G.zero_edges
    assert back.labeled_edges == G.labeled_edges


def test_edge_partition_worked_example():
    blocks = multigraph_edge_partition(anchored_multigraph())
    assert [e[:2] for e in blocks[1]] == [(0, 1)]
    assert [e[:2] for e in blocks[2]] == [(1, 2), (1, 2)]
    assert [e[:2] for e in blocks[3]] == [(0, 3), (1, 3)]


def test_build_arrangement_worked_example():
    A = build_arrangement(anchored_multigraph())
    assert A.dim == 3 and len(A.normals) == 5 and A.real_flag
    z, o = GaussRational(0), GaussRational(1)
    assert A.normals[0] == (o, z, z)                      # x1 = 0
    assert A.normals[1] == (z, z, o)                      # x3 = 0
    assert A.normals[2] == (o, GaussRational(-2), z)      # x1 = 2 x2
    assert A.normals[3] == (o, GaussRational(-3), z)      # x1 = 3 x2
    assert A.normals[4] == (o, z, GaussRational(-5))      # x1 = 5 x3


def test_build_arrangement_trivial_cases():
    empty = build_arrangement(LabeledMultigraph(2))
    assert empty.normals == ()
    graphic = build_arrangement(graph_as_multigraph(cycle_graph(3)))
    assert all(
        sum(1 for x in row if x) == 2 for row in graphic.normals
    )


# -- lattices -----------------------------------------------------------------


def test_lattice_worked_example_has_13_elements():
    L = intersection_lattice(build_arrangement(anchored_multigraph()))
    assert L.size == 13
    assert L.rho == 3
    assert len(L.atoms) == 5
    assert Counter(L.rank.values()) == {0: 1, 1: 5, 2: 6, 3: 1}


def test_lattice_single_hyperplane():
    A = build_arrangement(LabeledMultigraph(1, [1], []))
    L = intersection_lattice(A)
    assert L.size == 2
    assert characteristic_polynomial(L) == IntPolynomial([-1, 1])


def test_lattice_two_parallel_hyperplanes_dim2():
    o = GaussRational(1)
    A = Arrangement(
        2,
        ((o, GaussRational(-2)), (o, GaussRational(-3))),
        True,
    )
    L = intersection_lattice(A)
    assert L.size == 4 and L.rho == 2
    assert sorted(L.mobius.values()) == [-1, -1, 1, 1]
    assert characteristic_polynomial(L) == IntPolynomial([1, -2, 1])


def seeded_multigraphs():
    for n in range(1, 6):
        for seed in range(8):
            yield gen_multigraph(seed=100 * n + seed, n=n, max_edges=8)


def test_lattice_size_counts_closures_of_edge_subsets():
    for G in seeded_multigraphs():
        L = intersection_lattice(build_arrangement(G))
        assert L.size == oracle_flat_count(G), G


GAUSSIAN_LABELS = [
    GaussRational(0, 1),
    GaussRational(1, 1),
    GaussRational(3, -2),
    GaussRational(Fraction(1, 3), Fraction(-2, 5)),
    GaussRational(Fraction(-7, 4), 1),
    GaussRational(Fraction(1, 2)),
    GaussRational(-1),
    GaussRational(2),
]


def gaussian_multigraphs(count=40):
    """Seeded multigraphs, n <= 5 and at most 8 edges, at least one labeled
    edge with a non-real label whenever n > 1."""
    rng = random.Random(83)
    for _ in range(count):
        n = rng.randint(1, 5)
        zero = sorted(rng.sample(range(1, n + 1), rng.randint(0, min(n, 3))))
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        labeled = {}
        for _ in range(rng.randint(1, 8 - len(zero)) if pairs else 0):
            i, j = rng.choice(pairs)
            labeled[i, j, rng.randrange(len(GAUSSIAN_LABELS))] = None
        edges = [(i, j, GAUSSIAN_LABELS[k]) for i, j, k in labeled]
        if edges:
            i, j, _ = edges[0]
            edges[0] = (i, j, GAUSSIAN_LABELS[rng.randrange(5)])
        yield LabeledMultigraph(n, zero, list(dict.fromkeys(edges)))


REAL_FRACTION_LABELS = [
    GaussRational(Fraction(1, 2)),
    GaussRational(Fraction(-7, 4)),
    GaussRational(-1),
    GaussRational(2),
]


def real_fraction_multigraphs(count=40):
    """Seeded real multigraphs, 2 <= n <= 5 and at most 8 edges, whose labels
    have denominators and signs that the integer rows must clear."""
    rng = random.Random(89)
    for _ in range(count):
        n = rng.randint(2, 5)
        zero = sorted(rng.sample(range(1, n + 1), rng.randint(0, min(n, 3))))
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        edges = {(*rng.choice(pairs), rng.choice(REAL_FRACTION_LABELS)): None
                 for _ in range(rng.randint(1, 8 - len(zero)))}
        yield LabeledMultigraph(n, zero, list(edges))


def test_lattice_with_gaussian_labels_matches_oracle():
    non_real = 0
    for G in itertools.chain(gaussian_multigraphs(), real_fraction_multigraphs()):
        non_real += not G.is_real()
        L = intersection_lattice(build_arrangement(G))
        rho, chi = oracle_rho_and_chi(G)
        assert L.size == oracle_flat_count(G), G
        assert L.rho == rho, G
        assert characteristic_polynomial(L) == chi, G
    assert non_real >= 30


def lattice_corpus():
    """The seeded, Gaussian and real-fraction multigraphs, each with its
    lattice."""
    for G in itertools.chain(seeded_multigraphs(), gaussian_multigraphs(),
                             real_fraction_multigraphs()):
        yield G, intersection_lattice(build_arrangement(G))


def test_mobius_by_weisner_matches_the_sub_mask_scan():
    for G, L in lattice_corpus():
        assert L.mobius == oracle_mobius(L), G


def test_supersolvable_descent_matches_the_pair_scan():
    outcomes = Counter()
    for G, L in lattice_corpus():
        outcomes[is_supersolvable(L)] += 1
        assert is_supersolvable(L) == oracle_is_supersolvable(L), G
    assert outcomes[True] >= 80 and outcomes[False] >= 30


def test_every_modular_coatom_of_a_supersolvable_lattice_descends():
    # why the descent never backtracks: the lattice of the edges below a
    # modular coatom H is [0, H], and it is supersolvable whenever L is
    checked = 0
    for G, L in lattice_corpus():
        if L.rho < 3 or not oracle_is_supersolvable(L):
            continue
        edges = G.edge_list()
        assert len(L.atoms) == len(edges), G
        for H in oracle_modular_elements(L):
            if L.rank[H] != L.rho - 1:
                continue
            below = [e for a, e in enumerate(edges) if H >> a & 1]
            sub = LabeledMultigraph(G.n, [k for i, k, _ in below if i == 0],
                                    [e for e in below if e[0]])
            assert oracle_is_supersolvable(intersection_lattice(build_arrangement(sub))), G
            checked += 1
    assert checked >= 100


def test_supersolvable_is_chordality_on_every_small_graph():
    # a graphic arrangement is supersolvable exactly when its graph is
    # chordal (Stanley 1972); 1 + 2 + 8 + 61 + 822 labeled graphs on 1-5
    # vertices are chordal
    outcomes = Counter()
    for n in range(1, 6):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for kept in itertools.product((False, True), repeat=len(pairs)):
            G = graphcore.Graph(n, itertools.compress(pairs, kept))
            L = intersection_lattice(build_arrangement(graph_as_multigraph(G)))
            chordal = graphcore.find_peo(G) is not None
            assert is_supersolvable(L) == chordal, G.edges
            outcomes[chordal] += 1
    assert outcomes == {True: 894, False: 205}


def test_real_rows_build_the_lattice_of_the_realification():
    for G in itertools.chain(seeded_multigraphs(), real_fraction_multigraphs()):
        A = build_arrangement(G)
        assert A.real_flag, G
        L = intersection_lattice(A)
        ref = intersection_lattice(Arrangement(A.dim, A.normals, False))
        assert L.rank == ref.rank and L._atom_joins == ref._atom_joins, G
        assert L.mobius == ref.mobius and L.rho == ref.rho, G


def test_verify_and_topology_share_one_lattice(monkeypatch):
    built, made = [], []

    def counting(A):
        built.append(A)
        return intersection_lattice(A)

    class CountingArrangement(Arrangement):
        def __init__(self, *args):
            made.append(args)
            super().__init__(*args)

    monkeypatch.setattr(arrangement, "intersection_lattice", counting)
    monkeypatch.setattr(arrangement, "Arrangement", CountingArrangement)
    G = anchored_multigraph()
    assert G.is_real()
    assert verify_isf_chi(G).passed and topology_report(G).passed
    assert len(built) == 1
    assert len(made) == 1  # the region count reads the kept arrangement

    def fresh_sort(G):
        return ([(0, k, None) for k in sorted(G.zero_edges)]
                + sorted(G.labeled_edges, key=lambda e: (e[0], e[1], e[2].sort_key())))

    monkeypatch.undo()  # a local class does not pickle
    kept = anchored_multigraph()
    assert verify_isf_chi(kept).passed and kept._arrangement is not None
    for H in (kept, anchored_multigraph(), bare_parallel_pair()):
        for twin in (H, copy.copy(H), pickle.loads(pickle.dumps(H))):
            assert twin.edge_list() == fresh_sort(twin) == fresh_sort(H), H


def test_verify_and_topology_check_the_isf_polynomial_and_labeling_once(monkeypatch):
    enumerated, scanned = [], []
    masks, scan = arrangement._increasing_masks, arrangement._first_violation

    def counting_masks(edges):
        enumerated.append(edges)
        return masks(edges)

    def counting_scan(G):
        scanned.append(G)
        return scan(G)

    expected = {}
    for make in (anchored_multigraph, bare_parallel_pair):
        G = make()
        expected[make] = (verify_isf_chi(G).to_json(), topology_report(G).to_json())
    monkeypatch.setattr(arrangement, "_increasing_masks", counting_masks)
    monkeypatch.setattr(arrangement, "_first_violation", counting_scan)
    for make in (anchored_multigraph, bare_parallel_pair):
        G = make()
        enumerated.clear(), scanned.clear()
        assert (verify_isf_chi(G).to_json(), topology_report(G).to_json()) == expected[make]
        assert len(enumerated) == 1 and len(scanned) == 1
        assert G._isf is multigraph_isf_polynomial(G) == multigraph_isf_polynomial(make())
        assert G._perfect is is_perfectly_labeled(G) == is_perfectly_labeled(make())
        assert len(enumerated) == 2 and len(scanned) == 2  # the two fresh ones


def test_the_isf_polynomial_is_kept_only_once_its_cross_check_has_passed(monkeypatch):
    masks = arrangement._increasing_masks

    def off_by_one(edges):  # loses the empty set
        return itertools.islice(masks(edges), 1, None)

    monkeypatch.setattr(arrangement, "_increasing_masks", off_by_one)
    G = anchored_multigraph()
    for check in (multigraph_isf_polynomial, multigraph_isf_polynomial, verify_isf_chi):
        with pytest.raises(InternalCheckError):
            check(G)
        assert G._isf is None
    with pytest.raises(InternalCheckError):
        topology_report(anchored_multigraph())
    monkeypatch.undo()
    # five edges: a budget of four skips the cross-check, which keeps nothing
    skipped = anchored_multigraph()
    assert multigraph_isf_polynomial(skipped, cross_check_budget=4).coeffs == (4, 8, 5, 1)
    assert skipped._isf is None
    assert multigraph_isf_polynomial(skipped).coeffs == (4, 8, 5, 1)
    assert skipped._isf.coeffs == (4, 8, 5, 1)


def complete_multigraph(n, labels, zero=()):
    pairs = itertools.combinations(range(1, n + 1), 2)
    return LabeledMultigraph(n, zero, [(i, j, q) for i, j in pairs for q in labels])


LARGE_LATTICES = [
    complete_multigraph(6, [1], zero=range(1, 6)),  # 20 atoms, 825 flats
    complete_multigraph(5, [1, 2]),  # 20 atoms, 667 flats
]


def assert_same_lattice(L, ref, G):
    # _mobius reads the atom joins in rank order, so the key order is kept too
    assert list(L.rank.items()) == list(ref.rank.items()), G
    assert list(L._atom_joins.items()) == list(ref._atom_joins.items()), G
    assert list(L.mobius.items()) == list(ref.mobius.items()), G


def test_lattice_equals_the_one_elimination_per_pair_oracle():
    sizes = []
    for G in itertools.chain(seeded_multigraphs(), gaussian_multigraphs(),
                             real_fraction_multigraphs(), LARGE_LATTICES):
        A = build_arrangement(G)
        L = intersection_lattice(A)
        assert_same_lattice(L, oracle_intersection_lattice(A), G)
        sizes.append(L.size)
    assert sizes[-2:] == [825, 667]


def test_lattice_budget_refuses_where_the_oracle_refuses(monkeypatch):
    cases = [(anchored_multigraph(), range(1, 15)),
             (complete_multigraph(4, [1]), range(1, 17)),
             (complete_multigraph(4, [1, 2]), range(10, 120, 7)),
             (LARGE_LATTICES[1], (21, 22, 200, 666, 667))]
    refused = 0
    for G, budgets in cases:
        A = build_arrangement(G)
        for budget in budgets:
            monkeypatch.setattr(arrangement, "_LATTICE_BUDGET", budget)
            try:
                ref = oracle_intersection_lattice(A)
            except BudgetExceededError as exc:
                refused += 1
                with pytest.raises(BudgetExceededError, match=f"^{exc}$"):
                    intersection_lattice(A)
            else:
                assert_same_lattice(intersection_lattice(A), ref, G)
    assert refused >= 30


def test_lattice_eliminates_once_per_new_join(monkeypatch):
    # K4 with all-ones labels: 6 hyperplanes and 15 flats, 24 cover pairs
    # X < Z with Z below the top (6 above the bottom, 18 above the atoms);
    # one closure join per atom, one per atom to fold them into the top and
    # at most one per cover pair above the atoms, 6 + 6 + 18, stays within
    # the echelon builder's one elimination per atom, one for the top and
    # one per cover pair
    calls = []
    join = arrangement._join

    def counting(form, edge, normalize):
        calls.append(edge)
        return join(form, edge, normalize)

    monkeypatch.setattr(arrangement, "_join", counting)
    L = intersection_lattice(build_arrangement(complete_multigraph(4, [1])))
    assert L.size == 15 and len(L.atoms) == 6
    assert len(calls) <= 6 + 1 + 24


def test_closure_join_zeroes_merges_and_rescales():
    # x_k = p * t_B on each block B, named by its least coordinate
    join, real = arrangement._join, arrangement._primitive
    bottom = ((0, 1), (1, 1), (2, 1))
    # a zero edge x_1 = 0 zeroes its block
    assert join(bottom, (1, 1, 1, 0), real) == ((0, 1), None, (2, 1))
    # x_0 - 2 x_1 = 0 merges {0} and {1}: x_0 = 2t, x_1 = t
    merged = join(bottom, (0, 1, 1, -2), real)
    assert merged == ((0, 2), (0, 1), (2, 1))
    # and 3 x_0 - 6 x_1 = 0, the same hyperplane, is already on the flat
    assert join(merged, (0, 3, 1, -6), real) is merged
    # x_0 - 3 x_1 = 0 inside the block is unbalanced: it zeroes the block
    assert join(merged, (0, 1, 1, -3), real) == (None, None, (2, 1))
    # an edge to a zero coordinate zeroes the other block
    assert join(((0, 1), None, (2, 1)), (1, 1, 2, -1), real) == ((0, 1), None, None)
    # merging two merged blocks rescales both sides: x_1 + 4 x_2 = 0 with
    # x_0 = 2s, x_1 = s and x_2 = 3u, x_3 = u gives s = 12v, u = -v
    form = join(join(merged + ((3, 1),), (2, 1, 3, -3), real), (1, 1, 2, 4), real)
    assert form == ((0, 24), (0, 12), (0, -3), (0, -1))
    # a non-real block is divided by its root entry
    i = GaussRational(0, 1)
    gauss = join(bottom, (0, GaussRational(1), 2, -i), arrangement._monic)
    assert gauss == ((0, 1), (1, 1), (0, -i))
    assert join(gauss, (0, GaussRational(1), 2, i), arrangement._monic) == (
        None, (1, 1), None)


def test_kept_lattice_equals_a_fresh_build():
    for G in itertools.chain(seeded_multigraphs(), gaussian_multigraphs()):
        L = arrangement._lattice_of(G)
        fresh = intersection_lattice(build_arrangement(G))
        assert arrangement._lattice_of(G) is L
        assert L.rank == fresh.rank and L._atom_joins == fresh._atom_joins, G


def test_lattice_meet_and_join_are_glb_and_lub():
    for G in seeded_multigraphs():
        L = intersection_lattice(build_arrangement(G))
        # order is mask inclusion, and the meet is the mask intersection
        below = {x: {z for z in L.rank if z & ~x == 0} for x in L.rank}
        above = {x: {z for z in L.rank if x & ~z == 0} for x in L.rank}
        for x in L.rank:
            for y in L.rank:
                meet, join = x & y, L.join(x, y)
                lower = below[x] & below[y]
                upper = above[x] & above[y]
                assert meet in lower and lower <= below[meet], G
                assert join in upper and upper <= above[join], G
                assert L.rank[join] + L.rank[meet] <= L.rank[x] + L.rank[y], G


def test_lattice_budget(monkeypatch):
    # 21 hyperplanes are refused before any elimination
    G = LabeledMultigraph(2, [1, 2], [(1, 2, z) for z in range(1, 20)])
    with pytest.raises(BudgetExceededError, match="^21 hyperplanes exceeds budget 20$"):
        intersection_lattice(build_arrangement(G))
    G = LabeledMultigraph(4, [1, 2, 3, 4], [])
    monkeypatch.setattr(arrangement, "_HYPERPLANE_BUDGET", 3)
    with pytest.raises(BudgetExceededError, match="^4 hyperplanes exceeds budget 3$"):
        intersection_lattice(build_arrangement(G))
    monkeypatch.setattr(arrangement, "_HYPERPLANE_BUDGET", 4)
    assert intersection_lattice(build_arrangement(G)).size == 16


def test_lattice_refuses_a_normal_of_three_entries_before_any_join(monkeypatch):
    # x_i = z*x_j and x_k = 0 give every lattice the library builds; a
    # normal of three nonzero entries is not gain-graphic
    def no_join(*args):
        raise AssertionError("a join ran before the refusal")

    monkeypatch.setattr(arrangement, "_join", no_join)
    one, zero = GaussRational(1), GaussRational(0)
    for real in (True, False):
        A = Arrangement(3, ((one, -one, zero), (one, one, one), (zero, zero, one)), real)
        with pytest.raises(InputError, match="^hyperplane 1 has 3 nonzero normal entries"):
            intersection_lattice(A)


def test_lattice_size_budget(monkeypatch):
    A = build_arrangement(anchored_multigraph())
    monkeypatch.setattr(arrangement, "_LATTICE_BUDGET", 13)
    assert intersection_lattice(A).size == 13
    monkeypatch.setattr(arrangement, "_LATTICE_BUDGET", 12)
    with pytest.raises(BudgetExceededError, match="^intersection lattice exceeds 12 elements$"):
        intersection_lattice(A)


def test_multigraph_isf_cross_check_budget(monkeypatch):
    # with an enumeration that finds nothing, the cross-check fails exactly
    # when it runs: on at most 16 edges
    monkeypatch.setattr(arrangement, "_increasing_masks", lambda edges: iter(()))
    sixteen = LabeledMultigraph(2, [1, 2], [(1, 2, z) for z in range(1, 15)])
    seventeen = LabeledMultigraph(2, [1, 2], [(1, 2, z) for z in range(1, 16)])
    with pytest.raises(InternalCheckError):
        multigraph_isf_polynomial(sixteen)
    assert multigraph_isf_polynomial(seventeen).coeffs == (16, 17, 1)
    assert multigraph_isf_polynomial(sixteen, cross_check_budget=15).coeffs == (15, 16, 1)


def test_mobius_sums_to_zero():
    rng = random.Random(61)
    for _ in range(15):
        G = random_multigraph(rng, rng.randint(1, 4))
        L = intersection_lattice(build_arrangement(G))
        if L.size > 1:
            assert sum(L.mobius.values()) == 0


def test_characteristic_polynomial_worked_example():
    L = intersection_lattice(build_arrangement(anchored_multigraph()))
    assert characteristic_polynomial(L).coeffs == (-4, 8, -5, 1)


def test_multigraph_isf_examples():
    assert multigraph_isf_polynomial(anchored_multigraph()).coeffs == (4, 8, 5, 1)
    assert multigraph_isf_polynomial(LabeledMultigraph(2)) == IntPolynomial.monomial(2)
    assert multigraph_isf_polynomial(bare_parallel_pair()).coeffs == (0, 2, 1)


def test_perfect_labeling_examples():
    assert is_perfectly_labeled(anchored_multigraph()).ok
    bad = is_perfectly_labeled(bare_parallel_pair())
    assert not bad.ok and bad.failed_condition == 2
    assert is_perfectly_labeled(LabeledMultigraph(2, [], [(1, 2, 5)])).ok


def test_perfect_labeling_condition_one_and_three():
    # edges 1-3 and 2-3 without the forced 1-2 edge
    g1 = LabeledMultigraph(3, [], [(1, 3, 2), (2, 3, 3)])
    r1 = is_perfectly_labeled(g1)
    assert not r1.ok and r1.failed_condition == 1
    # adding the quotient-labeled edge repairs it
    g2 = LabeledMultigraph(3, [], [(1, 3, 2), (2, 3, 3), (1, 2, Fraction(2, 3))])
    assert is_perfectly_labeled(g2).ok
    # 1-2 edge plus a zero edge at 2 forces one at 1
    g3 = LabeledMultigraph(2, [2], [(1, 2, 2)])
    r3 = is_perfectly_labeled(g3)
    assert not r3.ok and r3.failed_condition == 3


def test_verify_isf_chi_worked_example():
    report = verify_isf_chi(anchored_multigraph())
    assert report.passed
    assert report.boolean_facts["perfectly_labeled"]
    named = {c.name: c.equal for c in report.identity_checks}
    assert named["isf_vs_signed_characteristic"]
    assert named["chain_factorization_vs_chi"]


def test_verify_isf_chi_parallel_pair_fails_identity():
    G = bare_parallel_pair()
    L = intersection_lattice(build_arrangement(G))
    chi = characteristic_polynomial(L)
    # both sides computed independently: t^2+2t vs (+1) chi(-t) = t^2+2t+1
    assert multigraph_isf_polynomial(G).coeffs == (0, 2, 1)
    assert chi.compose_neg().coeffs == (1, 2, 1)
    report = verify_isf_chi(G)
    assert report.passed
    assert not report.boolean_facts["perfectly_labeled"]
    named = {c.name: c.equal for c in report.identity_checks}
    assert not named["isf_vs_signed_characteristic"]
    assert report.boolean_facts["supersolvable"]


def test_verify_isf_chi_simple_chordal_graph():
    rng = random.Random(67)
    seen = 0
    while seen < 6:
        G = graphcore.Graph(
            4,
            [
                (i, j)
                for i in range(1, 5)
                for j in range(i + 1, 5)
                if rng.random() < 0.6
            ],
        )
        peo = graphcore.find_peo(G)
        if peo is None:
            continue
        seen += 1
        natural = relabel_to_natural_peo(G, peo)
        M = graph_as_multigraph(natural)
        report = verify_isf_chi(M)
        assert report.passed
        assert report.boolean_facts["perfectly_labeled"]
        # the whole-space characteristic polynomial recovers the chromatic one
        L = intersection_lattice(build_arrangement(M))
        chi = characteristic_polynomial(L)
        assert chi.shifted(natural.n - L.rho) == graphcore.chromatic_polynomial(
            natural
        )


def test_prefix_multichain_blocks_match_edge_partition():
    G = anchored_multigraph()
    L = intersection_lattice(build_arrangement(G))
    chain = prefix_multichain(G, L)
    blocks = atom_blocks(L, chain)
    assert [len(b) for b in blocks] == [1, 2, 2]


def test_atom_blocks_are_the_atoms_below_each_step_and_not_the_last():
    # the definition by the order, on every pair of elements of each lattice
    for seed in range(12):
        L = intersection_lattice(build_arrangement(gen_multigraph(seed, 4)))
        for prev, cur in itertools.product(L.rank, repeat=2):
            expected = [a for a in L.atoms if a & ~cur == 0 and a & ~prev]
            assert atom_blocks(L, [prev, cur]) == [expected], (seed, prev, cur)


def test_lattice_nbc_and_transversals_worked_example():
    G = anchored_multigraph()
    L = intersection_lattice(build_arrangement(G))
    chain = prefix_multichain(G, L)
    blocks = atom_blocks(L, chain)
    order = block_compatible_atom_order(L, blocks)
    expected = {0: 1, 1: 5, 2: 8, 3: 4}
    transversals = atomic_transversal_sets(L, chain)
    assert Counter(map(len, transversals)) == expected
    nbc = lattice_nbc_sets(L, order)
    assert Counter(map(len, nbc)) == lattice_nbc(L) == expected
    assert set(transversals) <= set(nbc)


def test_lattice_nbc_sets_match_oracle_under_shuffled_atom_order():
    rng = random.Random(29)
    for G in seeded_multigraphs():
        L = intersection_lattice(build_arrangement(G))
        # one atom per edge, in edge order
        assert len(L.atoms) == len(G.edge_list())
        edge_of = {a: e for e, a in enumerate(L.atoms)}
        order = list(L.atoms)
        rng.shuffle(order)
        listing = lattice_nbc_sets(L, order)
        assert len(listing) == len(set(listing))
        expected = oracle_lattice_nbc_sets(G, [edge_of[a] for a in order])
        assert {frozenset(edge_of[a] for a in s) for s in listing} == expected, G


def test_lattice_nbc_refuses_more_atoms_than_budget(monkeypatch):
    # the walks refuse before they start, past the member budget on the
    # number of NBC sets, sum |mu(0, x)| by Rota's theorem: 1 + 5 + 8 + 4
    L = intersection_lattice(build_arrangement(anchored_multigraph()))
    monkeypatch.setattr(graphcore, "_MEMBER_BUDGET", 18)
    assert sum(lattice_nbc(L).values()) == len(lattice_nbc_sets(L)) == 18
    assert verify_isf_chi(anchored_multigraph()).passed
    monkeypatch.setattr(graphcore, "_MEMBER_BUDGET", 17)
    message = "^18 lattice NBC sets exceed the member budget 17$"
    with pytest.raises(BudgetExceededError, match=message):
        lattice_nbc(L)
    with pytest.raises(BudgetExceededError, match=message):
        lattice_nbc_sets(L)
    # verify_isf_chi's walk reads the same budget
    with pytest.raises(BudgetExceededError, match=message):
        verify_isf_chi(anchored_multigraph())


def test_lattice_nbc_rank_one():
    L = intersection_lattice(build_arrangement(LabeledMultigraph(1, [1], [])))
    assert lattice_nbc(L) == {0: 1, 1: 1}


def test_rota_formula_any_atom_order():
    rng = random.Random(71)
    for _ in range(10):
        G = random_multigraph(rng, rng.randint(1, 4))
        L = intersection_lattice(build_arrangement(G))
        chi = characteristic_polynomial(L)
        order = list(L.atoms)
        rng.shuffle(order)
        rota = IntPolynomial()
        for m, c in Counter(map(len, lattice_nbc_sets(L, order))).items():
            rota = rota + IntPolynomial.monomial(L.rho - m, (-1) ** m * c)
        assert rota == chi


def test_topology_report_worked_example():
    report = topology_report(anchored_multigraph())
    assert report.passed
    assert report.witnesses["regions"] == 18


def test_topology_report_empty_arrangement():
    report = topology_report(LabeledMultigraph(3))
    assert report.passed
    assert report.witnesses["regions"] == 1
    assert report.witnesses["betti_profile"] == {3: 1}


def test_region_count_requires_real():
    G = LabeledMultigraph(2, [], [(1, 2, GaussRational(0, 1))])
    with pytest.raises(InputError):
        region_count_deletion_restriction(build_arrangement(G))


def test_a_real_flag_over_a_non_real_normal_is_refused():
    o, i = GaussRational(1), GaussRational(0, 1)
    with pytest.raises(InputError, match="real_flag"):
        Arrangement(2, ((o, -i), (o, i)), True)
    assert Arrangement(2, ((o, -i), (o, i)), False).real_flag is False


def test_region_count_matches_the_unpruned_recursion_and_nbc():
    real = 0
    for G, L in lattice_corpus():
        if G.is_real():
            A = build_arrangement(G)
            regions = region_count_deletion_restriction(A)
            assert regions == oracle_region_count(A) == sum(lattice_nbc(L).values()), G
            real += 1
    assert real >= 80


def test_regions_against_deletion_restriction():
    # k distinct lines through 0 cut the plane into 2k regions, where the
    # recursion stopped only at two hyperplanes goes on down to them
    rng = random.Random(83)
    reached = 0
    for _ in range(300):
        G = random_multigraph(rng, rng.randint(2, 6), max_edges=9)
        A = build_arrangement(G)
        L = intersection_lattice(A)
        planar = []
        regions = region_count_deletion_restriction(A)
        assert regions == oracle_region_count(A, planar), G
        assert regions == sum(map(abs, L.mobius.values())) == sum(lattice_nbc(L).values()), G
        reached += bool(planar)
    assert reached >= 100


def test_signed_chromatic_examples():
    plus = LabeledMultigraph(2, [], [(1, 2, 1)])
    assert signed_chromatic_count(plus, 1) == 6
    zero_only = LabeledMultigraph(1, [1], [])
    assert signed_chromatic_count(zero_only, 0) == 0
    minus = LabeledMultigraph(2, [], [(1, 2, -1)])
    assert signed_chromatic_count(minus, 1) == 6
    with pytest.raises(InputError):
        signed_chromatic_count(LabeledMultigraph(2, [], [(1, 2, 2)]), 1)
    assert signed_chromatic_count(LabeledMultigraph(1500), 0) == 1


def test_signed_chromatic_matches_lattice():
    rng = random.Random(79)
    for _ in range(30):
        n = rng.randint(1, 4)
        signs = [1, -1]
        seen = set()
        labeled = []
        for _ in range(rng.randint(0, 5)):
            i = rng.randint(1, n - 1) if n > 1 else None
            if i is None:
                break
            j = rng.randint(i + 1, n)
            eps = rng.choice(signs)
            if (i, j, eps) in seen:
                continue
            seen.add((i, j, eps))
            labeled.append((i, j, eps))
        zero = [k for k in range(1, n + 1) if rng.random() < 0.3]
        G = LabeledMultigraph(n, zero, labeled)
        L = intersection_lattice(build_arrangement(G))
        chi = characteristic_polynomial(L)
        for s in range(4):
            t = 2 * s + 1
            count = signed_chromatic_count(G, s)
            assert count == oracle_signed_count(G, s) == t ** (n - L.rho) * chi(t)


def test_signed_count_budget(monkeypatch):
    with pytest.raises(BudgetExceededError,
                       match=r"= 3\^29 partial colorings exceed the member budget 1048576$"):
        signed_chromatic_count(LabeledMultigraph(30), 1)
    # the largest criterion-7 instances stay far below the default cap
    assert signed_chromatic_count(LabeledMultigraph(4), 3) == 7**4
    monkeypatch.setattr(graphcore, "_MEMBER_BUDGET", 8)
    with pytest.raises(BudgetExceededError,
                       match=r"= 3\^2 partial colorings exceed the member budget 8$"):
        signed_chromatic_count(LabeledMultigraph(3), 1)
    monkeypatch.setattr(graphcore, "_MEMBER_BUDGET", 9)
    assert signed_chromatic_count(LabeledMultigraph(3), 1) == 27


def test_supersolvable_budget():
    # no budget caps the descent: lattices of 825 and 778 elements are
    # decided, and a graphic arrangement is supersolvable exactly when its
    # graph is chordal; vertex 7 of the graph stands for the vertex 0
    pairs = list(itertools.combinations(range(1, 7), 2))
    for missing, zero, expected in (((), range(1, 6), True),
                                    (((1, 2), (3, 4)), range(1, 7), False)):
        edges = [e for e in pairs if e not in missing]
        L = intersection_lattice(build_arrangement(
            LabeledMultigraph(6, zero, [(i, j, 1) for i, j in edges])))
        assert L.size > 600
        assert is_supersolvable(L) is expected
        graph = graphcore.Graph(7, edges + [(k, 7) for k in zero])
        assert (graphcore.find_peo(graph) is not None) is expected


def test_supersolvable_examples():
    assert is_supersolvable(
        intersection_lattice(build_arrangement(bare_parallel_pair()))
    )
    assert is_supersolvable(
        intersection_lattice(build_arrangement(anchored_multigraph()))
    )
    C4 = graph_as_multigraph(cycle_graph(4))
    assert not is_supersolvable(intersection_lattice(build_arrangement(C4)))
    # oracle: for all-ones simple graphs supersolvability is chordality
    assert graphcore.find_peo(cycle_graph(4)) is None


def test_perfect_implies_supersolvable():
    rng = random.Random(83)
    for _ in range(20):
        G = random_multigraph(rng, rng.randint(1, 4))
        if is_perfectly_labeled(G).ok:
            L = intersection_lattice(build_arrangement(G))
            assert is_supersolvable(L)

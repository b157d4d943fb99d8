import copy
import itertools
import pickle
import random
import re
import time
from collections import Counter
from math import comb

import pytest

from isfkit.errors import BudgetExceededError, InputError, InternalCheckError
from isfkit.graphcore import Graph, find_peo, is_peo
from isfkit.polycore import poly_from_linear_factors
from isfkit.simplicial import (
    PureComplex,
    SpanningSubcomplex,
    cage_free_subcomplexes,
    cf_polynomial,
    enumerate_cage_free,
    full_subcomplex,
    has_leaf,
    is_shifted,
    is_simplicial_peo,
    phi_partition,
    structure_report,
    top_homology_rank,
    upper_link,
    upper_links,
    verify_product_formula,
)
from isfkit import chromatic, graphcore, simplicial
from isfkit.exactla import echelon

from helpers import (
    BIPYRAMID_NON_PEO_RELABELING,
    BIPYRAMID_PEO_RELABELING,
    bipyramid,
    bowtie_complex,
    fan_complex,
    isfkit_calls,
    oracle_is_shifted,
    oracle_top_homology_rank,
    oracle_upper_links,
    tetrahedron_boundary,
)


def random_complex(rng, n, p=0.5, d=2):
    facets = [
        t for t in itertools.combinations(range(1, n + 1), d + 1)
        if rng.random() < p
    ]
    return PureComplex(n, d, facets)


def shifted_closure(n, d, seed_facets):
    """Smallest shifted pure complex containing the given facets."""
    facets = {tuple(sorted(f)) for f in seed_facets}
    changed = True
    while changed:
        changed = False
        for f in list(facets):
            members = set(f)
            for k in f:
                for j in range(1, k):
                    if j in members:
                        continue
                    g = tuple(sorted(members - {k} | {j}))
                    if g not in facets:
                        facets.add(g)
                        changed = True
    return PureComplex(n, d, facets)


def test_complex_validation():
    with pytest.raises(InputError):
        PureComplex(4, 2, [(1, 2)])
    with pytest.raises(InputError):
        PureComplex(4, 2, [(1, 2, 5)])
    with pytest.raises(InputError):
        PureComplex(4, 0, [(1,)])
    with pytest.raises(InputError, match=r"^facet \[1, 2\] is repeated$"):
        PureComplex(3, 1, [(1, 2), (1, 2), (2, 3)])
    with pytest.raises(InputError, match=r"^facet \[1, 2, 3\] is repeated$"):
        PureComplex(4, 2, [(1, 2, 3), (2, 3, 4), (3, 1, 2)])


def test_json_roundtrip():
    delta = bipyramid()
    assert PureComplex.from_json(delta.to_json()) == delta


def test_phi_partition_fan():
    pp = phi_partition(fan_complex())
    assert pp[((1,), 3)] == {(1, 2, 3)}
    assert pp[((1,), 4)] == {(1, 2, 4), (1, 3, 4)}
    assert len(pp) == 2


def test_phi_partition_bipyramid():
    pp = phi_partition(bipyramid())
    assert set(pp) == {
        ((1,), 4), ((1,), 5), ((2,), 4), ((2,), 5), ((3,), 5)
    }
    assert len(pp) == 5
    # consistent with the degree-gap exponent N - n*s = 5 - 15 = -10
    assert len(pp) - 5 * 3 == -10


def test_phi_partition_single_facet():
    pp = phi_partition(PureComplex(3, 2, [(1, 2, 3)]))
    assert len(pp) == 1


def test_caged_ridges_fan():
    # the pair scan of `enumerate_cage_free` and the blocks holding two
    # facets: (1,2,4) and (1,3,4) cage the ridge (1,4)
    fan = fan_complex()
    pairs = itertools.combinations(sorted(fan.facets), 2)
    scanned = {r for f1, f2 in pairs if (r := simplicial._caged_ridge(f1, f2))}
    doubled = {sigma + (k,) for (sigma, k), block in phi_partition(fan).items()
               if len(block) > 1}
    assert scanned == doubled == {(1, 4)}


def test_cage_free_sub():
    fan = fan_complex()
    kept = {u.kept_facets for u in cage_free_subcomplexes(fan)}
    assert {frozenset({(1, 2, 3), (1, 2, 4)}), frozenset()} <= kept
    assert fan.facets not in kept
    with pytest.raises(InputError):
        SpanningSubcomplex(fan, [(2, 3, 4)])


@pytest.mark.parametrize(
    "facets",
    [[(1, 2, 3), (1, 2, 3)], [(1, 2, 3), (3, 2, 1)], [(1, 3, 4), [2, 1, 3], (3, 1, 2)]],
    ids=["same-order", "reversed", "reordered-list"],
)
def test_subcomplex_refuses_a_repeated_facet(facets):
    with pytest.raises(InputError, match=r"^facet \[1, 2, 3\] is repeated$"):
        SpanningSubcomplex(fan_complex(), facets)


def test_subcomplex_accepts_facets_in_any_vertex_order():
    fan = fan_complex()
    as_given = SpanningSubcomplex(fan, [(1, 2, 3), (1, 3, 4)])
    unsorted = SpanningSubcomplex(fan, [(3, 1, 2), [4, 3, 1]])
    assert unsorted.kept_facets == as_given.kept_facets == {(1, 2, 3), (1, 3, 4)}
    assert top_homology_rank(unsorted) == 0 and has_leaf(unsorted)


@pytest.mark.parametrize(
    "facets",
    [[(True, 2, 3)], [(1, 2.0, 3)], [([1], 2, 3)], [(1, 2, 3), (2, 3, 4)],
     [(3, 2, 4)], [(1, 2, 3, 4)], [(1, 2)]],
    ids=["bool", "float", "list", "non-facet", "unsorted-non-facet",
         "too-long", "too-short"],
)
def test_subcomplex_rejects_bad_facets_with_input_error(facets):
    with pytest.raises(InputError):
        SpanningSubcomplex(fan_complex(), facets)


def test_ridge_masks_are_not_part_of_the_complex():
    delta = bipyramid()
    fresh = bipyramid()
    assert top_homology_rank(full_subcomplex(delta)) == 1  # builds the masks
    assert delta == fresh and hash(delta) == hash(fresh)
    assert repr(delta) == repr(fresh) and delta.to_json() == fresh.to_json()
    for clone in (copy.copy(delta), pickle.loads(pickle.dumps(delta))):
        assert clone == delta and clone.to_json() == delta.to_json()
        assert top_homology_rank(full_subcomplex(clone)) == 1
        assert not has_leaf(full_subcomplex(clone))
    # the relabeled complex has other ridges, so it builds its own masks
    relabeled = delta.relabeled(BIPYRAMID_NON_PEO_RELABELING)
    for upsilon in [full_subcomplex(relabeled), *cage_free_subcomplexes(relabeled)]:
        assert top_homology_rank(upsilon) == oracle_top_homology_rank(upsilon)
        ridges = Counter(
            r for f in upsilon.kept_facets for r in itertools.combinations(f, 2)
        )
        assert has_leaf(upsilon) == (1 in ridges.values())


def test_cf_polynomial_fan():
    assert cf_polynomial(fan_complex()).coeffs == (2, 3, 1)
    weights = {f: f for f in fan_complex().facets}
    # (t + x_123)(t + x_124 + x_134), expanded
    assert cf_polynomial(fan_complex(), weights).terms == {
        ((), 2): 1,
        (((1, 2, 3),), 1): 1,
        (((1, 2, 4),), 1): 1,
        (((1, 3, 4),), 1): 1,
        (((1, 2, 3), (1, 2, 4)), 0): 1,
        (((1, 2, 3), (1, 3, 4)), 0): 1,
    }


def test_cf_polynomial_bipyramid_labelings():
    delta = bipyramid()
    assert cf_polynomial(delta) == poly_from_linear_factors([1, 1, 1, 1, 2])
    relabeled = delta.relabeled(BIPYRAMID_PEO_RELABELING)
    assert cf_polynomial(relabeled) == poly_from_linear_factors([1, 1, 2, 2])
    same_gf = delta.relabeled(BIPYRAMID_NON_PEO_RELABELING)
    assert cf_polynomial(same_gf) == poly_from_linear_factors([1, 1, 1, 1, 2])


def test_enumeration_matches_listing_and_pairwise_filter():
    rng = random.Random(17)
    for _ in range(15):
        delta = random_complex(rng, rng.randint(3, 6))
        counts = enumerate_cage_free(delta)
        listing = cage_free_subcomplexes(delta)
        assert Counter(len(u.kept_facets) for u in listing) == counts
        # oracle: every facet subset keeping at most one facet per block
        # (its d - 1 smallest vertices and its largest)
        facets = sorted(delta.facets)
        swept = Counter()
        for r in range(len(facets) + 1):
            for combo in itertools.combinations(facets, r):
                if len({(f[:-2], f[-1]) for f in combo}) == r:
                    swept[r] += 1
        assert dict(swept) == counts


def test_upper_links_bipyramid():
    links, effective = upper_links(bipyramid())
    assert sorted(links[(1,)].edges) == [(2, 4), (2, 5), (4, 5)]
    assert sorted(links[(3,)].edges) == [(4, 5)]
    assert effective == [(1,), (2,), (3,)]


def test_upper_link_of_unused_vertex_is_empty():
    delta = PureComplex(5, 2, [(1, 2, 3)])
    g = upper_link(delta, (5,))
    assert not g.edges
    _, effective = upper_links(delta)
    assert (5,) not in effective


def test_upper_links_match_the_facet_scan():
    rng = random.Random(71)
    empty_links = 0
    for d in (1, 2, 3):
        for _ in range(12):
            n = rng.randint(d + 1, 7)
            delta = random_complex(rng, n, rng.choice((0.2, 0.5, 0.8)), d=d)
            expected = oracle_upper_links(delta)
            links, effective = upper_links(delta)
            assert list(links) == delta.peaks()
            assert {s: g.edges for s, g in links.items()} == {
                s: g.edges for s, g in expected.items()}, delta
            assert all(g.n == n for g in links.values())
            assert effective == [s for s in sorted(expected) if expected[s].edges]
            for sigma, g in expected.items():
                assert upper_link(delta, sigma).edges == g.edges
                assert upper_link(delta, sigma[::-1]).edges == g.edges
            empty_links += sum(not g.edges for g in expected.values())
    assert empty_links > 0


_TRIANGLES = PureComplex(4, 2, [(1, 2, 3), (1, 2, 4), (2, 3, 4)])
_TETRAHEDRA = PureComplex(5, 3, [(1, 2, 3, 4), (1, 2, 3, 5), (1, 2, 4, 5)])
_PATH = PureComplex(3, 1, [(1, 2), (2, 3)])


@pytest.mark.parametrize(
    "delta, peak, message",
    [(_TRIANGLES, (1, 2), "peak [1, 2] must have 1 distinct vertices"),
     (_TRIANGLES, (), "peak [] must have 1 distinct vertices"),
     (_TRIANGLES, (1, 1), "peak [1, 1] must have 1 distinct vertices"),
     (_TRIANGLES, (9,), "peak [9] out of range for n=4"),
     (_TRIANGLES, (0,), "peak [0] out of range for n=4"),
     (_TETRAHEDRA, (1,), "peak [1] must have 2 distinct vertices"),
     (_TETRAHEDRA, (2, 2), "peak [2, 2] must have 2 distinct vertices"),
     (_TETRAHEDRA, (6, 1), "peak [1, 6] out of range for n=5"),
     (_PATH, (1,), "peak [1] must have 0 distinct vertices")],
    ids=["two-vertices", "empty", "repeated-vertex", "past-n", "zero",
         "d3-one-vertex", "d3-repeated-vertex", "d3-past-n", "d1-one-vertex"],
)
def test_upper_link_refuses_a_malformed_peak(delta, peak, message):
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        upper_link(delta, peak)


def test_product_formula_bipyramid():
    report = verify_product_formula(bipyramid())
    assert report.passed
    names = {c.name: c.equal for c in report.identity_checks}
    assert names["cf_times_t_gap_vs_isf_product"]


def test_product_formula_single_facet():
    delta = PureComplex(3, 2, [(1, 2, 3)])
    report = verify_product_formula(delta)
    assert report.passed
    assert cf_polynomial(delta) == poly_from_linear_factors([1])


def test_product_formula_random_complexes():
    rng = random.Random(23)
    for _ in range(12):
        delta = random_complex(rng, rng.randint(3, 6))
        assert verify_product_formula(delta).passed


def test_product_formula_partitions_the_facets_once(monkeypatch):
    calls = []

    def counted(delta):
        calls.append(delta)
        return phi_partition(delta)

    monkeypatch.setattr(simplicial, "phi_partition", counted)
    for delta in (bipyramid(), fan_complex(), PureComplex(3, 2, [(1, 2, 3)])):
        calls.clear()
        assert verify_product_formula(delta).passed
        assert calls == [delta]


def test_a_link_count_off_by_one_in_the_contraction_is_caught(monkeypatch):
    # every link of the bipyramid fits the source-set recursion, which then
    # checks the contraction χ alone; with the vertex budget at 0 the
    # triangle link of peak 1 does not, and chromatic_polynomial compares
    # the contraction with the colour classes
    contraction = chromatic._by_contraction
    monkeypatch.setattr(chromatic, "_by_contraction",
                        lambda G: [c + (i == 0) for i, c in enumerate(contraction(G))])
    with pytest.raises(InternalCheckError, match="^source-set recursion gives "):
        verify_product_formula(bipyramid())
    monkeypatch.setattr(graphcore, "_VERTEX_BUDGET", 0)
    with pytest.raises(InternalCheckError,
                       match="^contraction and colour-class chromatic polynomials differ"):
        verify_product_formula(bipyramid())


def test_link_counts_run_no_colour_classes_where_every_core_fits(monkeypatch):
    # each link of a complex on at most six vertices touches at most five,
    # so its core fits and its χ is the contraction's, checked by the
    # recursion; a core past the vertex budget brings the colour classes in
    rng = random.Random(79)
    corpus = [bipyramid(), fan_complex(), tetrahedron_boundary()]
    corpus += [random_complex(rng, rng.randint(3, 6)) for _ in range(8)]
    for delta in corpus:
        calls = isfkit_calls(lambda: verify_product_formula(delta))
        assert "isfkit.chromatic._class_counts" not in calls
        assert "isfkit.chromatic._by_contraction" in calls or not upper_links(delta)[1]
    monkeypatch.setattr(graphcore, "_VERTEX_BUDGET", 2)
    calls = isfkit_calls(lambda: verify_product_formula(bipyramid()))
    assert "isfkit.chromatic._class_counts" in calls


def test_simplicial_peo_bipyramid_labelings():
    delta = bipyramid()
    assert is_simplicial_peo(delta)
    assert is_simplicial_peo(delta, BIPYRAMID_PEO_RELABELING)
    assert not is_simplicial_peo(delta, BIPYRAMID_NON_PEO_RELABELING)


def test_simplicial_peo_bowtie_all_labelings():
    bowtie = bowtie_complex()
    for perm in itertools.permutations(range(1, 6)):
        assert is_simplicial_peo(bowtie, perm)


def test_simplicial_peo_equals_link_peo():
    rng = random.Random(31)
    for _ in range(20):
        delta = random_complex(rng, rng.randint(3, 6))
        expected = all(
            is_peo(g, range(1, delta.n + 1))
            for g in oracle_upper_links(delta).values()
        )
        assert is_simplicial_peo(delta) == expected


def test_cage_free_sweep_budget():
    # every two of these facets cage their common ridge (1, q + 2), so the
    # sweep finds only the singletons
    def star(q):
        return PureComplex(q + 2, 2, [(1, i, q + 2) for i in range(2, q + 2)])

    assert enumerate_cage_free(star(22)) == {0: 1, 1: 22}
    with pytest.raises(BudgetExceededError, match="^23 facets exceeds the sweep budget 22$"):
        enumerate_cage_free(star(23))


def test_cage_free_subcomplexes_have_trivial_top_homology_and_leaves():
    rng = random.Random(37)
    for _ in range(10):
        delta = random_complex(rng, rng.randint(3, 5))
        for upsilon in cage_free_subcomplexes(delta):
            assert top_homology_rank(upsilon) == 0
            if upsilon.kept_facets:
                assert has_leaf(upsilon)


def test_cage_free_subcomplexes_never_reach_the_elimination(monkeypatch):
    def refuse(rows):
        raise AssertionError("a cage-free subcomplex reached echelon")

    monkeypatch.setattr(simplicial, "echelon", refuse)
    rng = random.Random(61)
    for d in (1, 2, 3):
        for _ in range(6):
            delta = random_complex(rng, rng.randint(d + 1, 6), d=d)
            for upsilon in cage_free_subcomplexes(delta):
                assert top_homology_rank(upsilon) == 0


def test_built_subcomplexes_equal_the_publicly_constructed_ones():
    rng = random.Random(67)
    for d in (1, 2, 3):
        for _ in range(5):
            delta = random_complex(rng, rng.randint(d + 1, 6), d=d)
            for built in cage_free_subcomplexes(delta):
                public = SpanningSubcomplex(delta, sorted(built.kept_facets))
                assert public._masks is None and public._free is None  # first use
                for clone in (built, copy.copy(built),
                              pickle.loads(pickle.dumps(built))):
                    assert clone.kept_facets == public.kept_facets
                    assert top_homology_rank(clone) == top_homology_rank(public)
                    assert has_leaf(clone) == has_leaf(public)
                    assert sorted(clone._masks) == sorted(public._masks)
                    assert clone._free == public._free


def _ridges_in_one_kept_facet(upsilon):
    """The oracle of the free-ridge mask: the ridges a Counter over the kept
    facets' ridges meets once, as bits of the parent's sorted ridge index."""
    index = {r: i for i, r in enumerate(upsilon.parent.ridges())}
    met = Counter(r for f in upsilon.kept_facets
                  for r in itertools.combinations(f, upsilon.parent.d))
    return sum(1 << index[r] for r, count in met.items() if count == 1)


def _corpus(seed):
    rng = random.Random(seed)
    for d in (1, 2, 3):
        for _ in range(8):
            yield random_complex(rng, rng.randint(d + 1, 6), d=d)


def test_built_subcomplexes_carry_the_ridges_in_one_kept_facet():
    shared = 0  # subcomplexes with a ridge in two kept facets
    for delta in _corpus(71):
        for built in cage_free_subcomplexes(delta):
            free = _ridges_in_one_kept_facet(built)
            for clone in (built, copy.copy(built), pickle.loads(pickle.dumps(built))):
                assert clone._free == free
            public = SpanningSubcomplex(delta, built.kept_facets)
            assert public._free is None
            assert has_leaf(public) == bool(free) and public._free == free
            ridges = {r for f in built.kept_facets for r in itertools.combinations(f, delta.d)}
            shared += len(ridges) != free.bit_count()
    assert shared  # the `twice` half of the build is exercised


def test_carried_free_ridges_spare_the_scans(monkeypatch):
    # has_leaf scans no facet of a built subcomplex, and top_homology_rank
    # scans only a core left after its first round, read from the carried mask
    calls = []
    scan = simplicial._free_ridges
    monkeypatch.setattr(simplicial, "_free_ridges", lambda masks: calls.append(1) or scan(masks))
    cores = {False: 0, True: 0}
    for delta in _corpus(73):
        for built in cage_free_subcomplexes(delta):
            assert has_leaf(built) == bool(built.kept_facets)
            assert calls == []
            core = [m for m in built._masks if not m & built._free]
            assert top_homology_rank(built) == 0
            assert bool(calls) == bool(core)
            cores[bool(core)] += 1
            calls.clear()
    assert cores[False] and cores[True]


def test_cage_free_count_of_22_one_facet_blocks_is_quick():
    facets = [(a, a + 1, c) for c in range(3, 10) for a in range(1, c - 1)][:22]
    delta = PureComplex(9, 2, facets)
    assert len(phi_partition(delta)) == 22
    start = time.perf_counter()
    counts = enumerate_cage_free(delta)
    assert time.perf_counter() - start < 1
    assert counts == {k: comb(22, k) for k in range(23)}


def test_collapse_peels_a_fan_off_the_octahedron_in_rounds(monkeypatch):
    # five triangles with apex 7 over the octahedron path 1-3-5-2-4-6: only
    # the two end triangles start with a free ridge, so the collapse takes
    # three rounds before the octahedron is left
    octahedron = list(itertools.product((1, 2), (3, 4), (5, 6)))
    path = (1, 3, 5, 2, 4, 6)
    fan = [(a, b, 7) for a, b in zip(path, path[1:])]
    delta = PureComplex(7, 2, octahedron + fan)
    ridges = Counter(
        r for f in delta.facets for r in itertools.combinations(f, 2)
    )
    assert {
        f for f in delta.facets
        if any(ridges[r] == 1 for r in itertools.combinations(f, 2))
    } == {(1, 3, 7), (4, 6, 7)}
    cores = []
    monkeypatch.setattr(
        simplicial, "echelon", lambda rows: cores.append(rows) or echelon(rows)
    )
    assert top_homology_rank(full_subcomplex(delta)) == 1
    assert [len(rows[0]) for rows in cores] == [8]  # the octahedron's facets
    assert top_homology_rank(SpanningSubcomplex(delta, fan)) == 0
    assert len(cores) == 1


def test_top_homology_rank_matches_fraction_oracle():
    rng = random.Random(41)
    for _ in range(40):
        n = rng.randint(4, 7)
        d = rng.choice([2, 3])
        facets = [
            f for f in itertools.combinations(range(1, n + 1), d + 1)
            if rng.random() < 0.6
        ]
        upsilon = full_subcomplex(PureComplex(n, d, facets))
        assert top_homology_rank(upsilon) == oracle_top_homology_rank(upsilon), facets


def test_top_homology_rank_known_values():
    # one vertex from each antipodal pair {1,2}, {3,4}, {5,6}: a 2-sphere
    octahedron = PureComplex(6, 2, itertools.product((1, 2), (3, 4), (5, 6)))
    assert top_homology_rank(full_subcomplex(octahedron)) == 1
    two_spheres = PureComplex(
        6, 2,
        [*itertools.combinations((1, 2, 3, 4), 3), *itertools.combinations((1, 2, 5, 6), 3)],
    )
    assert top_homology_rank(full_subcomplex(two_spheres)) == 2
    assert top_homology_rank(full_subcomplex(PureComplex(5, 3, [(1, 2, 3, 4)]))) == 0
    # the 6-vertex real projective plane: every ridge lies in two facets, so
    # nothing collapses, yet its top homology over Q is zero
    rp2 = full_subcomplex(PureComplex(6, 2, [
        (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
        (2, 3, 5), (2, 4, 5), (2, 4, 6), (3, 4, 6), (3, 5, 6),
    ]))
    assert not has_leaf(rp2)
    assert oracle_top_homology_rank(rp2) == 0
    assert top_homology_rank(rp2) == 0


def test_top_homology_rank_of_facet_subsets_matches_fraction_oracle():
    # random facet subsets collapse partway, leaving cores with and without
    # homology; the oracle eliminates the whole boundary matrix
    rng = random.Random(59)
    nonzero = Counter()
    for trial in range(45):
        d = 1 + trial % 3
        n = rng.randint(d + 3, 7)
        delta = PureComplex(n, d, [
            f for f in itertools.combinations(range(1, n + 1), d + 1)
            if rng.random() < 0.6
        ])
        facets = sorted(delta.facets)
        for _ in range(8):
            keep = rng.uniform(0.5, 1.0)
            upsilon = SpanningSubcomplex(
                delta, [f for f in facets if rng.random() < keep]
            )
            rank = top_homology_rank(upsilon)
            assert rank == oracle_top_homology_rank(upsilon), upsilon
            ridges = Counter(
                r for f in upsilon.kept_facets
                for r in itertools.combinations(f, d)
            )
            assert has_leaf(upsilon) == any(c == 1 for c in ridges.values())
            nonzero[d] += rank > 0
    # of the 120 subsets in each dimension, 73 graphs, 60 2-complexes and
    # 42 3-complexes have homology
    assert nonzero[1] >= 70 and nonzero[2] >= 55 and nonzero[3] >= 40


def test_tetrahedron_boundary_structure():
    report = structure_report(full_subcomplex(tetrahedron_boundary()))
    assert report["top_homology_rank"] == 1
    assert not report["has_leaf"]


def test_bipyramid_lexmin_link_chordal():
    report = structure_report(full_subcomplex(bipyramid()))
    assert report["lex_min_peak"] == [1]
    assert report["lex_min_peak_link_chordal"]
    # oracle: the link of vertex 1 is the triangle {2,4,5} plus isolated
    # vertices, which is chordal
    link = Graph(5, [(2, 4), (2, 5), (4, 5)])
    assert find_peo(link) is not None


def test_peo_complexes_have_chordal_lexmin_link():
    rng = random.Random(43)
    seen = 0
    while seen < 10:
        delta = random_complex(rng, rng.randint(3, 6))
        if not delta.facets or not is_simplicial_peo(delta):
            continue
        seen += 1
        report = structure_report(full_subcomplex(delta))
        assert report["lex_min_peak_link_chordal"]


def test_shifted_detection():
    assert not is_shifted(bipyramid())
    shifted = shifted_closure(5, 2, [(2, 3, 5)])
    assert is_shifted(shifted)
    assert is_shifted(tetrahedron_boundary())


def _shifted_corpus(seed):
    """Complexes of dimension 1 to 3 on at most seven vertices, half of them
    shifted closures, some with a facet removed, and of each a few spanning
    subcomplexes: all facets, none, a random half, and the shifted closure
    of a random part, which a shifted parent holds."""
    rng = random.Random(seed)
    for _ in range(400):
        d = rng.randint(1, 3)
        n = rng.randint(d + 1, 7)
        if rng.random() < 0.5:
            seeds = [rng.sample(range(1, n + 1), d + 1) for _ in range(rng.randint(1, 3))]
            facets = set(shifted_closure(n, d, seeds).facets)
            if rng.random() < 0.3:
                facets.discard(rng.choice(sorted(facets)))
            delta = PureComplex(n, d, facets)
        else:
            delta = random_complex(rng, n, rng.choice((0.2, 0.5, 0.8)), d)
        yield delta
        facets = sorted(delta.facets)
        part = [f for f in facets if rng.random() < 0.5]
        closed = shifted_closure(n, d, rng.sample(facets, min(2, len(facets)))).facets
        for kept in (facets, (), part, closed & delta.facets):
            yield SpanningSubcomplex(delta, kept)


def test_shifted_test_on_generators_matches_the_face_oracle():
    outcomes = Counter()
    for obj in _shifted_corpus(83):
        assert is_shifted(obj) == oracle_is_shifted(obj), obj
        outcomes[type(obj).__name__, is_shifted(obj)] += 1
    assert sum(outcomes.values()) == 2000
    assert min(outcomes.values()) >= 150, outcomes


def test_shifted_test_of_one_facet_is_polynomial_in_the_dimension():
    # the face-level test lists 2**(d+1) faces; the generators are one facet
    # and its d + 1 ridges, or the facet's complex itself
    for d in (19, 40, 100):
        delta = PureComplex(d + 1, d, [range(1, d + 2)])
        start = time.perf_counter()
        assert is_shifted(delta) and is_shifted(full_subcomplex(delta))
        assert is_shifted(SpanningSubcomplex(delta, []))
        assert time.perf_counter() - start < 1
    # the ridges of a facet that skips vertex 1 are not shifted
    assert not is_shifted(SpanningSubcomplex(PureComplex(4, 2, [(2, 3, 4)]), []))


def test_shifted_complexes_are_peo():
    rng = random.Random(47)
    for _ in range(15):
        n = rng.randint(3, 6)
        seeds = [
            tuple(sorted(rng.sample(range(1, n + 1), 3)))
            for _ in range(rng.randint(1, 3))
        ]
        delta = shifted_closure(n, 2, seeds)
        assert is_shifted(delta)
        assert is_simplicial_peo(delta)


def test_dimension_one_complex_reduces_to_graphs():
    rng = random.Random(53)
    for _ in range(15):
        n = rng.randint(2, 7)
        edges = [
            (i, j)
            for i in range(1, n + 1)
            for j in range(i + 1, n + 1)
            if rng.random() < 0.5
        ]
        if not edges:
            continue
        G = Graph(n, edges)
        delta = PureComplex(n, 1, edges)
        pp = phi_partition(delta)
        # the cage-free generating function differs from the forest one by a
        # power of t (one factor per isolated-block vertex)
        assert cf_polynomial(delta).shifted(n - len(pp)) == graphcore.isf_polynomial(G)
        assert is_simplicial_peo(delta) == is_peo(G, range(1, n + 1))
        counts = enumerate_cage_free(delta)
        assert counts == graphcore.enumerate_isf(G)


def test_relabel_validation():
    with pytest.raises(InputError):
        bipyramid().relabeled([1, 2, 3])

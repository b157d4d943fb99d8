"""Acceptance suite: one test per criterion, each printing a PASS line.

Every exact value is checked bit-for-bit in exact arithmetic, and every
identity is evaluated along two independent computation routes.  Random
campaigns are fully seed-driven.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import itertools
import random
import time

from isfkit import arrangement, graphcore, patterns, simplicial
from isfkit.cli import gen_complex, gen_graph, gen_multigraph
from isfkit.graphcore import Graph, counts_to_polynomial
from isfkit.polycore import (
    IntPolynomial,
    poly_from_linear_factors,
    poly_integer_roots,
)

from helpers import (
    BIPYRAMID_PEO_RELABELING,
    anchored_multigraph,
    bare_parallel_pair,
    bipyramid,
    complete_bipartite,
    complete_graph,
    edges_are_acyclic,
    fan_complex,
    house_graph,
    paw_non_peo,
    paw_peo,
)


class Timer:
    def __init__(self, limit_seconds):
        self.limit = limit_seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        return False

    def check(self):
        assert self.elapsed < self.limit, (
            f"took {self.elapsed:.2f}s, limit {self.limit}s"
        )


def report_pass(name, timer):
    timer.check()
    print(f"{name}: PASS ({timer.elapsed:.2f}s)")


def test_criterion_1_isf_enumeration_and_factorization():
    with Timer(1.0) as t:
        G, H = paw_peo(), paw_non_peo()
        expected_g = IntPolynomial([0, 2, 5, 4, 1])
        expected_h = IntPolynomial([0, 0, 3, 4, 1])
        assert graphcore.isf_polynomial(G) == expected_g
        assert graphcore.isf_polynomial(H) == expected_h
        assert counts_to_polynomial(graphcore.enumerate_isf(G), 4) == expected_g
        assert counts_to_polynomial(graphcore.enumerate_isf(H), 4) == expected_h
    report_pass("criterion 1 (ISF of the two 4-vertex labelings)", t)


def test_criterion_2_chromatic_identity_and_peo():
    with Timer(1.0) as t:
        G, H = paw_peo(), paw_non_peo()
        expected = IntPolynomial([0, -2, 5, -4, 1])
        chrom_g = graphcore.chromatic_polynomial(G)  # dual-route by contract
        assert chrom_g == expected
        # make the two routes explicit as well
        from helpers import _lagrange_integer
        from isfkit.chromatic import _by_contraction

        pts = [(v, graphcore.count_proper_colorings(G, v)) for v in range(5)]
        assert IntPolynomial(_by_contraction(G)) == _lagrange_integer(pts)
        assert graphcore.is_peo(G, [1, 2, 3, 4])
        assert graphcore.isf_polynomial(G) == chrom_g.compose_neg()
        chrom_h = graphcore.chromatic_polynomial(H)
        assert not graphcore.is_peo(H, [1, 2, 3, 4])
        assert graphcore.isf_polynomial(H) != chrom_h.compose_neg()
    report_pass("criterion 2 (chromatic identity holds iff natural PEO)", t)


def test_criterion_3_cage_free_generating_functions():
    fan = fan_complex()
    with Timer(1.0) as t1:
        assert simplicial.cf_polynomial(fan) == IntPolynomial([2, 3, 1])
        weighted = simplicial.cf_polynomial(fan, weights={f: f for f in fan.facets})
        # (t + x_123)(t + x_124 + x_134), expanded
        assert weighted.terms == {
            ((), 2): 1,
            (((1, 2, 3),), 1): 1,
            (((1, 2, 4),), 1): 1,
            (((1, 3, 4),), 1): 1,
            (((1, 2, 3), (1, 2, 4)), 0): 1,
            (((1, 2, 3), (1, 3, 4)), 0): 1,
        }
    report_pass("criterion 3a (fan complex, plain and weighted)", t1)

    with Timer(1.0) as t2:
        delta = bipyramid()
        assert simplicial.cf_polynomial(delta) == poly_from_linear_factors(
            [1, 1, 1, 1, 2]
        )
        partition = simplicial.phi_partition(delta)
        _, effective = simplicial.upper_links(delta)
        assert len(partition) - delta.n * len(effective) == -10
        report = simplicial.verify_product_formula(delta)
        assert report.passed
    report_pass("criterion 3b (bipyramid with correction factor t^-10)", t2)

    with Timer(1.0) as t3:
        relabeled = bipyramid().relabeled(BIPYRAMID_PEO_RELABELING)
        assert simplicial.cf_polynomial(relabeled) == poly_from_linear_factors(
            [1, 1, 2, 2]
        )
    report_pass("criterion 3c (bipyramid under the swapped labeling)", t3)


def test_criterion_4_multigraph_lattice_and_identities():
    with Timer(5.0) as t:
        G = anchored_multigraph()
        L = arrangement.intersection_lattice(arrangement.build_arrangement(G))
        assert L.size == 13
        assert arrangement.characteristic_polynomial(L) == IntPolynomial(
            [-4, 8, -5, 1]
        )
        assert arrangement.multigraph_isf_polynomial(G) == IntPolynomial(
            [4, 8, 5, 1]
        )
        report = arrangement.verify_isf_chi(G)
        assert report.passed and report.boolean_facts["perfectly_labeled"]

        bad = bare_parallel_pair()
        report_bad = arrangement.verify_isf_chi(bad)
        assert report_bad.passed
        assert not report_bad.boolean_facts["perfectly_labeled"]
        named = {c.name: c.equal for c in report_bad.identity_checks}
        assert not named["isf_vs_signed_characteristic"]
        assert report_bad.boolean_facts["supersolvable"]
    report_pass("criterion 4 (multigraph lattice, chi, perfect labeling)", t)


def test_criterion_5_graph_property_campaign():
    with Timer(120.0) as t:
        rng = random.Random(20250809)
        for i in range(500):
            n = (i % 7) + 1
            G = gen_graph(seed=1000 + i, n=n)
            report = graphcore.verify_isf_nbc(G)
            assert report.passed, (G, report.to_json())
            base = graphcore.nbc_sets(G)
            edges = G.sorted_edges()
            for _ in range(5):
                shuffled = edges[:]
                rng.shuffle(shuffled)
                order = graphcore.EdgeOrder.from_sequence(G, shuffled)
                assert graphcore.nbc_sets(G, order=order) == base, G
    report_pass("criterion 5 (500-graph ISF/NBC/chromatic campaign)", t)


def test_criterion_6_complex_property_campaign():
    with Timer(120.0) as t:
        for i in range(200):
            n = 3 + (i % 4)
            delta = gen_complex(seed=2000 + i, n=n)
            report = simplicial.verify_product_formula(delta)
            assert report.passed, (delta, report.to_json())
            links, _ = simplicial.upper_links(delta)
            link_peo = all(
                graphcore.is_peo(g, range(1, delta.n + 1)) for g in links.values()
            )
            assert simplicial.is_simplicial_peo(delta) == link_peo, delta
            for upsilon in simplicial.cage_free_subcomplexes(delta):
                assert simplicial.top_homology_rank(upsilon) == 0, upsilon
                if upsilon.kept_facets:
                    assert simplicial.has_leaf(upsilon), upsilon
    report_pass("criterion 6 (200-complex cage-free campaign)", t)


def test_criterion_7_multigraph_property_campaign():
    with Timer(300.0) as t:
        for i in range(100):
            n = 1 + (i % 4)
            G = gen_multigraph(seed=3000 + i, n=n, max_edges=7)
            report = arrangement.verify_isf_chi(G)
            assert report.passed, (G, report.to_json())
            topo = arrangement.topology_report(G)
            assert topo.passed, (G, topo.to_json())

        # signed corpus: labels restricted to +1/-1
        rng = random.Random(77)
        for _ in range(30):
            n = rng.randint(1, 4)
            pairs = list(itertools.combinations(range(1, n + 1), 2))
            labeled = []
            for (a, b) in pairs:
                for eps in (1, -1):
                    if rng.random() < 0.3:
                        labeled.append((a, b, eps))
            zero = [k for k in range(1, n + 1) if rng.random() < 0.3]
            S = arrangement.LabeledMultigraph(n, zero, labeled)
            L = arrangement.intersection_lattice(arrangement.build_arrangement(S))
            chi = arrangement.characteristic_polynomial(L)
            for s in range(4):
                v = 2 * s + 1
                assert (
                    arrangement.signed_chromatic_count(S, s)
                    == v ** (n - L.rho) * chi(v)
                ), S
    report_pass("criterion 7 (100-multigraph arrangement campaign)", t)


def _canonical_class(n, edges):
    best = None
    for perm in itertools.permutations(range(1, n + 1)):
        mapped = tuple(
            sorted(
                (min(perm[i - 1], perm[j - 1]), max(perm[i - 1], perm[j - 1]))
                for i, j in edges
            )
        )
        if best is None or mapped < best:
            best = mapped
    return best


def test_criterion_8_pattern_suite():
    with Timer(300.0) as t:
        # Fibonacci counts
        assert [patterns.tight_permutation_count(k) for k in range(1, 7)] == [
            1, 2, 3, 5, 8, 13,
        ]

        # triangle: tight forests overshoot the NBC-derived polynomial
        K3 = complete_graph(3)
        assert patterns.tf_polynomial(K3) == IntPolynomial([0, 3, 3, 1])
        chrom = graphcore.chromatic_polynomial(K3)
        assert (-1) ** 3 * chrom.compose_neg() == IntPolynomial([0, 2, 3, 1])

        # the house graph has exactly one candidate path and it is satisfied
        house = house_graph()
        assert patterns.candidate_paths(house) == [(1, 5, 4, 3)]
        assert patterns.is_qpo(house).ok

        # no labeling of K_{4,4} is a QPO: all 70 side assignments
        for xs in itertools.combinations(range(1, 9), 4):
            ys = [v for v in range(1, 9) if v not in xs]
            G = complete_bipartite(xs, ys)
            assert not patterns.is_qpo(G).ok, xs

        # the two structural violation shapes, checked explicitly
        g_same = complete_bipartite([5, 6, 7, 8], [1, 2, 3, 4])
        path_same = (1, 7, 2, 8, 3)
        assert path_same in patterns.candidate_paths(g_same)
        assert not patterns.qpo_condition_holds(g_same, path_same)
        g_split = complete_bipartite([4, 5, 6, 7], [1, 2, 3, 8])
        path_split = (1, 6, 2, 7, 3)
        assert path_split in patterns.candidate_paths(g_split)
        assert not patterns.qpo_condition_holds(g_split, path_split)

        # three-way equivalence on 200 random triangle-free graphs
        rng = random.Random(424242)
        checked = 0
        while checked < 200:
            n = rng.randint(2, 7)
            if rng.random() < 0.5:
                side = {v for v in range(1, n + 1) if rng.random() < 0.5}
                edges = [
                    (i, j)
                    for i in range(1, n + 1)
                    for j in range(i + 1, n + 1)
                    if ((i in side) != (j in side)) and rng.random() < 0.5
                ]
                G = Graph(n, edges)
            else:
                G = gen_graph(seed=rng.randrange(10**9), n=n, p=0.3)
                if graphcore.has_triangle(G):
                    continue
            checked += 1
            report = patterns.verify_tf_theorems(G)
            assert report.passed, (G, report.to_json())

        # integer roots achievable by some ordering iff the graph is a forest,
        # for every isomorphism class with at most 5 vertices
        for n in range(1, 6):
            pairs = list(itertools.combinations(range(1, n + 1), 2))
            per_class: dict = {}
            for bits in range(1 << len(pairs)):
                edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
                G = Graph(n, edges)
                has_roots = (
                    poly_integer_roots(patterns.tf_polynomial(G)) is not None
                )
                key = _canonical_class(n, edges)
                exists, forest = per_class.get(
                    key, (False, edges_are_acyclic(edges))
                )
                per_class[key] = (exists or has_roots, forest)
            for key, (exists, forest) in per_class.items():
                assert exists == forest, (n, key)
    report_pass("criterion 8 (tight forests, QPO, integer roots)", t)

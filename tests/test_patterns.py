import functools
import itertools
import random
import time
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from isfkit.errors import BudgetExceededError, InputError, InternalCheckError
from isfkit.graphcore import Graph, counts_to_polynomial
from isfkit.polycore import IntPolynomial, poly_from_linear_factors, poly_integer_roots
from isfkit.patterns import (
    Pattern,
    RootedLabeledForest,
    TIGHT_PATTERNS,
    candidate_paths,
    contains_pattern,
    count_pattern_avoiding_permutations,
    is_qpo,
    is_tight_forest,
    is_tight_sequence,
    long_cycle_chord_check,
    qpo_condition_holds,
    standardize,
    tf_integer_roots_classification,
    tf_polynomial,
    tf_set_list,
    tight_permutation_count,
    verify_tf_theorems,
)
from isfkit import graphcore, patterns
from isfkit.walks import count_by_size, unpack_counts

from helpers import (
    all_edge_subsets,
    all_root_paths,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    edges_are_acyclic,
    forest_from_edge_set,
    house_graph,
    non_increasing_tree,
    oracle_increasing,
    oracle_long_cycles_have_chords,
    oracle_tf_orderings,
    oracle_tf_roots_report,
    oracle_tf_sets,
)


def random_graph(rng, n, p=0.5):
    return Graph(
        n,
        [
            (i, j)
            for i in range(1, n + 1)
            for j in range(i + 1, n + 1)
            if rng.random() < p
        ],
    )


# -- patterns and sequences ----------------------------------------------------


def test_pattern_validation():
    with pytest.raises(InputError):
        Pattern((1, 3))
    assert len(Pattern((2, 1, 3))) == 3


def test_contains_pattern_examples():
    assert contains_pattern((6, 8, 9, 2), (2, 3, 1))
    assert not contains_pattern((6, 8, 9, 2), (3, 2, 1))
    assert not contains_pattern((5, 1), (1, 2, 3))
    with pytest.raises(InputError):
        contains_pattern((1, 1, 2), (2, 1))


def test_avoids_set():
    assert not any(contains_pattern((1, 3, 2), p) for p in TIGHT_PATTERNS)
    assert any(contains_pattern((2, 3, 1), p) for p in TIGHT_PATTERNS)


def test_standardize():
    assert standardize((6, 8, 9, 2)) == (2, 3, 4, 1)
    assert standardize((5,)) == (1,)


def test_tight_sequence_criteria_agree_on_all_short_permutations():
    for k in range(1, 8):
        for perm in itertools.permutations(range(1, k + 1)):
            expected = not any(
                contains_pattern(perm, p) for p in TIGHT_PATTERNS
            )
            assert is_tight_sequence(perm) == expected
    # length 8 by seeded sample; is_tight_sequence cross-checks internally
    rng = random.Random(57)
    base = list(range(1, 9))
    for _ in range(2000):
        rng.shuffle(base)
        is_tight_sequence(tuple(base))


@settings(deadline=None, max_examples=60)
@given(st.lists(st.integers(min_value=1, max_value=60), max_size=8, unique=True))
def test_tight_sequence_matches_standardization(seq):
    assert is_tight_sequence(seq) == is_tight_sequence(standardize(seq))


# -- rooted forests --------------------------------------------------------------


def test_forest_validation():
    with pytest.raises(InputError):
        RootedLabeledForest({2: 3, 3: 2})
    with pytest.raises(InputError):
        # component {2,3} rooted at 3 instead of its minimum
        RootedLabeledForest({3: None, 2: 3, 1: None})
    f = RootedLabeledForest({1: None, 2: 1, 3: 1})
    assert f.roots() == [1]


def test_forest_json_roundtrip():
    f = forest_from_edge_set([(1, 3), (2, 3)])
    back = RootedLabeledForest.from_json(f.to_json())
    assert back.parents == f.parents


def test_three_vertex_path_is_tight():
    assert is_tight_forest(forest_from_edge_set([(1, 3), (2, 3)]))


def test_non_increasing_tree_is_tight_but_not_increasing():
    T2 = non_increasing_tree()
    forest = forest_from_edge_set(T2.edges)
    paths = sorted(forest.root_to_leaf_paths())
    assert paths == [(2, 3, 5), (2, 3, 9), (2, 6), (2, 7, 4), (2, 7, 8)]
    assert is_tight_forest(forest)
    assert any(contains_pattern(p, (2, 1)) for p in paths)


def test_small_trees_always_tight():
    rng = random.Random(3)
    for _ in range(20):
        labels = rng.sample(range(1, 30), 3)
        a, b, c = labels
        forest = forest_from_edge_set(
            [(min(a, b), max(a, b)), (min(b, c), max(b, c))]
        )
        assert is_tight_forest(forest)


def test_root_paths_are_prefixes_of_leaf_paths():
    rng = random.Random(9)
    for _ in range(20):
        G = random_graph(rng, rng.randint(2, 7))
        for subset in list(all_edge_subsets(G))[:50]:
            if not edges_are_acyclic(subset):
                continue
            forest = forest_from_edge_set(subset, range(1, G.n + 1))
            by_leaf = is_tight_forest(forest)
            by_all = all(
                is_tight_sequence(p) for p in all_root_paths(forest)
            )
            assert by_leaf == by_all


def test_subforest_closure():
    rng = random.Random(15)
    for _ in range(10):
        G = random_graph(rng, rng.randint(2, 6))
        for tight in tf_set_list(G):
            if not tight:
                continue
            drop = rng.choice(sorted(tight))
            sub = forest_from_edge_set(tight - {drop}, range(1, G.n + 1))
            assert is_tight_forest(sub)


def test_increasing_iff_avoids_21():
    rng = random.Random(21)
    for _ in range(15):
        G = random_graph(rng, rng.randint(2, 6))
        for subset in all_edge_subsets(G):
            if not edges_are_acyclic(subset):
                continue
            forest = forest_from_edge_set(subset, range(1, G.n + 1))
            avoids_21 = all(
                not contains_pattern(p, (2, 1))
                for p in forest.root_to_leaf_paths()
            )
            assert avoids_21 == oracle_increasing(subset)


# -- tight spanning forests -------------------------------------------------------


def test_tf_listing_matches_subset_sweep():
    rng = random.Random(27)
    for _ in range(15):
        G = random_graph(rng, rng.randint(1, 6))
        swept = {
            s
            for s in all_edge_subsets(G)
            if edges_are_acyclic(s)
            and is_tight_forest(forest_from_edge_set(s, range(1, G.n + 1)))
        }
        assert set(tf_set_list(G)) == swept


def test_tf_sets_match_bad_triple_oracle_under_relabelings():
    rng = random.Random(63)
    graphs = [complete_graph(7)]
    for _ in range(40):
        G = random_graph(rng, rng.randint(1, 7), p=rng.choice([0.3, 0.5, 0.8]))
        perm = list(range(1, G.n + 1))
        rng.shuffle(perm)
        graphs += [G, G.relabeled(perm)]
    for G in graphs:
        expected = oracle_tf_sets(G)
        listed = tf_set_list(G)
        assert len(listed) == len(expected) and set(listed) == expected
        coeffs = [0] * (G.n + 1)
        for s in expected:
            coeffs[G.n - len(s)] += 1
        assert tf_polynomial(G).coeffs == tuple(coeffs)


def test_tight_forest_matches_pattern_scan_of_every_root_path():
    rng = random.Random(69)
    outcomes = set()
    for _ in range(150):
        labels = rng.sample(range(1, 40), rng.randint(1, 10))
        edges = []
        for k, v in enumerate(labels[1:], start=1):
            if rng.random() < 0.85:
                # attach to a recent vertex half the time, for long paths
                u = labels[rng.randrange(k // 2 if rng.random() < 0.5 else 0, k)]
                edges.append((min(u, v), max(u, v)))
        forest = forest_from_edge_set(edges, labels)
        expected = not any(
            contains_pattern(path, pattern)
            for path in all_root_paths(forest)
            for pattern in TIGHT_PATTERNS
        )
        assert is_tight_forest(forest) == expected
        outcomes.add(expected)
    assert outcomes == {True, False}


def test_tf_polynomial_triangle():
    assert tf_polynomial(complete_graph(3)).coeffs == (0, 3, 3, 1)


def test_tf_polynomial_edgeless():
    assert tf_polynomial(Graph(2)) == IntPolynomial.monomial(2)


def test_tf_polynomial_increasing_forest():
    rng = random.Random(33)
    for _ in range(10):
        n = rng.randint(2, 7)
        edges = []
        for k in range(2, n + 1):
            if rng.random() < 0.7:
                edges.append((rng.randint(1, k - 1), k))
        G = Graph(n, edges)
        q = len(G.edges)
        assert tf_polynomial(G) == poly_from_linear_factors([1] * q).shifted(n - q)


def test_tf_polynomial_of_a_disconnected_graph_is_the_product_over_components():
    # tightness reads only the relative order of labels inside a tree, so
    # each component counts as itself numbered by the rank of its labels
    rng = random.Random(1907)
    for _ in range(60):
        n = rng.randint(2, 7)
        labels = rng.sample(range(1, n + 1), n)
        cuts = sorted(rng.sample(range(1, n), rng.randint(1, min(2, n - 1))))
        blocks = [sorted(labels[a:b]) for a, b in zip([0, *cuts], [*cuts, n])]
        edges = [e for block in blocks for e in itertools.combinations(block, 2)
                 if rng.random() < 0.6]
        product = IntPolynomial.one()
        for block in blocks:
            rank = {v: r for r, v in enumerate(block, start=1)}
            product = product * tf_polynomial(Graph(
                len(block), [(rank[i], rank[j]) for i, j in edges if i in rank]))
        assert tf_polynomial(Graph(n, edges)) == product, (n, edges)


def _counts(sets, n):
    coeffs = [0] * (n + 1)
    for s in sets:
        coeffs[n - len(s)] += 1
    return IntPolynomial(coeffs)


def _transfer_corpus():
    rng = random.Random(1105)
    graphs = [Graph(n) for n in range(10)] + [complete_graph(k) for k in range(1, 8)]
    for n in range(10):
        for p in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9):
            graphs += [random_graph(rng, n, p) for _ in range(2)]
    for _ in range(20):
        a = rng.randint(1, 5)
        b = rng.randint(1, 9 - a)
        left, right = random_graph(rng, a, 0.7), random_graph(rng, b, 0.7)
        graphs.append(Graph(a + b, [*left.edges, *((i + a, j + a) for i, j in right.edges)]))
    for n in range(2, 10):
        labels = rng.sample(range(1, n + 1), n)
        graphs.append(Graph(n, [tuple(sorted(e)) for e in zip(labels, labels[1:])]))
    return graphs


def test_tf_transfer_matches_listed_and_oracle_forests():
    compared = 0
    for G in _transfer_corpus():
        if len(G.edges) > 20:
            continue
        poly = tf_polynomial(G)
        assert poly == _counts(tf_set_list(G), G.n), G
        if len(G.edges) <= 14:
            assert poly == _counts(oracle_tf_sets(G), G.n), G
            compared += 1
    assert compared >= 190


def test_tf_polynomial_of_a_26_vertex_increasing_path():
    path = Graph(26, [(k, k + 1) for k in range(1, 26)])
    assert tf_polynomial(path) == poly_from_linear_factors([1] * 25).shifted(1)


def test_tf_polynomial_of_a_star_with_its_centre_last():
    """Every leaf is still alone when the centre 25 arrives, and leaves the
    frontier with it: its 2**24 leaf subsets are counted, not listed."""
    star = Graph(25, [(k, 25) for k in range(1, 25)])
    start = time.perf_counter()
    assert tf_polynomial(star) == poly_from_linear_factors([1] * 24).shifted(1)
    assert time.perf_counter() - start < 2


# -- quasi-perfect orderings -------------------------------------------------------


def test_house_graph_single_candidate_path():
    house = house_graph()
    assert candidate_paths(house) == [(1, 5, 4, 3)]
    assert qpo_condition_holds(house, (1, 5, 4, 3))
    assert is_qpo(house).ok


def test_km2_labeling_is_qpo():
    m = 4
    G = complete_bipartite([1, m + 2], range(2, m + 2))
    assert is_qpo(G).ok


def test_k44_is_never_qpo_small_sample():
    G = complete_bipartite([1, 2, 3, 4], [5, 6, 7, 8])
    result = is_qpo(G)
    assert not result.ok
    assert result.witness is not None
    assert not qpo_condition_holds(G, result.witness)


def test_candidate_path_budget(monkeypatch):
    assert candidate_paths(Graph(12)) == []
    with pytest.raises(BudgetExceededError, match="^n=13 exceeds the candidate-path cap 12$"):
        candidate_paths(Graph(13))
    monkeypatch.setattr(patterns, "_PATH_VERTEX_BUDGET", 4)
    assert is_qpo(cycle_graph(4)).ok
    with pytest.raises(BudgetExceededError, match="^n=5 exceeds the candidate-path cap 4$"):
        is_qpo(cycle_graph(5))


def test_long_cycle_chord_check():
    assert not long_cycle_chord_check(cycle_graph(5))
    assert long_cycle_chord_check(house_graph())
    rng = random.Random(39)
    seen = 0
    while seen < 8:
        G = random_graph(rng, rng.randint(2, 6))
        if graphcore.find_peo(G) is None:
            continue
        seen += 1
        assert long_cycle_chord_check(G)


def test_long_hole_search_matches_cycle_listing():
    rng = random.Random(57)
    holes = 0
    for _ in range(1200):
        G = random_graph(rng, rng.randint(5, 8), p=rng.uniform(0.25, 0.5))
        expected = oracle_long_cycles_have_chords(G)
        assert long_cycle_chord_check(G) == expected, G
        holes += not expected
    assert holes > 100


def test_long_hole_search_shapes():
    # no induced path on four vertices at all; the listing exceeds its
    # 10**6-cycle cap here
    assert long_cycle_chord_check(complete_graph(12))
    start = time.perf_counter()
    assert not long_cycle_chord_check(cycle_graph(200))
    assert time.perf_counter() - start < 1
    square_with_tail = Graph(7, cycle_graph(4).edges | {(4, 5), (5, 6), (6, 7)})
    assert long_cycle_chord_check(square_with_tail)


def test_qpo_graphs_have_chorded_long_cycles():
    rng = random.Random(45)
    for _ in range(25):
        G = random_graph(rng, rng.randint(2, 7), p=0.4)
        if is_qpo(G).ok:
            assert long_cycle_chord_check(G)
            if not graphcore.has_triangle(G):
                assert graphcore.is_bipartite(G)


# -- the theorem suite --------------------------------------------------------------


def test_verify_triangle_case_k3():
    report = verify_tf_theorems(complete_graph(3))
    assert report.passed
    assert report.boolean_facts["has_triangle"]
    assert report.boolean_facts["tf_2_strictly_contains_nbc_2"]
    named = {c.name for c in report.identity_checks}
    assert "tf_vs_signed_chromatic" in named
    tf = tf_polynomial(complete_graph(3))
    chrom = graphcore.chromatic_polynomial(complete_graph(3))
    assert tf.coeffs == (0, 3, 3, 1)
    assert ((-1) ** 3 * chrom.compose_neg()).coeffs == (0, 2, 3, 1)


def test_verify_triangle_case_house():
    report = verify_tf_theorems(house_graph())
    assert report.passed
    assert report.boolean_facts["has_triangle"]
    assert report.witnesses["tf_size_2_count"] > report.witnesses["nbc_size_2_count"]


@pytest.mark.parametrize(
    "G, circuit, path",
    [
        (complete_graph(3), [[1, 3], [2, 3]], None),
        (complete_graph(4), [[1, 3], [2, 3]], None),
        (Graph(5, [(1, 4), (2, 4), (1, 2), (3, 5), (4, 5), (3, 4)]),
         [[1, 4], [2, 4]], [3, 5, 4, 1]),
    ],
    ids=["K3", "K4", "two-triangles"],
)
def test_verify_witnesses_name_edges_not_walk_positions(G, circuit, path):
    # the walks' masks are over the reversed edge order; the witness must
    # still be the lexicographically first tight broken circuit, as edges
    witnesses = verify_tf_theorems(G).to_json()["witnesses"]
    assert witnesses["tight_broken_circuit"] == circuit
    assert witnesses.get("qpo_violation_path") == path


def test_verify_triangle_free_four_cycle():
    report = verify_tf_theorems(cycle_graph(4))
    assert report.passed
    assert report.boolean_facts["tf_subset_of_nbc"]
    assert report.boolean_facts["three_way_equivalence"]


def test_verify_catches_transfer_counts_that_differ_from_the_walk(monkeypatch):
    transfer = graphcore.nbc_sets

    def one_set_too_many(G, order=None):
        counts = transfer(G, order)
        counts[0] += 1
        return counts

    monkeypatch.setattr(graphcore, "nbc_sets", one_set_too_many)
    with pytest.raises(InternalCheckError, match="NBC counts"):
        verify_tf_theorems(cycle_graph(4))


def test_verify_triangle_free_random():
    rng = random.Random(51)
    checked = 0
    while checked < 20:
        G = random_graph(rng, rng.randint(2, 6), p=0.35)
        if graphcore.has_triangle(G):
            continue
        checked += 1
        assert verify_tf_theorems(G).passed


# -- integer-roots classification ----------------------------------------------------


def test_roots_classification_path():
    path4 = Graph(4, [(1, 2), (2, 3), (3, 4)])
    report = tf_integer_roots_classification(path4)
    assert report.passed
    assert report.boolean_facts["is_forest"]
    assert report.boolean_facts["integer_root_ordering_exists"]
    assert report.witnesses["roots"] == [0, -1, -1, -1]


def test_roots_classification_triangle():
    report = tf_integer_roots_classification(complete_graph(3))
    assert report.passed
    assert not report.boolean_facts["is_forest"]
    assert not report.boolean_facts["integer_root_ordering_exists"]
    assert poly_integer_roots(tf_polynomial(complete_graph(3))) is None


def test_roots_classification_edgeless():
    report = tf_integer_roots_classification(Graph(4))
    assert report.passed
    assert report.boolean_facts["is_forest"]
    assert report.witnesses["roots"] == [0, 0, 0, 0]


def test_roots_classification_cap():
    with pytest.raises(BudgetExceededError, match="^n=7 exceeds the ordering-sweep cap 6$"):
        tf_integer_roots_classification(Graph(7))


def _roots_table():
    """The integer roots of each labeled graph, computed once: they depend
    on the labeled graph alone, not on the graph it was relabeled from."""
    return functools.cache(lambda H: poly_integer_roots(tf_polynomial(H)))


def test_roots_sweep_matches_the_unskipped_sweep_on_every_small_graph():
    # is_forest, read from the sweep's components as |E| = n - #components,
    # against the union-find of `edges_are_acyclic`
    roots_of = _roots_table()
    forests = Counter()
    for n in range(6):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for chosen in itertools.product((False, True), repeat=len(pairs)):
            G = Graph(n, itertools.compress(pairs, chosen))
            report = tf_integer_roots_classification(G).to_json()
            forest = report["boolean_facts"]["is_forest"]
            assert forest == edges_are_acyclic(G.edges), G
            assert report == oracle_tf_roots_report(G, roots_of), G
            forests[forest] += 1
    # the labeled forests on 0..5 vertices: 1 + 1 + 2 + 7 + 38 + 291
    assert forests == {True: 340, False: 760}


def test_roots_sweep_matches_the_unskipped_sweep_on_six_vertices():
    rng = random.Random(1106)
    roots_of = _roots_table()
    found = set()
    for _ in range(50):
        G = random_graph(rng, 6, rng.choice([0.2, 0.3, 0.5]))
        report = tf_integer_roots_classification(G).to_json()
        assert report == oracle_tf_roots_report(G, roots_of), G
        found.add(report["boolean_facts"]["is_forest"])
    assert found == {True, False}


# in all but the two triangles the first component is a tree, and in K3+3K1
# and C4+K2 the last one holds the cycle: a sweep that stopped at the first
# component with a witness, or skipped the last one, would sweep all of G
_DISCONNECTED_NON_FORESTS = {
    "K3+3K1": Graph(6, [(4, 5), (4, 6), (5, 6)]),
    "two-triangles": Graph(6, [(1, 3), (1, 5), (3, 5), (2, 4), (2, 6), (4, 6)]),
    "C4+K2": Graph(6, [(1, 4), (2, 3), (3, 6), (5, 6), (2, 5)]),
    "K4+2K1": Graph(6, [(2, 3), (2, 5), (2, 6), (3, 5), (3, 6), (5, 6)]),
}


@pytest.mark.parametrize("name", sorted(_DISCONNECTED_NON_FORESTS))
def test_roots_sweep_of_a_disconnected_non_forest_sweeps_components_only(
    name, monkeypatch
):
    G = _DISCONNECTED_NON_FORESTS[name]
    steps = 0

    def counted(step):
        def call(*args):
            nonlocal steps
            steps += 1
            return step(*args)
        return call

    # a close adds the last vertex, so it counts as a step
    monkeypatch.setattr(patterns, "_tf_step", counted(patterns._tf_step))
    monkeypatch.setattr(patterns, "_tf_close", counted(patterns._tf_close))
    report = tf_integer_roots_classification(G).to_json()
    split, steps = steps, 0
    for _ in patterns._tf_orderings(G):
        pass
    assert split < steps
    if name == "K3+3K1":
        # one labeled graph, the triangle, one step per vertex; the
        # isolated vertices lie outside the 2-core and are not swept
        assert split == 3
    assert report == oracle_tf_roots_report(G, _roots_table())
    assert not report["boolean_facts"]["integer_root_ordering_exists"]


def _every_small_graph(top):
    for n in range(top + 1):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for chosen in itertools.product((False, True), repeat=len(pairs)):
            yield Graph(n, itertools.compress(pairs, chosen))


def test_integer_roots_exactly_when_every_edge_set_is_a_tight_forest():
    # the lemma behind skipping G once a core has no witness: a labeling of
    # m edges has integer roots exactly when its packed counts are those of
    # C(m, k) tight forests of k edges for every k, that is (1 + 2**w)**m
    start = time.perf_counter()
    roots_of = functools.cache(lambda n, w, packed: poly_integer_roots(
        counts_to_polynomial(unpack_counts(packed, w), n)))
    labelings = Counter()
    for G in _every_small_graph(5):
        m, w = len(G.edges), len(G.edges) + 1
        for perm, packed in patterns._tf_orderings(G):
            all_tight = packed == (1 + (1 << w)) ** m
            assert (roots_of(G.n, w, packed) is not None) == all_tight, (G, perm)
            labelings[all_tight] += 1
    assert labelings == {True: 9728, False: 38348}
    assert time.perf_counter() - start < 3


def _sweep_calls(monkeypatch, G):
    """The `_tf_step` and `_tf_close` calls of G's roots sweep: a close adds
    the last vertex, so it counts as a step."""
    calls = []
    for name in ("_tf_step", "_tf_close"):
        def counted(*args, call=getattr(patterns, name)):
            calls.append(1)
            return call(*args)
        monkeypatch.setattr(patterns, name, counted)
    tf_integer_roots_classification(G)
    monkeypatch.undo()
    return len(calls)


@pytest.mark.parametrize("G, core", [
    (Graph(6, [(1, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 6)]), complete_graph(3)),
    (Graph(6, [(1, 2), (2, 3), (3, 4), (1, 4), (1, 5), (3, 6)]), cycle_graph(4)),
], ids=["K3-with-a-pendant-path-of-3", "C4-with-two-pendant-vertices"])
def test_roots_sweep_of_a_connected_non_forest_sweeps_its_core_only(G, core, monkeypatch):
    # connected, so no component split saves anything; the pendant edges
    # and every degree-2 core vertex must stay out of and in the core
    assert _sweep_calls(monkeypatch, G) == _sweep_calls(monkeypatch, core)
    assert _sweep_calls(monkeypatch, core) < sum(1 for _ in patterns._tf_orderings(G))
    assert tf_integer_roots_classification(G).to_json() == oracle_tf_roots_report(
        G, _roots_table())


def test_a_core_witness_is_never_reported_for_g(monkeypatch):
    # should a core sweep find a witness, G is swept in full, and its own
    # first witness, or none, is reported
    sweep = patterns._integer_root_ordering
    G = None

    def core_has_a_witness(H):
        if H is G:
            return sweep(H)
        return tuple(range(1, H.n + 1)), [-1] * H.n

    monkeypatch.setattr(patterns, "_integer_root_ordering", core_has_a_witness)
    roots_of = _roots_table()
    graphs = list(_every_small_graph(4)) + [
        Graph(6, [(1, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 6)]),
        _DISCONNECTED_NON_FORESTS["C4+K2"]]
    for G in graphs:
        assert tf_integer_roots_classification(G).to_json() == oracle_tf_roots_report(
            G, roots_of), G


def _check_sweep_against_the_walk(G):
    """Each polynomial of the prefix-sharing sweep equals the count of the
    tight-forest walk, which does not use the transfer, on the relabeled
    graph; the sweep yields exactly the first ordering of each labeled
    graph, in permutations order."""
    from isfkit.patterns import _tf_orderings, _tf_walk
    first = {}
    for perm in itertools.permutations(range(1, G.n + 1)):
        first.setdefault(G.relabeled_edges(perm), perm)
    yielded = []
    for perm, packed in _tf_orderings(G):
        H = G.relabeled(perm)
        walked = count_by_size(_tf_walk(H.n, H.sorted_edges()))
        counts = unpack_counts(packed, len(G.edges) + 1)
        assert counts_to_polynomial(counts, H.n) == counts_to_polynomial(walked, H.n), (G, perm)
        yielded.append(perm)
    assert yielded == list(first.values()), G


def test_roots_sweep_polynomials_match_the_walk_on_every_small_graph():
    for n in range(5):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for chosen in itertools.product((False, True), repeat=len(pairs)):
            _check_sweep_against_the_walk(Graph(n, itertools.compress(pairs, chosen)))


def test_roots_sweep_polynomials_match_the_walk_on_six_vertices():
    rng = random.Random(615)
    pairs = list(itertools.combinations(range(1, 7), 2))
    for _ in range(5):
        _check_sweep_against_the_walk(Graph(6, rng.sample(pairs, 8)))


@pytest.fixture
def step_calls(monkeypatch):
    """The labels w of every `_tf_step` call, through the module."""
    calls = []
    step = patterns._tf_step

    def counted(table, frontier, w, *rest):
        calls.append(w)
        return step(table, frontier, w, *rest)

    monkeypatch.setattr(patterns, "_tf_step", counted)
    return calls


def _check_sweep_against_the_oracle(G, step_calls):
    """The label-keyed sweep yields the (perm, packed) list of the sweep
    that keeps its tables under vertex prefixes, in at most its steps for
    the labels below n (the oracle adds label n by a step, not a close);
    returns both step counts."""
    steps = []
    yielded = []
    for sweep in (patterns._tf_orderings, oracle_tf_orderings):
        before = len(step_calls)
        yielded.append(list(sweep(G)))
        steps.append(sum(w < G.n for w in step_calls[before:]))
    assert yielded[0] == yielded[1], G
    assert steps[0] <= steps[1], G
    return steps


def test_roots_sweep_equals_the_vertex_prefix_oracle_on_every_graph_up_to_five_vertices(
    step_calls
):
    for n in range(6):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for chosen in itertools.product((False, True), repeat=len(pairs)):
            _check_sweep_against_the_oracle(
                Graph(n, itertools.compress(pairs, chosen)), step_calls)


def test_roots_sweep_equals_the_vertex_prefix_oracle_on_six_vertices(step_calls):
    rng = random.Random(3506)
    corpus = [complete_graph(6), Graph(6), Graph(6, [(1, 4), (2, 6), (3, 5)]),
              *_DISCONNECTED_NON_FORESTS.values()]
    corpus += [random_graph(rng, 6, p) for p in (0.2, 0.3, 0.5, 0.7) for _ in range(4)]
    for G in corpus:
        _check_sweep_against_the_oracle(G, step_calls)


def test_roots_sweep_takes_fewer_steps_than_the_vertex_prefix_oracle(step_calls):
    # a labeling's table is shared with every labeling of the same edges
    # among labels 1..k and the same labels with a later neighbour, not
    # only with those that put the same vertices first
    path6 = Graph(6, [(i, i + 1) for i in range(1, 6)])
    for G in (path6, house_graph()):
        swept, oracle = _check_sweep_against_the_oracle(G, step_calls)
        assert swept < oracle, G


def _check_closes_against_the_step(G, orderings=None):
    """Every table that `tf_polynomial` and the first `orderings` labelings
    of the sweep close gives the packed counts of one more `_tf_step`, for
    the last label and its real neighbours, which leaves the one state ()."""
    closes = []
    close = patterns._tf_close

    def recording(table, frontier, width):
        closes.append((table, frontier, width))
        return close(table, frontier, width)

    labelings = [tuple(range(1, G.n + 1))]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(patterns, "_tf_close", recording)
        patterns.tf_polynomial(G)
        for perm, packed in itertools.islice(patterns._tf_orderings(G), orderings):
            labelings.append(perm)
            assert packed == close(*closes[-1])
    assert len(closes) == len(labelings)
    for perm, (table, frontier, width) in zip(labelings, closes):
        adj = G.relabeled(perm).adjacency()
        top = [0] + [max(adj[v], default=0) for v in adj]
        stepped = patterns._tf_step(table, frontier, G.n, adj.get(G.n, []), top, width)
        assert stepped == ([], {(): close(table, frontier, width)}), (G, perm)


def test_close_matches_the_step_on_every_graph_up_to_five_vertices():
    for n in range(6):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for chosen in itertools.product((False, True), repeat=len(pairs)):
            _check_closes_against_the_step(Graph(n, itertools.compress(pairs, chosen)))


def test_close_matches_the_step_on_random_six_and_eight_vertex_graphs():
    rng = random.Random(2406)
    for n, orderings in ((6, None), (6, None), (8, 200), (8, 200)):
        for p in (0.3, 0.5, 0.7):
            _check_closes_against_the_step(random_graph(rng, n, p), orderings)


# -- pattern-avoiding permutation counts ----------------------------------------------


def test_tight_counts_small():
    assert tight_permutation_count(1) == 1
    assert tight_permutation_count(3) == 3
    assert tight_permutation_count(4) == 5


def test_tight_counts_match_filter_oracle():
    for k in range(1, 8):
        oracle = sum(
            1
            for p in itertools.permutations(range(1, k + 1))
            if not any(contains_pattern(p, q) for q in TIGHT_PATTERNS)
        )
        assert tight_permutation_count(k) == oracle


def test_tight_count_cap(monkeypatch):
    with pytest.raises(BudgetExceededError, match="^k=16 exceeds the counting cap 15$"):
        tight_permutation_count(16)
    monkeypatch.setattr(patterns, "_PERMUTATION_BUDGET", 5)
    assert tight_permutation_count(5) == 8
    with pytest.raises(BudgetExceededError, match="^k=6 exceeds the counting cap 5$"):
        count_pattern_avoiding_permutations(6, [Pattern((1, 2, 3))])


def test_tight_counts_follow_fibonacci_recurrence():
    counts = {k: tight_permutation_count(k) for k in range(1, 13)}
    for k in range(3, 13):
        assert counts[k] == counts[k - 1] + counts[k - 2]


def test_generic_pattern_counter():
    # avoiding a single length-3 pattern gives the Catalan numbers
    catalan = [1, 2, 5, 14, 42]
    for k, expected in zip(range(1, 6), catalan):
        assert count_pattern_avoiding_permutations(k, [Pattern((1, 2, 3))]) == expected
    with pytest.raises(InputError):
        count_pattern_avoiding_permutations(3, [Pattern((1, 2, 3, 4, 5))])

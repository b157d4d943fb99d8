import copy
import itertools
import math
import pickle
import random
import re
import time
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from isfkit import chromatic, graphcore
from isfkit.errors import BudgetExceededError, InputError, InternalCheckError
from isfkit.graphcore import (
    _increasing_masks,
    _nbc_walk,
    EdgeOrder,
    Graph,
    acyclic_orientation_count,
    chromatic_polynomial,
    count_proper_colorings,
    counts_to_polynomial,
    edge_partition,
    enumerate_isf,
    find_peo,
    has_triangle,
    is_bipartite,
    is_peo,
    isf_polynomial,
    isf_set_list,
    nbc_set_list,
    nbc_sets,
    simple_cycles,
    verify_isf_nbc,
)
from isfkit.polycore import IntPolynomial, poly_from_linear_factors
from isfkit.walks import count_by_size

from helpers import (
    all_edge_subsets,
    all_root_paths,
    broken_circuits,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    forest_from_edge_set,
    house_graph,
    increasing_tree,
    isfkit_calls,
    non_increasing_tree,
    oracle_acyclic_orientation_count,
    oracle_chromatic_by_partitions,
    oracle_coloring_count,
    oracle_increasing,
    oracle_isf_counts,
    oracle_nbc_sets,
    oracle_partition_counts,
    paw_non_peo,
    paw_peo,
    relabel_to_natural_peo,
)


def random_graph(rng, n):
    return Graph(
        n,
        [
            (i, j)
            for i in range(1, n + 1)
            for j in range(i + 1, n + 1)
            if rng.random() < 0.5
        ],
    )


def test_graph_validation():
    with pytest.raises(InputError):
        Graph(3, [(0, 1)])
    with pytest.raises(InputError):
        Graph(3, [(2, 2)])
    with pytest.raises(InputError):
        Graph(3, [(1, 4)])
    with pytest.raises(InputError, match=r"^edge \(1,2\) is repeated$"):
        Graph(3, [(1, 2), (2, 3), (1, 2)])


def test_graph_json_roundtrip():
    G = paw_peo()
    assert Graph.from_json(G.to_json()) == G


def test_edge_partition_worked_example():
    blocks = edge_partition(paw_peo())
    assert blocks[1] == frozenset()
    assert blocks[2] == {(1, 2)}
    assert blocks[3] == {(2, 3)}
    assert blocks[4] == {(1, 4), (2, 4)}


def test_edge_partition_edgeless():
    assert all(not v for v in edge_partition(Graph(5)).values())


def test_edge_partition_non_peo_labeling():
    blocks = edge_partition(paw_non_peo())
    assert blocks[2] == {(1, 2)}
    assert blocks[4] == {(1, 4), (2, 4), (3, 4)}
    # oracle: the brute-force ISF count matches t^2 (t+1) (t+3)
    counts = oracle_isf_counts(paw_non_peo())
    assert counts_to_polynomial(counts, 4) == poly_from_linear_factors(
        [0, 0, 1, 3]
    )


def test_is_increasing_forest_trees():
    # the ISF walk against the rooted-path definition: each tree rooted at
    # its minimum, every path down from a root increases
    for T, increasing in ((increasing_tree(), True), (non_increasing_tree(), False)):
        paths = all_root_paths(forest_from_edge_set(T.edges))
        assert all(list(p) == sorted(p) for p in paths) == increasing
        assert (frozenset(T.edges) in isf_set_list(T)) == increasing
    assert frozenset() in isf_set_list(increasing_tree())


def test_enumerate_isf_worked_example():
    assert enumerate_isf(paw_peo()) == {0: 1, 1: 4, 2: 5, 3: 2}


def test_enumerate_isf_single_edge():
    assert enumerate_isf(Graph(2, [(1, 2)])) == {0: 1, 1: 1}


def test_enumerate_isf_five_cycle_matches_factorization():
    C5 = cycle_graph(5)
    # oracle: independent factored computation from the edge partition sizes
    expected = poly_from_linear_factors([0, 1, 1, 1, 2])
    assert counts_to_polynomial(enumerate_isf(C5), 5) == expected


def test_enumerate_budget(monkeypatch):
    # the walks refuse past the 25 edges of the shared edge budget before
    # they start
    path = Graph(27, [(k, k + 1) for k in range(1, 27)])
    for walk in (enumerate_isf, isf_set_list, nbc_set_list):
        with pytest.raises(BudgetExceededError,
                           match="^26 edges exceeds the enumeration budget 25$"):
            walk(path)
    # and read the budget when called
    monkeypatch.setattr(graphcore, "_EDGE_BUDGET", 10)
    with pytest.raises(BudgetExceededError):
        enumerate_isf(complete_graph(7))


def test_isf_listing_matches_subset_sweep():
    rng = random.Random(7)
    for _ in range(25):
        G = random_graph(rng, rng.randint(1, 6))
        swept = {s for s in all_edge_subsets(G) if oracle_increasing(s)}
        assert set(isf_set_list(G)) == swept


def test_isf_polynomial_worked_examples():
    assert isf_polynomial(paw_peo()).coeffs == (0, 2, 5, 4, 1)
    assert isf_polynomial(paw_non_peo()).coeffs == (0, 0, 3, 4, 1)
    K3 = complete_graph(3)
    assert isf_polynomial(K3) == counts_to_polynomial(oracle_isf_counts(K3), 3)


def test_isf_polynomial_weighted_matches_enumeration():
    rng = random.Random(11)
    for _ in range(10):
        G = random_graph(rng, rng.randint(1, 5))
        weights = {e: e for e in G.edges}
        assert isf_polynomial(G, weights).terms == {
            (tuple(sorted(F)), G.n - len(F)): 1 for F in isf_set_list(G)
        }


def test_isf_polynomial_weighted_sums_a_shared_variable():
    # with every edge weighted x, the term x^k t^(n-k) counts the forests
    # of k edges
    rng = random.Random(12)
    for _ in range(10):
        G = random_graph(rng, rng.randint(1, 6))
        sizes = Counter(len(F) for F in isf_set_list(G))
        assert isf_polynomial(G, {e: "x" for e in G.edges}).terms == {
            (("x",) * k, G.n - k): count for k, count in sizes.items()
        }


def test_broken_circuits_triangle():
    K3 = complete_graph(3)
    assert broken_circuits(K3) == {frozenset({(1, 3), (2, 3)})}


def test_broken_circuits_forest_empty():
    assert broken_circuits(increasing_tree()) == frozenset()


def test_broken_circuits_four_cycle():
    C4 = cycle_graph(4)
    assert simple_cycles(C4) == [(1, 2, 3, 4)]
    assert broken_circuits(C4) == {frozenset({(1, 4), (2, 3), (3, 4)})}


def test_simple_cycles_budget(monkeypatch):
    # K4 has four triangles and three 4-cycles
    monkeypatch.setattr(graphcore, "_MEMBER_BUDGET", 7)
    assert len(simple_cycles(complete_graph(4))) == 7
    monkeypatch.setattr(graphcore, "_MEMBER_BUDGET", 6)
    with pytest.raises(BudgetExceededError,
                       match="^7 simple cycles exceed the member budget 6$"):
        simple_cycles(complete_graph(4))


def test_simple_cycles_walk_does_not_recurse():
    path = Graph(1500, [(i, i + 1) for i in range(1, 1500)])
    assert simple_cycles(path) == []
    assert simple_cycles(cycle_graph(4)) == [(1, 2, 3, 4)]


def test_nbc_counts_triangle_against_subset_filter():
    K3 = complete_graph(3)
    assert nbc_sets(K3) == {0: 1, 1: 3, 2: 2}
    swept = oracle_nbc_sets(K3, broken_circuits(K3))
    assert set(nbc_set_list(K3)) == swept


def test_nbc_counts_forest_binomial():
    T = Graph(5, [(1, 2), (2, 3), (3, 4), (4, 5)])
    assert nbc_sets(T) == {0: 1, 1: 4, 2: 6, 3: 4, 4: 1}


def test_nbc_counts_paw():
    assert nbc_sets(paw_peo()) == {0: 1, 1: 4, 2: 5, 3: 2}


def test_nbc_listing_matches_subset_filter_under_shuffled_orders():
    rng = random.Random(23)
    for _ in range(25):
        G = random_graph(rng, rng.randint(1, 6))
        sequence = G.sorted_edges()
        rng.shuffle(sequence)
        order = EdgeOrder.from_sequence(G, sequence)
        listing = nbc_set_list(G, order)
        assert len(listing) == len(set(listing))
        assert set(listing) == oracle_nbc_sets(G, broken_circuits(G, order))


def test_nbc_counts_of_complete_graphs_are_stirling_numbers():
    # P(K_n) = t(t-1)...(t-n+1), so the NBC sets of size m number the
    # coefficient of t**(n-m) in t(t+1)...(t+n-1) under every edge order
    rng = random.Random(31)
    stirling = [1]
    for n in range(1, 8):
        stirling = [0] + stirling
        for k in range(n):
            stirling[k] += (n - 1) * stirling[k + 1]
        expected = {m: stirling[n - m] for m in range(n)}
        K = complete_graph(n)
        assert nbc_sets(K) == expected
        for _ in range(3):
            sequence = K.sorted_edges()
            rng.shuffle(sequence)
            assert nbc_sets(K, EdgeOrder.from_sequence(K, sequence)) == expected


@settings(deadline=None, max_examples=25)
@given(st.integers(min_value=0, max_value=10**6))
def test_nbc_counts_independent_of_order(seed):
    rng = random.Random(seed)
    G = random_graph(rng, rng.randint(2, 6))
    base = nbc_sets(G)
    edges = G.sorted_edges()
    for _ in range(3):
        shuffled = edges[:]
        rng.shuffle(shuffled)
        assert nbc_sets(G, order=EdgeOrder.from_sequence(G, shuffled)) == base


def test_edge_order_refuses_entries_that_are_not_pairs_of_ints():
    K3 = complete_graph(3)
    for entry, message in (((1, 2, 3), "edge (1, 2, 3) must have exactly two endpoints"),
                           (5, "edge 5 must have exactly two endpoints"),
                           ((1.0, 3), "edge endpoint must be an integer, got 1.0"),
                           ((True, 3), "edge endpoint must be an integer, got True"),
                           ((1, "3"), "edge endpoint must be an integer, got '3'")):
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            EdgeOrder.from_sequence(K3, [(1, 2), entry, (2, 3)])
    order = EdgeOrder.from_sequence(K3, [(2, 1), (3, 1), [3, 2]])
    assert order.sequence == ((1, 2), (1, 3), (2, 3))
    assert all(type(v) is int for e in order.sequence for v in e)


def test_nbc_counts_and_listing_refuse_an_order_of_another_edge_set():
    G = Graph(4, [(1, 2), (1, 3), (2, 3), (3, 4)])
    assert nbc_sets(G) == {0: 1, 1: 4, 2: 5, 3: 2}
    for other in ([(1, 2), (1, 4)], [(1, 2), (1, 3), (2, 3)],
                  [(1, 2), (1, 3), (1, 4), (2, 3), (3, 4)]):
        for count_or_list in (nbc_sets, nbc_set_list):
            with pytest.raises(InputError,
                               match="^edge order must be a permutation of the edge set$"):
                count_or_list(G, EdgeOrder(other))


def test_nbc_sets_keeps_the_lexicographic_counts(monkeypatch):
    runs = []
    transfer = graphcore._nbc_transfer

    def counting(G, seq):
        runs.append(tuple(seq))
        return transfer(G, seq)

    monkeypatch.setattr(graphcore, "_nbc_transfer", counting)
    G = paw_non_peo()
    first, second = nbc_sets(G), nbc_sets(G)
    assert len(runs) == 1
    assert first == second == {0: 1, 1: 4, 2: 5, 3: 2} and first is not second
    first[0] += 1
    second[5] = 7
    assert nbc_sets(G) == {0: 1, 1: 4, 2: 5, 3: 2} and len(runs) == 1
    # an order, even the lexicographic one, always runs the transfer
    lex = EdgeOrder.lexicographic(G)
    assert nbc_sets(G, lex) == nbc_sets(G, order=lex) == nbc_sets(G)
    assert len(runs) == 3
    for twin in (copy.copy(G), copy.deepcopy(G), pickle.loads(pickle.dumps(G))):
        assert twin == G and hash(twin) == hash(G) and repr(twin) == repr(G)
        assert nbc_sets(twin) == nbc_sets(G)
    assert len(runs) == 3
    # `graph verify` finds the counts that a later call reads
    H = complete_graph(5)
    assert verify_isf_nbc(H).passed
    assert nbc_sets(H) == {0: 1, 1: 10, 2: 35, 3: 50, 4: 24}
    assert len(runs) == 4
    fresh = complete_graph(5)
    assert pickle.loads(pickle.dumps(fresh)) == fresh and fresh._nbc is None


def test_chromatic_worked_examples():
    assert chromatic_polynomial(paw_peo()).coeffs == (0, -2, 5, -4, 1)
    assert chromatic_polynomial(Graph(3)) == IntPolynomial.monomial(3)


def test_chromatic_four_cycle_against_coloring_oracle():
    C4 = cycle_graph(4)
    p = chromatic_polynomial(C4)
    expected = IntPolynomial([-1, 1]) ** 4 + IntPolynomial([-1, 1])
    assert p == expected
    for t in range(1, 6):
        assert p(t) == oracle_coloring_count(C4, t)


def test_chromatic_internal_routes_agree():
    from helpers import _lagrange_integer
    from isfkit.chromatic import _by_contraction

    rng = random.Random(3)
    for _ in range(20):
        G = random_graph(rng, rng.randint(1, 6))
        dc = IntPolynomial(_by_contraction(G))
        pts = [(t, oracle_coloring_count(G, t)) for t in range(G.n + 1)]
        assert dc == _lagrange_integer(pts)


def test_count_proper_colorings_matches_pure_python():
    rng = random.Random(5)
    for _ in range(10):
        G = random_graph(rng, rng.randint(1, 5))
        for t in range(G.n + 2):
            assert count_proper_colorings(G, t) == oracle_coloring_count(G, t)


def _graphs_at_densities(rng, sizes):
    # sparse graphs take deletion-contraction, dense ones addition-contraction
    for n in sizes:
        for p in (0.2, 0.5, 0.8):
            pairs = itertools.combinations(range(1, n + 1), 2)
            yield Graph(n, [e for e in pairs if rng.random() < p])


def test_both_chromatic_routes_match_the_partition_table():
    rng = random.Random(21)
    for G in _graphs_at_densities(rng, range(9, 13)):
        expected = oracle_chromatic_by_partitions(G)
        counts, isolated = chromatic._class_counts(G)
        by_transfer = [0] * isolated + chromatic._falling_to_power(counts)
        assert IntPolynomial(by_transfer) == expected
        assert IntPolynomial(chromatic._by_contraction(G)) == expected
        if not isolated:
            assert counts == oracle_partition_counts(G)


def test_both_chromatic_routes_match_the_coloring_oracle():
    rng = random.Random(22)
    for G in _graphs_at_densities(rng, range(1, 11)):
        by_recursion = IntPolynomial(chromatic._by_contraction(G))
        for t in range(4):
            expected = oracle_coloring_count(G, t)
            assert count_proper_colorings(G, t) == expected
            assert by_recursion(t) == expected


def _random_chordal(rng, n):
    """A chordal graph and a PEO of it: each new vertex joins part of a
    clique built so far, so its earlier neighbours form a clique; the
    labels are shuffled."""
    cliques, joined, edges = [()], [], []
    for v in range(n):
        chosen = tuple(x for x in rng.choice(cliques) if rng.random() < 0.7)
        joined.append(len(chosen))
        edges += [(x, v) for x in chosen]
        cliques.append(chosen + (v,))
    labels = rng.sample(range(1, n + 1), n)
    G = Graph(n, [(min(labels[a], labels[b]), max(labels[a], labels[b]))
                  for a, b in edges])
    return G, labels, joined


def test_chromatic_polynomial_of_chordal_graphs_is_the_product_over_a_peo():
    # P(G) = prod over a PEO of (t - the vertex's earlier neighbours)
    rng = random.Random(23)
    for n in range(9, 17):
        for _ in range(2):
            G, peo, joined = _random_chordal(rng, n)
            assert is_peo(G, peo)
            expected = IntPolynomial.one()
            for d in joined:
                expected = expected * IntPolynomial((-d, 1))
            assert chromatic_polynomial(G) == expected


def test_chromatic_polynomial_of_long_paths_and_cycles_does_not_recurse():
    t_minus_1 = IntPolynomial((-1, 1))
    n = 500
    path = Graph(n, [(k, k + 1) for k in range(1, n)])
    assert chromatic_polynomial(path) == IntPolynomial.t() * t_minus_1 ** (n - 1)
    cycle = Graph(n, [*path.edges, (1, n)])
    assert chromatic_polynomial(cycle) == t_minus_1**n + (-1) ** n * t_minus_1


def test_chromatic_polynomial_has_no_vertex_cap_below_the_output_budget():
    n = graphcore._OUTPUT_BUDGET
    assert chromatic_polynomial(Graph(n, [(1, n)])) == (
        IntPolynomial.monomial(n - 1) * IntPolynomial((-1, 1)))
    with pytest.raises(BudgetExceededError, match="n=100001 exceeds the output budget"):
        chromatic_polynomial(Graph(n + 1))


def test_chromatic_routes_refuse_past_their_budgets(monkeypatch):
    # 1, 2, 3 share the frontier in B(3) = 5 partitions
    K33 = complete_bipartite([1, 2, 3], [4, 5, 6])
    monkeypatch.setattr(graphcore, "_TABLE_BUDGET", 5)
    assert chromatic._class_counts(K33)[0] == oracle_partition_counts(K33)
    monkeypatch.setattr(graphcore, "_TABLE_BUDGET", 4)
    with pytest.raises(BudgetExceededError, match="budget of 4 states"):
        chromatic._class_counts(K33)
    C6 = cycle_graph(6)
    monkeypatch.setattr(graphcore, "_TABLE_BUDGET", 2)
    with pytest.raises(BudgetExceededError, match="budget of 2 memo entries"):
        chromatic._by_contraction(C6)
    monkeypatch.setattr(graphcore, "_COUNT_BITS", 100)
    with pytest.raises(BudgetExceededError, match="100 bits of counts"):
        chromatic_polynomial(C6)


def test_nbc_transfer_matches_the_walk_on_every_small_graph():
    # the transfer's steps depend on the edge order, so every graph with
    # n <= 5 is counted under three seeded orders
    rng = random.Random(43)
    for n in range(6):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for bits in range(1 << len(pairs)):
            G = Graph(n, [p for i, p in enumerate(pairs) if bits >> i & 1])
            for _ in range(3):
                sequence = G.sorted_edges()
                rng.shuffle(sequence)
                order = EdgeOrder.from_sequence(G, sequence)
                walked = count_by_size(_nbc_walk(G, order)[1])
                assert nbc_sets(G, order) == walked, (G, sequence)


def _seeded_graphs_past_five(seed):
    """Random graphs with n = 6..8: connected or not, and disconnected ones
    whose two parts interleave their labels around a vertex without an
    edge."""
    rng = random.Random(seed)
    for n in range(6, 9):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for _ in range(8):
            yield Graph(n, rng.sample(pairs, rng.randint(0, min(18, len(pairs)))))
        for _ in range(4):
            alone = rng.randint(1, n)
            part = {v: rng.random() < 0.5 for v in range(1, n + 1)}
            within = [(i, j) for i, j in pairs
                      if alone not in (i, j) and part[i] == part[j]]
            yield Graph(n, rng.sample(within, rng.randint(len(within) // 2, len(within))))


def _component_sizes(G):
    """The sizes of the components of G with an edge."""
    parent = {}

    def find(v):
        while parent.setdefault(v, v) != v:
            v = parent[v]
        return v

    for i, j in G.edges:
        parent[find(i)] = find(j)
    return sorted(Counter(find(v) for v in list(parent)).values())


class _OrderedGraph(Graph):
    """A graph whose edge list, and with it the joint transfer's order, is
    the edge order it is built from."""

    __slots__ = ("_order",)

    def __init__(self, n, order):
        super().__init__(n, order)
        self._order = list(order)

    def sorted_edges(self):
        return list(self._order)


def test_nbc_transfers_match_the_walks_past_five_vertices():
    # each step scans a state's blocks once, cuts only the blocks of the
    # edge's endpoints and keeps the closure test per pair of blocks; five
    # seeded orders reach those paths in many arrangements
    rng = random.Random(53)
    corpus = list(_seeded_graphs_past_five(53))
    assert any(len({v for e in G.edges for v in e}) < G.n for G in corpus)
    assert any(len(_component_sizes(G)) > 1 for G in corpus if len(G.edges) > 4)
    for G in corpus:
        for _ in range(5):
            sequence = G.sorted_edges()
            rng.shuffle(sequence)
            order = EdgeOrder.from_sequence(G, sequence)
            walked = count_by_size(_nbc_walk(G, order)[1])
            assert nbc_sets(G, order) == walked, (G, sequence)
            # under the lexicographic order the closure test of the joint
            # transfer never refuses an edge, as ISF ⊆ NBC; under a
            # shuffled order it does
            shuffled = _OrderedGraph(G.n, sequence)
            assert graphcore._isf_nbc_counts(shuffled) == _walked_isf_nbc(shuffled), (
                G, sequence)
        assert graphcore._isf_nbc_counts(G) == _walked_isf_nbc(G), G


def test_nbc_transfer_table_budget_counts_states(monkeypatch):
    # under the lexicographic order the table of K_n peaks at the
    # partitions of n - 1 frontier vertices, the Bell number B(n-1)
    for n, bell in ((4, 5), (5, 15), (6, 52)):
        K = complete_graph(n)
        monkeypatch.setattr(graphcore, "_TABLE_BUDGET", bell)
        assert sum(nbc_sets(K).values()) == math.factorial(n)
        monkeypatch.setattr(graphcore, "_TABLE_BUDGET", bell - 1)
        with pytest.raises(BudgetExceededError, match=f"budget of {bell - 1} states"):
            nbc_sets(complete_graph(n))  # K keeps its counts
    # a path keeps one state, whatever its length
    monkeypatch.setattr(graphcore, "_TABLE_BUDGET", 1)
    path = Graph(200, [(i, i + 1) for i in range(1, 200)])
    assert nbc_sets(path) == {m: math.comb(199, m) for m in range(200)}


def test_nbc_transfer_memory_does_not_grow_with_the_vertex_labels(monkeypatch):
    # the bitmasks run over the vertices with an edge, not over 1..n: a
    # 999-edge star on the labels just below n = 10**6 keeps one small
    # state, where masks over the labels would take about 125 MB
    n = 10**6
    star = Graph(n, [(n - 999, v) for v in range(n - 998, n + 1)])
    tracemalloc.start()
    try:
        counts = nbc_sets(star)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts == {m: math.comb(999, m) for m in range(1000)}
    assert peak < 8 * 2**20
    shift = n - 6
    K6 = Graph(n, [(i + shift, j + shift) for i, j in complete_graph(6).edges])
    expected = nbc_sets(complete_graph(6))
    monkeypatch.setattr(graphcore, "_TABLE_BUDGET", 52)
    assert nbc_sets(K6) == expected


def test_nbc_transfer_refuses_past_its_count_bits(monkeypatch):
    # a 10-vertex path handles sum(min(k + 1, 10) * 10 for k in 1..9) = 540
    # bits of counts; a 30-vertex path passes 540 bits early.  The joint
    # ISF ∩ NBC transfer shares the bound.
    monkeypatch.setattr(graphcore, "_COUNT_BITS", 540)
    for transfer in (nbc_sets, graphcore._isf_nbc_counts):
        assert sum(transfer(Graph(10, [(i, i + 1) for i in range(1, 10)])).values()) == 2**9
        with pytest.raises(BudgetExceededError, match="540 bits of counts"):
            transfer(Graph(30, [(i, i + 1) for i in range(1, 30)]))


def test_verify_isf_nbc_fails_when_the_nbc_counts_are_off_by_one(monkeypatch):
    # the NBC counts have their second route in Whitney's alternating sum
    # against the two-route chromatic polynomial
    transfer = graphcore.nbc_sets

    def one_set_too_many(G, order=None):
        counts = transfer(G, order)
        counts[0] += 1
        return counts

    monkeypatch.setattr(graphcore, "nbc_sets", one_set_too_many)
    for G in (paw_peo(), paw_non_peo(), complete_graph(5)):
        report = verify_isf_nbc(G)
        assert not report.passed
        named = {c.name: c.equal for c in report.identity_checks}
        assert not named["whitney_alternating_sum_vs_chromatic"]


def test_verify_isf_nbc_runs_no_contraction(monkeypatch):
    # χ has two routes in `graph verify`: Whitney's signed NBC counts and
    # the colour classes; the χ it reports is that of chromatic_polynomial
    def no_recursion(G):
        raise AssertionError("verify_isf_nbc ran the contraction recursion")

    corpus = list(_seeded_graphs(53, 60)) + [cycle_graph(9), complete_graph(8)]
    monkeypatch.setattr(chromatic, "_by_contraction", no_recursion)
    with pytest.raises(AssertionError, match="contraction recursion"):
        chromatic_polynomial(paw_peo())
    reports = []
    for G in corpus:
        report = verify_isf_nbc(G)
        assert report.passed, G
        reports.append(report)
    monkeypatch.undo()
    for G, report in zip(corpus, reports):
        named = {c.name: c for c in report.identity_checks}
        whitney = named["whitney_alternating_sum_vs_chromatic"]
        assert whitney.equal
        assert whitney.right.to_json() == chromatic_polynomial(G).to_json(), G


def test_verify_isf_nbc_fails_when_the_colour_classes_are_off_by_one(monkeypatch):
    # the colour-class χ has its second route in Whitney's signed NBC
    # counts; on a core past eight vertices the orientation count, which
    # reads χ at -1, has no cross-check of its own that would raise first
    by_classes = chromatic._by_colour_classes

    def one_colouring_too_many(G):
        coeffs = by_classes(G)
        coeffs[0] += 1
        return coeffs

    monkeypatch.setattr(chromatic, "_by_colour_classes", one_colouring_too_many)
    for G in (cycle_graph(9), complete_graph(9)):
        report = verify_isf_nbc(G)
        assert not report.passed
        named = {c.name: c.equal for c in report.identity_checks}
        assert not named["whitney_alternating_sum_vs_chromatic"]
    # a forest's core is empty, so its orientation count is checked and
    # raises before the report is made
    with pytest.raises(InternalCheckError, match="source-set recursion"):
        verify_isf_nbc(Graph(10, [(1, 2), (2, 10), (3, 4)]))


def _walked_isf_nbc(G):
    """ISF ∩ NBC counted by size from the two walks, the transfer's oracle."""
    seq, masks = _nbc_walk(G, None)
    return count_by_size(set(_increasing_masks(seq)) & set(masks))


def _seeded_graphs(seed, count):
    """Random graphs with n <= 8 and at most 25 edges."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(0, 8)
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        yield Graph(n, rng.sample(pairs, rng.randint(0, min(25, len(pairs)))))


def test_isf_nbc_transfer_matches_the_walks():
    for G in _seeded_graphs(47, 300):
        joint = graphcore._isf_nbc_counts(G)
        assert joint == _walked_isf_nbc(G), G
        # ISF ⊆ NBC: the joint counts are the factored ISF counts
        factored = isf_polynomial(G)
        assert counts_to_polynomial(joint, G.n) == factored, G


def test_isf_nbc_transfer_without_the_from_below_field_is_caught(monkeypatch):
    mutant = nbc_sets  # the joint transfer with its from-below field dropped
    assert any(mutant(G) != _walked_isf_nbc(G) for G in _seeded_graphs(47, 50))
    monkeypatch.setattr(graphcore, "_isf_nbc_counts", mutant)
    report = verify_isf_nbc(paw_non_peo())
    assert not report.passed
    assert not report.boolean_facts["isf_subset_of_nbc"]


def test_isf_nbc_transfer_under_the_reversed_lex_order_is_caught():
    # the broken circuit of the 4-cycle under the reversed lex order,
    # {(1,2), (1,4), (2,3)}, is an increasing forest
    C4 = cycle_graph(4)
    assert C4.edges == {(1, 2), (1, 4), (2, 3), (3, 4)}
    mutant = _OrderedGraph(4, sorted(C4.edges, reverse=True))
    assert graphcore._isf_nbc_counts(C4) == enumerate_isf(C4)
    assert enumerate_isf(C4) == {0: 1, 1: 4, 2: 5, 3: 2}
    assert graphcore._isf_nbc_counts(mutant) == {0: 1, 1: 4, 2: 5, 3: 1}
    assert verify_isf_nbc(C4).passed
    report = verify_isf_nbc(mutant)
    assert not report.passed
    assert not report.boolean_facts["isf_subset_of_nbc"]
    assert report.witnesses["isf_not_in_nbc_by_size"] == {3: 1}


def test_verify_isf_nbc_witnesses_the_sizes_where_isf_leaves_nbc(monkeypatch):
    transfer = graphcore._isf_nbc_counts

    def one_set_dropped(G):
        counts = transfer(G)
        counts[2] -= 1
        return counts

    monkeypatch.setattr(graphcore, "_isf_nbc_counts", one_set_dropped)
    report = verify_isf_nbc(paw_peo())
    assert not report.passed
    assert not report.boolean_facts["isf_subset_of_nbc"]
    assert report.witnesses["isf_not_in_nbc_by_size"] == {2: 1}
    assert report.to_json()["witnesses"]["isf_not_in_nbc_by_size"] == {"2": 1}


def test_verify_isf_nbc_walks_no_family(monkeypatch):
    def no_walk(*args):
        raise AssertionError("verify_isf_nbc walked a family")

    monkeypatch.setattr(graphcore, "downward_closed", no_walk)
    with pytest.raises(AssertionError, match="walked a family"):
        _walked_isf_nbc(paw_peo())
    for G in (complete_graph(5), paw_peo(), paw_non_peo()):
        report = verify_isf_nbc(G)
        assert report.passed
        assert "isf_not_in_nbc_by_size" not in report.witnesses


def test_whitney_alternating_sum():
    rng = random.Random(13)
    for _ in range(15):
        G = random_graph(rng, rng.randint(1, 6))
        whitney = IntPolynomial()
        for m, c in nbc_sets(G).items():
            whitney = whitney + IntPolynomial.monomial(G.n - m, (-1) ** m * c)
        assert whitney == chromatic_polynomial(G)


def test_is_peo_worked_examples():
    assert is_peo(paw_peo(), [1, 2, 3, 4])
    assert not is_peo(paw_non_peo(), [1, 2, 3, 4])
    with pytest.raises(InputError):
        is_peo(paw_peo(), [1, 2, 3])


def test_find_peo_four_cycle_absent():
    assert find_peo(cycle_graph(4)) is None


def test_find_peo_agrees_with_exhaustive_search():
    rng = random.Random(29)
    for _ in range(40):
        G = random_graph(rng, rng.randint(1, 6))
        peo = find_peo(G)
        chordal = any(
            is_peo(G, list(p)) for p in itertools.permutations(range(1, G.n + 1))
        )
        if peo is None:
            assert not chordal
        else:
            assert chordal and is_peo(G, peo)


def _reference_mcs(G: Graph) -> list[int]:
    """Maximum cardinality search by a scan of every unnumbered vertex:
    the largest weight, then the smallest vertex."""
    adj = G.adjacency()
    weights = {v: 0 for v in range(1, G.n + 1)}
    selection: list[int] = []
    while weights:
        z = max(weights, key=lambda v: (weights[v], -v))
        selection.append(z)
        del weights[z]
        for u in adj[z]:
            if u in weights:
                weights[u] += 1
    return selection


def test_find_peo_keeps_the_scan_order_of_maximum_cardinality_search():
    rng = random.Random(47)
    for _ in range(300):
        n = rng.randint(0, 30)
        G = Graph(n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
                      if rng.random() < rng.choice((0.1, 0.3, 0.8))])
        selection = _reference_mcs(G)
        assert find_peo(G) == (selection if is_peo(G, selection) else None)
    # chordal graphs: every vertex joined to a clique of earlier ones
    for _ in range(100):
        n = rng.randint(2, 30)
        labels = rng.sample(range(1, n + 1), n)
        edges = set()
        for k in range(1, n):
            for c in rng.sample(range(k), min(k, rng.randint(1, 3))):
                edges.add((min(labels[k], labels[c]), max(labels[k], labels[c])))
        G = Graph(n, edges)
        selection = _reference_mcs(G)
        assert find_peo(G) == (selection if is_peo(G, selection) else None)


def test_isf_polynomial_and_find_peo_on_a_large_edgeless_graph():
    G = Graph(100_000)
    start = time.perf_counter()
    assert isf_polynomial(G) == IntPolynomial.monomial(100_000)
    assert find_peo(G) == list(range(1, 100_001))
    assert time.perf_counter() - start < 5


def test_acyclic_orientation_counts():
    assert acyclic_orientation_count(complete_graph(3)) == 6
    assert acyclic_orientation_count(paw_peo()) == 12
    assert acyclic_orientation_count(Graph(2, [(1, 2)])) == 2
    # a wrong chromatic polynomial must be caught by the source-set route
    with pytest.raises(InternalCheckError):
        acyclic_orientation_count(
            complete_graph(3), chromatic=IntPolynomial((0, 0, 0, 1))
        )
    rng = random.Random(41)
    for n in range(8):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for _ in range(5):
            G = Graph(n, rng.sample(pairs, rng.randint(0, min(12, len(pairs)))))
            assert acyclic_orientation_count(G) == oracle_acyclic_orientation_count(G)


def test_orientation_cross_check_budget():
    # with a wrong chromatic polynomial the cross-check fails exactly when it
    # runs: on at most 16 edges
    wrong = IntPolynomial.t() ** 8
    pairs = list(itertools.combinations(range(1, 9), 2))
    with pytest.raises(InternalCheckError):
        acyclic_orientation_count(Graph(8, pairs[:16]), chromatic=wrong)
    assert acyclic_orientation_count(Graph(8, pairs[:17]), chromatic=wrong) == 1
    assert acyclic_orientation_count(
        Graph(8, pairs[:16]), orientation_budget=15, chromatic=wrong
    ) == 1


def test_orientation_cross_check_reads_the_2_core():
    # vertices without an edge and pendant edges are stripped first, so the
    # budgets read what is left: a forest of any size is cross-checked, and
    # so is a graph whose core is small; χ off by one must then raise
    t = IntPolynomial.t()
    rng = random.Random(61)
    path = Graph(40, [(i, i + 1) for i in range(1, 40)])
    tree = Graph(30, [(rng.randint(1, k - 1), k) for k in range(2, 31)])
    c5 = [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)]
    hung = Graph(20, c5 + [(rng.randint(1, k - 1), k) for k in range(6, 18)])
    assert len(hung.edges) == 17  # past the edge budget, with vertices 18..20 alone
    hung_chi = t**3 * ((t - 1) ** 5 - (t - 1)) * (t - 1) ** 12
    cases = ((path, t * (t - 1) ** 39, 2**39),
             (tree, t * (t - 1) ** 29, 2**29),
             (hung, hung_chi, 30 * 2**12))
    for G, chi, count in cases:
        assert acyclic_orientation_count(G, chromatic=chi) == count
        with pytest.raises(InternalCheckError, match="source-set recursion"):
            acyclic_orientation_count(G, chromatic=chi + 1)
    # the keyword budget reads the core's five edges
    wrong = acyclic_orientation_count(hung, orientation_budget=4, chromatic=hung_chi + 1)
    assert wrong == 30 * 2**12 + 1
    # cores past eight vertices keep χ alone
    for G, count in ((cycle_graph(9), 2**9 - 2), (complete_graph(9), math.factorial(9))):
        chi = chromatic_polynomial(G)
        assert acyclic_orientation_count(G, chromatic=chi) == count
        assert acyclic_orientation_count(G, chromatic=chi + 1) == count - 1


def test_orientation_count_refuses_past_the_output_budget_before_stripping():
    # without χ the output budget refuses first, before the strip or any χ
    # route reads the graph
    n = graphcore._OUTPUT_BUDGET + 1
    for G in (Graph(n, [(k, k + 1) for k in range(1, n)]), Graph(n, [(1, 2)])):
        start = time.perf_counter()
        with pytest.raises(BudgetExceededError,
                           match=f"^n={n} exceeds the output budget {n - 1}$"):
            acyclic_orientation_count(G)
        assert time.perf_counter() - start < 1


def test_orientation_count_of_a_long_tree_reads_the_contraction_bits_budget(monkeypatch):
    # a tree's core is empty, so its χ comes from the contraction recursion
    # alone, whose result on v vertices with an edge is refused past
    # (v + 1) * v * bitlen(v) bits before (t - 1)**(v - 1) is expanded
    path = Graph(10, [(k, k + 1) for k in range(1, 10)])
    monkeypatch.setattr(graphcore, "_COUNT_BITS", 11 * 10 * 4)
    assert acyclic_orientation_count(path) == 2**9
    monkeypatch.setattr(graphcore, "_COUNT_BITS", 11 * 10 * 4 - 1)
    with pytest.raises(BudgetExceededError, match=(
            "^chromatic recursion exceeds its budget of 439 bits of counts summed "
            "over the memo entries$")):
        acyclic_orientation_count(path)
    monkeypatch.undo()
    # at the default budget a 2,000-vertex path expands and a 13,000-vertex
    # one refuses at once; chromatic_polynomial runs the colour classes
    # first, which refuse both
    for n, count in ((2000, 2**1999), (13000, None)):
        G = Graph(n, [(k, k + 1) for k in range(1, n)])
        start = time.perf_counter()
        if count is None:
            with pytest.raises(BudgetExceededError,
                               match="^chromatic recursion exceeds its budget of 2147483648 bits"):
                acyclic_orientation_count(G)
        else:
            assert acyclic_orientation_count(G) == count
        assert time.perf_counter() - start < 1
        with pytest.raises(BudgetExceededError,
                           match="^colour-class transfer exceeds its budget of 2147483648 bits"):
            chromatic_polynomial(G)


def test_the_orientation_route_shares_no_function_with_the_chromatic_routes():
    # (-1)**n χ(-1) = a(G) holds as a check only while the source-set
    # recursion computes nothing that χ's routes compute
    rng = random.Random(67)
    tree = Graph(12, [(rng.randint(1, k - 1), k) for k in range(2, 13)])
    for G in (complete_graph(5), paw_peo(), tree):
        chi = chromatic_polynomial(G)
        orientation = isfkit_calls(lambda: acyclic_orientation_count(G, chromatic=chi))
        assert "isfkit.graphcore.acyclic_orientation_count" in orientation
        for route in (chromatic._by_colour_classes, chromatic._by_contraction):
            routed = isfkit_calls(lambda: route(G))
            assert f"isfkit.chromatic.{route.__name__}" in routed
            assert orientation & routed == set(), (G, route.__name__)


def test_verify_isf_nbc_peo_labeling():
    report = verify_isf_nbc(paw_peo())
    assert report.passed
    assert report.boolean_facts["natural_order_is_peo"]
    assert report.boolean_facts["isf_equals_nbc_all_sizes"]
    assert all(c.equal for c in report.identity_checks)


def test_verify_isf_nbc_non_peo_labeling():
    report = verify_isf_nbc(paw_non_peo())
    assert report.passed
    assert not report.boolean_facts["natural_order_is_peo"]
    assert report.boolean_facts["isf_subset_of_nbc"]
    assert not report.boolean_facts["isf_equals_nbc_all_sizes"]
    named = {c.name: c.equal for c in report.identity_checks}
    assert not named["isf_vs_signed_chromatic"]


def test_verify_isf_nbc_relabeled_chordal_reaches_equality():
    rng = random.Random(41)
    found = 0
    while found < 10:
        G = random_graph(rng, rng.randint(2, 6))
        peo = find_peo(G)
        if peo is None:
            continue
        found += 1
        relabeled = relabel_to_natural_peo(G, peo)
        report = verify_isf_nbc(relabeled)
        assert report.passed
        assert report.boolean_facts["natural_order_is_peo"]
        assert report.boolean_facts["isf_equals_nbc_all_sizes"]


def test_structure_helpers():
    assert has_triangle(complete_graph(3))
    assert not has_triangle(cycle_graph(4))
    assert is_bipartite(cycle_graph(4))
    assert not is_bipartite(cycle_graph(5))
    assert has_triangle(house_graph())


def test_has_triangle_looks_only_at_edge_endpoints():
    # on 10**7 vertices a neighbour set per vertex would take seconds
    n = 10**7
    start = time.perf_counter()
    assert has_triangle(Graph(n, [(1, n), (5, n), (1, 5), (2, 3)]))
    assert not has_triangle(Graph(n, [(1, 2), (2, 3), (3, n), (1, n)]))
    assert not has_triangle(Graph(n, []))
    assert time.perf_counter() - start < 1

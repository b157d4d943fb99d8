"""The small value classes: constructors, equality, hashing, immutability,
repr, truth value and pickling, as the verify operations and the CLI use
them."""

import copy
import pickle

import pytest

from isfkit.arrangement import (
    Arrangement,
    LabeledMultigraph,
    PerfectLabelingResult,
    _lattice_of,
    build_arrangement,
    characteristic_polynomial,
    multigraph_isf_polynomial,
    topology_report,
    verify_isf_chi,
)
from isfkit.errors import InputError
from isfkit.graphcore import Graph, nbc_sets
from isfkit.patterns import Pattern, QPOResult
from isfkit.polycore import IntPolynomial
from isfkit.report import IdentityCheck, Report
from isfkit.simplicial import (
    PureComplex,
    SpanningSubcomplex,
    cage_free_subcomplexes,
    has_leaf,
    is_simplicial_peo,
    phi_partition,
    upper_links,
    verify_product_formula,
)

from helpers import anchored_multigraph, bipyramid, fan_complex


def _arrangement():
    return build_arrangement(anchored_multigraph())


# (class, positional fields, the same fields by keyword)
_FROZEN = [
    (IdentityCheck, ("chi", IntPolynomial((0, 1)), 3),
     {"name": "chi", "left": IntPolynomial((0, 1)), "right": 3}),
    (Pattern, ((2, 3, 1),), {"perm": (2, 3, 1)}),
    (QPOResult, (False, (1, 2, 3, 4)), {"ok": False, "witness": (1, 2, 3, 4)}),
    (PerfectLabelingResult, (False, 2, (3, 4)),
     {"ok": False, "failed_condition": 2, "witness": (3, 4)}),
    (Arrangement, (_arrangement().dim, _arrangement().normals, True),
     {"dim": _arrangement().dim, "normals": _arrangement().normals, "real_flag": True}),
    (IntPolynomial, ((4, 8, 5, 1),), {"coeffs": (4, 8, 5, 1)}),
]
_IDS = [cls.__name__ for cls, _, _ in _FROZEN]


@pytest.mark.parametrize("cls, args, kwargs", _FROZEN, ids=_IDS)
def test_positional_and_keyword_construction_agree(cls, args, kwargs):
    a, b = cls(*args), cls(**kwargs)
    assert a == b and not a != b
    for name, value in kwargs.items():
        assert getattr(a, name) == value


@pytest.mark.parametrize("cls, args, kwargs", _FROZEN, ids=_IDS)
def test_assignment_and_deletion_raise_attribute_error(cls, args, kwargs):
    value = cls(*args)
    for name in kwargs:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value == cls(*args)


@pytest.mark.parametrize("cls, args, kwargs", _FROZEN, ids=_IDS)
def test_pickle_and_copy_keep_the_fields(cls, args, kwargs):
    value = cls(*args)
    for clone in (copy.copy(value), copy.deepcopy(value),
                  pickle.loads(pickle.dumps(value))):
        assert type(clone) is cls and clone == value


def test_graph_and_multigraph_fields_refuse_assignment_and_copies_keep_what_is_kept():
    # a graph assigned new edges would keep the NBC counts of the old ones
    G = Graph(3, [(1, 2), (1, 3), (2, 3)])
    assert nbc_sets(G) == {0: 1, 1: 3, 2: 2}
    for name, value in (("n", 2), ("edges", frozenset({(1, 2)}))):
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(G, name, value)
        with pytest.raises(AttributeError):
            delattr(G, name)
    assert (G.n, G.edges) == (3, {(1, 2), (1, 3), (2, 3)})
    assert nbc_sets(G) == {0: 1, 1: 3, 2: 2}
    for twin in (copy.copy(G), copy.deepcopy(G), pickle.loads(pickle.dumps(G))):
        assert type(twin) is Graph and twin == G
        assert hash(twin) == hash(G) and repr(twin) == repr(G)
        assert twin._nbc == {0: 1, 1: 3, 2: 2} and nbc_sets(twin) == nbc_sets(G)
        with pytest.raises(AttributeError):
            twin.edges = frozenset()
    M = anchored_multigraph()
    assert verify_isf_chi(M).passed
    chi = characteristic_polynomial(_lattice_of(M))
    for name in ("n", "zero_edges", "labeled_edges"):
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(M, name, getattr(LabeledMultigraph(1), name))
        with pytest.raises(AttributeError):
            delattr(M, name)
    for twin in (copy.copy(M), copy.deepcopy(M), pickle.loads(pickle.dumps(M))):
        assert type(twin) is LabeledMultigraph and repr(twin) == repr(M)
        assert twin.edge_list() == M.edge_list()
        assert twin._arrangement == M._arrangement == build_arrangement(M)
        assert twin._lattice is not None
        assert twin._isf == M._isf == IntPolynomial((4, 8, 5, 1))
        assert twin._perfect == M._perfect == PerfectLabelingResult(True)
        assert characteristic_polynomial(_lattice_of(twin)) == chi
        with pytest.raises(AttributeError):
            twin.n = 4
    # a complex assigned new facets would keep the ridge masks of the old ones
    D = PureComplex(4, 2, [(1, 2, 3), (1, 2, 4)])
    masks = dict(D._ridge_masks())
    assert set(masks) == {(1, 2, 3), (1, 2, 4)}
    for name, value in (("n", 5), ("d", 1), ("facets", frozenset({(1, 2, 3)}))):
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(D, name, value)
        with pytest.raises(AttributeError):
            delattr(D, name)
    assert D._ridge_masks() == masks
    for twin in (copy.copy(D), copy.deepcopy(D), pickle.loads(pickle.dumps(D))):
        assert type(twin) is PureComplex and twin == D
        assert hash(twin) == hash(D) and repr(twin) == repr(D)
        assert twin._masks == masks
        with pytest.raises(AttributeError):
            twin.facets = frozenset()


def test_a_kept_isf_polynomial_refuses_assignment_and_copies_keep_its_hash():
    # the multigraph returns its kept polynomial itself: assigning its
    # coefficients once corrupted every later call and verify_isf_chi
    M = anchored_multigraph()
    p = multigraph_isf_polynomial(M)
    assert p is M._isf
    with pytest.raises(AttributeError, match="^cannot assign to field 'coeffs'$"):
        p.coeffs = (1,)
    with pytest.raises(AttributeError, match="^cannot delete field 'coeffs'$"):
        del p.coeffs
    with pytest.raises(AttributeError):
        p.degree_bound = 3  # no new attribute either
    assert multigraph_isf_polynomial(M).coeffs == (4, 8, 5, 1)
    assert verify_isf_chi(M).passed
    for twin in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
        assert type(twin) is IntPolynomial and twin == p and hash(twin) == hash(p)
        assert {twin: 1}[p] == 1


def _filled_graph():
    G = Graph(3, [(1, 2), (1, 3), (2, 3)])
    nbc_sets(G)
    return G


def _filled_multigraph():
    M = anchored_multigraph()
    verify_isf_chi(M), topology_report(M)
    return M


def _filled_complex():
    D = bipyramid()
    verify_product_formula(D), D._ridge_masks()
    return D


def _kept_value(value):
    # a kept lattice is a plain object: compare what it holds
    return vars(value) if hasattr(value, "__dict__") else value


@pytest.mark.parametrize("make, fill", [
    (lambda: Graph(3, [(1, 2)]), _filled_graph),
    (anchored_multigraph, _filled_multigraph),
    (bipyramid, _filled_complex),
], ids=["Graph", "LabeledMultigraph", "PureComplex"])
def test_every_kept_slot_is_set_at_construction_and_carried_by_copies(make, fill):
    # a slot that __init__ leaves unset cannot be read, pickled or copied
    slots = [s for s in make().__slots__ if s[0] == "_"]
    fresh = make()
    for slot in slots:
        getattr(fresh, slot)
    for twin in (copy.copy(fresh), copy.deepcopy(fresh), pickle.loads(pickle.dumps(fresh))):
        assert [getattr(twin, s) for s in slots] == [getattr(fresh, s) for s in slots]
    # the filling calls reach every kept slot, and copies carry each value over
    filled = fill()
    assert [s for s in slots if getattr(filled, s) is None] == []
    for twin in (copy.copy(filled), copy.deepcopy(filled),
                 pickle.loads(pickle.dumps(filled))):
        for slot in slots:
            assert _kept_value(getattr(twin, slot)) == _kept_value(getattr(filled, slot)), slot


def test_subcomplex_fields_refuse_assignment_and_copies_keep_the_masks():
    # a subcomplex given other kept facets would keep the ridge masks and
    # free ridges of the old ones
    D = PureComplex(4, 2, [(1, 2, 3), (1, 2, 4), (1, 3, 4)])
    ridge = D._ridge_masks()
    built = [u for u in cage_free_subcomplexes(D) if len(u.kept_facets) == 2]
    for upsilon in (SpanningSubcomplex(D, [(1, 2, 3), (1, 2, 4)]), *built):
        kept = upsilon.kept_facets
        for name, value in (("parent", PureComplex(4, 2)),
                            ("kept_facets", frozenset({(1, 3, 4)}))):
            with pytest.raises(AttributeError):
                setattr(upsilon, name, value)
            with pytest.raises(AttributeError):
                delattr(upsilon, name)
        assert upsilon.parent is D and upsilon.kept_facets == kept
        assert has_leaf(upsilon)
        masks = sorted(ridge[f] for f in kept)
        assert sorted(upsilon._masks) == masks
        # the free ridges are those of exactly one kept facet
        assert upsilon._free == masks[0] ^ masks[1]
        for twin in (copy.copy(upsilon), copy.deepcopy(upsilon),
                     pickle.loads(pickle.dumps(upsilon))):
            assert type(twin) is SpanningSubcomplex and repr(twin) == repr(upsilon)
            assert twin.kept_facets == kept and twin.parent == D
            assert sorted(twin._masks) == masks and twin._free == upsilon._free
            with pytest.raises(AttributeError):
                twin.kept_facets = frozenset()


def test_a_complex_keeps_its_upper_links_apart_from_what_callers_get():
    # the links, effective peaks, touched graphs and blocks are kept once per
    # complex; what upper_links and phi_partition return is the caller's own
    for early in (True, False):
        D = bipyramid()
        expected = verify_product_formula(bipyramid()).to_json()
        if early:  # mutate before the complex fills its slot
            links, effective = upper_links(D)
            links.clear(), effective.clear(), phi_partition(D).clear()
        assert verify_product_formula(D).to_json() == expected and is_simplicial_peo(D)
        kept = D._links
        assert kept is not None
        links, effective = upper_links(D)
        blocks = phi_partition(D)
        assert (links, effective, blocks) == (kept[0], kept[1], kept[3])
        assert links is not kept[0] and effective is not kept[1] and blocks is not kept[3]
        links.clear(), effective.append((9,)), blocks.clear()
        assert verify_product_formula(D).to_json() == expected and is_simplicial_peo(D)
        assert D._links is kept and len(kept[3]) == 5 and kept[1] == [(1,), (2,), (3,)]
        for twin in (copy.copy(D), copy.deepcopy(D), pickle.loads(pickle.dumps(D))):
            assert type(twin) is PureComplex and twin == D and hash(twin) == hash(D)
            assert twin._links == kept
            assert verify_product_formula(twin).to_json() == expected
        # a relabeled complex is a new object with a slot of its own
        assert not is_simplicial_peo(D, [5, 3, 2, 4, 1])
        assert D._links is kept and D.relabeled([1, 2, 3, 4, 5])._links is None


def test_frozen_equality_is_field_wise_and_hash_follows_it():
    assert IdentityCheck("a", 1, 2) == IdentityCheck("a", 1, 2)
    assert IdentityCheck("a", 1, 2) != IdentityCheck("a", 2, 1)
    assert hash(IdentityCheck("a", 1, 2)) == hash(IdentityCheck("a", 1, 2))
    assert Pattern((2, 3, 1)) == Pattern([2, 3, 1]) != Pattern((3, 1, 2))
    assert len({Pattern((2, 3, 1)), Pattern([2, 3, 1]), Pattern((3, 2, 1))}) == 2
    assert QPOResult(True) == QPOResult(True, None) != QPOResult(False)
    assert hash(QPOResult(False, (1, 2))) == hash(QPOResult(False, (1, 2)))
    assert PerfectLabelingResult(True) == PerfectLabelingResult(True, None, None)
    assert PerfectLabelingResult(False, 1) != PerfectLabelingResult(False, 2)
    assert hash(PerfectLabelingResult(False, 3, (1, 2))) == hash(
        PerfectLabelingResult(False, 3, (1, 2)))
    A = _arrangement()
    assert A == build_arrangement(anchored_multigraph())
    assert hash(A) == hash(build_arrangement(anchored_multigraph()))
    assert A != Arrangement(A.dim, A.normals, not A.real_flag)
    empty = build_arrangement(LabeledMultigraph(2))
    assert empty == Arrangement(2, (), True) and empty != A
    assert phi_partition(fan_complex()) == phi_partition(fan_complex())


def test_equality_needs_the_same_class():
    # the same fields under another class compare unequal, not by value
    assert QPOResult(True) != PerfectLabelingResult(True)
    assert IdentityCheck("a", 1, 2) != ("a", 1, 2)
    assert Pattern((1,)) != (1,)


def test_pattern_validates_and_stores_a_tuple():
    assert Pattern([2, 3, 1]).perm == (2, 3, 1)
    assert len(Pattern((2, 3, 1))) == 3
    for bad in ((1, 1), (0, 1), (2, 3), ("1",), (1.0,)):
        with pytest.raises(InputError):
            Pattern(bad)


def test_reprs():
    assert repr(Pattern((2, 3, 1))) == "Pattern(231)"
    assert repr(IdentityCheck("x", 1, [2])) == "IdentityCheck(name='x', left=1, right=[2])"
    assert repr(QPOResult(True)) == "QPOResult(ok=True, witness=None)"
    assert repr(PerfectLabelingResult(False, 1, (1, 2))) == (
        "PerfectLabelingResult(ok=False, failed_condition=1, witness=(1, 2))")
    A = _arrangement()
    assert repr(A) == f"Arrangement(dim={A.dim}, normals={A.normals!r}, real_flag=True)"
    assert repr(Report()) == (
        "Report(passed=True, identity_checks=[], boolean_facts={}, witnesses={})")
    report = Report(False)
    report.check("c", 1, 1)
    assert repr(report) == (
        "Report(passed=False, identity_checks=[IdentityCheck(name='c', left=1, "
        "right=1)], boolean_facts={}, witnesses={})")


def test_truth_value_of_the_results_is_ok():
    assert QPOResult(True) and not QPOResult(False, (1, 2, 3, 4))
    assert PerfectLabelingResult(True) and not PerfectLabelingResult(False, 1, ())


def test_phi_partition_counts_its_blocks():
    # the partition is its block dict, and N, the block count, its length
    blocks = phi_partition(PureComplex(4, 2, [(1, 2, 3), (1, 2, 4)]))
    assert blocks == {((1,), 3): frozenset({(1, 2, 3)}),
                      ((1,), 4): frozenset({(1, 2, 4)})}
    assert len(blocks) == 2
    assert phi_partition(PureComplex(3, 2)) == {}


def test_identity_check_equal_compares_the_sides():
    assert IdentityCheck("a", IntPolynomial((1, 1)), IntPolynomial((1, 1))).equal
    assert not IdentityCheck("a", 1, 2).equal


def test_report_defaults_are_not_shared():
    a, b = Report(), Report()
    a.check("c", 1, 2, expect_equal=True)
    a.fact("f", True)
    a.witnesses["w"] = 1
    assert (a.passed, len(a.identity_checks), a.boolean_facts, a.witnesses) == (
        False, 1, {"f": True}, {"w": 1})
    assert b == Report() and b.passed
    assert b.identity_checks == [] and b.boolean_facts == {} and b.witnesses == {}
    assert a.identity_checks is not b.identity_checks
    assert a.boolean_facts is not b.boolean_facts
    assert a.witnesses is not b.witnesses


def test_report_is_mutable_unhashable_and_compared_field_wise():
    a, b = Report(), Report()
    assert a == b
    a.passed = False
    assert a != b
    b.passed = False
    assert a == b
    with pytest.raises(TypeError):
        hash(a)
    assert Report(True, [], {}, {}) == Report(passed=True, identity_checks=[],
                                              boolean_facts={}, witnesses={})


def test_report_fields_by_keyword_to_json():
    report = Report(witnesses={"b": [3, 1], "a": {2: IntPolynomial((0, 1))},
                               "c": frozenset({(2, 1), (1, 2)}), "d": None})
    assert report.to_json() == {
        "passed": True,
        "identity_checks": [],
        "boolean_facts": {},
        "witnesses": {"a": {"2": ["0", "1"]}, "b": [3, 1],
                      "c": [[1, 2], [2, 1]], "d": None},
    }
    assert list(report.to_json()["witnesses"]) == ["a", "b", "c", "d"]


def test_report_to_json_of_checks_and_facts():
    report = Report()
    report.check("p", IntPolynomial((1, 2)), IntPolynomial((1, 2)), expect_equal=True)
    report.check("q", 1, 2, expect_equal=False)
    report.fact("z", 1)
    report.fact("y", 0)
    assert report.passed
    assert report.to_json() == {
        "passed": True,
        "identity_checks": [
            {"name": "p", "left": ["1", "2"], "right": ["1", "2"], "equal": True},
            {"name": "q", "left": 1, "right": 2, "equal": False},
        ],
        "boolean_facts": {"y": False, "z": True},
        "witnesses": {},
    }
    report.fact("x", False, required=True)
    assert not report.passed and not report.to_json()["passed"]

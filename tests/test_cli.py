import contextlib
import importlib
import io
import itertools
import json
import os
import pkgutil
import re
import resource
import subprocess
import sys
import tempfile
import time
from math import comb, prod
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import isfkit
from isfkit import cli, graphcore, simplicial
from isfkit.cli import gen_complex, gen_graph, gen_multigraph, run
from isfkit.arrangement import LabeledMultigraph
from isfkit.errors import BudgetExceededError, InputError
from isfkit.graphcore import Graph, is_peo, isf_polynomial
from isfkit.patterns import Pattern, RootedLabeledForest
from isfkit.polycore import IntPolynomial
from isfkit.simplicial import PureComplex, SpanningSubcomplex, upper_link, upper_links

from helpers import (
    anchored_multigraph,
    bipyramid,
    house_graph,
    oracle_acyclic_orientation_count,
    oracle_coloring_count,
    paw_peo,
    tetrahedron_boundary,
)


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def invoke(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_graph_isf_prints_coefficient_array(tmp_path, capsys):
    path = write(tmp_path, "g.json", paw_peo().to_json())
    code, out, _ = invoke(capsys, ["graph", "isf", path])
    assert code == 0
    assert out.strip() == '["0","2","5","4","1"]'


def test_graph_isf_weighted(tmp_path, capsys):
    path = write(tmp_path, "g.json", Graph(2, [(1, 2)]).to_json())
    code, out, _ = invoke(capsys, ["graph", "isf", path, "--weighted"])
    assert code == 0
    terms = json.loads(out)
    assert {"monomial": [[1, 2]], "tpow": 1, "coeff": "1"} in terms


def test_graph_chromatic_and_nbc(tmp_path, capsys):
    path = write(tmp_path, "g.json", paw_peo().to_json())
    code, out, _ = invoke(capsys, ["graph", "chromatic", path])
    assert code == 0 and json.loads(out) == ["0", "-2", "5", "-4", "1"]
    code, out, _ = invoke(capsys, ["graph", "nbc", path])
    assert code == 0 and json.loads(out) == {"0": 1, "1": 4, "2": 5, "3": 2}


def test_graph_nbc_counts_a_long_path_and_a_grid(tmp_path, capsys):
    # both are past the 25-edge budget of the walks
    path = write(tmp_path, "p.json",
                 Graph(200, [(i, i + 1) for i in range(1, 200)]).to_json())
    code, out, err = invoke(capsys, ["graph", "nbc", path])
    assert code == 0 and err == "ok\n"
    assert json.loads(out) == {str(m): comb(199, m) for m in range(200)}
    cell = {(i, j): 7 * i + j + 1 for i in range(7) for j in range(7)}
    edges = [(cell[i, j], cell[i, j + 1]) for i in range(7) for j in range(6)]
    edges += [(cell[i, j], cell[i + 1, j]) for i in range(6) for j in range(7)]
    grid = write(tmp_path, "grid.json", Graph(49, edges).to_json())
    code, out, err = invoke(capsys, ["graph", "nbc", grid])
    assert code == 0 and err == "ok\n"
    counts = json.loads(out)
    # a spanning tree has 48 edges; every 0-, 1- and 2-edge set is NBC, as
    # the shortest cycle has four edges
    assert sorted(map(int, counts)) == list(range(49))
    assert counts["0"] == 1 and counts["1"] == 84 and counts["2"] == comb(84, 2)


def test_graph_nbc_counts_k8_on_any_labels(tmp_path, capsys):
    # K8 has 28 edges, past the walks' budget; the transfer counts it the
    # same on the labels 1..8 and on the last eight of 10**7
    expected = {"0": 1, "1": 28, "2": 322, "3": 1960, "4": 6769, "5": 13132,
                "6": 13068, "7": 5040}
    for shift in (0, 10**7 - 8):
        K8 = Graph(shift + 8, [(i + shift, j + shift)
                               for i, j in itertools.combinations(range(1, 9), 2)])
        path = write(tmp_path, f"k8-{shift}.json", K8.to_json())
        code, out, err = invoke(capsys, ["graph", "nbc", path])
        assert code == 0 and err == "ok\n"
        assert list(json.loads(out).items()) == list(expected.items())


def test_graph_nbc_over_a_tiny_budget_exits_two(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "g.json", Graph(4, itertools.combinations(range(1, 5), 2)).to_json())
    monkeypatch.setattr(graphcore, "_TABLE_BUDGET", 4)
    code, out, err = invoke(capsys, ["graph", "nbc", path])
    assert code == 2 and out == ""
    assert err.splitlines() == ["input error: NBC transfer table exceeds its budget of 4 states"]
    monkeypatch.setattr(graphcore, "_TABLE_BUDGET", 5)
    code, out, _ = invoke(capsys, ["graph", "nbc", path])
    assert code == 0 and json.loads(out) == {"0": 1, "1": 6, "2": 11, "3": 6}


@pytest.mark.parametrize("action", ["tf", "roots"])
def test_forest_transfer_over_a_tiny_budget_exits_two(tmp_path, capsys, monkeypatch, action):
    # K4's tight-forest transfer peaks at 6 states, in every labeling
    path = write(tmp_path, "k4.json", Graph(4, itertools.combinations(range(1, 5), 2)).to_json())
    monkeypatch.setattr(graphcore, "_TABLE_BUDGET", 4)
    code, out, err = invoke(capsys, ["forest", action, path])
    assert code == 2 and out == ""
    assert err.splitlines() == [
        "input error: tight-forest transfer table exceeds its budget of 4 states"]
    monkeypatch.setattr(graphcore, "_TABLE_BUDGET", 6)
    code, out, _ = invoke(capsys, ["forest", action, path])
    assert code == 0 and out


@pytest.mark.parametrize(
    "kind, action, edge, message",
    [
        ("graph", "isf", [1, 1], "edge (1,1) is a loop"),
        ("graph", "isf", [2, 1], "edge (2,1) must list its smaller endpoint first"),
        ("graph", "isf", [1, 3], "edge (1,3) out of range for n=2"),
        ("multigraph", "chi", [1, 1], "labeled edge (1,1) is a loop"),
        ("multigraph", "chi", [2, 1],
         "labeled edge (2,1) must list its smaller endpoint first"),
        ("multigraph", "chi", [0, 1], "labeled edge (0,1) out of range for n=2"),
    ],
    ids=["graph-loop", "graph-reversed", "graph-range", "multigraph-loop",
         "multigraph-reversed", "multigraph-range"],
)
def test_a_loop_and_a_reversed_edge_get_their_own_refusal(tmp_path, capsys, kind, action,
                                                          edge, message):
    if kind == "graph":
        payload = {"n": 2, "edges": [edge]}
    else:
        payload = {"n": 2, "zero_edges": [], "edges": [[*edge, {"re": "1"}]]}
    code, out, err = invoke(capsys, [kind, action, write(tmp_path, "e.json", payload)])
    assert code == 2 and out == ""
    assert err.splitlines() == [f"input error: {message}"]


def test_graph_peo_with_and_without_ordering(tmp_path, capsys):
    path = write(tmp_path, "g.json", paw_peo().to_json())
    code, out, _ = invoke(capsys, ["graph", "peo", path, "--ordering", "[1,2,3,4]"])
    assert code == 0 and json.loads(out) == {"is_peo": True}
    code, out, _ = invoke(capsys, ["graph", "peo", path])
    assert code == 0 and json.loads(out)["chordal"] is True


def test_graph_verify_exit_zero(tmp_path, capsys):
    path = write(tmp_path, "g.json", paw_peo().to_json())
    code, out, err = invoke(capsys, ["graph", "verify", path])
    assert code == 0
    assert json.loads(out)["passed"] is True
    assert err.strip() == "ok"


def test_malformed_json_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("not json at all")
    code, out, err = invoke(capsys, ["graph", "isf", str(bad)])
    assert code == 2
    assert out == ""
    assert "input error" in err


@pytest.mark.parametrize(
    "kind, action, payload",
    [
        ("graph", "isf", {"n": 3, "edges": [[1, 5]]}),
        ("graph", "isf", {"n": 2, "edges": [["a", 2]]}),
        ("complex", "cf", {"n": 3, "d": 2, "facets": 5}),
        ("graph", "isf", {"n": 2, "edges": [[1.7, 2.2]]}),
        ("graph", "isf", {"n": True, "edges": []}),
        ("complex", "cf", {"n": 4, "d": 2.0, "facets": [[1, 2, 3]]}),
        ("complex", "cf", {"n": 4, "d": 2, "facets": [[1, 2, "3"]]}),
        ("multigraph", "isf",
         {"n": 2, "zero_edges": [1.9], "edges": [[1, 2.5, {"re": "1"}]]}),
        ("multigraph", "chi", {"n": "2", "zero_edges": [True], "edges": []}),
        ("multigraph", "isf", {"n": 2, "zero_edges": 5, "edges": []}),
        ("multigraph", "isf", {"n": 2, "zero_edges": [], "edges": 7}),
        ("multigraph", "chi", {"n": 2, "zero_edges": [1, 1], "edges": []}),
        ("multigraph", "isf", {"n": 2, "zero_edges": [1, 1], "edges": []}),
        ("graph", "isf", {"n": 2, "edges": [[1, 2], [1, 2]]}),
        ("graph", "verify", {"n": 3, "edges": [[1, 2], [2, 3], [1, 2]]}),
        ("complex", "cf", {"n": 3, "d": 1, "facets": [[1, 2], [1, 2], [2, 3]]}),
        ("complex", "cf", {"n": 4, "d": 2, "facets": [[1, 2, 3], [2, 3, 4], [3, 1, 2]]}),
        ("forest", "tight", {"labels": [1], "parents": [1]}),
        ("forest", "tight",
         {"labels": ["1", 2.0], "parents": {"1": None, "2": 1}}),
    ],
    ids=[
        "edge-out-of-range",
        "string-endpoint",
        "facets-not-a-list",
        "float-edge",
        "bool-vertex-count",
        "float-dimension",
        "string-facet-vertex",
        "float-multigraph-endpoints",
        "string-n-bool-zero-edge",
        "zero-edges-not-a-list",
        "multigraph-edges-not-a-list",
        "repeated-zero-edge-chi",
        "repeated-zero-edge-isf",
        "repeated-edge-isf",
        "repeated-edge-verify",
        "repeated-facet-cf",
        "reordered-facet-cf",
        "parents-not-an-object",
        "non-int-forest-labels",
    ],
)
def test_schema_violation_exits_two(tmp_path, capsys, kind, action, payload):
    path = write(tmp_path, "in.json", payload)
    code, out, err = invoke(capsys, [kind, action, path])
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("input error:")


def test_missing_file_exits_two(capsys):
    code, _, err = invoke(capsys, ["graph", "isf", "/nonexistent/g.json"])
    assert code == 2


def test_nonpositive_budget_rejected(tmp_path, capsys):
    # the budgets are the library's: no command takes --budget, whatever
    # its value
    path = write(tmp_path, "g.json", paw_peo().to_json())
    for value in ("0", "25"):
        code, out, err = invoke(capsys, ["graph", "verify", path, "--budget", value])
        assert code == 2 and out == ""
        assert err.splitlines() == [f"input error: unrecognized arguments: --budget {value}"]


# every flag any command took at some point, with a value for each that
# takes one
_FLAG_VALUES = {"--weighted": [], "--ordering": ["[0]"], "--budget": ["200"],
                "--s": ["1"], "--p": ["0.5"], "--max-edges": ["3"]}
_UNREAD = [(kind, action, flag) for kind, actions in cli._FLAGS.items()
           for action, read in actions.items()
           for flag in _FLAG_VALUES if flag not in read]
_INSTANCES = {"graph": paw_peo().to_json(), "complex": tetrahedron_boundary().to_json(),
              "multigraph": anchored_multigraph().to_json(), "forest": house_graph().to_json(),
              "tight": {"labels": [1, 2], "parents": {"1": None, "2": 1}}}


@pytest.mark.parametrize("kind, action, flag", _UNREAD,
                         ids=[f"{kind}-{action}{flag}" for kind, action, flag in _UNREAD])
def test_a_flag_the_action_does_not_read_exits_two(tmp_path, capsys, kind, action, flag):
    if kind == "gen":
        argv = ["gen", action, "--seed", "1", "--n", "3"]
    else:
        instance = _INSTANCES["tight" if action == "tight" else kind]
        argv = [kind, action, write(tmp_path, "in.json", instance)]
    code, out, err = invoke(capsys, [*argv, flag, *_FLAG_VALUES[flag]])
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("input error:") and flag in lines[0]


def test_each_kind_offers_only_the_flags_its_actions_read(capsys):
    offered = {}
    for kind in cli._FLAGS:
        with pytest.raises(SystemExit) as exc:
            run([kind, "-h"])
        assert exc.value.code == 0
        offered[kind] = set(re.findall(r"--[a-z-]+", capsys.readouterr().out)) - {"--help"}
    assert offered == {"graph": {"--weighted", "--ordering"},
                       "complex": {"--weighted", "--ordering"},
                       "multigraph": {"--s"}, "forest": set(),
                       "gen": {"--seed", "--n", "--p", "--max-edges"}}
    with pytest.raises(SystemExit) as exc:
        run(["-h"])
    assert exc.value.code == 0 and capsys.readouterr().out.startswith("usage: isfkit")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["graph", "isf", "{path}", "--wat"], "unrecognized arguments: --wat"),
        (["multigraph", "signed", "{path}", "--s", "x"],
         "argument --s: invalid int value: 'x'"),
        (["graph", "isf"], "the following arguments are required: input"),
        ([], "the following arguments are required: kind"),
        (["tree", "isf", "{path}"], "argument kind: invalid choice: 'tree' "
         "(choose from 'graph', 'complex', 'multigraph', 'forest', 'gen')"),
        (["forest", "chi", "{path}"], "argument action: invalid choice: 'chi' "
         "(choose from 'tf', 'qpo', 'verify', 'roots', 'tight')"),
        (["gen", "tree", "--seed", "1", "--n", "3"], "argument action: invalid "
         "choice: 'tree' (choose from 'graph', 'complex', 'multigraph')"),
        (["gen", "graph", "--n", "3"], "the following arguments are required: --seed"),
        (["gen", "graph", "--seed", "1", "--n", "3", "--p", "x"],
         "argument --p: invalid float value: 'x'"),
        (["gen", "graph", "--seed", "1", "--n", "3", "--p", "2"],
         "p=2.0 is not a probability in [0, 1]"),
        (["gen", "graph", "--seed", "1", "--n", "3", "--p", "inf"],
         "p=inf is not a probability in [0, 1]"),
        (["gen", "graph", "--seed", "1", "--n", "3", "--p", "nan"],
         "p=nan is not a probability in [0, 1]"),
        (["gen", "complex", "--seed", "1", "--n", "3", "--p", "-0.5"],
         "p=-0.5 is not a probability in [0, 1]"),
        (["gen", "multigraph", "--seed", "1", "--n", "3", "--max-edges", "-3"],
         "max_edges=-3 is negative"),
    ],
    ids=["unknown-flag", "bad-int", "missing-input", "missing-kind", "unknown-kind",
         "unknown-action", "unknown-target", "missing-seed", "bad-float",
         "p-above-one", "p-infinite", "p-nan", "p-negative", "negative-max-edges"],
)
def test_usage_errors_exit_two_with_one_line(tmp_path, capsys, argv, message):
    path = write(tmp_path, "g.json", paw_peo().to_json())
    code, out, err = invoke(capsys, [a.format(path=path) for a in argv])
    assert code == 2 and out == ""
    assert err.splitlines() == [f"input error: {message}"]


def test_forest_tf_refuses_budget_on_a_120_vertex_tree_at_once(tmp_path):
    # the heap-ordered binary tree: the flag once opened the tight-forest
    # transfer to its 119 edges, which ran out of memory
    tree = Graph(120, [(k // 2, k) for k in range(2, 121)])
    path = write(tmp_path, "tree.json", tree.to_json())
    for extra, message in (
        (["--budget", "200"], "unrecognized arguments: --budget 200"),
        ([], "119 edges exceeds the enumeration budget 25"),
    ):
        start = time.perf_counter()
        proc = run_child("-m", "isfkit.cli", "forest", "tf", path, *extra,
                         preexec_fn=_limit_address_space_to_1_gib, timeout=20)
        assert time.perf_counter() - start < 1
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.splitlines() == [f"input error: {message}"]


def test_readme_cli_block_lists_each_command_with_exactly_its_flags():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    listed = [(line.split()[1], line.split()[2], set(re.findall(r"--[a-z-]+", line)))
              for line in block.splitlines() if line.startswith("isfkit ")]
    table = [(kind, action, set(flags)) for kind, actions in cli._FLAGS.items()
             for action, flags in actions.items()]
    assert listed == table


def test_complex_actions(tmp_path, capsys):
    path = write(tmp_path, "c.json", bipyramid().to_json())
    code, out, _ = invoke(capsys, ["complex", "cf", path])
    assert code == 0 and json.loads(out) == ["2", "9", "16", "14", "6", "1"]
    code, out, _ = invoke(capsys, ["complex", "cf", path, "--weighted"])
    assert code == 0
    terms = json.loads(out)
    assert {"monomial": [], "tpow": 5, "coeff": "1"} in terms
    code, out, _ = invoke(capsys, ["complex", "links", path])
    assert code == 0
    payload = json.loads(out)
    assert payload["effective_peaks"] == [[1], [2], [3]]
    code, out, _ = invoke(capsys, ["complex", "peo", path])
    assert code == 0 and json.loads(out) == {"is_peo": True}
    code, out, _ = invoke(
        capsys, ["complex", "peo", path, "--ordering", "[5,3,2,4,1]"]
    )
    assert code == 0 and json.loads(out) == {"is_peo": False}
    code, out, _ = invoke(capsys, ["complex", "verify", path])
    assert code == 0 and json.loads(out)["passed"] is True


def test_multigraph_actions(tmp_path, capsys):
    path = write(tmp_path, "m.json", anchored_multigraph().to_json())
    code, out, _ = invoke(capsys, ["multigraph", "chi", path])
    payload = json.loads(out)
    assert code == 0
    assert payload["chi"] == ["-4", "8", "-5", "1"]
    assert payload["lattice_size"] == 13
    code, out, _ = invoke(capsys, ["multigraph", "isf", path])
    assert code == 0 and json.loads(out) == ["4", "8", "5", "1"]
    code, out, _ = invoke(capsys, ["multigraph", "perfect", path])
    assert code == 0 and json.loads(out) == {"perfectly_labeled": True}
    code, out, _ = invoke(capsys, ["multigraph", "verify", path])
    assert code == 0 and json.loads(out)["passed"] is True
    code, out, _ = invoke(capsys, ["multigraph", "regions", path])
    assert code == 0 and json.loads(out)["witnesses"]["regions"] == 18


def test_multigraph_verify_decides_a_lattice_of_1611_elements(tmp_path, capsys):
    # a 6-vertex path with the labels 2 and 3 on each edge, and four chords
    # labeled 5: 14 hyperplanes, and a lattice past the 600 elements that a
    # budget on supersolvability used to refuse
    edges = [[i, i + 1, {"re": str(p)}] for i in range(1, 6) for p in (2, 3)]
    edges += [[i, j, {"re": "5"}] for i, j in ((1, 3), (1, 5), (2, 4), (4, 6))]
    path = write(tmp_path, "m.json", {"n": 6, "zero_edges": [], "edges": edges})
    code, out, _ = invoke(capsys, ["multigraph", "verify", path])
    report = json.loads(out)
    assert code == 0 and report["passed"] is True
    assert report["witnesses"]["lattice_size"] == 1611


@pytest.mark.parametrize(
    "n, extra, size, regions",
    [(5, [[1, 2, {"re": "2"}]], 280, 960), (6, [], 825, 4320)],
    ids=["K5-and-a-parallel-edge", "K6"],
)
def test_multigraph_verify_and_regions_walk_past_14_atoms(tmp_path, capsys, n, extra,
                                                          size, regions):
    # all-ones labels and zero edges at 1-5: 16 and 20 atoms, which the NBC
    # walks take, as they are capped by their sum |mu| NBC sets, not by atoms
    edges = [[i, j, {"re": "1"}] for i, j in itertools.combinations(range(1, n + 1), 2)]
    path = write(tmp_path, "m.json", {"n": n, "zero_edges": [1, 2, 3, 4, 5],
                                      "edges": edges + extra})
    code, out, _ = invoke(capsys, ["multigraph", "verify", path])
    report = json.loads(out)
    assert code == 0 and report["passed"] is True
    assert report["witnesses"]["lattice_size"] == size
    code, out, _ = invoke(capsys, ["multigraph", "regions", path])
    report = json.loads(out)
    assert code == 0 and report["passed"] is True
    assert report["witnesses"]["regions"] == regions


def test_multigraph_signed(tmp_path, capsys):
    G = {"n": 2, "zero_edges": [], "edges": [[1, 2, {"re": "1", "im": "0"}]]}
    path = write(tmp_path, "s.json", G)
    code, out, _ = invoke(capsys, ["multigraph", "signed", path, "--s", "1"])
    assert code == 0 and json.loads(out) == {"count": 6, "s": 1}
    code, _, _ = invoke(capsys, ["multigraph", "signed", path])
    assert code == 2
    path = write(tmp_path, "n70.json", {"n": 70, "zero_edges": [], "edges": []})
    code, out, _ = invoke(capsys, ["multigraph", "signed", path, "--s", "0"])
    assert code == 0 and json.loads(out) == {"count": 1, "s": 0}


def test_signed_count_past_the_digit_limit_exits_two(tmp_path, capsys):
    # the count 2s + 1 has 4,301 digits, one past the int-to-string limit
    path = write(tmp_path, "n1.json", {"n": 1, "zero_edges": [], "edges": []})
    code, out, err = invoke(capsys, ["multigraph", "signed", path, "--s", "9" * 4300])
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("input error: ")


def _banded(n: int) -> dict:
    """Edges (j, k) for k - 10 <= j < k."""
    return {"n": n, "edges": [[j, k] for k in range(1, n + 1)
                              for j in range(max(1, k - 10), k)]}


def test_graph_isf_refuses_an_unprintable_result_before_expanding_it(tmp_path, capsys):
    # p(1) = 11**4490 * 10! has 4,683 digits; expanding the product takes 20 s
    path = write(tmp_path, "banded.json", _banded(4500))
    start = time.perf_counter()
    code, out, err = invoke(capsys, ["graph", "isf", path])
    assert time.perf_counter() - start < 2
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("input error: result too large to write: ")


def test_graph_isf_refuses_exactly_the_unprintable_results(tmp_path, capsys):
    # at the smallest digit limit, n = 620 passes the limit but is refused
    # only when written, and n = 622 is refused before it is expanded
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        for n in range(616, 625, 2):
            path = write(tmp_path, f"b{n}.json", _banded(n))
            code, out, err = invoke(capsys, ["graph", "isf", path])
            top = max(isf_polynomial(Graph.from_json(_banded(n))).coeffs)
            assert (code == 2) == (top >= 10**640), n
            assert (code, bool(out)) in ((0, True), (2, False)), n
            assert ("a coefficient exceeds" in err) == (n >= 622), (n, err)
    finally:
        sys.set_int_max_str_digits(limit)


def test_signed_rejects_non_sign_labels(tmp_path, capsys):
    G = {"n": 2, "zero_edges": [], "edges": [[1, 2, {"re": "2", "im": "0"}]]}
    path = write(tmp_path, "s.json", G)
    code, _, _ = invoke(capsys, ["multigraph", "signed", path, "--s", "1"])
    assert code == 2


def test_forest_actions(tmp_path, capsys):
    path = write(tmp_path, "h.json", house_graph().to_json())
    code, out, _ = invoke(capsys, ["forest", "tf", path])
    assert code == 0
    code, out, _ = invoke(capsys, ["forest", "qpo", path])
    assert code == 0 and json.loads(out) == {"is_qpo": True}
    code, out, _ = invoke(capsys, ["forest", "verify", path])
    assert code == 0 and json.loads(out)["passed"] is True
    small = write(tmp_path, "p.json", Graph(3, [(1, 2), (2, 3)]).to_json())
    code, out, _ = invoke(capsys, ["forest", "roots", small])
    assert code == 0 and json.loads(out)["passed"] is True


def test_forest_tf_on_a_26_vertex_path_within_the_edge_budget(tmp_path, capsys):
    path = write(tmp_path, "p.json", Graph(26, [(k, k + 1) for k in range(1, 26)]).to_json())
    start = time.perf_counter()
    code, out, _ = invoke(capsys, ["forest", "tf", path])
    assert time.perf_counter() - start < 2
    # every subset of the increasing path's 25 edges is tight: t(t+1)^25
    assert code == 0 and json.loads(out) == ["0", *(str(comb(25, k)) for k in range(26))]
    longer = write(tmp_path, "q.json", Graph(27, [(k, k + 1) for k in range(1, 27)]).to_json())
    code, out, err = invoke(capsys, ["forest", "tf", longer])
    assert code == 2 and out == ""
    assert err.splitlines() == ["input error: 26 edges exceeds the enumeration budget 25"]


def test_forest_tight_parent_map(tmp_path, capsys):
    forest = {"labels": [1, 2, 3], "parents": {"1": None, "3": 1, "2": 3}}
    path = write(tmp_path, "f.json", forest)
    code, out, _ = invoke(capsys, ["forest", "tight", path])
    assert code == 0 and json.loads(out) == {"is_tight": True}
    bad = {"labels": [2, 3], "parents": {"3": None, "2": 3}}
    path = write(tmp_path, "f2.json", bad)
    code, _, _ = invoke(capsys, ["forest", "tight", path])
    assert code == 2


@pytest.mark.parametrize(
    "tail, tight",
    [((1498, 1499, 1500), True), ((1500, 1499, 1498), False)],
    ids=["increasing", "ends-in-321"],
)
def test_forest_tight_on_a_1500_vertex_path(tmp_path, capsys, tail, tight):
    order = [*range(1, 1498), *tail]
    forest = {
        "labels": order,
        "parents": {str(v): u for u, v in zip([None, *order], order)},
    }
    path = write(tmp_path, "path.json", forest)
    code, out, _ = invoke(capsys, ["forest", "tight", path])
    assert code == 0 and json.loads(out) == {"is_tight": tight}


@pytest.mark.parametrize(
    "kind, action, payload, extra",
    [
        ("forest", "tight", {"labels": [1, 2], "parents": {"2": 1, "9": 1}}, []),
        ("forest", "tight", {"labels": [1, 2], "parents": {"02": 1}}, []),
        ("forest", "tight", {"labels": [1, 2, 2], "parents": {"2": 1}}, []),
        ("multigraph", "signed", {"n": 30, "zero_edges": [], "edges": []},
         ["--s", "1"]),
        ("multigraph", "chi", {"n": 2, "zero_edges": [], "edges": [[1, 2, {"re": 1.5}]]},
         []),
        # four facets, past a facet budget of 3
        ("complex", "verify", tetrahedron_boundary().to_json(), []),
    ],
    ids=[
        "parent-key-not-a-label",
        "non-canonical-parent-key",
        "repeated-label",
        "signed-count-over-budget",
        "float-label",
        "complex-verify-over-budget",
    ],
)
def test_coerced_or_over_budget_input_exits_two(
    tmp_path, capsys, monkeypatch, kind, action, payload, extra
):
    monkeypatch.setattr(simplicial, "_FACET_BUDGET", 3)
    path = write(tmp_path, "in.json", payload)
    code, out, err = invoke(capsys, [kind, action, path, *extra])
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("input error:")


_K = PureComplex(3, 2, [(1, 2, 3)])


@pytest.mark.parametrize(
    "kind, action, payload, ordering",
    [
        ("graph", "nbc", Graph(3, [(1, 2), (2, 3)]).to_json(), "[true,false]"),
        ("graph", "peo", paw_peo().to_json(), "[1,2,true,4]"),
        ("complex", "peo", _K.to_json(), "[1,true,3]"),
    ],
    ids=["graph-nbc", "graph-peo", "complex-peo"],
)
def test_boolean_ordering_entries_exit_two(tmp_path, capsys, kind, action, payload, ordering):
    path = write(tmp_path, "in.json", payload)
    code, out, err = invoke(capsys, [kind, action, path, "--ordering", ordering])
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("input error:")


@pytest.mark.parametrize(
    "build",
    [
        lambda: RootedLabeledForest({1: None, 2.7: 1, "3": 2.7}),
        lambda: Pattern((1.9, 2.2)),
        lambda: Graph(2, [(1.7, 2.2)]),
        lambda: PureComplex(3.9, 2, [(1, 2, 3.5)]),
        lambda: LabeledMultigraph(2.5, [1.2], []),
        lambda: Graph(3, [(1, 2, 3)]),
        lambda: is_peo(Graph(2, [(1, 2)]), [1.5, 2.7]),
        lambda: Graph(2, [(1, 2)]).relabeled([2.9, 1.2]),
        lambda: SpanningSubcomplex(_K, [(1.2, 2.9, 3.1)]),
        lambda: _K.relabeled([1.0, 2.5, 3]),
        lambda: upper_link(_K, [1.7]),
        lambda: IntPolynomial([1.7, 2.2]),
        lambda: IntPolynomial([True, "3"]),
    ],
    ids=[
        "forest",
        "pattern",
        "graph",
        "complex",
        "multigraph",
        "three-endpoint-edge",
        "peo-ordering",
        "graph-relabeling",
        "subcomplex-facet",
        "complex-relabeling",
        "upper-link-peak",
        "polynomial-floats",
        "polynomial-bool-and-string",
    ],
)
def test_constructors_reject_non_integers(build):
    with pytest.raises(InputError):
        build()


_TETRAHEDRON_VERIFY = (
    '{"boolean_facts":{"cf_at_most_ao_product":true,'
    '"cf_equals_ao_product_iff_peo":true,"natural_labeling_is_peo":true},'
    '"identity_checks":[{"equal":true,"left":["2","5","4","1"],'
    '"name":"cf_factorization_vs_enumeration","right":["2","5","4","1"]},'
    '{"equal":true,"left":["0","0","0","0","0","2","5","4","1"],'
    '"name":"cf_times_t_gap_vs_isf_product",'
    '"right":["0","0","0","0","0","2","5","4","1"]},'
    '{"equal":true,"left":12,"name":"cage_free_count_vs_isf_count_product",'
    '"right":12}],"passed":true,"structure":{"has_leaf":false,'
    '"is_shifted":true,"lex_min_peak":[1],"lex_min_peak_link_chordal":true,'
    '"link_peo_witness":[1,2,3,4],"top_homology_rank":1},'
    '"witnesses":{"ao_product":12,"cage_free_count":12,'
    '"effective_peaks":[[1],[2]]}}\n'
)


def test_complex_verify_output_within_budget(tmp_path, capsys):
    path = write(tmp_path, "tet.json", tetrahedron_boundary().to_json())
    code, out, _ = invoke(capsys, ["complex", "verify", path])
    assert code == 0 and out == _TETRAHEDRON_VERIFY


def test_complex_verify_on_nine_vertices_counts_links_on_their_own_vertices(
    tmp_path, capsys
):
    # nine vertices, but no upper link touches more than the eight that the
    # orientation cross-check takes
    delta = gen_complex(9, 9, 0.1)
    links, effective = upper_links(delta)
    assert effective and max(
        len({v for e in links[s].edges for v in e}) for s in effective) <= 8
    path = write(tmp_path, "c9.json", delta.to_json())
    code, out, _ = invoke(capsys, ["complex", "verify", path])
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert report["witnesses"]["ao_product"] == prod(
        oracle_acyclic_orientation_count(links[s]) for s in effective)


def test_complex_verify_of_one_facet_of_dimension_19_is_quick(tmp_path):
    # the structure report's shifted test once listed all 2**20 faces of the
    # facet; it reads the facet and its ridges alone
    delta = PureComplex(20, 19, [range(1, 21)])
    path = write(tmp_path, "facet.json", delta.to_json())
    start = time.perf_counter()
    proc = run_child("-m", "isfkit.cli", "complex", "verify", path, timeout=60)
    assert time.perf_counter() - start < 1
    assert proc.returncode == 0 and proc.stderr == "ok\n"
    report = json.loads(proc.stdout)
    assert report["passed"] is True and report["structure"]["is_shifted"] is True
    assert report["witnesses"]["cage_free_count"] == report["witnesses"]["ao_product"] == 2


@pytest.mark.parametrize(
    "content",
    [b'{"labels": [' + b"7" * 5000 + b'], "parents": {}}', b"\xff\xfe{}", None],
    ids=["over-long-integer", "not-utf-8", "directory"],
)
def test_unreadable_input_exits_two(tmp_path, capsys, content):
    path = tmp_path / "in.json"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    code, out, err = invoke(capsys, ["forest", "tight", str(path)])
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("input error:")


_json = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=8,
)
_label = st.integers(min_value=-1, max_value=9)


@settings(deadline=None, max_examples=150)
@given(
    labels=st.lists(_label, max_size=9) | st.lists(_json, max_size=4) | _json,
    parents=st.dictionaries(
        _label.map(str) | st.text(max_size=3),
        st.none() | _label | _json,
        max_size=9,
    )
    | _json,
)
def test_forest_tight_fuzz_exits_zero_or_two(labels, parents):
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "f.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"labels": labels, "parents": parents}, fh)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = run(["forest", "tight", path])
    assert code in (0, 2), err.getvalue()
    assert "Traceback" not in err.getvalue()


def _run_on_json(kind, action, payload, *extra):
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "in.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = run([kind, action, path, *extra])
    return code, err.getvalue()


_complex_actions = st.sampled_from(["cf", "links", "peo", "verify"])


@settings(deadline=None, max_examples=150)
@given(
    action=_complex_actions,
    payload=st.fixed_dictionaries({
        "n": st.integers() | _json,
        "d": _label | _json,
        "facets": st.lists(st.lists(_label | _json, max_size=5), max_size=6) | _json,
    })
    | _json,
)
def test_complex_fuzz_exits_zero_or_two(action, payload):
    code, err = _run_on_json("complex", action, payload)
    assert code in (0, 2), err
    assert "Traceback" not in err


_small = st.integers(min_value=-3, max_value=3)
_rational = (
    _small
    | _small.map(str)
    | st.tuples(_small, st.integers(min_value=1, max_value=4)).map("{0[0]}/{0[1]}".format)
)


@st.composite
def _multigraph_payloads(draw):
    """Well-formed JSON: n from all integers, endpoints from 1..n (so an edge
    i-i is the only bad one when n >= 1), labels mostly nonzero."""
    n = draw(st.integers())
    vertex = st.integers(min_value=1, max_value=max(n, 1))
    label = st.fixed_dictionaries({"re": _rational}, optional={"im": _rational})
    edge = st.tuples(vertex, vertex, label).map(lambda e: [*sorted(e[:2]), e[2]])
    return {
        "n": n,
        "zero_edges": draw(st.lists(vertex, max_size=3)),
        "edges": draw(st.lists(edge, max_size=6)),
    }


@settings(deadline=None, max_examples=200)
@given(
    action=st.sampled_from(["chi", "isf", "perfect", "verify", "regions", "signed"]),
    s=st.integers(min_value=-1, max_value=3),
    payload=_multigraph_payloads()
    | st.fixed_dictionaries({
        "n": st.integers() | _json,
        "zero_edges": st.lists(_label | _json, max_size=4) | _json,
        "edges": st.lists(
            st.tuples(_label, _label, st.fixed_dictionaries({"re": _rational | _json})
                      | _json).map(list)
            | st.lists(_label | _json, max_size=4),
            max_size=6,
        )
        | _json,
    })
    | _json,
)
def test_multigraph_fuzz_exits_zero_or_two(action, s, payload):
    extra = ["--s", str(s)] if action == "signed" else []
    code, err = _run_on_json("multigraph", action, payload, *extra)
    assert code in (0, 2), err
    assert "Traceback" not in err


@st.composite
def _small_complexes(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    d = draw(st.integers(min_value=1, max_value=3))
    faces = list(itertools.combinations(range(1, n + 1), d + 1))
    # at most 12 facets keeps every upper link and the sweep within budget
    facets = draw(st.sets(st.sampled_from(faces), max_size=12)) if faces else set()
    return {"n": n, "d": d, "facets": [list(f) for f in facets]}


@settings(deadline=None, max_examples=40)
@given(action=_complex_actions, payload=_small_complexes())
def test_small_complexes_exit_zero(action, payload):
    code, err = _run_on_json("complex", action, payload)
    assert code == 0, err


def test_graph_chromatic_on_nine_to_fourteen_vertices(tmp_path, capsys):
    for n in range(9, 15):
        for p in (0.3, 0.5, 0.7):
            G = gen_graph(n * 10 + int(p * 10), n, p)
            path = write(tmp_path, f"g{n}-{p}.json", G.to_json())
            code, out, err = invoke(capsys, ["graph", "chromatic", path])
            assert code == 0 and err == "ok\n"
            coeffs = [int(c) for c in json.loads(out)]
            # Whitney: monic of degree n, the next coefficient is -|E|, and
            # the signs alternate
            assert len(coeffs) == n + 1 and coeffs[n] == 1
            assert coeffs[n - 1] == -len(G.edges)
            assert all((-1) ** (n - i) * c >= 0 for i, c in enumerate(coeffs))
            if n <= 10:
                assert IntPolynomial(coeffs)(3) == oracle_coloring_count(G, 3)


@pytest.mark.parametrize("n, closed", [(1000, False), (2000, True)],
                         ids=["1000-vertex-path", "2000-vertex-cycle"])
def test_graph_chromatic_on_a_long_path_or_cycle_never_exits_three(
    tmp_path, capsys, n, closed
):
    edges = [[k, k + 1] for k in range(1, n)] + ([[1, n]] if closed else [])
    path = write(tmp_path, "in.json", {"n": n, "edges": edges})
    code, out, err = invoke(capsys, ["graph", "chromatic", path])
    assert code in (0, 2), err
    if code == 2:
        assert out == "" and len(err.splitlines()) == 1
        assert err.startswith("input error: ")


# past the output budget, past a machine word, and the negative ends
_huge = st.sampled_from([-(10**30), -1, 10**5 + 1, 2**63, 10**30])
_endpoint = _label | _huge


@st.composite
def _graph_payloads(draw):
    """Valid graphs on n <= 14 vertices, some edges repeated."""
    n = draw(st.integers(min_value=0, max_value=14))
    vertex = st.integers(min_value=1, max_value=max(n, 1))
    pairs = st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1]).map(sorted)
    edges = draw(st.lists(pairs, max_size=20)) if n >= 2 else []
    return {"n": n, "edges": edges}


@settings(deadline=None, max_examples=200)
@given(
    action=st.sampled_from(["isf", "chromatic", "nbc", "peo", "verify"]),
    payload=_graph_payloads()
    | st.fixed_dictionaries({
        "n": _huge,
        "edges": st.lists(st.tuples(_label, _label).map(sorted), max_size=4),
    })
    | st.fixed_dictionaries({
        "n": _endpoint | _json,
        "edges": st.lists(st.lists(_endpoint | _json, max_size=3) | _json, max_size=6)
        | _json,
    })
    | _json,
)
def test_graph_fuzz_exits_zero_or_two(action, payload):
    code, err = _run_on_json("graph", action, payload)
    assert code in (0, 2), err
    if code == 2:
        assert len(err.splitlines()) == 1 and err.startswith("input error: "), err
    else:
        assert err == "ok\n"


def test_unexpected_exception_exits_three_with_one_line(tmp_path, capsys, monkeypatch):
    def broken(action, args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_graph_action", broken)
    path = write(tmp_path, "g.json", paw_peo().to_json())
    code, out, err = invoke(capsys, ["graph", "isf", path])
    assert code == 3
    assert out == ""
    assert err == "internal error: RuntimeError: boom\n"


def test_gen_is_deterministic_and_verifiable(tmp_path, capsys):
    code, out1, _ = invoke(capsys, ["gen", "graph", "--seed", "7", "--n", "6"])
    assert code == 0
    code, out2, _ = invoke(capsys, ["gen", "graph", "--seed", "7", "--n", "6"])
    assert out1 == out2
    path = tmp_path / "gen.json"
    path.write_text(out1)
    code, out, _ = invoke(capsys, ["graph", "verify", str(path)])
    assert code == 0


def test_gen_complex_and_multigraph(capsys):
    code, out, _ = invoke(capsys, ["gen", "complex", "--seed", "3", "--n", "5"])
    assert code == 0 and json.loads(out)["d"] == 2
    code, out, _ = invoke(capsys, ["gen", "multigraph", "--seed", "3", "--n", "3"])
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 3


def test_generators_are_seed_driven():
    assert gen_graph(5, 6).edges == gen_graph(5, 6).edges
    assert gen_complex(5, 5).facets == gen_complex(5, 5).facets
    a = gen_multigraph(9, 4)
    b = gen_multigraph(9, 4)
    assert a.zero_edges == b.zero_edges and a.labeled_edges == b.labeled_edges


def test_generators_refuse_a_pool_past_the_output_budget():
    # one draw per candidate: C(n, 2) pairs, C(n, 3) triples, or n zero
    # edges and five labels per pair; 447, 85 and 200 are the largest n
    # within 10**5
    assert not gen_graph(1, 447, 0).edges
    assert not gen_complex(1, 85, 0).facets
    assert gen_multigraph(1, 200).n == 200
    for gen, n, pool in ((gen_graph, 448, comb(448, 2)), (gen_complex, 86, comb(86, 3)),
                         (gen_multigraph, 201, 201 + 5 * comb(201, 2))):
        with pytest.raises(BudgetExceededError, match=f"n={pool} exceeds the output budget"):
            gen(1, n)


def run_child(*args, **options):
    """Run python with the given arguments, importing the isfkit under test
    whether installed or not; options go to subprocess.run."""
    package_root = str(Path(isfkit.__file__).resolve().parents[1])
    search = [package_root, os.environ.get("PYTHONPATH", "")]
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, search))},
        **options,
    )


def _limit_address_space_to_1_gib():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


_PATH_26 = Graph(26, [(k, k + 1) for k in range(1, 26)]).to_json()
_FAN_22 = PureComplex(24, 2, [(1, k, k + 1) for k in range(2, 24)]).to_json()


# the refusal names the first family past the member budget and its exact
# size: the NBC sets of the path, the ISF of the fan's 22-edge upper link
@pytest.mark.parametrize(
    "kind, payload, refusal",
    [("forest", _PATH_26, "33554432 NBC sets"),
     ("complex", _FAN_22,
      "upper link of peak (1,): 4194304 increasing spanning forests")],
    ids=["forest-26-vertex-path", "complex-22-facet-fan"],
)
def test_verify_refuses_before_it_walks(tmp_path, kind, payload, refusal):
    # within the edge or facet budget, every subset is a member: a walk
    # before the member budget's refusal would list 2**25 or 2**22 sets
    path = write(tmp_path, "in.json", payload)
    start = time.perf_counter()
    proc = run_child("-m", "isfkit.cli", kind, "verify", path,
                     preexec_fn=_limit_address_space_to_1_gib, timeout=20)
    assert time.perf_counter() - start < 10
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.splitlines() == [
        f"input error: {refusal} exceed the member budget 1048576"]


_K10 = Graph(10, itertools.combinations(range(1, 11), 2)).to_json()
_FULL_7 = PureComplex(7, 2, itertools.combinations(range(1, 8), 3)).to_json()
_PATH_21 = Graph(21, [(k, k + 1) for k in range(1, 21)]).to_json()
_GRID_7 = Graph(49, [(v, v + 1) for v in range(1, 50) if v % 7]
                + [(v, v + 7) for v in range(1, 43)]).to_json()


# `graph verify` lists no family, so neither the edge budget nor the member
# budget bounds it: K10 has 45 edges and 10! NBC sets, the seeded G(16, 0.3)
# has 29 edges, and the paths have 2**20 and 2**25 NBC sets.  Its χ routes
# are Whitney's NBC counts and the colour classes, so the contraction
# recursion, whose memo refuses the row-major 7×7 grid, does not run.
@pytest.mark.parametrize(
    "payload, edges, seconds",
    [(_K10, 45, 20), (gen_graph(3, 16, 0.3).to_json(), 29, 20), (_PATH_21, 20, 2),
     (_PATH_26, 25, 2), (_GRID_7, 84, 10)],
    ids=["graph-K10", "graph-G16-0.3", "graph-21-vertex-path", "graph-26-vertex-path",
         "graph-7x7-grid"],
)
def test_graph_verify_counts_without_walking(tmp_path, payload, edges, seconds):
    assert len(payload["edges"]) == edges
    path = write(tmp_path, "in.json", payload)
    start = time.perf_counter()
    proc = run_child("-m", "isfkit.cli", "graph", "verify", path,
                     preexec_fn=_limit_address_space_to_1_gib, timeout=60)
    assert time.perf_counter() - start < seconds
    assert proc.returncode == 0 and proc.stderr == "ok\n"
    report = json.loads(proc.stdout)
    assert report["passed"] and report["boolean_facts"]["isf_subset_of_nbc"]


# the number of terms, prod_B (1 + |B|), is known before the expansion:
# 10! for K10, and 24,883,200 for the full 2-complex on seven vertices; so
# are the variables they print, sum_B |B| prod_{B' != B} (1 + |B'|): the
# 21-vertex path and the 20-facet fan have 2**20 terms, within the budget,
# of 10 variables on average, which once ran out of memory
@pytest.mark.parametrize(
    "kind, action, payload, refusal",
    [("graph", "isf", _K10, "3628800 increasing spanning forests"),
     ("complex", "cf", _FULL_7, "24883200 cage-free subcomplexes"),
     ("graph", "isf", _PATH_21, "10485760 variables in the weighted terms"),
     ("complex", "cf", PureComplex(22, 2, [(1, k, k + 1) for k in range(2, 22)]).to_json(),
      "10485760 variables in the weighted terms")],
    ids=["graph-K10", "complex-full-7", "graph-21-vertex-path", "complex-20-facet-fan"],
)
def test_weighted_outputs_refuse_past_the_member_budget_at_once(tmp_path, kind, action,
                                                                payload, refusal):
    path = write(tmp_path, "in.json", payload)
    start = time.perf_counter()
    proc = run_child("-m", "isfkit.cli", kind, action, path, "--weighted",
                     preexec_fn=_limit_address_space_to_1_gib, timeout=20)
    assert time.perf_counter() - start < 1
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.splitlines() == [
        f"input error: {refusal} exceed the member budget 1048576"]


@pytest.mark.parametrize(
    "kind, action, payload, terms",
    [("graph", "isf", Graph(8, itertools.combinations(range(1, 9), 2)).to_json(), 40320),
     ("complex", "cf", PureComplex(6, 2, itertools.combinations(range(1, 7), 3)).to_json(),
      34560)],
    ids=["graph-K8", "complex-full-6"],
)
def test_weighted_outputs_within_the_member_budget(tmp_path, capsys, kind, action,
                                                   payload, terms):
    # one term per forest or cage-free subcomplex, each with coefficient 1
    path = write(tmp_path, "in.json", payload)
    code, out, _ = invoke(capsys, [kind, action, path, "--weighted"])
    assert code == 0
    listed = json.loads(out)
    assert len(listed) == terms and {t["coeff"] for t in listed} == {"1"}


def test_complex_verify_sweeps_22_one_facet_blocks(tmp_path):
    # 2**22 cage-free subcomplexes, past the member budget, but the facet
    # budget bounds the sweep and every upper link is small
    facets = [(a, a + 1, c) for c in range(3, 10) for a in range(1, c - 1)][:22]
    path = write(tmp_path, "in.json", PureComplex(9, 2, facets).to_json())
    proc = run_child("-m", "isfkit.cli", "complex", "verify", path, timeout=60)
    assert proc.returncode == 0 and proc.stderr == "ok\n"
    report = json.loads(proc.stdout)
    assert report["passed"] is True
    assert report["witnesses"]["cage_free_count"] == 2**22


@pytest.mark.parametrize(
    "target, pool", [("graph", comb(10**8, 2)), ("complex", comb(10**8, 3)),
                     ("multigraph", 10**8 + 5 * comb(10**8, 2))],
    ids=["graph", "complex", "multigraph"])
def test_gen_refuses_a_hundred_million_vertices_at_once(target, pool):
    # the refusal names the pool it would draw from, before the first draw
    start = time.perf_counter()
    proc = run_child("-m", "isfkit.cli", "gen", target, "--seed", "1", "--n", str(10**8),
                     preexec_fn=_limit_address_space_to_1_gib, timeout=20)
    assert time.perf_counter() - start < 1
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.splitlines() == [
        f"input error: n={pool} exceeds the output budget 100000"]


@pytest.mark.parametrize("kind", ["graph", "forest"])
def test_verify_refuses_ten_million_isolated_vertices_at_once(tmp_path, kind):
    # the budgets refuse before any per-vertex work, such as a triangle test
    path = write(tmp_path, "in.json", {"n": 10**7, "edges": []})
    start = time.perf_counter()
    proc = run_child("-m", "isfkit.cli", kind, "verify", path,
                     preexec_fn=_limit_address_space_to_1_gib, timeout=20)
    assert time.perf_counter() - start < 1
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.splitlines() == [
        "input error: n=10000000 exceeds the output budget 100000"]


@pytest.mark.parametrize(
    "kind, action", [("graph", "isf"), ("graph", "peo"), ("graph", "chromatic"),
                     ("forest", "tf")])
def test_per_vertex_outputs_refuse_ten_million_vertices_at_once(tmp_path, kind, action):
    path = write(tmp_path, "in.json", {"n": 10**7, "edges": []})
    start = time.perf_counter()
    proc = run_child("-m", "isfkit.cli", kind, action, path,
                     preexec_fn=_limit_address_space_to_1_gib, timeout=20)
    assert time.perf_counter() - start < 1
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.splitlines() == [
        "input error: n=10000000 exceeds the output budget 100000"]


def test_complex_verify_refuses_a_million_vertices_at_once(tmp_path):
    # no peak is effective, but the structure report's PEO has an entry per
    # vertex
    path = write(tmp_path, "in.json", {"n": 10**6, "d": 1, "facets": []})
    start = time.perf_counter()
    proc = run_child("-m", "isfkit.cli", "complex", "verify", path,
                     preexec_fn=_limit_address_space_to_1_gib, timeout=20)
    assert time.perf_counter() - start < 1
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.splitlines() == [
        "input error: n=1000000 exceeds the output budget 100000"]


@pytest.mark.parametrize("action", ["chi", "isf", "verify", "regions", "signed"])
def test_multigraph_actions_refuse_a_hundred_million_vertices_at_once(
    tmp_path, action
):
    # refused before any normal or per-vertex list is built
    path = write(tmp_path, "in.json", {"n": 10**8, "zero_edges": [1], "edges": []})
    extra = ["--s", "1"] if action == "signed" else []
    start = time.perf_counter()
    proc = run_child("-m", "isfkit.cli", "multigraph", action, path, *extra,
                     preexec_fn=_limit_address_space_to_1_gib, timeout=20)
    assert time.perf_counter() - start < 1
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.splitlines() == [
        "input error: n=100000000 exceeds the output budget 100000"]


def test_multigraph_perfect_on_a_hundred_million_vertices(tmp_path):
    path = write(tmp_path, "in.json", {"n": 10**8, "zero_edges": [1], "edges": []})
    proc = run_child("-m", "isfkit.cli", "multigraph", "perfect", path,
                     preexec_fn=_limit_address_space_to_1_gib, timeout=20)
    assert proc.returncode == 0 and proc.stdout == '{"perfectly_labeled":true}\n'


def test_complex_peo_does_not_grow_with_the_vertex_count(tmp_path):
    # each upper link is tested on the vertices its edges touch, so a
    # one-facet complex on 10**8 vertices needs no per-vertex list
    path = write(tmp_path, "in.json", {"n": 10**8, "d": 2, "facets": [[1, 2, 3]]})
    start = time.perf_counter()
    proc = run_child("-m", "isfkit.cli", "complex", "peo", path,
                     preexec_fn=_limit_address_space_to_1_gib, timeout=20)
    assert time.perf_counter() - start < 1
    assert proc.returncode == 0 and proc.stdout == '{"is_peo":true}\n'


def test_exponent_label_exits_two_at_once(tmp_path):
    # Fraction("1e100000000") would build a 10**8-digit integer
    G = {"n": 2, "zero_edges": [], "edges": [[1, 2, {"re": "1e100000000"}]]}
    path = write(tmp_path, "in.json", G)
    start = time.perf_counter()
    proc = run_child("-m", "isfkit.cli", "multigraph", "chi", path, timeout=20)
    assert time.perf_counter() - start < 1
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("input error: ") and len(proc.stderr.splitlines()) == 1


def test_console_entry_point(tmp_path):
    path = write(tmp_path, "g.json", paw_peo().to_json())
    proc = run_child("-m", "isfkit.cli", "graph", "isf", path)
    assert proc.returncode == 0
    assert proc.stdout.strip() == '["0","2","5","4","1"]'


def test_cli_import_loads_no_numpy():
    proc = run_child("-c", "import isfkit.cli, sys; assert 'numpy' not in sys.modules")
    assert proc.returncode == 0, proc.stderr


def test_imports_load_neither_dataclasses_nor_inspect():
    # compared with the modules loaded before, so a site hook that preloads
    # one of them cannot fail the test
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import isfkit.cli, isfkit.graphcore, isfkit.simplicial\n"
        "import isfkit.arrangement, isfkit.patterns\n"
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))\n"
    )
    proc = run_child("-c", script)
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


def test_package_import_loads_no_submodule():
    proc = run_child("-c", "import isfkit, sys; print(sorted(m for m in sys.modules "
                           "if m.startswith('isfkit')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['isfkit']"


# each command loads its own subject module and none of the other three;
# none of these four colours a graph, so none loads `chromatic`
_SUBJECT = {"graph": "graphcore", "complex": "simplicial",
            "multigraph": "arrangement", "forest": "patterns"}
_COMMANDS = [
    ("graph", "isf", paw_peo()),
    ("complex", "cf", tetrahedron_boundary()),
    ("multigraph", "chi", anchored_multigraph()),
    ("forest", "tf", paw_peo()),
]


@pytest.mark.parametrize("kind, action, instance", _COMMANDS,
                         ids=[f"{kind}-{action}" for kind, action, _ in _COMMANDS])
def test_cli_command_loads_only_its_subject_module(tmp_path, kind, action, instance):
    path = write(tmp_path, "instance.json", instance.to_json())
    script = (
        "import contextlib, io, json, sys\n"
        "from isfkit import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.run(sys.argv[1:]) == 0\n"
        "print(json.dumps([m for m in sys.modules if m.startswith('isfkit.')]))\n"
    )
    proc = run_child("-c", script, kind, action, path)
    assert proc.returncode == 0, proc.stderr
    loaded = {m.removeprefix("isfkit.") for m in json.loads(proc.stdout)}
    others = {"simplicial", "arrangement", "patterns", "chromatic"} - {_SUBJECT[kind]}
    assert _SUBJECT[kind] in loaded and not loaded & others


@pytest.mark.parametrize("kind, action, instance", _COMMANDS,
                         ids=[f"{kind}-{action}" for kind, action, _ in _COMMANDS])
def test_only_gen_loads_random(tmp_path, kind, action, instance):
    path = write(tmp_path, "instance.json", instance.to_json())
    script = (
        "import contextlib, io, sys\n"
        "from isfkit import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.run(sys.argv[1:]) == 0\n"
        "print('random' in sys.modules)\n"
    )
    # -S: the site hooks of some installations import random themselves
    proc = run_child("-S", "-c", script, kind, action, path)
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr
    proc = run_child("-S", "-c", script, "gen", "graph", "--seed", "1", "--n", "3")
    assert (proc.returncode, proc.stdout) == (0, "True\n"), proc.stderr


@pytest.mark.parametrize(
    "name", sorted(m.name for m in pkgutil.iter_modules(isfkit.__path__))
)
def test_every_public_name_resolves(name):
    # with no package-level re-exports, each module's __all__ is its public API
    module = importlib.import_module(f"isfkit.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []

"""The budget surface of the subject modules: the keyword parameters that
set a budget, and the named constant each one defaults to.  Every other
budget is a module constant that no caller sets; a new keyword has to be
added here, so it is argued for in review.  README's Budgets table must
list every budget constant with its current value, and the library must
read each one.  The transfers' table and bits budgets are applied by one
runner, `graphcore._run_transfer`, tested here with a fake step."""

import ast
import inspect
import itertools
import re
import time
from pathlib import Path

import pytest

from isfkit import arrangement, chromatic, graphcore, patterns, simplicial
from isfkit.errors import BudgetExceededError

from helpers import complete_bipartite, complete_graph, cycle_graph

# the benchmark's count hooks (perfbench/tracer.py COUNT_HOOKS) bind these
# two by name, and a hook that fails to bind makes a traced run incorrect;
# every other budget is read from its constant when the library runs
KEPT = {
    "graphcore.acyclic_orientation_count.orientation_budget":
        graphcore._ORIENTATION_BUDGET,
    "arrangement.multigraph_isf_polynomial.cross_check_budget":
        arrangement._CROSS_CHECK_BUDGET,
}


def test_budget_keywords_are_exactly_the_kept_two():
    found = {}
    for module in (graphcore, arrangement, patterns, simplicial):
        prefix = module.__name__.rpartition(".")[2]
        for name, func in vars(module).items():
            if (name.startswith("_") or not inspect.isfunction(func)
                    or func.__module__ != module.__name__):
                continue
            for param in inspect.signature(func).parameters.values():
                if "budget" in param.name or "cap" in param.name:
                    found[f"{prefix}.{name}.{param.name}"] = param.default
    assert found == KEPT


def test_one_setattr_on_a_budget_constant_reaches_every_reader(monkeypatch):
    # the library reads each constant when it runs, not as a default bound
    # when a function is defined
    K7 = graphcore.Graph(7, itertools.combinations(range(1, 8), 2))
    monkeypatch.setattr(graphcore, "_EDGE_BUDGET", 20)
    for walk in (graphcore.enumerate_isf, graphcore.isf_set_list, graphcore.nbc_set_list,
                 patterns.tf_set_list, patterns.tf_polynomial, patterns.verify_tf_theorems):
        with pytest.raises(BudgetExceededError,
                           match="^21 edges exceeds the enumeration budget 20$"):
            walk(K7)
    # graph verify lists no family: the transfers' budgets bound it
    assert graphcore.verify_isf_nbc(K7).passed
    monkeypatch.setattr(graphcore, "_TABLE_BUDGET", 4)
    K4 = graphcore.Graph(4, itertools.combinations(range(1, 5), 2))
    for transfer in (graphcore.nbc_sets, graphcore._isf_nbc_counts, graphcore.verify_isf_nbc):
        with pytest.raises(BudgetExceededError,
                           match="^NBC transfer table exceeds its budget of 4"):
            transfer(K4)
    # K4's tight-forest table peaks at 6 states, K3,3's colour classes at
    # B(3) = 5, and the recursion on the 6-cycle keeps more than 4 cores
    for reader, graph, refusal in (
        (patterns.tf_polynomial, K4, "tight-forest transfer table exceeds its budget of 4 states"),
        (chromatic._class_counts, complete_bipartite([1, 2, 3], [4, 5, 6]),
         "colour-class transfer table exceeds its budget of 4 states"),
        (chromatic._by_contraction, cycle_graph(6),
         "chromatic recursion exceeds its budget of 4 memo entries"),
    ):
        with pytest.raises(BudgetExceededError, match=f"^{refusal}$"):
            reader(graph)
    tetrahedron = simplicial.PureComplex(4, 2, itertools.combinations(range(1, 5), 3))
    monkeypatch.setattr(simplicial, "_FACET_BUDGET", 3)
    for sweep in (simplicial.enumerate_cage_free, simplicial.verify_product_formula):
        with pytest.raises(BudgetExceededError, match="^4 facets exceeds the sweep budget 3$"):
            sweep(tetrahedron)


def test_weighted_outputs_are_bounded_by_the_variables_they_print(monkeypatch):
    # each variable is distinct, so every coefficient is 1 and the printed
    # variables are the monomials' lengths; the budget admits exactly them
    path = graphcore.Graph(4, [(1, 2), (2, 3), (3, 4)])
    fan = simplicial.PureComplex(5, 2, [(1, 2, 3), (1, 3, 4), (1, 2, 4), (1, 4, 5)])
    for expand, obj, items, terms in (
        (graphcore.isf_polynomial, path, path.edges, "8 increasing spanning forests"),
        (simplicial.cf_polynomial, fan, fan.facets, "12 cage-free subcomplexes"),
    ):
        monkeypatch.undo()
        weights = {x: x for x in items}
        printed = sum(len(t["monomial"]) for t in expand(obj, weights).to_json())
        monkeypatch.setattr(graphcore, "_MEMBER_BUDGET", printed)
        expand(obj, weights)  # exactly at the budget
        monkeypatch.setattr(graphcore, "_MEMBER_BUDGET", printed - 1)
        with pytest.raises(BudgetExceededError, match=(
                f"^{printed} variables in the weighted terms exceed the member budget "
                f"{printed - 1}$")):
            expand(obj, weights)
        count = int(terms.split()[0])
        monkeypatch.setattr(graphcore, "_MEMBER_BUDGET", count - 1)
        with pytest.raises(BudgetExceededError,
                           match=f"^{terms} exceed the member budget {count - 1}$"):
            expand(obj, weights)


_CONSTANT = re.compile(r"^(_[A-Z_]+_BUDGET|_COUNT_BITS) = ", re.M)
_ROW = re.compile(r"^\| `(\w+)\.(_\w+)` \| ([^|]+) \|", re.M)


def _readme_value(text: str) -> int:
    """25, 131,072, 10^6 or 2^31 as written in the README's table."""
    base, _, power = text.strip().replace(",", "").partition("^")
    return int(base) ** int(power or 1)


def test_readme_budgets_table_lists_every_budget_constant_with_its_value():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("## Budgets", 1)[1].split("\n\n", 2)[2].split("\n\n", 1)[0]
    rows = {f"{module}.{name}": _readme_value(value)
            for module, name, value in _ROW.findall(table)}
    constants = {}
    for module in (graphcore, simplicial, arrangement, patterns):
        prefix = module.__name__.rpartition(".")[2]
        source = Path(module.__file__).read_text(encoding="utf-8")
        for name in _CONSTANT.findall(source):
            constants[f"{prefix}.{name}"] = getattr(module, name)
    assert rows == constants


def test_every_budget_constant_is_read_by_the_library():
    # a constant merged into another one must not linger: each is read, as a
    # name or a module attribute, somewhere in src/isfkit other than the
    # assignment that defines it (the constants' names are distinct)
    src = Path(__file__).parents[1] / "src" / "isfkit"
    read = set()
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    unread = []
    for module in (graphcore, simplicial, arrangement, patterns):
        prefix = module.__name__.rpartition(".")[2]
        source = Path(module.__file__).read_text(encoding="utf-8")
        unread += [f"{prefix}.{name}" for name in _CONSTANT.findall(source)
                   if name not in read]
    assert unread == []


def _fake_transfer(sizes):
    """A step that returns a table of sizes[s] states at step s, and the
    list of the (step, limit) pairs it was called with."""
    calls = []

    def step(table, s, limit):
        calls.append((s, limit))
        return dict.fromkeys(range(sizes[s]), 1)

    return step, calls


def test_the_runner_refuses_a_table_past_the_table_budget(monkeypatch):
    monkeypatch.setattr(graphcore, "_TABLE_BUDGET", 3)
    step, calls = _fake_transfer([3, 3])
    assert graphcore._run_transfer("fake transfer", "steps", range(2), {}, step, [1, 1]) == {
        0: 1, 1: 1, 2: 1}
    assert calls == [(0, 3), (1, 3)]
    # a step past the limit refuses, and the steps after it never run
    step, calls = _fake_transfer([3, 4, 1])
    with pytest.raises(BudgetExceededError,
                       match="^fake transfer table exceeds its budget of 3 states$"):
        graphcore._run_transfer("fake transfer", "steps", range(3), {}, step, [1, 1, 1])
    assert calls == [(0, 3), (1, 3)]


def test_the_runner_names_the_bits_budget_when_it_sets_the_limit(monkeypatch):
    # the first table spends 3 of 6 bits, so the second may hold 3 states
    monkeypatch.setattr(graphcore, "_COUNT_BITS", 6)
    step, calls = _fake_transfer([3, 3])
    assert len(graphcore._run_transfer("fake transfer", "steps", range(2), {}, step,
                                       [1, 1])) == 3
    assert calls == [(0, 6), (1, 3)]
    step, calls = _fake_transfer([3, 4, 1])
    with pytest.raises(BudgetExceededError, match=(
            "^fake transfer exceeds its budget of 6 bits of counts summed over the steps$")):
        graphcore._run_transfer("fake transfer", "steps", range(3), {}, step, [1, 1, 1])
    assert calls == [(0, 6), (1, 3)]


def test_the_runner_refuses_before_the_first_step_what_one_state_would_pass(monkeypatch):
    # one state per step spends sum(state_bits): 6 bits runs, 7 refuses
    monkeypatch.setattr(graphcore, "_COUNT_BITS", 6)
    step, calls = _fake_transfer([1, 1, 1])
    graphcore._run_transfer("fake transfer", "steps", range(3), {}, step, [2, 2, 2])
    assert len(calls) == 3
    step, calls = _fake_transfer([1, 1, 1])
    with pytest.raises(BudgetExceededError, match="^fake transfer exceeds its budget of 6 bits"):
        graphcore._run_transfer("fake transfer", "steps", range(3), {}, step, [2, 2, 3])
    assert calls == []


def test_a_refused_table_stops_growing_once_past_its_limit(monkeypatch):
    # each step stops its state loop once its table passes the limit, so a
    # refused transfer does not build the rest of the table it was refused
    run, sizes = graphcore._run_transfer, []

    def recording(what, unit, steps, table, step, state_bits):
        def counted(table, s, limit):
            table = step(table, s, limit)
            sizes.append(len(table))
            return table

        return run(what, unit, steps, table, counted, state_bits)

    monkeypatch.setattr(graphcore, "_run_transfer", recording)
    K5, K44 = complete_graph(5), complete_bipartite([1, 2, 3, 4], [5, 6, 7, 8])
    for transfer, graph, budget in ((graphcore.nbc_sets, K5, 3),
                                    (graphcore._isf_nbc_counts, K5, 3),
                                    (chromatic._class_counts, K44, 5)):
        monkeypatch.setattr(graphcore, "_TABLE_BUDGET", 1 << 17)
        sizes.clear()
        transfer(graphcore.Graph(graph.n, graph.edges))  # graph keeps no NBC counts
        whole = list(sizes)
        monkeypatch.setattr(graphcore, "_TABLE_BUDGET", budget)
        sizes.clear()
        with pytest.raises(BudgetExceededError, match=f"table exceeds its budget of {budget} "):
            transfer(graph)
        refused = len(sizes) - 1
        assert sizes[:refused] == whole[:refused]
        assert budget < sizes[refused] < whole[refused]


def test_every_state_of_an_nbc_step_checks_the_limit(monkeypatch):
    # a state adds at most two keys, the one it stays as and the one it
    # merges into, so a step that checks the limit after every state, a
    # state that only stays included, stops within two states of the limit
    run, sizes = graphcore._run_transfer, []

    def recording(what, unit, steps, table, step, state_bits):
        def counted(table, s, limit):
            table = step(table, s, limit)
            sizes.append(len(table) - limit)
            return table

        return run(what, unit, steps, table, counted, state_bits)

    monkeypatch.setattr(graphcore, "_run_transfer", recording)
    graphs = (complete_graph(6), complete_bipartite([1, 2, 3], [4, 5, 6]),
              cycle_graph(7), graphcore.Graph(6, itertools.combinations((1, 3, 4, 6), 2)))
    refused = 0
    for transfer in (graphcore.nbc_sets, graphcore._isf_nbc_counts):
        for graph, budget in itertools.product(graphs, range(1, 53)):
            monkeypatch.setattr(graphcore, "_TABLE_BUDGET", budget)
            sizes.clear()
            try:
                transfer(graphcore.Graph(graph.n, graph.edges))  # keeps no counts
            except BudgetExceededError:
                refused += 1
            assert max(sizes) <= 2, (transfer.__name__, graph, budget)
    assert refused > 100


def _readers(names: set[str]) -> set[str]:
    """The top-level functions of src/isfkit, as module.function, that read
    any of `names` as a name or a module attribute."""
    src = Path(__file__).parents[1] / "src" / "isfkit"
    found = set()
    for path in src.glob("*.py"):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name in names and isinstance(node.ctx, ast.Load):
                    found.add(f"{path.stem}.{getattr(top, 'name', top.lineno)}")
    return found


def test_only_the_runner_and_the_refusal_read_the_table_and_bits_budgets():
    # a new transfer runs through graphcore._run_transfer, which applies
    # both budgets, and words its refusal by graphcore._refusal; only the
    # tight-forest step and the recursion's memo check their own tables
    assert _readers({"_TABLE_BUDGET", "_COUNT_BITS"}) == {
        "graphcore._run_transfer",
        "graphcore._refusal",
        "patterns._tf_step",
        "chromatic._by_contraction",
    }


def test_only_simplicial_imports_the_row_reduction():
    # one row reduction, exactla.echelon, serves the homology ranks; the
    # intersection lattices close gain graphs and eliminate nothing
    src = Path(__file__).parents[1] / "src" / "isfkit"
    importers = set()
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                module = (node.module or "").rpartition(".")[2]
                names = {alias.name for alias in node.names}
                if module == "exactla" or (not node.module and "exactla" in names):
                    importers.add(path.stem)
            elif isinstance(node, ast.Import):
                if any(alias.name.endswith("exactla") for alias in node.names):
                    importers.add(path.stem)
    assert importers == {"simplicial"}


def test_long_path_colouring_refuses_before_building_its_masks():
    # 100,000 vertices with an edge pass the bits budget of both chromatic
    # routes; a neighbour mask per vertex would take 100,000 bits each
    path = graphcore.Graph(100_000, [(i, i + 1) for i in range(1, 100_000)])
    for colour, refusal in (
        (graphcore.chromatic_polynomial,
         "colour-class transfer exceeds its budget of 2147483648 bits of counts "
         "summed over the vertices"),
        (graphcore.acyclic_orientation_count,
         "chromatic recursion exceeds its budget of 2147483648 bits of counts "
         "summed over the memo entries"),
    ):
        start = time.perf_counter()
        with pytest.raises(BudgetExceededError, match=f"^{refusal}$"):
            colour(path)
        assert time.perf_counter() - start < 0.5, colour.__name__


def test_long_path_nbc_transfers_refuse_before_building_their_masks():
    # the NBC transfers pass the bits budget on 99,999 edges; the neighbour
    # masks over the edges to come would take up to 100,000 bits each
    refusal = ("NBC transfer exceeds its budget of 2147483648 bits of counts "
               "summed over the edges")
    for count in (graphcore.nbc_sets, graphcore.verify_isf_nbc):
        path = graphcore.Graph(100_000, [(i, i + 1) for i in range(1, 100_000)])
        start = time.perf_counter()
        with pytest.raises(BudgetExceededError, match=f"^{refusal}$"):
            count(path)
        assert time.perf_counter() - start < 0.5, count.__name__


def test_face_listing_is_refused_before_it_starts(monkeypatch):
    # one facet of dimension 20 has 2^21 subsets, past the member budget
    facet = range(1, 22)
    delta = simplicial.PureComplex(21, 20, [facet])
    for listing in (delta, simplicial.full_subcomplex(delta)):
        start = time.perf_counter()
        with pytest.raises(BudgetExceededError,
                           match="^2097152 facet subsets exceed the member budget 1048576$"):
            listing.faces()
        assert time.perf_counter() - start < 1, listing
    # the bound counts the empty face too: two triangles, 8 + 8 subsets
    pair = simplicial.PureComplex(4, 2, [(1, 2, 3), (2, 3, 4)])
    monkeypatch.setattr(graphcore, "_MEMBER_BUDGET", 16)
    assert len(pair.faces()) == 4 + 5 + 2
    monkeypatch.setattr(graphcore, "_MEMBER_BUDGET", 15)
    with pytest.raises(BudgetExceededError, match="^16 facet subsets exceed"):
        pair.faces()

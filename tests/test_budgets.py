"""The budget surface of the subject modules: the keyword parameters that
set a budget, and the named constant each one defaults to.  Every other
budget is a module constant that no caller sets; a new keyword has to be
added here, so it is argued for in review.  README's Budgets table must
list every budget constant with its current value, and the library must
read each one."""

import ast
import inspect
import itertools
import re
from pathlib import Path

import pytest

from isfkit import arrangement, graphcore, patterns, simplicial
from isfkit.errors import BudgetExceededError

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

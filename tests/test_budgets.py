"""The budget surface of the subject modules: the keyword parameters that
set a budget, and the named constant each one defaults to.  Every other
budget is a module constant that no caller sets; a new keyword has to be
added here, so it is argued for in review.  README's Budgets table must
list every budget constant with its current value."""

import inspect
import re
from pathlib import Path

from isfkit import arrangement, graphcore, patterns, simplicial

# the CLI's --budget reaches the first five, verify_product_formula passes
# its budget into the next two, and the benchmark's count hooks bind the
# last two by name
KEPT = {
    "graphcore.verify_isf_nbc.budget": graphcore._EDGE_BUDGET,
    "graphcore.nbc_sets.budget": graphcore._TABLE_BUDGET,
    "patterns.tf_polynomial.budget": graphcore._EDGE_BUDGET,
    "patterns.verify_tf_theorems.budget": graphcore._EDGE_BUDGET,
    "simplicial.verify_product_formula.budget": simplicial._FACET_BUDGET,
    "simplicial.enumerate_cage_free.budget": simplicial._FACET_BUDGET,
    "graphcore.enumerate_isf.budget": graphcore._EDGE_BUDGET,
    "graphcore.acyclic_orientation_count.orientation_budget":
        graphcore._ORIENTATION_BUDGET,
    "arrangement.multigraph_isf_polynomial.cross_check_budget":
        arrangement._CROSS_CHECK_BUDGET,
}


def test_budget_keywords_are_exactly_the_kept_nine():
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

"""Every public module-level function and class of the subject modules is
used by the program: referenced in `src/isfkit` outside its own definition,
by `perfbench/*.py`, or by a per-layer metric of BENCHMARK.json.  What only
the tests call belongs in `tests/helpers.py`; ALLOWED lists the library API
that stays anyway, with the reason."""

import ast
import importlib
import inspect
import json
from pathlib import Path

ROOT = Path(__file__).parents[1]
SUBJECTS = ("polycore", "graphcore", "simplicial", "arrangement", "patterns")
PAPER_API = "the paper's last section, which README presents as library API"
ALLOWED = {
    "patterns.contains_pattern": PAPER_API,
    "patterns.count_pattern_avoiding_permutations": PAPER_API,
    "patterns.tight_permutation_count": PAPER_API,
    "simplicial.upper_link": "README API: the upper link of one peak, with the peak checks",
}


def _surface() -> set[str]:
    return {
        f"{module}.{name}"
        for module in SUBJECTS
        for name, obj in vars(importlib.import_module(f"isfkit.{module}")).items()
        if not name.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == f"isfkit.{module}"
    }


def _names(node) -> set[str]:
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def test_every_public_name_is_used_by_the_program_or_allowed():
    used = set()
    for path in (ROOT / "src" / "isfkit").glob("*.py"):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            used |= _names(stmt) - {getattr(stmt, "name", None)}
    for path in (ROOT / "perfbench").glob("*.py"):
        used |= _names(ast.parse(path.read_text(encoding="utf-8")))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    used |= {metric["name"].split(".")[1] for metric in bench["per_layer"]}
    unused = sorted(name for name in _surface() - set(ALLOWED)
                    if name.partition(".")[2] not in used)
    assert not unused, f"public, but used only by the tests: {unused}"


def test_the_allowlist_names_public_functions_with_a_reason():
    assert set(ALLOWED) <= _surface()
    assert all(reason.strip() for reason in ALLOWED.values())

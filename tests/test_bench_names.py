"""The benchmark's per-layer metrics name library functions.

The traced benchmark run looks up each `<module>.<function>[.<attr>].<stat>`
metric of BENCHMARK.json in isfkit and marks the run incorrect when a named
function is missing, so deleting or renaming one must fail here first.
"""

import importlib
import inspect
import json
from pathlib import Path

LAYERS = {"polycore", "graphcore", "simplicial", "arrangement", "patterns"}


def test_per_layer_metrics_name_library_functions():
    bench = json.loads((Path(__file__).parents[1] / "BENCHMARK.json").read_text())
    checked = 0
    for metric in bench["per_layer"]:
        module, *path, stat = metric["name"].split(".")
        if module not in LAYERS or (path, stat) == ([], "errors"):
            continue
        obj = importlib.import_module(f"isfkit.{module}")
        for attr in path:
            obj = getattr(obj, attr, None)
        assert inspect.isfunction(obj), metric["name"]
        checked += 1
    assert checked > 0

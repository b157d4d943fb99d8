"""Golden digests of CLI output on a small seeded corpus: one over the verify
actions, one over `forest roots` and `forest tf` on the corpus's graphs, one
over `graph isf --weighted` and `complex cf --weighted` on its graphs and
complexes, and one over `complex cf`, `complex links` and `complex peo` on
its complexes and on hand-built complexes of dimension 1 and 3.

Each record is (argv, exit code, stdout, stderr) of one `cli.run` call, with
the input path in argv replaced by the instance's name.  The records are
hashed in order with SHA-256; a refactor that keeps every report and every
error message byte for byte keeps the digest.  A change that means to alter
an output must say so and record the new digest.
"""

import contextlib
import hashlib
import io
import itertools
import json
import random

from isfkit.cli import gen_complex, gen_graph, gen_multigraph, run
from isfkit.graphcore import Graph

GOLDEN = "36016cbd205f0c93ef0bfe33a4fc93c3199f212d2e340e0338f673e2498005e9"
FOREST_GOLDEN = "bbf4d328290fea4b3ad8f82f23da76440da976434c07e65576b29af1dd17629e"
WEIGHTED_GOLDEN = "a5a4f4c08364022afb6873694f448a64ed1f5d7050cecfff86166be87ffb024b"
COMPLEX_GOLDEN = "dc8ae5cac5742cbd8d7c4645cfa6a2b116200c5970879b6c1be4557a9536e9f4"


def _corpus():
    """(name, kind, actions, instance JSON), about 2 s of verification."""
    for n in range(1, 9):
        for p in (0.3, 0.6):
            for seed in (1, 2):
                G = gen_graph(seed * 100 + n, n, p)
                yield f"g{n}-{p}-{seed}", "graph", ("verify",), G.to_json()
                yield f"f{n}-{p}-{seed}", "forest", ("verify",), G.to_json()
    complete = {n: [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
                for n in (3, 4, 8)}
    for n, edges in complete.items():
        # K8 has 28 edges: `forest verify` refuses it by the edge budget,
        # and `graph verify`, which counts and lists no family, checks it
        for kind in ("graph", "forest"):
            yield f"K{n}-{kind}", kind, ("verify",), Graph(n, edges).to_json()
    # nine vertices within the edge budget; stripping the pendant edge
    # (2, 5) leaves a 2-core of eight, within the orientation cross-check's
    # vertex budget
    sparse = gen_graph(9, 9, 0.3).to_json()
    yield "g9", "graph", ("verify",), sparse
    yield "f9", "forest", ("verify",), sparse
    for n in range(3, 7):
        for p in (0.3, 0.6):
            delta = gen_complex(n * 10 + int(p * 10), n, p)
            yield f"c{n}-{p}", "complex", ("verify",), delta.to_json()
    # past the facet budget, then nine vertices whose upper links touch at
    # most eight
    for n, p in ((8, 0.5), (9, 0.1)):
        yield f"c{n}", "complex", ("verify",), gen_complex(n, n, p).to_json()
    for n in range(1, 5):
        for seed in (1, 2, 3):
            G = gen_multigraph(seed * 10 + n, n)
            yield f"m{n}-{seed}", "multigraph", ("verify", "regions"), G.to_json()


def _digest(tmp_path, corpus, flags=()) -> str:
    digest = hashlib.sha256()
    for name, kind, actions, instance in corpus:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(instance))
        for action in actions:
            # an action may carry its own flags after a space
            verb, *extra = action.split(" ")
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run([kind, verb, str(path), *extra, *flags])
            record = [[kind, action, name], code, out.getvalue(), err.getvalue()]
            digest.update(json.dumps(record).encode())
    return digest.hexdigest()


def test_verify_outputs_match_the_golden_digest(tmp_path):
    assert _digest(tmp_path, _corpus()) == GOLDEN


def test_forest_roots_and_tf_outputs_match_their_golden_digest(tmp_path):
    # every graph of the corpus once; the ordering sweep refuses n > 6
    graphs = [
        (name, kind, ("roots", "tf"), instance)
        for name, kind, _, instance in _corpus()
        if kind == "forest"
    ]
    assert _digest(tmp_path, graphs) == FOREST_GOLDEN


def test_weighted_outputs_match_their_golden_digest(tmp_path):
    # every graph of the corpus, K8's 40,320 terms included, and every
    # complex but c8, whose 14,929,920 terms the member budget refuses
    weighted = [
        (name, kind, ("isf",) if kind == "graph" else ("cf",), instance)
        for name, kind, _, instance in _corpus()
        if kind == "graph" or kind == "complex" and name != "c8"
    ]
    assert _digest(tmp_path, weighted, ("--weighted",)) == WEIGHTED_GOLDEN


def _hand_built_complexes():
    """(name, n, d, facets): dimension 1 and 3, empty and unused vertices
    included."""
    yield "d1-empty", 4, 1, []
    yield "d1-house", 5, 1, [(1, 2), (1, 3), (1, 5), (2, 3), (3, 4), (4, 5)]
    yield "d1-star", 6, 1, [(1, 6), (2, 6), (3, 6), (4, 6)]
    yield "d1-K5", 5, 1, list(itertools.combinations(range(1, 6), 2))
    yield "d3-simplex", 5, 3, [(1, 2, 3, 4)]
    yield "d3-boundary", 5, 3, list(itertools.combinations(range(1, 6), 4))
    yield "d3-full6", 6, 3, list(itertools.combinations(range(1, 7), 4))
    yield "d3-unused", 8, 3, [(1, 2, 3, 4), (1, 2, 3, 7), (2, 3, 5, 7)]
    for seed, n in ((1, 6), (2, 7), (3, 7)):
        rng = random.Random(seed)
        facets = [f for f in itertools.combinations(range(1, n + 1), 4)
                  if rng.random() < 0.4]
        yield f"d3-random{seed}", n, 3, facets


def test_complex_cf_links_and_peo_outputs_match_their_golden_digest(tmp_path):
    complexes = [(name, instance["n"], instance)
                 for name, kind, _, instance in _corpus() if kind == "complex"]
    complexes += [(name, n, {"n": n, "d": d, "facets": [list(f) for f in facets]})
                  for name, n, d, facets in _hand_built_complexes()]
    # peo also under the labeling that reverses the vertices
    corpus = [
        (name, "complex",
         ("cf", "links", "peo",
          "peo --ordering " + json.dumps(list(range(n, 0, -1)), separators=(",", ":"))),
         instance)
        for name, n, instance in complexes
    ]
    assert _digest(tmp_path, corpus) == COMPLEX_GOLDEN

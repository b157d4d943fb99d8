"""The five workloads: seeded inputs, the calls one instance makes, and checks.

Inputs are drawn here from the run's seed, copying the distributions of
``isfkit.cli.gen_*`` and of the acceptance campaigns without calling them, so
a change to the program cannot change what is measured.  The library only
receives the built instances.

Every workload interleaves a few strata (the vertex count n, or the kind of
instance).  Within a stratum the size parameter that drives the cost (edge
or facet count) is not drawn at random but taken at fixed quantiles of its
distribution, one per slot of a block of ``BLOCK`` instances, and the
instance is picked among draws of that size at a fixed rank of a cheap cost
predictor; the seed draws everything else (which edges, which edge orders,
which labels).  A round holds one block of every stratum.  Over a round the
sizes follow the distribution exactly, and runs made of whole rounds see the
same mix of sizes and costs whatever the seed, which keeps throughput and
percentiles steady.

An instance is made in two steps.  ``spec(k)`` draws it as plain data, with
the benchmark's own code only; ``make(spec)`` builds the library objects the
timed calls receive.  Set-up time is measured on the second step alone.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import resource
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from io import StringIO
from math import comb
from pathlib import Path

from isfkit import arrangement, cli, graphcore, patterns, simplicial
from isfkit.arrangement import LabeledMultigraph
from isfkit.graphcore import Graph
from isfkit.simplicial import PureComplex

ROOT = Path(__file__).resolve().parent.parent
BLOCK = 16
_BITS = BLOCK.bit_length() - 1
HALF = Fraction(1, 2)
# density of the n = 4..6 graphs of the forests workload; at p = 1/2 one
# n = 6 instance averages 2 s, and a round of forests would take a minute
SPARSE = Fraction(3, 10)
PRIMES = (1, 2, 3, 5, 7)  # gen_multigraph's label pool


def child_env() -> dict:
    """The environment of a child interpreter: isfkit from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    return env


class CheckFailed(Exception):
    """An output broke a cross-route identity or a documented contract."""


def slot_quantiles(j: int) -> tuple[Fraction, Fraction]:
    """Quantiles (u, v) for the j-th instance of a stratum: u places the size
    parameter, v the rank of the instance among candidates of that size.

    Block slots s = 0..BLOCK-1 stand for the mid-point quantiles
    (s + 1/2) / BLOCK.  They run in mirrored bit-reversed order: the top slot
    comes first, and every prefix of a block is spread evenly over the
    quantiles, so a run that stops inside a block still sees a balanced mix.
    v takes slot 5 s mod BLOCK, so over a block each coordinate takes every
    quantile once and the pairs spread over the unit square.
    """
    s = BLOCK - 1 - int(format(j % BLOCK, f"0{_BITS}b")[::-1], 2)
    t = 5 * s % BLOCK
    return Fraction(2 * s + 1, 2 * BLOCK), Fraction(2 * t + 1, 2 * BLOCK)


def pick(rng, draw, cost_key, v: Fraction, candidates: int = BLOCK):
    """The candidate at rank v among `candidates` draws, ordered by a cheap
    predictor of its cost.  Ranks spread evenly over a block pick each draw
    with the same chance (for more candidates than BLOCK, the mid-point of
    each stratum of ranks), so picks follow the distribution of draw() while
    runs on different seeds see the same mix of cheap and costly instances.
    """
    pool = sorted((draw() for _ in range(candidates)), key=cost_key)
    return pool[int(v * candidates)]


def binomial_quantile(
    trials: int, p: Fraction, u: Fraction, cap: int | None = None
) -> int:
    """Smallest m with P(M <= m | M <= cap) >= u, for M ~ Binomial(trials, p)."""
    cap = trials if cap is None else cap
    pmf = [comb(trials, m) * p**m * (1 - p) ** (trials - m) for m in range(cap + 1)]
    target = u * sum(pmf)
    acc = Fraction(0)
    for m, weight in enumerate(pmf):
        acc += weight
        if acc >= target:
            return m
    return cap


def _pairs(n: int) -> list[tuple[int, int]]:
    return list(itertools.combinations(range(1, n + 1), 2))


# Cheap predictors of an instance's cost, for pick().


def _triangles(edges) -> int:
    es = set(edges)
    return sum(1 for (a, b), (c, d) in itertools.combinations(sorted(es), 2)
               if a == c and (b, d) in es)


def _acyclic(n: int, edges) -> bool:
    """Edges == vertices - components, by a plain graph search."""
    adj = {v: [] for v in range(1, n + 1)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen: set[int] = set()
    components = 0
    for s in adj:
        if s in seen:
            continue
        components += 1
        stack = [s]
        seen.add(s)
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
    return len(edges) == n - components


def _cage_free_count(facets) -> int:
    """Product over facet blocks (first, last vertex) of block size + 1."""
    count = 1
    for size in Counter((f[0], f[-1]) for f in facets).values():
        count *= size + 1
    return count


def lattice_size(n: int, edges) -> int:
    """Number of flats of the arrangement x_i = q x_j (edge i-j labeled by
    an integer q) and x_k = 0 (edge 0-k): the distinct closures of edge
    subsets, from ranks found by integer elimination."""
    normals = []
    for i, j, q in edges:
        vec = [0] * n
        if i:
            vec[i - 1], vec[j - 1] = 1, -int(q)
        else:
            vec[j - 1] = 1
        normals.append(vec)
    bases: list[list[list[int]]] = [[]]  # an echelon basis per subset mask
    for mask in range(1, 1 << len(normals)):
        top = mask.bit_length() - 1
        basis = bases[mask ^ (1 << top)]
        vec = normals[top]
        for row in basis:
            col = next(c for c, x in enumerate(row) if x)
            if vec[col]:
                vec = [row[col] * a - vec[col] * b for a, b in zip(vec, row)]
        bases.append(basis + [vec] if any(vec) else basis)
    rank = [len(b) for b in bases]
    closures = set()
    for mask, r in enumerate(rank):
        closures.add(mask | sum(1 << e for e in range(len(normals))
                                if rank[mask | 1 << e] == r))
    return len(closures)


def _sample_graph(rng, n: int, p: Fraction, uv, cap=None, cost_key=_triangles) -> list:
    """G(n, p) conditioned on at most cap edges, its edge count at quantile u,
    as [n, sorted edges]."""
    u, v = uv
    pairs = _pairs(n)
    m = binomial_quantile(len(pairs), p, u, cap)
    return [n, pick(rng, lambda: sorted(rng.sample(pairs, m)), cost_key, v)]


def _split_multigraph(n: int, take) -> list:
    """[n, zero edges, labeled edges] of edges (0, k, None) and (i, j, q)."""
    return [n, [e[1] for e in take if not e[0]], [list(e) for e in take if e[0]]]


def _graph(n: int, edges) -> Graph:
    return Graph(n, [tuple(e) for e in edges])


def _multigraph(n: int, zero, labeled) -> LabeledMultigraph:
    return LabeledMultigraph(n, zero, [tuple(e) for e in labeled])


def _sample_multigraph(rng, n: int, uv) -> list:
    """gen_multigraph(n, max_edges=7): edges 0-k and i-j labeled by PRIMES,
    shuffled, the first randint(0, 7) kept; that count at quantile u."""
    u, v = uv
    pool = [(0, k, None) for k in range(1, n + 1)]
    pool += [(i, j, q) for i, j in _pairs(n) for q in PRIMES]
    kept = min(int(u * 8), len(pool))
    take = pick(rng, lambda: rng.sample(pool, kept), lambda e: lattice_size(n, e), v)
    return _split_multigraph(n, take)


def _sample_signed(rng, n: int, uv) -> list:
    """Criterion 7's signed corpus: each +-1 edge and each 0-k edge with
    probability 3/10, the number kept taken at quantile u."""
    u, v = uv
    trials = [(a, b, eps) for a, b in _pairs(n) for eps in (1, -1)]
    trials += [(0, k, None) for k in range(1, n + 1)]
    kept = binomial_quantile(len(trials), SPARSE, u)
    take = pick(rng, lambda: sorted(rng.sample(trials, kept), key=trials.index),
                lambda e: lattice_size(n, e), v)
    return _split_multigraph(n, take)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _check_qpo(G: Graph, result) -> list:
    """A reported violation must be a candidate path a,c,b,...,d that fails
    the quasi-perfect condition; checked here from the definition."""
    if result.ok:
        return [True, None]
    path = list(result.witness)
    a, c, b, d = path[0], path[1], path[2], path[-1]

    def adjacent(x, y):
        return (min(x, y), max(x, y)) in G.edges

    _require(len(path) >= 4 and len(set(path)) == len(path), "QPO witness not simple")
    _require(all(adjacent(x, y) for x, y in zip(path, path[1:])),
             "QPO witness is not a path")
    _require(a < b < c and d < c and all(v > c for v in path[3:-1]),
             "QPO witness has the wrong shape")
    _require(not adjacent(a, d) and not (d < b and adjacent(c, d)),
             "QPO witness satisfies the condition")
    return [False, path]


class Workload:
    """One stream of instances; instance k depends only on (seed, k)."""

    name = ""
    # instances per round: one block of every stratum.  Set-up builds one
    # round, an end-to-end run times whole rounds, the traced run one round.
    round = 0
    warmup_index = 0  # a cheap instance run once, untimed, before timing
    golden_rounds = 0  # rounds of seed 1 whose output digests golden.json holds
    spawns_children = False  # an instance is a child process, not library calls

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def spec(self, k: int) -> list:
        """Instance k as plain JSON data, drawn by the benchmark alone."""
        raise NotImplementedError

    @staticmethod
    def make(spec):
        """The library objects of one instance, built from its spec."""
        raise NotImplementedError

    def build(self, k: int):
        return self.make(self.spec(k))

    def run(self, instance):
        """The timed calls into the library for one instance."""
        raise NotImplementedError

    def check(self, instance, output) -> str:
        """Raise CheckFailed on a wrong output; return its canonical text."""
        raise NotImplementedError

    def run_in_process(self, instance):
        """What the traced run times; the same calls, except for cli."""
        return self.run(instance)

    def reference(self, instance, output) -> None:
        """A second, slower check the end-to-end run makes (cli only)."""

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def rng(self, k: int) -> random.Random:
        return random.Random(f"{self.seed}:{self.name}:{k}")


class Graphs(Workload):
    """Criterion 5: G(n, 1/2) with n cycling through 1..7; verify_isf_nbc, then
    nbc_sets under the default order and five seeded edge orders."""

    name = "graphs"
    round = 7 * BLOCK
    warmup_index = 3
    golden_rounds = 5

    def spec(self, k):
        rng = self.rng(k)
        n, edges = _sample_graph(rng, k % 7 + 1, HALF, slot_quantiles(k // 7))
        orders = []
        for _ in range(5):
            seq = list(edges)
            rng.shuffle(seq)
            orders.append(seq)
        return [n, edges, orders]

    @staticmethod
    def make(spec):
        n, edges, orders = spec
        return _graph(n, edges), [[tuple(e) for e in seq] for seq in orders]

    def run(self, instance):
        G, orders = instance
        report = graphcore.verify_isf_nbc(G)
        base = graphcore.nbc_sets(G)
        reordered = [
            graphcore.nbc_sets(G, order=graphcore.EdgeOrder.from_sequence(G, seq))
            for seq in orders
        ]
        return report, base, reordered

    def check(self, instance, output):
        report, base, reordered = output
        _require(report.passed, "verify_isf_nbc did not pass")
        _require(all(r == base for r in reordered), "NBC counts depend on the edge order")
        return canonical({"report": report.to_json(), "nbc": base})


class Complexes(Workload):
    """Criterion 6: pure 2-complexes on n = 3..6 vertices, each triple a facet
    with probability 1/2; verify_product_formula and is_simplicial_peo, then
    top_homology_rank and has_leaf on every cage-free subcomplex."""

    name = "complexes"
    round = 4 * BLOCK
    warmup_index = 1
    golden_rounds = 4

    def spec(self, k):
        n = 3 + k % 4
        rng = self.rng(k)
        u, v = slot_quantiles(k // 4)
        triples = list(itertools.combinations(range(1, n + 1), 3))
        q = binomial_quantile(len(triples), HALF, u)
        return [n, pick(rng, lambda: sorted(rng.sample(triples, q)),
                        _cage_free_count, v, candidates=4 * BLOCK)]

    @staticmethod
    def make(spec):
        n, facets = spec
        return PureComplex(n, 2, [tuple(f) for f in facets])

    def run(self, delta):
        report = simplicial.verify_product_formula(delta)
        speo = simplicial.is_simplicial_peo(delta)
        subs = simplicial.cage_free_subcomplexes(delta)
        ranks = [simplicial.top_homology_rank(u) for u in subs]
        leaves = [simplicial.has_leaf(u) for u in subs]
        return report, speo, subs, ranks, leaves

    def check(self, delta, output):
        report, speo, subs, ranks, leaves = output
        _require(report.passed, "verify_product_formula did not pass")
        _require(speo == report.boolean_facts["natural_labeling_is_peo"],
                 "is_simplicial_peo disagrees with the report")
        # block product (subs) against the facet-subset sweep (the report)
        _require(len(subs) == report.witnesses["cage_free_count"],
                 "cage-free count differs between block product and sweep")
        _require(all(r == 0 for r in ranks), "a cage-free subcomplex has top homology")
        _require(all(leaf for u, leaf in zip(subs, leaves) if u.kept_facets),
                 "a nonempty cage-free subcomplex has no leaf")
        return canonical({"report": report.to_json(), "cage_free": len(subs)})


class Multigraphs(Workload):
    """Criterion 7: labeled multigraphs on n = 1..4 with at most 7 edges and
    prime labels (verify_isf_chi, topology_report), and every fifth instance a
    +-1 signed multigraph whose signed_chromatic_count for s = 0..3 must equal
    v^(n - rho) chi(v), v = 2s + 1."""

    name = "multigraphs"
    round = 5 * BLOCK
    warmup_index = 2
    golden_rounds = 4

    def spec(self, k):
        cycle, pos = divmod(k, 5)
        rng = self.rng(k)
        if pos < 4:
            return ["chi", _sample_multigraph(rng, pos + 1, slot_quantiles(cycle))]
        # n = randint(1, 4) from the first quarter of u, the size from the rest
        u, v = slot_quantiles(cycle)
        n = 1 + int(u * 4)
        return ["signed", _sample_signed(rng, n, (u * 4 - (n - 1), v))]

    @staticmethod
    def make(spec):
        kind, G = spec
        return kind, _multigraph(*G)

    def run(self, instance):
        kind, G = instance
        if kind == "chi":
            return arrangement.verify_isf_chi(G), arrangement.topology_report(G)
        L = arrangement.intersection_lattice(arrangement.build_arrangement(G))
        chi = arrangement.characteristic_polynomial(L)
        counts = [arrangement.signed_chromatic_count(G, s) for s in range(4)]
        return L.rho, chi, counts

    def check(self, instance, output):
        kind, G = instance
        if kind == "chi":
            isf_chi, topology = output
            _require(isf_chi.passed, "verify_isf_chi did not pass")
            edges = [(0, k, None) for k in G.zero_edges]
            edges += [(i, j, z.re) for i, j, z in G.labeled_edges]
            _require(isf_chi.witnesses["lattice_size"] == lattice_size(G.n, edges),
                     "intersection lattice size differs from a count of flats")
            _require(topology.passed, "topology_report did not pass")
            return canonical({"isf_chi": isf_chi.to_json(), "topology": topology.to_json()})
        rho, chi, counts = output
        for s, count in enumerate(counts):
            v = 2 * s + 1
            _require(count == v ** (G.n - rho) * chi(v),
                     f"signed count at s={s} differs from v^(n-rho) chi(v)")
        return canonical({"chi": chi.to_json(), "rho": rho, "counts": counts})


class Forests(Workload):
    """Tight forests, alternating two halves.  Graphs on n = 4, 5, 6 (edge
    probability 3/10) run tf_integer_roots_classification and is_qpo: up to
    n! small walks over relabelings of one graph.  Graphs on n = 8 (edge
    probability 1/2, at most 25 edges) run tf_polynomial and is_qpo: one large
    walk that materializes every tight forest."""

    name = "forests"
    round = 6 * BLOCK
    warmup_index = 2
    golden_rounds = 3

    def spec(self, k):
        cycle, pos = divmod(k, 6)
        rng = self.rng(k)
        if pos % 2 == 0:
            n = 4 + pos // 2
            # a forest stops at an early ordering, any other graph tries all n!
            return ["roots", _sample_graph(
                rng, n, SPARSE, slot_quantiles(cycle),
                cost_key=lambda edges: (not _acyclic(n, edges), _triangles(edges)))]
        return ["tf", _sample_graph(rng, 8, HALF, slot_quantiles(3 * cycle + pos // 2), cap=25)]

    @staticmethod
    def make(spec):
        kind, G = spec
        return kind, _graph(*G)

    def run(self, instance):
        kind, G = instance
        if kind == "roots":
            return patterns.tf_integer_roots_classification(G), patterns.is_qpo(G)
        return patterns.tf_polynomial(G), patterns.is_qpo(G)

    def check(self, instance, output):
        kind, G = instance
        first, qpo = output
        qpo_json = _check_qpo(G, qpo)
        if kind == "roots":
            _require(first.passed, "tf_integer_roots_classification did not pass")
            _require(first.boolean_facts["is_forest"] == _acyclic(G.n, G.edges),
                     "forest test disagrees with a graph search")
            return canonical({"roots": first.to_json(), "qpo": qpo_json})
        coeffs = first.coeffs
        _require(len(coeffs) == G.n + 1 and coeffs[-1] == 1, "TF polynomial not monic of degree n")
        # the empty forest, and every single edge is a tight forest
        _require(coeffs[-2] == len(G.edges), "TF linear coefficient is not the edge count")
        _require(all(c >= 0 for c in coeffs) and first(1) <= 2 ** len(G.edges),
                 "TF counts are not a family of edge subsets")
        return canonical({"tf": first.to_json(), "qpo": qpo_json})


# The malformed inputs of the input-boundary table in ROADMAP item 5.  Each
# must exit 2 with one "input error:" line; today most do not, and the
# benchmark reports how many break that contract.
MALFORMED = (
    ("graph", "isf", "bad-endpoint", {"n": 2, "edges": [["a", 2]]}),
    ("complex", "cf", "bad-facets", {"n": 3, "d": 2, "facets": 5}),
    ("forest", "tight", "bad-parents", {"labels": [1], "parents": [1]}),
    ("graph", "isf", "float-edge", {"n": 2, "edges": [[1.7, 2.2]]}),
    ("forest", "tight", "long-path", {
        "labels": list(range(1, 1501)),
        "parents": {str(v): (v - 1 if v > 1 else None) for v in range(1, 1501)},
    }),
)

VALID = (
    [("graph", a, "graph", ()) for a in ("isf", "chromatic", "nbc", "peo", "verify")]
    + [("complex", a, "complex", ()) for a in ("cf", "links", "peo", "verify")]
    + [("multigraph", a, "multigraph", ())
       for a in ("chi", "isf", "perfect", "verify", "regions")]
    + [("multigraph", "signed", "signed", ("--s", "1"))]
    + [("forest", a, "forest", ()) for a in ("tf", "qpo", "verify", "roots")]
    + [("forest", "tight", "tight", ())]
)

ROTATION = VALID + [(kind, action, key, ()) for kind, action, key, _ in MALFORMED]


class Cli(Workload):
    """`python -m isfkit.cli`, one child process at a time, rotating through
    every graph, complex, multigraph and forest action on tiny instances
    (n <= 5) and the five malformed inputs."""

    name = "cli"
    round = len(ROTATION)
    warmup_index = 0
    golden_rounds = 6
    spawns_children = True

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.peak_child_rss_kb = 0
        self.violations = 0
        self._written: set[int] = set()
        workdir.mkdir(parents=True, exist_ok=True)
        for _, _, key, payload in MALFORMED:
            (workdir / f"{key}.json").write_text(json.dumps(payload))

    def _write_rotation(self, r: int) -> None:
        rng = self.rng(r)
        uv = slot_quantiles(r)
        graph = _sample_graph(rng, 5, HALF, uv)
        triples = list(itertools.combinations(range(1, 6), 3))
        facets = sorted(rng.sample(triples, binomial_quantile(10, HALF, uv[0])))
        parents: dict[int, int | None] = {1: None}
        for v in range(2, 6):
            parents[v] = rng.choice([None, *range(1, v)])
        inputs = {
            "graph": _graph(*graph).to_json(),
            "complex": PureComplex(5, 2, facets).to_json(),
            "multigraph": _multigraph(*_sample_multigraph(rng, 3, uv)).to_json(),
            "signed": _multigraph(*_sample_signed(rng, 3, uv)).to_json(),
            "forest": _graph(*_sample_graph(rng, 5, SPARSE, uv)).to_json(),
            "tight": {"labels": list(parents),
                      "parents": {str(v): p for v, p in parents.items()}},
        }
        for key, payload in inputs.items():
            (self.workdir / f"r{r}-{key}.json").write_text(json.dumps(payload))

    def spec(self, k):
        """Also writes the input files of instance k's rotation."""
        r, pos = divmod(k, len(ROTATION))
        if r not in self._written:
            self._write_rotation(r)
            self._written.add(r)
        kind, action, key, extra = ROTATION[pos]
        valid = pos < len(VALID)
        path = self.workdir / (f"r{r}-{key}.json" if valid else f"{key}.json")
        return [valid, [kind, action, str(path), *extra]]

    @staticmethod
    def make(spec):
        valid, argv = spec
        return valid, argv

    def run(self, instance):
        _, argv = instance
        out_path = self.workdir / "stdout.txt"
        err_path = self.workdir / "stderr.txt"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen(
                [sys.executable, "-m", "isfkit.cli", *argv],
                stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                cwd=ROOT, env=child_env(),
            )
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_child_rss_kb = max(self.peak_child_rss_kb, usage.ru_maxrss)
        return proc.returncode, out_path.read_text(), err_path.read_text()

    def peak_rss_kb(self) -> int:
        return self.peak_child_rss_kb

    def run_in_process(self, instance):
        _, argv = instance
        out, err = StringIO(), StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.run(argv)
            except Exception as exc:  # a traceback in the child; exit code 1
                print(f"{type(exc).__name__}: {exc}", file=err)
                code = 1
        return code, out.getvalue(), err.getvalue()

    def check(self, instance, output):
        valid, argv = instance
        code, out, err = output
        if not valid:
            lines = err.splitlines()
            if not (code == 2 and len(lines) == 1 and lines[0].startswith("input error:")):
                self.violations += 1
            return ""
        _require(code == 0 and err == "ok\n", f"{' '.join(argv[:2])} exited {code}: {err[-200:]}")
        payload = json.loads(out)
        if argv[1] in ("verify", "roots", "regions"):
            _require(payload["passed"] is True, f"{' '.join(argv[:2])} report did not pass")
        return canonical({"argv": argv[:2], "stdout": payload})

    def reference(self, instance, output) -> None:
        """A cold child must print exactly what a warm in-process run prints."""
        valid, argv = instance
        if valid:
            _require(self.run_in_process(instance) == output,
                     f"{' '.join(argv[:2])}: child output differs from in-process run")


WORKLOADS = {w.name: w for w in (Graphs, Complexes, Multigraphs, Forests, Cli)}

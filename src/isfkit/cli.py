"""Batch command-line front end.

One command per process: parse a JSON instance, dispatch to the library,
emit the result as JSON on stdout and a one-line summary on stderr.
Exit codes: 0 success, 1 failed assertion, 2 bad input, 3 internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from math import comb, prod

from . import graphcore
from .errors import BudgetExceededError, InputError, InternalCheckError, require_int
from .report import Report

__all__ = ["main", "run", "gen_graph", "gen_complex", "gen_multigraph"]


# ---------------------------------------------------------------------------
# Random instance generation (seeded; the seed is mandatory)
# ---------------------------------------------------------------------------


def _seeded(seed: int, pool: int, p: float = 0.5):
    """The random source of a generator that draws once per candidate in a
    pool of `pool`, which the output budget caps; checked before any draw."""
    import random
    if not 0 <= p <= 1:  # also false for NaN
        raise InputError(f"p={p} is not a probability in [0, 1]")
    graphcore._within_output_budget(pool)
    return random.Random(seed)


def gen_graph(seed: int, n: int, p: float = 0.5) -> graphcore.Graph:
    rng = _seeded(seed, comb(max(n, 0), 2), p)
    edges = [
        (i, j)
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        if rng.random() < p
    ]
    return graphcore.Graph(n, edges)


def gen_complex(seed: int, n: int, p: float = 0.5) -> PureComplex:
    from .simplicial import PureComplex
    rng = _seeded(seed, comb(max(n, 0), 3), p)
    facets = [
        (i, j, k)
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        for k in range(j + 1, n + 1)
        if rng.random() < p
    ]
    return PureComplex(n, 2, facets)


def gen_multigraph(seed: int, n: int, max_edges: int = 7) -> LabeledMultigraph:
    from .arrangement import LabeledMultigraph
    if max_edges < 0:
        raise InputError(f"max_edges={max_edges} is negative")
    # labels drawn from small distinct primes, which keeps them generic
    primes = [1, 2, 3, 5, 7]
    rng = _seeded(seed, max(n, 0) + len(primes) * comb(max(n, 0), 2))
    pool: list[tuple] = [("z", k) for k in range(1, n + 1)]
    pool += [
        ("l", i, j, q)
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        for q in primes
    ]
    rng.shuffle(pool)
    zero, labeled = [], []
    for item in pool[: rng.randint(0, max_edges)]:
        if item[0] == "z":
            zero.append(item[1])
        else:
            labeled.append((item[1], item[2], item[3]))
    return LabeledMultigraph(n, zero, labeled)


# ---------------------------------------------------------------------------
# Actions
# ---------------------------------------------------------------------------


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # bad JSON or UTF-8, or an over-long integer
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


def _parse_ordering(raw: str | None):
    if raw is None:
        return None
    try:
        value = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise InputError(f"--ordering must be a JSON array: {exc}") from exc
    if not isinstance(value, list):
        raise InputError("--ordering must be a JSON array of integers")
    return [require_int(v, "--ordering entry") for v in value]


def _refuse_unprintable(sizes: list[int]) -> None:
    """Refuse a product prod_k (t + s_k) over the factor sizes s_k that the
    int-to-string limit cannot write, before expanding it.  Its value at 1,
    prod_k (1 + s_k), is the sum of its len(sizes) + 1 nonnegative
    coefficients, so the largest is at least that sum over len(sizes) + 1:
    past the bound below, it has more digits than the limit allows.  A
    result under the bound is expanded, and `to_json` still refuses it if
    it is too large."""
    limit = sys.get_int_max_str_digits()
    if limit and prod((1 + s) ** k for s, k in Counter(sizes).items()) >= (
            len(sizes) + 1) * 10**limit:
        raise BudgetExceededError(
            f"result too large to write: a coefficient exceeds the limit "
            f"({limit} digits) for integer string conversion"
        )


def _graph_action(action: str, args) -> tuple[object, bool]:
    G = graphcore.Graph.from_json(_load_json(args.input))
    if action == "isf":
        if args.weighted:
            gf = graphcore.isf_polynomial(G, weights={e: e for e in G.edges})
            return gf.to_json(), True
        graphcore._within_output_budget(G.n)
        _refuse_unprintable([len(E) for E in graphcore.edge_partition(G).values()])
        return graphcore.isf_polynomial(G).to_json(), True
    if action == "chromatic":
        return graphcore.chromatic_polynomial(G).to_json(), True
    if action == "nbc":
        return {str(m): c for m, c in graphcore.nbc_sets(G).items()}, True
    if action == "peo":
        ordering = _parse_ordering(args.ordering)
        if ordering is not None:
            return {"is_peo": graphcore.is_peo(G, ordering)}, True
        peo = graphcore.find_peo(G)
        return {"chordal": peo is not None, "peo": peo}, True
    report = graphcore.verify_isf_nbc(G)
    return report.to_json(), report.passed


def _complex_action(action: str, args) -> tuple[object, bool]:
    from . import simplicial
    delta = simplicial.PureComplex.from_json(_load_json(args.input))
    if action == "cf":
        if args.weighted:
            gf = simplicial.cf_polynomial(
                delta, weights={f: f for f in delta.facets}
            )
            return gf.to_json(), True
        _refuse_unprintable([len(B) for B in simplicial.phi_partition(delta).values()])
        return simplicial.cf_polynomial(delta).to_json(), True
    if action == "links":
        links, effective = simplicial.upper_links(delta)
        return {
            "effective_peaks": [list(p) for p in effective],
            "links": [
                {"peak": list(p), "graph": g.to_json()}
                for p, g in sorted(links.items())
            ],
        }, True
    if action == "peo":
        ordering = _parse_ordering(args.ordering)
        return {"is_peo": simplicial.is_simplicial_peo(delta, ordering)}, True
    report = simplicial.verify_product_formula(delta)
    extra = simplicial.structure_report(simplicial.full_subcomplex(delta))
    payload = report.to_json()
    payload["structure"] = Report(witnesses=extra).to_json()["witnesses"]
    return payload, report.passed


def _multigraph_action(action: str, args) -> tuple[object, bool]:
    from . import arrangement
    G = arrangement.LabeledMultigraph.from_json(_load_json(args.input))
    if action == "chi":
        L = arrangement._lattice_of(G)
        chi = arrangement.characteristic_polynomial(L)
        return {"chi": chi.to_json(), "lattice_size": L.size, "rank": L.rho}, True
    if action == "isf":
        blocks = arrangement.multigraph_edge_partition(G)
        _refuse_unprintable([len(E) for E in blocks.values()])
        return arrangement.multigraph_isf_polynomial(G).to_json(), True
    if action == "perfect":
        result = arrangement.is_perfectly_labeled(G)
        payload = {"perfectly_labeled": result.ok}
        if not result.ok:
            payload["failed_condition"] = result.failed_condition
            payload["witness"] = [str(w) for w in result.witness]
        return payload, True
    if action == "verify":
        report = arrangement.verify_isf_chi(G)
        return report.to_json(), report.passed
    if action == "regions":
        if not G.is_real():
            raise InputError("region counting requires all-real edge labels")
        report = arrangement.topology_report(G)
        return report.to_json(), report.passed
    if args.s is None:
        raise InputError("signed counting requires --s")
    return {"s": args.s, "count": arrangement.signed_chromatic_count(G, args.s)}, True


def _forest_action(action: str, args) -> tuple[object, bool]:
    from . import patterns
    if action == "tight":
        forest = patterns.RootedLabeledForest.from_json(_load_json(args.input))
        return {"is_tight": patterns.is_tight_forest(forest)}, True
    G = graphcore.Graph.from_json(_load_json(args.input))
    if action == "tf":
        return patterns.tf_polynomial(G).to_json(), True
    if action == "qpo":
        result = patterns.is_qpo(G)
        payload = {"is_qpo": result.ok}
        if result.witness is not None:
            payload["witness"] = list(result.witness)
        return payload, True
    if action == "verify":
        report = patterns.verify_tf_theorems(G)
        return report.to_json(), report.passed
    report = patterns.tf_integer_roots_classification(G)
    return report.to_json(), report.passed


def _gen_action(target: str, args) -> tuple[object, bool]:
    gen = {"graph": gen_graph, "complex": gen_complex, "multigraph": gen_multigraph}
    # the flags given, by name: a flag not given is None and keeps the default
    given = {k: v for k, v in vars(args).items()
             if v is not None and k not in ("kind", "action")}
    return gen[target](**given).to_json(), True


# The actions of each kind (the targets of gen) and the flags each one reads;
# a kind offers the flags its actions read, and an action refuses the rest.
_FLAGS: dict[str, dict[str, tuple[str, ...]]] = {
    "graph": {"isf": ("--weighted",), "chromatic": (), "nbc": (),
              "peo": ("--ordering",), "verify": ()},
    "complex": {"cf": ("--weighted",), "links": (), "peo": ("--ordering",),
                "verify": ()},
    "multigraph": {"chi": (), "isf": (), "perfect": (), "verify": (),
                   "regions": (), "signed": ("--s",)},
    "forest": {"tf": (), "qpo": (), "verify": (), "roots": (), "tight": ()},
    "gen": {"graph": ("--seed", "--n", "--p"), "complex": ("--seed", "--n", "--p"),
            "multigraph": ("--seed", "--n", "--max-edges")},
}

# every default is None, so a flag given is one that is not None
_FLAG_OPTIONS = {
    "--weighted": {"action": "store_true", "default": None,
                   "help": "emit the weighted generating function"},
    "--ordering": {"help": "JSON permutation array"},
    "--s": {"type": int, "help": "signed palette radius"},
    "--seed": {"type": int, "required": True, "help": "random seed"},
    "--n": {"type": int, "required": True, "help": "vertex count"},
    "--p": {"type": float, "help": "probability of each candidate"},
    "--max-edges": {"type": int, "help": "most edges drawn"},
}


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors are input errors: exit 2 with one line."""

    def error(self, message: str):
        raise InputError(message)


def _build_parser() -> argparse.ArgumentParser:
    # a flag is spelled in full: `--s` would otherwise abbreviate `--seed`
    parser = _Parser(prog="isfkit", allow_abbrev=False, description=(
        "Exact generating functions and decision procedures for increasing "
        "forests, cage-free complexes, multigraph arrangements, and tight forests."))
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind, actions in _FLAGS.items():
        p = sub.add_parser(kind, allow_abbrev=False, help="|".join(actions))
        p.add_argument("action", choices=actions)
        if kind != "gen":
            p.add_argument("input", help="path to the JSON instance")
        for flag in dict.fromkeys(f for flags in actions.values() for f in flags):
            p.add_argument(flag, **_FLAG_OPTIONS[flag])
    return parser


def _refuse_unread_flags(args) -> None:
    read = _FLAGS[args.kind][args.action]
    for dest, value in vars(args).items():
        flag = "--" + dest.replace("_", "-")
        if value is not None and flag in _FLAG_OPTIONS and flag not in read:
            raise InputError(f"{args.kind} {args.action} takes no {flag}")


def run(argv: list[str]) -> int:
    try:
        args = _build_parser().parse_args(argv)
        _refuse_unread_flags(args)
        act = {"graph": _graph_action, "complex": _complex_action, "gen": _gen_action,
               "multigraph": _multigraph_action, "forest": _forest_action}[args.kind]
        payload, passed = act(args.action, args)
        try:
            text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        except ValueError as exc:  # an int past the int-to-string digit limit
            raise BudgetExceededError(f"result too large to write: {exc}") from exc
    except (InputError, BudgetExceededError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except InternalCheckError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        # a bug, not a failed verification: keep exit 1 meaning the latter
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    print(text)
    print("ok" if passed else "FAILED: see report on stdout", file=sys.stderr)
    return 0 if passed else 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

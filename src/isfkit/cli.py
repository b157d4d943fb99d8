"""Batch command-line front end.

One command per process: parse a JSON instance, dispatch to the library,
emit the result as JSON on stdout and a one-line summary on stderr.
Exit codes: 0 success, 1 failed assertion, 2 bad input, 3 internal error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import graphcore
from .errors import BudgetExceededError, InputError, InternalCheckError, require_int
from .report import Report

__all__ = ["main", "run", "gen_graph", "gen_complex", "gen_multigraph"]


# ---------------------------------------------------------------------------
# Random instance generation (seeded; the seed is mandatory)
# ---------------------------------------------------------------------------


def gen_graph(seed: int, n: int, p: float = 0.5) -> graphcore.Graph:
    import random
    rng = random.Random(seed)
    edges = [
        (i, j)
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        if rng.random() < p
    ]
    return graphcore.Graph(n, edges)


def gen_complex(seed: int, n: int, p: float = 0.5) -> PureComplex:
    import random
    from .simplicial import PureComplex
    rng = random.Random(seed)
    facets = [
        (i, j, k)
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        for k in range(j + 1, n + 1)
        if rng.random() < p
    ]
    return PureComplex(n, 2, facets)


def gen_multigraph(seed: int, n: int, max_edges: int = 7) -> LabeledMultigraph:
    import random
    from .arrangement import LabeledMultigraph
    rng = random.Random(seed)
    # labels drawn from small distinct primes, which keeps them generic
    primes = [1, 2, 3, 5, 7]
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


def _budget(args) -> dict:  # passed only when given: the library owns the defaults
    return {} if args.budget is None else {"budget": args.budget}


def _refuse_unprintable_isf(G: graphcore.Graph) -> None:
    """Refuse an ISF polynomial that the int-to-string limit cannot write,
    before expanding it.  Its value at 1, prod_k (1 + |E_k|), is the sum of
    its n + 1 nonnegative coefficients, so the largest is at least
    p(1) / (n + 1): past the bound below, it has more digits than the limit
    allows.  A result under the bound is expanded, and `to_json` still
    refuses it if it is too large."""
    limit = sys.get_int_max_str_digits()
    if not limit:
        return
    if graphcore._isf_count(G) >= (G.n + 1) * 10**limit:
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
        _refuse_unprintable_isf(G)
        return graphcore.isf_polynomial(G).to_json(), True
    if action == "chromatic":
        return graphcore.chromatic_polynomial(G).to_json(), True
    if action == "nbc":
        ordering = _parse_ordering(args.ordering)
        order = None
        if ordering is not None:
            edges = G.sorted_edges()
            if sorted(ordering) != list(range(len(edges))):
                raise InputError(
                    "--ordering for nbc must permute 0..#edges-1 "
                    "(positions into the sorted edge list)"
                )
            order = graphcore.EdgeOrder([edges[i] for i in ordering])
        counts = graphcore.nbc_sets(G, order=order, **_budget(args))
        return {str(m): c for m, c in counts.items()}, True
    if action == "peo":
        ordering = _parse_ordering(args.ordering)
        if ordering is not None:
            return {"is_peo": graphcore.is_peo(G, ordering)}, True
        peo = graphcore.find_peo(G)
        return {"chordal": peo is not None, "peo": peo}, True
    if action == "verify":
        report = graphcore.verify_isf_nbc(G, **_budget(args))
        return report.to_json(), report.passed
    raise InputError(f"unknown graph action {action!r}")


def _complex_action(action: str, args) -> tuple[object, bool]:
    from . import simplicial
    delta = simplicial.PureComplex.from_json(_load_json(args.input))
    if action == "cf":
        if args.weighted:
            gf = simplicial.cf_polynomial(
                delta, weights={f: f for f in delta.facets}
            )
            return gf.to_json(), True
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
    if action == "verify":
        report = simplicial.verify_product_formula(delta, **_budget(args))
        extra = simplicial.structure_report(simplicial.full_subcomplex(delta))
        payload = report.to_json()
        payload["structure"] = Report(witnesses=extra).to_json()["witnesses"]
        return payload, report.passed
    raise InputError(f"unknown complex action {action!r}")


def _multigraph_action(action: str, args) -> tuple[object, bool]:
    from . import arrangement
    G = arrangement.LabeledMultigraph.from_json(_load_json(args.input))
    if action == "chi":
        L = arrangement.intersection_lattice(arrangement.build_arrangement(G))
        chi = arrangement.characteristic_polynomial(L)
        return {
            "chi": chi.to_json(),
            "lattice_size": L.size,
            "rank": L.rho,
        }, True
    if action == "isf":
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
    if action == "signed":
        if args.s is None:
            raise InputError("signed counting requires --s")
        return {
            "s": args.s,
            "count": arrangement.signed_chromatic_count(G, args.s),
        }, True
    raise InputError(f"unknown multigraph action {action!r}")


def _forest_action(action: str, args) -> tuple[object, bool]:
    from . import patterns
    if action == "tight":
        forest = patterns.RootedLabeledForest.from_json(_load_json(args.input))
        return {"is_tight": patterns.is_tight_forest(forest)}, True
    G = graphcore.Graph.from_json(_load_json(args.input))
    if action == "tf":
        return patterns.tf_polynomial(G, **_budget(args)).to_json(), True
    if action == "qpo":
        result = patterns.is_qpo(G)
        payload = {"is_qpo": result.ok}
        if result.witness is not None:
            payload["witness"] = list(result.witness)
        return payload, True
    if action == "verify":
        report = patterns.verify_tf_theorems(G, **_budget(args))
        return report.to_json(), report.passed
    if action == "roots":
        report = patterns.tf_integer_roots_classification(G)
        return report.to_json(), report.passed
    raise InputError(f"unknown forest action {action!r}")


def _gen_action(args) -> tuple[object, bool]:
    if args.target == "graph":
        return gen_graph(args.seed, args.n, args.p).to_json(), True
    if args.target == "complex":
        return gen_complex(args.seed, args.n, args.p).to_json(), True
    if args.target == "multigraph":
        max_edges = args.max_edges if args.max_edges is not None else 7
        return gen_multigraph(args.seed, args.n, max_edges).to_json(), True
    raise InputError(f"unknown gen target {args.target!r}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isfkit",
        description="Exact generating functions and decision procedures for "
        "increasing forests, cage-free complexes, multigraph arrangements, "
        "and tight forests.",
    )
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind, actions in (
        ("graph", "isf|chromatic|nbc|peo|verify"),
        ("complex", "cf|links|peo|verify"),
        ("multigraph", "chi|isf|perfect|verify|regions|signed"),
        ("forest", "tf|qpo|verify|roots|tight"),
    ):
        p = sub.add_parser(kind, help=f"actions: {actions}")
        p.add_argument("action", help=actions)
        p.add_argument("input", help="path to the JSON instance")
        p.add_argument("--weighted", action="store_true",
                       help="emit the weighted generating function")
        p.add_argument("--ordering", help="JSON permutation array")
        p.add_argument("--budget", type=int,
                       help="enumeration budget (graph nbc: transfer-table states)")
        p.add_argument("--s", type=int, help="signed palette radius")
    g = sub.add_parser("gen", help="generate a random instance")
    g.add_argument("target", choices=["graph", "complex", "multigraph"])
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--p", type=float, default=0.5)
    g.add_argument("--max-edges", dest="max_edges", type=int)
    return parser


def run(argv: list[str]) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if getattr(args, "budget", None) is not None and args.budget <= 0:
            raise InputError("--budget must be positive")
        if args.kind == "graph":
            payload, passed = _graph_action(args.action, args)
        elif args.kind == "complex":
            payload, passed = _complex_action(args.action, args)
        elif args.kind == "multigraph":
            payload, passed = _multigraph_action(args.action, args)
        elif args.kind == "forest":
            payload, passed = _forest_action(args.action, args)
        else:
            payload, passed = _gen_action(args)
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

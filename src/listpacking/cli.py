"""Command-line surface.

All results are emitted as pretty-printed JSON with sorted keys, so output
is byte-identical for identical inputs and seeds; timing is written to
stderr only.  Exit codes: 0 success / verified / packing found; 1 witness
found / no packing / counterexample; 2 input error; 3 resource cap
exceeded; 4 internal error (a result failed the library's own validation).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from listpacking import bigraph, covers, discharging, graphs, lemmas, solver
from listpacking.constructive import REGIME_K, pack_constructive

EXIT_OK = 0
EXIT_WITNESS = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4


def _unique_keys(pairs) -> dict:
    out = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f"JSON object repeats the key {key!r}")
        out[key] = value
    return out


def _read_json(path: str):
    try:
        if path == "-":
            return json.load(sys.stdin, object_pairs_hook=_unique_keys)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=_unique_keys)
    except (OSError, json.JSONDecodeError, RecursionError) as exc:
        # RecursionError: nesting deeper than the decoder's recursion limit
        raise ValueError(f"cannot read JSON from {path}: {exc}") from exc


def _emit(obj, out: str | None) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write {out}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _check_writable(path: str) -> None:
    """ValueError unless ``path`` could be written: not a directory, in an
    existing directory the process may write to.  Nothing is created, so a
    command that fails later leaves no empty file behind."""

    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        problem = "it is a directory"
    elif not os.path.isdir(parent):
        problem = f"no directory {parent}"
    elif not os.access(parent, os.W_OK) or (os.path.exists(path) and not os.access(path, os.W_OK)):
        problem = "permission denied"
    else:
        return
    raise ValueError(f"cannot write {path}: {problem}")


def _load_graph(path: str) -> graphs.Graph:
    return graphs.graph_from_json(_read_json(path))


def _cmd_gen(args) -> int:
    g = graphs.generate(args.kind, *args.params)
    _emit(graphs.graph_to_json(g), args.out)
    return EXIT_OK


def _cmd_girth(args) -> int:
    g = _load_graph(args.graph)
    val = graphs.girth(g)
    _emit({"girth": None if val == float("inf") else val}, args.out)
    return EXIT_OK


def _cmd_mad(args) -> int:
    g = _load_graph(args.graph)
    val = graphs.mad(g)
    _emit({"mad": str(val), "mad_float": float(val)}, args.out)
    return EXIT_OK


def _cmd_discharge(args) -> int:
    g = _load_graph(args.graph)
    rule = discharging.RULES.get(args.rule)
    if rule is None:
        raise ValueError(f"unknown rule {args.rule!r}; known: {', '.join(sorted(discharging.RULES))}")
    ledger = discharging.discharge_audit(g, rule)
    payload = ledger.as_json()
    payload["rule"] = args.rule
    payload["passes_exclusions"] = discharging.passes_exclusions(g, args.rule)
    _emit(payload, args.out)
    return EXIT_OK


def _cmd_solve(args) -> int:
    cover = covers.cover_from_json(_read_json(args.cover))
    packing = solver.solve_packing(cover)
    if packing is None:
        _emit({"status": "none"}, args.out)
        return EXIT_WITNESS
    _emit({"status": "packing", "packing": covers.packing_to_json(packing)}, args.out)
    return EXIT_OK


def _cmd_solve_list(args) -> int:
    la = covers.list_assignment_from_json(_read_json(args.lists))
    packing = solver.solve_list_packing(la)
    if packing is None:
        _emit({"status": "none"}, args.out)
        return EXIT_WITNESS
    _emit({"status": "packing", "packing": covers.packing_to_json(packing)}, args.out)
    return EXIT_OK


def _cmd_chromatic(args) -> int:
    g = _load_graph(args.graph)
    value = solver.packing_number(g, args.mode, args.upper, cap=args.cap)
    _emit({"mode": args.mode, "value": value}, args.out)
    return EXIT_OK


def _cmd_adversary(args) -> int:
    g = _load_graph(args.graph)
    if args.mode == "correspondence":
        if args.universe is not None:
            raise ValueError("--universe applies to list mode only")
        witness = solver.adversarial_cover_search(g, args.k, cap=args.cap)
        if witness is None:
            _emit({"status": "none", "k": args.k}, args.out)
            return EXIT_OK
        _emit({"status": "witness", "k": args.k, "cover": covers.cover_to_json(witness)}, args.out)
        return EXIT_WITNESS
    universe = args.universe if args.universe is not None else args.k * max(g.n, 1)
    witness = solver.adversarial_list_search(g, args.k, universe=universe, cap=args.cap)
    if witness is None:
        _emit({"status": "none", "k": args.k, "universe": universe}, args.out)
        return EXIT_OK
    _emit(
        {
            "status": "witness",
            "k": args.k,
            "universe": universe,
            "lists": covers.list_assignment_to_json(witness),
        },
        args.out,
    )
    return EXIT_WITNESS


def _cmd_pack(args) -> int:
    cover = covers.cover_from_json(_read_json(args.cover))
    outcome = pack_constructive(cover, args.regime, budget=args.budget)
    payload = {
        "regime": args.regime,
        "success": outcome.success,
        "reason": outcome.reason,
        "packing": covers.packing_to_json(outcome.packing) if outcome.packing else None,
    }
    _emit(payload, args.out)
    if args.trace:
        _emit(outcome.trace.as_json(), args.trace)
    return EXIT_OK if outcome.success else EXIT_WITNESS


def _cmd_classify(args) -> int:
    h = bigraph.bigraph_from_json(_read_json(args.bigraph))
    obs = bigraph.classify_obstruction(h)
    if obs is None:
        _emit({"status": "one_factor"}, args.out)
        return EXIT_OK
    _emit({"status": "obstruction", "obstruction": obs.as_json()}, args.out)
    return EXIT_WITNESS


def _cmd_verify_lemma(args) -> int:
    t0 = time.perf_counter()
    report = lemmas.verify(
        args.name, trials=args.trials, seed=args.seed, exhaustive=args.exhaustive
    )
    print(f"verify-lemma {args.name}: {time.perf_counter() - t0:.2f}s", file=sys.stderr)
    _emit(report.as_json(), args.report)
    return EXIT_OK if report.ok else EXIT_WITNESS


_SCHEMAS = """\
wire formats (all emitted with sorted keys):
  graph    {"n": 5, "edges": [[0,1], ...]}
  bigraph  {"s": 8, "rows": [7, ...]}  or  {"s": 8, "edges": [[i,j], ...]}
  cover    {"k": 3, "graph": <graph>, "arcs": [{"u":0,"v":1,"perm":[1,0,2]}, ...]}
           (the permutation maps each value at u to the value it forbids at v)
  lists    {"k": 2, "graph": <graph>, "lists": {"0": [1,2], ...}}
  packing  {"k": 2, "assign": {"0": [c1,c2], ...}}  (entry j = coloring j)
exit codes: 0 ok / verified / packing; 1 witness / none / counterexample;
2 input error (including --cap below 1, or --universe in correspondence
mode); 3 resource cap exceeded, by candidates past --cap, an option
table past 2^20 entries, or a graph past 100,000 vertices (a generated
one also past 100,000 edges) (emits {"status": "resource"});
4 internal error (a result failed self-validation; details on stderr).
"""


_CAP_HELP = "candidates one search may count before it exits 3, settled by a known packing or solved; at least 1"


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="listpacking",
        description="Exact packing solvers, bigraph machinery, and lemma verification.",
        epilog=_SCHEMAS,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="emit a named graph as JSON")
    p.add_argument("kind", choices=["cycle", "path", "complete", "complete_bipartite", "grid", "dodecahedron", "icosahedron", "cube"])
    p.add_argument("params", nargs="*", type=int)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("girth", help="shortest cycle length (null for forests)")
    p.add_argument("--graph", required=True, help="graph JSON file, or - for stdin")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_girth)

    p = sub.add_parser("mad", help="exact maximum average degree")
    p.add_argument("--graph", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_mad)

    p = sub.add_parser("discharge", help="audit a discharging rule on a graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--rule", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_discharge)

    p = sub.add_parser("solve", help="find a packing of a correspondence cover")
    p.add_argument("--cover", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("solve-list", help="find a packing of a list assignment")
    p.add_argument("--lists", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_solve_list)

    p = sub.add_parser("chromatic", help="packing number by adversarial search")
    p.add_argument("--graph", required=True)
    p.add_argument("--mode", choices=["list", "correspondence"], required=True)
    p.add_argument("--upper", type=int, required=True)
    p.add_argument("--cap", type=int, default=solver.CANDIDATE_CAP, help=_CAP_HELP)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_chromatic)

    p = sub.add_parser("adversary", help="search for an unsolvable cover/assignment")
    p.add_argument("--graph", required=True)
    p.add_argument("--mode", choices=["list", "correspondence"], required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument(
        "--universe",
        type=int,
        default=None,
        help="list mode only: color universe, at least k (default k*max(n, 1)); below k*max(n, 1), "
        '"none" means only that no unsolvable pattern was found whose classes the greedy realization '
        "fits into this many colors",
    )
    p.add_argument("--cap", type=int, default=solver.CANDIDATE_CAP, help=_CAP_HELP)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_adversary)

    p = sub.add_parser("pack", help="constructive delete/recurse/repair packer")
    p.add_argument(
        "--regime",
        choices=sorted(REGIME_K),
        required=True,
        help="mad4_k5: mad < 4, k=5; girth5_k4: triangle-free, mad < 10/3, k=4; planar_k8: k=8, graphs whose "
        "every peel remnant has a vertex of degree <= 4 or a triangle of degree sum <= 17, which holds every "
        "planar graph and some non-planar ones (K6, K3,3): planarity itself is not tested",
    )
    p.add_argument("--cover", required=True)
    p.add_argument("--budget", type=int, default=2)
    p.add_argument("--trace", help="write the repair trace to this file")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_pack)

    p = sub.add_parser("classify", help="classify why an 8x8 bigraph has no 1-factor")
    p.add_argument("--bigraph", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("verify-lemma", help="run a registered lemma verifier")
    p.add_argument("name", choices=sorted(lemmas.REGISTRY))
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report", help="write the report JSON to this file")
    p.set_defaults(func=_cmd_verify_lemma)

    return top


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        # every output path is checked before the command's work starts
        paths = [path for path in (getattr(args, name, None) for name in ("out", "report", "trace")) if path]
        for path in paths:
            _check_writable(path)
        if len({os.path.realpath(path) for path in paths}) < len(paths):
            raise ValueError(f"two outputs name one file: {' and '.join(paths)}")
        try:
            return args.func(args)
        except solver.ResourceCapError as exc:
            _emit({"status": "resource", "detail": str(exc)}, getattr(args, "out", None))
            return EXIT_RESOURCE
    except (ValueError, KeyError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

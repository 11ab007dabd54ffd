"""Behaviour fingerprints: sha256 digests of verdicts, witnesses, packings,
repair traces, verifier reports, straightenings and CLI output bytes.

A change that only restructures the code must leave every digest as it is.
Each case builds a JSON value (or, for the CLI, the exact stdout bytes) and
hashes its canonical serialization, so a digest moves when any output,
enumeration order or random draw behind it moves.  After a deliberate
behaviour change, each failing case names its new digest; update
``GOLDEN`` in the same change and say why.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from listpacking import cli
from listpacking.bigraph import bigraph_to_json
from listpacking.constructive import pack_constructive
from listpacking.covers import (
    Packing,
    cover_to_json,
    list_assignment,
    list_assignment_to_json,
    packing_to_json,
    random_cover,
    straighten,
)
from listpacking.graphs import generate, graph_to_json, random_planar_triangulation_min5
from listpacking.lemmas import REGISTRY, planted_obstruction, verify
from listpacking.solver import (
    _spanning_forest,
    adversarial_list_search,
    packing_number,
    solve_packing,
)


def _packing(p: Packing | None):
    return None if p is None else packing_to_json(p)


def list_packing_numbers():
    graphs = {f"C{n}": generate("cycle", n) for n in (3, 4, 5)}
    graphs["K3"] = generate("complete", 3)
    return {name: packing_number(g, "list", 4) for name, g in graphs.items()}


def list_witnesses():
    out = {}
    for n in (4, 6):
        w = adversarial_list_search(generate("cycle", n), 2, universe=2 * n)
        out[f"C{n}"] = None if w is None else list_assignment_to_json(w)
    return out


def cover_solutions():
    out = []
    for kind, k, seeds in (("cube", 3, range(12)), ("cube", 4, range(6)), ("dodecahedron", 4, range(12))):
        g = generate(kind)
        for seed in seeds:
            out.append([kind, k, seed, _packing(solve_packing(random_cover(g, k, seed)))])
    return out


def constructive_packings():
    jobs = [("girth5_k4", generate("dodecahedron"), 4, s) for s in (0, 1, 2, 3, 47)]
    jobs += [("mad4_k5", generate("grid", 4, 5), 5, s) for s in (0, 1, 2)]
    jobs += [("planar_k8", random_planar_triangulation_min5(s), 8, s) for s in (0, 1)]
    out = []
    for regime, g, k, seed in jobs:
        got = pack_constructive(random_cover(g, k, seed), regime)
        out.append([regime, seed, got.success, got.reason, got.trace.as_json(), _packing(got.packing)])
    return out


def verifier_reports():
    out = [verify(name, trials=5 if name == "k_kplus1" else 20, seed=0).as_json() for name in sorted(REGISTRY)]
    for name in ("canalwaysswap", "easy_prop", "girth5_condition"):
        out.append(verify(name, exhaustive=True).as_json())
    return out


def straightenings():
    out = []
    for kind, k, seed in (("dodecahedron", 4, 0), ("cube", 3, 5), ("grid", 3, 1)):
        g = generate(kind, 3, 4) if kind == "grid" else generate(kind)
        cover = random_cover(g, k, seed)
        tree = sorted(_spanning_forest(g))
        for edges in (tree, [(v, u) for u, v in reversed(tree)]):
            straight, rho = straighten(cover, edges)
            out.append([cover_to_json(straight), {str(v): list(p.image) for v, p in sorted(rho.items())}])
    return out


def cli_stdout(tmp_path, capsys):
    def path(name, obj):
        p = tmp_path / name
        p.write_text(json.dumps(obj))
        return str(p)

    c4 = path("c4.json", graph_to_json(generate("cycle", 4)))
    c5 = path("c5.json", graph_to_json(generate("cycle", 5)))
    lists = list_assignment(generate("cycle", 5), 3, [[0, 1, 2], [1, 2, 3], [0, 2, 3], [0, 1, 3], [1, 2, 4]])
    gadget = list_assignment(generate("cycle", 4), 2, [[1, 2], [1, 2], [1, 3], [2, 3]])
    runs = [
        ["solve", "--cover", path("cube3.json", cover_to_json(random_cover(generate("cube"), 3, 1)))],
        ["solve", "--cover", path("cube4.json", cover_to_json(random_cover(generate("cube"), 4, 1)))],
        ["solve-list", "--lists", path("lists.json", list_assignment_to_json(lists))],
        ["solve-list", "--lists", path("gadget.json", list_assignment_to_json(gadget))],
        ["adversary", "--graph", c4, "--mode", "list", "--k", "2"],
        ["adversary", "--graph", c5, "--mode", "correspondence", "--k", "3"],
        ["adversary", "--graph", c5, "--mode", "correspondence", "--k", "4"],
        ["verify-lemma", "switcher_simple", "--trials", "30", "--seed", "2"],
        ["verify-lemma", "type_prop", "--trials", "30", "--seed", "0"],
    ]
    for otype in (1, 2, 3, 4):
        h = planted_obstruction(random.Random(otype), otype).h
        runs.append(["classify", "--bigraph", path(f"type{otype}.json", bigraph_to_json(h))])
    runs.append(["classify", "--bigraph", path("full.json", {"s": 8, "rows": [255] * 8})])
    out = []
    for argv in runs:
        code = cli.main(argv)
        out.append([argv[0], code, capsys.readouterr().out])
    return out


CASES = {
    "list_packing_numbers": list_packing_numbers,
    "list_witnesses": list_witnesses,
    "cover_solutions": cover_solutions,
    "constructive_packings": constructive_packings,
    "verifier_reports": verifier_reports,
    "straightenings": straightenings,
    "cli_stdout": cli_stdout,
}

GOLDEN = {
    "cli_stdout": "902b021d77f4c62b1b394f845162645019c52491ddc31d67695d95f87f9196a9",
    "constructive_packings": "3f6666d4055df20c04311c41ade01dcd38109bf80d12d1a9da01aff55c8eb584",
    "cover_solutions": "27eea61cf4daf94e863dea58aa06321c6325ae6421dc0b2d306c53d0e6b4554a",
    "list_packing_numbers": "77d7fd5f36f4ae8e52c66278e6143887e1fcc0237046d5f500b4c619f4ad6d00",
    "list_witnesses": "9368bd2c76ac8796603d6cf050c649b2d2e7dd840e89c3bed53a0d246bfc0e78",
    "straightenings": "e9e459f7cba8d4f3043c9fa7b54a873678a1b62d23d7ae57792eb889e6622aa2",
    "verifier_reports": "9e84565f32e6a60585e4c186676b281cfe6b4e8b519cdc5f7ad1769342f58bdc",
}


def digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_fingerprint(name, tmp_path, capsys):
    got = digest(CASES[name](tmp_path, capsys) if name == "cli_stdout" else CASES[name]())
    assert got == GOLDEN.get(name), f"{name} now digests to {got}"

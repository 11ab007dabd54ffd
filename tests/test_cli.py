import json

import pytest

from listpacking import constructive, solver
from listpacking.cli import main
from listpacking.covers import (
    Check,
    cover_to_json,
    list_assignment,
    list_assignment_to_json,
    random_cover,
)
from listpacking.graphs import generate, graph_to_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


class TestBasics:
    def test_gen_girth_pipeline(self, tmp_path, capsys):
        code, out = run(capsys, "gen", "cycle", "5")
        assert code == 0
        g = write_json(tmp_path, "c5.json", json.loads(out))
        code, out = run(capsys, "girth", "--graph", g)
        assert code == 0 and json.loads(out) == {"girth": 5}

    def test_girth_forest_null(self, tmp_path, capsys):
        path = write_json(tmp_path, "p4.json", graph_to_json(generate("path", 4)))
        code, out = run(capsys, "girth", "--graph", path)
        assert code == 0 and json.loads(out) == {"girth": None}

    def test_mad_exact_string(self, tmp_path, capsys):
        path = write_json(tmp_path, "p3.json", graph_to_json(generate("path", 3)))
        code, out = run(capsys, "mad", "--graph", path)
        assert code == 0 and json.loads(out)["mad"] == "4/3"

    def test_discharge(self, tmp_path, capsys):
        path = write_json(tmp_path, "k34.json", graph_to_json(generate("complete_bipartite", 3, 4)))
        code, out = run(capsys, "discharge", "--graph", path, "--rule", "P4")
        payload = json.loads(out)
        assert code == 0
        assert payload["min_final"] == "8/3"
        assert payload["passes_exclusions"] is False

    def test_gen_round_trip(self, capsys):
        code, out = run(capsys, "gen", "dodecahedron")
        emitted = json.loads(out)
        assert emitted == graph_to_json(generate("dodecahedron"))


class TestSolving:
    def test_chromatic(self, tmp_path, capsys):
        path = write_json(tmp_path, "c5.json", graph_to_json(generate("cycle", 5)))
        code, out = run(capsys, "chromatic", "--graph", path, "--mode", "correspondence", "--upper", "5")
        assert code == 0 and json.loads(out)["value"] == 4

    def test_adversary_and_solve(self, tmp_path, capsys):
        path = write_json(tmp_path, "c5.json", graph_to_json(generate("cycle", 5)))
        code, out = run(capsys, "adversary", "--graph", path, "--mode", "correspondence", "--k", "3")
        assert code == 1
        witness = json.loads(out)["cover"]
        cover_path = write_json(tmp_path, "bad.json", witness)
        code, out = run(capsys, "solve", "--cover", cover_path)
        assert code == 1 and json.loads(out) == {"status": "none"}

    def test_solve_list(self, tmp_path, capsys):
        g = generate("cycle", 4)
        payload = {
            "k": 2,
            "graph": graph_to_json(g),
            "lists": {"0": [1, 2], "1": [1, 2], "2": [1, 3], "3": [2, 3]},
        }
        path = write_json(tmp_path, "gadget.json", payload)
        code, out = run(capsys, "solve-list", "--lists", path)
        assert code == 1 and json.loads(out) == {"status": "none"}

    def test_pack(self, tmp_path, capsys):
        cover = random_cover(generate("dodecahedron"), 4, 3)
        path = write_json(tmp_path, "cover.json", cover_to_json(cover))
        trace_path = str(tmp_path / "trace.json")
        code, out = run(capsys, "pack", "--regime", "girth5_k4", "--cover", path, "--trace", trace_path)
        assert code == 0
        payload = json.loads(out)
        assert payload["success"] is True
        trace = json.loads((tmp_path / "trace.json").read_text())
        assert trace["success"] is True

    def test_classify(self, tmp_path, capsys):
        path = write_json(tmp_path, "h.json", {"s": 8, "rows": [7, 7, 7, 7, 7, 248, 248, 248]})
        code, out = run(capsys, "classify", "--bigraph", path)
        assert code == 1
        assert json.loads(out)["obstruction"]["otype"] == 1


class TestVerifyLemma:
    def test_exhaustive(self, capsys):
        code, out = run(capsys, "verify-lemma", "canalwaysswap", "--exhaustive")
        payload = json.loads(out)
        assert code == 0
        assert payload["counterexamples"] == []
        assert "elapsed" not in payload  # byte-determinism of reports

    def test_randomized_seeded(self, capsys):
        code, out1 = run(capsys, "verify-lemma", "switcher_simple", "--trials", "200", "--seed", "5")
        assert code == 0
        code, out2 = run(capsys, "verify-lemma", "switcher_simple", "--trials", "200", "--seed", "5")
        assert out1 == out2


class TestExitCodes:
    def test_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _ = run(capsys, "girth", "--graph", str(bad))
        assert code == 2

    def test_unknown_rule(self, tmp_path, capsys):
        path = write_json(tmp_path, "c5.json", graph_to_json(generate("cycle", 5)))
        code, _ = run(capsys, "discharge", "--graph", path, "--rule", "P7")
        assert code == 2

    def test_resource_cap(self, tmp_path, capsys):
        path = write_json(tmp_path, "c5.json", graph_to_json(generate("cycle", 5)))
        code, _ = run(capsys, "adversary", "--graph", path, "--mode", "correspondence", "--k", "4", "--cap", "3")
        assert code == 3


    @pytest.mark.parametrize(
        "argv",
        [
            ["pack", "--regime", "girth5_k4", "--budget", "-3"],
            ["pack", "--regime", "girth5_k4", "--budget", "3"],
            ["verify-lemma", "easy_prop", "--trials", "-5"],
            ["verify-lemma", "easy_prop", "--trials", "0"],
            ["verify-lemma", "easy_prop", "--exhaustive", "--trials", "3"],
            ["verify-lemma", "easy_prop", "--seed", "-1"],
            ["chromatic", "--mode", "list", "--upper", "0"],
            ["adversary", "--mode", "list", "--k", "2", "--universe", "1"],
            ["adversary", "--mode", "list", "--k", "2", "--universe", "0"],
            ["adversary", "--mode", "list", "--k", "2", "--universe", "-3"],
            ["adversary", "--mode", "list", "--k", "0"],
            ["adversary", "--mode", "list", "--k", "-1", "--universe", "5"],
            ["adversary", "--mode", "correspondence", "--k", "0"],
            ["adversary", "--mode", "correspondence", "--k", "-1", "--universe", "5"],
            ["adversary", "--mode", "list", "--k", "2", "--cap", "0"],
            ["adversary", "--mode", "correspondence", "--k", "2", "--cap", "-4"],
            ["chromatic", "--mode", "correspondence", "--upper", "3", "--cap", "0"],
            ["adversary", "--mode", "correspondence", "--k", "2", "--universe", "4"],
        ],
    )
    def test_count_out_of_range(self, tmp_path, capsys, argv):
        cover = write_json(tmp_path, "cover.json", cover_to_json(random_cover(generate("dodecahedron"), 4, 3)))
        graph = write_json(tmp_path, "c4.json", graph_to_json(generate("cycle", 4)))
        extra = {"pack": ["--cover", cover], "chromatic": ["--graph", graph], "adversary": ["--graph", graph]}
        code, out = run(capsys, *argv, *extra.get(argv[0], []))
        assert code == 2 and out == ""

    def test_list_size_zero(self, tmp_path, capsys):
        payload = {"k": 0, "graph": graph_to_json(generate("path", 2)), "lists": {"0": [], "1": []}}
        code, _ = run(capsys, "solve-list", "--lists", write_json(tmp_path, "k0.json", payload))
        assert code == 2

    @pytest.mark.parametrize("key", ["01", "9"])
    def test_list_keys_are_the_vertices(self, tmp_path, capsys, key):
        # a non-canonical key, or one naming no vertex, is refused, not dropped
        lists = {"0": [0, 1], "1": [1, 2], key: [7, 8]}
        payload = {"k": 2, "graph": graph_to_json(generate("path", 2)), "lists": lists}
        code, out = run(capsys, "solve-list", "--lists", write_json(tmp_path, "keys.json", payload))
        assert code == 2 and out == ""

    def test_repeated_json_key(self, tmp_path, capsys):
        # the second list for vertex 1 would silently replace the first
        path = tmp_path / "repeated.json"
        path.write_text(
            '{"k": 2, "graph": {"n": 2, "edges": [[0, 1]]},'
            ' "lists": {"0": [0, 1], "1": [0, 1], "1": [2, 3]}}'
        )
        code, out = run(capsys, "solve-list", "--lists", str(path))
        assert code == 2 and out == ""

    def test_repeated_arc(self, tmp_path, capsys):
        # a packing that keeps the second arc's constraint breaks the first
        arcs = [{"u": 0, "v": 1, "perm": [0, 1]}, {"u": 0, "v": 1, "perm": [1, 0]}]
        payload = {"k": 2, "graph": graph_to_json(generate("path", 2)), "arcs": arcs}
        code, out = run(capsys, "solve", "--cover", write_json(tmp_path, "arcs.json", payload))
        assert code == 2 and out == ""

    @pytest.mark.parametrize(
        "module, argv",
        [
            (solver, ["solve"]),
            (constructive, ["pack", "--regime", "girth5_k4"]),
            (solver, ["solve-list"]),
            (solver, ["adversary", "--mode", "list", "--k", "2"]),
            (solver, ["chromatic", "--mode", "list", "--upper", "3"]),
            (solver, ["adversary", "--mode", "correspondence", "--k", "2"]),
            (solver, ["chromatic", "--mode", "correspondence", "--upper", "3"]),
        ],
    )
    def test_internal_error(self, tmp_path, capsys, monkeypatch, module, argv):
        def forced(instance, packing):
            return Check(False, ("forced",))

        if argv[0] in ("adversary", "chromatic"):
            # both searches check every packing the solver hands them; this
            # one puts equal values in one coloring at every vertex
            def same_order(g, k, maps, order=None):
                return {v: tuple(range(k)) for v in range(g.n)}

            monkeypatch.setattr(module, "_core_solve", same_order)
            argv = argv + ["--graph", write_json(tmp_path, "c4.json", graph_to_json(generate("cycle", 4)))]
        elif argv[0] == "solve-list":
            monkeypatch.setattr(module, "validate_list_packing", forced)
            la = list_assignment(generate("cycle", 4), 2, [[0, 1], [1, 2], [0, 2], [1, 2]])
            argv = argv + ["--lists", write_json(tmp_path, "lists.json", list_assignment_to_json(la))]
        else:
            monkeypatch.setattr(module, "validate_packing", forced)
            cover = random_cover(generate("dodecahedron"), 4, 3)
            argv = argv + ["--cover", write_json(tmp_path, "cover.json", cover_to_json(cover))]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == "" and "internal error" in captured.err


# Integer fields of each wire format; a JSON number, string or boolean that
# merely converts to the integer must be refused, not coerced.
STRICT_CASES = [
    ("girth", "--graph", {"n": 3, "edges": [[0, 1], [1, 2], [0, 2]]}, [("n",), ("edges", 0, 1)]),
    ("classify", "--bigraph", {"s": 8, "rows": [7] * 5 + [248] * 3}, [("s",), ("rows", 0)]),
    (
        "classify",
        "--bigraph",
        {"s": 8, "edges": [[i, j] for i in range(8) for j in (range(3) if i < 5 else range(3, 8))]},
        [("edges", 1, 1)],
    ),
    (
        "solve",
        "--cover",
        cover_to_json(random_cover(generate("cycle", 3), 2, 0)),
        [("k",), ("arcs", 0, "v"), ("arcs", 0, "perm", 1), ("graph", "n")],
    ),
    (
        "solve-list",
        "--lists",
        {"k": 2, "graph": graph_to_json(generate("path", 2)), "lists": {"0": [0, 1], "1": [1, 2]}},
        [("k",), ("lists", "1", 0), ("graph", "edges", 0, 1)],
    ),
]


@pytest.mark.parametrize("command, flag, payload, paths", STRICT_CASES, ids=[c[0] + c[1] for c in STRICT_CASES])
def test_wire_integers_are_strict(tmp_path, capsys, command, flag, payload, paths):
    code, _ = run(capsys, command, flag, write_json(tmp_path, "ok.json", payload))
    assert code in (0, 1)
    for path in paths:
        obj = json.loads(json.dumps(payload))
        parent = obj
        for key in path[:-1]:
            parent = parent[key]
        good = parent[path[-1]]
        for bad in [float(good), good + 0.5, str(good)] + [bool(good)] * (good in (0, 1)):
            parent[path[-1]] = bad
            code, out = run(capsys, command, flag, write_json(tmp_path, "bad.json", obj))
            assert code == 2, (path, bad, out)


class TestDeterminism:
    def test_chromatic_bytes(self, tmp_path, capsys):
        path = write_json(tmp_path, "c4.json", graph_to_json(generate("cycle", 4)))
        _, out1 = run(capsys, "chromatic", "--graph", path, "--mode", "list", "--upper", "3")
        _, out2 = run(capsys, "chromatic", "--graph", path, "--mode", "list", "--upper", "3")
        assert out1 == out2

    def test_emitted_graphs_reparse_equal(self, capsys):
        _, out = run(capsys, "gen", "grid", "3", "3")
        g = generate("grid", 3, 3)
        assert json.loads(out) == graph_to_json(g)

import io
import json
import time

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

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_adversary_empty_graph(self, tmp_path, capsys, k):
        # nothing to pack in either mode; list mode's default universe is
        # k * max(n, 1), the one packing_number searches with
        path = write_json(tmp_path, "empty.json", {"n": 0, "edges": []})
        code, out = run(capsys, "adversary", "--graph", path, "--mode", "list", "--k", str(k))
        assert code == 0 and json.loads(out) == {"status": "none", "k": k, "universe": k}
        code, out = run(capsys, "adversary", "--graph", path, "--mode", "correspondence", "--k", str(k))
        assert code == 0 and json.loads(out) == {"status": "none", "k": k}

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

    def test_deeply_nested_json_is_an_input_error(self, tmp_path, capsys, monkeypatch):
        # nesting past the decoder's recursion limit, through a file and
        # through stdin
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000)
        assert main(["girth", "--graph", str(deep)]) == 2
        monkeypatch.setattr("sys.stdin", io.StringIO("[" * 100_000))
        assert main(["mad", "--graph", "-"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("input error:") == 2

    @pytest.mark.parametrize("command", ["gen", "verify-lemma", "pack", "resource"])
    def test_unwritable_output_is_an_input_error(self, tmp_path, capsys, command):
        # an output path that cannot be opened for writing: a directory, or
        # a file in a missing directory
        missing = str(tmp_path / "missing" / "out.json")
        cover = write_json(tmp_path, "cover.json", cover_to_json(random_cover(generate("dodecahedron"), 4, 3)))
        graph = write_json(tmp_path, "c5.json", graph_to_json(generate("cycle", 5)))
        argv = {
            "gen": ["gen", "cycle", "5", "--out", str(tmp_path)],
            "verify-lemma": ["verify-lemma", "easy_prop", "--trials", "3", "--report", missing],
            "pack": ["pack", "--regime", "girth5_k4", "--cover", cover, "--trace", missing],
            "resource": ["adversary", "--graph", graph, "--mode", "correspondence", "--k", "4", "--cap", "3", "--out", missing],
        }[command]
        assert main(argv) == 2
        assert "input error: cannot write" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["missing", "directory"])
    @pytest.mark.parametrize("command", ["verify-lemma", "pack"])
    def test_unwritable_output_fails_before_the_work(self, tmp_path, capsys, monkeypatch, command, where):
        # the path is refused before any trial or packing runs, and nothing
        # reaches stdout
        def never(*args, **kwargs):
            raise AssertionError("the command ran before its output path was checked")

        monkeypatch.setattr("listpacking.lemmas.verify", never)
        monkeypatch.setattr("listpacking.cli.pack_constructive", never)
        bad = str(tmp_path / "missing" / "out.json") if where == "missing" else str(tmp_path)
        cover = write_json(tmp_path, "cover.json", cover_to_json(random_cover(generate("dodecahedron"), 4, 3)))
        argv = {
            "verify-lemma": ["verify-lemma", "switcher_simple", "--trials", "20000", "--report", bad],
            "pack": ["pack", "--regime", "girth5_k4", "--cover", cover, "--trace", bad],
        }[command]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"input error: cannot write {bad}" in captured.err

    def test_output_check_creates_no_file(self, tmp_path, capsys):
        # a writable path passes the check, and a command that then fails
        # on its input leaves no file there
        out = tmp_path / "out.json"
        bad = write_json(tmp_path, "bad.json", {"k": 2})
        assert main(["solve", "--cover", bad, "--out", str(out)]) == 2
        assert not out.exists()
        assert "input error:" in capsys.readouterr().err

    def test_deep_list_search_decides(self, tmp_path, capsys):
        # the 25x25 grid's 1,200 back edges, past Python's default recursion
        # limit, still give a witness at k=2, so its packing number is not
        # at most 2
        path = write_json(tmp_path, "grid.json", graph_to_json(generate("grid", 25, 25)))
        code, out = run(capsys, "adversary", "--graph", path, "--mode", "list", "--k", "2")
        result = json.loads(out)
        assert code == 1 and result["status"] == "witness" and result["universe"] == 1250
        lists = result["lists"]["lists"]
        assert [lists[str(v)] for v in range(625)] == [[0, 1]] * 623 + [[0, 2], [1, 2]]
        code, out = run(capsys, "chromatic", "--graph", path, "--mode", "list", "--upper", "2")
        result = json.loads(out)
        assert code == 3 and result["status"] == "resource"
        assert "witnesses exist up to k=2" in result["detail"]

    @pytest.mark.parametrize("mode, k", [("list", 9), ("list", 17), ("correspondence", 12)])
    def test_option_table_bound(self, tmp_path, capsys, mode, k):
        # a search whose option table would pass OPTION_CAP entries exits 3
        # before building it; list k=17 would need about 1.3e17 injections
        path = write_json(tmp_path, "c4.json", graph_to_json(generate("cycle", 4)))
        start = time.perf_counter()
        code, out = run(capsys, "adversary", "--graph", path, "--mode", mode, "--k", str(k))
        assert time.perf_counter() - start < 5
        result = json.loads(out)
        assert code == 3 and result["status"] == "resource" and "options" in result["detail"]


    @pytest.mark.parametrize(
        "argv",
        [
            ["pack", "--regime", "girth5_k4", "--budget", "-3"],
            ["pack", "--regime", "girth5_k4", "--budget", "3"],
            ["verify-lemma", "easy_prop", "--trials", "-5"],
            ["verify-lemma", "easy_prop", "--trials", "0"],
            ["verify-lemma", "easy_prop", "--exhaustive", "--trials", "3"],
            ["verify-lemma", "easy_prop", "--seed", "-1"],
            ["verify-lemma", "easy_prop", "--exhaustive", "--seed", "7"],
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

    @pytest.mark.parametrize("other", [[2, 3], [1, 3]])
    def test_list_longer_than_k(self, tmp_path, capsys, other):
        # [1, 2, 2] has k = 2 distinct colors but three entries
        payload = {"k": 2, "graph": graph_to_json(generate("path", 2)), "lists": {"0": [1, 2, 2], "1": other}}
        code, out = run(capsys, "solve-list", "--lists", write_json(tmp_path, "long.json", payload))
        assert code == 2 and out == ""

    @pytest.mark.parametrize("argv", [["girth"], ["chromatic", "--mode", "list", "--upper", "3"]])
    def test_repeated_edge(self, tmp_path, capsys, argv):
        # the path 0-1-2 with its first edge given twice
        path = write_json(tmp_path, "twice.json", {"n": 3, "edges": [[0, 1], [1, 0], [1, 2]]})
        code, out = run(capsys, *argv, "--graph", path)
        assert code == 2 and out == ""

    @pytest.mark.parametrize(
        "payload",
        [
            {"s": 8, "rows": [7] * 5 + [248] * 3, "edges": [[0, 0]]},
            {"s": 8, "edges": [[i, j] for i in range(8) for j in (range(3) if i < 5 else range(3, 8))] + [[0, 0]]},
        ],
        ids=["rows-and-edges", "repeated-edge"],
    )
    def test_ambiguous_bigraph(self, tmp_path, capsys, payload):
        code, out = run(capsys, "classify", "--bigraph", write_json(tmp_path, "h.json", payload))
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


# Each wire format's objects, by path into a payload its command accepts: a
# key the reader does not read must be refused, not ignored.
UNKNOWN_KEY_CASES = [
    ("girth", "--graph", {"n": 3, "edges": [[0, 1]]}, [()]),
    ("classify", "--bigraph", {"s": 8, "rows": [7] * 5 + [248] * 3}, [()]),
    ("solve", "--cover", cover_to_json(random_cover(generate("cycle", 3), 2, 0)), [(), ("graph",), ("arcs", 0)]),
    (
        "solve-list",
        "--lists",
        {"k": 2, "graph": graph_to_json(generate("path", 2)), "lists": {"0": [0, 1], "1": [1, 2]}},
        [(), ("graph",)],
    ),
]


@pytest.mark.parametrize("command, flag, payload, paths", UNKNOWN_KEY_CASES, ids=[c[0] for c in UNKNOWN_KEY_CASES])
def test_unknown_keys_are_refused(tmp_path, capsys, command, flag, payload, paths):
    code, _ = run(capsys, command, flag, write_json(tmp_path, "ok.json", payload))
    assert code in (0, 1)
    for path in paths:
        obj = json.loads(json.dumps(payload))
        target = obj
        for key in path:
            target = target[key]
        target["x"] = 1
        code, out = run(capsys, command, flag, write_json(tmp_path, "bad.json", obj))
        assert code == 2 and out == "", path


# Array fields of each wire format, by path into a payload its command
# accepts: an object or a string in an array's place iterates like one (an
# empty one as no entries at all), and must be refused, not read as one.
ARRAY_CASES = [
    ("mad", "--graph", {"n": 3, "edges": [[0, 1], [1, 2]]}, [("edges",), ("edges", 0)]),
    ("classify", "--bigraph", {"s": 8, "rows": [7] * 5 + [248] * 3}, [("rows",)]),
    (
        "classify",
        "--bigraph",
        {"s": 8, "edges": [[i, j] for i in range(8) for j in (range(3) if i < 5 else range(3, 8))]},
        [("edges",), ("edges", 1)],
    ),
    ("solve", "--cover", {"k": 2, "graph": {"n": 2, "edges": []}, "arcs": []}, [("arcs",), ("graph", "edges")]),
    ("solve", "--cover", cover_to_json(random_cover(generate("cycle", 3), 2, 0)), [("arcs", 0, "perm")]),
    (
        "solve-list",
        "--lists",
        {"k": 2, "graph": graph_to_json(generate("path", 2)), "lists": {"0": [0, 1], "1": [1, 2]}},
        [("lists", "1"), ("graph", "edges")],
    ),
]


@pytest.mark.parametrize("command, flag, payload, paths", ARRAY_CASES, ids=[c[0] + c[1] for c in ARRAY_CASES])
def test_wire_arrays_are_strict(tmp_path, capsys, command, flag, payload, paths):
    code, _ = run(capsys, command, flag, write_json(tmp_path, "ok.json", payload))
    assert code in (0, 1)
    for path in paths:
        for bad in ({}, ""):
            obj = json.loads(json.dumps(payload))
            parent = obj
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = bad
            code, out = run(capsys, command, flag, write_json(tmp_path, "bad.json", obj))
            assert code == 2 and out == "", (path, bad)


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

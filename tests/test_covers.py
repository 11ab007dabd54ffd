import json
import random
from itertools import permutations, product

import pytest

from listpacking.covers import (
    Check,
    CorrespondenceCover,
    ListAssignment,
    Packing,
    Perm,
    apply_relabel,
    cover_from_json,
    cover_to_json,
    forbidden_maps,
    list_assignment,
    list_assignment_from_json,
    list_assignment_to_json,
    list_to_cover,
    packing_from_json,
    packing_to_json,
    pull_back_list_packing,
    random_cover,
    straighten,
    validate_list_packing,
    validate_packing,
)
from listpacking.bigraph import _raw_column_masks
from listpacking.graphs import Graph, generate, graph_from_edges, random_planar_triangulation_min5
from listpacking.solver import _extension_key, _list_pattern_maps, _rows, solve_packing
from oracles import oracle_cover_solvable


def all_covers(g, k):
    edges = g.sorted_edges()
    for images in product(permutations(range(k)), repeat=len(edges)):
        yield CorrespondenceCover(g, k, {e: Perm(p) for e, p in zip(edges, images)})


class TestPerm:
    def test_algebra(self):
        p = Perm((1, 2, 0))
        assert p.inverse().image == (2, 0, 1)
        assert p.after(p.inverse()) == Perm.identity(p.k)
        assert Perm.identity(3)(1) == 1

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            Perm((0, 0, 1))

    def test_slotted(self):
        p = Perm((1, 2, 0))
        assert not hasattr(p, "__dict__")
        with pytest.raises(AttributeError):
            p.image = (0, 1, 2)
        assert p == Perm((1, 2, 0)) and hash(p) == hash(Perm((1, 2, 0))) and p != Perm.identity(3)
        assert repr(p) == "Perm(image=(1, 2, 0))"
        with pytest.raises(ValueError, match="is not a permutation"):
            Perm((1, 1))


class TestCoverValidation:
    def test_each_edge_once(self):
        g = generate("path", 2)
        with pytest.raises(ValueError):
            CorrespondenceCover(g, 2, {(0, 1): Perm((0, 1)), (1, 0): Perm((0, 1))})
        with pytest.raises(ValueError):
            CorrespondenceCover(g, 2, {})

    def test_perm_size(self):
        g = generate("path", 2)
        with pytest.raises(ValueError):
            CorrespondenceCover(g, 3, {(0, 1): Perm((1, 0))})

    def test_perm_along_inverts(self):
        g = generate("path", 2)
        p = Perm((1, 2, 0))
        cover = CorrespondenceCover(g, 3, {(0, 1): p})
        assert cover.perm_along(0, 1).image == p.image
        assert cover.perm_along(1, 0).image == p.inverse().image


class TestStraighten:
    def test_already_identity(self):
        g = generate("cycle", 3)
        ident = Perm.identity(2)
        cover = CorrespondenceCover(g, 2, {e: ident for e in g.sorted_edges()})
        out, rho = straighten(cover, [(0, 1), (1, 2)])
        assert all(p == Perm.identity(p.k) for p in out.arcs.values())
        assert all(p == Perm.identity(p.k) for p in rho.values())

    def test_rejects_cycles_in_tree(self):
        g = generate("cycle", 3)
        cover = random_cover(g, 2, 0)
        with pytest.raises(ValueError):
            straighten(cover, [(0, 1), (1, 2), (0, 2)])

    @pytest.mark.parametrize(
        "kind,params,k",
        [
            ("cycle", (3,), 2),
            ("cycle", (3,), 3),
            ("cycle", (4,), 2),
            ("cycle", (4,), 3),
            ("path", (3,), 2),
            ("path", (3,), 3),
        ],
    )
    def test_solvability_preserved_exhaustively(self, kind, params, k):
        g = generate(kind, *params)
        tree = g.sorted_edges()[: g.n - 1]
        for cover in all_covers(g, k):
            out, rho = straighten(cover, tree)
            for u, v in tree:
                assert out.perm_along(u, v) == Perm.identity(out.k)
            before = solve_packing(cover)
            after = solve_packing(out)
            assert (before is None) == (after is None)
            if after is not None:
                pulled = apply_relabel(after, rho, inverse=True)
                assert validate_packing(cover, pulled).ok

    def test_k2_relabel_roundtrip(self):
        g = generate("path", 2)
        cover = CorrespondenceCover(g, 2, {(0, 1): Perm((1, 0))})
        out, rho = straighten(cover, [(0, 1)])
        assert out.perm_along(0, 1) == Perm.identity(out.k)
        p = solve_packing(out)
        assert validate_packing(cover, apply_relabel(p, rho, inverse=True)).ok


class TestListToCover:
    def test_identical_lists_give_identity(self):
        g = generate("cycle", 4)
        la = list_assignment(g, 2, [[5, 9]] * 4)
        cover, indexing = list_to_cover(la)
        assert all(p == Perm.identity(p.k) for p in cover.arcs.values())
        assert indexing[0] == (5, 9)

    def test_disjoint_lists_deterministic(self):
        g = generate("path", 2)
        la = list_assignment(g, 2, [[0, 1], [2, 3]])
        cover, _ = list_to_cover(la)
        again, _ = list_to_cover(la)
        assert cover.arcs == again.arcs

    def test_even_cycle_gadget_cover_unsolvable(self):
        # the cover image of the bad 2-assignment is unsolvable too
        g = generate("cycle", 4)
        la = list_assignment(g, 2, [[1, 2], [1, 2], [1, 3], [2, 3]])
        cover, _ = list_to_cover(la)
        assert solve_packing(cover) is None

    def test_pull_back_validates(self):
        rng = random.Random(0)
        g = generate("cycle", 5)
        for _ in range(40):
            universe = rng.randrange(3, 8)
            la = list_assignment(
                g, 3, [rng.sample(range(universe), 3) for _ in range(g.n)]
            )
            cover, indexing = list_to_cover(la)
            p = solve_packing(cover)
            if p is not None:
                pulled = pull_back_list_packing(indexing, p)
                assert validate_list_packing(la, pulled).ok


class TestExtensionBigraphs:
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_forbidden_maps_invert_reverse_arcs(self, k):
        # arcs stored both ways round; every map equals the Perm route
        g = generate("grid", 3, 3)
        rng = random.Random(k)
        arcs = {}
        for u, v in g.sorted_edges():
            image = tuple(rng.sample(range(k), k))
            arcs[(u, v) if rng.random() < 0.5 else (v, u)] = Perm(image)
        cover = CorrespondenceCover(g, k, arcs)
        maps = forbidden_maps(cover, range(g.n), ())
        assert maps == {(u, v): cover.perm_along(u, v).image for v in range(g.n) for u in g.adjacency[v]}
        assert forbidden_maps(cover, (4,), {1}) == {(1, 4): cover.perm_along(1, 4).image}

    def test_no_packed_neighbors(self):
        g = generate("cycle", 5)
        cover = random_cover(g, 3, 1)
        rows = _rows(3, _extension_key(0, 3, g.adjacency, forbidden_maps(cover, (0,), {}), {}))
        assert rows == (7, 7, 7)

    def test_degree_bound(self):
        rng = random.Random(4)
        g = generate("cycle", 6)
        for seed in range(30):
            cover = random_cover(g, 4, seed)
            packing = Packing(4)
            v = rng.randrange(6)
            packed = 0
            for w in g.adjacency[v]:
                if rng.random() < 0.7:
                    packing.assign[w] = tuple(rng.sample(range(4), 4))
                    packed += 1
            rows = _rows(4, _extension_key(v, 4, g.adjacency, forbidden_maps(cover, (v,), packing.assign), packing.assign))
            degs = [r.bit_count() for r in rows] + [c.bit_count() for c in _raw_column_masks(4, rows)]
            assert min(degs) >= 4 - packed

    def test_closing_arc_example_cover_form(self):
        # full-permutation transposition: three forbidden pairs
        g = generate("cycle", 5)
        arcs = {(i, i + 1): Perm.identity(3) for i in range(4)}
        arcs[(0, 4)] = Perm((1, 0, 2))
        cover = CorrespondenceCover(g, 3, arcs)
        assign = {0: (0, 1, 2)}
        rows = _rows(3, _extension_key(4, 3, g.adjacency, forbidden_maps(cover, (4,), assign), assign))
        missing = {(i, j) for i in range(3) for j in range(3) if not rows[i] >> j & 1}
        assert missing == {(0, 1), (1, 0), (2, 2)}

    def test_closing_arc_example_list_form(self):
        # shared colors 1,2 crossed between the packings, third color free:
        # the classic seven-edge extension bigraph
        g = generate("cycle", 5)
        la = list_assignment(g, 3, [[1, 2, 4]] + [[1, 2, 3]] * 4)
        # colors (2, 1, 4) at vertex 0, written as positions in its list
        rows = _rows(3, _extension_key(4, 3, g.adjacency, _list_pattern_maps(la), {0: (1, 0, 2)}))
        missing = {(i, j) for i in range(3) for j in range(3) if not rows[i] >> j & 1}
        # color index of 2 is 1, forbidden for coloring 0; index of 1 is 0,
        # forbidden for coloring 1
        assert missing == {(1, 0), (0, 1)}
        assert sum(r.bit_count() for r in rows) == 7


class TestValidators:
    def test_k1_edgeless(self):
        g = Graph(3, frozenset())
        cover = CorrespondenceCover(g, 1, {})
        assert validate_packing(cover, Packing(1, {v: (0,) for v in range(3)})).ok

    def test_identity_k2_collision(self):
        g = generate("path", 2)
        cover = CorrespondenceCover(g, 2, {(0, 1): Perm.identity(2)})
        check = validate_packing(cover, Packing(2, {0: (0, 1), 1: (0, 1)}))
        assert not check.ok
        assert len([v for v in check.violations if "arc" in v]) == 2

    def test_exact_violations(self):
        # arcs in both orientations; the packing breaks arcs (2,1) and
        # (2,3), and a collision at vertex 0 stops before any arc is read
        g = graph_from_edges(4, ((0, 1), (1, 2), (2, 3), (0, 3)))
        arcs = {(0, 1): (0, 1, 2), (2, 1): (1, 2, 0), (2, 3): (2, 0, 1), (3, 0): (0, 2, 1)}
        cover = CorrespondenceCover(g, 3, {e: Perm(p) for e, p in arcs.items()})
        assign = {0: (0, 1, 2), 1: (1, 2, 0), 2: (0, 1, 2), 3: (1, 0, 2)}
        assert validate_packing(cover, Packing(3, assign)).violations == (
            "arc (2,1) coloring 0: constraint violated",
            "arc (2,1) coloring 1: constraint violated",
            "arc (2,1) coloring 2: constraint violated",
            "arc (2,3) coloring 1: constraint violated",
        )
        check = validate_packing(cover, Packing(3, {**assign, 0: (0, 0, 2)}))
        assert check == Check(False, ("vertex 0: colorings collide",))
        check = validate_packing(cover, Packing(3, {0: (0, 3, 2), 1: (1, 1, 5), 2: (0, 1)}))
        assert check.violations == (
            "vertex 3 unpacked",
            "vertex 0: color out of range",
            "vertex 1: color out of range",
            "vertex 1: colorings collide",
            "vertex 2: expected 3 entries",
        )

    def test_forest_greedy(self):
        g = generate("path", 4)
        la = list_assignment(g, 2, [[0, 1], [1, 2], [0, 2], [5, 6]])
        packing = Packing(2, {0: (0, 1), 1: (1, 2), 2: (2, 0), 3: (5, 6)})
        assert validate_list_packing(la, packing).ok

    def test_list_violations(self):
        g = generate("path", 2)
        la = list_assignment(g, 2, [[0, 1], [0, 1]])
        assert not validate_list_packing(la, Packing(2, {0: (0, 0), 1: (1, 0)})).ok
        assert not validate_list_packing(la, Packing(2, {0: (0, 2), 1: (1, 0)})).ok

    def test_vertex_outside_the_graph(self):
        cover = random_cover(generate("cycle", 4), 3, 1)
        packing = solve_packing(cover)
        assert validate_packing(cover, packing).ok
        packing.assign[99] = (0, 1, 2)
        assert validate_packing(cover, packing) == Check(False, ("vertex 99 not in the graph",))
        packing.assign[-1] = (0, 0, 7)
        assert validate_packing(cover, packing).violations == (
            "vertex 99 not in the graph",
            "vertex -1 not in the graph",
        )

    def test_list_vertex_outside_the_graph(self):
        la = list_assignment(generate("cycle", 4), 3, [[0, 1, 2]] * 4)
        packing = Packing(3, {0: (0, 1, 2), 1: (1, 2, 0), 2: (0, 1, 2), 3: (1, 2, 0)})
        assert validate_list_packing(la, packing).ok
        packing.assign[-1] = (7, 8, 9)
        assert validate_list_packing(la, packing) == Check(False, ("vertex -1 not in the graph",))

    def test_list_packing_k_must_match(self):
        la = list_assignment(generate("path", 2), 2, [[0, 1], [0, 1]])
        packing = Packing(3, {0: (0, 1), 1: (1, 0)})
        assert validate_list_packing(la, packing) == Check(False, ("packing has k=3, lists have k=2",))

    def test_gauge_invariance(self):
        # conjugating all arcs at one vertex preserves solvability
        g = generate("cycle", 4)
        for seed in range(10):
            cover = random_cover(g, 3, seed)
            rho = {v: Perm.identity(3) for v in range(4)}
            rho[2] = Perm((2, 0, 1))
            new_arcs = {
                (u, v): rho[v].after(p).after(rho[u].inverse())
                for (u, v), p in cover.arcs.items()
            }
            conj = CorrespondenceCover(g, 3, new_arcs)
            assert (solve_packing(cover) is None) == (solve_packing(conj) is None)


class TestJson:
    def test_cover_round_trip(self):
        cover = random_cover(generate("cycle", 4), 3, 9)
        back = cover_from_json(cover_to_json(cover))
        assert back.arcs == cover.arcs and back.graph == cover.graph

    def test_cover_round_trip_through_text(self):
        # the packer's three input families, k = 4, 5 and 8
        for g, k in [(generate("dodecahedron"), 4), (generate("grid", 4, 5), 5), (random_planar_triangulation_min5(3), 8)]:
            cover = random_cover(g, k, 11)
            back = cover_from_json(json.loads(json.dumps(cover_to_json(cover))))
            assert back == cover
            assert {e: hash(p) for e, p in back.arcs.items()} == {e: hash(p) for e, p in cover.arcs.items()}

    def test_lists_round_trip(self):
        la = list_assignment(generate("path", 3), 2, [[0, 1], [1, 2], [4, 9]])
        assert list_assignment_from_json(list_assignment_to_json(la)) == la

    def test_packing_round_trip(self):
        p = Packing(2, {0: (0, 1), 1: (1, 0)})
        assert packing_from_json(packing_to_json(p)).assign == p.assign

    def test_unknown_keys_are_refused(self):
        # at every object level of every format; the unmodified object reads
        cover = cover_to_json(random_cover(generate("cycle", 3), 2, 0))
        lists = list_assignment_to_json(list_assignment(generate("path", 2), 2, [[0, 1], [1, 2]]))
        packing = packing_to_json(Packing(2, {0: (0, 1), 1: (1, 0)}))
        cases = [
            (cover_from_json, cover, [(), ("graph",), ("arcs", 0), ("arcs", 2)]),
            (list_assignment_from_json, lists, [(), ("graph",)]),
            (packing_from_json, packing, [()]),
        ]
        for reader, payload, paths in cases:
            reader(payload)
            for path in paths:
                obj = json.loads(json.dumps(payload))
                target = obj
                for key in path:
                    target = target[key]
                target["x"] = 1
                with pytest.raises(ValueError):
                    reader(obj)

    @pytest.mark.parametrize("bad", [1.0, 1.5, "1", True])
    def test_packing_rejects_non_integers(self, bad):
        for obj in (
            {"k": bad, "assign": {"0": [0]}},
            {"k": 2, "assign": {"0": [0, bad]}},
            {"k": 1, "assign": [[0]]},
            {"k": 1, "assign": 3},
        ):
            with pytest.raises(ValueError):
                packing_from_json(obj)

    @pytest.mark.parametrize("key", ["01", " 2", "2 ", "1_0", "\u0663", "+1", "-1", 1])
    def test_packing_rejects_non_canonical_vertex_keys(self, key):
        with pytest.raises(ValueError):
            packing_from_json({"k": 1, "assign": {key: [0]}})
        # also beside the canonical key it would collapse onto ("01" and "1")
        with pytest.raises(ValueError):
            packing_from_json({"k": 1, "assign": {"1": [0], key: [1]}})

    def test_list_assignment_needs_k_at_least_one(self):
        with pytest.raises(ValueError):
            ListAssignment(generate("path", 2), 0, ((), ()))

    def test_list_longer_than_k_is_refused(self):
        # three entries, two distinct colors: not a list of size 2
        with pytest.raises(ValueError):
            ListAssignment(generate("path", 2), 2, ((1, 2, 2), (2, 3)))

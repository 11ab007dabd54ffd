import random
from itertools import combinations, permutations, product

import pytest

from listpacking import solver
from listpacking.bigraph import _invert, iter_one_factors
from listpacking.covers import (
    CorrespondenceCover,
    Packing,
    Perm,
    extension_bigraph,
    forbidden_maps,
    list_assignment,
    random_cover,
    validate_list_packing,
    validate_packing,
)
from listpacking.graphs import Graph, generate, graph_from_edges
from listpacking.solver import (
    ResourceCapError,
    _extensions,
    adversarial_cover_search,
    adversarial_list_search,
    packing_number,
    solve_list_packing,
    solve_packing,
)
from oracles import oracle_cover_solvable, oracle_list_solvable


def transposition_cycle_cover(n: int, k: int) -> CorrespondenceCover:
    """Identity along the path, one transposition on the closing edge."""

    g = generate("cycle", n)
    image = list(range(k))
    image[0], image[1] = image[1], image[0]
    arcs = {(i, i + 1): Perm.identity(k) for i in range(n - 1)}
    arcs[(0, n - 1)] = Perm(tuple(image))
    return CorrespondenceCover(g, k, arcs)


class TestSolvePacking:
    def test_cycle_gadget_unsolvable(self):
        for n in (3, 4, 5, 6):
            assert solve_packing(transposition_cycle_cover(n, 3)) is None

    def test_cycle_k4_solvable(self):
        for n in (3, 4, 5, 6):
            p = solve_packing(transposition_cycle_cover(n, 4))
            assert p is not None

    def test_single_vertex(self):
        cover = CorrespondenceCover(Graph(1, frozenset()), 2, {})
        assert solve_packing(cover).assign == {0: (0, 1)}

    def test_agrees_with_oracle_random(self):
        rng = random.Random(0)
        for _ in range(120):
            n = rng.randrange(2, 5)
            edges = {e for e in combinations(range(n), 2) if rng.random() < 0.6}
            g = graph_from_edges(n, edges)
            k = rng.randrange(1, 4)
            cover = random_cover(g, k, rng.randrange(10**6))
            assert (solve_packing(cover) is not None) == oracle_cover_solvable(cover)


class TestSolveListPacking:
    def test_even_cycle_gadget(self):
        for n in (4, 6):
            g = generate("cycle", n)
            lists = [[1, 2]] * (n - 2) + [[1, 3], [2, 3]]
            assert solve_list_packing(list_assignment(g, 2, lists)) is None

    def test_cycle_3_assignments(self):
        rng = random.Random(1)
        g = generate("cycle", 6)
        for _ in range(30):
            la = list_assignment(g, 3, [rng.sample(range(9), 3) for _ in range(6)])
            p = solve_list_packing(la)
            assert p is not None
            assert validate_list_packing(la, p).ok

    def test_edgeless_columns_in_list_order(self):
        g = Graph(3, frozenset())
        la = list_assignment(g, 2, [[3, 7], [0, 5], [2, 4]])
        p = solve_list_packing(la)
        assert p.assign == {0: (3, 7), 1: (0, 5), 2: (2, 4)}

    def test_agrees_with_oracle_random(self):
        rng = random.Random(2)
        for _ in range(150):
            n = rng.randrange(2, 5)
            edges = {e for e in combinations(range(n), 2) if rng.random() < 0.6}
            g = graph_from_edges(n, edges)
            k = rng.randrange(1, 3)
            la = list_assignment(g, k, [rng.sample(range(2 * k), k) for _ in range(n)])
            got = solve_list_packing(la)
            assert (got is not None) == oracle_list_solvable(la)
            if got is not None:
                assert validate_list_packing(la, got).ok

    def test_incomplete_cover_route_would_be_wrong(self):
        # the assignment is solvable, but its deterministic cover completion
        # is not: the direct solver must say solvable
        from listpacking.covers import list_to_cover

        g = generate("cycle", 4)
        la = list_assignment(g, 2, [[1, 2], [1, 2], [1, 4], [2, 3]])
        assert solve_list_packing(la) is not None
        cover, _ = list_to_cover(la)
        assert solve_packing(cover) is None


EXTENSION_GRAPHS = {
    "path": generate("path", 4),
    "cycle": generate("cycle", 5),
    "star": generate("complete_bipartite", 1, 3),
}


def partial_packing(kind: str, k: int, order: tuple[int, ...]) -> tuple[CorrespondenceCover, Packing]:
    """A packable cover, with the vertices of ``order`` unpacked from one of
    its packings."""

    cover = random_cover(EXTENSION_GRAPHS[kind], k, 0)
    full = solve_packing(cover)
    return cover, Packing(k, {v: c for v, c in full.assign.items() if v not in order})


def engine_extensions(cover, packing, order) -> list[tuple[tuple[int, ...], ...]]:
    assign = dict(packing.assign)
    gen = _extensions(cover.k, cover.graph.adjacency, forbidden_maps(cover, order), assign, order)
    got = [tuple(assign[v] for v in order) for _ in gen]
    assert assign == packing.assign  # exhausting the generator restores it
    return got


def nested_factor_extensions(cover, packing, order):
    """Every extension, vertex by vertex through the 1-factors of the
    extension bigraph, without lookahead."""

    if not order:
        yield ()
        return
    v = order[0]
    for cols in iter_one_factors(extension_bigraph(cover, packing, v)):
        packing.assign[v] = _invert(cols)
        for rest in nested_factor_extensions(cover, packing, order[1:]):
            yield (packing.assign[v], *rest)
        del packing.assign[v]


def brute_force_extensions(cover, packing, order) -> set[tuple[tuple[int, ...], ...]]:
    found = set()
    for choice in product(permutations(range(cover.k)), repeat=len(order)):
        trial = Packing(cover.k, {**packing.assign, **dict(zip(order, choice))})
        if validate_packing(cover, trial).ok:
            found.add(choice)
    return found


class TestExtensions:
    """The one extension engine, behind both the solver and the packer."""

    @pytest.mark.parametrize(
        "kind, k, order",
        [
            ("path", 2, (1,)),
            ("path", 3, (0, 1)),
            ("cycle", 2, (0,)),
            ("cycle", 3, (1, 2)),
            ("star", 2, (1, 2)),
            ("star", 3, (0, 1)),
        ],
    )
    def test_every_extension_once_in_nested_factor_order(self, kind, k, order):
        cover, packing = partial_packing(kind, k, order)
        got = engine_extensions(cover, packing, order)
        assert len(set(got)) == len(got)
        assert got == list(nested_factor_extensions(cover, packing.copy(), order))
        assert set(got) == brute_force_extensions(cover, packing, order)

    def test_lookahead_prunes_only_dead_branches(self, monkeypatch):
        # packing the path's end vertex 0 first leaves vertex 1 without a
        # 1-factor for some choices; those branches are cut at vertex 0
        cover, packing = partial_packing("path", 3, (0, 1))
        verdicts = []
        real = solver._raw_has_one_factor

        def recording(s, rows):
            verdicts.append(real(s, rows))
            return verdicts[-1]

        monkeypatch.setattr(solver, "_raw_has_one_factor", recording)
        got = engine_extensions(cover, packing, (0, 1))
        assert False in verdicts
        assert set(got) == brute_force_extensions(cover, packing, (0, 1))


class TestAdversarialCovers:
    def test_c5_k3_witness_is_single_transposition(self):
        g = generate("cycle", 5)
        w = adversarial_cover_search(g, 3)
        assert w is not None
        assert solve_packing(w) is None
        free_arcs = [p for p in w.arcs.values() if not p.is_identity()]
        assert len(free_arcs) == 1
        moved = sum(1 for i, j in enumerate(free_arcs[0].image) if i != j)
        assert moved == 2  # a single transposition

    def test_c5_k4_none(self):
        assert adversarial_cover_search(generate("cycle", 5), 4) is None

    def test_k2_none(self):
        assert adversarial_cover_search(generate("path", 2), 2) is None

    def test_cap(self):
        with pytest.raises(ResourceCapError):
            adversarial_cover_search(generate("cycle", 5), 4, cap=3)

    def test_gauge_reduction_complete_c3_k2(self):
        # enumerating every cover agrees with the gauge-reduced search
        g = generate("cycle", 3)
        edges = g.sorted_edges()
        full_has_witness = False
        for images in product(permutations(range(2)), repeat=3):
            cover = CorrespondenceCover(g, 2, {e: Perm(p) for e, p in zip(edges, images)})
            if solve_packing(cover) is None:
                full_has_witness = True
        reduced = adversarial_cover_search(g, 2)
        assert full_has_witness == (reduced is not None)


class TestAdversarialLists:
    def test_c4_gadget(self):
        w = adversarial_list_search(generate("cycle", 4), 2, 3)
        assert w is not None
        assert w.lists == ((0, 1), (0, 1), (0, 2), (1, 2))
        assert not oracle_list_solvable(w)

    def test_c4_k3_none(self):
        assert adversarial_list_search(generate("cycle", 4), 3, 6) is None

    def test_k1(self):
        assert adversarial_list_search(Graph(1, frozenset()), 1, 1) is None

    @pytest.mark.parametrize(
        "g, k, universe, solved, witness",
        [
            (generate("cycle", 4), 3, 12, 2338, None),
            (generate("complete_bipartite", 2, 3), 2, 10, 34, ((0, 1), (0, 2), (0, 1), (0, 1), (1, 2))),
        ],
        ids=["C4-k3", "K23-k2"],
    )
    def test_cap(self, g, k, universe, solved, witness):
        # exactly `solved` candidates survive the consistency check and the
        # forest skip; the cap counts only those
        found = adversarial_list_search(g, k, universe, cap=solved)
        assert (None if found is None else found.lists) == witness
        with pytest.raises(ResourceCapError):
            adversarial_list_search(g, k, universe, cap=solved - 1)

    @pytest.mark.parametrize("universe", [1, 0, -3])
    def test_universe_below_k(self, universe):
        with pytest.raises(ValueError):
            adversarial_list_search(generate("cycle", 4), 2, universe)

    def test_exhaustive_against_brute_force(self):
        # quantify over every 2-assignment drawn from a 4-color universe on
        # paths and triangles; the pattern search must agree on witness
        # existence, with the found witness genuinely unsolvable
        for g in (generate("path", 3), generate("cycle", 3)):
            brute_witness = None
            subsets = list(combinations(range(4), 2))
            for lists in product(subsets, repeat=g.n):
                la = list_assignment(g, 2, lists)
                if not oracle_list_solvable(la):
                    brute_witness = la
                    break
            found = adversarial_list_search(g, 2, 4)
            assert (found is None) == (brute_witness is None)
            if found is not None:
                assert not oracle_list_solvable(found)

    def test_monotonicity_in_k(self):
        # no witness at 3 on C_4; sampled 4-assignments are all solvable
        rng = random.Random(4)
        g = generate("cycle", 4)
        assert adversarial_list_search(g, 3, 12) is None
        for _ in range(25):
            la = list_assignment(g, 4, [rng.sample(range(10), 4) for _ in range(4)])
            assert solve_list_packing(la) is not None


class TestPackingNumbers:
    def test_correspondence_cycles(self):
        assert packing_number(generate("cycle", 5), "correspondence", 5) == 4

    def test_list_c4(self):
        assert packing_number(generate("cycle", 4), "list", 4) == 3

    def test_list_empty_graph(self):
        # universe k * n is 0 here; the search still runs at universe 1
        assert packing_number(Graph(0, frozenset()), "list", 2) == 1

    def test_list_k3(self):
        assert packing_number(generate("complete", 3), "list", 4) == 3

    def test_list_le_correspondence(self):
        for kind, params in (("cycle", (3,)), ("cycle", (4,)), ("path", (3,))):
            g = generate(kind, *params)
            lst = packing_number(g, "list", 5)
            cor = packing_number(g, "correspondence", 5)
            assert lst <= cor

    def test_upper_exceeded(self):
        with pytest.raises(ResourceCapError):
            packing_number(generate("cycle", 5), "correspondence", 2)

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            packing_number(generate("cycle", 5), "chromatic", 3)

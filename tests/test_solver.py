import random
from itertools import combinations, permutations, product

import pytest

from listpacking import solver
from listpacking.bigraph import _invert, _raw_has_one_factor, _raw_one_factors
from listpacking.covers import (
    CorrespondenceCover,
    Packing,
    Perm,
    cover_to_json,
    extension_rows,
    forbidden_maps,
    list_assignment,
    random_cover,
    validate_list_packing,
    validate_packing,
)
from listpacking.graphs import Graph, UnionFind, generate, graph_from_edges
from listpacking.solver import (
    ResourceCapError,
    _extensions,
    _fits,
    _injection_order,
    _padded_subset_order,
    _PatternClasses,
    adversarial_cover_search,
    adversarial_list_search,
    packing_number,
    solve_list_packing,
    solve_packing,
)
from oracles import (
    oracle_cover_solvable,
    oracle_list_solvable,
    reference_cover_search,
    reference_extensions,
    reference_list_search,
)

DIAMOND = graph_from_edges(4, ((0, 1), (0, 2), (1, 2), (1, 3), (2, 3)))
PAW = graph_from_edges(4, ((0, 1), (0, 2), (1, 2), (2, 3)))
BANNER = graph_from_edges(5, ((0, 1), (1, 2), (2, 3), (3, 0), (0, 4)))  # C4 plus a pendant vertex

# the solver's results a search must refuse: a vertex given one value
# twice, a vertex left out, and a packing that breaks a forbidden pair
BAD_SOLVES = pytest.mark.parametrize(
    "bad",
    [
        lambda g, k: {v: (0,) * k for v in range(g.n)},
        lambda g, k: {v: tuple(range(k)) for v in range(1, g.n)},
        lambda g, k: {v: tuple(range(k)) for v in range(g.n)},
    ],
    ids=["not-a-permutation", "vertex-missing", "breaks-a-pair"],
)


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
    gen = _extensions(cover.k, cover.graph.adjacency, forbidden_maps(cover, order, assign), assign, order)
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
    rows = extension_rows(v, cover.k, cover.graph.adjacency, forbidden_maps(cover, (v,), packing.assign), packing.assign)
    for cols in _raw_one_factors(cover.k, rows):
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


def count_kernel_calls(monkeypatch) -> dict[str, int]:
    """Count the engine's 1-factor enumerations and Hall checks, by patching
    both kernels where ``solver`` reads them."""

    calls = {"_raw_one_factors": 0, "_raw_has_one_factor": 0}
    for name in calls:

        def counting(*args, name=name, real=getattr(solver, name)):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(solver, name, counting)
    return calls


def counted_run(engine, calls, k, adj, maps, assign, order):
    """Every extension ``engine`` yields, and the kernel calls it made."""

    before = dict(calls)
    got = [tuple(assign[v] for v in order) for _ in engine(k, adj, maps, assign, order)]
    return got, {name: calls[name] - before[name] for name in calls}


# seeds 0-4 are unsolvable at k=3 on all three graphs; grid 163 and cube 46
# and 75 are the solvable seeds below 200
COVER_PANEL = [(kind, seed) for kind in ("dodecahedron", "grid", "cube") for seed in range(5)] + [
    ("grid", 163),
    ("cube", 46),
    ("cube", 75),
]


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

    def assert_matches_reference(self, monkeypatch, k, adj, maps, assign, order):
        calls = count_kernel_calls(monkeypatch)
        start = dict(assign)
        want, ref_calls = counted_run(reference_extensions, calls, k, adj, maps, assign, order)
        got, new_calls = counted_run(_extensions, calls, k, adj, maps, assign, order)
        assert assign == start
        assert got == want
        assert new_calls["_raw_one_factors"] == ref_calls["_raw_one_factors"]
        assert new_calls["_raw_has_one_factor"] <= ref_calls["_raw_has_one_factor"]

    @pytest.mark.parametrize("kind, seed", COVER_PANEL, ids=[f"{kind}-{seed}" for kind, seed in COVER_PANEL])
    def test_matches_full_frontier_lookahead(self, monkeypatch, kind, seed):
        g = generate(kind, 4, 5) if kind == "grid" else generate(kind)
        cover = random_cover(g, 3, seed)
        maps = forbidden_maps(cover, range(g.n), ())
        self.assert_matches_reference(monkeypatch, 3, g.adjacency, maps, {}, solver._solve_order(g))

    @pytest.mark.parametrize(
        "kind, k, order",
        [
            ("path", 3, (2,)),
            ("path", 3, (3, 1)),
            ("path", 3, (0, 2, 1)),
            ("path", 3, (0, 1, 2, 3)),
            ("cycle", 2, (3, 0, 2, 1)),
            ("cycle", 3, (4,)),
            ("cycle", 3, (0, 2)),
            ("cycle", 3, (1, 3, 0)),
            ("cycle", 3, (0, 1, 2, 3)),
            ("star", 2, (0, 3)),
            ("star", 3, (1, 2, 3, 0)),
        ],
    )
    def test_partial_matches_full_frontier_lookahead(self, monkeypatch, kind, k, order):
        cover, packing = partial_packing(kind, k, order)
        maps = forbidden_maps(cover, order, packing.assign)
        self.assert_matches_reference(monkeypatch, k, cover.graph.adjacency, maps, dict(packing.assign), order)

    def test_pinned_work_count(self, monkeypatch):
        # the full-frontier lookahead refutes this cover with the same 43
        # enumerations and 234 Hall checks
        calls = count_kernel_calls(monkeypatch)
        assert solve_packing(random_cover(generate("dodecahedron"), 3, 0)) is None
        assert calls == {"_raw_one_factors": 43, "_raw_has_one_factor": 138}

    def test_root_check_before_first_vertex(self, monkeypatch):
        # vertex 1 is not adjacent to vertex 0, and its packed neighbors 2
        # and 3 leave it no 1-factor: the generator must stop before it
        # enumerates vertex 0's 1-factors
        g = graph_from_edges(4, ((0, 2), (1, 2), (1, 3)))
        cover = CorrespondenceCover(g, 2, {(0, 2): Perm.identity(2), (2, 1): Perm.identity(2), (3, 1): Perm((1, 0))})
        packing = Packing(2, {2: (0, 1), 3: (0, 1)})
        maps = forbidden_maps(cover, (0, 1), packing.assign)
        assert _raw_has_one_factor(2, extension_rows(0, 2, g.adjacency, maps, packing.assign))
        assert not _raw_has_one_factor(2, extension_rows(1, 2, g.adjacency, maps, packing.assign))
        calls = count_kernel_calls(monkeypatch)
        assert engine_extensions(cover, packing, (0, 1)) == []
        assert calls["_raw_one_factors"] == 0


class TestAdversarialCovers:
    def test_c5_k3_witness_is_single_transposition(self):
        g = generate("cycle", 5)
        w = adversarial_cover_search(g, 3)
        assert w is not None
        assert solve_packing(w) is None
        free_arcs = [p for p in w.arcs.values() if p != Perm.identity(p.k)]
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

    @pytest.mark.parametrize("cap", [0, -4])
    def test_cap_below_one(self, cap):
        # an input error, not a search that ran out
        with pytest.raises(ValueError):
            adversarial_cover_search(generate("cycle", 4), 2, cap=cap)

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize(
        "g",
        [
            generate("cycle", 3),
            generate("cycle", 4),
            generate("cycle", 5),
            PAW,
            DIAMOND,
            generate("complete_bipartite", 2, 3),
            generate("complete", 4),
        ],
        ids=["C3", "C4", "C5", "paw", "diamond", "K23", "K4"],
    )
    def test_matches_reference_enumeration(self, g, k):
        # the same witness as deciding every candidate as a whole cover,
        # after exactly as many decided candidates
        decided, want = reference_cover_search(g, k)
        got = adversarial_cover_search(g, k, cap=decided)
        assert (None if got is None else cover_to_json(got)) == (None if want is None else cover_to_json(want))
        if decided > 1:  # a cap below 1 is an input error
            with pytest.raises(ResourceCapError):
                adversarial_cover_search(g, k, cap=decided - 1)

    @BAD_SOLVES
    def test_solver_packing_is_validated(self, monkeypatch, bad):
        monkeypatch.setattr(solver, "_core_solve", lambda g, k, maps, order=None: bad(g, k))
        with pytest.raises(AssertionError):
            adversarial_cover_search(generate("cycle", 4), 2)

    @pytest.mark.parametrize(
        "g",
        [generate("cycle", 4), generate("cycle", 5), generate("complete", 4)],
        ids=["C4-k3", "C5-k3", "K4-k3"],
    )
    def test_pool_changes_no_verdict(self, monkeypatch, g):
        pooled = adversarial_cover_search(g, 3)
        monkeypatch.setattr(solver, "POOL_CAP", 0)
        unpooled = adversarial_cover_search(g, 3)
        assert (pooled is None) == (unpooled is None)
        assert pooled is None or cover_to_json(pooled) == cover_to_json(unpooled)

    def test_k4(self):
        # the all-identity cover is the first candidate at k=3 (K4 is not
        # 3-colorable); every one of the 13,824 candidates at k=4 packs
        g = generate("complete", 4)
        w = adversarial_cover_search(g, 3)
        assert sorted(w.arcs) == g.sorted_edges()
        assert all(p == Perm.identity(p.k) for p in w.arcs.values())
        assert adversarial_cover_search(g, 4, cap=13_824) is None
        with pytest.raises(ResourceCapError):
            adversarial_cover_search(g, 4, cap=13_823)

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
            (generate("cycle", 5), 3, 15, 29_590, None),
            (PAW, 3, 12, 1088, None),
            (BANNER, 3, 15, 18_704, None),
        ],
        ids=["C4-k3", "K23-k2", "C5-k3", "paw-k3", "banner-k3"],
    )
    def test_cap(self, g, k, universe, solved, witness):
        # exactly `solved` candidates survive the consistency check and the
        # forest pruning; the cap counts those, whether a pooled packing or
        # the solver decides them
        found = adversarial_list_search(g, k, universe, cap=solved)
        assert (None if found is None else found.lists) == witness
        with pytest.raises(ResourceCapError):
            adversarial_list_search(g, k, universe, cap=solved - 1)

    @pytest.mark.parametrize(
        "g, k",
        [(generate("cycle", n), k) for n in (3, 4, 5) for k in (2, 3)]
        + [(generate("cycle", 6), 2)]
        + [(g, k) for g in (PAW, DIAMOND, BANNER) for k in (2, 3)]
        + [(generate("complete_bipartite", 2, 3), 2)],
        ids=[f"C{n}-k{k}" for n in (3, 4, 5) for k in (2, 3)]
        + ["C6-k2"]
        + [f"{name}-k{k}" for name in ("paw", "diamond", "banner") for k in (2, 3)]
        + ["K23-k2"],
    )
    def test_matches_reference_enumeration(self, g, k):
        # pruning forest subtrees drops exactly the candidates a forest
        # check at every complete pattern skips: the same witness after
        # exactly as many decided candidates
        universe = k * g.n
        decided, want = reference_list_search(g, k, universe)
        got = adversarial_list_search(g, k, universe, cap=decided)
        assert (None if got is None else got.lists) == (None if want is None else want.lists)
        if decided > 1:  # a cap below 1 is an input error
            with pytest.raises(ResourceCapError):
                adversarial_list_search(g, k, universe, cap=decided - 1)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_empty_choice_is_last(self, k):
        # a pruned empty choice ends its edge's options, so returning at it
        # loses no sibling
        assert _padded_subset_order(k)[-1] == ()
        assert _injection_order(k)[-1] == []

    @pytest.mark.parametrize("g", [generate("cycle", 4), generate("cycle", 5), BANNER], ids=["C4", "C5", "banner"])
    def test_no_forest_is_decided(self, monkeypatch, g):
        sharing_is_forest = []
        decide = solver._Decider.__call__

        def spy(self, constraints):
            constraints = list(constraints)
            sharing = UnionFind(g.n)
            sharing_is_forest.append(all(sharing.union(u, v) for (u, v), pairs in constraints if pairs))
            return decide(self, constraints)

        monkeypatch.setattr(solver._Decider, "__call__", spy)
        assert adversarial_list_search(g, 3, 3 * g.n) is None
        assert sharing_is_forest and not any(sharing_is_forest)

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize(
        "g",
        [generate("path", 4), generate("complete_bipartite", 1, 3), graph_from_edges(4, ((0, 1), (2, 3)))],
        ids=["P4", "K13", "2K2"],
    )
    def test_forest_decides_nothing(self, monkeypatch, g, k):
        # forests pack for k >= 2, so no candidate is decided; the input
        # checks still come first
        decided = []
        decide = solver._Decider.__call__
        monkeypatch.setattr(solver._Decider, "__call__", lambda self, c: decided.append(c) or decide(self, c))
        assert adversarial_list_search(g, k, k * g.n, cap=1) is None
        assert decided == []
        with pytest.raises(ValueError):
            adversarial_list_search(g, k, k - 1)
        with pytest.raises(ValueError):
            adversarial_list_search(g, k, k * g.n, cap=0)

    def test_forest_k1_still_searched(self):
        # one coloring is a proper coloring from the lists, which an edge
        # whose ends have one shared color cannot have
        found = adversarial_list_search(generate("path", 2), 1, 2)
        assert found is not None and found.lists == ((0,), (0,))

    @BAD_SOLVES
    def test_solver_packing_is_validated(self, monkeypatch, bad):
        # a wrong "solvable" verdict would lower a packing number silently
        monkeypatch.setattr(solver, "_core_solve", lambda g, k, maps, order=None: bad(g, k))
        with pytest.raises(AssertionError):
            adversarial_list_search(generate("cycle", 4), 2, 8)

    @pytest.mark.parametrize(
        "g, k, universe",
        [
            (generate("cycle", 4), 2, 3),
            (generate("cycle", 4), 3, 12),
            (generate("complete_bipartite", 2, 3), 2, 10),
            (DIAMOND, 2, 4),
        ],
        ids=["C4-k2", "C4-k3", "K23-k2", "diamond-k2"],
    )
    def test_pool_changes_no_verdict(self, monkeypatch, g, k, universe):
        pooled = adversarial_list_search(g, k, universe)
        monkeypatch.setattr(solver, "POOL_CAP", 0)
        unpooled = adversarial_list_search(g, k, universe)
        assert (pooled is None) == (unpooled is None)
        assert pooled is None or pooled.lists == unpooled.lists

    @pytest.mark.parametrize("cap", [0, -4])
    def test_cap_below_one(self, cap):
        with pytest.raises(ValueError):
            adversarial_list_search(generate("cycle", 4), 2, 8, cap=cap)

    @pytest.mark.parametrize("universe", [1, 0, -3])
    def test_universe_below_k(self, universe):
        with pytest.raises(ValueError):
            adversarial_list_search(generate("cycle", 4), 2, universe)

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one(self, k):
        # there are no k-assignments or k-covers to search, so "none" would
        # wrongly claim that every one of them packs
        with pytest.raises(ValueError):
            adversarial_list_search(generate("cycle", 4), k, 5)
        with pytest.raises(ValueError):
            adversarial_cover_search(generate("path", 3), k)

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


def solved_cols(cover: CorrespondenceCover) -> tuple[tuple[int, ...], ...]:
    """A packing of the cover as the pool holds it: per vertex, the
    coloring of each color."""

    packing = solve_packing(cover)
    return tuple(_invert(packing.assign[v]) for v in range(cover.graph.n))


def pool_only(monkeypatch, g: Graph, k: int, pool: list) -> solver._Decider:
    """A decider holding ``pool`` whose solver packs nothing, so that a
    candidate is decided solvable only by a pooled packing."""

    monkeypatch.setattr(solver, "_core_solve", lambda g, k, maps, order=None: None)
    decide = solver._Decider(g, k, 10, "cap")
    decide.pool = pool
    return decide


class TestPool:
    """A pooled packing counts only when it meets every forbidden pair."""

    def test_hit_moves_to_front(self, monkeypatch):
        cover = random_cover(generate("cycle", 5), 3, 1)
        constraints = [(arc, tuple(enumerate(p.image))) for arc, p in cover.arcs.items()]
        fits = solved_cols(cover)
        other = tuple(tuple(reversed(c)) for c in fits)
        assert not _fits(other, constraints)
        decide = pool_only(monkeypatch, cover.graph, 3, [other, fits])
        assert decide(constraints)
        assert decide.pool == [fits, other]

    def test_one_broken_pair_misses(self, monkeypatch):
        # pattern form: the pairs of a list assignment, plus one pair the
        # packing puts in one coloring at both ends
        g = generate("cycle", 4)
        la = list_assignment(g, 3, [[0, 1, 2], [1, 2, 3], [2, 3, 4], [0, 3, 4]])
        found = solver._core_solve(g, 3, solver._list_pattern_maps(la))
        cols = tuple(_invert(found[v]) for v in range(g.n))
        constraints = [
            ((u, v), tuple((i, la.lists[v].index(c)) for i, c in enumerate(la.lists[u]) if c in la.lists[v]))
            for u, v in g.sorted_edges()
        ]
        (u, v), pairs = constraints[0]
        a = next(a for a in range(3) if all(a != x for x, _ in pairs))
        b = cols[v].index(cols[u][a])
        decide = pool_only(monkeypatch, g, 3, [cols])
        assert decide(constraints)
        assert not decide(constraints[1:] + [((u, v), pairs + ((a, b),))])

    def test_one_broken_arc_misses(self, monkeypatch):
        # cover form: replace one arc's permutation by one that the packing
        # breaks at exactly one color
        cover = random_cover(generate("cycle", 5), 3, 3)
        cols = solved_cols(cover)
        (u, v), _ = sorted(cover.arcs.items())[0]
        # sigma(a): the color at v in the coloring that uses a at u
        sigma = [cols[v].index(cols[u][a]) for a in range(3)]
        swapped = [sigma[0], sigma[2], sigma[1]]  # agrees with sigma at 0 only
        arcs = {**cover.arcs, (u, v): Perm(tuple(swapped))}
        constraints = [(arc, tuple(enumerate(p.image))) for arc, p in arcs.items()]
        broken = [(a, b) for (x, y), pairs in constraints for a, b in pairs if cols[x][a] == cols[y][b]]
        assert broken == [(0, sigma[0])]
        assert not pool_only(monkeypatch, cover.graph, 3, [cols])(constraints)


def rebuilt_consistent(uf: UnionFind, k: int, chosen, upto: int) -> bool:
    """The from-scratch check the incremental classes replace: every vertex
    w <= upto has k distinct classes, and every chosen edge shares exactly
    its pairs' classes."""

    roots = [{uf.find(w * k + i) for i in range(k)} for w in range(upto + 1)]
    return all(len(rs) == k for rs in roots) and all(
        len(roots[u] & roots[v]) == len(pairs) for (u, v), pairs in chosen.items()
    )


def assert_state_rebuilt(classes: _PatternClasses, uf: UnionFind, g: Graph, k: int, upto: int) -> None:
    roots = [{uf.find(w * k + i) for i in range(k)} for w in range(upto + 1)]
    for u, v in g.edges:
        if v <= upto:
            assert classes.share[(u, v)] == len(roots[u] & roots[v])
    for r in set().union(*roots):
        assert classes.uf.find(r) == r
        assert classes.touches[r] == sum(1 << w for w, rs in enumerate(roots) if r in rs)


class TestPatternClasses:
    """Incremental class bookkeeping against the from-scratch rebuild."""

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize(
        "g",
        [
            generate("cycle", 4),
            generate("cycle", 5),
            generate("complete", 4),
            generate("complete_bipartite", 2, 3),
        ],
        ids=["C4", "C5", "K4", "K23"],
    )
    def test_agrees_with_rebuild(self, g, k):
        # random vertex-by-vertex patterns, as the search builds them, with
        # random rollbacks to earlier vertices
        rng = random.Random(f"{g.n}-{g.m}-{k}")
        injections = _injection_order(k)
        classes = _PatternClasses(g, k)
        uf = UnionFind(g.n * k)
        chosen: dict = {}
        starts = []  # per placed vertex: the marks before it
        verdicts = set()
        v = 0
        for _ in range(600):
            if v == g.n or (starts and rng.random() < 0.15):
                v = rng.randrange(len(starts))
                _, mark, uf_mark, chosen = starts[v]
                chosen = dict(chosen)
                del starts[v:]
                classes.rollback(mark)
                uf.rollback(uf_mark)
                assert classes.chosen == chosen
                if v:
                    assert_state_rebuilt(classes, uf, g, k, v - 1)
                continue
            start = (v, classes.mark(), uf.mark(), dict(chosen))
            backs = sorted(u for u in g.adjacency[v] if u < v)
            accepted = True
            for u in backs:
                pairs = rng.choice(injections)
                accepted = accepted and classes.choose(u, v, pairs)
                for i, t in pairs:
                    uf.union(u * k + i, v * k + t)
                chosen[(u, v)] = pairs
            accepted = accepted and classes.closed(v, backs)
            assert accepted == rebuilt_consistent(uf, k, chosen, v)
            verdicts.add(accepted)
            if accepted:
                assert_state_rebuilt(classes, uf, g, k, v)
                starts.append(start)
                v += 1
            else:
                _, mark, uf_mark, chosen = start
                chosen = dict(chosen)
                classes.rollback(mark)
                uf.rollback(uf_mark)
        assert verdicts == {True, False}

import hashlib
import math
import random
import sys
from itertools import combinations, permutations, product

import pytest

from listpacking import graphs, solver
from listpacking.bigraph import _invert, _raw_has_one_factor, _raw_one_factors
from listpacking.covers import (
    CorrespondenceCover,
    ListAssignment,
    Packing,
    Perm,
    cover_to_json,
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
    _fits,
    candidate_cells,
    extension_rows,
    oracle_cover_solvable,
    oracle_list_solvable,
    packing_cells,
    rebuilt_consistent,
    reference_cover_search,
    reference_core_solve,
    reference_extensions,
    reference_list_search,
)

DIAMOND = graph_from_edges(4, ((0, 1), (0, 2), (1, 2), (1, 3), (2, 3)))
DIAMOND_HUBS_FIRST = graph_from_edges(4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3)))  # degree-3 vertices first
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


def solved_cells(monkeypatch, search) -> list[int]:
    """Run ``search`` and return the candidates that every decider it makes
    solves, in order: those no known packing settles."""

    got: list[int] = []
    solve = solver._Decider.solve
    with monkeypatch.context() as m:
        m.setattr(solver._Decider, "solve", lambda self, cand: got.append(cand) or solve(self, cand))
        search()
    return got


def nothing_known(monkeypatch) -> None:
    """Make every packing a decider solves fit no candidate but 0, as the
    searches test it, so no known packing settles a later candidate: the
    packing is validated as usual and its cells are then replaced by all
    of them."""

    solve = solver._Decider.solve

    def every_cell(self, cand):
        used = solve(self, cand)
        return None if used is None else (1 << self.g.m * self.k * self.k) - 1

    monkeypatch.setattr(solver._Decider, "solve", every_cell)


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


class KernelCalls(dict):
    """Call counts by name; ``enumerated`` holds the rows of every
    ``_raw_one_factors`` call, in call order."""

    def __init__(self) -> None:
        super().__init__(_factors=0, _hall=0, _raw_one_factors=0, _raw_has_one_factor=0)
        self.enumerated: list[tuple[int, ...]] = []


class CountedTable(dict):
    """An engine table that counts its lookups in ``calls[name]`` and keeps
    their keys, in order, in ``asked``."""

    def __init__(self, name: str, calls: KernelCalls) -> None:
        super().__init__()
        self.name, self.calls, self.asked = name, calls, []

    def get(self, key, default=None):
        self.calls[self.name] += 1
        self.asked.append(key)
        return super().get(key, default)


@pytest.fixture
def cold_tables(monkeypatch):
    """Empty engine tables for one test, so that a patched kernel is really
    called; the warm tables come back afterwards."""

    monkeypatch.setattr(solver, "_hall", {})
    monkeypatch.setattr(solver, "_factors", {})
    monkeypatch.setattr(solver, "_clear", {})


def key_rows(key: int) -> tuple[int, ...]:
    """The rows behind an engine table key: k*k bits under one sentinel bit,
    row t in bits t*k .. t*k + k - 1."""

    k = math.isqrt(key.bit_length() - 1)
    assert key >> k * k == 1
    return tuple(key >> t * k & (1 << k) - 1 for t in range(k))


def rows_key(k: int, rows) -> int:
    """``rows`` packed as the engine keys them, built bit by bit."""

    key = 1 << k * k
    for t, row in enumerate(rows):
        for c in range(k):
            if row >> c & 1:
                key |= 1 << t * k + c
    return key


def count_kernel_calls(monkeypatch) -> KernelCalls:
    """Count the engine's 1-factor enumerations and Hall checks at two
    levels, on cold tables: lookups in ``_factors`` and ``_hall`` are the
    enumerations and checks the engine asks for, and calls of the kernels
    ``_raw_one_factors`` and ``_raw_has_one_factor``, patched where
    ``solver`` reads them, are the table misses (or the reference engine's
    calls, which has no tables)."""

    calls = KernelCalls()
    for name in ("_raw_one_factors", "_raw_has_one_factor"):

        def counting(s, rows, name=name, real=getattr(solver, name)):
            calls[name] += 1
            if name == "_raw_one_factors":
                calls.enumerated.append(tuple(rows))
            return real(s, rows)

        monkeypatch.setattr(solver, name, counting)
    for name in ("_factors", "_hall"):
        monkeypatch.setattr(solver, name, CountedTable(name, calls))
    return calls


def counted_run(engine, calls, k, adj, maps, assign, order):
    """Every extension ``engine`` yields, and the calls it made."""

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


def panel_extensions(kind: str, seed: int) -> list[tuple[tuple[int, ...], ...]]:
    """Every extension of the empty packing of a panel cover at k=3."""

    g = generate(kind, 4, 5) if kind == "grid" else generate(kind)
    cover = random_cover(g, 3, seed)
    maps = forbidden_maps(cover, range(g.n), ())
    order = solver._solve_order(g)
    assign: dict[int, tuple[int, ...]] = {}
    return [tuple(assign[v] for v in order) for _ in _extensions(3, g.adjacency, maps, assign, order)]


def list_panel() -> list[ListAssignment]:
    """40 seeded list assignments of C5 at k=3 over 6 colors."""

    rng = random.Random(5)
    g = generate("cycle", 5)
    return [list_assignment(g, 3, [rng.sample(range(6), 3) for _ in range(5)]) for _ in range(40)]


def list_panel_packings() -> list[dict | None]:
    """The packings of the list panel, or None where none exists."""

    out = []
    for la in list_panel():
        got = solve_list_packing(la)
        out.append(None if got is None else got.assign)
    return out


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
        assert got == list(nested_factor_extensions(cover, Packing(packing.k, dict(packing.assign)), order))
        assert set(got) == brute_force_extensions(cover, packing, order)

    @pytest.mark.usefixtures("cold_tables")
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
        # the rows the reference rebuilt for each enumeration, in order
        rebuilt = list(calls.enumerated)
        got, new_calls = counted_run(_extensions, calls, k, adj, maps, assign, order)
        assert assign == start
        assert got == want
        # the kept rows equal the rebuilt ones at every enumeration
        assert [key_rows(key) for key in solver._factors.asked] == rebuilt
        assert new_calls["_factors"] == ref_calls["_raw_one_factors"]
        assert new_calls["_hall"] <= ref_calls["_raw_has_one_factor"]
        assert new_calls["_raw_one_factors"] <= ref_calls["_raw_one_factors"]
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

    @pytest.mark.parametrize(
        "kind, k, zs, frontier",
        [
            ("path", 3, (1,), (0,)),
            ("path", 3, (1, 3), (2,)),
            ("path", 3, (2, 1, 3), (0,)),
            ("cycle", 3, (0, 2), (1,)),
            ("cycle", 3, (1, 2, 3), (4, 0)),
            ("cycle", 3, (4,), (0, 1)),
            ("star", 2, (0,), (1, 2)),
            ("star", 3, (1, 2), (0,)),
        ],
    )
    def test_interleaved_engines_match_reference(self, kind, k, zs, frontier):
        # the packer's repair: an inner engine over the frontier runs while
        # an outer one over zs is suspended on the same assign
        cover, packing = partial_packing(kind, k, zs + frontier)
        adj = cover.graph.adjacency
        maps = forbidden_maps(cover, zs + frontier, packing.assign)

        def nested(engine):
            assign = dict(packing.assign)
            seq = []
            for _ in engine(k, adj, maps, assign, zs):
                for _ in engine(k, adj, maps, assign, frontier):
                    seq.append((tuple(assign[z] for z in zs), tuple(assign[f] for f in frontier)))
            assert assign == packing.assign  # both exhausted: assign is restored
            return seq

        got = nested(_extensions)
        assert got
        assert got == nested(reference_extensions)

    def test_pinned_work_count(self, monkeypatch):
        # with the first vertex pinned to the identity, the engine asks for 7
        # enumerations and 22 Hall checks (the full-frontier lookahead from
        # the same pin: 7 and 36; unpinned, 43 and 138); on cold tables
        # only 4 and 7 of them reach the kernels
        calls = count_kernel_calls(monkeypatch)
        assert solve_packing(random_cover(generate("dodecahedron"), 3, 0)) is None
        assert calls == {"_factors": 7, "_hall": 22, "_raw_one_factors": 4, "_raw_has_one_factor": 7}

    def test_warm_rerun_is_identical(self, monkeypatch):
        # a second pass over the panel reads every answer from the tables
        calls = count_kernel_calls(monkeypatch)
        runs = []
        for _ in range(2):
            before = dict(calls)
            runs.append([panel_extensions(kind, seed) for kind, seed in COVER_PANEL])
            made = {name: calls[name] - before[name] for name in calls}
            assert made["_factors"] > 0
        assert runs[0] == runs[1]
        assert made["_raw_one_factors"] == made["_raw_has_one_factor"] == 0

    @pytest.mark.usefixtures("cold_tables")
    def test_tables_hold_kernel_answers(self):
        # solving a solvable cover closes enumerations early: every stored
        # entry is the kernel's complete answer, or a prefix of it
        for kind, seed in [("dodecahedron", 0), ("grid", 163), ("cube", 46), ("cube", 75)]:
            g = generate(kind, 4, 5) if kind == "grid" else generate(kind)
            assert (solve_packing(random_cover(g, 3, seed)) is None) == (kind == "dodecahedron")
        assert solver._hall and solver._factors
        for key, ok in solver._hall.items():
            rows = key_rows(key)
            assert ok == _raw_has_one_factor(len(rows), rows)
        done = set()
        for key, (packed, complete) in solver._factors.items():
            rows = key_rows(key)
            want = tuple(_invert(cols) for cols in _raw_one_factors(len(rows), rows))
            assert packed == (want if complete else want[: len(packed)])
            assert complete or packed
            done.add(complete)
        assert done == {False, True}

    @pytest.mark.usefixtures("cold_tables")
    def test_prefix_resumes_to_the_end(self, monkeypatch):
        # an enumeration closed after m factors stores those m; the next one
        # of the same key replays them, runs the kernel on past them, and
        # stores the complete tuple
        k, rows = 4, (0b1111, 0b1101, 0b0111, 0b1011)
        key = rows_key(k, rows)
        want = tuple(_invert(cols) for cols in _raw_one_factors(k, rows))
        calls = KernelCalls()
        real = solver._raw_one_factors

        def counting(s, rows):
            calls["_raw_one_factors"] += 1
            return real(s, rows)

        monkeypatch.setattr(solver, "_raw_one_factors", counting)
        assert len(want) > 3
        for m in (1, 2, len(want) - 1, len(want)):
            solver._factors.clear()
            first = solver._fresh_factors(k, key, None)
            assert [next(first) for _ in range(m)] == list(want[:m])
            first.close()
            assert solver._factors == {key: (want[:m], False)}
            # closed inside the replayed prefix: nothing new to store
            replay = solver._fresh_factors(k, key, solver._factors[key])
            assert next(replay) == want[0]
            replay.close()
            assert solver._factors == {key: (want[:m], False)}
            before = calls["_raw_one_factors"]
            assert tuple(solver._fresh_factors(k, key, solver._factors[key])) == want
            assert calls["_raw_one_factors"] == before + 1
            assert solver._factors == {key: (want, True)}

    @pytest.mark.usefixtures("cold_tables")
    @pytest.mark.parametrize(
        "kind, k, zs, frontier",
        [("path", 3, (1, 3), (2,)), ("cycle", 3, (1, 2, 3), (4, 0)), ("star", 3, (1, 2), (0,))],
    )
    def test_interleaved_engines_resume_prefixes(self, kind, k, zs, frontier):
        # a first pass closes every inner engine after its first extension,
        # so the tables hold prefixes; the full pass must still match the
        # reference
        cover, packing = partial_packing(kind, k, zs + frontier)
        adj = cover.graph.adjacency
        maps = forbidden_maps(cover, zs + frontier, packing.assign)

        def nested(engine, first_only=False):
            assign = dict(packing.assign)
            seq = []
            for _ in engine(k, adj, maps, assign, zs):
                for _ in engine(k, adj, maps, assign, frontier):
                    seq.append((tuple(assign[z] for z in zs), tuple(assign[f] for f in frontier)))
                    if first_only:
                        break
                for f in frontier:
                    assign.pop(f, None)
            return seq

        nested(_extensions, first_only=True)
        assert not all(complete for _, complete in solver._factors.values())
        assert nested(_extensions) == nested(reference_extensions)

    @pytest.mark.usefixtures("cold_tables")
    def test_small_table_cap_changes_nothing(self, monkeypatch):
        # the panel's covers have 6 forbidden maps at k=3; the list
        # assignments' partial maps are many more, and fill _clear too
        want = [panel_extensions(kind, seed) for kind, seed in COVER_PANEL]
        want_lists = list_panel_packings()
        monkeypatch.setattr(solver, "TABLE_CAP", 8)
        sizes = []
        real = solver._remember

        def remember(table, key, value):
            real(table, key, value)
            sizes.append((len(solver._hall), len(solver._factors), len(solver._clear)))

        monkeypatch.setattr(solver, "_remember", remember)
        solver._hall.clear()
        solver._factors.clear()
        solver._clear.clear()
        assert [panel_extensions(kind, seed) for kind, seed in COVER_PANEL] == want
        assert list_panel_packings() == want_lists
        for table in range(3):
            assert max(size[table] for size in sizes) == 8
            # each table was cleared on the way
            assert any(after[table] < before[table] for before, after in zip(sizes, sizes[1:]))

    def test_keys_unique_across_k(self):
        # without the sentinel bit, rows (1,) at k=1 and (1, 0) at k=2 would
        # both be key 1
        assert rows_key(1, (1,)) != rows_key(2, (1, 0))
        keys = {}
        for k in (1, 2, 3):
            for rows in product(range(1 << k), repeat=k):
                keys[rows_key(k, rows)] = rows
                assert solver._rows(k, rows_key(k, rows)) == rows
        assert len(keys) == 2 + 4**2 + 8**3
        assert all(key_rows(key) == rows for key, rows in keys.items())

    def test_built_keys_are_the_oracle_rows(self):
        # seeded partial packings of the panel's covers (total maps) and of
        # list assignments' position patterns (partial maps, -1 entries):
        # every vertex's key keeps the sentinel and holds the rows
        # extension_rows builds
        rng = random.Random(18)
        cases = []
        for kind, seed in COVER_PANEL:
            g = generate(kind, 4, 5) if kind == "grid" else generate(kind)
            cases.append((g, 3, forbidden_maps(random_cover(g, 3, seed), range(g.n), ())))
        lists = [("cycle", (5,), 2), ("cycle", (5,), 3), ("complete_bipartite", (2, 3), 3), ("complete", (5,), 4)]
        for kind, params, k in lists:
            g = generate(kind, *params)
            for _ in range(10):
                la = list_assignment(g, k, [rng.sample(range(2 * k), k) for _ in range(g.n)])
                cases.append((g, k, solver._list_pattern_maps(la)))
        partial = 0
        for g, k, maps in cases:
            partial += any(-1 in fmap for fmap in maps.values())
            for _ in range(3):
                assign = {v: tuple(rng.sample(range(k), k)) for v in range(g.n) if rng.random() < 0.5}
                for v in range(g.n):
                    key = solver._extension_key(v, k, g.adjacency, maps, assign)
                    assert key_rows(key) == tuple(extension_rows(v, k, g.adjacency, maps, assign))
        assert partial > 30

    @pytest.mark.usefixtures("cold_tables")
    def test_clear_masks_recompute(self):
        # every stored mask, applied to all-open rows, leaves what
        # extension_rows builds with the neighbor packed, and keeps the
        # sentinel bit
        for kind, seed in COVER_PANEL[:3]:
            panel_extensions(kind, seed)
        list_panel_packings()
        edge = graph_from_edges(2, ((0, 1),))
        seen = 0
        for fmap, masks in solver._clear.items():
            for packed, mask in masks.items():
                k = len(packed)
                want = tuple(extension_rows(1, k, edge.adjacency, {(0, 1): fmap}, {0: packed}))
                assert key_rows(mask) == want
                seen += 1
        assert len(solver._clear) > 8 and seen > len(solver._clear)

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
        assert calls["_factors"] == calls["_raw_one_factors"] == 0


# two triangles, a path and an isolated vertex
FOUR_COMPONENTS = graph_from_edges(10, ((0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (6, 7), (7, 8)))


class TestCoreSolve:
    """The exact solver pins each component's first vertex to the identity;
    the first packing it finds is the unpinned solver's."""

    def assert_same(self, g, k, maps, order=None):
        got = solver._core_solve(g, k, maps, order)
        assert got == reference_core_solve(g, k, maps, order)
        return got

    @pytest.mark.parametrize("kind, seed", COVER_PANEL, ids=[f"{kind}-{seed}" for kind, seed in COVER_PANEL])
    def test_cover_panel(self, kind, seed):
        g = generate(kind, 4, 5) if kind == "grid" else generate(kind)
        got = self.assert_same(g, 3, forbidden_maps(random_cover(g, 3, seed), range(g.n), ()))
        assert (got is None) == (seed < 5)

    def test_list_panel(self):
        # partial maps: the panel packs throughout, the even cycle gadgets
        # (as in TestSolveListPacking) do not
        gadgets = [list_assignment(generate("cycle", n), 2, [[1, 2]] * (n - 2) + [[1, 3], [2, 3]]) for n in (4, 6)]
        got = [self.assert_same(la.graph, la.k, solver._list_pattern_maps(la)) for la in list_panel() + gadgets]
        assert [p is None for p in got] == [False] * 40 + [True, True]

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_one_pin_per_component(self, monkeypatch, k):
        g = FOUR_COMPONENTS
        comps = [{0, 1, 2}, {3, 4, 5}, {6, 7, 8}, {9}]
        runs = []
        real = solver._extensions

        def spy(k, adj, maps, assign, order):
            runs.append((dict(assign), tuple(order)))
            return real(k, adj, maps, assign, order)

        monkeypatch.setattr(solver, "_extensions", spy)
        packed = set()
        for order in (None, tuple(range(g.n)), (8, 5, 9, 2, 7, 4, 1, 6, 3, 0)):
            full = solver._solve_order(g) if order is None else order
            firsts = [next(v for v in full if v in comp) for comp in comps]
            for seed in range(8):
                runs.clear()
                got = self.assert_same(g, k, forbidden_maps(random_cover(g, k, seed), range(g.n), ()), order)
                packed.add(got is not None)
                # the spy saw the pinned call first, then the reference's
                assert runs[0] == ({v: tuple(range(k)) for v in firsts}, tuple(v for v in full if v not in firsts))
                assert runs[1] == ({}, tuple(full))
        # an edge refutes k=1; seeds 2, 6 and 7 pack at k=2, seed 2 at k=3
        assert packed == {1: {False}, 2: {False, True}, 3: {False, True}, 4: {True}}[k]

    def test_empty_graph(self):
        assert self.assert_same(Graph(0, frozenset()), 3, {}) == {}

    def test_components_labeled_once_per_graph(self, monkeypatch):
        # repeated calls on one graph read its cached component labels
        built = []

        class Spy(UnionFind):
            def __init__(self, n):
                built.append(n)
                super().__init__(n)

        monkeypatch.setattr(graphs, "UnionFind", Spy)
        monkeypatch.setattr(solver, "UnionFind", Spy)
        g = Graph(FOUR_COMPONENTS.n, FOUR_COMPONENTS.edges)  # a fresh instance: nothing cached yet
        maps = forbidden_maps(random_cover(g, 3, 0), range(g.n), ())
        got = [solver._core_solve(g, 3, maps) for _ in range(5)]
        assert built == [g.n]
        assert got == [reference_core_solve(g, 3, maps)] * 5


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

    @pytest.mark.parametrize("k, message", [(8, "exceeded cap=1"), (9, "over 1,048,576 arc options")], ids=["k8", "k9"])
    def test_option_table_bound(self, k, message):
        # K4's three free edges take 3 * 8! arc options at k=8, within
        # OPTION_CAP, and 3 * 9! = 1,088,640 at k=9, past it: that search
        # stops before it builds them
        assert (3 * math.factorial(k) > solver.OPTION_CAP) == (k == 9)
        with pytest.raises(ResourceCapError, match=message):
            adversarial_cover_search(generate("complete", 4), k, cap=1)

    def test_forest_builds_no_options(self):
        # with no free edge there is no table to bound, even at k=12
        assert adversarial_cover_search(generate("path", 5), 12) is None

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

    @pytest.mark.parametrize("seed", range(40))
    def test_random_graphs_match_reference(self, seed):
        # seeded graphs on at most 5 vertices, at every k in {2, 3, 4} whose
        # k!**free candidates number at most 600: the same witness as the
        # reference, after exactly as many candidates, covered ones counted
        rng = random.Random(seed)
        n = rng.randint(3, 5)
        pairs = list(combinations(range(n), 2))
        g = graph_from_edges(n, rng.sample(pairs, rng.randint(n - 1, len(pairs))))
        free = len(g.sorted_edges()) - len(solver._spanning_forest(g))
        for k in [k for k in (2, 3, 4) if math.factorial(k) ** free <= 600]:
            decided, want = reference_cover_search(g, k)
            got = adversarial_cover_search(g, k, cap=decided)
            assert (None if got is None else cover_to_json(got)) == (None if want is None else cover_to_json(want))
            if decided > 1:
                with pytest.raises(ResourceCapError):
                    adversarial_cover_search(g, k, cap=decided - 1)

    def test_k5_minus_an_edge_k4_witness(self):
        # chi*_c(K5 - e) >= 5: the first unsolvable 4-cover, with the star
        # at 0 as the identity tree
        g = graph_from_edges(5, [e for e in combinations(range(5), 2) if e != (3, 4)])
        w = adversarial_cover_search(g, 4)
        assert solve_packing(w) is None
        want = {(1, 2): (0, 1, 2, 3), (1, 3): (0, 2, 3, 1), (1, 4): (0, 3, 1, 2), (2, 3): (0, 3, 1, 2), (2, 4): (0, 2, 3, 1)}
        assert {e: p.image for e, p in w.arcs.items()} == {**{(0, v): (0, 1, 2, 3) for v in range(1, 5)}, **want}

    def test_k4_k5_none(self):
        assert adversarial_cover_search(generate("complete", 4), 5) is None

    @BAD_SOLVES
    def test_solver_packing_is_validated(self, monkeypatch, bad):
        monkeypatch.setattr(solver, "_core_solve", lambda g, k, maps, order=None: bad(g, k))
        with pytest.raises(AssertionError):
            adversarial_cover_search(generate("cycle", 4), 2)

    @pytest.mark.parametrize(
        "g, k, exact",
        [(generate("cycle", 5), 3, True), (DIAMOND, 4, False), (generate("complete", 4), 4, False)],
        ids=["C5-k3", "diamond-k4", "K4-k4"],
    )
    def test_candidate_cells_are_its_pairs(self, monkeypatch, g, k, exact):
        # the cells ORed from the tree's and the free arcs' masks are, in
        # order, the forbidden pairs of the covers the reference decides,
        # less those that a packing solved for an earlier one fits
        got = solved_cells(monkeypatch, lambda: adversarial_cover_search(g, k))
        solved = []
        solve = solver.solve_packing
        monkeypatch.setattr(solver, "solve_packing", lambda cover: solved.append((cover, solve(cover))) or solved[-1][1])
        reference_cover_search(g, k)
        want, known = [], []
        for cover, packing in solved:
            cells = candidate_cells(g, k, [(arc, tuple(enumerate(p.image))) for arc, p in cover.arcs.items()])
            if all(cells & used for used in known):
                want.append(cells)
                if packing is not None:
                    known.append(packing_cells(g, k, [_invert(packing.assign[v]) for v in range(g.n)]))
        assert got and got == want
        assert (len(got) == len(solved)) == exact

    @pytest.mark.parametrize(
        "g",
        [generate("cycle", 4), generate("cycle", 5), generate("complete", 4)],
        ids=["C4-k3", "C5-k3", "K4-k3"],
    )
    def test_pool_changes_no_verdict(self, monkeypatch, g):
        # the pool, the packings the search has solved, settles candidates
        # but changes no verdict: the same result when none of them fits a
        # later candidate and every candidate is solved
        got = adversarial_cover_search(g, 3)
        nothing_known(monkeypatch)
        want = adversarial_cover_search(g, 3)
        assert (got is None) == (want is None)
        assert got is None or cover_to_json(got) == cover_to_json(want)

    @pytest.mark.parametrize(
        "g, calls",
        [
            (generate("complete", 4), 72),
            (graph_from_edges(5, [e for e in combinations(range(5), 2) if e != (3, 4)]), 221),
        ],
        ids=["K4-k4", "K5-e-k4"],
    )
    def test_each_solve_is_one_core_solve(self, monkeypatch, g, calls):
        # a candidate reaches the decider only when no known packing fits
        # it, so each one costs exactly one run of the exact solver
        core = []
        core_solve = solver._core_solve
        monkeypatch.setattr(solver, "_core_solve", lambda *args: core.append(1) or core_solve(*args))
        got = solved_cells(monkeypatch, lambda: adversarial_cover_search(g, 4))
        assert len(got) == len(core) == calls

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
        # forest pruning; the cap counts those, whether a known packing
        # settles them or the solver decides them
        found = adversarial_list_search(g, k, universe, cap=solved)
        assert (None if found is None else found.lists) == witness
        with pytest.raises(ResourceCapError):
            adversarial_list_search(g, k, universe, cap=solved - 1)

    @pytest.mark.parametrize(
        "g, decided, digest",
        [
            (generate("cycle", 5), 80, "05ff3ef26a6dc7ae0d789eb8284154aa61507bd7f7771d43f64e050cf26a6c71"),
            (BANNER, 68, "516bf70480def371bd3a4fe99aedc95d0fbaca51013fad457a07a4efead49544"),
        ],
        ids=["C5-k3", "banner-k3"],
    )
    def test_decided_sequence(self, monkeypatch, g, decided, digest):
        # the candidates the decider solves, those no known packing fits,
        # in order, as the sha256 over each one's 64 little-endian bytes
        # (those of reference_list_search too): a change to the
        # enumeration's bookkeeping must solve the same candidates in the
        # same order
        h = hashlib.sha256()
        count = 0
        solve = solver._Decider.solve

        def spy(self, cand):
            nonlocal count
            count += 1
            h.update(cand.to_bytes(64, "little"))
            return solve(self, cand)

        monkeypatch.setattr(solver._Decider, "solve", spy)
        assert adversarial_list_search(g, 3, 3 * g.n) is None
        assert (count, h.hexdigest()) == (decided, digest)

    @pytest.mark.parametrize(
        "g, calls, batched",
        [(generate("cycle", 5), 32_390, 2_880), (DIAMOND, 9_644, 2_436), (DIAMOND_HUBS_FIRST, 10_420, 2_242)],
        ids=["C5", "diamond", "diamond-hubs-first"],
    )
    def test_choose_calls(self, monkeypatch, g, calls, batched):
        # later back edges try only the options their pair masks pass:
        # trying every option takes 82,033, 72,443 and 66,228 calls, most
        # of which break the pattern; here every choice leaves it
        # consistent, checked from scratch, no closing check follows (see
        # test_chosen_edges_share_exactly_their_pairs), and the decided
        # counts are test_cap's and test_matches_reference_enumeration's.
        # The last back edge chooses only the options no known packing
        # settles: `batched` calls, and `calls` with none known, when every
        # complete pattern is chosen
        k = 3
        pairs_of = {}
        consistent = []
        choose = _PatternClasses.choose

        def spy(self, u, v, pairs):
            pairs_of[(u, v)] = pairs
            choose(self, u, v, pairs)
            # the edges are chosen in step order, so those chosen now are
            # the ones recorded up to (u, v) in that order
            chosen = {e: got for e, got in pairs_of.items() if e[::-1] <= (v, u)}
            consistent.append(rebuilt_consistent(self.uf, k, chosen, v))

        monkeypatch.setattr(_PatternClasses, "choose", spy)
        assert adversarial_list_search(g, k, k * g.n) is None
        assert len(consistent) == batched and all(consistent)
        consistent.clear()
        nothing_known(monkeypatch)
        assert adversarial_list_search(g, k, k * g.n) is None
        assert len(consistent) == calls and all(consistent)

    @pytest.mark.parametrize(
        "g, calls, batched",
        [(generate("cycle", 5), 32_390, 2_880), (DIAMOND, 9_644, 2_436), (BANNER, 21_441, 2_805)],
        ids=["C5", "diamond", "banner"],
    )
    def test_chosen_edges_share_exactly_their_pairs(self, monkeypatch, g, calls, batched):
        # the invariant that lets the search skip a closing check: after
        # every `choose`, each chosen edge shares exactly its pairs'
        # classes, recomputed from the parent links and touch masks; with
        # no known packing (`calls`) every complete pattern is checked
        k = 3
        pairs_of = {}
        seen = 0
        choose = _PatternClasses.choose

        def spy(self, u, v, pairs):
            nonlocal seen
            seen += 1
            pairs_of[(u, v)] = pairs
            choose(self, u, v, pairs)
            find, touches = self.uf.find, self.touches
            # the edges chosen now, in step order: those recorded up to (u, v)
            for x, y in (e for e in pairs_of if e[::-1] <= (v, u)):
                shared = {r for r in (find(y * k + t) for t in range(k)) if touches[r] >> x & 1}
                assert shared == {find(x * k + i) for i, _ in pairs_of[(x, y)]}
                assert all(find(x * k + i) == find(y * k + t) for i, t in pairs_of[(x, y)])

        monkeypatch.setattr(_PatternClasses, "choose", spy)
        assert adversarial_list_search(g, k, k * g.n) is None
        assert seen == batched
        seen = 0
        nothing_known(monkeypatch)
        assert adversarial_list_search(g, k, k * g.n) is None
        assert seen == calls

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

    @pytest.mark.parametrize("seed", range(8))
    def test_random_graphs_match_reference(self, seed):
        # seeded graphs on at most 5 vertices with a cycle, at k=2 and, with
        # at most 5 edges, k=3, over k+1 colors and over k*n: the same
        # witness as the reference, after exactly as many candidates,
        # settled ones counted.  Seeds 0-39 all agree; these 8 take about
        # 4 s, the reference most of it
        rng = random.Random(seed)
        n = rng.randint(3, 5)
        pairs = list(combinations(range(n), 2))
        g = graph_from_edges(n, rng.sample(pairs, rng.randint(n, len(pairs))))
        for k in (2, 3) if g.m <= 5 else (2,):
            for universe in (k + 1, k * n):
                decided, want = reference_list_search(g, k, universe)
                got = adversarial_list_search(g, k, universe, cap=decided)
                assert (None if got is None else got.lists) == (None if want is None else want.lists)
                if decided > 1:
                    with pytest.raises(ResourceCapError):
                        adversarial_list_search(g, k, universe, cap=decided - 1)

    @pytest.mark.parametrize(
        "g, lost, decided",
        [(generate("cycle", 4), 16, 45), (generate("cycle", 6), 344, 719), (generate("complete_bipartite", 2, 3), 720, 1_608), (BANNER, 64, 180)],
        ids=["C4", "C6", "K23", "banner"],
    )
    def test_unrealizable_leaves_go_on(self, monkeypatch, g, lost, decided):
        # over 2 colors at k=2, `lost` unsolvable patterns need more colors
        # than the universe holds, and the batch goes on past each one: no
        # witness, after as many candidates as the reference decides
        realized = []
        realize = solver._realize_lists
        monkeypatch.setattr(solver, "_realize_lists", lambda *args: realized.append(realize(*args)) or realized[-1])
        assert reference_list_search(g, 2, 2) == (decided, None)
        assert realized.count(None) == lost
        realized.clear()
        assert adversarial_list_search(g, 2, 2, cap=decided) is None
        assert realized == [None] * lost
        with pytest.raises(ResourceCapError):
            adversarial_list_search(g, 2, 2, cap=decided - 1)

    @pytest.mark.parametrize(
        "g, k", [(generate("cycle", 4), 3), (DIAMOND, 3), (BANNER, 3), (generate("cycle", 6), 2)],
        ids=["C4-k3", "diamond-k3", "banner-k3", "C6-k2"],
    )
    def test_candidate_cells_are_its_pairs(self, monkeypatch, g, k):
        # the cells carried down the stack are, in order, the cells of the
        # pairs the reference enumeration records as it chooses them, for
        # every candidate that no packing solved for an earlier one fits
        got = solved_cells(monkeypatch, lambda: adversarial_list_search(g, k, k * g.n))
        want = solved_cells(monkeypatch, lambda: reference_list_search(g, k, k * g.n))
        assert got and got == want

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_empty_choice_is_last(self, k):
        # a pruned empty choice ends its edge's options, so returning at it
        # loses no sibling
        assert _padded_subset_order(k)[-1] == ()
        assert _injection_order(k)[-1] == []

    @pytest.mark.parametrize("g", [generate("cycle", 4), generate("cycle", 5), BANNER], ids=["C4", "C5", "banner"])
    def test_no_forest_is_decided(self, monkeypatch, g):
        # with no known packing to settle them, every candidate is solved,
        # and none of them shares along a forest only
        nothing_known(monkeypatch)
        sharing_is_forest = []
        solve = solver._Decider.solve

        def spy(self, cand):
            # the sharing graph: the edges whose slot holds a cell
            full = (1 << self.k * self.k) - 1
            sharing = UnionFind(g.n)
            sharing_is_forest.append(all(sharing.union(u, v) for (u, v), s in self.slot.items() if cand >> s & full))
            return solve(self, cand)

        monkeypatch.setattr(solver._Decider, "solve", spy)
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
        found = []
        decided = solved_cells(monkeypatch, lambda: found.append(adversarial_list_search(g, k, k * g.n, cap=1)))
        assert found == [None] and decided == []
        with pytest.raises(ValueError):
            adversarial_list_search(g, k, k - 1)
        with pytest.raises(ValueError):
            adversarial_list_search(g, k, k * g.n, cap=0)

    def test_deep_search_runs_in_one_frame(self):
        # the 25x25 grid has 1,200 back edges, past Python's default
        # recursion limit of 1,000; the search keeps one generator per back
        # edge on its path in a list, so it decides at any depth.  At k=1
        # every edge shares its one color; at k=2 the first witness leaves
        # the last 4-cycle, 598-599-624-623, with lists 01, 01, 12, 02
        g = generate("grid", 25, 25)
        assert g.m > sys.getrecursionlimit()
        found = adversarial_list_search(g, 1, g.n)
        assert found is not None and found.lists == ((0,),) * g.n
        found = adversarial_list_search(g, 2, 2 * g.n)
        assert found is not None and found.lists == ((0, 1),) * 623 + ((0, 2), (1, 2))
        assert solve_list_packing(found) is None

    def test_edgeless_k1_decides_the_empty_pattern(self, monkeypatch):
        # with no back edge there is no step, and the one candidate, which
        # forbids nothing and meets no known packing, is solved and packs
        found = []
        decided = solved_cells(monkeypatch, lambda: found.append(adversarial_list_search(graph_from_edges(3, ()), 1, 3)))
        assert found == [None] and decided == [0]

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
        # the pool, the packings the search has solved, settles candidates
        # but changes no verdict: the same result when none of them fits a
        # later candidate and every candidate is solved
        got = adversarial_list_search(g, k, universe)
        nothing_known(monkeypatch)
        want = adversarial_list_search(g, k, universe)
        assert (got is None) == (want is None)
        assert got is None or got.lists == want.lists

    @pytest.mark.parametrize("cap", [0, -4])
    def test_cap_below_one(self, cap):
        with pytest.raises(ValueError):
            adversarial_list_search(generate("cycle", 4), 2, 8, cap=cap)

    @pytest.mark.parametrize("k, message", [(7, "exceeded its cap"), (8, "over 1,048,576 options")], ids=["k7", "k8"])
    def test_option_table_bound(self, k, message):
        # the later back edges' table holds every partial injection of
        # range(k), 130,922 at k=7, within OPTION_CAP, and 1,441,729 at
        # k=8, past it: that search stops before it builds them
        assert len(_injection_order(4)) == sum(math.comb(4, j) ** 2 * math.factorial(j) for j in range(5))
        size = sum(math.comb(k, j) ** 2 * math.factorial(j) for j in range(k + 1))
        assert size == {7: 130_922, 8: 1_441_729}[k] and (size > solver.OPTION_CAP) == (k == 8)
        with pytest.raises(ResourceCapError, match=message):
            adversarial_list_search(generate("cycle", 4), k, 4 * k, cap=1)

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
        # the universe is k * max(n, 1), not k * n = 0
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


def settles(g: Graph, k: int, found: dict, constraints) -> bool:
    """Whether the packing ``found`` (as :attr:`Packing.assign` holds it)
    settles the candidate ``constraints`` as the searches test a known
    packing: the two share no cell."""

    return not candidate_cells(g, k, constraints) & solver._Decider(g, k, 1, "cap").used(found)


class TestPool:
    """The pool, the packings a search has solved, each kept as the cells
    it uses: one settles a candidate only when it meets every forbidden
    pair."""

    def test_one_broken_pair_misses(self):
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
        assert settles(g, 3, found, constraints)
        assert not settles(g, 3, found, constraints[1:] + [((u, v), pairs + ((a, b),))])

    def test_one_broken_arc_misses(self):
        # cover form: replace one arc's permutation by one that the packing
        # breaks at exactly one color
        cover = random_cover(generate("cycle", 5), 3, 3)
        found = solve_packing(cover).assign
        cols = tuple(_invert(found[v]) for v in range(cover.graph.n))
        (u, v), _ = sorted(cover.arcs.items())[0]
        # sigma(a): the color at v in the coloring that uses a at u
        sigma = [cols[v].index(cols[u][a]) for a in range(3)]
        swapped = [sigma[0], sigma[2], sigma[1]]  # agrees with sigma at 0 only
        arcs = {**cover.arcs, (u, v): Perm(tuple(swapped))}
        constraints = [(arc, tuple(enumerate(p.image))) for arc, p in arcs.items()]
        broken = [(a, b) for (x, y), pairs in constraints for a, b in pairs if cols[x][a] == cols[y][b]]
        assert broken == [(0, sigma[0])]
        assert settles(cover.graph, 3, found, [(arc, tuple(enumerate(p.image))) for arc, p in cover.arcs.items()])
        assert not settles(cover.graph, 3, found, constraints)


CELL_GRAPHS = pytest.mark.parametrize(
    "g",
    [
        generate("path", 2),
        generate("path", 3),
        generate("cycle", 3),
        generate("cycle", 4),
        DIAMOND,
        generate("complete", 4),
    ],
    ids=["P2", "P3", "C3", "C4", "diamond", "K4"],
)


class TestCells:
    """A candidate and a known packing as cell masks: one AND decides
    what :func:`_fits` decides."""

    @pytest.mark.parametrize("form", ["pattern", "cover"])
    @pytest.mark.parametrize("k", [2, 3, 4])
    @CELL_GRAPHS
    def test_and_equals_fits(self, g, k, form):
        # candidates as the searches build them (each edge's option cells
        # shifted to its slot), packings as the searches keep them; half the
        # edges take an option the packing meets, so both verdicts occur
        rng = random.Random(f"{g.n}-{g.m}-{k}-{form}")
        decide = solver._Decider(g, k, 1, "cap")
        if form == "pattern":
            options = _injection_order(k)
        else:
            options = [list(enumerate(p)) for p in permutations(range(k))]
        verdicts = set()
        for _ in range(200):
            found = {v: tuple(rng.sample(range(k), k)) for v in range(g.n)}
            cols = tuple(_invert(found[v]) for v in range(g.n))
            constraints = []
            for e in g.sorted_edges():
                meets = [pairs for pairs in options if _fits(cols, [(e, pairs)])]
                constraints.append((e, rng.choice(meets if rng.random() < 0.5 else options)))
            cand = 0
            for e, pairs in constraints:
                cand |= solver._cells(k, pairs) << decide.slot[e]
            used = decide.used(found)
            assert cand == candidate_cells(g, k, constraints)
            assert used == packing_cells(g, k, cols)
            fits = _fits(cols, constraints)
            assert (cand & used == 0) == fits
            verdicts.add(fits)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("k", [2, 3, 4])
    @CELL_GRAPHS
    def test_last_cell(self, g, k):
        # the highest cell: value k-1 at both ends of the last edge
        decide = solver._Decider(g, k, 1, "cap")
        u, v = e = g.sorted_edges()[-1]
        constraints = [(e, [(k - 1, k - 1)])]
        cand = solver._cells(k, [(k - 1, k - 1)]) << decide.slot[e]
        assert cand == 1 << (g.m * k * k - 1) == candidate_cells(g, k, constraints)
        same = {w: tuple(range(k)) for w in range(g.n)}
        shifted = {**same, v: tuple(range(1, k)) + (0,)}
        for found in (same, shifted):
            cols = tuple(_invert(found[w]) for w in range(g.n))
            used = decide.used(found)
            assert used == packing_cells(g, k, cols)
            assert (cand & used == 0) == _fits(cols, constraints) == (found is shifted)


def assert_state_rebuilt(classes: _PatternClasses, uf: UnionFind, g: Graph, k: int, upto: int) -> None:
    roots = [{uf.find(w * k + i) for i in range(k)} for w in range(upto + 1)]
    for r in set().union(*roots):
        assert classes.uf.find(r) == r
        assert classes.touches[r] == sum(1 << w for w, rs in enumerate(roots) if r in rs)


def rebuilt_uf(g: Graph, k: int, chosen) -> UnionFind:
    """The plain union-find of ``chosen``'s pairs, built from scratch."""

    uf = UnionFind(g.n * k)
    for (u, v), pairs in chosen.items():
        for i, t in pairs:
            uf.union(u * k + i, v * k + t)
    return uf


def assert_state_replayed(classes: _PatternClasses, g: Graph, k: int, chosen) -> None:
    """The whole state equals that of a fresh instance that chooses
    ``chosen``'s edges with their pairs in the same order: parent links
    and touch masks."""

    fresh = _PatternClasses(g, k)
    for (u, v), pairs in chosen.items():
        fresh.choose(u, v, pairs)
    assert classes.uf.parent == fresh.uf.parent
    assert classes.touches == fresh.touches


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
        # random rollbacks to earlier vertices; after every rollback the
        # state is the one a fresh replay of `chosen` builds
        rng = random.Random(f"{g.n}-{g.m}-{k}")
        injections = _injection_order(k)
        classes = _PatternClasses(g, k)
        uf = UnionFind(g.n * k)
        chosen: dict = {}
        starts = []  # per placed vertex: the mark and the choices before it
        verdicts = set()
        v = 0
        for _ in range(600):
            if v == g.n or (starts and rng.random() < 0.15):
                v = rng.randrange(len(starts))
                _, mark, chosen = starts[v]
                chosen = dict(chosen)
                del starts[v:]
                classes.rollback(mark)
                uf = rebuilt_uf(g, k, chosen)
                assert_state_replayed(classes, g, k, chosen)
                if v:
                    assert_state_rebuilt(classes, uf, g, k, v - 1)
                continue
            start = (v, classes.mark(), dict(chosen))
            for u in sorted(u for u in g.adjacency[v] if u < v):
                pairs = rng.choice(injections)
                classes.choose(u, v, pairs)
                for i, t in pairs:
                    uf.union(u * k + i, v * k + t)
                chosen[(u, v)] = pairs
            # `choose` checks nothing, so the state follows every union,
            # whether the pattern stays consistent or not
            assert_state_rebuilt(classes, uf, g, k, v)
            accepted = rebuilt_consistent(uf, k, chosen, v)
            verdicts.add(accepted)
            if accepted:
                starts.append(start)
                v += 1
            else:
                _, mark, chosen = start
                chosen = dict(chosen)
                classes.rollback(mark)
                uf = rebuilt_uf(g, k, chosen)
                assert_state_replayed(classes, g, k, chosen)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize(
        "g",
        [
            generate("cycle", 4),
            generate("cycle", 5),
            DIAMOND,
            generate("complete_bipartite", 2, 3),
            generate("complete", 4),
        ],
        ids=["C4", "C5", "diamond", "K23", "K4"],
    )
    def test_pair_masks_drop_only_failing_options(self, g, k):
        # random patterns built vertex by vertex: at each back edge, an
        # option outside `ok` or without all of `fixed` leaves the pattern
        # inconsistent once chosen, and every other option leaves it
        # consistent, both checked from scratch; the second is why
        # `choose` need check nothing.  `tie` counts the pairs dropped only
        # because their classes touch the two ends of a chosen edge
        rng = random.Random(f"masks-{g.n}-{g.m}-{k}")
        options = [(pairs, solver._cells(k, pairs)) for pairs in _injection_order(k)]
        backs_of = [sorted(u for u in g.adjacency[v] if u < v) for v in range(g.n)]
        dropped = {"ok": 0, "fixed": 0, "tie": 0}
        for _ in range(60):
            classes = _PatternClasses(g, k)
            chosen = {}
            for v, backs in enumerate(backs_of):
                for idx, u in enumerate(backs):
                    tied = [0] * g.n
                    for x, y in chosen:
                        tied[x] |= 1 << y
                        tied[y] |= 1 << x
                    ok, fixed = classes.pair_masks(u, v, tied)
                    dropped["tie"] += (classes.pair_masks(u, v, [0] * g.n)[0] & ~ok).bit_count()
                    if idx == 0:
                        # the first back edge's unions cannot fail
                        assert (ok, fixed) == ((1 << k * k) - 1, 0)
                    kept = []
                    for pairs, cells in options:
                        passes = not cells & ~ok and not fixed & ~cells
                        if passes:
                            kept.append(pairs)
                        else:
                            dropped["ok" if cells & ~ok else "fixed"] += 1
                        mark = classes.mark()
                        chosen[(u, v)] = pairs
                        classes.choose(u, v, pairs)
                        assert rebuilt_consistent(classes.uf, k, chosen, v) == passes
                        classes.rollback(mark)
                    chosen[(u, v)] = rng.choice(kept)
                    classes.choose(u, v, chosen[(u, v)])
        assert dropped["ok"] and dropped["fixed"] and dropped["tie"]

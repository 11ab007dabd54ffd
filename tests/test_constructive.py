import hashlib
import json
import random

import pytest

from listpacking import constructive, solver
from listpacking.constructive import (
    REGIME_K,
    ClassViolationError,
    PackOutcome,
    Reduction,
    RepairTrace,
    _plan,
    extend_with_repair,
    find_reduction,
    pack_constructive,
)
from listpacking.covers import (
    CorrespondenceCover,
    Packing,
    Perm,
    random_cover,
    validate_packing,
)
from listpacking.graphs import generate, graph_from_edges, random_planar_triangulation_min5


def star_cover(k: int, leaves: int) -> CorrespondenceCover:
    g = graph_from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])
    return CorrespondenceCover(g, k, {e: Perm.identity(k) for e in g.sorted_edges()})


def _five_with_four_threes():
    # center 0 of degree 5 sees four 3-vertices; all other degrees high
    edges = [(0, i) for i in range(1, 6)]
    hub = list(range(6, 10))
    for w in range(1, 5):  # the four degree-3 neighbors
        edges += [(w, hub[w - 1]), (w, hub[w % 4])]
    edges += [(5, h) for h in hub] + [(5, 10), (10, 6), (10, 7), (10, 8)]
    for a, b in ((6, 7), (7, 8), (8, 9), (9, 6), (6, 8), (7, 9)):
        edges.append((a, b))
    return graph_from_edges(11, edges)


FIVE_WITH_FOUR_THREES = _five_with_four_threes()


class TestFindReduction:
    def test_dodecahedron(self):
        red = find_reduction(generate("dodecahedron"), "girth5_k4")
        assert red.kind == "path_3_3_3"
        assert red.removable() == (red.vertices[0],)

    def test_icosahedron(self):
        g = generate("icosahedron")
        red = find_reduction(g, "planar_k8")
        assert red.kind == "light_triangle"
        assert sum(g.degrees()[v] for v in red.vertices) == 15

    def test_tree(self):
        for regime in ("mad4_k5", "girth5_k4", "planar_k8"):
            red = find_reduction(generate("path", 5), regime)
            assert red.kind == "low_degree_vertex"

    def test_light_edge(self):
        # a 3-vertex adjacent to a 4-vertex, minimum degree 3
        g = generate("complete_bipartite", 3, 4)  # degrees 4 and 3
        red = find_reduction(g, "mad4_k5")
        assert red.kind == "light_edge"
        assert g.degrees()[red.vertices[0]] == 3
        assert g.degrees()[red.vertices[1]] <= 4

    def test_five_with_four_threes(self):
        g = FIVE_WITH_FOUR_THREES
        assert g.degrees()[0] == 5
        assert all(g.degrees()[w] == 3 for w in range(1, 5))
        red = find_reduction(g, "mad4_k5")
        assert red.kind == "five_with_four_threes"
        assert red.vertices[0] == 0
        assert red.removable() == red.vertices

    def test_out_of_class(self):
        with pytest.raises(ClassViolationError):
            find_reduction(generate("complete", 5), "girth5_k4")
        with pytest.raises(ClassViolationError):
            find_reduction(generate("complete", 6), "mad4_k5")

    def test_unknown_regime(self):
        with pytest.raises(ValueError):
            find_reduction(generate("path", 2), "k9")


def from_scratch_plan(g, regime: str) -> list[Reduction]:
    """The packer's peel, with every active degree recounted at each
    step."""

    plan, active = [], frozenset(range(g.n))
    while active:
        red = find_reduction(g, regime, {v: sum(w in active for w in g.adjacency[v]) for v in sorted(active)})
        plan.append(red)
        active = active - set(red.removable())
    return plan


PLAN_CASES = [
    ("dodecahedron", generate("dodecahedron"), "girth5_k4"),
    ("dodecahedron", generate("dodecahedron"), "mad4_k5"),
    ("grid", generate("grid", 4, 5), "mad4_k5"),
    ("grid", generate("grid", 4, 5), "girth5_k4"),
    ("five-with-four-threes", FIVE_WITH_FOUR_THREES, "mad4_k5"),
] + [(f"triangulation-{seed}", random_planar_triangulation_min5(seed), "planar_k8") for seed in range(3)]


def peel(plan, g, regime):
    """The plan, or the message of the ClassViolationError that ends it."""

    try:
        return plan(g, regime)
    except ClassViolationError as exc:
        return str(exc)


class TestPlan:
    @pytest.mark.parametrize("name, g, regime", PLAN_CASES, ids=[f"{name}-{regime}" for name, _, regime in PLAN_CASES])
    def test_kept_degrees_match_recount(self, name, g, regime):
        plan = peel(_plan, g, regime)
        assert plan == peel(from_scratch_plan, g, regime)
        if name == "five-with-four-threes":
            # the graph is dense once the configuration is gone
            assert plan == "no reducible configuration: graph not in mad<4 class"
        else:
            assert sorted(v for red in plan for v in red.removable()) == list(range(g.n))

    def test_degree_mapping_is_read(self):
        # find_reduction trusts the degrees it is given: with vertex 5's
        # degree given as 1, it is the first low-degree vertex
        g = generate("dodecahedron")
        degrees = dict.fromkeys(range(g.n), 3)
        assert find_reduction(g, "girth5_k4", degrees) == find_reduction(g, "girth5_k4")
        degrees[5] = 1
        assert find_reduction(g, "girth5_k4", degrees) == Reduction("low_degree_vertex", (5,))


class TestExtendWithRepair:
    def test_direct_extension_low_degree(self):
        # two packed neighbors, k=4: the extension bigraph is a (4,2)-bigraph
        cover = star_cover(4, 2)
        packing = Packing(4, {1: (0, 1, 2, 3), 2: (1, 0, 3, 2)})
        trace = RepairTrace()
        got = extend_with_repair(cover, packing, (0,), budget=2, trace=trace)
        assert got is packing
        assert trace.steps[-1].budget_used == 0
        assert validate_packing(cover, got).ok

    def _blocked_star(self):
        # three leaves packed so that two colorings both need color 3 at the
        # center: the direct extension is blocked
        cover = star_cover(4, 3)
        packing = Packing(
            4, {1: (0, 1, 2, 3), 2: (1, 2, 3, 0), 3: (2, 0, 1, 3)}
        )
        return cover, packing

    def test_budget_zero_fails(self):
        cover, packing = self._blocked_star()
        trace = RepairTrace()
        assert extend_with_repair(cover, packing, (0,), budget=0, trace=trace) is None
        assert trace.steps[-1].success is False

    def test_budget_one_repairs(self):
        cover, packing = self._blocked_star()
        trace = RepairTrace()
        got = extend_with_repair(cover, packing, (0,), budget=1, trace=trace)
        assert got is not None
        assert validate_packing(cover, got).ok
        step = trace.steps[-1]
        assert step.budget_used == 1 and len(step.repacked) == 1

    def _k3_star(self):
        # k=3 star: no single leaf can be repacked to free the center, but
        # leaves 1 and 3 together can
        g = graph_from_edges(5, [(0, i) for i in range(1, 5)])
        arcs = {(0, 1): (0, 1, 2), (0, 2): (2, 1, 0), (0, 3): (2, 0, 1), (0, 4): (1, 2, 0)}
        cover = CorrespondenceCover(g, 3, {e: Perm(p) for e, p in arcs.items()})
        packing = Packing(3, {1: (2, 1, 0), 2: (1, 0, 2), 3: (1, 0, 2), 4: (0, 1, 2)})
        return cover, packing

    def test_budget_two_repairs(self):
        cover, packing = self._k3_star()
        assert extend_with_repair(cover, packing, (0,), budget=1) is None
        trace = RepairTrace()
        got = extend_with_repair(cover, packing, (0,), budget=2, trace=trace)
        assert got is not None and validate_packing(cover, got).ok
        step = trace.steps[-1]
        assert step.success and step.budget_used == 2 and step.repacked == (1, 3)

    @pytest.mark.parametrize(
        "star, budget, cap", [("_blocked_star", 0, None), ("_k3_star", 1, None), ("_k3_star", 1, 1)]
    )
    def test_failure_leaves_packing_as_it_was(self, monkeypatch, star, budget, cap):
        # at cap 1 each leaf's engine is left after its first repacking, not
        # exhausted, so it does not restore the leaf itself
        if cap is not None:
            monkeypatch.setattr(constructive, "REPACK_CAP", cap)
        cover, packing = getattr(self, star)()
        before = dict(packing.assign)
        assert extend_with_repair(cover, packing, (0,), budget=budget) is None
        assert packing.assign == before

    @pytest.mark.parametrize("star, budget", [("_blocked_star", 1), ("_k3_star", 2)])
    def test_success_extends_the_packing_given(self, star, budget):
        cover, packing = getattr(self, star)()
        assert extend_with_repair(cover, packing, (0,), budget=budget) is packing
        assert 0 in packing.assign and validate_packing(cover, packing).ok

    @pytest.mark.parametrize("budget", [-1, 3])
    def test_budget_out_of_range(self, budget):
        cover, packing = self._blocked_star()
        with pytest.raises(ValueError):
            extend_with_repair(cover, packing, (0,), budget=budget)
        with pytest.raises(ValueError):
            pack_constructive(random_cover(generate("dodecahedron"), 4, 0), "girth5_k4", budget=budget)

    def test_frontier_must_be_unpacked(self):
        cover = star_cover(4, 2)
        packing = Packing(4, {0: (0, 1, 2, 3), 1: (1, 0, 3, 2), 2: (1, 0, 3, 2)})
        with pytest.raises(ValueError):
            extend_with_repair(cover, packing, (0,))


# every reason an out-of-class input gets, byte for byte: from the packer,
# and from find_reduction itself for an empty vertex set and for the two
# no-configuration messages, which the packer's mad check pre-empts (each
# graph below the bound has a configuration, by its rule's discharging)
PACK_REASONS = [
    ("girth5_k4", generate("complete", 5), "class_violation: graph has a triangle"),
    ("mad4_k5", generate("complete", 5), "class_violation: maximum average degree 4 is not below 4"),
    (
        "girth5_k4",
        generate("complete_bipartite", 3, 4),
        "class_violation: maximum average degree 24/7 is not below 10/3",
    ),
    (
        "planar_k8",
        generate("complete_bipartite", 5, 5),
        "class_violation: no light triangle: graph not in the planar minimum-degree-5 class",
    ),
]
FIND_REASONS = [
    ("mad4_k5", generate("complete", 6), "no reducible configuration: graph not in mad<4 class"),
    ("girth5_k4", generate("complete", 5), "no reducible configuration: graph not in triangle-free mad<10/3 class"),
    ("planar_k8", generate("complete_bipartite", 5, 5), "no light triangle: graph not in the planar minimum-degree-5 class"),
] + [(regime, graph_from_edges(0, []), "no vertices to reduce") for regime in sorted(REGIME_K)]


class TestClassViolationReasons:
    @pytest.mark.parametrize("regime, g, reason", PACK_REASONS, ids=[r for _, _, r in PACK_REASONS])
    def test_pack_constructive(self, regime, g, reason):
        k = REGIME_K[regime]
        out = pack_constructive(CorrespondenceCover(g, k, {e: Perm.identity(k) for e in g.sorted_edges()}), regime)
        assert not out.success
        assert out.reason == reason

    @pytest.mark.parametrize(
        "regime, g, reason", FIND_REASONS, ids=[f"{regime}-{reason}" for regime, _, reason in FIND_REASONS]
    )
    def test_find_reduction(self, regime, g, reason):
        with pytest.raises(ClassViolationError) as exc:
            find_reduction(g, regime)
        assert str(exc.value) == reason


# seeded covers the packer fingerprint runs, as (regime, seed)
PACKER_PANEL = [("girth5_k4", s) for s in (0, 3, 47)] + [("mad4_k5", s) for s in (0, 1)] + [
    ("planar_k8", s) for s in (0, 1, 2)
]


class TestPackConstructive:
    @pytest.mark.parametrize("seed", range(8))
    def test_dodecahedron(self, seed):
        cover = random_cover(generate("dodecahedron"), 4, seed)
        out = pack_constructive(cover, "girth5_k4")
        assert out.success
        assert validate_packing(cover, out.packing).ok
        assert out.trace.max_budget_used() <= 2

    @pytest.mark.parametrize("seed", range(8))
    def test_grid(self, seed):
        cover = random_cover(generate("grid", 4, 5), 5, seed)
        out = pack_constructive(cover, "mad4_k5")
        assert out.success
        assert validate_packing(cover, out.packing).ok

    @pytest.mark.parametrize("seed", range(4))
    def test_icosahedron_k8(self, seed):
        cover = random_cover(generate("icosahedron"), 8, seed)
        out = pack_constructive(cover, "planar_k8")
        assert out.success
        assert validate_packing(cover, out.packing).ok

    def test_k5_out_of_class(self):
        g = generate("complete", 5)
        cover = CorrespondenceCover(g, 4, {e: Perm.identity(4) for e in g.sorted_edges()})
        out = pack_constructive(cover, "girth5_k4")
        assert not out.success
        assert out.reason.startswith("class_violation")

    def test_k_mismatch(self):
        cover = random_cover(generate("dodecahedron"), 5, 0)
        with pytest.raises(ValueError):
            pack_constructive(cover, "girth5_k4")

    def test_frontier_sizes_sum_to_n(self):
        cover = random_cover(generate("dodecahedron"), 4, 11)
        out = pack_constructive(cover, "girth5_k4")
        assert sum(len(s.frontier) for s in out.trace.steps if s.success) == 20

    def test_fingerprint(self):
        # dodecahedron seeds 3 and 47 each take one budget-1 repair; no grid
        # seed below 5,000 and no triangulation seed below 300 repairs at all
        digest = hashlib.sha256()
        repairs = 0
        for regime, seed in PACKER_PANEL:
            if regime == "planar_k8":
                g = random_planar_triangulation_min5(seed)
            else:
                g = generate("dodecahedron") if regime == "girth5_k4" else generate("grid", 4, 5)
            out = pack_constructive(random_cover(g, REGIME_K[regime], seed), regime)
            digest.update(json.dumps([out.trace.as_json(), sorted(out.packing.assign.items())]).encode())
            repairs += sum(step.budget_used == 1 for step in out.trace.steps)
        assert repairs == 2
        assert digest.hexdigest() == "dc17d18891547240b1d59e2989a29b99d2d6625053ae636e705adfb42feedb70"

    def test_deterministic_replay(self):
        cover = random_cover(generate("grid", 4, 5), 5, 77)
        a = pack_constructive(cover, "mad4_k5")
        b = pack_constructive(cover, "mad4_k5")
        assert a.packing.assign == b.packing.assign
        assert json.dumps(a.trace.as_json()) == json.dumps(b.trace.as_json())

    def test_warm_rerun_is_identical(self, monkeypatch):
        # on cold engine tables, a second pass over the same covers replays
        # every 1-factor from the tables, the prefixes the first pass's early
        # stops left included; dodecahedron seed 3 takes a budget-1 repair
        for name in ("_hall", "_factors", "_clear"):
            monkeypatch.setattr(solver, name, {})
        calls = []
        real = solver._raw_one_factors

        def counting(s, rows):
            calls.append(rows)
            return real(s, rows)

        monkeypatch.setattr(solver, "_raw_one_factors", counting)
        jobs = [(random_cover(generate("dodecahedron"), 4, seed), "girth5_k4") for seed in range(5)]
        jobs += [(random_cover(generate("grid", 4, 5), 5, seed), "mad4_k5") for seed in range(5)]
        runs = []
        for _ in range(2):
            before = len(calls)
            outs = [pack_constructive(cover, regime) for cover, regime in jobs]
            runs.append([(out.packing.assign, json.dumps(out.trace.as_json())) for out in outs])
            made = len(calls) - before
        assert made == 0 < len(calls)
        assert runs[0] == runs[1]
        assert not all(complete for _, complete in solver._factors.values())

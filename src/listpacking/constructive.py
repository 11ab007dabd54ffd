"""Delete, recurse, and repair: constructive packing for three graph classes.

Supported regimes (the cover's k must match):

* ``mad4_k5``   -- maximum average degree below 4, k = 5;
* ``girth5_k4`` -- triangle-free with maximum average degree below 10/3
  (planar girth >= 5 qualifies), k = 4;
* ``planar_k8`` -- planar, k = 8 (planarity is trusted, not tested).

Each step finds a reducible configuration, removes its removable vertices,
packs the rest, and extends back over the removed set.  When a direct
extension is blocked, up to ``budget`` packed neighbors are unpacked and
repacked; candidate repackings that free edges into the blocking violator's
missing neighborhood are tried first, then a capped lazy enumeration of all
repackings.  The hand case analyses behind these repair moves are not
transcribed; bounded exhaustive repair subsumes them, and every emitted
packing is validated before it is returned.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from listpacking.bigraph import (
    Bigraph,
    _invert,
    classify_obstruction,
    hall_violator,
    has_one_factor,
    iter_one_factors,
    one_factor_with,
)
from listpacking.covers import (
    CorrespondenceCover,
    Packing,
    extension_bigraph,
    validate_packing,
)
from listpacking.graphs import Graph, girth, mad

REGIME_K = {"mad4_k5": 5, "girth5_k4": 4, "planar_k8": 8}


class ClassViolationError(ValueError):
    """The graph is not in the class the regime promises to reduce."""


@dataclass(frozen=True)
class Reduction:
    """A reducible configuration: its kind and the vertices involved.

    ``vertices`` is ordered per kind: ``light_edge`` lists the degree-3
    endpoint first; ``path_3_3_3`` lists (x, v, y) with v the center;
    ``five_with_four_threes`` lists the 5-vertex then its four degree-3
    neighbors; ``light_triangle`` lists the triangle sorted by (degree,
    index).
    """

    kind: str
    vertices: tuple[int, ...]

    def removable(self) -> tuple[int, ...]:
        if self.kind == "five_with_four_threes":
            return self.vertices
        if self.kind == "path_3_3_3":
            return (self.vertices[1],)
        return (self.vertices[0],)


@dataclass
class RepairStep:
    frontier: tuple[int, ...]
    kind: str
    repacked: tuple[int, ...]
    factors_tried: int
    budget_used: int
    success: bool

    def as_json(self) -> dict:
        return {
            "frontier": list(self.frontier),
            "kind": self.kind,
            "repacked": list(self.repacked),
            "factors_tried": self.factors_tried,
            "budget_used": self.budget_used,
            "success": self.success,
        }


@dataclass
class RepairTrace:
    steps: list[RepairStep] = field(default_factory=list)
    success: bool = False

    def max_budget_used(self) -> int:
        return max((s.budget_used for s in self.steps), default=0)

    def as_json(self) -> dict:
        return {"success": self.success, "steps": [s.as_json() for s in self.steps]}


@dataclass
class PackOutcome:
    success: bool
    packing: Packing | None
    trace: RepairTrace
    reason: str | None = None


# ---------------------------------------------------------------------------
# Reducible configurations.
# ---------------------------------------------------------------------------


def _active_degrees(g: Graph, active: frozenset[int]) -> dict[int, int]:
    return {v: sum(1 for w in g.adjacency[v] if w in active) for v in active}


def find_reduction(g: Graph, regime: str, active: frozenset[int] | None = None) -> Reduction:
    """A configuration the regime's class guarantees to exist.

    Searched in priority order with index tie-breaks, over the subgraph
    induced by ``active`` (defaults to the whole graph).  Raises
    ClassViolationError when nothing is found, which means the input is not
    in the declared class.
    """

    if regime not in REGIME_K:
        raise ValueError(f"unknown regime {regime!r}")
    if active is None:
        active = frozenset(range(g.n))
    if not active:
        raise ClassViolationError("no vertices to reduce")
    deg = _active_degrees(g, active)
    low_cut = REGIME_K[regime] // 2

    for v in sorted(active):
        if deg[v] <= low_cut:
            return Reduction("low_degree_vertex", (v,))

    if regime == "mad4_k5":
        for v in sorted(active):
            if deg[v] != 3:
                continue
            for w in g.adjacency[v]:
                if w in active and deg[w] <= 4:
                    return Reduction("light_edge", (v, w))
        for v in sorted(active):
            if deg[v] != 5:
                continue
            threes = [w for w in g.adjacency[v] if w in active and deg[w] == 3]
            if len(threes) >= 4:
                return Reduction("five_with_four_threes", (v, *threes[:4]))
        raise ClassViolationError("no reducible configuration: graph not in mad<4 class")

    if regime == "girth5_k4":
        for v in sorted(active):
            if deg[v] != 3:
                continue
            threes = [w for w in g.adjacency[v] if w in active and deg[w] == 3]
            if len(threes) >= 2:
                return Reduction("path_3_3_3", (threes[0], v, threes[1]))
        raise ClassViolationError(
            "no reducible configuration: graph not in triangle-free mad<10/3 class"
        )

    # planar_k8: a triangle with degree sum <= 17, vertices sorted by degree
    for u in sorted(active):
        for v in g.adjacency[u]:
            if v <= u or v not in active:
                continue
            for w in g.adjacency[u]:
                if w <= v or w not in active or not g.has_edge(v, w):
                    continue
                if deg[u] + deg[v] + deg[w] <= 17:
                    tri = tuple(sorted((u, v, w), key=lambda x: (deg[x], x)))
                    return Reduction("light_triangle", tri)
    raise ClassViolationError("no light triangle: graph not in the planar minimum-degree-5 class")


# ---------------------------------------------------------------------------
# Extension with bounded repair.
# ---------------------------------------------------------------------------


def _extend_frontier(
    cover: CorrespondenceCover,
    packing: Packing,
    frontier: tuple[int, ...],
    counter: list[int],
) -> bool:
    """Backtracking extension over the frontier in order; mutates packing."""

    if not frontier:
        return True
    v, rest = frontier[0], frontier[1:]
    h = extension_bigraph(cover, packing, v)
    for cols in iter_one_factors(h):
        counter[0] += 1
        packing.assign[v] = _invert(cols)
        if _extend_frontier(cover, packing, rest, counter):
            return True
        del packing.assign[v]
    return False


def _blocking_analysis(cover: CorrespondenceCover, packing: Packing, frontier: tuple[int, ...]):
    """First frontier vertex whose extension bigraph has no 1-factor, with a
    violator (X, N(X)) to steer the repair; None when each vertex is
    individually extendable."""

    for f in frontier:
        h = extension_bigraph(cover, packing, f)
        if has_one_factor(h):
            continue
        if cover.k == 8:
            try:
                obs = classify_obstruction(h)
            except ValueError:
                obs = None
            if obs is not None and obs.side == "A":
                return f, h, obs.x, obs.nbhd
        viol = hall_violator(h)
        assert viol is not None
        return f, h, viol[0], viol[1]
    return None


def _missing_pairs(h: Bigraph, x: frozenset[int], nbhd: frozenset[int]) -> list[tuple[int, int]]:
    """Absent edges from the violator to the complement of its neighborhood."""

    out = []
    for i in sorted(x):
        for j in range(h.s):
            if j not in nbhd and not h.has_edge(i, j):
                out.append((i, j))
    return out


def _blocked_by(cover, packing: Packing, f: int, z: int, pairs) -> list[tuple[int, int]]:
    """Missing (value, coloring) pairs at f that z's packing forbids, given
    as the z-side (value, coloring) pairs a repack would have to avoid."""

    to_f = cover.perm_along(z, f)
    got = packing.assign[z]
    out = []
    for i, j in pairs:
        if to_f(got[j]) == i:
            out.append((got[j], j))
    return out


def _candidate_factors(h: Bigraph, targeted, cap: int):
    """1-factors of h: targeted exclusions first, then capped enumeration."""

    seen = set()
    for exclude in targeted:
        got = one_factor_with(h, frozenset(), exclude)
        if got is None:
            continue
        cols = tuple(j for _, j in sorted(got))
        if cols not in seen:
            seen.add(cols)
            yield cols
    produced = 0
    for cols in iter_one_factors(h):
        produced += 1
        if produced > cap:
            return
        if cols not in seen:
            seen.add(cols)
            yield cols


def extend_with_repair(
    cover: CorrespondenceCover,
    packing: Packing,
    frontier: tuple[int, ...],
    budget: int = 2,
    trace: RepairTrace | None = None,
    kind: str = "extension",
    enum_cap: int = 10_000,
) -> Packing | None:
    """Extend a partial packing over ``frontier``, repacking at most
    ``budget`` packed neighbors when the direct extension is blocked.

    Returns the extended packing (a new object), or None with the failed
    attempt recorded in ``trace``.  Repair candidates are ordered by how
    many of the blocking violator's missing edges each neighbor is
    responsible for; per neighbor (and per neighbor pair) at most
    ``enum_cap`` repackings are enumerated.
    """

    for f in frontier:
        if f in packing.assign:
            raise ValueError(f"frontier vertex {f} is already packed")
    counter = [0]

    def record(repacked: tuple[int, ...], used: int, success: bool) -> None:
        if trace is not None:
            trace.steps.append(RepairStep(frontier, kind, repacked, counter[0], used, success))

    work = packing.copy()
    if _extend_frontier(cover, work, frontier, counter):
        record((), 0, True)
        return work

    analysis = _blocking_analysis(cover, packing, frontier)
    neighbors = sorted(
        {w for f in frontier for w in cover.graph.adjacency[f] if w in packing.assign}
    )
    pairs: list[tuple[int, int]] = []
    if analysis is not None:
        f_blocked, h_f, x, nbhd = analysis
        pairs = _missing_pairs(h_f, x, nbhd)
        rank = {z: len(_blocked_by(cover, packing, f_blocked, z, pairs)) for z in neighbors}
        neighbors.sort(key=lambda z: (-rank[z], z))

    def targeted_for(z: int) -> list[frozenset]:
        if analysis is None:
            return []
        mine = _blocked_by(cover, packing, analysis[0], z, pairs)
        singles = [frozenset({p}) for p in mine]
        doubles = [frozenset({a, b}) for a, b in combinations(mine, 2) if a[1] != b[1]]
        return singles + doubles

    if budget >= 1:
        for z in neighbors:
            work = packing.copy()
            del work.assign[z]
            h_z = extension_bigraph(cover, work, z)
            for cols in _candidate_factors(h_z, targeted_for(z), enum_cap):
                work.assign[z] = _invert(cols)
                if _extend_frontier(cover, work, frontier, counter):
                    record((z,), 1, True)
                    return work
                del work.assign[z]

    if budget >= 2:
        for z1, z2 in combinations(neighbors, 2):
            work = packing.copy()
            del work.assign[z1]
            del work.assign[z2]
            h1 = extension_bigraph(cover, work, z1)
            produced = 0
            for cols1 in iter_one_factors(h1):
                work.assign[z1] = _invert(cols1)
                h2 = extension_bigraph(cover, work, z2)
                for cols2 in _candidate_factors(h2, targeted_for(z2), enum_cap):
                    produced += 1
                    if produced > enum_cap:
                        break
                    work.assign[z2] = _invert(cols2)
                    if _extend_frontier(cover, work, frontier, counter):
                        record((z1, z2), 2, True)
                        return work
                    del work.assign[z2]
                del work.assign[z1]
                if produced > enum_cap:
                    break

    record((), min(budget, 2), False)
    return None


# ---------------------------------------------------------------------------
# The packer.
# ---------------------------------------------------------------------------


def _check_class(g: Graph, regime: str) -> str | None:
    if regime == "mad4_k5":
        if mad(g) >= Fraction(4):
            return f"maximum average degree {mad(g)} is not below 4"
    elif regime == "girth5_k4":
        if girth(g) == 3:
            return "graph has a triangle"
        if mad(g) >= Fraction(10, 3):
            return f"maximum average degree {mad(g)} is not below 10/3"
    return None  # planar_k8: planarity is trusted


def pack_constructive(
    cover: CorrespondenceCover,
    regime: str,
    budget: int = 2,
    check_class: bool = True,
) -> PackOutcome:
    """Pack a cover by the delete/recurse/repair strategy of its regime.

    On in-class inputs this always succeeds; a failure outcome carries the
    trace as a counterexample report (either the input was out of class, or
    a repair budget of 2 was genuinely insufficient, which would be a
    reportable finding and not one to absorb silently).
    """

    if regime not in REGIME_K:
        raise ValueError(f"unknown regime {regime!r}")
    if cover.k != REGIME_K[regime]:
        raise ValueError(f"regime {regime} needs k={REGIME_K[regime]}, cover has k={cover.k}")
    trace = RepairTrace()
    g = cover.graph
    if check_class and g.n:
        why = _check_class(g, regime)
        if why is not None:
            return PackOutcome(False, None, trace, f"class_violation: {why}")

    # Peel the whole reduction plan first, then extend in reverse order; the
    # total of the frontier sizes is exactly the vertex count.
    plan: list[Reduction] = []
    active = frozenset(range(g.n))
    try:
        while active:
            red = find_reduction(g, regime, active)
            plan.append(red)
            active = active - set(red.removable())
    except ClassViolationError as exc:
        return PackOutcome(False, None, trace, f"class_violation: {exc}")

    packing = Packing(cover.k)
    for red in reversed(plan):
        got = extend_with_repair(cover, packing, red.removable(), budget, trace, red.kind)
        if got is None:
            return PackOutcome(False, None, trace, "extension_failed")
        packing = got

    check = validate_packing(cover, packing)
    if not check.ok:
        raise AssertionError(f"constructive packer produced an invalid packing: {check.violations}")
    trace.success = True
    return PackOutcome(True, packing, trace)

"""Delete, recurse, and repair: constructive packing for three graph classes.

Supported regimes (the cover's k must match):

* ``mad4_k5``   -- maximum average degree below 4, k = 5;
* ``girth5_k4`` -- triangle-free with maximum average degree below 10/3
  (planar girth >= 5 qualifies), k = 4;
* ``planar_k8`` -- k = 8, on the graphs whose every subgraph the peel
  leaves has a vertex of degree at most 4 or a light triangle (degree sum
  at most ``graphs.LIGHT_TRIANGLE_MAX_SUM`` = 17).

The first two are the classes of the discharging rules ``P4`` and ``P5``
(``openB`` has no regime): the mad bound is the rule's threshold, and the
configurations reduced are exactly its exclusions (``discharging.RULES[name]``).
The class ``planar_k8`` reduces holds every planar graph: by Euler's formula
a planar graph has a vertex of degree at most 5, and one of minimum degree 5
has a light triangle (Borodin, 1989).  It also holds non-planar graphs, such
as K6 and K3,3.  Planarity itself is not tested, so success on an input
means it is in this class, not that it is planar.

Each step finds a reducible configuration, removes its removable vertices,
packs the rest, and extends back over the removed set.  The whole plan is
peeled first, with each remaining vertex's degree kept up to date as
vertices go (:func:`_plan`).  Every extension runs through the solver's
extension engine (:func:`solver._extensions`), a backtracking search in one
generator frame: each removed vertex in turn takes a 1-factor of its
extension bigraph.  The packer keeps one packing through the whole plan,
and each step extends it in place.  When the direct extension is blocked,
each set of at most ``budget`` (at most 2) packed neighbors is unpacked in
turn, repacked through the same engine (at most ``REPACK_CAP``
repackings), and the extension is tried again after each repacking.  The
hand case analyses behind these repair moves are not transcribed; bounded
exhaustive repair subsumes them, and every emitted packing is validated
before it is returned.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import combinations, islice

from listpacking.covers import CorrespondenceCover, Packing, forbidden_maps, validate_packing
from listpacking.discharging import RULES, find_configuration
from listpacking.graphs import Graph, find_light_triangle, girth, mad
from listpacking.solver import _extensions

REGIME_K = {"mad4_k5": 5, "girth5_k4": 4, "planar_k8": 8}

# the discharging rule whose class each regime packs, and whether it is triangle-free
REGIME_RULE = {"mad4_k5": ("P4", False), "girth5_k4": ("P5", True)}

# repackings of one neighbor set tried before repair moves to the next set
REPACK_CAP = 10_000


class ClassViolationError(ValueError):
    """The graph is not in the class the regime promises to reduce."""


@dataclass(frozen=True)
class Reduction:
    """A reducible configuration: its kind and the vertices involved.

    ``vertices`` lists a configuration's center, then its matched neighbors
    in adjacency order (the center of ``path_3_3_3`` is its middle vertex);
    ``light_triangle`` lists the triangle sorted by (degree, index).
    """

    kind: str
    vertices: tuple[int, ...]

    def removable(self) -> tuple[int, ...]:
        return self.vertices if self.kind == "five_with_four_threes" else self.vertices[:1]


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


def find_reduction(g: Graph, regime: str, active: Mapping[int, int] | None = None) -> Reduction:
    """A configuration the regime's class guarantees to exist.

    One of its rule's exclusions for ``mad4_k5`` and ``girth5_k4``
    (:func:`discharging.find_configuration`); for ``planar_k8`` a vertex of
    degree at most 4, else a light triangle.  Searched over the subgraph
    induced by the vertices of ``active``, a mapping from each to its degree
    there, which is read, not recounted (None means the whole graph); the
    centers are searched in the mapping's key order.
    Raises ClassViolationError when nothing is found: the input is not in
    the declared class.
    """

    if regime not in REGIME_K:
        raise ValueError(f"unknown regime {regime!r}")
    deg = {v: len(adj) for v, adj in enumerate(g.adjacency)} if active is None else active
    if not deg:
        raise ClassViolationError("no vertices to reduce")

    if regime in REGIME_RULE:
        rule, triangle_free = REGIME_RULE[regime]
        found = find_configuration(g, rule, deg)
        if found is None:
            name = f"{'triangle-free ' if triangle_free else ''}mad<{RULES[rule].threshold}"
            raise ClassViolationError(f"no reducible configuration: graph not in {name} class")
        return Reduction(*found)

    # planar_k8: a vertex of degree at most 4, then a light triangle
    for v in deg:
        if deg[v] <= 4:
            return Reduction("low_degree_vertex", (v,))
    tri = find_light_triangle(g, deg)
    if tri is None:
        raise ClassViolationError("no light triangle: graph not in the planar minimum-degree-5 class")
    return Reduction("light_triangle", tuple(sorted(tri, key=lambda x: (deg[x], x))))


# ---------------------------------------------------------------------------
# Extension with bounded repair.
# ---------------------------------------------------------------------------


def _check_budget(budget: int) -> None:
    if not 0 <= budget <= 2:
        raise ValueError(f"repair budget must be 0, 1 or 2, got {budget}")


def extend_with_repair(
    cover: CorrespondenceCover,
    packing: Packing,
    frontier: tuple[int, ...],
    budget: int = 2,
    trace: RepairTrace | None = None,
    kind: str = "extension",
) -> Packing | None:
    """Extend a partial packing over ``frontier`` in place, repacking at
    most ``budget`` (0, 1 or 2) packed neighbors when the direct extension
    is blocked.

    Returns ``packing`` itself, its ``assign`` extended over the frontier,
    or None with the failed attempt recorded in ``trace`` and ``packing``
    holding what it held (the keys of ``assign`` may come back in another
    order).  Repair tries the sets of 1, then of 2, packed neighbors of the
    frontier in ascending order: it unpacks the set, repacks its vertices in
    order, and extends over the frontier again.  At most ``REPACK_CAP``
    repackings of each set are tried, and a set that fails gets its old
    values back.  Every extension runs through :func:`solver._extensions`
    on ``packing.assign``, and each attempt stops at its first frontier
    extension, so ``factors_tried`` (frontier extensions tried) is 1 on
    success and 0 on failure.  On a one-vertex frontier, which every
    reduction but ``five_with_four_threes`` has, that is the number of the
    frontier's 1-factors tried.
    """

    _check_budget(budget)
    assign = packing.assign
    for f in frontier:
        if f in assign:
            raise ValueError(f"frontier vertex {f} is already packed")
    k, adj = cover.k, cover.graph.adjacency

    def record(repacked: tuple[int, ...], used: int, success: bool) -> None:
        if trace is not None:
            trace.steps.append(RepairStep(frontier, kind, repacked, int(success), used, success))

    for _ in _extensions(k, adj, forbidden_maps(cover, frontier, assign), assign, frontier):
        record((), 0, True)
        return packing

    neighbors = sorted({w for f in frontier for w in adj[f] if w in assign})
    for size in range(1, budget + 1):
        for zs in combinations(neighbors, size):
            old = [assign.pop(z) for z in zs]
            maps = forbidden_maps(cover, zs + frontier, assign)
            for _ in islice(_extensions(k, adj, maps, assign, zs), REPACK_CAP):
                for _ in _extensions(k, adj, maps, assign, frontier):
                    record(zs, size, True)
                    return packing
            # the engine over zs left at REPACK_CAP restores nothing
            assign.update(zip(zs, old))
    record((), budget, False)
    return None


# ---------------------------------------------------------------------------
# The packer.
# ---------------------------------------------------------------------------


def _plan(g: Graph, regime: str) -> list[Reduction]:
    """The regime's reductions, peeled until no vertex is left: each is
    :func:`find_reduction` on the vertices the earlier ones left, whose
    degrees in their subgraph are kept up to date as vertices go."""

    adj = g.adjacency
    active = {v: len(adj[v]) for v in range(g.n)}
    plan = []
    while active:
        red = find_reduction(g, regime, active)
        plan.append(red)
        for v in red.removable():
            del active[v]
            for w in adj[v]:
                if w in active:
                    active[w] -= 1
    return plan


def _check_class(g: Graph, regime: str) -> str | None:
    """Why ``g`` is outside the class of ``mad4_k5`` or ``girth5_k4``, or
    None.  For ``planar_k8`` there is nothing to check before the peel: its
    class is the graphs whose every peel remnant has a vertex of degree at
    most 4 or a light triangle, which :func:`_plan` tests as it peels.  That
    class holds every planar graph and some non-planar ones (K6, K3,3);
    planarity itself is not tested."""

    if regime not in REGIME_RULE:
        return None
    rule, triangle_free = REGIME_RULE[regime]
    if triangle_free and girth(g) == 3:
        return "graph has a triangle"
    bound = RULES[rule].threshold
    if mad(g) >= bound:
        return f"maximum average degree {mad(g)} is not below {bound}"
    return None


def pack_constructive(
    cover: CorrespondenceCover,
    regime: str,
    budget: int = 2,
) -> PackOutcome:
    """Pack a cover by the delete/recurse/repair strategy of its regime.

    On in-class inputs this always succeeds; a failure outcome carries the
    trace as a counterexample report (either the input was out of class, or
    a repair budget of 2 was genuinely insufficient, which would be a
    reportable finding and not one to absorb silently).  The class of
    ``planar_k8`` is the graphs whose every peel remnant has a vertex of
    degree at most 4 or a light triangle: every planar graph, and some
    non-planar ones such as K6 and K3,3, so its success does not certify
    planarity.
    """

    if regime not in REGIME_K:
        raise ValueError(f"unknown regime {regime!r}")
    _check_budget(budget)
    if cover.k != REGIME_K[regime]:
        raise ValueError(f"regime {regime} needs k={REGIME_K[regime]}, cover has k={cover.k}")
    trace = RepairTrace()
    g = cover.graph
    if g.n:
        why = _check_class(g, regime)
        if why is not None:
            return PackOutcome(False, None, trace, f"class_violation: {why}")

    # Peel the whole reduction plan first, then extend in reverse order; the
    # total of the frontier sizes is exactly the vertex count.
    try:
        plan = _plan(g, regime)
    except ClassViolationError as exc:
        return PackOutcome(False, None, trace, f"class_violation: {exc}")

    packing = Packing(cover.k)
    for red in reversed(plan):
        if extend_with_repair(cover, packing, red.removable(), budget, trace, red.kind) is None:
            return PackOutcome(False, None, trace, "extension_failed")

    check = validate_packing(cover, packing)
    if not check.ok:
        raise AssertionError(f"constructive packer produced an invalid packing: {check.violations}")
    trace.success = True
    return PackOutcome(True, packing, trace)

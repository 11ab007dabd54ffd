"""Correspondence covers, list assignments, packings, and the bridges
between them.

A cover stores one permutation per edge, keyed by the orientation the input
declared; queries against the reverse arc use the inverse permutation, so
callers never need to care which direction was stored.  A packing stores,
per vertex, the tuple of colors used by colorings ``0..k-1``; a partial
packing simply omits unpacked vertices.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Container, Iterable, Mapping, Sequence

from listpacking.bigraph import _invert
from listpacking.graphs import (
    Graph,
    UnionFind,
    forest_walk,
    graph_from_edges,
    graph_from_json,
    graph_to_json,
    json_array,
    json_fields,
    json_int,
)


@dataclass(frozen=True, slots=True)
class Perm:
    """A permutation of ``0..k-1`` stored as its image tuple.  Slotted,
    which saves 40 bytes a permutation (CPython 3.11): the benchmark's 2,200
    packer inputs (dodecahedron, grid and triangulation covers) hold 96,916."""

    image: tuple[int, ...]

    def __post_init__(self) -> None:
        k = len(self.image)
        if sorted(self.image) != list(range(k)):
            raise ValueError(f"{self.image} is not a permutation")

    @property
    def k(self) -> int:
        return len(self.image)

    def __call__(self, i: int) -> int:
        return self.image[i]

    def inverse(self) -> "Perm":
        inv = [0] * self.k
        for i, j in enumerate(self.image):
            inv[j] = i
        return Perm(tuple(inv))

    def after(self, other: "Perm") -> "Perm":
        """Composition self(other(x))."""

        return Perm(tuple(self.image[other.image[i]] for i in range(self.k)))

    @staticmethod
    def identity(k: int) -> "Perm":
        return Perm(tuple(range(k)))


@dataclass(frozen=True)
class CorrespondenceCover:
    """An orientation plus one permutation per arc.

    ``arcs`` maps ordered pairs (u, v) to the permutation carrying colors of
    u onto the colors they forbid at v; exactly one of (u, v), (v, u) is
    keyed per edge.
    """

    graph: Graph
    k: int
    arcs: Mapping[tuple[int, int], Perm]

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("covers need k >= 1")
        seen = set()
        for (u, v), perm in self.arcs.items():
            if not self.graph.has_edge(u, v):
                raise ValueError(f"arc {(u, v)} is not an edge of the graph")
            if perm.k != self.k:
                raise ValueError("permutation size does not match k")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise ValueError(f"edge {key} keyed twice")
            seen.add(key)
        if len(seen) != self.graph.m:
            raise ValueError("every edge needs exactly one arc")

    def perm_along(self, u: int, v: int) -> Perm:
        """The u -> v constraint map, inverting a stored (v, u) arc."""

        if (u, v) in self.arcs:
            return self.arcs[(u, v)]
        return self.arcs[(v, u)].inverse()


@dataclass(frozen=True)
class ListAssignment:
    """Per-vertex color lists, all of the same size k.  Color identifiers
    are arbitrary non-negative integers from a global universe."""

    graph: Graph
    k: int
    lists: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("list assignments need k >= 1")
        if len(self.lists) != self.graph.n:
            raise ValueError("need one list per vertex")
        for v, colors in enumerate(self.lists):
            if len(colors) != self.k or len(set(colors)) != self.k:
                raise ValueError(f"list at vertex {v} does not have {self.k} distinct colors")
            if any(c < 0 for c in colors):
                raise ValueError("colors are non-negative integers")
            if tuple(sorted(colors)) != colors:
                raise ValueError(f"list at vertex {v} is not sorted")


def list_assignment(graph: Graph, k: int, lists: Iterable[Iterable[int]]) -> ListAssignment:
    return ListAssignment(graph, k, tuple(tuple(sorted(colors)) for colors in lists))


def random_cover(graph: Graph, k: int, seed: int) -> CorrespondenceCover:
    """A seeded cover: every edge oriented low-to-high with a uniformly
    random permutation."""

    rng = random.Random(seed)
    arcs = {}
    for u, v in graph.sorted_edges():
        image = list(range(k))
        rng.shuffle(image)
        arcs[(u, v)] = Perm(tuple(image))
    return CorrespondenceCover(graph, k, arcs)


@dataclass
class Packing:
    """Colorings 0..k-1, stored per vertex: ``assign[v][j]`` is the color of
    coloring j at v.  Vertices absent from ``assign`` are unpacked."""

    k: int
    assign: dict[int, tuple[int, ...]] = field(default_factory=dict)


@dataclass(frozen=True)
class Check:
    ok: bool
    violations: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


# ---------------------------------------------------------------------------
# Straightening: relabel colors vertex by vertex so that every arc of a
# chosen forest carries the identity, preserving packings bijectively.
# ---------------------------------------------------------------------------


def _check_forest(graph: Graph, tree_edges) -> Graph:
    """The forest ``tree_edges`` as a spanning subgraph of ``graph``;
    ValueError when an edge is not in ``graph`` or closes a cycle."""

    uf = UnionFind(graph.n)
    edges = []
    for u, v in tree_edges:
        if not graph.has_edge(u, v):
            raise ValueError(f"tree edge {(u, v)} is not in the graph")
        if not uf.union(u, v):
            raise ValueError("tree edge set contains a cycle")
        edges.append((u, v))
    return graph_from_edges(graph.n, edges)


def straighten(cover: CorrespondenceCover, tree_edges) -> tuple[CorrespondenceCover, dict[int, Perm]]:
    """Return an equivalent cover whose arcs along ``tree_edges`` (a forest)
    are all the identity, together with the per-vertex relabeling.

    The relabeling rho satisfies: phi is a packing of the original cover
    exactly when v |-> rho_v(phi(v)) columnwise is a packing of the result.
    """

    g = cover.graph
    ident = Perm.identity(cover.k)
    rho: dict[int, Perm] = {v: ident for v in range(g.n)}
    for u, v in forest_walk(_check_forest(g, tree_edges)):
        # make the u->v constraint the identity after relabeling
        rho[v] = rho[u].after(cover.perm_along(u, v).inverse())
    new_arcs = {
        (u, v): rho[v].after(perm).after(rho[u].inverse()) for (u, v), perm in cover.arcs.items()
    }
    return CorrespondenceCover(g, cover.k, new_arcs), rho


def apply_relabel(packing: Packing, rho: Mapping[int, Perm], inverse: bool = False) -> Packing:
    """Push a packing through a straightening relabeling (or pull it back)."""

    out = {}
    for v, colors in packing.assign.items():
        p = rho[v].inverse() if inverse else rho[v]
        out[v] = tuple(p(c) for c in colors)
    return Packing(packing.k, out)


# ---------------------------------------------------------------------------
# List assignments as covers.
# ---------------------------------------------------------------------------


def list_to_cover(la: ListAssignment) -> tuple[CorrespondenceCover, tuple[tuple[int, ...], ...]]:
    """Encode a list assignment as a cover plus the per-vertex color indexing.

    Each vertex's list is indexed in sorted order.  Per edge, indices of
    shared colors are matched, and the partial matching is completed to a
    permutation by smallest-index greedy choice.  Every packing of the cover
    pulls back to a valid list packing (the converse direction does not hold:
    the completion edges forbid some color pairs that differ as colors).
    """

    indexing = la.lists  # already sorted tuples
    pos = [{c: i for i, c in enumerate(colors)} for colors in indexing]
    arcs = {}
    for u, v in la.graph.sorted_edges():
        image: dict[int, int] = {}
        used = set()
        for c in indexing[u]:
            if c in pos[v]:
                image[pos[u][c]] = pos[v][c]
                used.add(pos[v][c])
        free_targets = [j for j in range(la.k) if j not in used]
        for i in range(la.k):
            if i not in image:
                image[i] = free_targets.pop(0)
        arcs[(u, v)] = Perm(tuple(image[i] for i in range(la.k)))
    return CorrespondenceCover(la.graph, la.k, arcs), indexing


def pull_back_list_packing(indexing: tuple[tuple[int, ...], ...], packing: Packing) -> Packing:
    """Map a cover packing (values are list indices) to actual list colors."""

    return Packing(
        packing.k,
        {v: tuple(indexing[v][i] for i in cols) for v, cols in packing.assign.items()},
    )


# ---------------------------------------------------------------------------
# Forbidden maps: what a color at one end of an arc forbids at the other.
# ---------------------------------------------------------------------------


def forbidden_maps(
    cover: CorrespondenceCover, into: Sequence[int], packed: Container[int]
) -> dict[tuple[int, int], tuple[int, ...]]:
    """The arc images into the vertices ``into``: ``maps[(u, v)][c]`` is the
    color that color ``c`` at u forbids at v, for each v in ``into`` and
    each neighbor u of v that is in ``packed`` or in ``into``.  Extending a
    packing of ``packed`` over ``into`` reads no other arc.  A reverse arc
    inverts the stored image tuple, as :meth:`CorrespondenceCover.perm_along`
    does without building a :class:`Perm`."""

    adj, arcs = cover.graph.adjacency, cover.arcs
    maps = {}
    for v in into:
        for u in adj[v]:
            if u in packed or u in into:
                perm = arcs.get((u, v))
                maps[(u, v)] = _invert(arcs[(v, u)].image) if perm is None else perm.image
    return maps


# ---------------------------------------------------------------------------
# Validation.
# ---------------------------------------------------------------------------


def validate_packing(cover: CorrespondenceCover, packing: Packing) -> Check:
    """Full check of a (complete) packing against a cover: every vertex
    assigned and no other, per-vertex injectivity, values in range, all arc
    constraints."""

    bad: list[str] = []
    g = cover.graph
    for v in range(g.n):
        if v not in packing.assign:
            bad.append(f"vertex {v} unpacked")
    if packing.k != cover.k:
        bad.append(f"packing has k={packing.k}, cover has k={cover.k}")
    values = set(range(cover.k))
    for v, colors in packing.assign.items():
        if not 0 <= v < g.n:
            bad.append(f"vertex {v} not in the graph")
            continue
        if len(colors) != cover.k:
            bad.append(f"vertex {v}: expected {cover.k} entries")
            continue
        if set(colors) == values:  # a permutation of 0..k-1
            continue
        if any(not 0 <= c < cover.k for c in colors):
            bad.append(f"vertex {v}: color out of range")
        if len(set(colors)) != len(colors):
            bad.append(f"vertex {v}: colorings collide")
    if bad:
        return Check(False, tuple(bad))
    assign = packing.assign
    for (u, v), perm in cover.arcs.items():
        image = perm.image
        for j, (x, y) in enumerate(zip(assign[u], assign[v])):
            if image[x] == y:
                bad.append(f"arc ({u},{v}) coloring {j}: constraint violated")
    return Check(not bad, tuple(bad))


def validate_list_packing(la: ListAssignment, packing: Packing) -> Check:
    """Each coloring is a proper coloring from the lists, and per vertex the
    k colorings use k distinct colors; no vertex outside the graph is packed."""

    bad: list[str] = []
    g = la.graph
    for v in range(g.n):
        colors = packing.assign.get(v)
        if colors is None:
            bad.append(f"vertex {v} unpacked")
            continue
        if len(colors) != la.k:
            bad.append(f"vertex {v}: expected {la.k} entries")
            continue
        if len(set(colors)) != len(colors):
            bad.append(f"vertex {v}: colorings collide")
        for c in colors:
            if c not in la.lists[v]:
                bad.append(f"vertex {v}: color {c} outside its list")
    for v in packing.assign:
        if not 0 <= v < g.n:
            bad.append(f"vertex {v} not in the graph")
    if packing.k != la.k:
        bad.append(f"packing has k={packing.k}, lists have k={la.k}")
    if bad:
        return Check(False, tuple(bad))
    for u, v in g.sorted_edges():
        for j in range(la.k):
            if packing.assign[u][j] == packing.assign[v][j]:
                bad.append(f"edge ({u},{v}) coloring {j}: endpoints share a color")
    return Check(not bad, tuple(bad))


# ---------------------------------------------------------------------------
# JSON wire formats.
# ---------------------------------------------------------------------------


def cover_to_json(cover: CorrespondenceCover) -> dict:
    return {
        "k": cover.k,
        "graph": graph_to_json(cover.graph),
        "arcs": [
            {"u": u, "v": v, "perm": list(perm.image)}
            for (u, v), perm in sorted(cover.arcs.items())
        ],
    }


def cover_from_json(obj: dict) -> CorrespondenceCover:
    try:
        obj = json_fields(obj, "k", "graph", "arcs")
        g = graph_from_json(obj["graph"])
        k = json_int(obj["k"])
        given = [
            ((json_int(a["u"]), json_int(a["v"])), Perm(tuple(json_int(x) for x in json_array(a["perm"]))))
            for a in [json_fields(a, "u", "v", "perm") for a in json_array(obj["arcs"])]
        ]
        arcs = dict(given)
        if len(arcs) != len(given):
            raise ValueError("an arc (u, v) appears twice")
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed cover JSON: {exc}") from exc
    return CorrespondenceCover(g, k, arcs)


def list_assignment_to_json(la: ListAssignment) -> dict:
    return {
        "k": la.k,
        "graph": graph_to_json(la.graph),
        "lists": {str(v): list(colors) for v, colors in enumerate(la.lists)},
    }


def list_assignment_from_json(obj: dict) -> ListAssignment:
    try:
        obj = json_fields(obj, "k", "graph", "lists")
        k = json_int(obj["k"])
        g = graph_from_json(obj["graph"])
        given = {_vertex_key(v): colors for v, colors in obj["lists"].items()}
        if sorted(given) != list(range(g.n)):
            raise ValueError(f"list keys must be exactly the vertices 0..{g.n - 1}")
        lists = [tuple(sorted(json_int(c) for c in json_array(given[v]))) for v in range(g.n)]
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed list-assignment JSON: {exc}") from exc
    return ListAssignment(g, k, tuple(lists))


def packing_to_json(packing: Packing) -> dict:
    return {
        "k": packing.k,
        "assign": {str(v): list(colors) for v, colors in sorted(packing.assign.items())},
    }


def _vertex_key(key) -> int:
    """The vertex ``v`` whose key is exactly ``str(v)``, v >= 0; any other
    spelling (``"01"``, ``" 2"``, ``"1_0"``, non-ASCII digits) raises
    ValueError, so two keys never name one vertex."""

    v = int(key)
    if v < 0 or str(v) != key:
        raise ValueError(f"vertex key {key!r} is not a non-negative integer in canonical form")
    return v


def packing_from_json(obj: dict) -> Packing:
    try:
        obj = json_fields(obj, "k", "assign")
        k = json_int(obj["k"])
        assign = {_vertex_key(v): tuple(json_int(c) for c in json_array(colors)) for v, colors in obj["assign"].items()}
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed packing JSON: {exc}") from exc
    return Packing(k, assign)

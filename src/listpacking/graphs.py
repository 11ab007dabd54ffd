"""Undirected simple graphs: representation, measurements, and generators.

Graphs are immutable and hashable, and each instance caches its expensive
measurements (girth, degeneracy, connected components, exact maximum average
degree).  Vertex numbering of every named generator is frozen; see the
individual docstrings.  The maximum average degree comes from integer
max-flows under Dinkelbach's iteration and is returned as a
:class:`fractions.Fraction`; no density is ever rounded or held in floating
point.
"""

from __future__ import annotations

import math
import random
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from itertools import chain, combinations
from typing import Collection, Iterable, Iterator


def _normalize_edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """An undirected simple graph on vertices ``0..n-1``.

    ``edges`` holds normalized pairs ``(u, v)`` with ``u < v``; loops and
    parallel edges are rejected at construction.
    """

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("vertex count must be non-negative")
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (u < v):
                raise ValueError(f"edge {(u, v)} is not normalized")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge {(u, v)} out of range for n={self.n}")

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        nbr: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            nbr[u].append(v)
            nbr[v].append(u)
        return tuple(tuple(sorted(a)) for a in nbr)

    @cached_property
    def _girth(self) -> int | float:
        best: int | float = math.inf
        for u, v in self.sorted_edges():
            d = _bfs_dist(self.adjacency, u, v, (u, v))
            if d is not None and d + 1 < best:
                best = d + 1
                if best == 3:
                    break
        return best

    @cached_property
    def _degeneracy(self) -> tuple[int, tuple[int, ...]]:
        deg = list(self.degrees())
        alive = [True] * self.n
        order: list[int] = []
        d = 0
        for _ in range(self.n):
            v = min((x for x in range(self.n) if alive[x]), key=lambda x: (deg[x], x))
            d = max(d, deg[v])
            order.append(v)
            alive[v] = False
            for w in self.adjacency[v]:
                if alive[w]:
                    deg[w] -= 1
        return d, tuple(order)

    @cached_property
    def _components(self) -> tuple[int, ...]:
        uf = UnionFind(self.n)
        for u, v in self.edges:
            uf.union(u, v)
        return tuple(map(uf.find, range(self.n)))

    @cached_property
    def _mad(self) -> Fraction:
        # (e, s) counts the edges and vertices of an explicit vertex set,
        # starting from the whole graph; each flow either finds a strictly
        # denser set or proves that none exists, so 2e/s is exact
        edges = self.sorted_edges()
        e, s = len(edges), self.n
        while part := _denser_part(self.n, edges, e, s):
            inside = set(part)
            e, s = sum(u in inside and v in inside for u, v in edges), len(part)
        return Fraction(2 * e, s)

    @property
    def m(self) -> int:
        return len(self.edges)

    def degrees(self) -> tuple[int, ...]:
        return tuple(len(a) for a in self.adjacency)

    def has_edge(self, u: int, v: int) -> bool:
        return _normalize_edge(u, v) in self.edges

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def __repr__(self) -> str:  # compact; edge dumps get long
        return f"Graph(n={self.n}, m={self.m})"


def graph_from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph, normalizing edge orientation and dropping duplicates."""

    return Graph(n, frozenset(_normalize_edge(u, v) for u, v in edges))


# ---------------------------------------------------------------------------
# Named generators.  Numbering is frozen so results are bit-reproducible.
# ---------------------------------------------------------------------------

# Nested-ring construction: outer 5-cycle 0-4, attachment ring 5-9,
# mid ring 10-14, inner 5-cycle 15-19.  3-regular, girth 5, 30 edges.
_DODECAHEDRON_EDGES = (
    [(i, (i + 1) % 5) for i in range(5)]
    + [(i, i + 5) for i in range(5)]
    + [(5, 10), (10, 6), (6, 11), (11, 7), (7, 12), (12, 8), (8, 13), (13, 9), (9, 14), (14, 5)]
    + [(10 + i, 15 + i) for i in range(5)]
    + [(15 + i, 15 + (i + 1) % 5) for i in range(5)]
)

# Oriented triangular faces of the icosahedron: hub 0 over upper ring 1-5,
# hub 11 under lower ring 6-10, rings joined by a zigzag band.  5-regular,
# 30 edges, girth 3.
_ICOSAHEDRON_FACES = (
    [(0, 1 + i, 1 + (i + 1) % 5) for i in range(5)]
    + [(11, 6 + (i + 1) % 5, 6 + i) for i in range(5)]
    + [(1, 6, 7), (2, 7, 8), (3, 8, 9), (4, 9, 10), (5, 10, 6)]
    + [(1, 7, 2), (2, 8, 3), (3, 9, 4), (4, 10, 5), (5, 6, 1)]
)


def generate(kind: str, *params: int) -> Graph:
    """Return a named graph.

    Kinds and their canonical numbering:

    * ``cycle k`` (k >= 3): vertices ``0..k-1``, edges ``(i, i+1 mod k)``.
    * ``path k`` (k >= 1): ``k`` vertices in a chain.
    * ``complete t`` (t >= 1).
    * ``complete_bipartite a b``: part ``0..a-1`` against ``a..a+b-1``.
    * ``grid r c``: vertex ``i*c + j``; edges to the right and down.
    * ``dodecahedron``, ``icosahedron``, ``cube``: fixed edge lists.
    """

    def need(count: int) -> None:
        if len(params) != count:
            raise ValueError(f"{kind} expects {count} parameter(s), got {len(params)}")
        if any(p <= 0 for p in params):
            raise ValueError(f"{kind} parameters must be positive")

    if kind == "cycle":
        need(1)
        k = params[0]
        if k < 3:
            raise ValueError("cycle needs k >= 3")
        return graph_from_edges(k, ((i, (i + 1) % k) for i in range(k)))
    if kind == "path":
        need(1)
        k = params[0]
        return graph_from_edges(k, ((i, i + 1) for i in range(k - 1)))
    if kind == "complete":
        need(1)
        t = params[0]
        return graph_from_edges(t, combinations(range(t), 2))
    if kind == "complete_bipartite":
        need(2)
        a, b = params
        return graph_from_edges(a + b, ((i, a + j) for i in range(a) for j in range(b)))
    if kind == "grid":
        need(2)
        r, c = params
        edges = []
        for i in range(r):
            for j in range(c):
                if j + 1 < c:
                    edges.append((i * c + j, i * c + j + 1))
                if i + 1 < r:
                    edges.append((i * c + j, (i + 1) * c + j))
        return graph_from_edges(r * c, edges)
    if kind == "dodecahedron":
        need(0)
        return graph_from_edges(20, _DODECAHEDRON_EDGES)
    if kind == "icosahedron":
        need(0)
        return _faces_to_graph(12, _ICOSAHEDRON_FACES)
    if kind == "cube":
        need(0)
        return graph_from_edges(8, ((u, u ^ (1 << b)) for u in range(8) for b in range(3) if u < u ^ (1 << b)))
    raise ValueError(f"unknown graph kind {kind!r}")


# ---------------------------------------------------------------------------
# Measurements.
# ---------------------------------------------------------------------------


def _bfs_dist(adj: tuple[tuple[int, ...], ...], src: int, dst: int, skip: tuple[int, int]) -> int | None:
    """Shortest path length src -> dst avoiding the single edge ``skip``."""

    if src == dst:
        return 0
    dist = {src: 0}
    frontier = [src]
    while frontier:
        nxt = []
        for u in frontier:
            for w in adj[u]:
                if (u, w) == skip or (w, u) == skip:
                    continue
                if w not in dist:
                    dist[w] = dist[u] + 1
                    if w == dst:
                        return dist[w]
                    nxt.append(w)
        frontier = nxt
    return None


def girth(g: Graph) -> int | float:
    """Length of the shortest cycle; ``math.inf`` for forests.

    Uses the delete-an-edge oracle: the shortest cycle through edge (u, v)
    is 1 + dist(u, v) in the graph without that edge.  Computed once per
    graph instance.
    """

    return g._girth


def degeneracy(g: Graph) -> tuple[int, tuple[int, ...]]:
    """Peel minimum-degree vertices; return (d, removal order).

    Read back-to-front, no vertex in the order has more than ``d`` neighbors
    among later-removed vertices.  Computed once per graph instance.
    """

    if g.n == 0:
        raise ValueError("degeneracy needs at least one vertex")
    return g._degeneracy


def components(g: Graph) -> tuple[int, ...]:
    """Each vertex's connected component, labeled by its smallest vertex.
    Computed once per graph instance."""

    return g._components


def forest_walk(g: Graph) -> Iterator[tuple[int, int]]:
    """Breadth-first spanning forest of g as (parent, child) pairs in
    discovery order: roots ascending, neighbors ascending, frontier by
    frontier."""

    seen = [False] * g.n
    for root in range(g.n):
        if seen[root]:
            continue
        seen[root] = True
        frontier = [root]
        while frontier:
            nxt = []
            for u in frontier:
                for v in g.adjacency[u]:
                    if not seen[v]:
                        seen[v] = True
                        yield u, v
                        nxt.append(v)
            frontier = nxt


class UnionFind:
    """Disjoint sets over ``0..n-1``: no path compression, and the smaller
    root stays the root, so an undo only resets the absorbed root's parent
    link (``solver._PatternClasses`` links and undoes its own unions over
    ``parent`` this way)."""

    def __init__(self, n: int) -> None:
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        """Merge the sets of a and b; False when they were already one."""

        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if ra > rb:
            ra, rb = rb, ra
        self.parent[rb] = ra
        return True


def _denser_part(n: int, edges: list[tuple[int, int]], e: int, s: int) -> list[int]:
    """The vertices the source still reaches after one integer max-flow, by
    shortest augmenting paths, in Goldberg's network for the density e/s:
    source -> edge node with capacity s, edge node -> each endpoint
    unbounded (s*m + 1 exceeds the source's total), vertex -> sink with
    capacity e.  A cut keeping vertex set S on the source side costs
    s*(m - e(S)) + e*|S|, so the set is nonempty exactly when some S has
    s*e(S) - e*|S| > 0, and then it is such a set."""

    m = len(edges)
    src, snk = n + m, n + m + 1  # vertices 0..n-1, edge nodes n..n+m-1
    head: list[list[int]] = [[] for _ in range(n + m + 2)]
    to: list[int] = []
    cap: list[int] = []

    def arc(u: int, v: int, c: int) -> None:  # arc a's residual twin is a ^ 1
        head[u].append(len(to))
        to.append(v)
        cap.append(c)
        head[v].append(len(to))
        to.append(u)
        cap.append(0)

    for i, (u, v) in enumerate(edges):
        arc(src, n + i, s)
        arc(n + i, u, s * m + 1)
        arc(n + i, v, s * m + 1)
    for v in range(n):
        arc(v, snk, e)
    while True:
        via = [-1] * (n + m + 2)  # the arc each reached node was reached by
        via[src] = len(to)  # reached, by no arc; paths stop at the source
        queue = [src]
        for u in queue:
            for a in head[u]:
                if cap[a] and via[to[a]] < 0:
                    via[to[a]] = a
                    queue.append(to[a])
        if via[snk] < 0:
            return [v for v in range(n) if via[v] >= 0]
        path = []
        v = snk
        while v != src:
            path.append(via[v])
            v = to[via[v] ^ 1]
        push = min(cap[a] for a in path)
        for a in path:
            cap[a] -= push
            cap[a ^ 1] += push


def mad(g: Graph) -> Fraction:
    """Exact maximum average degree: max over nonempty subgraphs H of
    2|E(H)|/|V(H)|, by integer max-flow under Dinkelbach's iteration (see
    ``Graph._mad``).  Computed once per graph instance.
    """

    if g.n == 0:
        raise ValueError("mad needs at least one vertex")
    return g._mad


# the light-triangle bound the planar_k8 regime relies on: a planar graph of
# minimum degree 5 has a triangle whose degree sum is at most this
LIGHT_TRIANGLE_MAX_SUM = 17


def find_light_triangle(
    g: Graph, active: Collection[int] | None = None
) -> tuple[int, int, int] | None:
    """First triangle (u, v, w), u < v < w lexicographic, of the subgraph
    induced by ``active`` (defaults to the whole graph) whose degree sum in
    that subgraph is at most ``LIGHT_TRIANGLE_MAX_SUM``; None when no such
    triangle exists."""

    keep = range(g.n) if active is None else active
    masks = [0] * g.n
    for v in keep:
        for w in g.adjacency[v]:
            if w in keep:
                masks[v] |= 1 << w
    deg = [m.bit_count() for m in masks]
    for u in range(g.n):
        for v in g.adjacency[u]:
            if v <= u:
                continue
            mm = (masks[u] & masks[v]) >> (v + 1)
            base = v + 1
            while mm:
                low = mm & -mm
                w = base + low.bit_length() - 1
                if deg[u] + deg[v] + deg[w] <= LIGHT_TRIANGLE_MAX_SUM:
                    return (u, v, w)
                mm ^= low
    return None


# ---------------------------------------------------------------------------
# JSON wire format.
# ---------------------------------------------------------------------------


def json_int(x) -> int:
    """``x`` itself when it is a JSON integer; anything else (a float, a
    string, a boolean) raises ValueError instead of being coerced."""

    if type(x) is not int:
        raise ValueError(f"expected an integer, got {x!r}")
    return x


def json_fields(obj, *keys: str) -> dict:
    """``obj`` itself when it is a JSON object with no key outside ``keys``;
    a key the reader would not read raises ValueError instead of being
    ignored, and anything but an object raises TypeError.  A missing key is
    left to the reader."""

    if not isinstance(obj, dict):
        raise TypeError(f"expected a JSON object, got {type(obj).__name__}")
    extra = sorted(set(obj) - set(keys))
    if extra:
        raise ValueError(f"unknown key(s) {', '.join(map(repr, extra))}; expected only {', '.join(map(repr, keys))}")
    return obj


def graph_to_json(g: Graph) -> dict:
    return {"n": g.n, "edges": [list(e) for e in g.sorted_edges()]}


def graph_from_json(obj: dict) -> Graph:
    try:
        obj = json_fields(obj, "n", "edges")
        n = json_int(obj["n"])
        edges = [_normalize_edge(json_int(u), json_int(v)) for u, v in obj["edges"]]
        if len(set(edges)) != len(edges):
            raise ValueError("an edge appears twice")
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed graph JSON: {exc}") from exc
    return Graph(n, frozenset(edges))


# ---------------------------------------------------------------------------
# Planar triangulations with minimum degree 5.
#
# These are produced constructively (split the icosahedron's faces, then apply
# random degree-guarded diagonal flips and vertex splits), so planarity and
# the triangulation property hold by construction and are never re-tested.
# ---------------------------------------------------------------------------


@cache
def _split_icosahedron() -> tuple[int, tuple[frozenset[int], ...]]:
    """Split every icosahedron face (p, q, r) into four at its edge
    midpoints, numbered qr, pr, pq from 12 the first time each is seen.

    Original vertices keep degree 5; the 30 midpoints have degree 6.
    Returns (42, faces in the order they are built).  A set that adds the
    faces in that order iterates them as the generator's face set always
    has; a copy of a finished set would not.
    """

    mid: dict[frozenset[int], int] = {}
    faces: list[frozenset[int]] = []
    for p, q, r in _ICOSAHEDRON_FACES:
        qr, pr, pq = (mid.setdefault(frozenset(e), 12 + len(mid)) for e in ((q, r), (p, r), (p, q)))
        faces += [frozenset({r, pr, qr}), frozenset({pr, qr, pq}), frozenset({qr, pq, q}), frozenset({pr, p, pq})]
    return 12 + len(mid), tuple(faces)


def _faces_to_graph(n: int, faces: Iterable[Collection[int]]) -> Graph:
    edges = set()
    for f in faces:
        a, b, c = sorted(f)
        edges.update([(a, b), (a, c), (b, c)])
    return Graph(n, frozenset(edges))


def _rotation(faces_at: dict[int, Collection[frozenset[int]]], v: int) -> list[int]:
    """Cyclic neighbor order around v, recovered from incident faces; it
    does not depend on the order of the faces."""

    pairs = [tuple(sorted(f - {v})) for f in faces_at[v]]
    nxt: dict[int, list[int]] = {}
    for a, b in pairs:
        nxt.setdefault(a, []).append(b)
        nxt.setdefault(b, []).append(a)
    start = min(nxt)
    cycle = [start]
    prev = None
    while True:
        options = [x for x in nxt[cycle[-1]] if x != prev]
        if not options:
            raise ValueError("faces around vertex do not close a disk")
        prev = cycle[-1]
        cycle.append(min(options) if len(cycle) == 1 else options[0])
        if cycle[-1] == start:
            return cycle[:-1]


TRIANGULATION_MOVES = 40


def random_planar_triangulation_min5(seed: int) -> Graph:
    """Seeded planar triangulation with minimum degree 5.

    Starts from the icosahedron with every face split into four at its edge
    midpoints (42 vertices) and applies ``TRIANGULATION_MOVES`` random
    degree-guarded operations: diagonal flips and vertex splits, both of
    which preserve planarity, the triangulation property, and minimum
    degree 5.

    The triangulation of each seed is frozen, and the draws rest on four
    order facts that any rewrite must keep:

    1. a flip lists its candidate edges in order of first appearance while
       iterating ``faces``, each face yielding its edges in sorted order;
    2. of the two faces on the chosen edge, ``a`` is the apex in the one met
       first in that iteration and ``b`` in the other, because
       ``frozenset({a, b, u})`` iterates in an order that depends on how it
       was built;
    3. a split draws from the vertices of degree at least 6 in order of
       first appearance over ``faces`` and over each face's own iteration,
       an order taken after every split (flips keep it);
    4. the rotation around a vertex does not depend on the order of its
       faces, and the order of ``set.discard`` calls does not change the
       face set's iteration order.

    The maps below (sorted edges per face, ``{face: apex}`` per edge, faces
    per vertex, whose size is the degree) are kept across moves; only the
    faces a move drops or adds are updated.
    """

    rng = random.Random(seed)
    n, built = _split_icosahedron()
    faces: set[frozenset[int]] = set()
    edges_of: dict[frozenset[int], tuple[tuple[int, int], ...]] = {}
    apex: dict[tuple[int, int], dict[frozenset[int], int]] = {}
    faces_at: defaultdict[int, set[frozenset[int]]] = defaultdict(set)

    def add(f: frozenset[int]) -> None:
        faces.add(f)
        a, b, c = sorted(f)
        edges_of[f] = ((a, b), (a, c), (b, c))
        apex.setdefault((a, b), {})[f] = c
        apex.setdefault((a, c), {})[f] = b
        apex.setdefault((b, c), {})[f] = a
        faces_at[a].add(f)
        faces_at[b].add(f)
        faces_at[c].add(f)

    def drop(f: frozenset[int]) -> None:
        faces.discard(f)
        for e in edges_of.pop(f):
            at = apex[e]
            del at[f]
            if not at:
                del apex[e]
        for v in f:
            faces_at[v].discard(f)

    for f in built:
        add(f)
    order = dict.fromkeys(chain.from_iterable(faces))

    def try_flip() -> bool:
        candidates = []
        for e in dict.fromkeys(chain.from_iterable(map(edges_of.__getitem__, faces))):
            u, v = e
            if len(faces_at[u]) > 5 and len(faces_at[v]) > 5:
                a, b = apex[e].values()
                if ((a, b) if a < b else (b, a)) not in apex:
                    candidates.append(e)
        if not candidates:
            return False
        u, v = e = candidates[rng.randrange(len(candidates))]
        on_edge = apex[e]
        f0 = next(filter(on_edge.__contains__, faces))
        (f1,) = on_edge.keys() - {f0}
        a, b = on_edge[f0], on_edge[f1]
        drop(f0)
        drop(f1)
        add(frozenset({a, b, u}))
        add(frozenset({a, b, v}))
        return True

    def try_split() -> bool:
        nonlocal n, order
        splittable = [v for v in order if len(faces_at[v]) >= 6]
        if not splittable:
            return False
        v = splittable[rng.randrange(len(splittable))]
        ring = _rotation(faces_at, v)
        d = len(ring)
        # v keeps a contiguous segment of its rotation; the new vertex takes
        # the rest.  Both endpoints of the cut stay adjacent to both copies.
        seg = rng.randrange(4, d - 2 + 1)
        start = rng.randrange(d)
        keep = [ring[(start + i) % d] for i in range(seg)]
        rest = [ring[(start + seg - 1 + i) % d] for i in range(d - seg + 2)]
        new = n
        n += 1
        for f in tuple(faces_at[v]):
            drop(f)
        for i in range(len(keep) - 1):
            add(frozenset({v, keep[i], keep[i + 1]}))
        for i in range(len(rest) - 1):
            add(frozenset({new, rest[i], rest[i + 1]}))
        add(frozenset({v, new, keep[0]}))
        add(frozenset({v, new, keep[-1]}))
        order = dict.fromkeys(chain.from_iterable(faces))
        return True

    for _ in range(TRIANGULATION_MOVES):
        op = rng.random()
        if op < 0.5:
            try_flip()
        else:
            try_split()
    return _faces_to_graph(n, faces)

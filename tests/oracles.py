"""Independent brute-force oracles used to cross-check the library.

These deliberately avoid the library's algorithms: solvability is decided
by enumerating raw assignments and checking the defining constraints
directly, girth by per-root breadth-first search, densest subgraphs by
plain subset enumeration.  The two exceptions are references for an
optimized path: :func:`reference_cover_search` replays the adversarial
cover search's enumeration one whole cover at a time through the public
``solve_packing``, apart from the search's own candidate decision;
:func:`reference_list_search` is the list search's pattern enumeration with
a forest check at every complete pattern instead of pruning, each pattern
solved on its own (it takes every option of every back edge, where the
search passes only those its pair masks let through, so after each choice
it checks the pattern from scratch, with :func:`rebuilt_consistent`, a
check the search does not need); and
:func:`reference_extensions` is the extension engine with a full-frontier
lookahead, which Hall-checks every later vertex that has a packed neighbor,
on rows :func:`extension_rows` rebuilds as lists.  The exact solver keeps
its form from before the coloring-index symmetry:
:func:`reference_core_solve` runs the library's engine over the whole
order, with no component's first vertex pinned to the identity.  Three
bigraph kernels keep their plain form here: :func:`reference_one_factors` enumerates
1-factors with one generator per row, :func:`reference_column_masks`
transposes bit by bit, and :func:`reference_obstructions` scans every
subset of the obstruction size.  The library enumerates 1-factors but never counts them,
so both counters live here: :func:`oracle_one_factor_count` tries every
column permutation, and :func:`count_one_factors` is the permanent by
dynamic programming over subsets of B.  The candidate decider takes a
candidate only as one integer of cells and tests a packing against it with
one AND: :func:`candidate_cells` and :func:`packing_cells` build the two
integers straight from the forbidden pairs and from a packing's colorings,
and :func:`_fits` is the pair-by-pair check that AND stands for.
:func:`reference_triangulation_min5` is the planar triangulation generator
as it rebuilt its edge-face map at every flip and its vertex-face
incidence (:func:`_incidence`) and degree table at every split; the
library keeps those maps across moves and must draw the same
triangulations.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations, permutations, product
from typing import Mapping


def oracle_cover_solvable(cover) -> bool:
    """Enumerate all per-vertex color permutations and test every arc."""

    k = cover.k
    arcs = [((u, v), perm.image) for (u, v), perm in cover.arcs.items()]
    options = list(permutations(range(k)))
    for combo in product(options, repeat=cover.graph.n):
        ok = True
        for (u, v), image in arcs:
            for j in range(k):
                if image[combo[u][j]] == combo[v][j]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return True
    return False


def oracle_list_solvable(la) -> bool:
    """Enumerate all per-vertex list orderings and test every edge."""

    k = la.k
    edges = sorted(la.graph.edges)
    per_vertex = [list(permutations(la.lists[v])) for v in range(la.graph.n)]
    for combo in product(*per_vertex):
        ok = True
        for u, v in edges:
            for j in range(k):
                if combo[u][j] == combo[v][j]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return True
    return False


def oracle_girth(g) -> int | float:
    """Shortest cycle via breadth-first search from every root.

    For each root, any edge joining two searched vertices closes a walk of
    length dist[u] + dist[w] + 1 containing a cycle no longer than that;
    the estimate is exact for roots on a shortest cycle.
    """

    best: int | float = math.inf
    adj = g.adjacency
    for root in range(g.n):
        dist = {root: 0}
        parent = {root: -1}
        frontier = [root]
        while frontier:
            nxt = []
            for u in frontier:
                for w in adj[u]:
                    if w not in dist:
                        dist[w] = dist[u] + 1
                        parent[w] = u
                        nxt.append(w)
                    elif parent[u] != w and parent[w] != u:
                        best = min(best, dist[u] + dist[w] + 1)
            frontier = nxt
    return best


def oracle_mad(g) -> Fraction:
    """Max of 2 e(S) / |S| over nonempty subsets, by direct enumeration."""

    verts = range(g.n)
    edges = sorted(g.edges)
    best = Fraction(0)
    for size in range(1, g.n + 1):
        for comb in combinations(verts, size):
            inside = set(comb)
            e = sum(1 for u, v in edges if u in inside and v in inside)
            best = max(best, Fraction(2 * e, size))
    return best


def oracle_one_factor_count(h) -> int:
    """Count perfect matchings by enumerating column permutations."""

    count = 0
    for perm in permutations(range(h.s)):
        if all(h.rows[i] >> perm[i] & 1 for i in range(h.s)):
            count += 1
    return count


def count_one_factors(h) -> int:
    """Exact number of 1-factors (the permanent of the biadjacency matrix),
    by dynamic programming over subsets of B."""

    s = h.s
    rows = h.rows
    size = 1 << s
    f = [0] * size
    f[0] = 1
    for mask in range(1, size):
        i = mask.bit_count() - 1
        m = rows[i] & mask
        acc = 0
        while m:
            low = m & -m
            acc += f[mask ^ low]
            m ^= low
        f[mask] = acc
    return f[size - 1]


def replay_degeneracy(g, order) -> int:
    """Max over the replayed removal order of the degree at removal time."""

    remaining = set(range(g.n))
    worst = 0
    for v in order:
        worst = max(worst, sum(1 for w in g.adjacency[v] if w in remaining))
        remaining.discard(v)
    return worst


def reference_cover_search(g, k):
    """The gauge-reduced cover enumeration, one cover per candidate: the
    arcs of ``_spanning_forest(g)`` are the identity, and the other edges,
    sorted, run through all permutation tuples in lexicographic order.

    Returns (decided, cover): the first cover ``solve_packing`` rejects and
    the number of candidates up to and including it, or None and the number
    of candidates.
    """

    from listpacking.covers import CorrespondenceCover, Perm
    from listpacking.solver import _spanning_forest, solve_packing

    tree = _spanning_forest(g)
    free = [e for e in g.sorted_edges() if e not in tree]
    base = {e: Perm.identity(k) for e in tree}
    decided = 0
    for images in product(permutations(range(k)), repeat=len(free)):
        decided += 1
        cover = CorrespondenceCover(g, k, {**base, **{e: Perm(p) for e, p in zip(free, images)}})
        if solve_packing(cover) is None:
            return decided, cover
    return decided, None


def _fits(cols, constraints) -> bool:
    """Whether a packing meets every forbidden pair of ``constraints``.

    ``cols[v][a]`` is the coloring that uses value a at v (the inverse of
    :attr:`Packing.assign`).  Each entry of ``constraints`` is ``((u, v),
    pairs)``: pair (a, b) means value a at u and value b at v may not share a
    coloring, as the forbidden maps of the ``listpacking.solver`` module
    docstring put it.
    """

    return all(cols[u][a] != cols[v][b] for (u, v), pairs in constraints for a, b in pairs)


def candidate_cells(g, k, constraints) -> int:
    """The candidate ``constraints`` (``((u, v), pairs)`` entries, either
    orientation) as one integer: bit e*k*k + a*k + b for edge e = (x, y),
    x < y, of ``g.sorted_edges()`` when value a at x and value b at y may
    not share a coloring."""

    index = {e: i for i, e in enumerate(g.sorted_edges())}
    out = 0
    for (u, v), pairs in constraints:
        if u > v:
            u, v, pairs = v, u, [(b, a) for a, b in pairs]
        for a, b in pairs:
            out |= 1 << (index[(u, v)] * k * k + a * k + b)
    return out


def packing_cells(g, k, cols) -> int:
    """The cells a packing uses, in the :func:`candidate_cells` layout:
    ``cols[v][a]`` is the coloring that uses value a at v, and each coloring
    uses one cell (a, b) of every edge."""

    out = 0
    for i, (u, v) in enumerate(g.sorted_edges()):
        for a in range(k):
            b = next(b for b in range(k) if cols[v][b] == cols[u][a])
            out |= 1 << (i * k * k + a * k + b)
    return out


def rebuilt_consistent(uf, k: int, chosen, upto: int) -> bool:
    """The from-scratch check the incremental classes replace: in the
    union-find ``uf`` over positions (position i at w is w*k + i), every
    vertex w <= upto has k distinct classes, and every chosen edge shares
    exactly its pairs' classes.  ``chosen`` maps each chosen edge to its
    pairs."""

    roots = [{uf.find(w * k + i) for i in range(k)} for w in range(upto + 1)]
    return all(len(rs) == k for rs in roots) and all(
        len(roots[u] & roots[v]) == len(pairs) for (u, v), pairs in chosen.items()
    )


def reference_list_search(g, k, universe):
    """The list search's enumeration of position patterns, vertex by vertex
    and edge by edge in the search's option order, with every complete,
    consistent pattern whose sharing graph (the edges with pairs) is a
    forest skipped when k >= 2, and every other one decided by a
    ``_Decider`` of its own, on the :func:`candidate_cells` of the pairs
    this enumeration records itself as it chooses them.

    Returns (decided, assignment): the first unsolvable pattern that
    realizes over ``universe`` colors and the number of patterns decided up
    to and including it, or None and the number of patterns decided.
    """

    from listpacking.graphs import UnionFind
    from listpacking.solver import _Decider, _injection_order, _padded_subset_order, _PatternClasses, _realize_lists

    n = g.n
    first_pairs = [[(src, t) for t, src in enumerate(dom)] for dom in _padded_subset_order(k)]
    later_pairs = _injection_order(k)
    classes = _PatternClasses(g, k)
    back_edges = [sorted(u for u in g.adjacency[v] if u < v) for v in range(n)]
    decide = _Decider(g, k, 1 << 62, "unbounded")
    chosen = {}  # each chosen edge (u, v) to its pairs
    decided = 0

    def test_candidate():
        nonlocal decided
        if k >= 2:
            sharing = UnionFind(n)
            if all(sharing.union(u, v) for (u, v), pairs in chosen.items() if pairs):
                return None
        decided += 1
        return None if decide(candidate_cells(g, k, chosen.items())) else _realize_lists(g, k, classes.uf, universe)

    def place(v, edge_idx):
        if v == n:
            return test_candidate()
        backs = back_edges[v]
        if edge_idx == len(backs):
            return place(v + 1, 0)
        u = backs[edge_idx]
        for pairs in first_pairs if edge_idx == 0 else later_pairs:
            mark = classes.mark()
            chosen[(u, v)] = pairs
            classes.choose(u, v, pairs)
            if rebuilt_consistent(classes.uf, k, chosen, v):
                got = place(v, edge_idx + 1)
                if got is not None:
                    return got
            classes.rollback(mark)
            del chosen[(u, v)]
        return None

    found = place(0, 0) if n else None
    return decided, found


def extension_rows(v: int, k: int, adj, maps, assign: Mapping[int, tuple[int, ...]]) -> list[int]:
    """Rows of the extension bigraph at v: bit j of row i is set when
    coloring j may still use value i at v.

    ``maps[(u, v)]`` takes the value at u to the value it forbids at v (-1
    when it forbids none), and ``assign`` holds the packed vertices, as in
    :attr:`Packing.assign`; unpacked neighbors impose nothing.
    """

    full = (1 << k) - 1
    rows = [full] * k
    for u in adj[v]:
        got = assign.get(u)
        if got is None:
            continue
        fmap = maps[(u, v)]
        for j in range(k):
            t = fmap[got[j]]
            if t >= 0:
                rows[t] &= ~(1 << j)
    return rows


def reference_extensions(k, adj, maps, assign, order):
    """The extension engine with the full-frontier lookahead: after each
    tentative assignment every later vertex of ``order`` that has a packed
    neighbor is Hall-checked.  Its helpers are read from ``solver`` at each
    call, so a test that patches them there counts this engine's calls too.
    """

    from listpacking.solver import _invert, _raw_has_one_factor, _raw_one_factors

    n = len(order)

    def rec(idx):
        if idx == n:
            yield
            return
        v = order[idx]
        rest = order[idx + 1 :]
        for cols in _raw_one_factors(k, extension_rows(v, k, adj, maps, assign)):
            assign[v] = _invert(cols)
            # only later vertices with a packed neighbor can have lost options
            for u in rest:
                if any(w in assign for w in adj[u]) and not _raw_has_one_factor(
                    k, extension_rows(u, k, adj, maps, assign)
                ):
                    break
            else:
                yield from rec(idx + 1)
        assign.pop(v, None)

    return rec(0)


def reference_core_solve(g, k, maps, order=None):
    """The exact solver without the coloring-index symmetry: the first
    packing ``solver._extensions`` finds over all of ``order`` (the
    solver's order by default) from the empty packing, or None."""

    from listpacking.solver import _extensions, _solve_order

    if order is None:
        order = _solve_order(g)
    assign: dict[int, tuple[int, ...]] = {}
    for _ in _extensions(k, g.adjacency, maps, assign, order):
        return assign
    return None


def reference_one_factors(s, rows):
    """Yield 1-factors as tuples ``cols`` with ``cols[i]`` = the B-vertex
    matched to ``a_i``, in lexicographic order of that tuple."""

    cols = [0] * s

    def rec(i, used):
        if i == s:
            yield tuple(cols)
            return
        # cheap feasibility: every later row must still have options
        avail = ~used
        for r in range(i + 1, s):
            if not rows[r] & avail:
                return
        m = rows[i] & avail
        while m:
            low = m & -m
            cols[i] = low.bit_length() - 1
            m ^= low
            yield from rec(i + 1, used | low)

    yield from rec(0, 0)


def reference_column_masks(s, rows):
    """The transpose of ``rows``, one set bit at a time."""

    cols = [0] * s
    for i, r in enumerate(rows):
        m = r
        while m:
            low = m & -m
            cols[low.bit_length() - 1] |= 1 << i
            m ^= low
    return cols


def reference_obstructions(rows, otype):
    """``_raw_obstructions`` by a scan over every subset of the obstruction
    size in ``combinations`` order, then over x1."""

    from listpacking.bigraph import bits

    s = 8
    for comb in combinations(range(s), 5 if otype == 1 else 4):
        n = 0
        for i in comb:
            n |= rows[i]
        if n.bit_count() != 3:
            continue
        if otype in (1, 4):
            yield comb, n, None, []
            continue
        want = 1 if otype == 2 else 2
        for x1 in range(s):
            if x1 in comb:
                continue
            outside = rows[x1] & ~n
            if outside.bit_count() == want:
                yield comb, n, x1, bits(outside)


def _incidence(faces):
    at = {}
    for f in faces:
        for v in f:
            at.setdefault(v, []).append(f)
    return at


def geodesic_icosahedron(nu: int):
    """Subdivide every icosahedron face into nu^2 triangles: (vertex count,
    faces in the order they are built).  Original vertices keep degree 5;
    all created vertices have degree 6."""

    from listpacking.graphs import _ICOSAHEDRON_FACES

    coords: dict[tuple, int] = {}
    counter = 12

    def vertex_id(face: tuple[int, int, int], a: int, b: int, c: int) -> int:
        nonlocal counter
        p, q, r = face
        if a == nu:
            return p
        if b == nu:
            return q
        if c == nu:
            return r
        # Edge points are keyed by the weight of the smaller endpoint, which
        # is the same from both incident faces.
        if c == 0:
            key = ("e", min(p, q), max(p, q), a if p < q else b)
        elif b == 0:
            key = ("e", min(p, r), max(p, r), a if p < r else c)
        elif a == 0:
            key = ("e", min(q, r), max(q, r), b if q < r else c)
        else:
            key = ("f", p, q, r, a, b)
        if key not in coords:
            coords[key] = counter
            counter += 1
        return coords[key]

    faces: list[frozenset[int]] = []
    for face in _ICOSAHEDRON_FACES:
        grid = {}
        for a in range(nu + 1):
            for b in range(nu + 1 - a):
                grid[(a, b)] = vertex_id(face, a, b, nu - a - b)
        for a in range(nu):
            for b in range(nu - a):
                faces.append(frozenset({grid[(a, b)], grid[(a + 1, b)], grid[(a, b + 1)]}))
                if a + b < nu - 1:
                    faces.append(frozenset({grid[(a + 1, b)], grid[(a, b + 1)], grid[(a + 1, b + 1)]}))
    return counter, tuple(faces)


def reference_triangulation_min5(seed: int):
    """``random_planar_triangulation_min5`` as it rebuilt its maps from the
    face set at every move: the edge-face map at every flip, the
    vertex-face incidence and the degree table at every split, starting
    from the general subdivision at nu = 2."""

    from listpacking.graphs import TRIANGULATION_MOVES, _faces_to_graph, _rotation

    rng = random.Random(seed)
    n, built = geodesic_icosahedron(2)
    faces: set[frozenset[int]] = set()
    for f in built:
        faces.add(f)
    degree: dict[int, int] = {}

    def recount() -> None:
        degree.clear()
        for f in faces:
            for v in f:
                degree[v] = degree.get(v, 0) + 1

    recount()

    def try_flip() -> bool:
        edge_faces: dict[tuple[int, int], list[frozenset[int]]] = {}
        for f in faces:
            a, b, c = sorted(f)
            for e in ((a, b), (a, c), (b, c)):
                edge_faces.setdefault(e, []).append(f)
        candidates = []
        for (u, v), fs in edge_faces.items():
            if len(fs) != 2 or degree[u] <= 5 or degree[v] <= 5:
                continue
            a = next(iter(fs[0] - {u, v}))
            b = next(iter(fs[1] - {u, v}))
            if a == b or tuple(sorted((a, b))) in edge_faces:
                continue
            candidates.append((u, v, a, b, fs[0], fs[1]))
        if not candidates:
            return False
        u, v, a, b, f0, f1 = candidates[rng.randrange(len(candidates))]
        faces.discard(f0)
        faces.discard(f1)
        faces.add(frozenset({a, b, u}))
        faces.add(frozenset({a, b, v}))
        degree[u] -= 1
        degree[v] -= 1
        degree[a] += 1
        degree[b] += 1
        return True

    def try_split() -> bool:
        nonlocal n
        splittable = [v for v, d in degree.items() if d >= 6]
        if not splittable:
            return False
        v = splittable[rng.randrange(len(splittable))]
        at = _incidence(faces)
        ring = _rotation(at, v)
        d = len(ring)
        # v keeps a contiguous segment of its rotation; the new vertex takes
        # the rest.  Both endpoints of the cut stay adjacent to both copies.
        seg = rng.randrange(4, d - 2 + 1)
        start = rng.randrange(d)
        keep = [ring[(start + i) % d] for i in range(seg)]
        rest = [ring[(start + seg - 1 + i) % d] for i in range(d - seg + 2)]
        new = n
        n += 1
        for f in at[v]:
            faces.discard(f)
        for i in range(len(keep) - 1):
            faces.add(frozenset({v, keep[i], keep[i + 1]}))
        for i in range(len(rest) - 1):
            faces.add(frozenset({new, rest[i], rest[i + 1]}))
        faces.add(frozenset({v, new, keep[0]}))
        faces.add(frozenset({v, new, keep[-1]}))
        recount()
        return True

    for _ in range(TRIANGULATION_MOVES):
        op = rng.random()
        if op < 0.5:
            try_flip()
        else:
            try_split()
    return _faces_to_graph(n, faces)

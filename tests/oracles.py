"""Independent brute-force oracles used to cross-check the library.

These deliberately avoid the library's algorithms: solvability is decided
by enumerating raw assignments and checking the defining constraints
directly, girth by per-root breadth-first search, densest subgraphs by
plain subset enumeration.  The two exceptions are references for an
optimized path: :func:`reference_cover_search` replays the adversarial cover
search's enumeration one whole cover at a time through the public
``solve_packing``, apart from the search's own candidate decision;
:func:`reference_list_search` is the list search's pattern enumeration with
a forest check at every complete pattern instead of pruning, each pattern
solved on its own; and :func:`reference_extensions` is the extension engine
with a full-frontier lookahead, which Hall-checks every later vertex that
has a packed neighbor.  Two bigraph kernels keep their plain form here:
:func:`reference_column_masks` transposes bit by bit, and
:func:`reference_obstructions` scans every subset of the obstruction size.
The library enumerates 1-factors but never counts them, so both counters
live here: :func:`oracle_one_factor_count` tries every column permutation,
and :func:`count_one_factors` is the permanent by dynamic programming over
subsets of B.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, permutations, product


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


def reference_list_search(g, k, universe):
    """The list search's enumeration of position patterns, vertex by vertex
    and edge by edge in the search's option order, with every complete,
    consistent pattern whose sharing graph (the edges with pairs) is a
    forest skipped when k >= 2, and every other one decided by a
    ``_Decider`` of its own.

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
    decided = 0

    def test_candidate():
        nonlocal decided
        if k >= 2:
            sharing = UnionFind(n)
            if all(sharing.union(u, v) for (u, v), pairs in classes.chosen.items() if pairs):
                return None
        decided += 1
        return None if decide(classes.chosen.items()) else _realize_lists(g, k, classes.uf, universe)

    def place(v, edge_idx):
        if v == n:
            return test_candidate()
        backs = back_edges[v]
        if edge_idx == len(backs):
            return place(v + 1, 0) if classes.closed(v, backs) else None
        u = backs[edge_idx]
        for pairs in first_pairs if edge_idx == 0 else later_pairs:
            mark = classes.mark()
            if classes.choose(u, v, pairs):
                got = place(v, edge_idx + 1)
                if got is not None:
                    return got
            classes.rollback(mark)
        return None

    found = place(0, 0) if n else None
    return decided, found


def reference_extensions(k, adj, maps, assign, order):
    """The extension engine with the full-frontier lookahead: after each
    tentative assignment every later vertex of ``order`` that has a packed
    neighbor is Hall-checked.  Its helpers are read from ``solver`` at each
    call, so a test that patches them there counts this engine's calls too.
    """

    from listpacking.solver import _invert, _raw_has_one_factor, _raw_one_factors, extension_rows

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

"""Exact packing decision and adversarial search.

The solver core works over "forbidden maps": for each ordered adjacent pair
(u, v), an array taking the value placed at u in coloring j to the value it
forbids at v in the same coloring (-1 when it forbids nothing).  Covers
induce total maps (the arc permutations); list assignments induce partial
maps (shared colors, identified by list position).  On top of one core this
gives both exact solvers.

Adversarial list search does not enumerate raw color lists.  Two
assignments whose per-edge shared-color position patterns agree are
solvable or unsolvable together, so the search enumerates those patterns
directly, one representative per per-vertex relabeling orbit, realizes each
candidate back into an honest list assignment, and solves that.  This is
the same quotient the cover search takes with a spanning forest pinned to
identity permutations, and it is what makes exhausting list size 3 on small
cycles affordable.
"""

from __future__ import annotations

from itertools import combinations, permutations
from typing import Iterator, Sequence

from listpacking.bigraph import _invert, _raw_has_one_factor, _raw_one_factors
from listpacking.covers import (
    CorrespondenceCover,
    ListAssignment,
    Packing,
    Perm,
    validate_packing,
)
from listpacking.graphs import Graph, UnionFind, degeneracy, forest_walk


class ResourceCapError(RuntimeError):
    """An adversarial enumeration exceeded its candidate cap."""


# ---------------------------------------------------------------------------
# Core backtracking engine.
# ---------------------------------------------------------------------------


def _solve_order(g: Graph) -> tuple[int, ...]:
    """Reverse degeneracy order: each vertex sees few already-assigned
    neighbors when its turn comes."""

    if g.n == 0:
        return ()
    _, order = degeneracy(g)
    return tuple(reversed(order))


def _rows_for(v: int, k: int, adj: Sequence[Sequence[int]], maps, assign) -> list[int]:
    full = (1 << k) - 1
    rows = [full] * k
    for u in adj[v]:
        got = assign[u]
        if got is None:
            continue
        fmap = maps[(u, v)]
        for j in range(k):
            t = fmap[got[j]]
            if t >= 0:
                rows[t] &= ~(1 << j)
    return rows


def _core_solve(
    g: Graph,
    k: int,
    maps,
    order: Sequence[int] | None = None,
) -> dict[int, tuple[int, ...]] | None:
    """Complete backtracking over per-vertex assignments.

    ``maps[(u, v)]`` is the forbidden map described in the module docstring.
    After each tentative assignment every unpacked vertex is Hall-checked
    (its remaining options must admit a 1-factor) and the branch is dropped
    on failure.
    """

    if order is None:
        order = _solve_order(g)
    n = g.n
    adj = g.adjacency
    assign: list[tuple[int, ...] | None] = [None] * n

    def rec(idx: int) -> bool:
        if idx == n:
            return True
        v = order[idx]
        rows = _rows_for(v, k, adj, maps, assign)
        for cols in _raw_one_factors(k, rows):
            assign[v] = _invert(cols)
            # unpacked vertices are exactly order[idx+1:]; only those with a
            # packed neighbor can have lost options
            ok = True
            for i in range(idx + 1, n):
                u = order[i]
                if any(assign[w] is not None for w in adj[u]) and not _raw_has_one_factor(
                    k, _rows_for(u, k, adj, maps, assign)
                ):
                    ok = False
                    break
            if ok and rec(idx + 1):
                return True
        assign[v] = None
        return False

    if rec(0):
        return {v: val for v, val in enumerate(assign) if val is not None}
    return None


# ---------------------------------------------------------------------------
# Cover solving.
# ---------------------------------------------------------------------------


def _cover_maps(cover: CorrespondenceCover) -> dict[tuple[int, int], tuple[int, ...]]:
    maps = {}
    for (u, v), perm in cover.arcs.items():
        maps[(u, v)] = perm.image
        maps[(v, u)] = perm.inverse().image
    return maps


def solve_packing(cover: CorrespondenceCover) -> Packing | None:
    """A valid packing of the cover, or None when none exists."""

    found = _core_solve(cover.graph, cover.k, _cover_maps(cover))
    if found is None:
        return None
    packing = Packing(cover.k, found)
    check = validate_packing(cover, packing)
    if not check.ok:
        raise AssertionError(f"solver produced an invalid packing: {check.violations}")
    return packing


# ---------------------------------------------------------------------------
# List solving via position patterns.
# ---------------------------------------------------------------------------


def _pattern_maps(k: int, pairs_by_edge) -> dict[tuple[int, int], tuple[int, ...]]:
    """Partial forbidden maps in both directions of each edge (u, v), from
    its position pairs: pair (i, j) means position i at u and position j at
    v hold the same color."""

    maps = {}
    for (u, v), pairs in pairs_by_edge:
        fwd = [-1] * k
        rev = [-1] * k
        for i, j in pairs:
            fwd[i] = j
            rev[j] = i
        maps[(u, v)] = tuple(fwd)
        maps[(v, u)] = tuple(rev)
    return maps


def _list_pattern_maps(la: ListAssignment) -> dict[tuple[int, int], tuple[int, ...]]:
    """Partial forbidden maps between list positions: position i at u forbids
    position j at v exactly when they hold the same color."""

    def shared(u: int, v: int) -> list[tuple[int, int]]:
        pos_v = {c: j for j, c in enumerate(la.lists[v])}
        return [(i, pos_v[c]) for i, c in enumerate(la.lists[u]) if c in pos_v]

    return _pattern_maps(la.k, (((u, v), shared(u, v)) for u, v in la.graph.sorted_edges()))


def solve_list_packing(la: ListAssignment) -> Packing | None:
    """A valid list packing (colors drawn from the lists), or None.

    Solves the position pattern directly rather than completing it to a
    cover: an arbitrary completion adds constraints between distinct colors
    and can report "none" on solvable assignments.
    """

    found = _core_solve(la.graph, la.k, _list_pattern_maps(la))
    if found is None:
        return None
    return Packing(
        la.k,
        {v: tuple(la.lists[v][slot] for slot in slots) for v, slots in found.items()},
    )


# ---------------------------------------------------------------------------
# Adversarial cover search (spanning forest pinned to the identity).
# ---------------------------------------------------------------------------


def _spanning_forest(g: Graph) -> set[tuple[int, int]]:
    return {(u, v) if u < v else (v, u) for u, v in forest_walk(g)}


def adversarial_cover_search(
    g: Graph, k: int, cap: int = 1_000_000
) -> CorrespondenceCover | None:
    """First unsolvable k-cover in the gauge-reduced enumeration, or None.

    A spanning forest is fixed to identity permutations (every cover is
    equivalent to one of this shape), all edges are oriented low-to-high,
    and the free edges run through all permutation tuples in lexicographic
    order.  Raises ResourceCapError after ``cap`` candidates.
    """

    tree = _spanning_forest(g)
    free = [e for e in g.sorted_edges() if e not in tree]
    ident = Perm.identity(k)
    perms = [Perm(p) for p in permutations(range(k))]
    base = {e: ident for e in tree}

    def candidates() -> Iterator[CorrespondenceCover]:
        def rec(idx: int, chosen: dict) -> Iterator[CorrespondenceCover]:
            if idx == len(free):
                arcs = dict(base)
                arcs.update(chosen)
                yield CorrespondenceCover(g, k, arcs)
                return
            for p in perms:
                chosen[free[idx]] = p
                yield from rec(idx + 1, chosen)
            del chosen[free[idx]]

        yield from rec(0, {})

    count = 0
    for cover in candidates():
        if count >= cap:
            raise ResourceCapError(f"cover enumeration exceeded cap={cap}")
        count += 1
        if solve_packing(cover) is None:
            return cover
    return None


# ---------------------------------------------------------------------------
# Adversarial list search over shared-color position patterns.
# ---------------------------------------------------------------------------


def _padded_subset_order(k: int) -> list[tuple[int, ...]]:
    """All subsets of range(k), ordered so their realizations (shared
    positions first, fresh colors after) come out in list-lex order."""

    subs = []
    for size in range(k + 1):
        for comb in combinations(range(k), size):
            subs.append(comb)
    return sorted(subs, key=lambda c: tuple(list(c) + [k] * (k - len(c))))


def _injection_order(k: int) -> list[list[tuple[int, int]]]:
    """All partial injections of range(k), as (source, target) pair lists
    by sorted domain, then images."""

    out = []
    for dom in _padded_subset_order(k):
        for img in permutations(range(k), len(dom)):
            out.append(list(zip(dom, img)))
    return out


def _realize_lists(
    g: Graph, k: int, uf: UnionFind, universe: int
) -> ListAssignment | None:
    """Color the pattern's classes and produce an actual assignment.

    Classes sharing a vertex or facing each other across an edge must get
    distinct colors; a greedy pass in first-appearance order does it.  None
    when more than ``universe`` colors would be needed.
    """

    roots_by_vertex = [[uf.find(v * k + i) for i in range(k)] for v in range(g.n)]
    conflicts: dict[int, set[int]] = {}
    order: list[int] = []
    seen: set[int] = set()
    for v in range(g.n):
        for r in roots_by_vertex[v]:
            if r not in seen:
                seen.add(r)
                order.append(r)
                conflicts[r] = set()
    for v in range(g.n):
        rs = roots_by_vertex[v]
        for a, b in combinations(rs, 2):
            conflicts[a].add(b)
            conflicts[b].add(a)
    for u, v in g.edges:
        for a in roots_by_vertex[u]:
            for b in roots_by_vertex[v]:
                if a != b:
                    conflicts[a].add(b)
                    conflicts[b].add(a)
    color: dict[int, int] = {}
    for r in order:
        used = {color[o] for o in conflicts[r] if o in color}
        c = 0
        while c in used:
            c += 1
        if c >= universe:
            return None
        color[r] = c
    lists = tuple(tuple(sorted(color[r] for r in roots_by_vertex[v])) for v in range(g.n))
    return ListAssignment(g, k, lists)


def adversarial_list_search(
    g: Graph, k: int, universe: int, cap: int = 4_000_000
) -> ListAssignment | None:
    """First unsolvable k-assignment (canonical representative), or None.

    Enumerates shared-color position patterns, one per relabeling orbit:
    vertex by vertex, the edges back to earlier vertices choose which list
    positions coincide.  Each complete, self-consistent pattern is realized
    into an assignment over at most ``universe`` colors and solved exactly.
    Candidates whose sharing graph is a forest are skipped when k >= 2
    (forests always pack).  Raises ResourceCapError after ``cap`` solved
    candidates.
    """

    n = g.n
    if n == 0:
        return None
    order = _solve_order(g)
    # a vertex's labels are still free at its first back edge, so that edge
    # pins its targets to a prefix; later back edges take any injection
    first_pairs = [[(src, t) for t, src in enumerate(dom)] for dom in _padded_subset_order(k)]
    later_pairs = _injection_order(k)
    uf = UnionFind(n * k)
    back_edges: list[list[int]] = [sorted(u for u in g.adjacency[v] if u < v) for v in range(n)]
    chosen: dict[tuple[int, int], list[tuple[int, int]]] = {}
    budget = [cap]

    def vertex_ok(v: int) -> bool:
        roots = [uf.find(v * k + i) for i in range(k)]
        return len(set(roots)) == k

    def closure_ok() -> bool:
        # every same-class position pair across an edge must be a chosen pair
        for (u, v), pairs in chosen.items():
            pair_set = set(pairs)
            for i in range(k):
                ru = uf.find(u * k + i)
                for j in range(k):
                    if ru == uf.find(v * k + j) and (i, j) not in pair_set:
                        return False
        return True

    def test_candidate() -> ListAssignment | None:
        if k >= 2:
            # the sharing graph (edges with a shared position) is a forest
            sharing = UnionFind(n)
            if all(sharing.union(u, v) for (u, v), pairs in chosen.items() if pairs):
                return None
        if not closure_ok():
            return None
        real = _realize_lists(g, k, uf, universe)
        if real is None:
            return None
        if budget[0] <= 0:
            raise ResourceCapError("list-pattern enumeration exceeded its cap")
        budget[0] -= 1
        if _core_solve(g, k, _pattern_maps(k, chosen.items()), order) is None:
            return real
        return None

    def place(v: int, edge_idx: int) -> ListAssignment | None:
        if v == n:
            return test_candidate()
        backs = back_edges[v]
        if edge_idx == len(backs):
            if not all(vertex_ok(w) for w in range(v + 1)):
                return None
            return place(v + 1, 0)
        u = backs[edge_idx]
        for pairs in first_pairs if edge_idx == 0 else later_pairs:
            mark = uf.mark()
            for src, t in pairs:
                uf.union(u * k + src, v * k + t)
            chosen[(u, v)] = pairs
            got = place(v, edge_idx + 1)
            if got is not None:
                return got
            del chosen[(u, v)]
            uf.rollback(mark)
        return None

    return place(0, 0)


def packing_number(
    g: Graph, mode: str, upper: int, cap: int = 4_000_000
) -> int:
    """Least k <= upper with no adversarial witness.

    ``mode`` is "list" or "correspondence".  List search uses the fully
    general universe k * n.  Raises ResourceCapError when every k up to
    ``upper`` still has a witness.
    """

    if mode not in ("list", "correspondence"):
        raise ValueError("mode must be 'list' or 'correspondence'")
    if upper < 1:
        raise ValueError(f"upper must be positive, got {upper}")
    for k in range(1, upper + 1):
        if mode == "correspondence":
            witness = adversarial_cover_search(g, k, cap=cap)
        else:
            witness = adversarial_list_search(g, k, universe=max(1, k * g.n), cap=cap)
        if witness is None:
            return k
    raise ResourceCapError(f"no packing below the bound: witnesses exist up to k={upper}")

"""Exact packing decision and adversarial search.

The solver core works over "forbidden maps": for each ordered adjacent pair
(u, v), an array taking the value placed at u in coloring j to the value it
forbids at v in the same coloring (-1 when it forbids nothing).  Covers
induce total maps (the arc permutations); list assignments induce partial
maps (shared colors, identified by list position).  One backtracking
generator over these maps, :func:`_extensions`, extends a partial packing
through the 1-factors of the extension bigraphs; it gives both exact solvers
and the constructive packer's extension and repair.

Adversarial list search does not enumerate raw color lists.  Two
assignments whose per-edge shared-color position patterns agree are
solvable or unsolvable together, so the search enumerates those patterns
directly, one representative per per-vertex relabeling orbit, and solves
each pattern's forbidden maps; only a pattern the solver rejects is realized
back into an honest list assignment.  This is the same quotient the cover
search takes with a spanning forest pinned to identity permutations, and it
is what makes exhausting list size 3 on small cycles affordable.
"""

from __future__ import annotations

from itertools import combinations, permutations, product
from typing import Iterator, Sequence

from listpacking.bigraph import _invert, _raw_has_one_factor, _raw_one_factors
from listpacking.covers import (
    CorrespondenceCover,
    ListAssignment,
    Packing,
    Perm,
    extension_rows,
    forbidden_maps,
    validate_list_packing,
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


def _extensions(
    k: int, adj: Sequence[Sequence[int]], maps, assign: dict, order: Sequence[int]
) -> Iterator[None]:
    """Yield once per extension of the partial packing ``assign`` over the
    unpacked vertices ``order``, with all of them assigned in ``assign``.

    ``maps[(u, v)]`` is the forbidden map described in the module docstring,
    needed for each v in ``order`` and each neighbor u.  Vertices are packed
    in ``order``, each through the 1-factors of its extension bigraph in
    :func:`_raw_one_factors` order.  After each tentative assignment every
    later vertex of ``order`` is Hall-checked (its remaining options must
    admit a 1-factor) and the branch is dropped on failure; packing more
    vertices only removes options, so only dead branches are dropped.
    Exhausting the generator restores ``assign``.
    """

    n = len(order)

    def rec(idx: int) -> Iterator[None]:
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


def _core_solve(
    g: Graph,
    k: int,
    maps,
    order: Sequence[int] | None = None,
) -> dict[int, tuple[int, ...]] | None:
    """The first packing :func:`_extensions` finds over all of g, or None."""

    if order is None:
        order = _solve_order(g)
    assign: dict[int, tuple[int, ...]] = {}
    for _ in _extensions(k, g.adjacency, maps, assign, order):
        return assign
    return None


# ---------------------------------------------------------------------------
# Cover solving.
# ---------------------------------------------------------------------------


def solve_packing(cover: CorrespondenceCover) -> Packing | None:
    """A valid packing of the cover, or None when none exists."""

    g = cover.graph
    found = _core_solve(g, cover.k, forbidden_maps(cover, range(g.n)))
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
    packing = Packing(
        la.k,
        {v: tuple(la.lists[v][slot] for slot in slots) for v, slots in found.items()},
    )
    check = validate_list_packing(la, packing)
    if not check.ok:
        raise AssertionError(f"solver produced an invalid list packing: {check.violations}")
    return packing


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
    perms = [Perm(p) for p in permutations(range(k))]
    base = {e: Perm.identity(k) for e in tree}
    for count, choice in enumerate(product(perms, repeat=len(free))):
        if count >= cap:
            raise ResourceCapError(f"cover enumeration exceeded cap={cap}")
        cover = CorrespondenceCover(g, k, {**base, **dict(zip(free, choice))})
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

    roots = [[uf.find(v * k + i) for i in range(k)] for v in range(g.n)]
    # near[r]: r and every class it shares a vertex or faces an edge with,
    # keyed in first-appearance order
    near: dict[int, set[int]] = {}
    for v, rs in enumerate(roots):
        seen = set(rs).union(*(roots[u] for u in g.adjacency[v]))
        for r in rs:
            near.setdefault(r, set()).update(seen)
    color: dict[int, int] = {}
    for r, others in near.items():
        used = {color[o] for o in others if o in color}
        color[r] = min(set(range(len(used) + 1)) - used)
        if color[r] >= universe:
            return None
    return ListAssignment(g, k, tuple(tuple(sorted(color[r] for r in rs)) for rs in roots))


def adversarial_list_search(
    g: Graph, k: int, universe: int, cap: int = 4_000_000
) -> ListAssignment | None:
    """First unsolvable k-assignment (canonical representative), or None.

    Enumerates shared-color position patterns, one per relabeling orbit:
    vertex by vertex, the edges back to earlier vertices choose which list
    positions coincide.  Each complete, self-consistent pattern is solved
    exactly; one the solver rejects is realized into an assignment over at
    most ``universe`` colors and returned, and the search goes on when that
    needs more colors.  Candidates whose sharing graph is a forest are
    skipped when k >= 2 (forests always pack).  Raises ResourceCapError
    after ``cap`` solved candidates, realizable or not, and ValueError when
    ``universe < k``.
    """

    if universe < k:
        raise ValueError(f"universe must be at least k={k}, got {universe}")
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

    def consistent(upto: int) -> bool:
        # injective: each vertex w <= upto has k distinct classes; then each
        # chosen pair of an edge is one shared class, and the edge is closed
        # when it shares no other
        roots = [{uf.find(w * k + i) for i in range(k)} for w in range(upto + 1)]
        return all(len(rs) == k for rs in roots) and all(
            len(roots[u] & roots[v]) == len(pairs) for (u, v), pairs in chosen.items()
        )

    def test_candidate() -> ListAssignment | None:
        if k >= 2:
            # the sharing graph (edges with a shared position) is a forest
            sharing = UnionFind(n)
            if all(sharing.union(u, v) for (u, v), pairs in chosen.items() if pairs):
                return None
        if budget[0] <= 0:
            raise ResourceCapError("list-pattern enumeration exceeded its cap")
        budget[0] -= 1
        if _core_solve(g, k, _pattern_maps(k, chosen.items()), order) is None:
            return _realize_lists(g, k, uf, universe)
        return None

    def place(v: int, edge_idx: int) -> ListAssignment | None:
        if v == n:
            return test_candidate()
        backs = back_edges[v]
        if edge_idx == len(backs):
            return place(v + 1, 0) if consistent(v) else None
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

"""Exact packing decision and adversarial search.

The solver core works over "forbidden maps": for each ordered adjacent pair
(u, v), an array taking the value placed at u in coloring j to the value it
forbids at v in the same coloring (-1 when it forbids nothing).  Covers
induce total maps (the arc permutations); list assignments induce partial
maps (shared colors, identified by list position).  One backtracking
engine over these maps, :func:`_extensions`, extends a partial packing
through the 1-factors of the extension bigraphs; it gives both exact solvers
and the constructive packer's extension and repair, which extends the
caller's packing in place.  It is one generator that searches in its own
frame, keeping each level's 1-factor iterator and saved keys in lists, so
taking a 1-factor resumes one frame, not a chain of nested generators as
deep as the order.  It builds each unpacked vertex's rows as one integer,
k*k bits under a sentinel bit, and clears bits in it as neighbors are
packed with one AND, by a mask it caches in the module-level table
``_clear``.  It sends every Hall check and 1-factor enumeration through two
more tables keyed by that integer, ``_hall`` and ``_factors``, and unpacks
the rows only on a miss.  A row set recurs far more often than it is new:
one pass over the benchmark's cover panel makes 72,905 Hall checks on 636
distinct row sets.  ``_factors`` keeps a prefix: the 1-factors yielded so
far and whether the enumeration reached its end.  A caller that stops at the
first 1-factor, as the packer nearly always does, leaves that prefix behind,
and the next enumeration of the row set replays it and runs the kernel again
only when it wants more: one pass over the benchmark's 2,200 packer inputs
makes 52,819 enumerations of 16,811 row sets, and 16,926 reach the kernel.
All three tables are pure functions of their keys, so what the engine
yields, and in what order, does not depend on what they hold.

The exact solvers (:func:`_core_solve`) break the symmetry of the coloring
indices.  The k colorings of a packing are unordered and a forbidden map
acts alike in each, so permuting the indices on one connected component
maps packings to packings, and the first vertex of each component may take
the identity.  By the lex-leader argument (Crawford, Ginsberg, Luks and
Roy, KR 1996) the first packing found stays the same, and a refutation
searches one of the k! root subtrees per component.  The packer runs the
engine from a partial packing, which breaks the symmetry, so it pins
nothing.

Adversarial list search does not enumerate raw color lists.  Two
assignments whose per-edge shared-color position patterns agree are
solvable or unsolvable together, so the search enumerates those patterns
directly, one representative per per-vertex relabeling orbit, and solves
each pattern's forbidden maps; only a pattern the solver rejects is realized
back into an honest list assignment.  This is the same quotient the cover
search takes with a spanning forest pinned to identity permutations, and it
is what makes exhausting list size 3 on small cycles affordable.  The
pattern's classes are tracked through union and rollback
(:class:`_PatternClasses`) in flat lists: parent links, per-class vertex
masks and per-vertex masks of the neighbours across chosen edges, with one
trail entry per union.  A union breaks the pattern when its two classes
touch one vertex or the two ends of a chosen edge.  A vertex's later back
edges try only the options whose pairs each break nothing alone and that
keep every pair already one class (:meth:`_PatternClasses.pair_masks`):
the others break the pattern or leave an edge sharing a class without a
pair, and every option kept leaves the pattern consistent, so
:meth:`_PatternClasses.choose` applies it unchecked and a complete pattern
needs no closing check.  The search runs in one frame over a stack of one
generator per back edge on the current path; each chooses its edge's
options in turn and rolls back when resumed, so the depth is m without
any Python recursion.  Forests pack for k >= 2, so a subtree whose
patterns can share only along a forest is cut at the empty choice that
makes it one, and a forest graph has no witness to enumerate.  Both
searches build their option tables before the first candidate, so each
stops with ResourceCapError when its table would hold more than
``OPTION_CAP`` entries.

Both searches decide a candidate, a set of forbidden pairs per edge, in one
place (:class:`_Decider`), in one form: one integer with k*k cells per
edge, one per value pair, which the searches build by OR-ing precomputed
per-option masks.  Nearly every candidate is solvable, and one packing
often packs many neighbouring candidates, so the decider keeps a pool of
the ``POOL_CAP`` most recently useful packings of the same search, each as
the mask of the cells its colorings use, and tries them before solving: a
pooled packing fits exactly when the two masks share no bit, and is then
the candidate's certificate.  Only a miss reads the forbidden pairs back
from the cells, and every packing the solver returns passes the same AND
before it enters the pool.

The cover search goes further, because its candidates differ only in the
free edges' permutations: it walks the free edges as a stack, keeps at
each level the known packings that fit the arcs chosen so far, and at the
last free edge ORs together the options each surviving packing fits.  One
pass over those covers k! candidates, and only the candidates no known
packing fits reach the decider: K4 at k = 4 decides 72 of its 13,824
candidates, each by a solve.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations, islice, permutations
from math import comb, factorial, perm
from typing import Iterator, Sequence

from listpacking.bigraph import _invert, _raw_has_one_factor, _raw_one_factors, bits
from listpacking.covers import (
    CorrespondenceCover,
    ListAssignment,
    Packing,
    Perm,
    forbidden_maps,
    validate_list_packing,
    validate_packing,
)
from listpacking.graphs import Graph, UnionFind, components, degeneracy, forest_walk


class ResourceCapError(RuntimeError):
    """An adversarial enumeration exceeded its candidate cap, or its option
    table would exceed ``OPTION_CAP`` entries."""


# packings an adversarial search keeps to try on each candidate before
# solving it.  On the C3-C5, banner and K4 packing numbers, 8 ran about 10%
# slower than 16, and 16 to 64 ran alike: past 16 the hits a larger pool
# adds cost as much as the longer scan of every miss.
POOL_CAP = 16

# entries an adversarial search's option table may hold: the list search's
# later-option table (sum over j of C(k, j)**2 * j! partial injections,
# 130,922 at k = 7 and 1,441,729 at k = 8) or the cover search's k!
# permutations per free edge (3 * 8! on K4).  A search whose table would be
# larger stops with ResourceCapError before building it.
OPTION_CAP = 1 << 20

# candidates an adversarial search decides, by default, before it stops with
# ResourceCapError: the library searches, packing_number and the CLI's --cap
CANDIDATE_CAP = 4_000_000


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


# Each table is keyed by the rows of an extension bigraph as one integer
# (:func:`_extension_key`).  _hall holds a row set's Hall verdict; _factors
# holds a pair: a prefix of its inverted 1-factors in _raw_one_factors order,
# and whether that prefix is the complete list (see :func:`_fresh_factors`).
# It keeps no live generators, whose frames would cost more than the tuples.
# _clear caches, for the search in :func:`_extensions`, the :func:`_cleared`
# mask of each coloring per forbidden map (at most k! entries per map).
# :func:`_extension_key` computes its masks directly: the packer builds
# nearly all its keys there, and its k = 8 maps seldom recur (a class_pack
# pass at seed 1 would store 23,839 of them for 12,077 hits), so caching them
# there read class_pack peak_rss_mb +15% and op_p99_ms +9% (3 pairs, 2 CPUs,
# CPython 3.11).  Each entry is a pure function of its keys.  All three are
# cleared together when one holds TABLE_CAP entries, so every row set at
# k <= 4 fits.
TABLE_CAP = 1 << 16
_hall: dict[int, bool] = {}
_FactorEntry = tuple[tuple[tuple[int, ...], ...], bool]
_factors: dict[int, _FactorEntry] = {}
_clear: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}


def _remember(table: dict, key, value) -> None:
    if len(table) >= TABLE_CAP:
        _hall.clear()
        _factors.clear()
        _clear.clear()
    table[key] = value


def _cleared(k: int, fmap: Sequence[int], packed: tuple[int, ...]) -> int:
    """What packing a neighbor with ``packed`` leaves of a key: coloring c
    puts value packed[c] at the neighbor, which forbids value
    fmap[packed[c]] at the vertex, so bit c of that row is cleared."""

    gone = 0
    for c, x in enumerate(packed):
        t = fmap[x]
        if t >= 0:
            gone |= 1 << t * k + c
    return ((2 << k * k) - 1) ^ gone


def _extension_key(v: int, k: int, adj, maps, assign) -> int:
    """v's extension rows as one integer, ``maps`` and ``assign`` as in
    :func:`_extensions`: bit t*k + c is set when coloring c may still use
    value t at v, and bit k*k is a sentinel, so keys never collide across k."""

    key = (2 << k * k) - 1
    for u in adj[v]:
        packed = assign.get(u)
        if packed is not None:
            key &= _cleared(k, maps[(u, v)], packed)
    return key


def _rows(k: int, key: int) -> tuple[int, ...]:
    """The rows in ``key``, row t from bits t*k .. t*k + k - 1."""

    full = (1 << k) - 1
    return tuple([key >> t * k & full for t in range(k)])


def _hall_miss(k: int, key: int) -> bool:
    ok = _raw_has_one_factor(k, _rows(k, key))
    _remember(_hall, key, ok)
    return ok


def _fresh_factors(k: int, key: int, entry: _FactorEntry | None) -> Iterator[tuple[int, ...]]:
    """The inverted 1-factors of ``key``'s rows in :func:`_raw_one_factors`
    order, given ``key``'s ``_factors`` entry: None, or a prefix that did not
    reach the end.  The prefix is replayed first; only a caller that wants
    more runs the kernel again, which skips the factors the prefix holds.
    Closed past the prefix (GeneratorExit, which CPython raises as soon as
    the engine drops the generator), it stores the longer prefix it yielded;
    run to the end, it stores the complete tuple."""

    prefix = entry[0] if entry else ()
    yield from prefix
    got = list(prefix)
    try:
        for cols in islice(_raw_one_factors(k, _rows(k, key)), len(prefix), None):
            packed = _invert(cols)
            got.append(packed)
            yield packed
    except GeneratorExit:
        if len(got) > len(prefix):
            _remember(_factors, key, (tuple(got), False))
        raise
    _remember(_factors, key, (tuple(got), True))


def _extensions(
    k: int, adj: Sequence[Sequence[int]], maps, assign: dict, order: Sequence[int]
) -> Iterator[None]:
    """Yield once per extension of the partial packing ``assign`` over the
    unpacked vertices ``order``, with all of them assigned in ``assign``.

    ``maps[(u, v)]`` is the forbidden map described in the module docstring,
    as a tuple, needed for each v in ``order`` and each neighbor u.
    Vertices are packed in ``order``, each through the 1-factors of its
    extension bigraph in :func:`_raw_one_factors` order.  The rows of every
    unpacked vertex of ``order`` are built once, as one integer
    (:func:`_extension_key`): packing a vertex ANDs each later neighbor's
    key with its :func:`_cleared` mask, kept in the ``_clear`` table, which
    clears at most k bits, and trying the next 1-factor or backtracking
    restores the key.

    A Hall check asks that a vertex's remaining options admit a 1-factor.
    Before the first vertex, every later vertex with a packed neighbor is
    checked, and nothing is yielded on failure.  ``order[0]`` is not
    checked, even when it has packed neighbors (a pinned component root
    from :func:`_core_solve`, or the packer's packed vertices): its key is
    enumerated directly, which yields nothing when it has no 1-factor.
    After each tentative assignment only the later neighbors of the vertex
    just packed are checked, and the branch is dropped on failure: every
    other later vertex kept the options it had when it last passed.
    Packing more vertices only removes options, so only dead branches are
    dropped.  Every Hall check
    and 1-factor enumeration goes through the ``_hall`` and ``_factors``
    tables, keyed by the integer; a miss unpacks the rows with
    :func:`_rows`.

    The search runs in this one frame: level idx packs ``order[idx]``
    through ``options[idx]``, its 1-factors (a complete ``_factors`` tuple,
    or :func:`_fresh_factors` on a miss or a prefix), and ``saved[idx]``
    holds the keys of ``later[idx]`` from before it was packed; an exhausted
    level restores them, unpacks its vertex and resumes the level above.
    Exhausting the generator restores ``assign``; closing it early restores
    nothing, and closes each level's :func:`_fresh_factors`, which stores
    the prefix it yielded.
    """

    n = len(order)
    keys = [_extension_key(v, k, adj, maps, assign) for v in order]
    # later[i]: (position, forbidden map, its _clear masks) of each neighbor
    # of order[i] packed after it, in order.  The packer's orders are nearly
    # all one vertex, which has none, so they skip the position table.
    later: list[list[tuple[int, Sequence[int], dict]]] = [[] for _ in order]
    if n > 1:
        pos = dict(zip(order, range(n)))
        for j in range(1, n):
            u = order[j]
            for w in adj[u]:
                i = pos.get(w, n)
                if i < j:
                    fmap = maps[(w, u)]
                    masks = _clear.get(fmap)
                    if masks is None:
                        masks = {}
                        _remember(_clear, fmap, masks)
                    later[i].append((j, fmap, masks))

    for j in range(1, n):
        if any(w in assign for w in adj[order[j]]):
            ok = _hall.get(keys[j])
            if ok is None:
                ok = _hall_miss(k, keys[j])
            if not ok:
                return
    if n == 0:
        yield
        return
    hall, factors = _hall.get, _factors.get
    options: list = [None] * n
    saved: list = [None] * n
    last = n - 1
    key = keys[0]
    got = factors(key)
    options[0] = iter(got[0]) if got and got[1] else _fresh_factors(k, key, got)
    saved[0] = [keys[j] for j, _, _ in later[0]]
    idx = 0
    while idx >= 0:
        v = order[idx]
        check = later[idx]
        before = saved[idx]
        for packed in options[idx]:
            assign[v] = packed
            for (j, fmap, masks), old in zip(check, before):
                mask = masks.get(packed)
                if mask is None:
                    mask = masks[packed] = _cleared(k, fmap, packed)
                new = keys[j] = old & mask
                ok = hall(new)
                if ok is None:
                    ok = _hall_miss(k, new)
                if not ok:
                    break
            else:
                if idx == last:
                    yield
                    continue
                idx += 1
                key = keys[idx]
                got = factors(key)
                options[idx] = iter(got[0]) if got and got[1] else _fresh_factors(k, key, got)
                saved[idx] = [keys[j] for j, _, _ in later[idx]]
                break
        else:
            for (j, _, _), old in zip(check, before):
                keys[j] = old
            assign.pop(v, None)
            idx -= 1


def _core_solve(
    g: Graph,
    k: int,
    maps,
    order: Sequence[int] | None = None,
) -> dict[int, tuple[int, ...]] | None:
    """The first packing :func:`_extensions` finds over all of g, or None.

    The k colorings of a packing are unordered, and a forbidden map acts
    alike in every coloring, so permuting the coloring indices on one
    connected component maps packings to packings.  The first vertex of
    each component in ``order`` therefore takes the identity (0, ..., k-1),
    and the engine runs over the rest of ``order`` in its relative order.
    This is a lex-leader argument: that vertex has no earlier neighbor, so
    its rows are full and the identity is its first 1-factor; any packing
    permuted on its component to put the identity there is one the full
    search reaches no later.  So the first packing found is unchanged, and
    a refutation searches one of the k! root subtrees of each component.
    """

    if order is None:
        order = _solve_order(g)
    component = components(g)
    identity = tuple(range(k))
    assign: dict[int, tuple[int, ...]] = {}
    roots: set[int] = set()
    rest = []
    for v in order:
        r = component[v]
        if r in roots:
            rest.append(v)
        else:
            roots.add(r)
            assign[v] = identity
    for _ in _extensions(k, g.adjacency, maps, assign, rest):
        return assign
    return None


# ---------------------------------------------------------------------------
# Cover solving.
# ---------------------------------------------------------------------------


def solve_packing(cover: CorrespondenceCover) -> Packing | None:
    """A valid packing of the cover, or None when none exists."""

    g = cover.graph
    found = _core_solve(g, cover.k, forbidden_maps(cover, range(g.n), ()))
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
# Candidate decision; adversarial cover search (forest pinned to identity).
# ---------------------------------------------------------------------------


def _spanning_forest(g: Graph) -> set[tuple[int, int]]:
    return {(u, v) if u < v else (v, u) for u, v in forest_walk(g)}


def _cells(k: int, pairs) -> int:
    """Pairs (a, b) of one edge as cells of its k*k-bit slot: bit a*k + b."""

    return sum(1 << (a * k + b) for a, b in pairs)


class _Decider:
    """Decides a search's candidates.  A call takes a candidate as one
    integer ``cand``, whose cell ``slot[(u, v)] + a*k + b`` is set when it
    forbids value a at u together with value b at v (``slot[(u, v)]`` is
    e*k*k for the index e of (u, v), u < v, in ``g.sorted_edges()``).

    A call counts against ``cap`` (past it, ResourceCapError with
    ``message``) and tries the pool.  The pool keeps each packing as the
    mask of the cells its colorings use (:meth:`used`), so a pooled packing
    fits exactly when ``cand & used == 0``.  Only a miss is solved, on the
    forbidden maps read back from the cells: cell t of an edge's slot is
    the pair divmod(t, k).  A solved packing must be a permutation of
    range(k) at every vertex and fit by the same AND (else AssertionError)
    before it enters the pool; ``solved`` holds the last one, for the cover
    search, which keeps every packing found.  :meth:`_charge` counts the
    candidates a search settles without a call, by a packing it knows.
    """

    def __init__(self, g: Graph, k: int, cap: int, message: str) -> None:
        if k < 1:
            raise ValueError(f"k must be at least 1, got {k}")
        if cap < 1:
            raise ValueError(f"cap must be at least 1, got {cap}")
        self.g, self.k, self.left, self.message = g, k, cap, message
        self.order = _solve_order(g)
        self.slot = {e: i * k * k for i, e in enumerate(g.sorted_edges())}
        self.pool: list[int] = []
        self.solved = 0

    def _charge(self, n: int) -> None:
        """Count n candidates against the cap: ResourceCapError when fewer
        than n are left."""

        if n > self.left:
            raise ResourceCapError(self.message)
        self.left -= n

    def used(self, found: dict[int, tuple[int, ...]]) -> int:
        """The cells a packing uses: coloring j puts value found[u][j] at u
        and found[v][j] at v, which is cell (found[u][j], found[v][j]) of
        edge (u, v)."""

        k = self.k
        return sum(_cells(k, zip(found[u], found[v])) << s for (u, v), s in self.slot.items())

    def __call__(self, cand: int) -> bool:
        """Whether the candidate packs; a pooled packing that fits moves up."""

        if self.left <= 0:  # _charge(1) inline: the list search calls this per candidate
            raise ResourceCapError(self.message)
        self.left -= 1
        pool = self.pool
        for idx, used in enumerate(pool):
            if not cand & used:
                if idx:
                    pool.insert(0, pool.pop(idx))
                return True
        g, k = self.g, self.k
        full = (1 << k * k) - 1
        pairs = ((e, [divmod(t, k) for t in bits(cand >> s & full)]) for e, s in self.slot.items())
        found = _core_solve(g, k, _pattern_maps(k, pairs), self.order)
        if found is None:
            return False
        if any(sorted(found.get(v, ())) != list(range(k)) for v in range(g.n)):
            raise AssertionError(f"solver produced a packing that is not a permutation per vertex: {found}")
        used = self.used(found)
        if cand & used:
            raise AssertionError(f"solver produced a packing that breaks its candidate: {found}")
        pool.insert(0, used)
        del pool[POOL_CAP:]
        self.solved = used
        return True


def adversarial_cover_search(
    g: Graph, k: int, cap: int = CANDIDATE_CAP
) -> CorrespondenceCover | None:
    """First unsolvable k-cover in the gauge-reduced enumeration, or None.

    A spanning forest is fixed to identity permutations (every cover is
    equivalent to one of this shape), all edges are oriented low-to-high,
    and the free edges run through all permutation tuples in lexicographic
    order.  A candidate is the OR of its arcs' precomputed cell masks, and
    only the witness is built as a cover.

    The search is a stack over the free edges, in the spirit of
    counterexample-guided refinement for 2QBF (Janota, Klieber,
    Marques-Silva and Clarke, SAT 2012).  Level i holds the choice of the
    i-th free edge and the known packings, each as the cells it uses
    (:meth:`_Decider.used`), that fit the tree and the arcs chosen above
    it: one AND per packing filters level i-1's list.  At the last free
    edge a packing's k cells there pick out the options it fits, a bitmask
    over the k! options computed once per packing, and the OR over the
    packings left is the set of options known to pack.  Only the other
    options go to the search's :class:`_Decider`, in lexicographic order;
    none fits a known packing, so the decider solves each, and the packing
    it finds is added to every level and covers the options it fits.  A
    covered option packs through a validated packing, so the first witness
    is the one a decider would find on every candidate in turn.

    Raises ResourceCapError when the enumeration reaches candidate
    ``cap`` + 1, counting every candidate in order whether it is covered or
    decided, or at once when the free edges' arc options, k! each, would
    number more than ``OPTION_CAP``, and ValueError when ``k < 1`` or
    ``cap < 1``.
    """

    decide = _Decider(g, k, cap, f"cover enumeration exceeded cap={cap}")
    slot = decide.slot
    tree = _spanning_forest(g)
    free = [e for e in g.sorted_edges() if e not in tree]
    size = len(free) * factorial(k)
    if size > OPTION_CAP:
        raise ResourceCapError(f"cover enumeration needs {size:,} arc options, over {OPTION_CAP:,}")
    identity = tuple(range(k))
    tree_cells = sum(_cells(k, enumerate(identity)) << slot[e] for e in tree)

    def witness(images) -> CorrespondenceCover:
        arcs = {e: Perm(identity) for e in tree}
        arcs.update((e, Perm(p)) for e, p in zip(free, images))
        return CorrespondenceCover(g, k, arcs)

    if not free:
        return None if decide(tree_cells) else witness(())
    perms = list(permutations(identity))
    # each option's cells (a, p(a)) in an edge's slot, and shifted to each
    # free edge's slot
    options = [_cells(k, enumerate(p)) for p in perms]
    arc_cells = [[cells << slot[e] for cells in options] for e in free]
    last = len(free) - 1
    shift, full, everything = slot[free[last]], (1 << k * k) - 1, (1 << len(perms)) - 1
    # fit[used]: the last edge's options that the known packing ``used``
    # fits, bit t per option t
    fit: dict[int, int] = {}
    choice = [0] * last
    prefix = [tree_cells] * (last + 1)
    known: list[list[int]] = [[] for _ in free]
    level = 0
    while level >= 0:
        for i in range(level, last):
            arc = arc_cells[i][choice[i]]
            prefix[i + 1] = prefix[i] | arc
            known[i + 1] = [used for used in known[i] if not used & arc]
        covered = 0
        for used in known[last]:
            covered |= fit[used]
        base, arcs = prefix[last], arc_cells[last]
        todo = everything & ~covered
        done = 0
        while todo:
            low = todo & -todo
            t = low.bit_length() - 1
            decide._charge(t - done)
            done = t + 1
            if not decide(base | arcs[t]):
                return witness([perms[c] for c in choice] + [perms[t]])
            # no known packing fits the candidate, so the decider solved it
            new = decide.solved
            mine = new >> shift & full
            fit[new] = sum(1 << c for c, cells in enumerate(options) if not cells & mine)
            for survivors in known:
                survivors.append(new)
            todo &= ~(low | fit[new])
        decide._charge(len(perms) - done)
        level = last - 1
        while level >= 0 and choice[level] == len(perms) - 1:
            choice[level] = 0
            level -= 1
        if level >= 0:
            choice[level] += 1
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


class _PatternClasses:
    """The color classes of a partial position pattern, kept consistent.

    Position i at vertex v is element ``v * k + i`` of ``uf``, a
    :class:`graphs.UnionFind` whose parent links this class follows and
    sets inline (the smaller root stays the root, as in
    :meth:`graphs.UnionFind.union`).  Alongside, in flat lists: each class
    root keeps the bitmask of the vertices the class touches, and each
    vertex, in ``tied``, the bitmask of its neighbours across chosen edges.
    A pattern is consistent when every vertex has k distinct classes and
    every chosen edge shares exactly its pairs' classes.  A union breaks it
    exactly when its two classes touch one vertex or the two ends of a
    chosen edge: the merged class would hold two positions of one vertex,
    or be shared by a chosen edge without a pair for it.  Classes only
    merge, so a broken pattern never heals.  :meth:`pair_masks` tells which
    options of an edge keep the pattern consistent, and :meth:`choose`
    applies one without checking it.  An edge is tied after its own
    unions; when its pairs hold every pair already one class (the
    ``fixed`` of :meth:`pair_masks`), it then shares exactly its pairs'
    classes.  One trail entry per union (the absorbed root and the
    surviving root's old mask) lets :meth:`rollback` undo it, and
    ``chosen``, the chosen edges (u, v) in order, lets it untie them.
    """

    def __init__(self, g: Graph, k: int) -> None:
        n = g.n
        self.k = k
        self.uf = UnionFind(n * k)
        self.touches = [1 << (x // k) for x in range(n * k)]
        self.tied = [0] * n
        self.chosen: list[tuple[int, int]] = []
        self.trail: list[tuple[int, int]] = []

    def mark(self) -> tuple[int, int]:
        return len(self.trail), len(self.chosen)

    def rollback(self, mark: tuple[int, int]) -> None:
        unions, edges = mark
        trail, parent, touches = self.trail, self.uf.parent, self.touches
        for _ in range(len(trail) - unions):
            rb, ma = trail.pop()
            touches[parent[rb]] = ma
            parent[rb] = rb
        chosen, tied = self.chosen, self.tied
        for _ in range(len(chosen) - edges):
            u, v = chosen.pop()
            tied[u] &= ~(1 << v)
            tied[v] &= ~(1 << u)

    def choose(self, u: int, v: int, pairs: list[tuple[int, int]]) -> None:
        """Choose edge (u, v) with its pairs: pair (i, t) makes position i
        at u and position t at v one class; then the edge is tied.  Each
        union walks the parent links to both roots and links the larger
        root under the smaller.

        No union is checked, because none can break the pattern.  The
        search chooses a later back edge (u, v) only with an option that
        :meth:`pair_masks` passes: a partial injection whose pairs each
        break nothing alone and that holds every pair of ``fixed``.  No
        earlier union of the option changes the two classes a later pair
        joins.  The classes at u are distinct, as are those at v, and a
        class that u and v already share is ``fixed``, so the option pairs
        its positions with each other and with nothing else.  Ties are added
        only after the unions.  So each union breaks the pattern exactly
        when :meth:`_breaks` said it would alone, which is never.  A first
        back edge meets only v's singleton, untied classes, and no union of
        one with a class of u breaks anything.
        """

        k, parent, touches, trail = self.k, self.uf.parent, self.touches, self.trail
        for i, t in pairs:
            a, b = u * k + i, v * k + t
            while parent[a] != a:
                a = parent[a]
            while parent[b] != b:
                b = parent[b]
            if a == b:
                continue
            if a > b:
                a, b = b, a
            trail.append((b, touches[a]))
            parent[b] = a
            touches[a] |= touches[b]
        self.chosen.append((u, v))
        self.tied[u] |= 1 << v
        self.tied[v] |= 1 << u

    def pair_masks(self, x: int, v: int) -> tuple[int, int]:
        """Two k*k-bit masks over the pairs (i, t) of edge (x, v), not yet
        chosen, bit i*k + t: ``ok``, the pairs whose union alone breaks
        nothing (:meth:`_breaks`), and ``fixed``, the pairs already one
        class.  Classes only merge and touches and ties only grow, so an
        option with a pair outside ``ok`` breaks the pattern, and one
        without every pair of ``fixed`` leaves the edge sharing a class
        that is not its pairs'; every other option keeps it consistent
        (:meth:`choose`)."""

        k, parent = self.k, self.uf.parent
        roots_v = []
        for r in range(v * k, v * k + k):
            while parent[r] != r:
                r = parent[r]
            roots_v.append(r)
        ok = fixed = 0
        bit = 1
        for ra in range(x * k, x * k + k):
            while parent[ra] != ra:
                ra = parent[ra]
            for rb in roots_v:
                if ra == rb:
                    ok |= bit
                    fixed |= bit
                elif not self._breaks(ra, rb):
                    ok |= bit
                bit <<= 1
        return ok, fixed

    def _breaks(self, ra: int, rb: int) -> bool:
        """Whether merging the classes of roots ra and rb breaks the
        pattern: both touch one vertex, or they touch the two ends of a
        chosen edge."""

        touches, tied = self.touches, self.tied
        ma, mb = touches[ra], touches[rb]
        if ma & mb:
            return True
        while ma:
            low = ma & -ma
            ma ^= low
            if tied[low.bit_length() - 1] & mb:
                return True
        return False


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
    g: Graph, k: int, universe: int, cap: int = CANDIDATE_CAP
) -> ListAssignment | None:
    """First unsolvable k-assignment (canonical representative), or None.

    Enumerates shared-color position patterns, one per relabeling orbit:
    vertex by vertex, the edges back to earlier vertices choose which list
    positions coincide.  Each complete, self-consistent pattern is solved
    exactly; one the solver rejects is realized into an assignment over at
    most ``universe`` colors and returned, and the search goes on when that
    needs more colors.  The realization is greedy, so with ``universe``
    below k*max(n, 1), None means only that no unsolvable pattern was found
    whose classes the greedy realization fits into ``universe`` colors.
    Forests always pack for k >= 2, so at k >= 2 a forest g returns None at
    once, and when an edge chooses no pairs while the edges still able to
    share (the unchosen ones and the chosen ones with pairs) form a forest,
    the search returns from that choice: no candidate whose sharing graph
    is a forest is enumerated.  A vertex's first back edge tries every
    option; its later back edges try only the options
    :meth:`_PatternClasses.pair_masks` passes, in the same order.  Every
    option taken thus keeps the pattern consistent
    (:meth:`_PatternClasses.choose`), so none is checked once chosen and a
    complete pattern needs no closing check.  The search runs in one
    frame, over a stack of one generator per back edge on the current
    path, and resumes only the top one.  Every candidate is decided by the
    search's :class:`_Decider` (pool, then solver, every packing
    validated), with its cells carried up the stack.  Raises
    ResourceCapError after ``cap`` decided candidates (pool hits, solved,
    realizable or not), or at once when the later back edges' option
    table would hold more than ``OPTION_CAP`` partial injections, and
    ValueError when ``k < 1``, ``cap < 1`` or ``universe < k``.
    """

    decide = _Decider(g, k, cap, "list-pattern enumeration exceeded its cap")
    if universe < k:
        raise ValueError(f"universe must be at least k={k}, got {universe}")
    n = g.n
    edges = g.sorted_edges()

    @cache
    def is_forest(mask: int) -> bool:
        """Whether the edges ``mask`` marks form a forest."""

        uf = UnionFind(n)
        return all(uf.union(*edges[i]) for i in bits(mask))

    everything = (1 << len(edges)) - 1
    if n == 0 or (k >= 2 and is_forest(everything)):
        return None
    size = sum(comb(k, j) * perm(k, j) for j in range(k + 1))
    if size > OPTION_CAP:
        raise ResourceCapError(f"list-pattern enumeration needs {size:,} options per back edge, over {OPTION_CAP:,}")
    # a vertex's labels are still free at its first back edge, so that edge
    # pins its targets to a prefix, and its unions cannot fail; later back
    # edges take any injection that passes the classes' pair masks.  Each
    # option comes with its cells (bit i*k + t per pair (i, t)).
    first_pairs = ([(src, t) for t, src in enumerate(dom)] for dom in _padded_subset_order(k))
    first_options = [(pairs, _cells(k, pairs)) for pairs in first_pairs]
    later_options = [(pairs, _cells(k, pairs)) for pairs in _injection_order(k)]
    classes = _PatternClasses(g, k)
    # one step per back edge (u, v), u < v, by v and then u: its edge
    # number e and whether it is v's first back edge
    steps: list[tuple[int, int, int, bool]] = []
    for e in sorted(range(len(edges)), key=lambda e: edges[e][::-1]):
        u, v = edges[e]
        steps.append((u, v, e, not steps or steps[-1][1] != v))
    last = len(steps)

    def tries(s: int, allowed: int, cand: int) -> Iterator[tuple[int, int]]:
        # step s's options, each chosen in turn and rolled back when the
        # generator resumes.  allowed: the edges still able to share, the
        # unchosen ones and the chosen ones with pairs.  cand: the cells of
        # the chosen pairs, the candidate as the decider takes it
        u, v, e, first = steps[s]
        shift = e * k * k
        if first:
            options = first_options
        else:
            # only options within `ok` that hold all of `fixed`: one outside
            # `ok` breaks the pattern, and one without all of `fixed` would
            # leave its edge sharing a class without a pair, which nothing
            # checks later
            ok, fixed = classes.pair_masks(u, v)
            options = [(pairs, cells) for pairs, cells in later_options if not cells & ~ok and not fixed & ~cells]
        mark = classes.mark()
        for pairs, cells in options:
            if not pairs:
                allowed &= ~(1 << e)
                if k >= 2 and is_forest(allowed):
                    # every completion shares along a forest, and forests
                    # pack; the empty set is the last option, so no sibling
                    # is lost
                    return
            classes.choose(u, v, pairs)
            yield allowed, cand | cells << shift
            classes.rollback(mark)

    # stack[s] yields the states after s steps, each a pattern on the path
    # the search is on; only the top generator runs, and after the last
    # step its candidates are decided
    stack: list[Iterator[tuple[int, int]]] = [iter([(everything, 0)])]
    while stack:
        s = len(stack) - 1
        for allowed, cand in stack[-1]:
            if s < last:
                stack.append(tries(s, allowed, cand))
                break
            if not decide(cand):
                found = _realize_lists(g, k, classes.uf, universe)
                if found is not None:
                    return found
        else:
            stack.pop()
    return None


def packing_number(
    g: Graph, mode: str, upper: int, cap: int = CANDIDATE_CAP
) -> int:
    """Least k <= upper with no adversarial witness.

    ``mode`` is "list" or "correspondence".  List search uses the fully
    general universe k * max(n, 1), as ``adversary`` does by default.
    Raises ResourceCapError when every k up to ``upper`` still has a
    witness.
    """

    if mode not in ("list", "correspondence"):
        raise ValueError("mode must be 'list' or 'correspondence'")
    if upper < 1:
        raise ValueError(f"upper must be positive, got {upper}")
    for k in range(1, upper + 1):
        if mode == "correspondence":
            witness = adversarial_cover_search(g, k, cap=cap)
        else:
            witness = adversarial_list_search(g, k, universe=k * max(g.n, 1), cap=cap)
        if witness is None:
            return k
    raise ResourceCapError(f"no packing below the bound: witnesses exist up to k={upper}")

"""Balanced bipartite graphs on parts of size at most 16, as bitmask rows.

Part A is ``a_0 .. a_{s-1}`` (colors), part B is ``b_0 .. b_{s-1}``
(colorings); bit ``j`` of ``rows[i]`` is set when ``a_i ~ b_j``.  Everything
here is deterministic: matchings use a fixed augmenting order, searches use
lexicographic subset order, so downstream results are reproducible.

The hot primitives (matching, 1-factor enumeration, the allowed-edge
analysis) are module-private functions over raw ``(s, rows)`` pairs so the
solvers and the verification harness can call them in tight loops without
object churn.  :func:`hall_violator`, a subset search no loop calls, reads
the Bigraph directly and has no raw twin.  Whether an edge lies in some
1-factor is decided in one place, :func:`_raw_allowed_columns`, by a bitmask
reachability closure over alternating paths; :func:`allowed_edges` and
:func:`removable_edges` both read its columns.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterator

from listpacking.graphs import json_fields, json_int

Matching = frozenset[tuple[int, int]]


@dataclass(frozen=True)
class Bigraph:
    s: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        if not 1 <= self.s <= 16:
            raise ValueError("part size must be between 1 and 16")
        if len(self.rows) != self.s:
            raise ValueError("need exactly one row bitmask per A-vertex")
        full = (1 << self.s) - 1
        for r in self.rows:
            if r & ~full:
                raise ValueError("row bitmask has bits beyond the part size")

    def has_edge(self, i: int, j: int) -> bool:
        return bool(self.rows[i] >> j & 1)

    def column_masks(self) -> tuple[int, ...]:
        return tuple(_raw_column_masks(self.s, self.rows))

    def edges(self) -> list[tuple[int, int]]:
        return [(i, j) for i, r in enumerate(self.rows) for j in bits(r)]


# The matching, 1-factor and allowed-column kernels walk bits inline: through bits() they ran 8-14% slower.
def bits(mask: int) -> list[int]:
    """The set bits of ``mask``, ascending."""

    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


# _SPREAD[b] puts bit j of the byte b at bit 16 * j: OR-ing _SPREAD[byte] << i
# over the rows sets bit i of the 16-bit field j exactly when row i has bit j.
_SPREAD = tuple(sum(1 << 16 * j for j in range(8) if b >> j & 1) for b in range(256))
_UNPACK_COLUMNS = (None,) + tuple(struct.Struct(f"<{s}H").unpack_from for s in range(1, 17))


def _raw_column_masks(s: int, rows) -> list[int]:
    """The transpose of ``rows``: bit ``i`` of column ``j`` is bit ``j`` of row ``i``.

    A byte-spread table transpose: the low and high bytes of the rows fill
    eight 16-bit column fields each, read back as one little-endian buffer.
    """

    lo = hi = 0
    for i, r in enumerate(rows):
        lo |= _SPREAD[r & 255] << i
        hi |= _SPREAD[r >> 8] << i
    return list(_UNPACK_COLUMNS[s]((lo | hi << 128).to_bytes(32, "little")))


def bigraph_from_edges(s: int, edges) -> Bigraph:
    rows = [0] * s
    for i, j in edges:
        if not (0 <= i < s and 0 <= j < s):
            raise ValueError(f"edge {(i, j)} out of range")
        rows[i] |= 1 << j
    return Bigraph(s, tuple(rows))


def swap(h: Bigraph) -> Bigraph:
    """Transpose: the same bigraph with the roles of A and B exchanged."""

    return Bigraph(h.s, h.column_masks())


def degree_profile(h: Bigraph) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Nondecreasing degree sequences of (A, B)."""

    a = sorted(r.bit_count() for r in h.rows)
    b = sorted(c.bit_count() for c in h.column_masks())
    return tuple(a), tuple(b)


def is_st(h: Bigraph, s: int, t: int) -> bool:
    """True when the part size is ``s`` and the minimum degree is >= ``t``."""

    return h.s == s and _raw_min_degree_at_least(s, h.rows, t)


def _raw_min_degree_at_least(s: int, rows, t: int) -> bool:
    """Every row and every column of ``rows`` has at least ``t`` edges."""

    return min(map(int.bit_count, rows)) >= t and min(map(int.bit_count, _raw_column_masks(s, rows))) >= t


# ---------------------------------------------------------------------------
# Matching kernel over raw rows.
# ---------------------------------------------------------------------------


def _raw_max_matching(s: int, rows) -> list[int]:
    """Deterministic augmenting-path matching; returns match_of_a (-1 free).

    A-vertices are processed in index order, candidate B-vertices in
    ascending bit order, so the result is a pure function of the rows.
    """

    match_a = [-1] * s
    match_b = [-1] * s

    def augment(i: int, seen: int) -> tuple[bool, int]:
        m = rows[i] & ~seen
        # grab a free b first; only then recurse
        probe = m
        while probe:
            low = probe & -probe
            j = low.bit_length() - 1
            if match_b[j] < 0:
                match_a[i] = j
                match_b[j] = i
                return True, seen
            probe ^= low
        while m:
            low = m & -m
            j = low.bit_length() - 1
            m ^= low
            if seen >> j & 1:
                continue
            seen |= 1 << j
            ok, seen = augment(match_b[j], seen)
            if ok:
                match_a[i] = j
                match_b[j] = i
                return True, seen
        return False, seen

    for i in range(s):
        augment(i, 0)
    return match_a


def _raw_has_one_factor(s: int, rows) -> bool:
    for r in rows:
        if not r:
            return False
    return all(x >= 0 for x in _raw_max_matching(s, rows))


def max_matching(h: Bigraph) -> Matching:
    """Maximum-cardinality matching as a set of (a, b) index pairs."""

    match_a = _raw_max_matching(h.s, h.rows)
    return frozenset((i, j) for i, j in enumerate(match_a) if j >= 0)


def has_one_factor(h: Bigraph) -> bool:
    return _raw_has_one_factor(h.s, h.rows)


def hall_violator(h: Bigraph) -> tuple[frozenset[int], frozenset[int]] | None:
    """None when a 1-factor exists; otherwise a maximum-cardinality violator
    X (subset of A) together with N(X).

    A largest violator is always of the form {a : N(a) is inside T} for some
    T (take T = N(X) of any violator X to get one at least as large), so the
    search runs over all T in ascending mask order.  Violators of maximum
    deficiency need not have maximum cardinality, so this is a genuine
    subset search, not an alternating-path computation; ties keep the first
    T, which makes the result deterministic.
    """

    s, rows = h.s, h.rows
    if _raw_has_one_factor(s, rows):
        return None
    best_x = best_n = 0
    for t_mask in range(1 << s):
        x_mask = 0
        n_mask = 0
        for i in range(s):
            if rows[i] & ~t_mask == 0:
                x_mask |= 1 << i
                n_mask |= rows[i]
        size = x_mask.bit_count()
        if size > n_mask.bit_count() and size > best_x.bit_count():
            best_x, best_n = x_mask, n_mask
    return frozenset(bits(best_x)), frozenset(bits(best_n))


def _raw_one_factors(s: int, rows) -> Iterator[tuple[int, ...]]:
    """Yield 1-factors as tuples ``cols`` with ``cols[i]`` = the B-vertex
    matched to ``a_i``, in lexicographic order of that tuple.

    A depth-first search in one frame: ``left[i]`` holds the columns row i
    still has to try and ``used[i]`` the columns taken by rows above it.  A
    level is entered with no columns to try unless every later row still
    has an untaken column."""

    if s == 0:
        yield ()
        return
    cols = [0] * s
    left = [0] * s
    used = [0] * s
    last = s - 1
    for r in range(1, s):
        if not rows[r]:
            return
    left[0] = rows[0]
    i = 0
    while i >= 0:
        m = left[i]
        if not m:
            i -= 1
            continue
        low = m & -m
        left[i] = m ^ low
        cols[i] = low.bit_length() - 1
        if i == last:
            yield tuple(cols)
            continue
        taken = used[i] | low
        i += 1
        used[i] = taken
        avail = ~taken
        for r in range(i + 1, s):
            if not rows[r] & avail:
                left[i] = 0
                break
        else:
            left[i] = rows[i] & avail


def _invert(cols: tuple[int, ...]) -> tuple[int, ...]:
    """The inverse of a 1-factor: entry ``j`` is the A-vertex matched to
    ``b_j``.  With colors as A and colorings as B, this is the per-coloring
    color tuple a packing stores."""

    out = [0] * len(cols)
    for i, j in enumerate(cols):
        out[j] = i
    return tuple(out)


# ---------------------------------------------------------------------------
# Allowed/forced edge analysis.
#
# Given one perfect matching m, an edge lies in some 1-factor iff it is a
# matching edge or closes an alternating cycle (Regin, AAAI 1994).  On the
# digraph over A-vertices with i -> i' when a_i ~ b_m(i') is a non-matching
# edge, that edge closes an alternating cycle iff a_i' reaches a_i, and
# reachability is a bitmask Warshall closure.  The matching edge at a_i is
# avoided by some 1-factor iff a_i has another allowed edge: the cycle
# through that edge swaps the matching edge out.
# ---------------------------------------------------------------------------


def _raw_allowed_columns(s: int, rows, match_a) -> list[int]:
    """For each a_i, the bitmask of B-vertices j such that edge (i, j) lies
    in at least one 1-factor.  Requires a perfect matching ``match_a``."""

    match_b = [0] * s
    for i, j in enumerate(match_a):
        match_b[j] = i
    reach = [0] * s
    for i in range(s):
        m = rows[i] & ~(1 << match_a[i])
        while m:
            low = m & -m
            reach[i] |= 1 << match_b[low.bit_length() - 1]
            m ^= low
    for w in range(s):
        via = reach[w]
        for i in range(s):
            if reach[i] >> w & 1:
                reach[i] |= via
    allowed = [0] * s
    for i in range(s):
        mask = 1 << match_a[i]
        m = rows[i] & ~mask
        while m:
            low = m & -m
            if reach[match_b[low.bit_length() - 1]] >> i & 1:
                mask |= low
            m ^= low
        allowed[i] = mask
    return allowed


def allowed_edges(h: Bigraph) -> Matching | None:
    """All edges lying in at least one 1-factor, or None when h has none."""

    match_a = _raw_max_matching(h.s, h.rows)
    if any(j < 0 for j in match_a):
        return None
    allowed = _raw_allowed_columns(h.s, h.rows, match_a)
    return frozenset((i, j) for i, mask in enumerate(allowed) for j in bits(mask))


def removable_edges(h: Bigraph, m: Matching) -> Matching:
    """All e in the 1-factor ``m`` such that h - e still has a 1-factor."""

    pairs = sorted(m)
    everyone = set(range(h.s))
    if len(pairs) != h.s or {i for i, _ in pairs} != everyone or {j for _, j in pairs} != everyone:
        raise ValueError("m is not a 1-factor of h")
    match_a = [0] * h.s
    for i, j in pairs:
        if not h.has_edge(i, j):
            raise ValueError(f"pair {(i, j)} is not an edge of h")
        match_a[i] = j
    allowed = _raw_allowed_columns(h.s, h.rows, match_a)
    return frozenset((i, j) for i, j in enumerate(match_a) if allowed[i] != 1 << j)


# ---------------------------------------------------------------------------
# Obstruction classification for part size 8.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Obstruction:
    """A Hall violator with its refined category.

    ``side`` records whether the violator was found among the rows ("A") or
    in the transpose ("B").  Categories follow the size/neighborhood shape:

    * type 1: |X| = 5 and |N(X)| = 3;
    * type 2: |X| = 4, |N(X)| = 3, and some outside vertex x1 adds exactly
      one new neighbor, reached by the single edge e1;
    * type 3: as type 2 but x1 adds exactly two new neighbors via e1, e2;
    * type 4: |X| = 4, |N(X)| = 3, with no earlier-category obstruction.
    """

    side: str
    x: frozenset[int]
    nbhd: frozenset[int]
    otype: int
    x1: int | None = None
    e1: tuple[int, int] | None = None
    e2: tuple[int, int] | None = None

    def as_json(self) -> dict:
        return {
            "side": self.side,
            "x": sorted(self.x),
            "nbhd": sorted(self.nbhd),
            "otype": self.otype,
            "x1": self.x1,
            "e1": list(self.e1) if self.e1 else None,
            "e2": list(self.e2) if self.e2 else None,
        }


def _neighborhood(rows, subset) -> int:
    n = 0
    for i in subset:
        n |= rows[i]
    return n


def _raw_obstructions(rows, otype: int) -> Iterator[tuple[tuple[int, ...], int, int | None, list[int]]]:
    """Every type-``otype`` obstruction among the rows of an 8x8 bigraph,
    as (X, N(X) mask, x1, the columns x1 adds outside N(X)), in
    lexicographic subset order and then by x1.  Types 1 and 4 have no x1
    (None, no columns).

    X grows by depth-first search in lexicographic order, and a prefix whose
    neighborhood already spans more than 3 columns is not extended.
    """

    s = 8
    size = 5 if otype == 1 else 4
    want = 1 if otype == 2 else 2

    def grow(x: tuple[int, ...], start: int, n: int):
        if len(x) == size:
            if n.bit_count() != 3:
                return
            if otype in (1, 4):
                yield x, n, None, []
                return
            for x1 in range(s):
                if x1 in x:
                    continue
                outside = rows[x1] & ~n
                if outside.bit_count() == want:
                    yield x, n, x1, bits(outside)
            return
        for i in range(start, s - size + len(x) + 1):
            grown = n | rows[i]
            if grown.bit_count() <= 3:
                yield from grow(x + (i,), i + 1, grown)

    return grow((), 0, 0)


def classify_obstruction(h: Bigraph) -> Obstruction | None:
    """Classify why an 8x8 bigraph has no 1-factor.

    Searches categories in order 1, 2, 3, 4, each on the rows first and then
    on the transpose, using lexicographic subset order throughout; the first
    hit is returned.  None when a 1-factor exists.  Inputs with minimum
    degree below 3 may admit no category; that raises ValueError.
    """

    if h.s != 8:
        raise ValueError("classification is specific to part size 8")
    if has_one_factor(h):
        return None
    sides = (("A", h.rows), ("B", swap(h).rows))
    for otype in (1, 2, 3, 4):
        for side, rows in sides:
            for x, n, x1, cols in _raw_obstructions(rows, otype):
                e1 = (x1, cols[0]) if cols else None
                e2 = (x1, cols[1]) if otype == 3 else None
                return Obstruction(side, frozenset(x), frozenset(bits(n)), otype, x1, e1, e2)
    raise ValueError("no typed obstruction: input is not a (8,3)-bigraph")


# ---------------------------------------------------------------------------
# JSON wire format.
# ---------------------------------------------------------------------------


def bigraph_to_json(h: Bigraph) -> dict:
    return {"s": h.s, "rows": list(h.rows)}


def bigraph_from_json(obj: dict) -> Bigraph:
    try:
        obj = json_fields(obj, "s", "rows", "edges")
        s = json_int(obj["s"])
        if "rows" in obj and "edges" in obj:
            raise ValueError("give 'rows' or 'edges', not both")
        if "rows" in obj:
            return Bigraph(s, tuple(json_int(r) for r in obj["rows"]))
        edges = [(json_int(i), json_int(j)) for i, j in obj["edges"]]
        if len(set(edges)) != len(edges):
            raise ValueError("an edge appears twice")
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed bigraph JSON (needs 's' and 'rows' or 'edges'): {exc}") from exc
    return bigraph_from_edges(s, edges)

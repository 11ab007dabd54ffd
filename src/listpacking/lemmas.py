"""Seeded verification of the standalone matching facts this package is
built on, by exhaustive or randomized search over bigraph instances.

Every verifier is registered by name in :data:`REGISTRY` and run through
:func:`verify`, which returns a :class:`VerifierReport`.  Randomized trials
are pure functions of (lemma name, seed, trial index); exhaustive runs
iterate a documented canonical enumeration (all labeled 4x4 bit-matrices,
filtered to the precondition).  A lemma with both strategies has one
instance check, which a randomized trial applies to the instance it draws
and an exhaustive run applies to every enumerated instance.  A failure
stated as a function of the instance (:func:`_check`: ``easy_prop``,
``matching_lem_1``, ``one_gives_two``, ``canalwaysswap``,
``girth5_condition``, ``switcher_simple``, ``matching_inc``'s tight block)
is shrunk, once :func:`verify` keeps it, by greedy edge removal that keeps
the precondition and the failure; the others (:func:`_as_built`:
``matching_lem_2``, ``type_prop``, the switcher exchanges,
``key1factor``/``key1factorB``, ``matching_inc``'s strong profile) are
reported as built.  Every draw goes through
:func:`_below`, :func:`_sample` and :func:`_choice`, which make exactly the
``getrandbits`` calls of ``randrange``, ``sample`` and ``choice`` in CPython
3.11 and so draw the same instance stream with less interpreter work around
each call; the tests pin that stream by digest.  A lemma verifier reporting
a counterexample is a release-blocking event; the uniqueness observations
about typed obstructions are weaker lore and are surfaced as warnings
instead.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field
from itertools import combinations, product
from typing import Callable, Iterable, Iterator

from listpacking.bigraph import (
    Bigraph,
    _neighborhood,
    _raw_column_masks,
    _raw_has_one_factor,
    _raw_min_degree_at_least,
    _raw_obstructions,
    allowed_edges,
    bigraph_to_json,
    bits,
    classify_obstruction,
    degree_profile,
    has_one_factor,
    is_st,
    max_matching,
    removable_edges,
    swap,
)
from listpacking.covers import CorrespondenceCover, Perm
from listpacking.graphs import graph_from_edges
from listpacking.solver import solve_packing

_SEED_STRIDE = 1_000_003
MAX_COUNTEREXAMPLES = 5


@dataclass
class VerifierReport:
    lemma: str
    strategy: str
    instances_checked: int
    counterexamples: list[dict]
    warnings: list[str]
    seed: int

    @property
    def ok(self) -> bool:
        return not self.counterexamples

    def as_json(self) -> dict:
        return asdict(self)


@dataclass
class StructuredInstance:
    """A bigraph together with the planted decorations tests key on."""

    h: Bigraph
    decorations: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Draws.  Each helper repeats the ``getrandbits`` calls of the ``Random``
# method it replaces, as CPython 3.11 makes them, so the instance stream is
# the same; the tests compare them with ``Random`` value by value and state
# by state.
# ---------------------------------------------------------------------------


def _below(rng: random.Random, n: int) -> int:
    """``rng.randrange(n)`` for ``n >= 1``: rejection sampling over
    ``n.bit_length()`` random bits."""

    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


def _sample(rng: random.Random, population, k: int) -> list:
    """``rng.sample(population, k)`` for a population of at most 21 items,
    where ``Random.sample`` always takes its pool branch."""

    pool = list(population)
    n = len(pool)
    if not 0 <= k <= n:
        raise ValueError("sample larger than population or is negative")
    getrandbits = rng.getrandbits
    result = []
    for m in range(n, n - k, -1):
        b = m.bit_length()
        j = getrandbits(b)
        while j >= m:
            j = getrandbits(b)
        result.append(pool[j])
        pool[j] = pool[m - 1]
    return result


def _choice(rng: random.Random, seq):
    """``rng.choice(seq)`` for a nonempty sequence."""

    return seq[_below(rng, len(seq))]


# ---------------------------------------------------------------------------
# Instance generation.
# ---------------------------------------------------------------------------


def _repair_min_degree(rng: random.Random, s: int, rows: list[int], t: int) -> list[int]:
    for i in range(s):
        while rows[i].bit_count() < t:
            rows[i] |= 1 << _below(rng, s)
    cols = _raw_column_masks(s, rows)
    while True:
        weak = [j for j in range(s) if cols[j].bit_count() < t]
        if not weak:
            return rows
        for j in weak:
            i = _below(rng, s)
            rows[i] |= 1 << j
            cols[j] |= 1 << i


def _random_st_rows(rng: random.Random, s: int, t: int, p: float) -> list[int]:
    draw = rng.random
    rows = []
    for _ in range(s):
        r = 0
        for j in range(s):
            if draw() < p:
                r |= 1 << j
        rows.append(r)
    return _repair_min_degree(rng, s, rows, t)


def random_st_bigraph(rng: random.Random, s: int, t: int, p: float = 0.45) -> Bigraph:
    return Bigraph(s, tuple(_random_st_rows(rng, s, t, p)))


def _mask_of(items) -> int:
    m = 0
    for x in items:
        m |= 1 << x
    return m


def planted_obstruction(rng: random.Random, otype: int) -> StructuredInstance:
    """An (8,3)-bigraph whose only typed obstruction is the planted one.

    Follows the canonical shapes: X rows see exactly N(X) (three columns);
    remaining rows cover the complement; the type 2/3 witness row reaches
    one/two columns outside N(X).  Random extra edges are added only where
    they cannot disturb the classification.
    """

    s = 8
    a_perm = _sample(rng, range(s), s)
    b_perm = _sample(rng, range(s), s)
    x_size = 5 if otype == 1 else 4
    x = a_perm[:x_size]
    nbhd = b_perm[:3]
    n_mask = _mask_of(nbhd)
    rows = [0] * s
    for i in x:
        rows[i] = n_mask
    rest = a_perm[x_size:]
    outside = [j for j in b_perm if j not in nbhd]
    deco: dict = {"x": sorted(x), "nbhd": sorted(nbhd), "otype": otype}

    if otype == 1 or otype == 4:
        for i in rest:
            rows[i] = _mask_of(outside)
    elif otype == 2:
        x1, others = rest[0], rest[1:]
        e1_col = outside[0]
        rows[x1] = _mask_of(_sample(rng, nbhd, _choice(rng, (2, 3)))) | 1 << e1_col
        far = [j for j in outside if j != e1_col]
        for i in others:
            rows[i] = _mask_of(far)
        for i in _sample(rng, others, 2):
            rows[i] |= 1 << e1_col
        deco.update(x1=x1, e1=(x1, e1_col))
    else:  # otype == 3
        x1, others = rest[0], rest[1:]
        e_cols = outside[:2]
        rows[x1] = _mask_of(_sample(rng, nbhd, _choice(rng, (1, 2, 3)))) | _mask_of(e_cols)
        for i in others:
            rows[i] = _mask_of(outside)
        deco.update(x1=x1, e1=(x1, e_cols[0]), e2=(x1, e_cols[1]))

    # harmless extras: non-configuration rows may also reach into N(X)
    draw = rng.random
    for i in rest if otype in (1, 4) else rest[1:]:
        for j in nbhd:
            if draw() < 0.3:
                rows[i] |= 1 << j
    return StructuredInstance(Bigraph(s, tuple(rows)), deco)


def _planted_cycles(rng: random.Random, lengths: tuple[int, ...]) -> StructuredInstance:
    s = 8
    total = sum(lengths) // 2
    xs = _sample(rng, range(s), total)
    ys = _sample(rng, range(s), total)
    rows = [0] * s
    cycles = []
    pos = 0
    for length in lengths:
        half = length // 2
        cx = xs[pos : pos + half]
        cy = ys[pos : pos + half]
        pos += half
        cyc = []
        for i in range(half):
            rows[cx[i]] |= 1 << cy[i]
            rows[cx[(i + 1) % half]] |= 1 << cy[i]
            cyc.extend([("a", cx[i]), ("b", cy[i])])
        cycles.append(cyc)
    m_a = _sample(rng, range(s), 5)
    m_b = _sample(rng, range(s), 5)
    matching = list(zip(m_a, m_b))
    for i, j in matching:
        rows[i] |= 1 << j
    rows = _repair_min_degree(rng, s, rows, 4)
    return StructuredInstance(
        Bigraph(s, tuple(rows)), {"cycles": cycles, "matching": matching}
    )


def _switcher_double_plant(rng: random.Random, k: int) -> StructuredInstance:
    s = 2 * k
    a_perm = _sample(rng, range(s), s)
    b_perm = _sample(rng, range(s), s)
    x = a_perm[: k + 1]
    nbhd = b_perm[: k - 1]
    rows = [0] * s
    for i in x:
        rows[i] = _mask_of(nbhd)
    outside = [j for j in b_perm if j not in nbhd]
    for i in a_perm[k + 1 :]:
        rows[i] = _mask_of(outside)
    tilde = []
    if rng.random() < 0.5:
        e = (_choice(rng, x), _choice(rng, outside))
        rows[e[0]] |= 1 << e[1]
        tilde.append(e)
    return StructuredInstance(
        Bigraph(s, tuple(rows)),
        {"x": sorted(x), "nbhd": sorted(nbhd), "tilde": tilde, "k": k},
    )


# ---------------------------------------------------------------------------
# Shrinking.
# ---------------------------------------------------------------------------


def shrink_bigraph(
    h: Bigraph,
    precondition: Callable[[Bigraph], bool],
    still_fails: Callable[[Bigraph], bool],
) -> Bigraph:
    """Greedy edge removal to a local minimum that keeps the precondition
    and keeps the property failing."""

    changed = True
    while changed:
        changed = False
        for i, j in h.edges():
            rows = list(h.rows)
            rows[i] &= ~(1 << j)
            cand = Bigraph(h.s, tuple(rows))
            if precondition(cand) and still_fails(cand):
                h = cand
                changed = True
                break
    return h


def _counterexample(h: Bigraph, note: str, precondition, broken) -> dict:
    shrunk = shrink_bigraph(h, precondition, lambda b: broken(b) is not None)
    return {"note": note, "instance": bigraph_to_json(h), "shrunk": bigraph_to_json(shrunk)}


# ---------------------------------------------------------------------------
# The individual verifiers.  Each trial returns (ok, failure | None,
# warning | None); a failure is its record, or a call that builds it.
# ---------------------------------------------------------------------------

TrialResult = tuple[bool, dict | Callable[[], dict] | None, str | None]


def _check(h: Bigraph, precondition: Callable[[Bigraph], bool], broken: Callable[[Bigraph], str | None]) -> TrialResult:
    """``broken(h)`` is the failure note, or None when the lemma holds on
    ``h``.  A failure is returned as a call that shrinks ``h`` to an
    instance that keeps ``precondition`` and is still broken, so only the
    counterexamples :func:`verify` keeps are shrunk."""

    note = broken(h)
    if note is None:
        return True, None, None
    return False, lambda: _counterexample(h, note, precondition, broken), None


def _as_built(h: Bigraph, note: str, **extra) -> TrialResult:
    """A failure reported on ``h`` as built, with ``extra`` fields after it."""

    return False, {"note": note, "instance": bigraph_to_json(h), **extra}, None


def _iter_4x4(t: int) -> Iterator[Bigraph]:
    """All labeled 4x4 bit-matrices with minimum degree >= t on both parts,
    in ascending order of the 16-bit code with row 0 lowest.  Every row
    already has t bits, so only the columns are checked."""

    rows_with_t_bits = [r for r in range(16) if r.bit_count() >= t]
    for r3, r2, r1, r0 in product(rows_with_t_bits, repeat=4):
        rows = (r0, r1, r2, r3)
        if min(map(int.bit_count, _raw_column_masks(4, rows))) >= t:
            yield Bigraph(4, rows)


# Preconditions the shrinker keeps.  Shrinking never changes the part size,
# so each reads it from the instance.


def _half_degree(b: Bigraph) -> bool:  # (2t,t) in easy_prop, (4,2) in canalwaysswap
    return is_st(b, b.s, b.s // 2)


def _half_degree_with_factor(b: Bigraph) -> bool:  # (2k+1,k) in one_gives_two
    return _half_degree(b) and has_one_factor(b)


def _above_half_degree(b: Bigraph) -> bool:  # (2k+1,k+1) in matching_lem_1
    return is_st(b, b.s, b.s // 2 + 1)


def _degree_one(b: Bigraph) -> bool:  # (4,1) in girth5_condition
    return is_st(b, b.s, 1)


def _degree_three_with_factor(b: Bigraph) -> bool:  # (8,3) in switcher_simple
    return is_st(b, b.s, 3) and has_one_factor(b)


def _broken_easy_prop(b: Bigraph) -> str | None:
    """A (2t,t)-bigraph has a 1-factor."""

    return None if has_one_factor(b) else f"({b.s},{b.s // 2})-bigraph without 1-factor"


def _trial_easy_prop(rng: random.Random) -> TrialResult:
    t = _choice(rng, (3, 4))
    return _check(random_st_bigraph(rng, 2 * t, t), _half_degree, _broken_easy_prop)


def _broken_matching_lem_1(b: Bigraph) -> str | None:
    """Every edge of a (2k+1,k+1)-bigraph lies in some 1-factor."""

    allowed = allowed_edges(b)
    if allowed is None:
        return f"({b.s},{b.s // 2 + 1})-bigraph without 1-factor"
    if allowed != frozenset(b.edges()):
        return f"edges in no 1-factor: {sorted(set(b.edges()) - allowed)}"
    return None


def _trial_matching_lem_1(rng: random.Random) -> TrialResult:
    k = _choice(rng, (2, 3))
    return _check(random_st_bigraph(rng, 2 * k + 1, k + 1), _above_half_degree, _broken_matching_lem_1)


def _plant_no_factor(rng: random.Random, k: int) -> Bigraph:
    """A (2k+1,k)-bigraph with no 1-factor: a (k+1)-by-(k+1) empty block."""

    s = 2 * k + 1
    a_perm = _sample(rng, range(s), s)
    b_perm = _sample(rng, range(s), s)
    x = a_perm[: k + 1]
    y = b_perm[: k + 1]
    x_mask, y_mask = _mask_of(x), _mask_of(y)
    full = (1 << s) - 1
    rows = [0] * s
    for i in x:
        rows[i] = full & ~y_mask
    for i in a_perm[k + 1 :]:
        rows[i] = y_mask | sum(1 << j for j in b_perm[k + 1 :] if rng.random() < 0.5)
    return Bigraph(s, tuple(rows))


def _trial_matching_lem_2(rng: random.Random) -> TrialResult:
    k = _choice(rng, (2, 3))
    s = 2 * k + 1
    h = _plant_no_factor(rng, k)
    if has_one_factor(h):
        return _as_built(h, "planted instance unexpectedly has a 1-factor")
    # exhaustive witness search for the complete-bipartite split
    splits = [(x, n) for x in combinations(range(s), k + 1) if (n := _neighborhood(h.rows, x)).bit_count() <= k]
    ok = len(splits) == 1
    if ok:
        x, n = splits[0]
        full = (1 << s) - 1
        cols = h.column_masks()
        # X complete to B minus Y, Y complete to A minus X
        ok = (full & ~n).bit_count() == k + 1 and all(h.rows[i] == n for i in x)
        ok = ok and all(cols[j] == full & ~_mask_of(x) for j in bits(full & ~n))
    if not ok:
        return _as_built(h, f"split structure violated (found {len(splits)} candidate splits)")
    return True, None, None


def _usable_counts(h: Bigraph) -> tuple[list[int], list[int]] | None:
    """Per A-vertex and per B-vertex, how many incident edges lie in some
    1-factor; None when there is no 1-factor."""

    allowed = allowed_edges(h)
    if allowed is None:
        return None
    count_a = [0] * h.s
    count_b = [0] * h.s
    for i, j in allowed:
        count_a[i] += 1
        count_b[j] += 1
    return count_a, count_b


def _draw_with_factor(rng: random.Random, s: int, t: int, p: float) -> Bigraph | None:
    """The first of 50 random (s,t)-bigraphs that has a 1-factor, or None."""

    for _ in range(50):
        rows = _random_st_rows(rng, s, t, p)
        if _raw_has_one_factor(s, rows):
            return Bigraph(s, tuple(rows))
    return None


_NO_FACTOR_DRAWN: TrialResult = (True, None, "generator never produced a 1-factor instance")


def _broken_one_gives_two(b: Bigraph) -> str | None:
    """In a (2k+1,k)-bigraph with a 1-factor, at most one A-vertex lies on
    fewer than two edges that are each in some 1-factor."""

    exceptional = sum(1 for c in _usable_counts(b)[0] if c < 2)
    return f"{exceptional} A-vertices lack two usable incident edges" if exceptional > 1 else None


def _trial_one_gives_two(rng: random.Random) -> TrialResult:
    k = _choice(rng, (2, 3))
    h = _draw_with_factor(rng, 2 * k + 1, k, 0.45)
    return _NO_FACTOR_DRAWN if h is None else _check(h, _half_degree_with_factor, _broken_one_gives_two)


def _broken_canalwaysswap(b: Bigraph) -> str | None:
    """Every vertex of a (4,2)-bigraph lies on two edges that are each in
    some 1-factor."""

    counts = _usable_counts(b)
    if counts is None:
        return "(4,2)-bigraph without 1-factor"
    if min(map(min, counts)) < 2:
        return "vertex with fewer than two usable incident edges"
    return None


def _girth5_exception(h: Bigraph) -> bool:
    """Two degree-1 vertices in one part that share their only neighbor."""

    for side in (h.rows, h.column_masks()):
        seen = set()
        for m in side:
            if m.bit_count() == 1:
                if m in seen:
                    return True
                seen.add(m)
    return False


def _broken_girth5_condition(b: Bigraph) -> str | None:
    """A (4,1)-bigraph has a 1-factor unless two degree-1 vertices of one
    part share their neighbor."""

    if _girth5_exception(b) or has_one_factor(b):
        return None
    return "no 1-factor and no shared-degree-1 pair"


def _trial_type_prop(rng: random.Random) -> TrialResult:
    otype = 1 + _below(rng, 4)
    inst = planted_obstruction(rng, otype)
    h = inst.h if rng.random() < 0.5 else swap(inst.h)
    if has_one_factor(h):
        return _as_built(h, "planted no-factor instance has a 1-factor")
    try:
        obs = classify_obstruction(h)
    except ValueError as exc:
        return _as_built(h, f"classification failed: {exc}")
    assert obs is not None
    rows = h.rows if obs.side == "A" else h.column_masks()
    n = _neighborhood(rows, obs.x)
    sizes_ok = (len(obs.x), n.bit_count()) == ((5, 3) if obs.otype == 1 else (4, 3))
    if not sizes_ok or frozenset(bits(n)) != obs.nbhd:
        return _as_built(h, "classified obstruction fails its own cardinalities", obstruction=obs.as_json())
    if obs.otype in (2, 3):
        want = 1 if obs.otype == 2 else 2
        if obs.x1 is None or (rows[obs.x1] & ~n).bit_count() != want:
            return _as_built(h, "typed witness vertex fails its degree condition", obstruction=obs.as_json())
    if obs.otype in (1, 2):
        try:
            obs2 = classify_obstruction(swap(h))
        except ValueError:
            obs2 = None
        if obs2 is None or obs2.otype != obs.otype:
            return _as_built(h, "type 1/2 not mirrored in the transpose")
    warning = None
    if any(frozenset(x) != obs.x for x, *_ in _raw_obstructions(rows, obs.otype)):
        warning = f"second type-{obs.otype} obstruction present (uniqueness lore violated)"
    return True, None, warning


def _meets_profile(h: Bigraph, mins: tuple[int, ...]) -> bool:
    a, b = degree_profile(h)
    return all(x >= m for x, m in zip(a, mins)) and all(x >= m for x, m in zip(b, mins))


def _weak_profile_without_factor(b: Bigraph) -> bool:
    return _meets_profile(b, (1, 2, 3, 3, 4, 4, 4, 4)) and not has_one_factor(b)


def _tight_block(h: Bigraph) -> bool:
    """Do the four lowest-degree vertices of one part see only 3 vertices?"""

    for side in (h.rows, h.column_masks()):
        low = sorted(range(8), key=lambda i: (side[i].bit_count(), i))[:4]
        if _neighborhood(side, low).bit_count() == 3:
            return True
    return False


def _broken_tight_block(b: Bigraph) -> str | None:
    """A bigraph of the weak degree profile without 1-factor has a tight block."""

    return None if _tight_block(b) else "degree profile met, no 1-factor, and no tight low-degree block"


def _trial_matching_inc(rng: random.Random) -> TrialResult:
    if rng.random() < 0.5:
        # near-threshold: four A-rows confined to three columns
        h = planted_obstruction(rng, 4).h
    else:
        rows = _random_st_rows(rng, 8, 1, 0.5)
        for i in range(8):
            while rows[i].bit_count() < _choice(rng, (3, 4)):
                rows[i] |= 1 << _below(rng, 8)
        h = Bigraph(8, tuple(rows))
    if not _weak_profile_without_factor(h):
        return True, None, None  # the generator missed the profile, or a 1-factor exists; skip
    result = _check(h, _weak_profile_without_factor, _broken_tight_block)
    if result[0] and _meets_profile(h, (1, 2, 3, 4, 4, 4, 4, 4)):
        return _as_built(h, "strong degree profile without 1-factor")
    return result


def _random_matching(rng: random.Random, s: int, size: int) -> list[tuple[int, int]]:
    return list(zip(_sample(rng, range(s), size), _sample(rng, range(s), size)))


def _apply_matchings(rows, add, remove) -> list[int]:
    """A copy of ``rows`` with the edges ``add`` added, then ``remove`` removed."""

    rows = list(rows)
    for i, j in add:
        rows[i] |= 1 << j
    for i, j in remove:
        rows[i] &= ~(1 << j)
    return rows


def _switcher_trial(rng: random.Random, otype: int) -> TrialResult:
    inst = planted_obstruction(rng, otype)
    h = inst.h
    deco = inst.decorations
    x = deco["x"]
    nbhd = set(deco["nbhd"])
    outside = [j for j in range(8) if j not in nbhd]
    sources = list(x) + ([deco["x1"]] if otype in (2, 3) else [])
    need = 1 if otype == 4 else 2
    src = _sample(rng, sources, need)
    dst = _sample(rng, outside, need)
    required = list(zip(src, dst))

    def draw() -> list[int]:
        extra_add = [p for p in _random_matching(rng, 8, _below(rng, 3)) if p[0] not in src and p[1] not in dst]
        add = required + extra_add
        remove = [p for p in _random_matching(rng, 8, _below(rng, 9)) if p not in add]
        return _apply_matchings(h.rows, add, remove)

    return _exchange(h, required, draw, 3, f"type-{otype} exchange", "could not build a min-degree-3 exchanged instance")


def _exchange(
    h: Bigraph, required: list[tuple[int, int]], draw: Callable[[], list[int]], t: int, what: str, give_up: str
) -> TrialResult:
    """The first of 60 ``draw()`` results (the rows of ``h`` with
    ``required`` and random matchings exchanged) of minimum degree ``t``,
    else ``h`` plus ``required``, must have a 1-factor; with neither, the
    trial is skipped as ``give_up``."""

    s = h.s
    for _ in range(60):
        rows = draw()
        if _raw_min_degree_at_least(s, rows, t):
            break
    else:
        rows = _apply_matchings(h.rows, required, [])
        if not _raw_min_degree_at_least(s, rows, t):
            return True, None, give_up
    if not _raw_has_one_factor(s, rows):
        exchanged = bigraph_to_json(Bigraph(s, tuple(rows)))
        return _as_built(h, f"{what} left no 1-factor", exchanged=exchanged, required=[list(p) for p in required])
    return True, None, None


def _broken_switcher_simple(b: Bigraph) -> str | None:
    """An (8,3)-bigraph with a 1-factor M has six edges e in M such that
    b - e still has a 1-factor."""

    rem = removable_edges(b, max_matching(b))
    return f"only {len(rem)} removable 1-factor edges" if len(rem) < 6 else None


def _trial_switcher_simple(rng: random.Random) -> TrialResult:
    h = _draw_with_factor(rng, 8, 3, 0.4)
    return _NO_FACTOR_DRAWN if h is None else _check(h, _degree_three_with_factor, _broken_switcher_simple)


def _trial_switcher_double(rng: random.Random, k: int) -> TrialResult:
    inst = _switcher_double_plant(rng, k)
    h = inst.h
    s = 2 * k
    x = inst.decorations["x"]
    tilde = inst.decorations["tilde"]
    # targets live in B minus the neighborhood taken without the tilde edge
    n_mask = _neighborhood(_apply_matchings(h.rows, [], tilde), x)
    targets = [j for j in range(s) if not n_mask >> j & 1]
    src = _sample(rng, x, 2)
    dst = _sample(rng, targets, 2)
    required = list(zip(src, dst))

    def draw() -> list[int]:
        a1 = required[:1] + [p for p in _random_matching(rng, s, _below(rng, k)) if p[0] != required[0][0] and p[1] != required[0][1]]
        a2 = required[1:] + [p for p in _random_matching(rng, s, _below(rng, k)) if p[0] != required[1][0] and p[1] != required[1][1]]
        r1 = [p for p in _random_matching(rng, s, _below(rng, s)) if p not in a1 and p not in a2]
        r2 = [p for p in _random_matching(rng, s, _below(rng, s)) if p not in a1 and p not in a2]
        return _apply_matchings(_apply_matchings(h.rows, a1, r1), a2, r2)

    return _exchange(h, required, draw, k - 1, f"two-matching exchange (k={k})", "could not build a min-degree exchanged instance")


def _walk_edges(walk: list[tuple[str, int]]) -> list[tuple[int, int]]:
    """The (A-vertex, B-vertex) edges between consecutive vertices of a
    walk given as ("a" | "b", index) labels."""

    return [(va, vb) if sa == "a" else (vb, va) for (sa, va), (_, vb) in zip(walk, walk[1:])]


def _path_pairs(cycles: list[list[tuple[str, int]]]) -> Iterator[list[tuple[int, int]]]:
    """The edges of each candidate path pair, in a fixed order: every two
    vertex-disjoint 2-edge paths along the planted cycles, then each planted
    4-cycle as a whole (its edges split into two edge-disjoint 2-edge
    paths)."""

    p3s: list[list[tuple[str, int]]] = []
    for cyc in cycles:
        around = cyc + cyc[:2]
        p3s.extend(around[i : i + 3] for i in range(len(cyc)))
    for p, q in combinations(p3s, 2):
        if not (set(p) & set(q)):
            yield _walk_edges(p) + _walk_edges(q)
    for cyc in cycles:
        if len(cyc) == 4:
            yield _walk_edges(cyc + cyc[:1])


def _trial_key1factor(rng: random.Random, kind: str) -> TrialResult:
    inst = _planted_cycles(rng, (10,) if kind == "cycle10_plus_M5" else (6, 4))
    h = inst.h
    matching = inst.decorations["matching"]
    pairs = list(combinations(matching, 2))
    for base in _path_pairs(inst.decorations["cycles"]):
        for e1, e2 in pairs:
            rows = _apply_matchings(h.rows, [], base + [e1, e2])
            if _raw_has_one_factor(8, rows):
                return True, None, None
    decorations = {k: str(v) for k, v in inst.decorations.items()}
    return _as_built(h, f"no path-pair plus matching-pair leaves a 1-factor ({kind})", decorations=decorations)


def _trial_k_kplus1(rng: random.Random) -> TrialResult:
    k = 3
    cover_k = 2 * k - 1
    for _ in range(200):
        n = 5 + _below(rng, 3)
        edges = {tuple(sorted(e)) for e in combinations(range(n), 2) if rng.random() < 0.5}
        g = graph_from_edges(n, edges)
        deg = g.degrees()
        light = ((a, b) for u, v in g.sorted_edges() for a, b in ((u, v), (v, u)) if deg[a] == k and deg[b] <= k + 1)
        if pick := next(light, None):
            break
    else:
        return True, None, "no qualifying edge found"
    v = pick[0]
    perms = [Perm(tuple(_sample(rng, range(cover_k), cover_k))) for _ in g.sorted_edges()]
    arcs = dict(zip(g.sorted_edges(), perms))
    cover = CorrespondenceCover(g, cover_k, arcs)
    reduced_graph = graph_from_edges(g.n, [e for e in g.edges if v not in e])
    reduced = CorrespondenceCover(
        reduced_graph, cover_k, {e: p for e, p in arcs.items() if v not in e}
    )
    if solve_packing(reduced) is None:
        return True, None, None  # hypothesis unmet: G - v does not pack
    if solve_packing(cover) is None:
        return (
            False,
            {
                "note": "G-v packs but G does not, despite the light edge",
                "n": g.n,
                "edges": [list(e) for e in g.sorted_edges()],
                "edge": list(pick),
            },
            None,
        )
    return True, None, None


# ---------------------------------------------------------------------------
# Registry and runner.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LemmaSpec:
    name: str
    trial: Callable[[random.Random], TrialResult]
    exhaustive: Callable[[], Iterable[TrialResult]] | None
    default_trials: int


REGISTRY: dict[str, LemmaSpec] = {
    spec.name: spec
    for spec in [
        LemmaSpec("easy_prop", _trial_easy_prop, lambda: (_check(h, _half_degree, _broken_easy_prop) for h in _iter_4x4(2)), 100_000),
        LemmaSpec("matching_lem_1", _trial_matching_lem_1, None, 100_000),
        LemmaSpec("matching_lem_2", _trial_matching_lem_2, None, 100_000),
        LemmaSpec("one_gives_two", _trial_one_gives_two, None, 100_000),
        LemmaSpec("canalwaysswap", lambda rng: _check(random_st_bigraph(rng, 4, 2), _half_degree, _broken_canalwaysswap), lambda: (_check(h, _half_degree, _broken_canalwaysswap) for h in _iter_4x4(2)), 100_000),
        LemmaSpec("girth5_condition", lambda rng: _check(random_st_bigraph(rng, 4, 1, p=0.35), _degree_one, _broken_girth5_condition), lambda: (_check(h, _degree_one, _broken_girth5_condition) for h in _iter_4x4(1)), 100_000),
        LemmaSpec("type_prop", _trial_type_prop, None, 100_000),
        LemmaSpec("matching_inc", _trial_matching_inc, None, 100_000),
        LemmaSpec("switcher_general_type1", lambda rng: _switcher_trial(rng, 1), None, 100_000),
        LemmaSpec("switcher_general_type2", lambda rng: _switcher_trial(rng, 2), None, 100_000),
        LemmaSpec("switcher_general_type3", lambda rng: _switcher_trial(rng, 3), None, 100_000),
        LemmaSpec("switcher_general_type4", lambda rng: _switcher_trial(rng, 4), None, 100_000),
        LemmaSpec("switcher_simple", _trial_switcher_simple, None, 100_000),
        LemmaSpec("switcher_double_k4", lambda rng: _trial_switcher_double(rng, 4), None, 100_000),
        LemmaSpec("switcher_double_k5", lambda rng: _trial_switcher_double(rng, 5), None, 100_000),
        LemmaSpec("key1factor", lambda rng: _trial_key1factor(rng, "cycle10_plus_M5"), None, 100_000),
        LemmaSpec("key1factorB", lambda rng: _trial_key1factor(rng, "cycle6_4_plus_M5"), None, 100_000),
        LemmaSpec("k_kplus1", _trial_k_kplus1, None, 300),
    ]
}


def verify(
    name: str,
    trials: int | None = None,
    seed: int = 0,
    exhaustive: bool = False,
) -> VerifierReport:
    """Run one registered verifier and report.

    Randomized runs draw each trial from ``Random(seed * stride + index)``,
    so reports are reproducible and trials are independent of each other.
    The seed must be nonnegative: ``Random`` seeds by absolute value, so a
    negative seed would replay the trials of other seeds under its own name.
    An exhaustive run checks every enumerated instance and takes neither a
    trial count nor a seed.  Randomized counterexamples record their
    ``trial`` index.
    """

    spec = REGISTRY.get(name)
    if spec is None:
        raise ValueError(f"unknown lemma {name!r}; known: {', '.join(sorted(REGISTRY))}")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    if exhaustive:
        if trials is not None:
            raise ValueError("an exhaustive run takes no trial count")
        if seed != 0:
            raise ValueError("an exhaustive run takes no seed")
        if spec.exhaustive is None:
            raise ValueError(f"lemma {name!r} has no exhaustive enumeration")
        results = ((None, result) for result in spec.exhaustive())
        strategy = "exhaustive"
    else:
        n = trials if trials is not None else spec.default_trials
        if n < 1:
            raise ValueError(f"trials must be positive, got {n}")
        results = ((i, spec.trial(random.Random(seed * _SEED_STRIDE + i))) for i in range(n))
        strategy = f"randomized(trials={n})"
    counterexamples: list[dict] = []
    warnings: list[str] = []
    checked = 0
    for trial, (ok, failure, warning) in results:
        checked += 1
        if warning and warning not in warnings:
            warnings.append(warning)
        if not ok and failure is not None and len(counterexamples) < MAX_COUNTEREXAMPLES:
            if callable(failure):
                failure = failure()
            counterexamples.append(failure if trial is None else dict(failure, trial=trial))
    return VerifierReport(
        lemma=name,
        strategy=strategy,
        instances_checked=checked,
        counterexamples=counterexamples,
        warnings=warnings,
        seed=seed,
    )

import random
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from listpacking.bigraph import (
    Bigraph,
    _raw_allowed_columns,
    _raw_column_masks,
    _raw_obstructions,
    _raw_one_factors,
    Obstruction,
    allowed_edges,
    bigraph_from_edges,
    bigraph_from_json,
    bigraph_to_json,
    bits,
    classify_obstruction,
    degree_profile,
    hall_violator,
    has_one_factor,
    is_st,
    max_matching,
    removable_edges,
    swap,
)
from listpacking.lemmas import planted_obstruction
from oracles import (
    count_one_factors,
    oracle_one_factor_count,
    reference_column_masks,
    reference_obstructions,
    reference_one_factors,
)

# the four reference obstruction shapes (types 1..4, reading clockwise from
# the canonical drawings): X rows see three columns, the rest see the others
TYPE1 = Bigraph(8, (7, 7, 7, 7, 7, 248, 248, 248))
TYPE2 = Bigraph(8, (7, 7, 7, 7, 0b1011, 248, 240, 248))
TYPE3 = Bigraph(8, (7, 7, 7, 7, 0b11001, 248, 248, 248))
TYPE4 = Bigraph(8, (7, 7, 7, 7, 248, 248, 248, 248))


def bigraphs(max_s=6):
    return st.integers(1, max_s).flatmap(
        lambda s: st.builds(
            lambda rows: Bigraph(s, tuple(rows)),
            st.lists(st.integers(0, (1 << s) - 1), min_size=s, max_size=s),
        )
    )


class TestMatching:
    def test_k44(self):
        assert len(max_matching(Bigraph(4, (15,) * 4))) == 4

    def test_all_zero(self):
        assert len(max_matching(Bigraph(3, (0, 0, 0)))) == 0

    def test_reference_instance(self):
        assert len(max_matching(TYPE1)) == 6

    def test_every_4_2_bigraph_has_factor_sample(self):
        rng = random.Random(0)
        for _ in range(300):
            rows = [rng.randrange(16) for _ in range(4)]
            h = Bigraph(4, tuple(rows))
            if is_st(h, 4, 2):
                assert has_one_factor(h)

    def test_deterministic(self):
        h = Bigraph(5, (7, 7, 28, 28, 31))
        assert max_matching(h) == max_matching(Bigraph(5, h.rows))

    @given(bigraphs())
    @settings(max_examples=200, deadline=None)
    def test_matching_is_valid(self, h):
        m = max_matching(h)
        assert len({i for i, _ in m}) == len(m) == len({j for _, j in m})
        for i, j in m:
            assert h.has_edge(i, j)


class TestHallDuality:
    @given(bigraphs())
    @settings(max_examples=300, deadline=None)
    def test_three_way_equivalence(self, h):
        factor = has_one_factor(h)
        assert (hall_violator(h) is None) == factor
        assert (count_one_factors(h) > 0) == factor

    def test_three_way_equivalence_exhaustive_small(self):
        # every labeled bigraph with part size at most 3, plus all of s=4
        for s in (1, 2, 3):
            for rows in product(range(1 << s), repeat=s):
                h = Bigraph(s, rows)
                factor = has_one_factor(h)
                assert (hall_violator(h) is None) == factor
                assert (count_one_factors(h) > 0) == factor
        for code in range(1 << 16):
            rows = (code & 15, code >> 4 & 15, code >> 8 & 15, code >> 12 & 15)
            h = Bigraph(4, rows)
            assert has_one_factor(h) == (count_one_factors(h) > 0)

    def test_three_way_equivalence_random_s8(self):
        rng = random.Random(11)
        for _ in range(400):
            s = rng.randrange(5, 9)
            h = Bigraph(s, tuple(rng.randrange(1 << s) for _ in range(s)))
            factor = has_one_factor(h)
            assert (hall_violator(h) is None) == factor
            assert (count_one_factors(h) > 0) == factor

    @given(bigraphs(max_s=5))
    @settings(max_examples=200, deadline=None)
    def test_violator_is_maximum_cardinality(self, h):
        got = hall_violator(h)
        best = 0
        for size in range(1, h.s + 1):
            for comb in combinations(range(h.s), size):
                n = 0
                for i in comb:
                    n |= h.rows[i]
                if n.bit_count() < size:
                    best = max(best, size)
        if got is None:
            assert best == 0
        else:
            x, nbhd = got
            n = 0
            for i in x:
                n |= h.rows[i]
            assert {j for j in range(h.s) if n >> j & 1} == set(nbhd)
            assert len(nbhd) < len(x) == best

    def test_examples(self):
        h = Bigraph(2, (1, 1))
        assert hall_violator(h) == (frozenset({0, 1}), frozenset({0}))
        x, nbhd = hall_violator(TYPE1)
        assert (len(x), len(nbhd)) == (5, 3)
        rng = random.Random(1)
        for _ in range(100):
            rows = [rng.randrange(64) | 1 << rng.randrange(6) for _ in range(6)]
            h = Bigraph(6, tuple(rows))
            if is_st(h, 6, 3):
                assert hall_violator(h) is None  # (2t,t)-bigraph


class TestCounting:
    def test_examples(self):
        assert count_one_factors(Bigraph(4, (15,) * 4)) == 24
        assert count_one_factors(Bigraph(3, (0b110, 0b101, 0b011))) == 2
        two_blocks = Bigraph(6, tuple([0b000111] * 3 + [0b111000] * 3))
        assert count_one_factors(two_blocks) == 36

    @given(bigraphs())
    @settings(max_examples=150, deadline=None)
    def test_matches_enumeration(self, h):
        assert count_one_factors(h) == oracle_one_factor_count(h)
        assert count_one_factors(h) == sum(1 for _ in _raw_one_factors(h.s, h.rows))


class TestAllowedAndRemovable:
    @given(bigraphs(max_s=5))
    @settings(max_examples=150, deadline=None)
    def test_allowed_matches_brute_force(self, h):
        got = allowed_edges(h)
        if not has_one_factor(h):
            assert got is None
            return
        expected = set()
        for cols in _raw_one_factors(h.s, h.rows):
            expected.update((i, j) for i, j in enumerate(cols))
        assert got == frozenset(expected)

    @given(bigraphs(max_s=5))
    @settings(max_examples=150, deadline=None)
    def test_removable_matches_brute_force(self, h):
        for cols in _raw_one_factors(h.s, h.rows):
            m = frozenset(enumerate(cols))
            expected = set()
            for i, j in m:
                rows = list(h.rows)
                rows[i] &= ~(1 << j)
                if has_one_factor(Bigraph(h.s, tuple(rows))):
                    expected.add((i, j))
            assert removable_edges(h, m) == frozenset(expected)

    @staticmethod
    def _allowed_from_every_factor(s, rows):
        factors = list(_raw_one_factors(s, rows))
        union = [0] * s
        for cols in factors:
            for i, j in enumerate(cols):
                union[i] |= 1 << j
        for cols in factors:
            assert _raw_allowed_columns(s, rows, cols) == union
        return bool(factors)

    def test_allowed_from_any_factor_all_4x4(self):
        with_factor = 0
        for code in range(1 << 16):
            rows = tuple(code >> (4 * i) & 15 for i in range(4))
            with_factor += self._allowed_from_every_factor(4, rows)
        assert with_factor == 37_823

    def test_allowed_from_any_factor_eight_three(self):
        rng = random.Random(8)
        done = 0
        while done < 500:
            rows = tuple(sum(1 << j for j in rng.sample(range(8), rng.choice((3, 4)))) for _ in range(8))
            if is_st(Bigraph(8, rows), 8, 3):
                done += self._allowed_from_every_factor(8, rows)

    def test_k44_all_removable(self):
        h = Bigraph(4, (15,) * 4)
        m = max_matching(h)
        assert removable_edges(h, m) == m

    def test_eight_cycle(self):
        # C_8 as a 2-regular bigraph: deleting any single factor edge leaves
        # the complementary factor intact
        c8 = Bigraph(4, (0b0011, 0b0110, 0b1100, 0b1001))
        m = max_matching(c8)
        assert removable_edges(c8, m) == m

    def test_requires_one_factor(self):
        h = Bigraph(3, (0b110, 0b101, 0b011))
        with pytest.raises(ValueError):
            removable_edges(h, frozenset({(0, 1)}))
        # one pair per A-vertex, all edges of h, but b_0 is used twice
        with pytest.raises(ValueError):
            removable_edges(Bigraph(3, (0b011, 0b011, 0b100)), frozenset({(0, 0), (1, 0), (2, 2)}))

    def test_eight_three_sample(self):
        rng = random.Random(3)
        for _ in range(50):
            rows = [rng.randrange(256) for _ in range(8)]
            h = Bigraph(8, tuple(rows))
            if not is_st(h, 8, 3) or not has_one_factor(h):
                continue
            assert len(removable_edges(h, max_matching(h))) >= 6


class TestSwapAndProfiles:
    @given(bigraphs())
    @settings(max_examples=100, deadline=None)
    def test_swap_involution(self, h):
        assert swap(swap(h)) == h

    def test_swap_mirrors(self):
        h = bigraph_from_edges(5, [(0, 1), (2, 3), (4, 0)])
        assert swap(h) == bigraph_from_edges(5, [(1, 0), (3, 2), (0, 4)])

    def test_profiles(self):
        assert is_st(Bigraph(4, (15,) * 4), 4, 4)
        for fig in (TYPE1, TYPE2, TYPE3, TYPE4):
            assert is_st(fig, 8, 3)
        assert is_st(Bigraph(1, (0,)), 1, 0)
        assert not is_st(Bigraph(1, (0,)), 1, 1)
        a, b = degree_profile(TYPE2)
        assert a == tuple(sorted(r.bit_count() for r in TYPE2.rows))
        assert sum(a) == sum(b)


class TestClassification:
    def test_reference_types(self):
        for expect, fig in ((1, TYPE1), (2, TYPE2), (3, TYPE3), (4, TYPE4)):
            obs = classify_obstruction(fig)
            assert obs is not None and obs.otype == expect and obs.side == "A"
            assert len(obs.x) == (5 if expect == 1 else 4)
            assert len(obs.nbhd) == 3

    def test_witnesses(self):
        obs = classify_obstruction(TYPE2)
        assert obs.x1 == 4 and obs.e1 == (4, 3) and obs.e2 is None
        obs = classify_obstruction(TYPE3)
        assert obs.x1 == 4 and obs.e1 == (4, 3) and obs.e2 == (4, 4)

    def test_b_side(self):
        obs = classify_obstruction(swap(TYPE3))
        assert obs is not None and obs.otype == 3 and obs.side == "B"

    def test_one_factor_means_none(self):
        assert classify_obstruction(Bigraph(8, (255,) * 8)) is None

    def test_requires_s8(self):
        with pytest.raises(ValueError):
            classify_obstruction(Bigraph(4, (15,) * 4))

    def test_degenerate_input_rejected(self):
        # a row of degree 1 admits no typed category
        rows = (1, 1, 255, 255, 255, 255, 255, 255)
        with pytest.raises(ValueError):
            classify_obstruction(Bigraph(8, rows))

    def test_soundness_re_check(self):
        obs = classify_obstruction(TYPE1)
        n = 0
        for i in obs.x:
            n |= TYPE1.rows[i]
        assert {j for j in range(8) if n >> j & 1} == set(obs.nbhd)



def _random_row_sets(count, seed):
    """8x8 row sets of mixed density, sparse enough that many have typed
    obstructions."""

    rng = random.Random(seed)
    out = []
    for _ in range(count):
        p = rng.choice((0.2, 0.35, 0.5))
        out.append(tuple(sum(1 << j for j in range(8) if rng.random() < p) for _ in range(8)))
    return out


def _planted_row_sets():
    out = []
    for otype in (1, 2, 3, 4):
        for seed in range(50):
            h = planted_obstruction(random.Random(seed), otype).h
            out += [h.rows, swap(h).rows]
    return out


def _reference_classification(h):
    """``classify_obstruction`` spelled out over ``reference_obstructions``."""

    if has_one_factor(h):
        return None
    for otype in (1, 2, 3, 4):
        for side, rows in (("A", h.rows), ("B", reference_column_masks(8, h.rows))):
            for x, n, x1, cols in reference_obstructions(rows, otype):
                e1 = (x1, cols[0]) if cols else None
                e2 = (x1, cols[1]) if otype == 3 else None
                return Obstruction(side, frozenset(x), frozenset(bits(n)), otype, x1, e1, e2)
    return "ValueError"


class TestKernelsAgainstReferences:
    @pytest.mark.parametrize("s", range(5))
    def test_one_factors_on_every_row_set(self, s):
        # every row set up to 4x4, s = 0 and empty rows included
        found = 0
        for rows in product(range(1 << s), repeat=s):
            got = list(_raw_one_factors(s, rows))
            assert got == list(reference_one_factors(s, rows))
            found += len(got)
        assert found  # the comparison is not vacuous

    @given(bigraphs(max_s=8))
    @settings(max_examples=300, deadline=None)
    def test_one_factors_on_bigraphs(self, h):
        assert list(_raw_one_factors(h.s, h.rows)) == list(reference_one_factors(h.s, h.rows))

    def test_column_masks(self):
        rng = random.Random(12)
        for trial in range(50_000):
            s = trial % 16 + 1
            rows = [rng.getrandbits(s) for _ in range(s)]
            assert _raw_column_masks(s, rows) == reference_column_masks(s, rows)

    @pytest.mark.parametrize("source", ["random", "planted"])
    def test_obstruction_yield_sequences(self, source):
        row_sets = _random_row_sets(2_000, 7) if source == "random" else _planted_row_sets()
        hits = 0
        for rows in row_sets:
            for otype in (1, 2, 3, 4):
                got = list(_raw_obstructions(rows, otype))
                assert got == list(reference_obstructions(rows, otype))
                hits += len(got)
        assert hits > len(row_sets) // 4  # the comparison is not vacuous

    @pytest.mark.parametrize("source", ["random", "planted"])
    def test_classification(self, source):
        row_sets = _random_row_sets(2_000, 7) if source == "random" else _planted_row_sets()
        for rows in row_sets:
            h = Bigraph(8, rows)
            try:
                got = classify_obstruction(h)
            except ValueError:
                got = "ValueError"
            assert got == _reference_classification(h)


class TestJson:
    def test_round_trip(self):
        assert bigraph_from_json(bigraph_to_json(TYPE2)) == TYPE2

    def test_edge_list_form(self):
        h = bigraph_from_json({"s": 3, "edges": [[0, 1], [1, 2], [2, 0]]})
        assert h == bigraph_from_edges(3, [(0, 1), (1, 2), (2, 0)])

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            bigraph_from_json({"s": 3})

    @pytest.mark.parametrize("obj", [{"s": 2, "rows": [1, 2], "x": 1}, {"s": 2, "edges": [[0, 1]], "row": [1, 2]}])
    def test_rejects_unknown_keys(self, obj):
        with pytest.raises(ValueError):
            bigraph_from_json(obj)

    @pytest.mark.parametrize(
        "obj",
        [
            {"s": 2, "rows": [1, 2], "edges": [[0, 1], [1, 0]]},
            {"s": 2, "rows": [3, 3], "edges": [[0, 0], [0, 1], [1, 0], [1, 1]]},
            {"s": 2, "edges": [[0, 1], [1, 0], [0, 1]]},
        ],
    )
    def test_rejects_ambiguous_forms(self, obj):
        # rows beside edges, even agreeing ones, and a repeated edge
        with pytest.raises(ValueError):
            bigraph_from_json(obj)

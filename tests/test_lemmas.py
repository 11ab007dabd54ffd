import hashlib
import json
import random
from itertools import count, product

import pytest

from listpacking.bigraph import Bigraph, bigraph_from_json, bigraph_to_json, classify_obstruction, has_one_factor, is_st
from listpacking.cli import main
from listpacking.lemmas import (
    MAX_COUNTEREXAMPLES,
    REGISTRY,
    LemmaSpec,
    _below,
    _choice,
    _counterexample,
    _planted_cycles,
    _sample,
    _switcher_double_plant,
    planted_obstruction,
    random_st_bigraph,
    shrink_bigraph,
    verify,
)

EXPECTED_NAMES = {
    "easy_prop",
    "matching_lem_1",
    "matching_lem_2",
    "one_gives_two",
    "canalwaysswap",
    "girth5_condition",
    "type_prop",
    "matching_inc",
    "switcher_general_type1",
    "switcher_general_type2",
    "switcher_general_type3",
    "switcher_general_type4",
    "switcher_simple",
    "switcher_double_k4",
    "switcher_double_k5",
    "key1factor",
    "key1factorB",
    "k_kplus1",
}


class TestRegistry:
    def test_names(self):
        assert set(REGISTRY) == EXPECTED_NAMES

    @pytest.mark.parametrize("name", sorted(EXPECTED_NAMES - {"k_kplus1"}))
    def test_small_randomized_run(self, name):
        report = verify(name, trials=400, seed=1)
        assert report.ok, report.counterexamples
        assert report.instances_checked == 400

    def test_k_kplus1_small_run(self):
        report = verify("k_kplus1", trials=40, seed=1)
        assert report.ok, report.counterexamples

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            verify("fermat")

    def test_exhaustive_only_where_supported(self):
        with pytest.raises(ValueError):
            verify("type_prop", exhaustive=True)


class TestExhaustive:
    def test_counts_and_results(self):
        # frozen filtered-instance counts out of all 65,536 labeled matrices
        expected = {"easy_prop": 7343, "canalwaysswap": 7343, "girth5_condition": 41503}
        for name, count in expected.items():
            report = verify(name, exhaustive=True)
            assert report.ok
            assert report.instances_checked == count

    def test_counts_against_independent_filter(self):
        # recount (4,2)- and (4,1)-bigraphs by brute force over row tuples
        def min_degree(rows):
            col = [sum(r >> j & 1 for r in rows) for j in range(4)]
            row = [bin(r).count("1") for r in rows]
            return min(min(row), min(col))

        two = one = 0
        for rows in product(range(16), repeat=4):
            d = min_degree(rows)
            if d >= 2:
                two += 1
            if d >= 1:
                one += 1
        assert two == 7343
        assert one == 41503


class TestDeterminism:
    def test_same_seed_same_report(self):
        a = verify("type_prop", trials=300, seed=9)
        b = verify("type_prop", trials=300, seed=9)
        assert json.dumps(a.as_json(), sort_keys=True) == json.dumps(b.as_json(), sort_keys=True)


class TestFailurePath:
    """``verify`` on a registered lemma that fails on chosen trials."""

    FAILING = {2, 3, 5, 7, 11, 13}
    START = Bigraph(4, (1, 1, 15, 15))  # a (4,1)-bigraph without a 1-factor

    @classmethod
    def check(cls, h):
        failure = _counterexample(h, "planted failure", lambda b: is_st(b, 4, 1), lambda b: not has_one_factor(b))
        return False, failure, "repeated warning"

    @pytest.fixture(autouse=True)
    def fake(self, monkeypatch):
        calls = count()

        def trial(rng):
            i = next(calls)
            if i in self.FAILING:
                return self.check(self.START)
            return True, None, "repeated warning" if i % 4 == 1 else None

        exhaustive = lambda: map(self.check, [self.START] * 7)
        monkeypatch.setitem(REGISTRY, "fake", LemmaSpec("fake", trial, exhaustive, 20))

    def test_randomized(self):
        report = verify("fake")
        assert not report.ok and report.instances_checked == 20
        assert [c["trial"] for c in report.counterexamples] == sorted(self.FAILING)[:MAX_COUNTEREXAMPLES] == [2, 3, 5, 7, 11]
        assert report.warnings == ["repeated warning"]
        c = report.counterexamples[0]
        assert c["note"] == "planted failure" and c["instance"] == bigraph_to_json(self.START)
        shrunk = bigraph_from_json(c["shrunk"])
        assert len(shrunk.edges()) < len(self.START.edges())
        assert is_st(shrunk, 4, 1) and not has_one_factor(shrunk)

    def test_exhaustive(self):
        report = verify("fake", exhaustive=True)
        assert report.instances_checked == 7
        assert len(report.counterexamples) == MAX_COUNTEREXAMPLES
        assert all("trial" not in c for c in report.counterexamples)
        assert report.warnings == ["repeated warning"]

    def test_cli_exit_code(self, capsys):
        assert main(["verify-lemma", "fake", "--trials", "20"]) == 1
        assert len(json.loads(capsys.readouterr().out)["counterexamples"]) == MAX_COUNTEREXAMPLES


class TestShrinker:
    def test_shrinks_false_claim(self):
        # "every (4,1)-bigraph has a 1-factor" is false; the shrinker must
        # keep the precondition and the failure while removing edges
        def pre(h):
            cols = h.column_masks()
            return all(r.bit_count() >= 1 for r in h.rows) and all(c.bit_count() >= 1 for c in cols)

        def fails(h):
            return not has_one_factor(h)

        start = Bigraph(4, (1, 1, 15, 15))
        assert pre(start) and fails(start)
        shrunk = shrink_bigraph(start, pre, fails)
        assert pre(shrunk) and fails(shrunk)
        assert len(shrunk.edges()) <= len(start.edges())
        # local minimum: removing any further edge breaks something
        for i, j in shrunk.edges():
            rows = list(shrunk.rows)
            rows[i] &= ~(1 << j)
            cand = Bigraph(4, tuple(rows))
            assert not (pre(cand) and fails(cand))


class TestDrawHelpers:
    """The draw helpers against the ``Random`` methods they stand in for:
    equal values and equal generator state afterwards."""

    def test_sample(self):
        for n in range(1, 17):
            for k in range(n + 1):
                for seed in range(100):
                    for population in (range(n), [f"v{i}" for i in range(n)]):
                        ours, theirs = random.Random(seed), random.Random(seed)
                        assert _sample(ours, population, k) == theirs.sample(population, k)
                        assert ours.getstate() == theirs.getstate()

    def test_sample_rejects_bad_sizes(self):
        for k in (-1, 4):
            with pytest.raises(ValueError):
                _sample(random.Random(0), range(3), k)

    def test_below_and_choice(self):
        for n in range(1, 40):
            seq = tuple(range(100, 100 + n))
            for seed in range(100):
                ours, theirs = random.Random(seed), random.Random(seed)
                assert _below(ours, n) == theirs.randrange(n)
                assert _choice(ours, seq) == theirs.choice(seq)
                assert ours.getstate() == theirs.getstate()


class TestStructuredBuilders:
    @pytest.mark.parametrize("otype", [1, 2, 3, 4])
    def test_planted_obstructions_classify(self, otype):
        for seed in range(60):
            inst = planted_obstruction(random.Random(seed), otype)
            assert is_st(inst.h, 8, 3)
            obs = classify_obstruction(inst.h)
            assert obs is not None
            assert obs.otype == otype
            assert set(obs.x) == set(inst.decorations["x"])

    def test_cycle10_instance(self):
        inst = _planted_cycles(random.Random(3), (10,))
        assert is_st(inst.h, 8, 4)
        cycles = inst.decorations["cycles"]
        assert len(cycles) == 1 and len(cycles[0]) == 10
        assert len(inst.decorations["matching"]) == 5
        self._check_cycle_edges(inst)

    def test_cycle6_4_instance(self):
        inst = _planted_cycles(random.Random(4), (6, 4))
        assert is_st(inst.h, 8, 4)
        cycles = inst.decorations["cycles"]
        assert sorted(len(c) for c in cycles) == [4, 6]
        verts = [v for c in cycles for v in c]
        assert len(set(verts)) == 10  # vertex disjoint
        self._check_cycle_edges(inst)

    @staticmethod
    def _check_cycle_edges(inst):
        for cyc in inst.decorations["cycles"]:
            n = len(cyc)
            for idx in range(n):
                (sa, va), (sb, vb) = cyc[idx], cyc[(idx + 1) % n]
                assert sa != sb
                i, j = (va, vb) if sa == "a" else (vb, va)
                assert inst.h.has_edge(i, j)
        for i, j in inst.decorations["matching"]:
            assert inst.h.has_edge(i, j)

    def test_violator_kind(self):
        inst = planted_obstruction(random.Random(0), 1)
        assert classify_obstruction(inst.h).otype == 1

    def test_switcher_double_instance(self):
        inst = _switcher_double_plant(random.Random(5), 4)
        assert is_st(inst.h, 8, 3)
        x = inst.decorations["x"]
        tilde = inst.decorations["tilde"]
        rows = list(inst.h.rows)
        for i, j in tilde:
            rows[i] &= ~(1 << j)
        n = 0
        for i in x:
            n |= rows[i]
        assert len(x) - n.bit_count() == 2


class TestGenerators:
    def test_random_st_bigraph(self):
        for seed in range(40):
            rng = random.Random(seed)
            s, t = rng.choice(((4, 2), (6, 3), (8, 3), (8, 4)))
            assert is_st(random_st_bigraph(rng, s, t), s, t)


class TestInstanceStream:
    """sha256 over trials 0..299 of ``repr((trial(rng), rng.getstate()))``
    with ``rng = Random(i)``: every drawn instance, every verdict and the
    generator state each trial leaves behind.  A speedup of the verifiers
    must leave these digests as they are; only a deliberate change of the
    instance distribution may move one, and says so."""

    DIGESTS = {
        "canalwaysswap": "141a38786da73e1981c56170cb842e5aae44db2f76dc10cb91261258d2e0e4a5",
        "easy_prop": "b461fcc8b60fa5634328ab2b6db3fa119961ae104a6bee269cfd4541a316eeae",
        "girth5_condition": "c7e9b25e614bf0bfc9174f9391ec693ee95a19a780aaad97d20b6774cacd4562",
        "key1factor": "2120ea9b1642b2aef059a8513ebb9febad4311f2e1f0ecb33ce12b5cebcb949b",
        "key1factorB": "d5a709ff76b385738b4728bd7a98c019aa2957b11fd6445b74dc31985fc287ea",
        "matching_inc": "70fce0454675dbe42372397b584a94d746d2a47153317d0cf62eb44f467b663d",
        "matching_lem_1": "f15f20c2386341024a309dbf8c32a78525928ee0e1ca85e3c78d012015420a98",
        "matching_lem_2": "b304a2ea390da0d2e16222fab2528f81e72ec4261c0c6010a6cef64738a4d890",
        "one_gives_two": "6759cd44add36f3c0f27667b85a02e7d919200350ab9c0ead2a0c6c17ac05657",
        "switcher_double_k4": "5a079793c496040bab6c4a43b7a10bf2dc739bbf248554f9d76c850df2f90084",
        "switcher_double_k5": "9a17d6acd6bd72092f4891bdb22630d252231dec0af138e8aa86c8b69fa9d1e2",
        "switcher_general_type1": "e84d92b928048c4e828cf57d08d0030e14bc2cd57277bdc99d51aa4bede045eb",
        "switcher_general_type2": "e1bf9161527d778b53959c5de903652c9a45cfd98ed6805d670692d3028a8220",
        "switcher_general_type3": "2df9ff00581e84040201dc3ac4bf63c571ddfc81b9c10c775daf0064e67e7f7c",
        "switcher_general_type4": "b012e2b2cf3494b8a352e11a93da877817f251afde3256fa72096b82e51609c3",
        "switcher_simple": "54abd4fe6836e4f863ad8be555523dba7cd591dd672272356b8e9bc871fdcbd3",
        "type_prop": "2e77f2e29b0e972d640646a8b7f94888c5c6fd5b720bcdee6b089353591013a1",
    }

    def test_covers_every_cheap_randomized_verifier(self):
        assert set(self.DIGESTS) == {name for name, spec in REGISTRY.items() if spec.trial} - {"k_kplus1"}

    @pytest.mark.parametrize("name", sorted(DIGESTS))
    def test_digest(self, name):
        trial = REGISTRY[name].trial
        digest = hashlib.sha256()
        for i in range(300):
            rng = random.Random(i)
            digest.update(repr((trial(rng), rng.getstate())).encode())
        assert digest.hexdigest() == self.DIGESTS[name]

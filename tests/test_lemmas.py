import ast
import hashlib
import json
import random
from itertools import count, product
from pathlib import Path

import pytest

from listpacking import lemmas
from listpacking.bigraph import (
    Bigraph,
    allowed_edges,
    bigraph_from_json,
    bigraph_to_json,
    classify_obstruction,
    degree_profile,
    has_one_factor,
    is_st,
    max_matching,
    removable_edges,
)
from listpacking.cli import main
from listpacking.lemmas import (
    MAX_COUNTEREXAMPLES,
    REGISTRY,
    _SEED_STRIDE,
    LemmaSpec,
    _below,
    _check,
    _choice,
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
        ok, failure, _ = _check(h, lambda b: is_st(b, 4, 1), lambda b: None if has_one_factor(b) else "planted failure")
        return ok, failure, "repeated warning"

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


class TestLazyShrinking:
    """With ``has_one_factor`` answering no, every easy_prop instance fails.
    ``verify`` shrinks only the counterexamples it keeps, and its report is
    the one it made when every failing trial was shrunk."""

    # sha256 of json.dumps(report.as_json()) from the verifier that shrank
    # every failure
    REPORTS = {
        "randomized": ({"trials": 200}, "a3d124e168ef78edd35600f2769d16149b3cf0c503f205872ec09ed3dfa52f9d"),
        "exhaustive": ({"exhaustive": True}, "2f970d508f9d1a155fd16f7745ac9cc03f6a1f2f4b156665e8bd3497a0d0f24b"),
    }

    @pytest.fixture
    def shrinks(self, monkeypatch):
        monkeypatch.setattr(lemmas, "has_one_factor", lambda h: False)
        calls = count()
        shrink = lemmas.shrink_bigraph
        monkeypatch.setattr(lemmas, "shrink_bigraph", lambda *args: (next(calls), shrink(*args))[1])
        return calls

    @pytest.mark.parametrize("strategy", sorted(REPORTS))
    def test_shrinks_only_kept(self, shrinks, strategy):
        report = verify("easy_prop", **self.REPORTS[strategy][0])
        assert report.instances_checked > len(report.counterexamples) == MAX_COUNTEREXAMPLES
        assert next(shrinks) == MAX_COUNTEREXAMPLES

    @pytest.mark.parametrize("strategy", sorted(REPORTS))
    def test_report_unchanged(self, shrinks, strategy):
        kwargs, digest = self.REPORTS[strategy]
        report = verify("easy_prop", **kwargs)
        assert hashlib.sha256(json.dumps(report.as_json()).encode()).hexdigest() == digest


def _fault(real, wrong):
    """A kernel that answers ``wrong`` on instances with the edge (0, 0)
    and is right elsewhere, so a lemma fails on some draws and a shrunk
    counterexample must keep that edge."""

    return lambda b, *args: wrong(b, *args) if b.has_edge(0, 0) else real(b, *args)


def _draw_with_factor(rng, s, t, p):
    for _ in range(50):
        h = random_st_bigraph(rng, s, t, p)
        if has_one_factor(h):
            return h


def _draw_matching_inc(rng):
    if rng.random() < 0.5:
        return planted_obstruction(rng, 4).h
    rows = list(random_st_bigraph(rng, 8, 1, 0.5).rows)
    for i in range(8):
        while rows[i].bit_count() < rng.choice((3, 4)):
            rows[i] |= 1 << rng.randrange(8)
    return Bigraph(8, tuple(rows))


def _meets(h, mins):
    return all(d >= m for part in degree_profile(h) for d, m in zip(part, mins))


# (lemma, kernel patches, the trial's draw replayed with Random's own
# methods, expected note, precondition, the lemma's failure statement or
# None when the failure is reported as built)
FAILURES = {
    "easy_prop": (
        "easy_prop",
        {"has_one_factor": _fault(has_one_factor, lambda b: False)},
        lambda rng: random_st_bigraph(rng, 2 * (t := rng.choice((3, 4))), t),
        lambda h: f"({h.s},{h.s // 2})-bigraph without 1-factor",
        lambda b: is_st(b, b.s, b.s // 2),
        "_broken_easy_prop",
    ),
    "matching_lem_1-no-factor": (
        "matching_lem_1",
        {"allowed_edges": _fault(allowed_edges, lambda b: None)},
        lambda rng: random_st_bigraph(rng, 2 * (k := rng.choice((2, 3))) + 1, k + 1),
        lambda h: f"({h.s},{h.s // 2 + 1})-bigraph without 1-factor",
        lambda b: is_st(b, b.s, b.s // 2 + 1),
        "_broken_matching_lem_1",
    ),
    "matching_lem_1-unused-edge": (
        "matching_lem_1",
        {"allowed_edges": _fault(allowed_edges, lambda b: allowed_edges(b) - {(0, 0)})},
        lambda rng: random_st_bigraph(rng, 2 * (k := rng.choice((2, 3))) + 1, k + 1),
        lambda h: "edges in no 1-factor: [(0, 0)]",
        lambda b: is_st(b, b.s, b.s // 2 + 1),
        "_broken_matching_lem_1",
    ),
    "one_gives_two": (
        "one_gives_two",
        {"allowed_edges": _fault(allowed_edges, lambda b: allowed_edges(b) and max_matching(b))},
        lambda rng: _draw_with_factor(rng, 2 * (k := rng.choice((2, 3))) + 1, k, 0.45),
        lambda h: f"{h.s} A-vertices lack two usable incident edges",
        lambda b: is_st(b, b.s, b.s // 2) and has_one_factor(b),
        "_broken_one_gives_two",
    ),
    "canalwaysswap-no-factor": (
        "canalwaysswap",
        {"allowed_edges": _fault(allowed_edges, lambda b: None)},
        lambda rng: random_st_bigraph(rng, 4, 2),
        lambda h: "(4,2)-bigraph without 1-factor",
        lambda b: is_st(b, 4, 2),
        "_broken_canalwaysswap",
    ),
    "canalwaysswap-few-usable": (
        "canalwaysswap",
        {"allowed_edges": _fault(allowed_edges, lambda b: max_matching(b))},
        lambda rng: random_st_bigraph(rng, 4, 2),
        lambda h: "vertex with fewer than two usable incident edges",
        lambda b: is_st(b, 4, 2),
        "_broken_canalwaysswap",
    ),
    "girth5_condition": (
        "girth5_condition",
        {"has_one_factor": _fault(has_one_factor, lambda b: False)},
        lambda rng: random_st_bigraph(rng, 4, 1, p=0.35),
        lambda h: "no 1-factor and no shared-degree-1 pair",
        lambda b: is_st(b, 4, 1),
        "_broken_girth5_condition",
    ),
    "matching_inc-tight-block": (
        "matching_inc",
        {"_tight_block": _fault(lemmas._tight_block, lambda b: False)},
        _draw_matching_inc,
        lambda h: "degree profile met, no 1-factor, and no tight low-degree block",
        lambda b: _meets(b, (1, 2, 3, 3, 4, 4, 4, 4)) and not has_one_factor(b),
        "_broken_tight_block",
    ),
    "matching_inc-strong-profile": (
        "matching_inc",
        {"has_one_factor": _fault(has_one_factor, lambda b: False), "_tight_block": lambda b: True},
        _draw_matching_inc,
        lambda h: "strong degree profile without 1-factor",
        None,
        None,
    ),
    "switcher_simple": (
        "switcher_simple",
        {"removable_edges": _fault(removable_edges, lambda b, m: frozenset())},
        lambda rng: _draw_with_factor(rng, 8, 3, 0.4),
        lambda h: "only 0 removable 1-factor edges",
        lambda b: is_st(b, 8, 3) and has_one_factor(b),
        "_broken_switcher_simple",
    ),
}


class TestLemmaFailures:
    """Each lemma's own failure path, forced by a kernel that is wrong on
    the draws with the edge (0, 0): the report names the drawn instance,
    and a shrunk one keeps the precondition, still breaks the lemma and
    has no more edges."""

    @pytest.mark.parametrize("case", sorted(FAILURES))
    def test_failure_is_reported(self, monkeypatch, case):
        name, patches, draw, note, pre, broken = FAILURES[case]
        for attr, fake in patches.items():
            monkeypatch.setattr(lemmas, attr, fake)

        def forced(seed):
            # the seed's first trial fails, and its instance keeps the
            # precondition without (0, 0), so only the failure keeps that edge
            if REGISTRY[name].trial(random.Random(seed * _SEED_STRIDE))[0]:
                return False
            h = draw(random.Random(seed * _SEED_STRIDE))
            return pre is None or pre(Bigraph(h.s, (h.rows[0] & ~1,) + h.rows[1:]))

        seed = next(filter(forced, count()))
        report = verify(name, trials=1, seed=seed)
        assert not report.ok
        (c,) = report.counterexamples
        drawn = draw(random.Random(seed * _SEED_STRIDE))
        assert c["trial"] == 0 and c["note"] == note(drawn)
        assert bigraph_from_json(c["instance"]) == drawn
        if broken is None:
            assert "shrunk" not in c
            return
        shrunk = bigraph_from_json(c["shrunk"])
        assert pre(shrunk)
        assert getattr(lemmas, broken)(shrunk) is not None
        assert len(shrunk.edges()) <= len(drawn.edges())


def _enclosing(tree):
    """(name of the innermost enclosing function or "<module>", node) for
    every node of ``tree``."""

    def walk(node, owner):
        for child in ast.iter_child_nodes(node):
            yield owner, child
            yield from walk(child, child.name if isinstance(child, ast.FunctionDef) else owner)

    return walk(tree, "<module>")


def test_one_shrinkable_check_and_one_record_builder():
    # each failure is stated once: only _check shrinks, and only
    # _counterexample and _as_built build an {"instance": ...} record
    sites = list(_enclosing(ast.parse(Path(lemmas.__file__).read_text())))
    shrinks = [owner for owner, node in sites if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_counterexample"]
    records = [
        owner
        for owner, node in sites
        if isinstance(node, ast.Dict) and any(isinstance(key, ast.Constant) and key.value == "instance" for key in node.keys)
    ]
    assert shrinks == ["_check"]
    assert sorted(records) == ["_as_built", "_counterexample"]


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

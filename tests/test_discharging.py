import dataclasses
import hashlib
import json
import random
from fractions import Fraction
from itertools import combinations
from math import inf

import pytest
from hypothesis import given, settings, strategies as st

from listpacking.constructive import ClassViolationError, find_reduction
from listpacking.discharging import (
    RULES,
    ChargeLedger,
    Clause,
    DischargingRule,
    discharge_audit,
    generate_rule_instance,
    passes_exclusions,
)
from listpacking.graphs import Graph, generate, graph_from_edges


def small_graphs():
    return st.integers(1, 8).flatmap(
        lambda n: st.builds(
            lambda edges: graph_from_edges(n, edges),
            st.sets(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1]),
                max_size=12,
            ),
        )
    )


class TestAudit:
    def test_k34_p4_example(self):
        g = generate("complete_bipartite", 3, 4)
        ledger = discharge_audit(g, RULES["P4"])
        final = ledger.final
        # part of size 3 has degree 4; part of size 4 has degree 3
        assert all(final[v] == Fraction(8, 3) for v in range(3))
        assert all(final[v] == Fraction(4) for v in range(3, 7))

    def test_empty_graph(self):
        g = Graph(3, frozenset())
        ledger = discharge_audit(g, RULES["P4"])
        assert ledger.final == ledger.initial == (Fraction(0),) * 3

    def test_icosahedron_p4(self):
        # no 3-vertices at all: charges never move
        g = generate("icosahedron")
        ledger = discharge_audit(g, RULES["P4"])
        assert ledger.transfers == ()
        assert ledger.min_final() == 5

    def test_dodecahedron_p5_fails_exclusions(self):
        # 3-regular: every 3-vertex has two 3-neighbors, and the rule's
        # bound does not apply (the audit comes out below 10/3)
        g = generate("dodecahedron")
        assert not passes_exclusions(g, "P5")
        ledger = discharge_audit(g, RULES["P5"])
        assert ledger.min_final() == 3 < Fraction(10, 3)

    @given(small_graphs())
    @settings(max_examples=100, deadline=None)
    def test_conservation(self, g):
        for rule in RULES.values():
            ledger = discharge_audit(g, rule)
            assert sum(ledger.final) == sum(ledger.initial) == 2 * g.m
            assert ledger.conserved()

    def test_positive_amounts_only(self):
        with pytest.raises(ValueError):
            Clause(0, inf, 0, inf, Fraction(0))

    def test_openb_clause(self):
        (clause,) = RULES["openB"].clauses
        assert clause.amount == Fraction(1, 4)
        assert clause.applies(3, 5) and not clause.applies(4, 5)


def all_graphs(max_n: int = 10):
    """Graphs on at most ``max_n`` vertices, about a quarter, a half or three
    quarters of the pairs being edges."""

    def on(n, density):
        pairs = list(combinations(range(n), 2))
        return st.lists(st.integers(0, 3), min_size=len(pairs), max_size=len(pairs)).map(
            lambda draws: graph_from_edges(n, [e for e, d in zip(pairs, draws) if d < density])
        )

    return st.tuples(st.integers(0, max_n), st.integers(1, 3)).flatmap(lambda nd: on(*nd))


def _five_with_four_threes():
    # center 0 of degree 5 sees four 3-vertices (1..4) and vertex 5 of the
    # K6 on 5..10; each 3-vertex sees two more K6 vertices, so every other
    # degree is at least 6
    edges = [(0, i) for i in range(1, 6)] + list(combinations(range(5, 11), 2))
    edges += [(1, 6), (1, 7), (2, 8), (2, 9), (3, 10), (3, 6), (4, 7), (4, 8)]
    return graph_from_edges(11, edges)


# (rule, configuration, a graph in which that is the rule's only configuration)
NEEDED = [
    ("P4", "low_degree_vertex", generate("cycle", 5)),
    ("P4", "light_edge", generate("complete_bipartite", 3, 4)),
    ("P4", "five_with_four_threes", _five_with_four_threes()),
    ("P5", "low_degree_vertex", generate("cycle", 5)),
    ("P5", "path_3_3_3", generate("dodecahedron")),
    ("openB", "low_degree_vertex", generate("cycle", 5)),
    ("openB", "light_edge", generate("complete_bipartite", 3, 4)),
]

# the packer regime whose reductions are each rule's exclusions
REGIME_OF_RULE = {"P4": "mad4_k5", "P5": "girth5_k4"}


def reduces(g, regime: str) -> bool:
    try:
        find_reduction(g, regime)
    except ClassViolationError:
        return False
    return True


class TestExclusions:
    @pytest.mark.parametrize("rule_name, name, g", NEEDED, ids=[f"{r}-{c}" for r, c, _ in NEEDED])
    def test_each_configuration_is_needed(self, monkeypatch, rule_name, name, g):
        # the graph fails the rule, and passes once that configuration goes
        assert not passes_exclusions(g, rule_name)
        rule = RULES[rule_name]
        kept = tuple(c for c in rule.exclusions if c[0] != name)
        assert len(kept) == len(rule.exclusions) - 1
        monkeypatch.setitem(RULES, rule_name, dataclasses.replace(rule, exclusions=kept))
        assert passes_exclusions(g, rule_name)

    def test_p5_passes_k34_at_its_threshold(self):
        # every 3-vertex sees only 4-vertices: no light path, and each
        # 4-vertex gives away 4 * 1/6, landing exactly on 10/3
        g = generate("complete_bipartite", 3, 4)
        assert passes_exclusions(g, "P5")
        assert discharge_audit(g, RULES["P5"]).min_final() == RULES["P5"].threshold

    @given(all_graphs())
    @settings(max_examples=300, deadline=None)
    def test_rule_passes_exactly_when_regime_cannot_reduce(self, g):
        for rule_name, regime in REGIME_OF_RULE.items():
            assert passes_exclusions(g, rule_name) is not reduces(g, regime)

    @pytest.mark.parametrize("instance_rule", sorted(RULES))
    def test_instances_pass_exactly_when_regime_cannot_reduce(self, instance_rule):
        for seed in range(30):
            g = generate_rule_instance(instance_rule, seed)
            for rule_name, regime in REGIME_OF_RULE.items():
                assert passes_exclusions(g, rule_name) is not reduces(g, regime)

    def test_p4_catches_light_edge(self):
        assert not passes_exclusions(generate("complete_bipartite", 3, 4), "P4")

    def test_p4_catches_min_degree(self):
        assert not passes_exclusions(generate("cycle", 5), "P4")

    def test_openb(self):
        # 3-vertices adjacent only to degree >= 5 pass; a (3,4) edge fails
        g = generate("complete_bipartite", 3, 4)
        assert not passes_exclusions(g, "openB")

    def test_unknown_rule(self):
        with pytest.raises(ValueError):
            passes_exclusions(generate("path", 2), "P6")


class TestGeneratedInstances:
    @pytest.mark.parametrize("rule_name", sorted(RULES))
    def test_instances_meet_threshold(self, rule_name):
        threshold = RULES[rule_name].threshold
        for seed in range(30):
            g = generate_rule_instance(rule_name, seed)
            assert passes_exclusions(g, rule_name)
            ledger = discharge_audit(g, RULES[rule_name])
            assert ledger.min_final() >= threshold
            assert ledger.conserved()

    def test_deterministic(self):
        a = generate_rule_instance("P4", 5)
        b = generate_rule_instance("P4", 5)
        assert a.edges == b.edges

    def test_p4_tight_gadget_appears(self):
        # some seed must exercise the 5-vertex with exactly three 3-neighbors
        found = False
        for seed in range(30):
            g = generate_rule_instance("P4", seed)
            deg = g.degrees()
            for v in range(g.n):
                if deg[v] == 5 and sum(1 for w in g.adjacency[v] if deg[w] == 3) == 3:
                    found = True
        assert found


def _random_graph(rng: random.Random):
    n = rng.randrange(12)
    p = rng.uniform(0.2, 0.9)
    return graph_from_edges(n, [e for e in combinations(range(n), 2) if rng.random() < p])


def test_audits_unchanged():
    # every preset's ledger and exclusion verdict over criterion 8's
    # instances, the NEEDED graphs and 1,000 seeded random graphs, hashed
    # when the clauses were predicates and the tables separate
    graphs = [generate_rule_instance(r, s) for r in ("P4", "P5", "openB") for s in range(100)]
    graphs += [g for _, _, g in NEEDED]
    rng = random.Random(29)
    graphs += [_random_graph(rng) for _ in range(1000)]
    digest = hashlib.sha256()
    for g in graphs:
        for name in sorted(RULES):
            audit = discharge_audit(g, RULES[name]).as_json()
            digest.update(json.dumps([audit, passes_exclusions(g, name)]).encode())
    assert digest.hexdigest() == "a43397741e2af4ea002a5413c40ae123585dc261aa19a2c1608c47423985b6f6"

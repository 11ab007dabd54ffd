"""Charge ledgers and local discharging rules, with exact rational
arithmetic throughout.

Each preset in ``RULES`` is one record of a discharging argument, stated in
degree ranges: its clauses, its threshold, and the configurations its class
excludes.  Auditing a graph gives every vertex an initial charge equal to
its degree and applies one transfer per (edge, matching clause, direction):

* ``P4``:    every 3-vertex takes 1/3 from each neighbor;
* ``P5``:    every 3-vertex takes 1/6 from each neighbor of degree >= 4;
* ``openB``: every 3-vertex takes 1/4 from each neighbor.

Without its exclusions, a graph's audited minimum final charge is at least
the rule's threshold (4, 10/3 and 15/4).  P4's and P5's exclusions are
exactly the configurations the packer's ``mad4_k5`` and ``girth5_k4``
reduce, whose mad bounds are these thresholds; openB has no packer regime.
"""

from __future__ import annotations

import random
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import inf

from listpacking.graphs import Graph, graph_from_edges


@dataclass(frozen=True)
class Clause:
    """A vertex of degree low..high takes ``amount`` from each neighbor of
    degree donor_low..donor_high (``math.inf``: no upper bound)."""

    low: int
    high: float
    donor_low: int
    donor_high: float
    amount: Fraction

    def __post_init__(self) -> None:
        if self.amount <= 0:
            raise ValueError("transfer amounts are positive")

    def applies(self, degree: int, donor_degree: int) -> bool:
        return self.low <= degree <= self.high and self.donor_low <= donor_degree <= self.donor_high


@dataclass(frozen=True)
class DischargingRule:
    """A discharging argument: once none of ``exclusions`` occurs, every
    vertex ends the audit with at least ``threshold``.

    An exclusion ``(name, low, high, neighbor_low, neighbor_high, count)``
    is a vertex, its center, of degree low..high with at least count
    neighbors of degree neighbor_low..neighbor_high.  They are listed in the
    search order of :func:`find_configuration`.
    """

    clauses: tuple[Clause, ...]
    threshold: Fraction
    exclusions: tuple[tuple[str, int, int, int, int, int], ...]


@dataclass(frozen=True)
class ChargeLedger:
    """Initial charges, the applied transfers, and the exact final charges."""

    initial: tuple[Fraction, ...]
    transfers: tuple[tuple[int, int, Fraction], ...]  # (donor, recipient, amount)

    @cached_property
    def final(self) -> tuple[Fraction, ...]:
        out = list(self.initial)
        for donor, recipient, amount in self.transfers:
            out[donor] -= amount
            out[recipient] += amount
        return tuple(out)

    def conserved(self) -> bool:
        return sum(self.final) == sum(self.initial)

    def min_final(self) -> Fraction:
        return min(self.final) if self.final else Fraction(0)

    def as_json(self) -> dict:
        return {
            "initial": [str(c) for c in self.initial],
            "final": [str(c) for c in self.final],
            "transfers": [[d, r, str(a)] for d, r, a in self.transfers],
            "min_final": str(self.min_final()),
        }


def discharge_audit(g: Graph, rule: DischargingRule) -> ChargeLedger:
    """Apply a rule to a graph: initial charge d(v), one transfer per
    (edge, clause, direction) whose degree ranges match."""

    deg = g.degrees()
    transfers = []
    for u, v in g.sorted_edges():
        for clause in rule.clauses:
            if clause.applies(deg[u], deg[v]):
                transfers.append((v, u, clause.amount))
            if clause.applies(deg[v], deg[u]):
                transfers.append((u, v, clause.amount))
    return ChargeLedger(tuple(Fraction(d) for d in deg), tuple(transfers))


LOW_DEGREE = ("low_degree_vertex", 0, 2, 0, 0, 0)
LIGHT_EDGE = ("light_edge", 3, 3, 3, 4, 1)
RULES: dict[str, DischargingRule] = {
    "P4": DischargingRule(
        (Clause(3, 3, 0, inf, Fraction(1, 3)),),
        Fraction(4),
        (LOW_DEGREE, LIGHT_EDGE, ("five_with_four_threes", 5, 5, 3, 3, 4)),
    ),
    "P5": DischargingRule(
        (Clause(3, 3, 4, inf, Fraction(1, 6)),),
        Fraction(10, 3),
        (LOW_DEGREE, ("path_3_3_3", 3, 3, 3, 3, 2)),
    ),
    "openB": DischargingRule((Clause(3, 3, 0, inf, Fraction(1, 4)),), Fraction(15, 4), (LOW_DEGREE, LIGHT_EDGE)),
}


def find_configuration(g: Graph, rule_name: str, deg: Mapping[int, int]) -> tuple[str, tuple[int, ...]] | None:
    """The rule's first configuration (in exclusion order, then by center in the key order
    of ``deg``) in the subgraph induced by the keys of ``deg``, each mapped to its degree
    there, as (name, (center, *its first ``count`` matching neighbors in adjacency order)), or None."""

    for name, low, high, neighbor_low, neighbor_high, count in RULES[rule_name].exclusions:
        for v in deg:
            if low <= deg[v] <= high:
                found = (v,)
                if count:
                    for w in g.adjacency[v]:
                        if w in deg and neighbor_low <= deg[w] <= neighbor_high:
                            found += (w,)
                if len(found) > count:
                    return name, found[: count + 1]
    return None


def passes_exclusions(g: Graph, rule_name: str) -> bool:
    """No configuration of the rule's exclusions occurs in ``g``."""

    if rule_name not in RULES:
        raise ValueError(f"unknown rule {rule_name!r}")
    return find_configuration(g, rule_name, dict(enumerate(g.degrees()))) is None


# ---------------------------------------------------------------------------
# Seeded in-class instance generators.
#
# All three builders start from a circulant core of degree >= 5 and attach
# extra vertices whose wiring keeps every exclusion intact: attached
# 3-vertices only see high-degree vertices, and the optional tight gadget
# for P4 is a 5-vertex with exactly three 3-neighbors.
# ---------------------------------------------------------------------------


def _circulant(n: int, offsets: tuple[int, ...]) -> Graph:
    edges = set()
    for v in range(n):
        for o in offsets:
            edges.add(tuple(sorted((v, (v + o) % n))))
    return graph_from_edges(n, edges)


def generate_rule_instance(rule_name: str, seed: int) -> Graph:
    """A pseudorandom graph satisfying ``passes_exclusions`` for the rule."""

    rng = random.Random(seed)
    core_n = rng.randrange(12, 24)
    core = _circulant(core_n, (1, 2, 3))  # 6-regular
    edges = set(core.edges)
    n = core_n

    def attach_three(targets: list[int]) -> None:
        nonlocal n
        for t in targets:
            edges.add(tuple(sorted((n, t))))
        n += 1

    # plain degree-3 pendants on distinct core vertices
    for _ in range(rng.randrange(1, 5)):
        attach_three(rng.sample(range(core_n), 3))

    if rule_name == "P4" and rng.random() < 0.7:
        # tight gadget: a 5-vertex x seeing three 3-vertices and two cores
        x = n
        n += 1
        anchors = rng.sample(range(core_n), 2)
        for a in anchors:
            edges.add(tuple(sorted((x, a))))
        for _ in range(3):
            spread = rng.sample(range(core_n), 2)
            w = n
            n += 1
            edges.add(tuple(sorted((w, x))))
            for a in spread:
                edges.add(tuple(sorted((w, a))))

    g = graph_from_edges(n, edges)
    if not passes_exclusions(g, rule_name):
        raise AssertionError(f"instance generator for {rule_name} produced an out-of-class graph")
    return g

"""Acceptance suite: one test per release criterion, each printing a
pass/fail line.  Run with ``pytest tests/test_acceptance.py -v -s``.

Every tolerance and time budget is pinned here; nothing is deferred to
later calibration.  The randomized criteria use fixed seeds, so the whole
suite is reproducible byte for byte.
"""

import json
import time
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest

from listpacking.constructive import pack_constructive
from listpacking.covers import (
    CorrespondenceCover,
    Perm,
    cover_to_json,
    list_assignment_to_json,
    random_cover,
    validate_packing,
)
from listpacking.discharging import RULES, discharge_audit, generate_rule_instance, passes_exclusions
from listpacking.graphs import (
    find_light_triangle,
    generate,
    graph_from_edges,
    random_planar_triangulation_min5,
)
from listpacking.lemmas import verify
from listpacking.solver import (
    _spanning_forest,
    adversarial_list_search,
    packing_number,
    solve_packing,
)
from oracles import oracle_cover_solvable


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_01_correspondence_packing_number_of_cycles():
    start = time.perf_counter()
    values = {k: packing_number(generate("cycle", k), "correspondence", 5) for k in (3, 4, 5, 6)}
    elapsed = time.perf_counter() - start
    ok = all(v == 4 for v in values.values()) and elapsed < 60
    report(1, ok, f"correspondence packing number 4 on C_3..C_6 ({values}), {elapsed:.1f}s < 60s")


def test_criterion_02_list_packing_number_of_cycles():
    start = time.perf_counter()
    values = {}
    witnesses = {}
    for k in (3, 4, 5, 6):
        g = generate("cycle", k)
        values[k] = packing_number(g, "list", 4)  # universe is 3k at size 3
        if k % 2 == 0:
            witnesses[k] = adversarial_list_search(g, 2, universe=2 * k)
    elapsed = time.perf_counter() - start
    gadget_ok = all(
        w is not None and w.lists == tuple([(0, 1)] * (k - 2) + [(0, 2), (1, 2)])
        for k, w in witnesses.items()
    )
    ok = all(v == 3 for v in values.values()) and gadget_ok and elapsed < 300
    report(
        2,
        ok,
        f"list packing number 3 on C_3..C_6 ({values}), even-cycle witnesses match "
        f"the two-swapped-lists gadget up to relabeling, {elapsed:.1f}s < 300s",
    )


def test_criterion_03_list_packing_number_of_small_cliques():
    start = time.perf_counter()
    values = {t: packing_number(generate("complete", t), "list", 4) for t in (2, 3)}
    elapsed = time.perf_counter() - start
    ok = values == {2: 2, 3: 3} and elapsed < 60
    report(3, ok, f"list packing number equals order on K_2, K_3 ({values}), {elapsed:.1f}s < 60s")


def test_criterion_04_exhaustive_lemma_verification():
    start = time.perf_counter()
    expected_counts = {"easy_prop": 7343, "canalwaysswap": 7343, "girth5_condition": 41503}
    results = {}
    for name, count in expected_counts.items():
        r = verify(name, exhaustive=True)
        results[name] = (r.ok, r.instances_checked == count)
    elapsed = time.perf_counter() - start
    ok = all(a and b for a, b in results.values()) and elapsed < 30
    report(
        4,
        ok,
        "exhaustive over all 65,536 labeled 4x4 matrices (filtered): "
        f"0 counterexamples in {sorted(expected_counts)}, {elapsed:.1f}s < 30s",
    )


RANDOMIZED_LEMMAS = (
    "matching_lem_1",
    "matching_lem_2",
    "one_gives_two",
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
)


@pytest.mark.slow
def test_criterion_05_randomized_lemma_verification():
    start = time.perf_counter()
    bad = []
    for name in RANDOMIZED_LEMMAS:
        r = verify(name, trials=100_000, seed=0)
        if not r.ok or r.instances_checked < 100_000:
            bad.append((name, r.counterexamples[:1]))
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 900
    report(
        5,
        ok,
        f"14 randomized verifiers x 100,000 seeded trials, 0 counterexamples{bad or ''}, "
        f"{elapsed:.1f}s < 900s",
    )


def test_criterion_06_constructive_packer_trials():
    start = time.perf_counter()
    failures = 0
    worst_budget = 0
    jobs = (
        (generate("dodecahedron"), 4, "girth5_k4", 1000),
        (generate("grid", 4, 5), 5, "mad4_k5", 1000),
    )
    for g, k, regime, trials in jobs:
        for seed in range(trials):
            cover = random_cover(g, k, seed)
            out = pack_constructive(cover, regime)
            if not (out.success and validate_packing(cover, out.packing).ok):
                failures += 1
            worst_budget = max(worst_budget, out.trace.max_budget_used())
    elapsed = time.perf_counter() - start
    ok = failures == 0 and worst_budget <= 2 and elapsed < 600
    report(
        6,
        ok,
        f"2,000 seeded covers packed and validated, 0 failures, "
        f"max repair budget {worst_budget} <= 2, {elapsed:.1f}s < 600s",
    )


def _all_small_graphs():
    for n in range(1, 5):
        pairs = list(combinations(range(n), 2))
        for m in range(0, 5):
            for chosen in combinations(pairs, m):
                yield graph_from_edges(n, chosen)


def _gauge_reduced_covers(g, k):
    tree = _spanning_forest(g)
    free = [e for e in g.sorted_edges() if e not in tree]
    ident = Perm.identity(k)
    for images in product(permutations(range(k)), repeat=len(free)):
        arcs = {e: ident for e in tree}
        arcs.update({e: Perm(p) for e, p in zip(free, images)})
        yield CorrespondenceCover(g, k, arcs)


def test_criterion_07_solver_matches_oracle():
    start = time.perf_counter()
    instances = 0
    disagreements = 0
    for g in _all_small_graphs():
        for k in (1, 2, 3):
            for cover in _gauge_reduced_covers(g, k):
                instances += 1
                if (solve_packing(cover) is not None) != oracle_cover_solvable(cover):
                    disagreements += 1
    elapsed = time.perf_counter() - start
    ok = disagreements == 0
    report(
        7,
        ok,
        f"pruned solver vs brute-force oracle on {instances} gauge-reduced covers "
        f"(all graphs n<=4, m<=4, k<=3): {disagreements} disagreements, {elapsed:.1f}s",
    )


def test_criterion_08_discharging_thresholds():
    start = time.perf_counter()
    bad = []
    for rule_name in ("P4", "P5", "openB"):
        threshold = RULES[rule_name].threshold
        for seed in range(100):
            g = generate_rule_instance(rule_name, seed)
            if not passes_exclusions(g, rule_name):
                bad.append((rule_name, seed, "exclusions"))
                continue
            ledger = discharge_audit(g, RULES[rule_name])
            if ledger.min_final() < threshold or not ledger.conserved():
                bad.append((rule_name, seed, str(ledger.min_final())))
    elapsed = time.perf_counter() - start
    ok = not bad
    report(
        8,
        ok,
        "exact rational audits on 100 in-class instances per rule: "
        f"min charge >= 4, >= 10/3, >= 15/4 respectively{bad or ''}, {elapsed:.1f}s",
    )


def test_criterion_09_light_triangles():
    start = time.perf_counter()
    misses = []
    graphs = [generate("icosahedron")] + [random_planar_triangulation_min5(seed) for seed in range(20)]
    for idx, g in enumerate(graphs):
        if min(g.degrees()) < 5 or g.m != 3 * g.n - 6:
            misses.append((idx, "not a min-degree-5 triangulation"))
            continue
        tri = find_light_triangle(g)
        if tri is None or sum(g.degrees()[v] for v in tri) > 17:
            misses.append((idx, tri))
    elapsed = time.perf_counter() - start
    ok = not misses
    report(
        9,
        ok,
        f"light triangle (degree sum <= 17) found on icosahedron and 20 seeded "
        f"min-degree-5 planar triangulations, 0 misses{misses or ''}, {elapsed:.1f}s",
    )


def test_criterion_10_determinism():
    start = time.perf_counter()

    def snapshot() -> str:
        parts = []
        r = verify("switcher_simple", trials=2_000, seed=42)
        parts.append(json.dumps(r.as_json(), sort_keys=True))
        cover = random_cover(generate("dodecahedron"), 4, 42)
        out = pack_constructive(cover, "girth5_k4")
        parts.append(json.dumps(cover_to_json(cover), sort_keys=True))
        parts.append(json.dumps(out.trace.as_json(), sort_keys=True))
        parts.append(json.dumps(sorted(out.packing.assign.items()), sort_keys=True))
        w = adversarial_list_search(generate("cycle", 6), 2, universe=12)
        parts.append(json.dumps(list_assignment_to_json(w), sort_keys=True))
        parts.append(str(packing_number(generate("cycle", 4), "list", 4)))
        ledger = discharge_audit(generate_rule_instance("P4", 42), RULES["P4"])
        parts.append(json.dumps(ledger.as_json(), sort_keys=True))
        return "\n".join(parts)

    first = snapshot()
    second = snapshot()
    elapsed = time.perf_counter() - start
    ok = first.encode() == second.encode()
    report(10, ok, f"seeded reruns produce byte-identical reports, {elapsed:.1f}s")

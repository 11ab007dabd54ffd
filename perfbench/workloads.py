"""The benchmark's four workloads, built only on the library's public entry
points.

A workload makes its inputs from a seed (``inputs``), turns them into a list
of operations (``ops``), and knows how to check and canonicalise each
operation's output.  The runner calls the operations one after another in a
closed loop and times nothing but the library call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable


@dataclass
class Op:
    label: str
    call: Callable[[], Any]
    units: int  # operations this call completes, for ops_per_s
    check: Callable[[Any], str | None]  # None when the output is correct
    canon: Callable[[Any], Any]  # JSON-ready output, for the digest
    span: str = "op"  # name of the span the traced run opens around it


def _sorted_assign(packing) -> list:
    return [[v, list(cols)] for v, cols in sorted(packing.assign.items())]


def _expect(want):
    return lambda got: None if got == want else f"expected {want!r}, got {got!r}"


def _no_check(_out) -> None:
    return None


# ---------------------------------------------------------------------------
# list_search: exact list packing numbers and even-cycle gadget witnesses.
# ---------------------------------------------------------------------------


class ListSearch:
    name = "list_search"
    why = (
        "Exact list packing numbers by adversarial pattern search: enumeration, "
        "realization and the core solver on partial maps; no seed, fixed graphs."
    )
    # Packing numbers pinned by acceptance criteria 2 and 3; the paw and the
    # banner are recorded, not assumed.
    KNOWN = {"C3": 3, "C4": 3, "C5": 3, "K3": 3}
    PAW = ((0, 1), (1, 2), (0, 2), (2, 3))
    BANNER = ((0, 1), (1, 2), (2, 3), (3, 0), (0, 4))  # C4 plus a pendant vertex
    GADGETS = (4, 6)
    # The triangle question (C3 and K3) is asked 24 times each, spread
    # through the pass, so the latency median rests on 48 samples.
    TRIANGLE_REPEATS = 24

    def inputs(self, lib, seed: int) -> dict:
        gen = lib.graphs.generate
        graphs = {
            "C3": gen("cycle", 3),
            "C4": gen("cycle", 4),
            "C5": gen("cycle", 5),
            "K3": gen("complete", 3),
            "paw": lib.graphs.graph_from_edges(4, self.PAW),
            "banner": lib.graphs.graph_from_edges(5, self.BANNER),
        }
        for n in self.GADGETS:
            graphs[f"gadget_C{n}"] = gen("cycle", n)
        return graphs

    def ops(self, lib, graphs: dict, seed: int) -> list[Op]:
        solver = lib.solver

        def exact(label: str) -> Op:
            return Op(
                label,
                partial(solver.packing_number, graphs[label], "list", 4),
                1,
                _expect(self.KNOWN[label]) if label in self.KNOWN else _no_check,
                lambda value: value,
            )

        def gadget(n: int) -> Op:
            pinned = tuple([(0, 1)] * (n - 2) + [(0, 2), (1, 2)])

            def check(w) -> str | None:
                if w is None or w.lists != pinned:
                    return f"C{n} gadget: expected lists {pinned}, got {None if w is None else w.lists}"
                if solver.solve_list_packing(w) is not None:
                    return f"C{n} gadget: witness is solvable"
                return None

            g = graphs[f"gadget_C{n}"]
            return Op(
                f"gadget_C{n}",
                partial(solver.adversarial_list_search, g, 2, universe=2 * n),
                1,
                check,
                lambda w: None if w is None else [list(l) for l in w.lists],
            )

        others = [gadget(4), exact("C4"), exact("paw"), exact("banner"), gadget(6), exact("C5")]
        every = self.TRIANGLE_REPEATS // len(others)
        ops: list[Op] = []
        for i in range(self.TRIANGLE_REPEATS):
            ops += [exact("C3"), exact("K3")]
            if i % every == every - 1:
                ops.append(others[i // every])
        return ops

    def record(self, ops: list[Op], outs: list) -> dict:
        return {"packing_numbers": {op.label: out for op, out in zip(ops, outs) if not op.label.startswith("gadget")}}


# ---------------------------------------------------------------------------
# cover_solve: exact correspondence packing of seeded covers.
# ---------------------------------------------------------------------------


class CoverSolve:
    name = "cover_solve"
    why = (
        "solve_packing on 1,020 covers (k=3 mostly unsolvable and heavy-tailed, k=4 "
        "solvable) plus K4's correspondence number: core solver on total maps, no enumeration."
    )
    # (label, graph, k, count, expect_solvable).  The k=3 refutations on the
    # dodecahedron, the grid and the cube are heavy-tailed (one draw can take
    # 2 s), so they use the fixed cover seeds 0..count-1 on every run and one
    # draw cannot swing a run or its p99.  The panel holds about 20 covers of
    # 50 ms or more, so p99 falls among the heavy refutations.  The seed
    # draws every other cover.
    PANEL = (
        ("dodeca_k3", ("dodecahedron",), 3, 60, None),
        ("grid45_k3", ("grid", 4, 5), 3, 100, None),
        ("cube_k3", ("cube",), 3, 200, None),
    )
    SEEDED = (
        ("K33_k3", ("complete_bipartite", 3, 3), 3, 60, None),
        # k = 4 packs every triangle-free graph of mad < 10/3: the
        # dodecahedron (mad 3) and grid 4x5 (mad 31/10) always pack.
        ("dodeca_k4", ("dodecahedron",), 4, 300, True),
        ("grid45_k4", ("grid", 4, 5), 4, 300, True),
    )
    ORACLE_MAX_N = 6  # brute-force oracle cost is (k!)^n

    def inputs(self, lib, seed: int) -> dict:
        gen, random_cover = lib.graphs.generate, lib.covers.random_cover
        covers = []
        for fam, (label, kind, k, count, expect) in enumerate(self.PANEL + self.SEEDED):
            g = gen(*kind)
            base = 0 if fam < len(self.PANEL) else seed * 1_000_000 + fam * 10_000
            covers += [(label, random_cover(g, k, base + i), expect) for i in range(count)]
        random.Random(seed).shuffle(covers)
        return {"covers": covers, "K4": gen("complete", 4)}

    def ops(self, lib, inputs: dict, seed: int) -> list[Op]:
        from oracles import oracle_cover_solvable

        solver, validate = lib.solver, lib.covers.validate_packing

        def op(label: str, cover, expect) -> Op:
            def check(packing) -> str | None:
                if packing is not None:
                    verdict = validate(cover, packing)
                    return None if verdict.ok else f"{label}: invalid packing {verdict.violations}"
                if expect:
                    return f"{label}: no packing found on a cover that always packs"
                if cover.graph.n <= self.ORACLE_MAX_N and oracle_cover_solvable(cover):
                    return f"{label}: oracle finds a packing the solver missed"
                return None

            return Op(
                label,
                partial(solver.solve_packing, cover),
                1,
                check,
                lambda p: None if p is None else _sorted_assign(p),
            )

        ops = [op(*entry) for entry in inputs["covers"]]
        k4 = Op(
            "K4_correspondence",
            partial(solver.packing_number, inputs["K4"], "correspondence", 6),
            1,
            _expect(4),
            lambda value: value,
        )
        ops.insert(len(ops) // 2, k4)
        return ops

    def record(self, ops: list[Op], outs: list) -> dict:
        solved: dict[str, list[int]] = {}
        for op, out in zip(ops, outs):
            tally = solved.setdefault(op.label, [0, 0])
            tally[0] += out is not None
            tally[1] += 1
        return {"solved_of": solved}


# ---------------------------------------------------------------------------
# lemma_trials: seeded and exhaustive lemma verifiers.
# ---------------------------------------------------------------------------


class LemmaTrials:
    name = "lemma_trials"
    why = (
        "The 14 randomized lemma verifiers (2,500 seeded trials each, in calls of 20) and the "
        "3 exhaustive ones: instance generation and bigraph checks; solver idle."
    )
    RANDOMIZED = (
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
    EXHAUSTIVE = {"easy_prop": 7343, "canalwaysswap": 7343, "girth5_condition": 41503}
    TRIALS_PER_CALL = 20
    CALLS_PER_VERIFIER = 125

    def inputs(self, lib, seed: int) -> None:
        return None  # trials generate their own instances from the seed

    def ops(self, lib, _inputs, seed: int) -> list[Op]:
        verify = lib.lemmas.verify
        trials = self.TRIALS_PER_CALL

        def check_report(expected: int):
            def check(r) -> str | None:
                if not r.ok:
                    return f"{r.lemma}: {len(r.counterexamples)} counterexample(s)"
                if r.instances_checked != expected:
                    return f"{r.lemma}: checked {r.instances_checked}, expected {expected}"
                return None

            return check

        def canon(r) -> dict:
            return r.as_json()  # without elapsed

        exhaustive = [
            Op(name, partial(verify, name, exhaustive=True), count, check_report(count), canon, f"lemmas.{name}")
            for name, count in self.EXHAUSTIVE.items()
        ]
        ops: list[Op] = []
        every = self.CALLS_PER_VERIFIER // (len(exhaustive) + 1)
        for j in range(self.CALLS_PER_VERIFIER):
            for name in self.RANDOMIZED:
                call = partial(verify, name, trials, seed * 100_000 + j)
                ops.append(Op(name, call, trials, check_report(trials), canon, f"lemmas.{name}"))
            if j % every == every - 1 and exhaustive:
                ops.append(exhaustive.pop(0))
        return ops + exhaustive

    def record(self, ops: list[Op], outs: list) -> dict:
        return {}


# ---------------------------------------------------------------------------
# class_pack: constructive packing of whole graph classes.
# ---------------------------------------------------------------------------


class ClassPack:
    name = "class_pack"
    why = (
        "pack_constructive on 2,000 seeded covers of the dodecahedron and grid 4x5 and 200 "
        "seeded planar triangulations: reductions, extension bigraphs, 1-factors."
    )
    FAMILIES = (
        ("girth5_k4", ("dodecahedron",), 4, 1000),
        ("mad4_k5", ("grid", 4, 5), 5, 1000),
    )
    TRIANGULATIONS = 200
    MAX_BUDGET = 2

    def inputs(self, lib, seed: int) -> list:
        gen, random_cover = lib.graphs.generate, lib.covers.random_cover
        jobs = []
        for fam, (regime, kind, k, count) in enumerate(self.FAMILIES):
            g = gen(*kind)
            base = seed * 1_000_000 + fam * 10_000
            jobs += [(regime, random_cover(g, k, base + i)) for i in range(count)]
        base = seed * 1_000_000 + len(self.FAMILIES) * 10_000
        for i in range(self.TRIANGULATIONS):
            tri = lib.graphs.random_planar_triangulation_min5(base + i)
            jobs.append(("planar_k8", random_cover(tri, 8, base + i)))
        random.Random(seed).shuffle(jobs)
        return jobs

    def ops(self, lib, jobs: list, seed: int) -> list[Op]:
        pack, validate = lib.constructive.pack_constructive, lib.covers.validate_packing

        def op(regime: str, cover) -> Op:
            def check(out) -> str | None:
                if not out.success:
                    return f"{regime}: packer failed ({out.reason})"
                verdict = validate(cover, out.packing)
                if not verdict.ok:
                    return f"{regime}: invalid packing {verdict.violations}"
                if out.trace.max_budget_used() > self.MAX_BUDGET:
                    return f"{regime}: repair budget {out.trace.max_budget_used()} > {self.MAX_BUDGET}"
                return None

            def canon(out) -> dict:
                return {
                    "success": out.success,
                    "reason": out.reason,
                    "trace": out.trace.as_json(),
                    "packing": None if out.packing is None else _sorted_assign(out.packing),
                }

            return Op(regime, partial(pack, cover, regime), 1, check, canon)

        return [op(regime, cover) for regime, cover in jobs]

    def record(self, ops: list[Op], outs: list) -> dict:
        """Counts read from the packer's public RepairTrace."""

        steps = [s for out in outs if out is not None for s in out.trace.steps]
        repaired = sum(1 for s in steps if s.budget_used >= 1)
        return {
            "repair": {
                "steps": len(steps),
                "steps_budget1": sum(1 for s in steps if s.budget_used == 1),
                "steps_budget2": sum(1 for s in steps if s.budget_used == 2),
                "factors_tried": sum(s.factors_tried for s in steps),
                "repair_rate": repaired / len(steps) if steps else 0.0,
                "max_budget": max((s.budget_used for s in steps), default=0),
            }
        }


WORKLOADS = {w.name: w for w in (ListSearch(), CoverSolve(), LemmaTrials(), ClassPack())}

"""In-memory span tracing of the library's layers, installed from outside.

Spans are recorded by wrappers that replace module-level functions at the
place where the caller looks them up: ``from x import f`` binds a copy, so
``bigraph._raw_max_matching`` is patched as ``solver._raw_max_matching`` and
``bigraph.classify_obstruction`` as ``lemmas.classify_obstruction`` and
``constructive.classify_obstruction``.  Patching a module global also catches
calls made inside that module (``solver._core_solve`` from
``adversarial_list_search``).  Nothing under ``src/`` is edited.

Each span is (name, start, end, parent) in flat arrays; aggregation happens
once, when the run ends.  A span's self time is its duration minus the time
its direct child spans cover (one thread, so children never overlap).
Generator functions are timed per resume, so their time lands in the span
that consumed them.
"""

from __future__ import annotations

import bisect
import inspect
import time
from array import array

# (module attribute, metric name) pairs, grouped by the module whose
# namespace is patched.  The metric name is the defining module's.
PATCHES = {
    "solver": [
        ("adversarial_list_search", "solver.adversarial_list_search"),
        ("adversarial_cover_search", "solver.adversarial_cover_search"),
        ("solve_packing", "solver.solve_packing"),
        ("_realize_lists", "solver._realize_lists"),
        ("_core_solve", "solver._core_solve"),
        ("_raw_max_matching", "bigraph._raw_max_matching"),
        ("degeneracy", "graphs.degeneracy"),
        ("validate_packing", "covers.validate_packing"),
    ],
    "lemmas": [
        ("classify_obstruction", "bigraph.classify_obstruction"),
        ("has_one_factor", "bigraph.has_one_factor"),
        ("_raw_has_one_factor", "bigraph._raw_has_one_factor"),
        ("max_matching", "bigraph.max_matching"),
        ("allowed_edges", "bigraph.allowed_edges"),
        ("removable_edges", "bigraph.removable_edges"),
        ("solve_packing", "solver.solve_packing"),
    ],
    "constructive": [
        ("pack_constructive", "constructive.pack_constructive"),
        ("find_reduction", "constructive.find_reduction"),
        ("extend_with_repair", "constructive.extend_with_repair"),
        ("classify_obstruction", "bigraph.classify_obstruction"),
        ("hall_violator", "bigraph.hall_violator"),
        ("has_one_factor", "bigraph.has_one_factor"),
        ("iter_one_factors", "bigraph.iter_one_factors"),
        ("one_factor_with", "bigraph.one_factor_with"),
        ("extension_bigraph", "covers.extension_bigraph"),
        ("validate_packing", "covers.validate_packing"),
        ("girth", "graphs.girth"),
        ("mad", "graphs.mad"),
    ],
    "covers": [("random_cover", "covers.random_cover")],
    "graphs": [("random_planar_triangulation_min5", "graphs.random_planar_triangulation_min5")],
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.unpatched: list[str] = []

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self._stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self) -> None:
        self._stack.pop()

    def span(self, name: str):
        """Context manager for a span the benchmark opens itself."""

        return _Span(self, self.intern(name))

    def wrap(self, name: str, fn):
        nid = self.intern(name)
        clock = time.perf_counter
        start, end, calls = self.start, self.end, self.calls
        opener, closer = self._open, self._close

        if inspect.isgeneratorfunction(fn):

            def resumes(gen):
                while True:
                    idx = opener(nid)
                    t = clock()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        end[idx] = clock()
                        start[idx] = t
                        closer()
                    yield item

            def gen_wrapper(*args, **kwargs):
                calls[nid] += 1
                return resumes(fn(*args, **kwargs))

            return gen_wrapper

        def wrapper(*args, **kwargs):
            calls[nid] += 1
            idx = opener(nid)
            t = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t
                closer()

        return wrapper

    def install(self, lib) -> None:
        """Patch every name in PATCHES that this version of the library has.
        A missing name is listed in ``unpatched`` as ``module.attr``: its
        metrics read 0 because nothing was measured, not because the layer
        got faster."""

        for module_name, entries in PATCHES.items():
            module = getattr(lib, module_name)
            for attr, metric in entries:
                fn = getattr(module, attr, None)
                if fn is not None:
                    setattr(module, attr, self.wrap(metric, fn))
                else:
                    self.intern(metric)
                    self.unpatched.append(f"{module_name}.{attr}")

    def aggregate(self, excluded=()) -> dict[str, dict[str, float]]:
        """Per name: calls, total_s and self_s.  total_s sums every span of
        the name, which is right while no traced function calls itself
        through its patched module global (none does).

        ``excluded`` lists (start, seconds) intervals, sorted by start, that
        interrupted the traced code (machine-speed probes); their time is
        left out of every span that contains them."""

        n = len(self.start)
        starts = [start for start, _ in excluded]
        prefix = [0.0]
        for _, seconds in excluded:
            prefix.append(prefix[-1] + seconds)

        def excluded_within(i: int) -> float:
            lo = bisect.bisect_left(starts, self.start[i])
            hi = bisect.bisect_left(starts, self.end[i])
            return prefix[hi] - prefix[lo]

        durations = [self.end[i] - self.start[i] - excluded_within(i) for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += durations[i]
        out = {name: {"calls": self.calls[nid], "total_s": 0.0, "self_s": 0.0}
               for nid, name in enumerate(self.names)}
        for i in range(n):
            row = out[self.names[self.name_of[i]]]
            row["self_s"] += durations[i] - child[i]
            row["total_s"] += durations[i]
        return out


class _Span:
    __slots__ = ("_tracer", "_nid", "_idx", "_t")

    def __init__(self, tracer: Tracer, nid: int) -> None:
        self._tracer = tracer
        self._nid = nid

    def __enter__(self):
        self._tracer.calls[self._nid] += 1
        self._idx = self._tracer._open(self._nid)
        self._t = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        tr = self._tracer
        tr.end[self._idx] = time.perf_counter()
        tr.start[self._idx] = self._t
        tr._close()

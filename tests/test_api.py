"""No public name that only tests call, and no private name nothing calls.

Every public module-level function or class, and every public method, in
the library's modules must be referenced from some library module other
than ``__init__`` (whose re-exports call nothing), or be listed below with
the reason it stays public.  A reference is a read attribute, or a loaded
name that no enclosing function binds itself (as a parameter, or as an
assignment, loop or comprehension target), with that spelling; so a method
counts as used when any object's attribute of that name is read, and a
local variable is no use of a function of its name.

Every private (single-underscore) module-level function or class, and every
private method, must be referenced from library code by the same rule: the
library keeps no private hook that only tests call.

Every name ``perfbench/tracing.py`` patches must resolve in the library,
apart from a listed set of known stale ones.
"""

import ast
import importlib
from pathlib import Path

import listpacking

SRC = Path(listpacking.__file__).parent

ALLOWED = {
    "hall_violator": "documents Hall's condition: no 1-factor exactly when a violator exists, as the Hall duality tests check",
    "straighten": "documents the gauge reduction (a spanning forest pinned to identity) the cover search relies on",
    "apply_relabel": "pulls a packing of the straightened cover back to the original: the gauge reduction's other half",
    "list_to_cover": "documents that a list assignment is a correspondence cover, so the list number is at most the correspondence number",
    "pull_back_list_packing": "turns a packing of the encoded cover back into a list packing: the same inequality's other half",
    "list_assignment": "the public way to build a list assignment from plain lists; the golden fingerprints use it",
    "random_cover": "the seeded covers of the acceptance criteria and of perfbench's cover_solve and class_pack",
    "packing_from_json": "the reader of the packing wire format the CLI writes",
    "RepairTrace.max_budget_used": "the repair budget acceptance criterion 6 and perfbench's class_pack bound",
    "ChargeLedger.conserved": "charge conservation, checked by acceptance criterion 8",
    "generate_rule_instance": "the in-class instances of acceptance criterion 8",
    "random_planar_triangulation_min5": "the planar inputs of acceptance criterion 9 and perfbench's class_pack",
}


def _modules() -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"}


def _public_names(modules) -> list[tuple[str, str]]:
    """(qualified name, bare name) of every public function, class and method."""

    out = []
    for tree in modules.values():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                out.append((node.name, node.name))
                if isinstance(node, ast.ClassDef):
                    for sub in node.body:
                        if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                            out.append((f"{node.name}.{sub.name}", sub.name))
    return out


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _bound(fn) -> set[str]:
    """The names a function binds itself: its parameters, and the names its
    own body (nested functions and classes aside) stores to."""

    args = fn.args
    names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg] if a}
    todo = [fn.body] if isinstance(fn, ast.Lambda) else list(fn.body)
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        if not isinstance(node, (*FUNCTIONS, ast.ClassDef)):
            todo.extend(ast.iter_child_nodes(node))
    return names


def _references(node, local: frozenset[str] = frozenset()):
    if isinstance(node, FUNCTIONS):
        local = local | _bound(node)
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in local:
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr
    for child in ast.iter_child_nodes(node):
        yield from _references(child, local)


def _referenced(modules) -> set[str]:
    return {name for tree in modules.values() for name in _references(tree)}


def _unused(modules) -> list[str]:
    used = _referenced(modules)
    return [qual for qual, bare in _public_names(modules) if bare not in used and qual not in ALLOWED]


def test_every_public_name_is_used_or_allowed():
    assert _unused(_modules()) == [], "public but called only from tests; make it private, move it to tests/oracles.py or allow it"


# a public function whose name the module reads only as locals of its own
SHADOWED = """
def degree(g, v):
    return len(g[v])

def _degrees(g, degree=None):
    total = 0
    for degree in g:
        total += degree
    return [len(degree) for degree in g], total

def _lengths(g):
    degree = {v: len(g[v]) for v in g}
    return lambda degree: degree, degree
"""


def test_locals_are_not_uses():
    modules = {"shadowed": ast.parse(SHADOWED)}
    assert _unused(modules) == ["degree"]
    modules["caller"] = ast.parse("def _count(g):\n    return degree(g, 0)\n")
    assert _unused(modules) == []


def _private_names(modules) -> list[tuple[str, str]]:
    """(qualified name, bare name) of every private function, class and
    method; dunder methods are not private."""

    def private(name: str) -> bool:
        return name.startswith("_") and not name.startswith("__")

    out = []
    for module, tree in modules.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if private(node.name):
                    out.append((f"{module}.{node.name}", node.name))
                if isinstance(node, ast.ClassDef):
                    for sub in node.body:
                        if isinstance(sub, ast.FunctionDef) and private(sub.name):
                            out.append((f"{module}.{node.name}.{sub.name}", sub.name))
    return out


def test_every_private_name_is_used():
    modules = _modules()
    used = _referenced(modules)
    assert [qual for qual, bare in _private_names(modules) if bare not in used] == []


def test_allowlist_is_current():
    # an allowed name that is gone, or that the library now calls, is stale
    modules = _modules()
    used = _referenced(modules)
    public = dict(_public_names(modules))
    stale = [qual for qual in ALLOWED if qual not in public or public[qual] in used]
    assert stale == []


# perfbench/tracing.py patches library names from outside, so a rename
# leaves its row reading 0 without an error.  These targets no longer
# resolve; deleting them from perfbench is a benchmark change of its own.
STALE_TRACE_TARGETS = {
    "solver._raw_max_matching",
    "constructive.classify_obstruction",
    "constructive.hall_violator",
    "constructive.has_one_factor",
    "constructive.iter_one_factors",
    "constructive.one_factor_with",
    "constructive.extension_bigraph",
}


def _unresolved_trace_targets() -> set[str]:
    tracing = ast.parse((Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py").read_text())
    (patches,) = [
        node.value
        for node in tracing.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["PATCHES"]
    ]
    return {
        f"{module}.{attr}"
        for module, pairs in ast.literal_eval(patches).items()
        for attr, _ in pairs
        if not hasattr(importlib.import_module(f"listpacking.{module}"), attr)
    }


def test_traced_names_resolve():
    assert _unresolved_trace_targets() - STALE_TRACE_TARGETS == set()


def test_stale_trace_targets_are_current():
    # a listed target that resolves again, or that perfbench no longer patches
    assert STALE_TRACE_TARGETS - _unresolved_trace_targets() == set()

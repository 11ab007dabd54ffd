"""No public name that only tests call.

Every public module-level function or class, and every public method, in
the library's modules must be referenced from some library module other
than ``__init__`` (whose re-exports call nothing), or be listed below with
the reason it stays public.  A reference is any loaded name or attribute
with that spelling, so a method counts as used when any object's attribute
of that name is read.
"""

import ast
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
    "degree_k_rule": "the degree-k discharging family whose k = 3 case is the openB preset",
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


def _referenced(modules) -> set[str]:
    used = set()
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_public_name_is_used_or_allowed():
    modules = _modules()
    used = _referenced(modules)
    unused = [qual for qual, bare in _public_names(modules) if bare not in used and qual not in ALLOWED]
    assert unused == [], "public but called only from tests; make it private, move it to tests/oracles.py or allow it"


def test_allowlist_is_current():
    # an allowed name that is gone, or that the library now calls, is stale
    modules = _modules()
    used = _referenced(modules)
    public = dict(_public_names(modules))
    stale = [qual for qual in ALLOWED if qual not in public or public[qual] in used]
    assert stale == []

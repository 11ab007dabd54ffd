"""Packing disjoint colorings: exact solvers, bigraph matching machinery,
discharging audits, and randomized/exhaustive lemma verification.

The package is organized around a handful of small immutable value types:

* :class:`~listpacking.graphs.Graph` -- plain undirected graphs plus the
  structural measurements (girth, degeneracy, maximum average degree) and
  named generators used throughout.
* :class:`~listpacking.bigraph.Bigraph` -- balanced bipartite graphs on
  parts of size at most 16, stored as bitmask rows.  All matching, Hall
  violator, 1-factor counting, and obstruction classification work happens
  here.
* :class:`~listpacking.covers.CorrespondenceCover` and
  :class:`~listpacking.covers.ListAssignment` -- the two flavors of
  coloring constraints, with conversion, straightening, and validation.
* :mod:`~listpacking.solver` -- exact packing decision/search plus the
  adversarial searches that compute packing numbers on tiny graphs.
* :mod:`~listpacking.constructive` -- the delete/recurse/repair packer for
  the three supported graph classes.
* :mod:`~listpacking.lemmas` -- seeded verification of every standalone
  matching lemma, with counterexample shrinking.
"""

from listpacking.graphs import Graph, generate, girth, degeneracy, mad, find_light_triangle
from listpacking.bigraph import (
    Bigraph,
    Obstruction,
    classify_obstruction,
    count_one_factors,
    degree_profile,
    hall_violator,
    has_one_factor,
    is_st,
    max_matching,
    removable_edges,
    swap,
)
from listpacking.covers import (
    CorrespondenceCover,
    ListAssignment,
    Packing,
    Perm,
    extension_bigraph,
    list_to_cover,
    straighten,
    validate_list_packing,
    validate_packing,
)
from listpacking.solver import (
    ResourceCapError,
    adversarial_cover_search,
    adversarial_list_search,
    packing_number,
    solve_list_packing,
    solve_packing,
)
from listpacking.constructive import (
    PackOutcome,
    Reduction,
    RepairTrace,
    extend_with_repair,
    find_reduction,
    pack_constructive,
)
from listpacking.discharging import ChargeLedger, DischargingRule, RULES, discharge_audit

__version__ = "0.1.0"

"""Cross-checks against networkx, an independent implementation.  Skipped
when networkx is not installed; the library itself does not depend on it."""

import random

import pytest

from listpacking.bigraph import Bigraph, max_matching
from listpacking.constructive import _plan, pack_constructive
from listpacking.covers import random_cover, validate_packing
from listpacking.graphs import generate, random_planar_triangulation_min5

nx = pytest.importorskip("networkx")


@pytest.mark.parametrize("seed", range(20))
def test_triangulations_are_planar_min5(seed):
    g = random_planar_triangulation_min5(seed)
    assert g.m == 3 * g.n - 6
    assert min(g.degrees()) >= 5
    planar, _ = nx.check_planarity(nx.Graph(list(g.edges)))
    assert planar
    # and it is in the class planar_k8 reduces: the peel removes every vertex
    assert sum(len(red.removable()) for red in _plan(g, "planar_k8")) == g.n


@pytest.mark.parametrize("g", [generate("complete", 6), generate("complete_bipartite", 3, 3)], ids=["K6", "K33"])
def test_planar_k8_class_holds_non_planar_graphs(g):
    # every peel remnant has a vertex of degree <= 4 or a light triangle, so
    # planar_k8 packs these graphs, which are not planar
    planar, _ = nx.check_planarity(nx.Graph(list(g.edges)))
    assert not planar
    for seed in range(3):
        cover = random_cover(g, 8, seed)
        out = pack_constructive(cover, "planar_k8")
        assert out.success and validate_packing(cover, out.packing).ok


def test_max_matching_size_matches_hopcroft_karp():
    rng = random.Random(0)
    for _ in range(500):
        s = rng.randrange(1, 11)
        p = rng.random()
        h = Bigraph(s, tuple(sum(1 << j for j in range(s) if rng.random() < p) for _ in range(s)))
        top = [("a", i) for i in range(s)]
        nxg = nx.Graph()
        nxg.add_nodes_from(top)
        nxg.add_nodes_from(("b", j) for j in range(s))
        nxg.add_edges_from((("a", i), ("b", j)) for i, j in h.edges())
        expected = len(nx.bipartite.maximum_matching(nxg, top_nodes=top)) // 2
        assert len(max_matching(h)) == expected

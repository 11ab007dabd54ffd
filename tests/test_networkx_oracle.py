"""Cross-checks against networkx, an independent implementation.  Skipped
when networkx is not installed; the library itself does not depend on it."""

import random

import pytest

from listpacking.bigraph import Bigraph, max_matching
from listpacking.graphs import random_planar_triangulation_min5

nx = pytest.importorskip("networkx")


@pytest.mark.parametrize("seed", range(20))
def test_triangulations_are_planar_min5(seed):
    g = random_planar_triangulation_min5(seed)
    assert g.m == 3 * g.n - 6
    assert min(g.degrees()) >= 5
    planar, _ = nx.check_planarity(nx.Graph(list(g.edges)))
    assert planar


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

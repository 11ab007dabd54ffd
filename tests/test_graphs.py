import gc
import hashlib
import math
import os
import random
import subprocess
import sys
import time
import weakref
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

import listpacking
from listpacking.graphs import (
    VERTEX_CAP,
    Graph,
    ResourceCapError,
    degeneracy,
    find_light_triangle,
    generate,
    girth,
    graph_from_edges,
    graph_from_json,
    graph_to_json,
    _split_icosahedron,
    mad,
    random_planar_triangulation_min5,
)
from oracles import (
    geodesic_icosahedron,
    oracle_girth,
    oracle_mad,
    reference_degeneracy,
    reference_triangulation_min5,
    replay_degeneracy,
)


def small_graphs(max_n=8):
    return st.integers(2, max_n).flatmap(
        lambda n: st.builds(
            lambda edges: graph_from_edges(n, edges),
            st.sets(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1]),
                max_size=min(12, n * (n - 1) // 2),
            ),
        )
    )


class TestGenerators:
    def test_cycle(self):
        g = generate("cycle", 5)
        assert g.n == 5 and g.m == 5

    def test_complete(self):
        assert generate("complete", 4).m == 6

    def test_grid(self):
        g = generate("grid", 3, 3)
        assert g.m == 12
        assert girth(g) == 4

    def test_cube(self):
        g = generate("cube", )
        assert (g.n, g.m) == (8, 12)
        assert girth(g) == 4
        assert set(g.degrees()) == {3}

    def test_dodecahedron(self):
        g = generate("dodecahedron")
        assert (g.n, g.m) == (20, 30)
        assert set(g.degrees()) == {3}
        assert girth(g) == 5 == oracle_girth(g)

    def test_icosahedron(self):
        g = generate("icosahedron")
        assert (g.n, g.m) == (12, 30)
        assert set(g.degrees()) == {5}
        assert girth(g) == 3

    def test_complete_bipartite(self):
        g = generate("complete_bipartite", 3, 4)
        assert (g.n, g.m) == (7, 12)
        assert sorted(g.degrees()) == [3, 3, 3, 3, 4, 4, 4]

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            generate("cycle", 2)
        with pytest.raises(ValueError):
            generate("grid", 3)
        with pytest.raises(ValueError):
            generate("no_such_kind")

    def test_invalid_edges(self):
        with pytest.raises(ValueError):
            Graph(3, frozenset({(0, 0)}))
        with pytest.raises(ValueError):
            Graph(2, frozenset({(0, 5)}))


class TestGirth:
    def test_examples(self):
        assert girth(generate("cycle", 5)) == 5
        assert girth(generate("path", 4)) == math.inf
        assert girth(generate("complete", 4)) == 3

    @pytest.mark.parametrize("k", range(3, 10))
    def test_cycles(self, k):
        assert girth(generate("cycle", k)) == k

    @given(small_graphs())
    @settings(max_examples=150, deadline=None)
    def test_matches_bfs_oracle(self, g):
        assert girth(g) == oracle_girth(g)


class TestDegeneracy:
    def test_tree(self):
        assert degeneracy(generate("path", 6))[0] == 1

    def test_cycle(self):
        assert degeneracy(generate("cycle", 6))[0] == 2

    def test_icosahedron_peel(self):
        # 5-regular, so the very first removal already costs 5 and the
        # greedy-peel oracle confirms the value
        g = generate("icosahedron")
        d, order = degeneracy(g)
        assert d == 5
        assert replay_degeneracy(g, order) == d

    def test_peeled_once_per_instance(self):
        g = generate("dodecahedron")
        assert degeneracy(g) is degeneracy(g)
        with pytest.raises(ValueError):
            degeneracy(Graph(0, frozenset()))

    @given(small_graphs())
    @settings(max_examples=100, deadline=None)
    def test_witness_replay(self, g):
        d, order = degeneracy(g)
        assert sorted(order) == list(range(g.n))
        assert replay_degeneracy(g, order) == d
        # no subgraph has min degree above d: the order certifies it
        remaining = set(range(g.n))
        for v in order:
            assert sum(1 for w in g.adjacency[v] if w in remaining) <= d
            remaining.discard(v)


    def test_matches_reference(self):
        # the heap pops the same least (degree, vertex) the reference's scan
        # finds, so both give the same (d, order): named graphs, edgeless
        # ones, planar triangulations and seeded random graphs
        named = [generate("cycle", n) for n in range(3, 10)] + [generate("path", n) for n in range(1, 10)]
        named += [generate("complete", n) for n in range(1, 8)] + [generate("complete_bipartite", 3, 4)]
        named += [generate("grid", 4, 5), generate("dodecahedron"), generate("icosahedron"), generate("cube")]
        named += [Graph(n, frozenset()) for n in (1, 2, 7)]
        triangulations = [random_planar_triangulation_min5(seed) for seed in range(20)]
        rng = random.Random("degeneracy")
        randoms = []
        for _ in range(500):
            n, p = rng.randint(1, 30), rng.random()
            randoms.append(graph_from_edges(n, [e for e in combinations(range(n), 2) if rng.random() < p]))
        for g in named + triangulations + randoms:
            assert degeneracy(g) == reference_degeneracy(g)

    def test_linear_time(self):
        # the reference's scan is quadratic (5.7 s on a path of 8,000
        # vertices); the heap peels a path of 100,000 in a few tenths of a
        # second, and the bound leaves room for a loaded machine
        g = generate("path", 100_000)
        start = time.perf_counter()
        d, order = degeneracy(g)
        assert time.perf_counter() - start < 5
        assert d == 1 and sorted(order) == list(range(g.n))


class TestMad:
    def test_examples(self):
        assert mad(generate("cycle", 5)) == 2
        assert mad(generate("path", 3)) == Fraction(4, 3)
        assert mad(generate("dodecahedron")) == 3

    def test_grid_4x5(self):
        assert mad(generate("grid", 4, 5)) == Fraction(62, 20)

    @given(small_graphs(max_n=7))
    @settings(max_examples=60, deadline=None)
    def test_matches_subset_oracle(self, g):
        value = mad(g)
        assert value == oracle_mad(g)
        if g.n:
            assert value >= Fraction(2 * g.m, g.n)

    def test_flow_path_agrees(self):
        rng = random.Random(5)
        for _ in range(6):
            n = rng.randrange(6, 11)
            edges = {
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.4
            }
            g = graph_from_edges(n, edges)
            assert mad(g) == oracle_mad(g)

    def test_twelve_vertex_oracle(self):
        rng = random.Random(6)
        edges = {
            (u, v)
            for u in range(12)
            for v in range(u + 1, 12)
            if rng.random() < 0.3
        }
        g = graph_from_edges(12, edges)
        assert mad(g) == oracle_mad(g)

    def test_cache_does_not_keep_graph_alive(self):
        # the Petersen graph, which no other test builds, so no equal graph
        # was measured before
        g = graph_from_edges(10, [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)] + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])
        ref = weakref.ref(g)
        assert (mad(g), girth(g)) == (3, 5)
        del g
        gc.collect()
        assert ref() is None

    def test_large_graph_uses_flow(self):
        g = generate("grid", 5, 5)  # 25 vertices: beyond the subset oracle
        assert mad(g) == Fraction(2 * g.m, g.n)

    @pytest.mark.parametrize("seed", range(5))
    def test_triangulation_is_its_own_densest_part(self, seed):
        # a planar graph on s >= 3 vertices has at most 3s - 6 edges (Euler),
        # so no subgraph of a triangulation is denser than the whole
        g = random_planar_triangulation_min5(seed)
        assert 56 <= g.n <= 69
        assert mad(g) == Fraction(6 * g.n - 12, g.n)

    def test_densest_part_is_proper(self):
        # K6 with a 30-vertex pendant path: the whole graph has average
        # degree 5/2, so the iteration must step past it to the K6
        edges = [(u, v) for u in range(6) for v in range(u + 1, 6)] + [(i, i + 1) for i in range(5, 35)]
        g = graph_from_edges(36, edges)
        assert Fraction(2 * g.m, g.n) == Fraction(5, 2)
        assert mad(g) == 5


class TestLightTriangle:
    def test_icosahedron(self):
        g = generate("icosahedron")
        tri = find_light_triangle(g)
        assert tri is not None
        assert sum(g.degrees()[v] for v in tri) == 15

    def test_triangle_free(self):
        assert find_light_triangle(generate("cycle", 5)) is None

    def test_k6(self):
        g = generate("complete", 6)
        tri = find_light_triangle(g)
        assert tri == (0, 1, 2)
        assert sum(g.degrees()[v] for v in tri) == 15

    def test_heavy_triangles_skipped(self):
        g = generate("complete", 8)  # 7-regular: sums are 21 > 17
        assert find_light_triangle(g) is None


    def test_active_subgraph(self):
        g = generate("complete", 8)
        # K6 induced on 2..7: degrees counted inside it are 5, so 15 <= 17
        assert find_light_triangle(g, active=frozenset(range(2, 8))) == (2, 3, 4)
        assert find_light_triangle(g, active=frozenset({0, 1, 5})) == (0, 1, 5)
        assert find_light_triangle(g, active=frozenset({0, 1})) is None


class TestTriangulations:
    @pytest.mark.parametrize("seed", range(6))
    def test_min5_triangulation(self, seed):
        g = random_planar_triangulation_min5(seed)
        assert min(g.degrees()) >= 5
        assert g.m == 3 * g.n - 6
        assert girth(g) == 3

    def test_deterministic(self):
        assert random_planar_triangulation_min5(3).edges == random_planar_triangulation_min5(3).edges

    # sha256 over repr((n, sorted edges)) of reference_triangulation_min5
    DIGESTS = {
        0: "6009d0468e26006fac7301a6d3e2bef99d635ccdc5c91261461d5e4000323f99",
        1: "8cb971314a058ce14598571f0e40a73150022e4fdf67343a8028c783ad88963c",
        2: "fe11b6ac479c56712b0bd4688ef403480b172c6cadf26760afb077737c18d1d5",
        3: "10c8ac7ebd821071f817414374cdbd54c575a7ef6506fec6dfb7ab3f027bc397",
        4: "591bb3926b7a093a875d09b7ba605e0379025af24b503e8efa71491d0e8ce82f",
        5: "4669ba2ea808091d4ae2006108d6a541739b49ce061dbeb688cb895f23a84fc9",
    }

    @pytest.mark.parametrize("seed", sorted(DIGESTS))
    def test_pinned_digest(self, seed):
        g = random_planar_triangulation_min5(seed)
        assert hashlib.sha256(repr((g.n, g.sorted_edges())).encode()).hexdigest() == self.DIGESTS[seed]

    def test_digest_ignores_hash_seed(self):
        # the draws rest on the iteration order of sets of frozensets of
        # ints, whose hashes do not depend on PYTHONHASHSEED
        script = (
            "import hashlib; from listpacking.graphs import random_planar_triangulation_min5 as t; "
            "g = t(3); print(hashlib.sha256(repr((g.n, g.sorted_edges())).encode()).hexdigest())"
        )
        src = os.path.dirname(os.path.dirname(listpacking.__file__))
        for hashseed in ("0", "1"):
            env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hashseed)
            out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
            assert out.stdout.strip() == self.DIGESTS[3]

    def test_seed_mesh_matches_reference(self):
        # the midpoint split is the general subdivision at nu = 2, face by
        # face and in each face's own iteration order
        n, faces = _split_icosahedron()
        ref_n, ref_faces = geodesic_icosahedron(2)
        assert n == ref_n == 42
        assert [tuple(f) for f in faces] == [tuple(f) for f in ref_faces]

    def test_matches_reference(self):
        # seeds 1_020_000.. are the first of class_pack's seed-1 triangulations
        for seed in [*range(100), *range(1_020_000, 1_020_050)]:
            g, ref = random_planar_triangulation_min5(seed), reference_triangulation_min5(seed)
            assert (g.n, g.edges) == (ref.n, ref.edges), seed


class TestJson:
    def test_round_trip(self):
        g = generate("dodecahedron")
        assert graph_from_json(graph_to_json(g)) == g

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            graph_from_json({"edges": [[0, 1]]})

    @pytest.mark.parametrize("obj", [{"n": 3, "edges": [[0, 1]], "x": 1}, {"n": 3, "edges": [], "N": 4}, [3, []]])
    def test_rejects_unknown_keys(self, obj):
        # a key the reader does not read, or no object at all
        with pytest.raises(ValueError):
            graph_from_json(obj)

    @pytest.mark.parametrize("edges", [[[0, 1], [1, 0], [1, 2]], [[0, 1], [0, 1]]])
    def test_rejects_repeated_edge(self, edges):
        with pytest.raises(ValueError):
            graph_from_json({"n": 3, "edges": edges})
        # graph_from_edges, which the generators use, still merges them
        assert graph_from_edges(3, edges).m == len(edges) - 1

    def test_vertex_cap(self):
        # the cap itself is read (a Graph holds n, nothing per vertex, until
        # a measurement asks), one past it is refused before the edges are
        assert graph_from_json({"n": VERTEX_CAP, "edges": [[0, 1]]}).n == VERTEX_CAP
        with pytest.raises(ResourceCapError, match="100,001 vertices"):
            graph_from_json({"n": VERTEX_CAP + 1, "edges": "not read"})

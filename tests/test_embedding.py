import random
import time
import tracemalloc
from itertools import combinations, permutations

import pytest

import skelcube as sk


def cycle_graph(m: int) -> sk.SimpleGraph:
    return sk.SimpleGraph.from_edges(m, [(i, (i + 1) % m) for i in range(m)])


def random_graph(rng, max_vertices: int = 8) -> sk.SimpleGraph:
    m = rng.randint(0, max_vertices)
    density = rng.random()
    return sk.SimpleGraph.from_edges(m, [e for e in combinations(range(m), 2) if rng.random() < density])


def brute_force_embeddable(g: sk.SimpleGraph, n: int) -> bool:
    codes = range(1 << n)
    for assign in permutations(codes, g.num_vertices):
        if all((assign[u] ^ assign[v]).bit_count() == 1 for u, v in g.edges):
            return True
    return False


def test_graph_construction_rejects_bad_edges():
    with pytest.raises(sk.StructuralError):
        sk.SimpleGraph(3, frozenset([(1, 1)]))
    with pytest.raises(sk.StructuralError):
        sk.SimpleGraph(3, frozenset([(0, 5)]))
    with pytest.raises(sk.StructuralError):
        sk.SimpleGraph(3, frozenset([(2, 1)]))
    g = sk.SimpleGraph.from_edges(3, [(2, 1)])
    assert g.edges == frozenset([(1, 2)])


def test_graph_of_circle():
    g = sk.graph_of(sk.cube_boundary(2))
    assert g.num_vertices == 4
    # canonical vertex order is 00, 01, 10, 11
    assert g.edges == frozenset([(0, 1), (0, 2), (1, 3), (2, 3)])
    assert g.is_connected()


def test_graph_of_ignores_higher_faces():
    g = sk.graph_of(sk.full_cube(3))
    assert g.num_vertices == 8
    assert len(g.edges) == 12


def test_bipartition_of_even_cycle():
    colors, odd = sk.bipartition_or_odd_cycle(cycle_graph(6))
    assert odd is None
    assert all(colors[u] != colors[v] for u, v in cycle_graph(6).edges)


def test_odd_cycle_witness_is_a_real_odd_cycle():
    for m in (3, 5, 7):
        g = cycle_graph(m)
        colors, cyc = sk.bipartition_or_odd_cycle(g)
        assert colors is None
        assert len(cyc) % 2 == 1
        assert len(set(cyc)) == len(cyc)
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            assert (min(a, b), max(a, b)) in g.edges


def test_bipartition_random_graphs_vs_brute_force():
    rng = random.Random(83)
    for _ in range(150):
        g = random_graph(rng)
        two_colourable = any(
            all((bits >> u ^ bits >> v) & 1 for u, v in g.edges) for bits in range(1 << g.num_vertices)
        )
        colors, odd = sk.bipartition_or_odd_cycle(g)
        assert (colors is not None) == two_colourable
        if colors is not None:
            assert all(colors[u] != colors[v] for u, v in g.edges)
        else:
            assert len(odd) % 2 == 1
            assert len(set(odd)) == len(odd)
            assert all((min(a, b), max(a, b)) in g.edges for a, b in zip(odd, odd[1:] + odd[:1]))


def test_is_connected_random_graphs_vs_reachability():
    rng = random.Random(84)
    for _ in range(150):
        g = random_graph(rng)
        reached = {0} if g.num_vertices else set()
        grown = True
        while grown:
            grown = False
            for u, v in g.edges:
                if (u in reached) != (v in reached):
                    reached |= {u, v}
                    grown = True
        assert g.is_connected() == (len(reached) == g.num_vertices)


def test_verify_labelling_square():
    g = cycle_graph(4)
    good = {(0, 1): 1, (1, 2): 2, (2, 3): 1, (0, 3): 2}
    assert sk.verify_labelling(g, good)
    # a cycle crossing coordinate 1 an odd number of times
    bad = {(0, 1): 1, (1, 2): 2, (2, 3): 2, (0, 3): 2}
    assert not sk.verify_labelling(g, bad)
    # distinct-codes failure: both path parities cancel
    collide = {(0, 1): 1, (1, 2): 1, (2, 3): 1, (0, 3): 1}
    assert not sk.verify_labelling(g, collide)


def test_verify_labelling_input_errors():
    g = cycle_graph(4)
    with pytest.raises(sk.StructuralError):
        sk.verify_labelling(g, {(0, 1): 1})
    with pytest.raises(sk.StructuralError):
        sk.verify_labelling(g, {(0, 1): 0, (1, 2): 1, (2, 3): 1, (0, 3): 2})
    two = sk.SimpleGraph(2, frozenset())
    with pytest.raises(sk.StructuralError):
        sk.verify_labelling(two, {})


def test_verify_labelling_single_edge():
    g = sk.SimpleGraph.from_edges(2, [(0, 1)])
    assert sk.verify_labelling(g, {(0, 1): 1})
    assert sk.verify_labelling(g, {(0, 1): 7})


def test_find_embedding_even_cycles():
    emb = sk.find_graph_embedding(cycle_graph(4), 2)
    assert emb is not None and emb.n == 2
    assert emb.is_valid_for(cycle_graph(4))
    emb6 = sk.find_graph_embedding(cycle_graph(6), 3)
    assert emb6 is not None and emb6.n == 3
    assert emb6.is_valid_for(cycle_graph(6))
    # six vertices cannot fit into the 4-vertex square graph
    assert sk.find_graph_embedding(cycle_graph(6), 2) is None


def test_find_embedding_odd_cycles_and_k23():
    assert sk.find_graph_embedding(cycle_graph(3), 6) is None
    assert sk.find_graph_embedding(cycle_graph(5), 6) is None
    k23 = sk.SimpleGraph.from_edges(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])
    assert sk.find_graph_embedding(k23, 6) is None


def test_find_embedding_cube_graph():
    q3 = sk.graph_of(sk.cube_boundary(3))
    emb = sk.find_graph_embedding(q3, 3)
    assert emb is not None and emb.n == 3
    assert emb.is_valid_for(q3)
    labels = sk.labelling_from_embedding(emb, q3)
    assert sk.verify_labelling(q3, labels)
    assert set(labels.values()) == {1, 2, 3}


def test_find_embedding_respects_degree_bound():
    star = sk.SimpleGraph.from_edges(6, [(0, i) for i in range(1, 6)])
    assert sk.find_graph_embedding(star, 4) is None
    emb = sk.find_graph_embedding(star, 5)
    assert emb is not None and emb.is_valid_for(star)


def test_find_embedding_small_graphs_vs_brute_force():
    vertices = 4
    all_pairs = list(combinations(range(vertices), 2))
    for bits in range(1 << len(all_pairs)):
        edges = [e for i, e in enumerate(all_pairs) if bits >> i & 1]
        g = sk.SimpleGraph.from_edges(vertices, edges)
        found = sk.find_graph_embedding(g, 2)
        assert (found is not None) == brute_force_embeddable(g, 2)
        if found is not None:
            assert found.is_valid_for(g)


def test_find_embedding_random_graphs_vs_brute_force():
    rng = random.Random(61)
    all_pairs = list(combinations(range(5), 2))
    for _ in range(25):
        edges = [e for e in all_pairs if rng.random() < 0.45]
        g = sk.SimpleGraph.from_edges(5, edges)
        found = sk.find_graph_embedding(g, 3)
        assert (found is not None) == brute_force_embeddable(g, 3)
        if found is not None:
            assert found.is_valid_for(g)


def test_random_trees_always_embed():
    rng = random.Random(77)
    for _ in range(10):
        m = rng.randint(2, 9)
        edges = [(rng.randrange(i), i) for i in range(1, m)]
        g = sk.SimpleGraph.from_edges(m, edges)
        emb = sk.find_graph_embedding(g, m - 1)
        assert emb is not None and emb.is_valid_for(g)
        assert sk.verify_labelling(g, sk.labelling_from_embedding(emb, g))


def test_empty_and_single_vertex_graphs():
    assert sk.find_graph_embedding(sk.SimpleGraph(0, frozenset()), 0) == sk.HypercubeEmbedding(0, ())
    one = sk.find_graph_embedding(sk.SimpleGraph(1, frozenset()), 0)
    assert one == sk.HypercubeEmbedding(0, (0,))
    two = sk.find_graph_embedding(sk.SimpleGraph(2, frozenset()), 1)
    assert two is not None and two.n <= 1


def test_later_component_root_allocates_no_code_table():
    # at n_max = 10**8 the number 2**n_max alone would take 12.5 MB
    g = sk.SimpleGraph.from_edges(4, [(0, 1), (2, 3)])
    for n_max in (20, 10**8):
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            emb = sk.find_graph_embedding(g, n_max)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert emb is not None and emb.is_valid_for(g)
        assert peak - before < 1 << 20


def test_component_that_cannot_embed_is_refuted_alone():
    # an edge plus a disjoint K_{2,3}: the edge embeds, K_{2,3} never does,
    # so the search must not try all 2^10 codes for the root of K_{2,3}
    g = sk.SimpleGraph.from_edges(7, [(0, 1)] + [(u, v) for u in (2, 3) for v in (4, 5, 6)])
    t0 = time.process_time()
    assert sk.find_graph_embedding(g, 10) is None
    assert time.process_time() - t0 < 0.5


def test_long_path_embeds_without_recursion():
    # one search level per vertex: 3000 levels exceed the default recursion limit
    m = 3000
    g = sk.SimpleGraph.from_edges(m, [(i, i + 1) for i in range(m - 1)])
    emb = sk.find_graph_embedding(g, 12)
    assert emb is not None and emb.n == 12 and emb.is_valid_for(g)


def test_embedding_code_validation():
    with pytest.raises(sk.StructuralError):
        sk.HypercubeEmbedding(1, (0, 2))
    with pytest.raises(sk.StructuralError):
        sk.HypercubeEmbedding(2, (1, 1))


def test_labelling_from_embedding_rejects_non_embeddings():
    g = cycle_graph(4)
    with pytest.raises(sk.ContradictionError):
        sk.labelling_from_embedding(sk.HypercubeEmbedding(2, (0, 1, 2)), g)
    with pytest.raises(sk.ContradictionError):
        sk.labelling_from_embedding(sk.HypercubeEmbedding(2, (0, 3, 1, 2)), g)


def test_lift_circle_into_plane():
    circle = sk.cube_boundary(2)
    g = sk.graph_of(circle)
    emb = sk.find_graph_embedding(g, 2)
    lifted = sk.lift_to_complex_embedding(circle, emb)
    assert lifted.ambient_dim == 2
    assert lifted.f_vector() == (4, 4)
    assert sk.betti_gf2(lifted).betti == (1, 1)


def test_lift_octagon_compresses_ambient_dimension():
    octagon = sk.generate("even-cycle(8)")
    assert octagon.ambient_dim == 4
    emb = sk.find_graph_embedding(sk.graph_of(octagon), 3)
    lifted = sk.lift_to_complex_embedding(octagon, emb)
    assert lifted.ambient_dim == 3
    assert lifted.f_vector() == (8, 8)
    assert sk.betti_gf2(lifted).betti == (1, 1)
    lifted.validate()


def test_lift_sphere_round_trip():
    s2 = sk.cube_boundary(3)
    emb = sk.find_graph_embedding(sk.graph_of(s2), 3)
    lifted = sk.lift_to_complex_embedding(s2, emb)
    assert lifted.ambient_dim == 3
    assert len(lifted.faces) == len(s2.faces)
    assert sk.is_homology_manifold(lifted).is_manifold


def test_lift_rejects_mismatched_embedding():
    circle = sk.cube_boundary(2)
    with pytest.raises(sk.ContradictionError):
        sk.lift_to_complex_embedding(circle, sk.HypercubeEmbedding(2, (0, 1, 2)))
    with pytest.raises(sk.ContradictionError):
        # injective on vertices but tears one edge apart
        sk.lift_to_complex_embedding(circle, sk.HypercubeEmbedding(3, (0, 1, 2, 7)))

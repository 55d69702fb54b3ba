import random
import time
import tracemalloc
from itertools import combinations, permutations

import pytest

import skelcube as sk

from helpers import heawood_graph, lift_to_complex_embedding, path_joined_to_k23


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


def obstruction_oracle(g: sk.SimpleGraph, n_max: int):
    """The first pre-search check g fails, each recomputed from its definition."""
    m = g.num_vertices
    if not any(all((bits >> u ^ bits >> v) & 1 for u, v in g.edges) for bits in range(1 << m)):
        return "odd-cycle", None
    near = [{w for e in g.edges if u in e for w in e if w != u} for u in range(m)]
    if any(len(s) > n_max for s in near):
        return "degree", ()
    if m > 2**n_max:
        return "size", ()
    for u, v in combinations(range(m), 2):
        common = sorted(near[u] & near[v])
        if len(common) >= 3:
            return "k23", (u, v, *common[:3])
    return None


def all_graphs(max_vertices: int):
    for m in range(max_vertices + 1):
        pairs = list(combinations(range(m), 2))
        for bits in range(1 << len(pairs)):
            yield sk.SimpleGraph.from_edges(m, [e for i, e in enumerate(pairs) if bits >> i & 1])


def random_bipartite_graph(rng, min_vertices: int, max_vertices: int) -> sk.SimpleGraph:
    m = rng.randint(min_vertices, max_vertices)
    side = [rng.randrange(2) for _ in range(m)]
    density = rng.random()
    pairs = [(u, v) for u, v in combinations(range(m), 2) if side[u] != side[v]]
    return sk.SimpleGraph.from_edges(m, [e for e in pairs if rng.random() < density])


def assert_refutes_only_non_embeddable(g: sk.SimpleGraph, n_max: int) -> str:
    """Compare search and certificates with brute force; return the reason seen."""
    embeddable = brute_force_embeddable(g, n_max)
    found = sk.find_graph_embedding(g, n_max)
    assert (found is not None) == embeddable
    if found is not None:
        assert found.n <= n_max and found.is_valid_for(g)
    obstruction = sk.embedding_obstruction(g, n_max)
    assert obstruction is None or not embeddable
    expected = obstruction_oracle(g, n_max)
    if expected is not None and expected[0] == "odd-cycle":
        # the bipartition tests check the cycle itself
        assert obstruction is not None and obstruction[0] == "odd-cycle"
    else:
        assert obstruction == expected
    if obstruction is not None:
        return obstruction[0]
    return "embeds" if embeddable else "search"


def test_graph_construction_rejects_bad_edges():
    with pytest.raises(sk.StructuralError):
        sk.SimpleGraph(3, frozenset([(1, 1)]))
    with pytest.raises(sk.StructuralError):
        sk.SimpleGraph(3, frozenset([(0, 5)]))
    with pytest.raises(sk.StructuralError):
        sk.SimpleGraph(3, frozenset([(2, 1)]))
    with pytest.raises(sk.StructuralError, match="vertex count must be nonnegative"):
        sk.SimpleGraph(-1, frozenset())
    g = sk.SimpleGraph.from_edges(3, [(2, 1)])
    assert g.edges == frozenset([(1, 2)])
    assert sk.SimpleGraph(3, [(1, 2)]) == g  # a list of edges is frozen


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
    # every labelled graph on at most five vertices, into I^0, I^1 and I^2
    seen = {assert_refutes_only_non_embeddable(g, n_max) for g in all_graphs(5) for n_max in range(3)}
    assert seen == {"embeds", "odd-cycle", "degree", "size"}


def test_certificates_on_random_bipartite_graphs_vs_brute_force():
    # at n_max = 3 these pass the odd-cycle and size checks and reach the
    # K_{2,3} one; brute force tries up to 8!/1! codings each, so the sample stays small
    rng = random.Random(29)
    seen = {assert_refutes_only_non_embeddable(random_bipartite_graph(rng, 4, 7), 3) for _ in range(80)}
    assert seen == {"embeds", "degree", "k23"}


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


def test_many_components_embed_in_linear_time():
    # each later root starts from the least free code, not from 0, so
    # 8,192 isolated vertices fill I^13 in order; at 8,000 vertices the
    # count from 0 took about 4 s
    assert sk.find_graph_embedding(sk.SimpleGraph(5, frozenset()), 3).codes == (0, 1, 2, 3, 4)
    isolated = sk.SimpleGraph(8192, frozenset())
    matching = sk.SimpleGraph.from_edges(8192, [(2 * i, 2 * i + 1) for i in range(4096)])
    t0 = time.process_time()
    assert sk.find_graph_embedding(isolated, 13).codes == tuple(range(8192))
    assert time.process_time() - t0 < 1.0
    t0 = time.process_time()
    emb = sk.find_graph_embedding(matching, 13)
    assert time.process_time() - t0 < 1.0
    assert emb is not None and emb.is_valid_for(matching)


def test_search_peak_memory_per_isolated_vertex():
    # the bound on a graph file's vertex count (io.MAX_GRAPH_VERTICES)
    # rests on this figure: about 0.8 KB per vertex at the peak, for
    # 4,096 to 65,536 isolated vertices alike
    isolated = sk.SimpleGraph(16384, frozenset())
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        emb = sk.find_graph_embedding(isolated, 14)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert emb is not None and emb.n == 14
    assert peak - before < 16384 * 1024


def test_component_that_cannot_embed_is_refuted_alone():
    # an edge plus a disjoint Heawood graph, which passes every certificate
    # but never embeds: the search must not try all 2^10 codes for the
    # root of the Heawood graph
    heawood = heawood_graph()
    g = sk.SimpleGraph.from_edges(16, [(0, 1)] + [(u + 2, v + 2) for u, v in heawood.edges])
    assert sk.embedding_obstruction(g, 10) is None
    t0 = time.process_time()
    assert sk.find_graph_embedding(g, 10) is None
    assert time.process_time() - t0 < 0.5


def test_lone_vertices_are_not_searched_alone(monkeypatch):
    # each component of two or more vertices is searched alone, then the
    # whole graph once; a lone vertex always embeds and is not searched
    calls = []
    real = sk.embedding._search
    monkeypatch.setattr("skelcube.embedding._search", lambda order, *rest: calls.append(len(order)) or real(order, *rest))
    g = sk.SimpleGraph.from_edges(4098, [(0, 1), (2, 3)])
    emb = sk.find_graph_embedding(g, 13)
    assert emb is not None and emb.is_valid_for(g)
    assert calls == [2, 2, 4098]


def test_k23_refutes_before_the_search():
    # the search starts at vertex 0, the far end of the path, and needs
    # seconds to refute this graph; the K_{2,3} certificate needs none
    g = path_joined_to_k23()
    assert sk.embedding_obstruction(g, 6) == ("k23", (10, 11, 12, 13, 14))
    t0 = time.process_time()
    assert sk.find_graph_embedding(g, 6) is None
    assert time.process_time() - t0 < 0.05


def test_obstruction_reasons_and_witnesses():
    assert sk.embedding_obstruction(cycle_graph(5), 6) == ("odd-cycle", (2, 1, 0, 4, 3))
    star = sk.SimpleGraph.from_edges(6, [(0, i) for i in range(1, 6)])
    assert sk.embedding_obstruction(star, 4) == ("degree", ())
    assert sk.embedding_obstruction(cycle_graph(6), 2) == ("size", ())
    # K_{3,3}: 0 and 1 share 3, 4, 5, the first pair that does
    k33 = sk.SimpleGraph.from_edges(6, [(u, v) for u in (0, 1, 2) for v in (3, 4, 5)])
    assert sk.embedding_obstruction(k33, 3) == ("k23", (0, 1, 3, 4, 5))
    # Q_n itself passes at n_max = n: 2^n vertices, degree n, pairs share 0 or 2
    for n in range(5):
        assert sk.embedding_obstruction(sk.graph_of(sk.full_cube(n)), n) is None
    assert sk.embedding_obstruction(sk.SimpleGraph(0, frozenset()), 0) is None


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
    with pytest.raises(sk.StructuralError, match="hypercube dimension must be nonnegative"):
        sk.HypercubeEmbedding(-1, ())
    assert not sk.HypercubeEmbedding(1, (0, 1)).is_valid_for(sk.SimpleGraph(3, frozenset()))
    with pytest.raises(sk.ContractError, match="n_max >= 0 required"):
        sk.find_graph_embedding(sk.SimpleGraph(1, frozenset()), -1)


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
    lifted = lift_to_complex_embedding(circle, emb)
    assert lifted.ambient_dim == 2
    assert lifted.f_vector() == (4, 4)
    assert sk.betti_gf2(lifted).betti == (1, 1)


def test_lift_octagon_compresses_ambient_dimension():
    octagon = sk.generate("even-cycle(8)")
    assert octagon.ambient_dim == 4
    emb = sk.find_graph_embedding(sk.graph_of(octagon), 3)
    lifted = lift_to_complex_embedding(octagon, emb)
    assert lifted.ambient_dim == 3
    assert lifted.f_vector() == (8, 8)
    assert sk.betti_gf2(lifted).betti == (1, 1)
    lifted.validate()


def test_lift_sphere_round_trip():
    s2 = sk.cube_boundary(3)
    emb = sk.find_graph_embedding(sk.graph_of(s2), 3)
    lifted = lift_to_complex_embedding(s2, emb)
    assert lifted.ambient_dim == 3
    assert len(lifted.faces) == len(s2.faces)
    assert sk.is_homology_manifold(lifted).is_manifold


def test_lift_spells_bit_i_as_letter_i():
    edge = sk.closure(2, ["*0"])
    lifted = lift_to_complex_embedding(edge, sk.HypercubeEmbedding(3, (0b001, 0b011)))
    assert lifted.faces == {"100", "110", "1*0"}


def test_lift_rejects_mismatched_embedding():
    circle = sk.cube_boundary(2)
    with pytest.raises(sk.ContradictionError):
        lift_to_complex_embedding(circle, sk.HypercubeEmbedding(2, (0, 1, 2)))
    with pytest.raises(sk.ContradictionError):
        # injective on vertices but tears one edge apart
        lift_to_complex_embedding(circle, sk.HypercubeEmbedding(3, (0, 1, 2, 7)))

import random

import pytest

import skelcube as sk
from skelcube import generators
from skelcube.generators import MAX_SPEC_DEPTH

from helpers import cbs_oracle, corpus


def test_parse_round_trips():
    for text in [
        "cube(3)",
        "boundary-cube(4)",
        "skeleton-of(boundary-cube(4), 2)",
        "product(boundary-cube(2), boundary-cube(2))",
        "disjoint-union(cube(1), even-cycle(6))",
        "cbs(5)",
        "graph-k23",
    ]:
        spec = sk.parse_generator_spec(text)
        assert str(spec) == text
        assert str(sk.parse_generator_spec(str(spec))) == text


def test_parse_handles_spacing_and_nesting():
    spec = sk.parse_generator_spec("product( cube(1) ,boundary-cube(2) )")
    assert spec.family == "product"
    assert [a.family for a in spec.args] == ["cube", "boundary-cube"]


def test_parse_rejects_malformed_specs():
    for text in ["", "cube(", "cube(2", "cube(2,)x", "cube(2))", "(3)"]:
        with pytest.raises(sk.StructuralError):
            sk.parse_generator_spec(text)
    with pytest.raises(sk.StructuralError, match=r"trailing input in generator spec: 'x'$"):
        sk.parse_generator_spec("   cube(3)x")


def test_parse_reads_as_integers_only_decimal_digits():
    # '²' is a digit to str.isdigit, but int cannot read it
    with pytest.raises(sk.StructuralError, match=r"expected ',' or '\)' at position 6"):
        sk.parse_generator_spec("cube(1²)")
    spec = sk.parse_generator_spec("cube(²)")
    assert [a.family for a in spec.args] == ["²"]
    with pytest.raises(ValueError, match="unknown generator family '²'"):
        sk.generate(spec)


def test_parse_bounds_the_nesting_depth():
    def nested(levels: int) -> str:
        return "skeleton-of(" * (levels - 1) + "cube(1)" + ", 1)" * (levels - 1)

    assert str(sk.parse_generator_spec(nested(MAX_SPEC_DEPTH))) == nested(MAX_SPEC_DEPTH)
    for levels in (MAX_SPEC_DEPTH + 1, 3000):
        with pytest.raises(sk.StructuralError, match=r"nests deeper than 32 levels"):
            sk.parse_generator_spec(nested(levels))


def test_generate_rejects_bad_arguments():
    with pytest.raises(ValueError):
        sk.generate("cube(-1)")
    with pytest.raises(ValueError):
        sk.generate("boundary-cube(0)")
    with pytest.raises(ValueError):
        sk.generate("cube(2, 3)")
    with pytest.raises(ValueError):
        sk.generate("cube(boundary-cube(2))")
    with pytest.raises(ValueError):
        sk.generate("product(graph-c3, cube(1))")
    with pytest.raises(ValueError):
        sk.generate("mystery(2)")
    with pytest.raises(ValueError, match=r"^product takes \(complex, complex\), got product\(graph-c3, cube\(1\)\)$"):
        sk.generate("product(graph-c3, cube(1))")
    with pytest.raises(ValueError, match=r"^skeleton-of takes \(complex, integer\), got skeleton-of\(2\)$"):
        sk.generate("skeleton-of(2)")
    with pytest.raises(ValueError, match="polygon size >= 3"):
        sk.generate("cbs(2)")
    with pytest.raises(sk.StructuralError, match="vertex indices must be nonnegative"):
        sk.cubical_barycentric_subdivision([{-1, 0}])


def test_even_cycle_complexes():
    assert sk.generate("even-cycle(4)") == sk.cube_boundary(2)
    for length in (6, 8, 10):
        c = sk.generate(f"even-cycle({length})")
        assert c.f_vector() == (length, length)
        assert sk.betti_gf2(c).betti == (1, 1)
        assert sk.is_homology_manifold(c).is_manifold
        c.validate()
    for bad in (2, 5, 7):
        with pytest.raises(ValueError):
            sk.generate(f"even-cycle({bad})")


def test_skeleton_of_family():
    c = sk.generate("skeleton-of(boundary-cube(4), 2)")
    assert c == sk.skeleton(sk.cube_boundary(4), 2)
    assert c.dim == 2


def test_disjoint_union_is_disjoint_even_on_full_corners():
    # both operands use every vertex of their ambient block, so only the
    # extra splitting coordinate keeps the copies apart
    c = sk.generate("disjoint-union(cube(1), cube(1))")
    parts = sk.components(c)
    assert len(parts) == 2
    assert sk.betti_gf2(c).betti == (2, 0)
    c.validate()
    two = sk.generate("disjoint-union(boundary-cube(3), boundary-cube(3))")
    assert len(sk.components(two)) == 2
    assert sk.homology_integer(two).betti == (2, 0, 2)


def test_cbs_polygon_counts():
    for m in (3, 4, 6):
        c = sk.generate(f"cbs({m})")
        assert c.ambient_dim == m
        assert c.f_vector() == (2 * m, 2 * m)
        assert sk.betti_gf2(c).betti == (1, 1)


def test_cbs_general_subdivision_of_a_triangle_fan():
    # solid triangle: subdivision is a disc made of three squares
    c = sk.cubical_barycentric_subdivision([{0, 1, 2}])
    assert c.f_vector() == (7, 9, 3)
    assert sk.betti_gf2(c).betti == (1, 0, 0)
    c.validate()
    with pytest.raises(sk.StructuralError):
        sk.cubical_barycentric_subdivision([])
    with pytest.raises(sk.StructuralError):
        sk.cubical_barycentric_subdivision([set()])


def test_cbs_matches_the_interval_poset_oracle_on_random_inputs():
    # inputs need not be closed downward and may repeat a simplex; vertex
    # gaps such as {0, 5} leave letters outside every span
    rng = random.Random(17)
    for _ in range(240):
        top = rng.randint(0, 9)
        simplices = [
            rng.sample(range(top + 1), rng.randint(1, min(4, top + 1))) for _ in range(rng.randint(1, 4))
        ]
        if rng.random() < 0.3:
            simplices.append(rng.choice(simplices))
        c = sk.cubical_barycentric_subdivision(simplices)
        assert c.ambient_dim == max(map(max, simplices)) + 1
        assert c.faces == cbs_oracle(simplices), simplices
        c.validate()
    assert sk.cubical_barycentric_subdivision([{0, 5}]).faces == {"*00001", "100001", "100000", "000001", "10000*"}


def test_subdivisions_and_disjoint_unions_over_the_size_bound_are_refused(monkeypatch):
    # a simplex on s vertices holds exactly 3**s - 2**s intervals,
    # wherever its vertices sit
    for s in range(1, 7):
        assert len(sk.cubical_barycentric_subdivision([range(s)])) == 3**s - 2**s
        assert len(sk.cubical_barycentric_subdivision([range(3, 3 + 2 * s, 2)])) == 3**s - 2**s
    # 5 * 3**4 letters; cbs(m) is counted as 5 faces per edge (shared
    # vertices twice) of m letters, a simplex on s vertices as 3**s - 2**s
    # faces of s letters
    monkeypatch.setattr("skelcube.complex.MAX_LETTERS", 5 * 3**4)
    assert len(sk.generate("cbs(5)")) == 20
    assert len(sk.cubical_barycentric_subdivision([range(4)])) == 3**4 - 2**4
    assert len(sk.generate("disjoint-union(boundary-cube(3), boundary-cube(3))")) == 52
    for build in (
        lambda: sk.generate("cbs(30)"),
        lambda: sk.cubical_barycentric_subdivision([range(5)]),
        lambda: sk.cubical_barycentric_subdivision([{405}]),
        lambda: sk.generate("disjoint-union(boundary-cube(3), boundary-cube(4))"),
    ):
        with pytest.raises(sk.ContractError, match="would exceed 405 letters"):
            build()


def test_subdivision_of_a_large_simplex_is_refused_before_its_faces_are_listed():
    # 2**40 faces of the simplex would be closed first without the bound
    assert sk.complex.MAX_LETTERS == 13 * 3**13
    with pytest.raises(sk.ContractError, match="cubical barycentric subdivision would exceed"):
        sk.cubical_barycentric_subdivision([range(40)])
    with pytest.raises(sk.ContractError):
        sk.generate("cbs(20000)")


def test_cbs_and_even_cycle_check_the_bound_before_listing_their_edges(monkeypatch):
    # cbs(m) holds 5 faces per edge of m letters; listing the m edges
    # first would cost time and memory linear in the argument
    def subdivided(simplices):
        raise AssertionError("the edges were listed before the bound was checked")

    monkeypatch.setattr(generators, "cubical_barycentric_subdivision", subdivided)
    for spec in ("cbs(1000000)", "even-cycle(2000000)"):
        with pytest.raises(sk.ContractError, match="cubical barycentric subdivision would exceed 20726199 letters"):
            sk.generate(spec)


def test_cbs_embeds_in_cube_on_vertex_count():
    c = sk.generate("cbs(4)")
    assert c.ambient_dim == 4 and c.faces <= sk.full_cube(4).faces


def test_graph_families():
    c3 = sk.generate("graph-c3")
    assert isinstance(c3, sk.SimpleGraph)
    assert c3.num_vertices == 3 and len(c3.edges) == 3
    k23 = sk.generate("graph-k23")
    assert k23.num_vertices == 5 and len(k23.edges) == 6
    assert sk.find_graph_embedding(c3, 5) is None
    assert sk.find_graph_embedding(k23, 5) is None


def test_product_family_kunneth_ranks():
    t = sk.generate("product(boundary-cube(2), boundary-cube(2))")
    assert sk.betti_gf2(t).betti == (1, 2, 1)
    st = sk.generate("product(boundary-cube(3), boundary-cube(2))")
    assert sk.betti_gf2(st).betti == (1, 1, 1, 1)


def test_corpus_members_are_valid_and_stable():
    items = corpus()
    names = [name for name, _ in items]
    assert len(names) == len(set(names))
    by_name = dict(items)
    for name, c in items:
        c.validate()
    assert by_name["torus"].f_vector() == (16, 32, 16)
    assert by_name["three-torus"].f_vector() == (64, 192, 192, 64)
    assert by_name["sphere-4"].dim == 4
    assert by_name["hexagon"].f_vector() == (6, 6)
    assert len(sk.components(by_name["two-spheres"])) == 2

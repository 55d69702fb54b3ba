import pytest

import skelcube as sk
from skelcube.generators import MAX_SPEC_DEPTH


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


def test_cbs_embeds_in_cube_on_vertex_count():
    c = sk.generate("cbs(4)")
    assert c.is_subcomplex_of(sk.full_cube(4))


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
    items = sk.corpus()
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

import random

import pytest

import skelcube as sk
from skelcube.complex import _derived
from skelcube.words import word_dim

from helpers import (
    all_words,
    components_oracle,
    delete_oracle,
    is_face_like_oracle,
    is_full_subcomplex,
    oracle_is_subface,
    projective_plane,
    random_subcomplex,
    star_walk_oracle,
    vertices_of,
)


def test_closure_of_full_square():
    c = sk.closure(2, ["**"])
    assert len(c.faces) == 9
    assert c.dim == 2
    c.validate()


def test_closure_idempotent_and_validates_words():
    c = sk.closure(3, ["*1*", "00*"])
    again = sk.closure(3, c.faces)
    assert again == c
    with pytest.raises(sk.StructuralError):
        sk.closure(2, ["0*1"])


def test_constructor_rejects_bad_words():
    with pytest.raises(sk.StructuralError):
        sk.CubicalComplex(2, frozenset(["012"]))
    with pytest.raises(sk.StructuralError):
        sk.CubicalComplex(-1, frozenset())


def test_constructor_rejects_words_of_the_wrong_length_or_type():
    with pytest.raises(sk.StructuralError):
        sk.CubicalComplex(3, frozenset(["0*"]))
    with pytest.raises(sk.StructuralError):
        sk.CubicalComplex(1, frozenset([0]))
    with pytest.raises(sk.StructuralError):
        sk.CubicalComplex(2, ["**", "0 "])  # a plain iterable is validated as well


def _assert_revalidates(c: sk.CubicalComplex) -> None:
    # a derived complex is exactly what the validating constructor builds from its words
    again = sk.CubicalComplex(c.ambient_dim, set(c.faces))
    assert type(c) is sk.CubicalComplex and isinstance(c.faces, frozenset)
    assert c == again and hash(c) == hash(again) and c.dim == again.dim
    c.validate()


def test_derived_complexes_equal_validated_ones():
    rng = random.Random(47)
    for n in range(0, 5):
        base = sk.full_cube(n)
        for _ in range(8):
            c = random_subcomplex(rng, base)
            g = random_subcomplex(rng, c, max_generators=2)
            _assert_revalidates(sk.delete(c, g))
            for k in range(-1, n + 1):
                _assert_revalidates(sk.skeleton(c, k))
            for part in sk.components(c):
                _assert_revalidates(part)
            _assert_revalidates(sk.product_complex(c, g))
    skel = sk.skeleton(sk.cube_boundary(4), 2)
    for step in sk.reconstruct_steps(skel, sk.ReconstructionConfig(2, 3)):
        _assert_revalidates(step.complex_after)


def test_local_profile_complement_is_a_valid_complex():
    # the local profile slices c.chains to the open star: the star must be
    # closed upward (its complement a complex) and every star face a column of c
    torus = sk.product_complex(sk.cube_boundary(2), sk.cube_boundary(2))
    for c in (torus, projective_plane()):
        for f in sorted(c.faces):
            open_star = sk.star(c, (f,))
            _assert_revalidates(_derived(c.ambient_dim, c.faces - open_star))
            assert all(w in c.chains.index[word_dim(w)] for w in open_star)


def test_validate_detects_missing_facet():
    broken = sk.CubicalComplex(2, frozenset(["**"]))
    with pytest.raises(sk.StructuralError):
        broken.validate()


def test_empty_complex():
    c = sk.CubicalComplex(3, frozenset())
    assert c.dim == -1
    assert c.f_vector() == ()
    assert sk.components(c) == []


def test_skeleton():
    sq = sk.full_cube(2)
    assert len(sk.skeleton(sq, 1).faces) == 8
    assert sk.skeleton(sq, 0).f_vector() == (4,)
    assert sk.skeleton(sq, -1).faces == frozenset()
    assert sk.skeleton(sq, 5) == sq


def test_skeleton_composition():
    rng = random.Random(11)
    base = sk.full_cube(4)
    for _ in range(20):
        c = random_subcomplex(rng, base)
        for k in range(-1, 4):
            for j in range(-1, 4):
                assert sk.skeleton(sk.skeleton(c, k), j) == sk.skeleton(c, min(j, k))


def test_delete_frozen_example():
    circle = sk.cube_boundary(2)
    out = sk.delete(circle, sk.closure(2, ["00"]))
    assert out.faces == frozenset(["01", "10", "11", "1*", "*1"])


def test_delete_requires_subcomplex():
    circle = sk.cube_boundary(2)
    with pytest.raises(sk.StructuralError):
        sk.delete(circle, sk.closure(3, ["000"]))
    with pytest.raises(sk.StructuralError):
        sk.delete(sk.skeleton(circle, 0), circle)


def test_delete_everything_and_nothing():
    s2 = sk.cube_boundary(3)
    assert sk.delete(s2, s2).faces == frozenset()
    assert sk.delete(s2, sk.CubicalComplex(3, frozenset())) == s2


def test_delete_stays_closed_on_random_inputs():
    rng = random.Random(23)
    base = sk.full_cube(4)
    for _ in range(30):
        c = random_subcomplex(rng, base)
        g = random_subcomplex(rng, c)
        out = sk.delete(c, g)
        out.validate()
        assert out.faces <= c.faces


def test_star_matches_subface_oracle():
    rng = random.Random(31)
    for n in range(1, 6):
        base = sk.full_cube(n)
        for _ in range(40):
            c = random_subcomplex(rng, base)
            given = rng.sample(list(all_words(n)), rng.randint(0, 3))
            expected = {w for w in c.faces if any(oracle_is_subface(f, w) for f in given)}
            assert sk.star(c, given) == expected, (sorted(c.faces), given)
            assert star_walk_oracle(c, given) == expected, (sorted(c.faces), given)


def test_star_is_exact_on_face_sets_that_are_not_closed():
    # the vertex index needs no downward closure; the coface walk does
    rng = random.Random(32)
    walk_missed = 0
    for n in range(1, 6):
        words = list(all_words(n))
        for _ in range(40):
            c = sk.CubicalComplex(n, frozenset(rng.sample(words, rng.randint(0, len(words) // 3))))
            given = rng.sample(words, rng.randint(0, 3))
            expected = {w for w in c.faces if any(oracle_is_subface(f, w) for f in given)}
            assert sk.star(c, given) == expected, (sorted(c.faces), given)
            walk_missed += star_walk_oracle(c, given) != expected
    assert walk_missed > 0


def test_vertex_index_lists_the_faces_at_each_vertex():
    rng = random.Random(33)
    for n in range(0, 5):
        c = random_subcomplex(rng, sk.full_cube(n))
        expected = {v: {w for w in c.faces if v in vertices_of(w)} for v in c.vertices()}
        index = c.faces_by_vertex
        assert {v: set(ws) for v, ws in index.items()} == expected
        assert all(len(ws) == len(set(ws)) for ws in index.values())
        assert c.faces_by_vertex is index


def test_delete_and_face_likeness_match_vertex_scan_oracles():
    rng = random.Random(37)
    for n in range(1, 6):
        base = sk.full_cube(n)
        for _ in range(40):
            c = random_subcomplex(rng, base)
            g = random_subcomplex(rng, c, max_generators=2)
            assert sk.delete(c, g) == delete_oracle(c, g)
            assert sk.is_face_like(c, g) == is_face_like_oracle(c, g)


def test_dim_is_computed_once(monkeypatch):
    c = sk.product_complex(sk.cube_boundary(2), sk.cube_boundary(3))
    twin = sk.CubicalComplex(c.ambient_dim, c.faces)
    real = word_dim
    calls = []
    monkeypatch.setattr("skelcube.complex.word_dim", lambda w: calls.append(w) or real(w))
    assert c.dim == 3
    first = len(calls)
    assert first > 0
    assert c.dim == 3
    assert len(calls) == first
    # the cached value is no field: equality and hashing ignore it
    assert c == twin and hash(c) == hash(twin)


def test_closure_refuses_more_faces_than_the_bound(monkeypatch):
    # the check counts 3**dim subfaces per new generator, overlaps included
    monkeypatch.setattr("skelcube.complex.MAX_CLOSURE_FACES", 3**4 + 3)
    assert len(sk.full_cube(4).faces) == 3**4
    assert len(sk.cube_boundary(4).faces) == 3**4 - 1
    assert len(sk.closure(5, ["****0", "0000*", "00*00"]).faces) == 3**4 + 2
    for build in (
        lambda: sk.full_cube(5),
        lambda: sk.cube_boundary(5),
        lambda: sk.closure(5, ["*****"]),
        lambda: sk.closure(5, ["****0", "****1"]),
    ):
        with pytest.raises(sk.ContractError):
            build()


def test_face_subcomplex_and_boundary():
    c = sk.full_cube(3)
    hat = sk.face_subcomplex(c, "*1*")
    assert len(hat.faces) == 9
    bd = sk.face_boundary(c, "*1*")
    assert len(bd.faces) == 8
    assert "*1*" not in bd.faces
    bd.validate()
    with pytest.raises(sk.StructuralError):
        sk.face_boundary(c, "***0")
    with pytest.raises(sk.StructuralError):
        sk.face_boundary(sk.cube_boundary(3), "***")


def test_face_boundary_of_square_in_plane():
    c = sk.full_cube(2)
    assert sk.face_boundary(c, "**").faces == sk.cube_boundary(2).faces


def test_is_face_like_diagonal_vertices():
    # full pair of opposite corners is not face-like in the square
    c = sk.full_cube(2)
    diag = sk.CubicalComplex(2, frozenset(["00", "11"]))
    assert not sk.is_face_like(c, diag)


def test_face_subcomplexes_are_face_like():
    rng = random.Random(5)
    base = sk.full_cube(4)
    for _ in range(15):
        c = random_subcomplex(rng, base)
        for f in sorted(c.faces)[:10]:
            assert sk.is_face_like(c, sk.face_subcomplex(c, f))


def test_face_like_implies_full():
    rng = random.Random(37)
    base = sk.full_cube(4)
    hits = 0
    for _ in range(60):
        c = random_subcomplex(rng, base)
        g = random_subcomplex(rng, c)
        if not g.faces:
            continue
        if sk.is_face_like(c, g):
            hits += 1
            assert is_full_subcomplex(c, g)
    assert hits > 5


def test_product_torus_f_vector():
    t = sk.product_complex(sk.cube_boundary(2), sk.cube_boundary(2))
    assert t.f_vector() == (16, 32, 16)
    t.validate()


def test_product_with_point_is_bijective():
    pt = sk.full_cube(0)
    c = sk.cube_boundary(3)
    assert sk.product_complex(c, pt) == c
    right = sk.product_complex(pt, c)
    assert len(right.faces) == len(c.faces)


def test_product_f_vector_is_convolution():
    rng = random.Random(91)
    base = sk.full_cube(3)
    for _ in range(10):
        a = random_subcomplex(rng, base)
        b = random_subcomplex(rng, base)
        p = sk.product_complex(a, b)
        fa, fb = a.f_vector(), b.f_vector()
        expect = [0] * (len(fa) + len(fb) - 1) if fa and fb else []
        for i, x in enumerate(fa):
            for j, y in enumerate(fb):
                expect[i + j] += x * y
        assert p.f_vector() == tuple(expect)


def test_components_two_squares_at_distinct_values():
    c = sk.closure(4, ["**00", "**11"])
    parts = sk.components(c)
    assert len(parts) == 2
    assert all(len(p.faces) == 9 for p in parts)
    assert parts[0].faces | parts[1].faces == c.faces


def test_components_wedge_is_connected():
    # squares sharing exactly the corner 1100
    c = sk.closure(4, ["**00", "11**"])
    assert len(sk.components(c)) == 1


def test_components_preserve_faces_and_sort_deterministically():
    c = sk.closure(3, ["0*0", "1*1", "11*"])
    parts = sk.components(c)
    assert len(parts) == 2
    assert min(parts[0].vertices()) < min(parts[1].vertices())
    for p in parts:
        p.validate()


def test_components_match_union_find_oracle():
    rng = random.Random(29)
    base = sk.full_cube(4)
    for _ in range(60):
        c = random_subcomplex(rng, base, max_generators=8)
        assert [p.faces for p in sk.components(c)] == components_oracle(c)


def test_maximal_faces():
    c = sk.closure(2, ["**"])
    assert c.maximal_faces() == ["**"]
    circle = sk.cube_boundary(2)
    assert circle.maximal_faces() == ["0*", "1*", "*0", "*1"]


def test_vertices_and_euler():
    s2 = sk.cube_boundary(3)
    assert len(s2.vertices()) == 8
    assert s2.euler_characteristic() == 2
    t = sk.product_complex(sk.cube_boundary(2), sk.cube_boundary(2))
    assert t.euler_characteristic() == 0


def test_ambient_faces_counts():
    assert len(list(sk.ambient_faces(4, 3))) == 8
    assert len(list(sk.ambient_faces(5, 3))) == 40
    assert list(sk.ambient_faces(2, 5)) == []
    assert sorted(sk.ambient_faces(1, 0)) == ["0", "1"]


def test_vertices_of_face_cover_expected_box():
    assert set(vertices_of("1*0*")) == {"1000", "1001", "1100", "1101"}

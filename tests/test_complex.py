import copy
import pickle
import random
import sys
import tracemalloc
from functools import partial, reduce

import pytest

import skelcube as sk
from skelcube.complex import _derived
from skelcube.words import proper_subwords, word_dim

from helpers import (
    all_words,
    components_oracle,
    corpus,
    delete_oracle,
    first_gap_oracle,
    gap_named_by,
    is_face_like,
    is_face_like_oracle,
    is_full_subcomplex,
    oracle_is_subface,
    projective_plane,
    random_subcomplex,
    sorted_entries,
    star,
    star_walk_oracle,
    vertex_links_oracle,
    vertices_of,
)


def test_closure_of_full_square():
    c = sk.closure(2, ["**"])
    assert len(c.faces) == 9
    assert c.dim == 2
    assert first_gap_oracle(c) is None


def test_closure_idempotent_and_validates_words():
    c = sk.closure(3, ["*1*", "00*"])
    again = sk.closure(3, c.faces)
    assert again == c
    with pytest.raises(sk.StructuralError):
        sk.closure(2, ["0*1"])
    with pytest.raises(sk.StructuralError, match="ambient_dim must be nonnegative"):
        sk.closure(-1, [])


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


def test_builders_that_skip_the_word_check_make_valid_closed_complexes():
    rng = random.Random(73)
    for n in range(0, 5):
        for _ in range(4):
            c = random_subcomplex(rng, sk.full_cube(n))
            _assert_revalidates(c)
        if n:
            _assert_revalidates(sk.cube_boundary(n))
    _assert_revalidates(sk.generate("disjoint-union(boundary-cube(3), cube(2))"))


def test_local_profile_complement_is_a_valid_complex():
    # the local profile reads the link of f off the open star: the star must be
    # closed upward (its complement a complex) and every star face a face of c
    torus = sk.product_complex(sk.cube_boundary(2), sk.cube_boundary(2))
    for c in (torus, projective_plane()):
        for f in sorted(c.faces):
            open_star = star(c, (f,))
            _assert_revalidates(_derived(c.ambient_dim, c.faces - open_star))
            assert open_star <= c.faces


def test_validate_detects_missing_facet():
    broken = sk.CubicalComplex(2, frozenset(["**"]))
    with pytest.raises(sk.StructuralError):
        broken.validate()


def _not_closed_sets() -> list[sk.CubicalComplex]:
    """Face sets that are not downward closed, each of dimension at most 2.

    First the square without its edge 0*, the 2-skeleton of the boundary
    of I^4 without its edge 00*0 and an edge without its high end; then
    24 seeded subcomplexes of I^2 to I^4 with a face below the top taken out.
    """
    sets = [
        sk.CubicalComplex(2, sk.full_cube(2).faces - {"0*"}),
        sk.CubicalComplex(4, sk.skeleton(sk.cube_boundary(4), 2).faces - {"00*0"}),
        sk.CubicalComplex(2, frozenset({"0*", "00"})),
    ]
    rng = random.Random(71)
    while len(sets) < 27:
        n = rng.randint(2, 4)
        c = random_subcomplex(rng, sk.skeleton(sk.full_cube(n), 2))
        below_top = sorted(c.faces - set(c.maximal_faces()))
        if below_top:
            sets.append(sk.CubicalComplex(n, c.faces - {rng.choice(below_top)}))
    return sets


def _reader_calls(c: sk.CubicalComplex):
    """Every reader that needs a downward-closed set, each as (name, call) on c."""
    n = c.ambient_dim
    for ring in (sk.GF2, sk.INTEGER):
        yield f"homology_profile {ring}", lambda ring=ring: sk.homology_profile(c, ring)
        yield f"cohomology_profile {ring}", lambda ring=ring: sk.cohomology_profile(c, ring)
        yield f"relative_profile (c, empty) {ring}", lambda ring=ring: sk.relative_profile(c, sk.CubicalComplex(n), ring)
        yield f"relative_profile (cube, c) {ring}", lambda ring=ring: sk.relative_profile(sk.full_cube(n), c, ring)
    yield "betti_gf2", lambda: sk.betti_gf2(c)
    yield "homology_integer", lambda: sk.homology_integer(c)
    yield "validate", c.validate
    yield "delete", lambda: sk.delete(c, sk.CubicalComplex(n))
    yield "graph_of", lambda: sk.graph_of(c)
    yield "components", lambda: sk.components(c)
    yield "local_profile", lambda: sk.local_profile(c, min(c.faces))
    yield "is_homology_manifold", lambda: sk.is_homology_manifold(c)
    yield "is_homology_manifold with orientability", lambda: sk.is_homology_manifold(c, check_orientability=True)
    yield "reconstruct", lambda: sk.reconstruct(c, sk.ReconstructionConfig(2, min(3, n)))
    yield "enumerate_candidates", lambda: sk.enumerate_candidates(c, c.dim)
    if n >= 3:  # a candidate of the criterion at k = 2 is a 3-face
        f = "***" + "0" * (n - 3)
        yield "face_criterion", lambda: sk.face_criterion(c, f, 2, 3)
        yield "face_criterion tight-int", lambda: sk.face_criterion(c, f, 2, 4, sk.TIGHT_INTEGER)


def test_no_reader_answers_on_a_face_set_that_is_not_downward_closed():
    # every reader refuses through validate, so each names the same gap,
    # the first that validate finds; read as they stand, the square
    # without 0* has Betti numbers (1, -1, 0)
    sets = _not_closed_sets()
    for c in sets:
        for name, call in _reader_calls(c):
            try:
                call()
            except sk.StructuralError as refused:
                assert gap_named_by(refused, c) == first_gap_oracle(c), name
            else:
                pytest.fail(f"{name} answered on {sorted(c.faces)}")
    # the pairs named on the first three sets, pinned
    square, skeleton, edge = sets[:3]
    refusals = [
        (edge, sk.graph_of, ("0*", "01")),
        (edge, sk.components, ("0*", "01")),
        (edge, sk.is_homology_manifold, ("0*", "01")),
        (square, sk.is_homology_manifold, ("**", "0*")),
        (skeleton, sk.is_homology_manifold, ("00**", "00*0")),
    ]
    refusals.append((square, lambda c: sk.local_profile(c, "00"), ("**", "0*")))
    refusals.append((skeleton, lambda c: sk.local_profile(c, "0000"), ("00**", "00*0")))
    # four edges of a square and none of their vertices: walking up from
    # the edges alone would offer the square 0** as a candidate
    rim = sk.CubicalComplex(3, frozenset({"00*", "01*", "0*0", "0*1"}))
    refusals.append((rim, lambda c: sk.enumerate_candidates(c, 1), ("00*", "001")))
    for c, check, named in refusals:
        with pytest.raises(sk.StructuralError) as refused:
            check(c)
        assert gap_named_by(refused.value, c) == named


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


def test_delete_refuses_a_face_set_that_is_not_downward_closed():
    # the deletion reads c's boundary matrices, whose build validates c:
    # the lone square is refused, not answered with itself
    square = sk.CubicalComplex(2, frozenset({"**"}))
    with pytest.raises(sk.StructuralError) as refused:
        sk.delete(square, sk.CubicalComplex(2))
    assert gap_named_by(refused.value, square) == ("**", "1*")


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
            assert star(c, given) == expected, (sorted(c.faces), given)
            assert star_walk_oracle(c, given) == expected, (sorted(c.faces), given)


def test_star_is_exact_on_face_sets_that_are_not_closed():
    # the index of faces by vertex needs no downward closure; the coface walk does
    rng = random.Random(32)
    walk_missed = 0
    for n in range(1, 6):
        words = list(all_words(n))
        for _ in range(40):
            c = sk.CubicalComplex(n, frozenset(rng.sample(words, rng.randint(0, len(words) // 3))))
            given = rng.sample(words, rng.randint(0, 3))
            expected = {w for w in c.faces if any(oracle_is_subface(f, w) for f in given)}
            assert star(c, given) == expected, (sorted(c.faces), given)
            walk_missed += star_walk_oracle(c, given) != expected
    assert walk_missed > 0


def test_vertex_tables_match_the_word_vertices_oracle():
    # the link table walks each face's vertices as masks and spells each
    # vertex once; the oracle spells every incidence from its word
    pad = "10" * 40
    sphere = sk.cube_boundary(3)
    padded = sk.CubicalComplex(163, frozenset(pad + w + pad for w in sphere.faces))
    point = sk.full_cube(0)
    for c in [c for _, c in corpus()] + [point, padded, projective_plane()]:
        assert sorted_entries(c.vertex_links) == vertex_links_oracle(c)
    assert point.vertex_links == {"": (0,)}
    assert len(padded.vertex_links) == 8 and all(v.startswith(pad) for v in padded.vertex_links)


def test_delete_and_face_likeness_match_vertex_scan_oracles():
    rng = random.Random(37)
    for n in range(1, 6):
        base = sk.full_cube(n)
        for _ in range(40):
            c = random_subcomplex(rng, base)
            g = random_subcomplex(rng, c, max_generators=2)
            assert sk.delete(c, g) == delete_oracle(c, g)
            assert is_face_like(c, g) == is_face_like_oracle(c, g)


def _deletions(c, cuts) -> list[sk.CubicalComplex]:
    """c less each of cuts in turn, as returned, its faces not read yet, and through pickle, copy and deepcopy."""
    fresh = partial(reduce, sk.delete, cuts, c)
    return [fresh(), pickle.loads(pickle.dumps(fresh())), copy.copy(fresh()), copy.deepcopy(fresh())]


def test_delete_matches_the_oracle_and_hashes_alike():
    # g holding edges and squares, g = c and g empty, and a deletion from
    # each nonempty result, on the corpus and on random subcomplexes.  The
    # homology memos key on complexes, so the result must also hash as the
    # oracle's does.  A deletion's faces are built on first read, so each
    # is compared before anything read them; pickle and copy keep the
    # faces alone, so a copy holds them and none of the host's matrices
    rng = random.Random(89)
    again = 0
    hosts = [c for _, c in corpus()] + [random_subcomplex(rng, sk.full_cube(n)) for n in range(2, 6) for _ in range(12)]
    for c in hosts:
        n = c.ambient_dim
        cells = sorted(w for w in c.faces if 1 <= word_dim(w) <= 2)
        cells = sk.closure(n, rng.sample(cells, min(len(cells), rng.randint(1, 3))))
        for g in (cells, c, sk.CubicalComplex(n)):
            first = delete_oracle(c, g)
            cases = [([g], first)]
            if first.faces:
                cut = sk.closure(n, [rng.choice(sorted(first.faces))])
                cases.append(([g, cut], delete_oracle(first, cut)))
                again += 1
            for cuts, expected in cases:
                for got in _deletions(c, cuts):
                    assert ("faces" in vars(got)) is ("chains" not in vars(got))
                    assert got == expected and hash(got) == hash(expected), (sorted(c.faces), [sorted(x.faces) for x in cuts])
                    assert type(got.faces) is frozenset and vars(got)["faces"] is got.faces
    assert again > 40


def test_deleting_a_star_copies_no_face_set():
    # a deletion's faces are built from its view when first read, so
    # deleting one vertex's 256-face star from I^8 allocates far less
    # than the host's face set of 6,561 words
    c = sk.full_cube(8)
    c.chains
    g = sk.closure(8, ["0" * 8])
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        got = sk.delete(c, g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before < sys.getsizeof(c.faces) // 16
    assert got == delete_oracle(c, g) and len(got) == 3**8 - 2**8


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
    # the check counts 3**dim subfaces per new generator, overlaps included;
    # in I^5 the bound is 3**4 + 3 faces of 5 letters
    monkeypatch.setattr("skelcube.complex.MAX_LETTERS", 5 * (3**4 + 3))
    assert len(sk.full_cube(4).faces) == 3**4
    assert len(sk.cube_boundary(4).faces) == 3**4 - 1
    assert len(sk.closure(5, ["****0", "0000*", "00*00"]).faces) == 3**4 + 2
    for build in (
        lambda: sk.full_cube(5),
        lambda: sk.cube_boundary(5),
        lambda: sk.closure(5, ["*****"]),
        lambda: sk.closure(5, ["****0", "****1"]),
    ):
        with pytest.raises(sk.ContractError, match="would exceed 420 letters"):
            build()


def test_size_bound_counts_letters_not_faces(monkeypatch):
    # 3**4 faces of 5 letters fill the bound; as many faces of 6 letters,
    # and products over it, are refused before they are built
    monkeypatch.setattr("skelcube.complex.MAX_LETTERS", 5 * 3**4)
    assert len(sk.closure(5, ["****0"])) == 3**4
    assert len(sk.product_complex(sk.cube_boundary(2), sk.cube_boundary(2))) == 64
    for build in (
        lambda: sk.closure(6, ["****00"]),
        lambda: sk.closure(406, ["0" * 406]),
        lambda: sk.product_complex(sk.cube_boundary(2), sk.cube_boundary(3)),
    ):
        with pytest.raises(sk.ContractError, match="would exceed 405 letters"):
            build()


def test_a_long_word_past_the_bound_is_named_by_its_length_and_stars():
    # one star in I^7000000 gives 3 faces of 7000000 letters, past the
    # bound; the refusal names the word in one short line, not in full
    n = 7_000_000
    with pytest.raises(sk.ContractError) as err:
        sk.closure(n, ["*" + "0" * (n - 1)])
    assert str(err.value).startswith(f"closure of a {n}-letter word with 1 star would exceed 20726199 letters")
    assert len(str(err.value)) < 200


def test_every_refusal_that_quotes_a_word_names_a_long_one_by_its_length_and_stars():
    n = 100_000
    edge = "*" + "0" * (n - 1)
    bent = sk.CubicalComplex(n, frozenset({edge, "0" * n}))  # the edge's high end is missing
    named = f"a {n}-letter word with 1 star"
    refusals = (
        (lambda: sk.CubicalComplex(n + 1, frozenset({edge})), f"face word {named} has length {n}, expected {n + 1}"),
        (lambda: sk.CubicalComplex(n, frozenset({edge[:-1] + "x"})), f"face word {named} contains letters"),
        (bent.validate, f"at {named}, face a {n}-letter word with 0 stars is missing"),
        (lambda: sk.local_profile(bent, edge), f"at {named}, face"),
        (lambda: sk.face_criterion(bent, edge, 2, 3), f"candidate {named} has dimension 1, expected 3"),
        (lambda: sk.closure(n, ["*" * 12 + "0" * (n - 12)]), f"closure of a {n}-letter word with 12 stars"),
    )
    for call, says in refusals:
        with pytest.raises((sk.StructuralError, sk.ContractError)) as refused:
            call()
        assert len(str(refused.value)) < 200 and says in str(refused.value), str(refused.value)[:200]
    with pytest.raises(sk.StructuralError, match=f"^face {named} is not in the complex$"):
        sk.local_profile(sk.CubicalComplex(n, frozenset({"0" * n})), edge)


def test_size_bound_holds_cube_13_and_refuses_small_inputs_with_large_results():
    # full_cube(13) is the largest cube within the bound
    assert sk.complex.MAX_LETTERS == 13 * 3**13
    for build in (
        lambda: sk.closure(600, ["*" * 13 + "0" * 587]),
        lambda: sk.full_cube(14),
        lambda: sk.product_complex(sk.cube_boundary(9), sk.cube_boundary(9)),
    ):
        with pytest.raises(sk.ContractError):
            build()


def test_face_subcomplex_and_boundary():
    # the closure of one face and its proper subwords, as the face-likeness checks spell them
    hat = sk.closure(3, ["*1*"])
    assert len(hat.faces) == 9
    bd = sk.CubicalComplex(3, frozenset(proper_subwords("*1*")))
    assert len(bd.faces) == 8
    assert bd.faces == hat.faces - {"*1*"}
    bd.validate()


def test_face_boundary_of_square_in_plane():
    # the proper faces of ** inside the full square are its boundary
    c = sk.full_cube(2)
    bd = sk.CubicalComplex(2, frozenset(proper_subwords("**")))
    assert bd.faces == c.faces - {"**"}
    assert bd == sk.cube_boundary(2)


def test_is_face_like_diagonal_vertices():
    # full pair of opposite corners is not face-like in the square
    c = sk.full_cube(2)
    diag = sk.CubicalComplex(2, frozenset(["00", "11"]))
    assert not is_face_like(c, diag)


def test_face_subcomplexes_are_face_like():
    rng = random.Random(5)
    base = sk.full_cube(4)
    for _ in range(15):
        c = random_subcomplex(rng, base)
        for f in sorted(c.faces)[:10]:
            assert is_face_like(c, sk.closure(c.ambient_dim, [f]))


def test_face_like_implies_full():
    rng = random.Random(37)
    base = sk.full_cube(4)
    hits = 0
    for _ in range(60):
        c = random_subcomplex(rng, base)
        g = random_subcomplex(rng, c)
        if not g.faces:
            continue
        if is_face_like(c, g):
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
        assert first_gap_oracle(p) is None


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


def test_maximal_faces_match_a_subface_scan():
    # a face is maximal when no other face of the set holds it; the
    # library tries only the directions of the edges at its low corner
    rng = random.Random(97)
    hosts = [random_subcomplex(rng, sk.full_cube(n), max_generators=8) for n in range(0, 6) for _ in range(10)]
    hosts.append(projective_plane())
    for c in hosts:
        tops = [w for w in c.faces if not any(u != w and oracle_is_subface(w, u) for u in c.faces)]
        assert c.maximal_faces() == sorted(tops, key=lambda w: w.translate(str.maketrans("01*", "012")))


def test_vertices_and_euler():
    s2 = sk.cube_boundary(3)
    assert len(s2.vertices()) == 8
    assert s2.euler_characteristic() == 2
    t = sk.product_complex(sk.cube_boundary(2), sk.cube_boundary(2))
    assert t.euler_characteristic() == 0


def test_vertices_of_face_cover_expected_box():
    assert set(vertices_of("1*0*")) == {"1000", "1001", "1100", "1101"}

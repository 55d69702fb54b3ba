import random

import pytest

import skelcube as sk
from skelcube.manifold import _link
from skelcube.words import facets, word_dim

from helpers import (
    all_words,
    assert_facelike_iff_not_bounding,
    components_by_vertices,
    cube_symmetry,
    first_gap_oracle,
    gap_named_by,
    graph_of_by_vertices,
    integer_local_profile,
    link_by_star_oracle,
    local_profile_oracle,
    projective_plane,
    random_subcomplex,
    relabel,
)
from test_properties import BY_NAME, MANIFOLDS


def test_local_profile_interior_and_top_faces():
    s2 = sk.cube_boundary(3)
    # every face of a closed surface has the local pattern of a 2-sphere
    for f in ["000", "0*0", "**0"]:
        assert sk.local_profile(s2, f).betti == (0, 0, 1)
        assert integer_local_profile(s2, f).betti == (0, 0, 1)


def test_local_profile_boundary_vertex_of_disc():
    disc = sk.full_cube(2)
    # corner of a solid square: relative homology of a cone, all zero
    assert sk.local_profile(disc, "00").betti == (0, 0, 0)
    assert sk.local_profile(disc, "**").betti == (0, 0, 1)


def test_local_profile_homogeneous_across_faces():
    # vertex-transitive examples: the profile depends only on the face dimension
    torus = sk.product_complex(sk.cube_boundary(2), sk.cube_boundary(2))
    for c in (sk.cube_boundary(3), torus):
        by_dim: dict[int, set] = {}
        for f in sorted(c.faces):
            prof = sk.local_profile(c, f)
            by_dim.setdefault(f.count("*"), set()).add(prof.betti)
        assert all(len(seen) == 1 for seen in by_dim.values())


def test_local_profile_matches_subface_scan_oracle():
    # random subcomplexes are not manifolds, so the sliced ranks drop and profiles
    # vary; RP^2 x I has boundary faces; the cubes at the origin of I^6 spanned by
    # the triangles of the six-vertex RP^2 give the origin the link RP^2, so its
    # local homology has 2-torsion.  Every face: the GF(2) profile and, over Z,
    # the pair (c, c minus the open star of f) through relative_profile.
    rng = random.Random(41)
    inputs = [random_subcomplex(rng, sk.full_cube(n), max_generators=4) for n in range(1, 6) for _ in range(12)]
    inputs.append(sk.product_complex(projective_plane(), sk.closure(1, ["*"])))
    triangles = ["012", "023", "034", "045", "015", "124", "235", "134", "245", "135"]
    cone = sk.closure(6, ["".join("*" if str(i) in t else "0" for i in range(6)) for t in triangles])
    torsion_at_apex = sk.HomologyProfile((0, 0, 0, 0), ((), (), (2,), ()))
    assert integer_local_profile(cone, "000000") == torsion_at_apex
    inputs.append(cone)
    # letter flips and coordinate permutations change the cubical signs of the
    # star's quotient matrices but must leave the Z/2 at the apex, wherever it lands
    for seed in range(8):
        apply = cube_symmetry(random.Random(seed), 6)
        placed = sk.CubicalComplex(6, frozenset(map(apply, cone.faces)))
        assert integer_local_profile(placed, apply("000000")) == torsion_at_apex, seed
    checked = 0
    for c in inputs:
        for f in sorted(c.faces):
            assert sk.local_profile(c, f) == local_profile_oracle(c, f, sk.GF2), (sorted(c.faces), f)
            assert integer_local_profile(c, f) == local_profile_oracle(c, f, sk.INTEGER), (sorted(c.faces), f)
            checked += 2
    assert checked > 1800


@pytest.mark.parametrize("name", [name for name, *_ in MANIFOLDS])
def test_local_profile_matches_oracle_on_every_face_of_a_placed_manifold(name):
    m, d, _ = BY_NAME[name]
    c = relabel(m, random.Random(name))
    for f in sorted(c.faces):
        assert sk.local_profile(c, f) == local_profile_oracle(c, f, sk.GF2), f
    # over Z each pair is a relative_profile call over a complement of all of
    # c, so the first face of each dimension stands for the rest
    for f in {word_dim(f): f for f in reversed(sorted(c.faces))}.values():
        assert integer_local_profile(c, f) == local_profile_oracle(c, f, sk.INTEGER), f


@pytest.fixture
def builds(monkeypatch):
    """The face sets handed to `_matrices_over`, through the homology module or the name manifold imports."""
    seen = []
    real = sk.homology._matrices_over

    def spy(faces):
        seen.append(frozenset(faces))
        return real(faces)

    monkeypatch.setattr("skelcube.homology._matrices_over", spy)
    monkeypatch.setattr("skelcube.manifold._matrices_over", spy)
    return seen


def test_manifold_check_builds_the_matrices_once_per_component(builds):
    # the local profiles read each face's link and build no matrices; the
    # orientability check builds D_d of each component once, from its faces
    # of the top two dimensions
    torus = sk.product_complex(sk.cube_boundary(2), sk.cube_boundary(2))
    gens = [w + b + b for w in sk.cube_boundary(3).maximal_faces() for b in "01"]
    two = sk.closure(5, gens)
    for c, parts in ((torus, 1), (two, 2)):
        builds.clear()
        assert sk.is_homology_manifold(c, check_orientability=True).is_manifold
        comps = sk.components(c)
        assert len(builds) == len(comps) == parts
        for faces, comp in zip(builds, comps):
            assert faces == {w for w in comp.faces if word_dim(w) >= comp.dim - 1}


def test_manifold_check_without_orientability_builds_no_matrices(builds):
    torus = sk.product_complex(sk.cube_boundary(2), sk.cube_boundary(2))
    assert sk.is_homology_manifold(torus).is_manifold
    assert not sk.is_homology_manifold(sk.full_cube(2)).is_manifold
    assert builds == []


def test_local_profile_builds_no_matrices_over_gf2(builds):
    # the GF(2) profile reads the link of f, with no quotient matrix built
    c = sk.product_complex(projective_plane(), sk.closure(1, ["*"]))
    for f in sorted(c.faces):
        sk.local_profile(c, f)
    assert builds == []


def test_local_profile_builds_the_vertex_links_once():
    c = sk.product_complex(projective_plane(), sk.closure(1, ["*"]))
    assert "vertex_links" not in c.__dict__
    first, second = sorted(c.faces)[:2]
    sk.local_profile(c, first)
    table = c.__dict__["vertex_links"]
    sk.local_profile(c, second)
    assert c.__dict__["vertex_links"] is table


def test_link_matches_the_star_intersection_oracle():
    # random face sets in I^2 to I^4, nearly all not downward closed, random
    # subcomplexes of I^0 to I^4 and the point I^0: the low corner's masks
    # give the star exactly where star's two corners do
    rng = random.Random(53)
    inputs = [sk.full_cube(0)]
    for _ in range(240):
        words = list(all_words(rng.randint(2, 4)))
        inputs.append(sk.CubicalComplex(len(words[0]), frozenset(rng.sample(words, rng.randint(1, len(words))))))
    inputs += [random_subcomplex(rng, sk.full_cube(rng.randint(0, 4))) for _ in range(80)]
    not_closed = checked = 0
    for c in inputs:
        not_closed += any(w not in c.faces for f in c.faces for w in facets(f))
        for f in c.faces:
            assert [sorted(level) for level in _link(c, f)] == [sorted(level) for level in link_by_star_oracle(c, f)]
            checked += 1
    assert not_closed > 200 and checked > 3000


def test_graph_and_components_match_their_vertex_list_forms():
    rng = random.Random(59)
    for n in range(0, 6):
        for _ in range(12):
            c = random_subcomplex(rng, sk.full_cube(n), max_generators=5)
            assert sk.graph_of(c) == graph_of_by_vertices(c)
            assert [p.faces for p in sk.components(c)] == components_by_vertices(c)


def test_a_connected_complex_is_its_own_component():
    # a rebuilt complex is its own component, with the tables it carries
    built = sk.reconstruct(sk.skeleton(sk.cube_boundary(4), 2), sk.ReconstructionConfig(2, 3))
    assert sk.components(built)[0] is built
    assert sk.is_homology_manifold(built).is_manifold


@pytest.mark.parametrize(
    "check",
    [
        sk.components,
        sk.is_homology_manifold,
        pytest.param(lambda c: sk.is_homology_manifold(c, check_orientability=True), id="orientability"),
    ],
)
def test_a_face_set_that_is_not_downward_closed_is_refused(check):
    # the square's edges and corners are missing; of its facets, 1* comes first
    with pytest.raises(sk.StructuralError, match=r"at '\*\*', face '1\*' is missing"):
        check(sk.CubicalComplex(2, frozenset({"**"})))
    # an edge whose high end is missing has no place in the 1-skeleton
    with pytest.raises(sk.StructuralError, match=r"'0\*'.*'01'"):
        check(sk.CubicalComplex(2, frozenset({"0*", "00"})))


def test_a_face_whose_star_lacks_a_facet_containing_it_is_refused_over_both_rings():
    # "00" is in the star of "**", whose facets "1*" and "0*" would be too;
    # read as they stand, GF(2) has no row for them and Z gives a Betti number
    # -1.  Over Z the pair (c, c minus the open star) goes to relative_profile.
    routes = {sk.GF2: sk.local_profile, sk.INTEGER: integer_local_profile}
    for route in routes.values():
        with pytest.raises(sk.StructuralError, match=r"at '\*\*', face '1\*' is missing"):
            route(sk.CubicalComplex(2, frozenset({"**", "00"})), "00")
    # random face sets and subcomplexes in I^2 and I^3: refused at every face
    # exactly when the set is not closed, naming its first gap, else the
    # quotient's homology
    rng = random.Random(61)
    refused = kept = 0
    for i in range(60):
        n = rng.randint(2, 3)
        if i % 2:
            c = random_subcomplex(rng, sk.full_cube(n))
        else:
            words = list(all_words(n))
            c = sk.CubicalComplex(n, frozenset(rng.sample(words, rng.randint(1, len(words)))))
        gap = first_gap_oracle(c)
        for f in sorted(c.faces):
            for ring, route in routes.items():
                if gap is None:
                    assert route(c, f) == local_profile_oracle(c, f, ring), (sorted(c.faces), f)
                    kept += 1
                else:
                    with pytest.raises(sk.StructuralError) as refused_at:
                        route(c, f)
                    assert gap_named_by(refused_at.value, c) == gap
                    refused += 1
    assert refused > 200 and kept > 200


def test_local_profile_requires_membership():
    with pytest.raises(sk.StructuralError):
        sk.local_profile(sk.cube_boundary(2), "**")


def test_sphere_is_manifold():
    rep = sk.is_homology_manifold(sk.cube_boundary(3), check_orientability=True)
    assert rep.is_manifold
    assert rep.dimension == 2
    assert rep.orientable is True
    assert rep.failing_face is None
    assert rep.reason is None and rep.failing_profile is None


def test_circle_and_point_are_manifolds():
    rep = sk.is_homology_manifold(sk.cube_boundary(2))
    assert rep.is_manifold and rep.dimension == 1
    assert rep.orientable is None
    pt = sk.full_cube(0)
    assert sk.is_homology_manifold(pt).is_manifold


def test_torus_is_orientable_manifold():
    torus = sk.product_complex(sk.cube_boundary(2), sk.cube_boundary(2))
    rep = sk.is_homology_manifold(torus, check_orientability=True)
    assert rep.is_manifold and rep.dimension == 2 and rep.orientable is True


def test_solid_square_is_not_a_manifold():
    rep = sk.is_homology_manifold(sk.full_cube(2))
    assert not rep.is_manifold
    assert rep.failing_face is not None
    # the witness face really does fail the local sphere pattern
    assert sk.local_profile(sk.full_cube(2), rep.failing_face).betti != (0, 0, 1)


def test_wedge_of_circles_fails_at_shared_corner():
    # two squares' boundaries glued along the single vertex 1100
    gens = ["0*00", "1*00", "*000", "*100", "110*", "111*", "11*0", "11*1"]
    c = sk.closure(4, gens)
    assert len(sk.components(c)) == 1
    rep = sk.is_homology_manifold(c)
    assert not rep.is_manifold
    assert (rep.reason, rep.failing_face) == ("local-homology", "1100")
    assert rep.failing_profile == sk.local_profile(c, "1100")
    assert rep.failing_profile.betti == (0, 3)


def test_impure_complex_fails_with_witness():
    # a square with a dangling edge at one corner
    c = sk.closure(3, ["**0", "00*"])
    rep = sk.is_homology_manifold(c)
    assert not rep.is_manifold
    assert (rep.reason, rep.failing_face, rep.failing_profile) == ("impure", "00*", None)
    assert rep.per_component[0].reason == "impure"


def test_no_negative_verdict_on_a_face_set_that_is_not_downward_closed():
    # read as they stand, the first looks impure at 10* and the second
    # fails the local homology at 000, before any local profile meets the gap
    impure = sk.CubicalComplex(3, sk.closure(3, ["**0", "1*1", "10*"]).faces - {"0*0"})
    bent = sk.CubicalComplex(3, sk.closure(3, ["0**", "11*"]).faces - {"01*", "0*1"})
    for c, at in ((impure, "**0"), (bent, "0**")):
        for orientability in (False, True):
            with pytest.raises(sk.StructuralError) as refused:
                sk.is_homology_manifold(c, orientability)
            assert gap_named_by(refused.value, c)[0] == at


def test_mixed_component_dimensions_fail():
    c = sk.closure(4, [w + "0" for w in sk.cube_boundary(3).maximal_faces()] + ["1111"])
    rep = sk.is_homology_manifold(c)
    assert not rep.is_manifold  # a sphere next to an isolated vertex
    assert (rep.reason, rep.failing_face, rep.failing_profile) == ("mixed-dimension", None, None)
    assert all(r.is_manifold and r.reason is None for r in rep.per_component)


def test_two_spheres_manifold_with_component_reports():
    gens = [w + "00" for w in sk.cube_boundary(3).maximal_faces()]
    gens += [w + "11" for w in sk.cube_boundary(3).maximal_faces()]
    both = sk.closure(5, gens)
    assert len(sk.components(both)) == 2
    rep = sk.is_homology_manifold(both, check_orientability=True)
    assert rep.is_manifold and rep.dimension == 2 and rep.orientable is True
    assert len(rep.per_component) == 2
    assert all(r.is_manifold for r in rep.per_component)


def test_empty_complex_is_not_a_manifold():
    rep = sk.is_homology_manifold(sk.CubicalComplex(3, frozenset()))
    assert not rep.is_manifold
    assert (rep.reason, rep.failing_face, rep.failing_profile) == ("empty", None, None)


def test_projective_plane_manifold_not_orientable():
    p = projective_plane()
    rep = sk.is_homology_manifold(p, check_orientability=True)
    assert rep.is_manifold and rep.dimension == 2
    assert rep.orientable is False


def test_orientability_of_spheres():
    for n in (2, 3):
        assert sk.is_homology_manifold(sk.cube_boundary(n), check_orientability=True).orientable is True


def test_facelike_characterization_positive_and_negative():
    # boundary of the missing top face of a sphere: face-like
    assert assert_facelike_iff_not_bounding(sk.cube_boundary(3), "***") is True
    # same boundary inside the solid cube: it bounds, so not face-like
    assert assert_facelike_iff_not_bounding(sk.full_cube(3), "***") is False
    # a square boundary inside the bare 1-skeleton: nothing fills it
    assert assert_facelike_iff_not_bounding(sk.skeleton(sk.full_cube(2), 1), "**") is True
    # the same square boundary inside the filled square
    assert assert_facelike_iff_not_bounding(sk.full_cube(2), "**") is False

import random

import pytest

import skelcube as sk

from helpers import local_profile_oracle, projective_plane, random_subcomplex


def test_local_profile_interior_and_top_faces():
    s2 = sk.cube_boundary(3)
    # every face of a closed surface has the local pattern of a 2-sphere
    for f in ["000", "0*0", "**0"]:
        assert sk.local_profile(s2, f, sk.GF2).betti == (0, 0, 1)
        assert sk.local_profile(s2, f, sk.INTEGER).betti == (0, 0, 1)


def test_local_profile_boundary_vertex_of_disc():
    disc = sk.full_cube(2)
    # corner of a solid square: relative homology of a cone, all zero
    assert sk.local_profile(disc, "00", sk.GF2).betti == (0, 0, 0)
    assert sk.local_profile(disc, "**", sk.GF2).betti == (0, 0, 1)


def test_local_profile_homogeneous_across_faces():
    # vertex-transitive examples: the profile depends only on the face dimension
    torus = sk.product_complex(sk.cube_boundary(2), sk.cube_boundary(2))
    for c in (sk.cube_boundary(3), torus):
        by_dim: dict[int, set] = {}
        for f in sorted(c.faces):
            prof = sk.local_profile(c, f, sk.GF2)
            by_dim.setdefault(f.count("*"), set()).add(prof.betti)
        assert all(len(seen) == 1 for seen in by_dim.values())


def test_local_profile_matches_subface_scan_oracle():
    rng = random.Random(41)
    checked = 0
    for n in range(1, 6):
        base = sk.full_cube(n)
        for _ in range(12):
            c = random_subcomplex(rng, base, max_generators=4)
            for f in rng.sample(sorted(c.faces), min(6, len(c.faces))):
                for ring in (sk.GF2, sk.INTEGER):
                    assert sk.local_profile(c, f, ring) == local_profile_oracle(c, f, ring), (sorted(c.faces), f)
                    checked += 1
    rp2 = projective_plane()
    for f in sorted(rp2.faces)[::7]:
        assert sk.local_profile(rp2, f, sk.INTEGER) == local_profile_oracle(rp2, f, sk.INTEGER)
    assert checked > 300


def test_local_profile_requires_membership():
    with pytest.raises(sk.StructuralError):
        sk.local_profile(sk.cube_boundary(2), "**")


def test_sphere_is_manifold():
    rep = sk.is_homology_manifold(sk.cube_boundary(3), check_orientability=True)
    assert rep.is_manifold
    assert rep.dimension == 2
    assert rep.orientable is True
    assert rep.failing_face is None


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
    assert sk.local_profile(sk.full_cube(2), rep.failing_face, sk.GF2).betti != (0, 0, 1)


def test_wedge_of_circles_fails_at_shared_corner():
    # two squares' boundaries glued along the single vertex 1100
    gens = ["0*00", "1*00", "*000", "*100", "110*", "111*", "11*0", "11*1"]
    c = sk.closure(4, gens)
    assert len(sk.components(c)) == 1
    rep = sk.is_homology_manifold(c)
    assert not rep.is_manifold
    assert rep.failing_face == "1100"
    assert sk.local_profile(c, "1100", sk.GF2).betti == (0, 3)


def test_impure_complex_fails_with_witness():
    # a square with a dangling edge at one corner
    c = sk.closure(3, ["**0", "00*"])
    rep = sk.is_homology_manifold(c)
    assert not rep.is_manifold
    assert rep.failing_face == "00*"


def test_mixed_component_dimensions_fail():
    c = sk.closure(4, [w + "0" for w in sk.cube_boundary(3).maximal_faces()] + ["1111"])
    rep = sk.is_homology_manifold(c)
    assert not rep.is_manifold  # a sphere next to an isolated vertex


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


def test_projective_plane_manifold_not_orientable():
    p = projective_plane()
    rep = sk.is_homology_manifold(p, check_orientability=True)
    assert rep.is_manifold and rep.dimension == 2
    assert rep.orientable is False
    assert sk.is_orientable(p) is False


def test_is_orientable_direct_calls():
    assert sk.is_orientable(sk.cube_boundary(3)) is True
    assert sk.is_orientable(sk.cube_boundary(2)) is True
    with pytest.raises(sk.ContractError):
        sk.is_orientable(sk.CubicalComplex(2, frozenset()))
    with pytest.raises(sk.ContractError):
        sk.is_orientable(sk.closure(2, ["0*", "11"]))


def test_facelike_characterization_positive_and_negative():
    # boundary of the missing top face of a sphere: face-like
    s2 = sk.cube_boundary(3)
    assert sk.facelike_characterization(s2, s2, 2) is True
    # same boundary inside the solid cube: it bounds, so not face-like
    solid = sk.full_cube(3)
    assert sk.facelike_characterization(solid, sk.cube_boundary(3), 2) is False
    # a square boundary inside the bare 1-skeleton: nothing fills it
    skel1 = sk.skeleton(sk.full_cube(2), 1)
    assert sk.facelike_characterization(skel1, sk.cube_boundary(2), 1) is True
    # the same square boundary inside the filled square
    assert sk.facelike_characterization(sk.full_cube(2), sk.cube_boundary(2), 1) is False


def test_facelike_characterization_raises_on_disagreement(monkeypatch):
    # a face-likeness test that answers wrong must trip the cross-check, also under -O
    monkeypatch.setattr("skelcube.manifold.is_face_like", lambda c, g: False)
    s2 = sk.cube_boundary(3)
    with pytest.raises(sk.ContradictionError):
        sk.facelike_characterization(s2, s2, 2)


def test_facelike_characterization_rejects_bad_inputs():
    s2 = sk.cube_boundary(3)
    with pytest.raises(sk.ContractError):
        sk.facelike_characterization(s2, s2, 0)
    with pytest.raises(sk.StructuralError):
        sk.facelike_characterization(s2, sk.CubicalComplex(3, frozenset()), 2)
    with pytest.raises(sk.StructuralError):
        # wrong k for the subcomplex shape
        sk.facelike_characterization(s2, s2, 1)
    with pytest.raises(sk.StructuralError):
        # not a full cube boundary: a path of two edges
        path = sk.closure(2, ["0*", "*1"])
        sk.facelike_characterization(sk.full_cube(2), path, 1)

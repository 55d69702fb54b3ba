import importlib
import random
import sys
import time
import tracemalloc

import pytest

import skelcube as sk
from skelcube import homology

from helpers import (
    assert_criterion_matches_oracle,
    candidate_oracle,
    corpus,
    delete_oracle,
    projective_plane,
    random_subcomplex,
    reconstruct_checking_the_carry,
    shelled_sphere,
    words_by_stars,
)


def test_enumerate_candidates_against_oracle():
    rng = random.Random(19)
    total = 0
    for _ in range(12):
        base = sk.full_cube(4)
        c = random_subcomplex(rng, base, max_generators=8)
        # skeletons below c.dim are the ones with candidates: the faces of c one degree up
        for k in range(4):
            skel = sk.skeleton(c, k)
            cands = sk.enumerate_candidates(skel, k)
            assert cands == candidate_oracle(skel, k)
            total += len(cands)
    assert total > 0


def test_enumerate_candidates_ignores_the_size_of_the_ambient_cube():
    # the 3-sphere padded with zeros into I^14: scanning every ambient
    # 3-face would visit C(14,3) * 2^11 words
    s3 = sk.product_complex(sk.cube_boundary(4), sk.closure(10, ["0" * 10]))
    skel = sk.skeleton(s3, 2)
    start = time.process_time()
    cands = sk.enumerate_candidates(skel, 2)
    assert time.process_time() - start <= 0.5
    assert cands == sorted(s3.faces - skel.faces, key=lambda w: w.translate(str.maketrans("01*", "012")))
    assert len(cands) == 8


def test_enumerate_candidates_and_maximal_faces_walk_the_edges_at_a_low_corner_in_a_padded_cube():
    # the 3-sphere's 2-skeleton padded with zeros into I^3000: each of its
    # 24 squares has 2998 one-step cofaces, which spelt out come to a
    # 221.5 MB traced peak and 1.75 s; two of them lie along edges at the
    # square's low corner, so the walk spells 48 words
    n = 3000
    s3 = sk.product_complex(sk.cube_boundary(4), sk.closure(n - 4, ["0" * (n - 4)]))
    skel = sk.skeleton(s3, 2)
    tracemalloc.start()
    try:
        cands = sk.enumerate_candidates(skel, 2)
        tops = skel.maximal_faces()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    canon = str.maketrans("01*", "012")
    assert cands == sorted(s3.faces - skel.faces, key=lambda w: w.translate(canon))
    assert tops == sorted((w for w in skel.faces if w.count("*") == 2), key=lambda w: w.translate(canon))
    assert peak <= 2_000_000, peak


def test_enumerate_candidates_below_degree_zero_is_empty():
    empty = sk.CubicalComplex(3)
    # an ambient scan would call all eight vertices of I^3 candidates: they have no facets
    assert sk.enumerate_candidates(empty, -1) == []


def test_enumerate_candidates_frozen_counts():
    skel2 = sk.skeleton(sk.cube_boundary(3), 1)
    assert sk.enumerate_candidates(skel2, 1) == sorted(
        sk.cube_boundary(3).maximal_faces(), key=lambda w: w.translate(str.maketrans("01*", "012"))
    )
    # 2-skeleton of the 3-torus sees its 64 genuine 3-faces
    t3 = sk.product_complex(
        sk.product_complex(sk.cube_boundary(2), sk.cube_boundary(2)), sk.cube_boundary(2)
    )
    cands = sk.enumerate_candidates(sk.skeleton(t3, 2), 2)
    assert len(cands) == 64
    assert set(cands) == {w for w in t3.faces if w.count("*") == 3}
    # product of two sphere boundaries: 24 genuine + 4 spurious candidates
    m = sk.product_complex(sk.cube_boundary(3), sk.cube_boundary(2))
    cands = sk.enumerate_candidates(sk.skeleton(m, 2), 2)
    assert len(cands) == 28


def test_enumerate_candidates_rejects_high_dimension():
    with pytest.raises(sk.ContractError):
        sk.enumerate_candidates(sk.cube_boundary(3), 1)


def test_enumerate_candidates_when_ambient_too_small():
    c = sk.full_cube(2)
    assert sk.enumerate_candidates(c, 2) == []


def test_config_validation():
    sk.ReconstructionConfig(3, 4).validate()
    sk.ReconstructionConfig(2, 3).validate()
    sk.ReconstructionConfig(2, 4, sk.TIGHT_GF2).validate()
    with pytest.raises(sk.ContractError):
        sk.ReconstructionConfig(1, 2).validate()
    with pytest.raises(sk.ContractError):
        sk.ReconstructionConfig(2, 5).validate()  # k too small for d
    with pytest.raises(sk.ContractError):
        sk.ReconstructionConfig(3, 4, sk.TIGHT_GF2).validate()  # d != 2k
    with pytest.raises(sk.ContractError):
        sk.ReconstructionConfig(2, 4, "loose").validate()


def test_face_criterion_validates_arguments():
    skel = sk.skeleton(sk.cube_boundary(4), 2)
    with pytest.raises(sk.ContractError):
        sk.face_criterion(skel, "***0", 1, 2)
    with pytest.raises(sk.ContractError):
        sk.face_criterion(skel, "***0", 2, 4)  # d-k > k-1
    with pytest.raises(sk.ContractError):
        sk.face_criterion(skel, "**00", 2, 3)  # wrong candidate dimension
    with pytest.raises(sk.ContractError):
        sk.face_criterion(skel, "***0", 1, 2, sk.TIGHT_GF2)
    with pytest.raises(sk.ContractError):
        sk.face_criterion(skel, "***0", 2, 3, sk.TIGHT_INTEGER)  # tight needs d = 2k
    with pytest.raises(sk.ContractError):
        sk.face_criterion(skel, "***0", 2, 4, "rationals")
    with pytest.raises(sk.StructuralError, match="face word must be a string, got int"):
        sk.face_criterion(skel, 123, 2, 3)  # checked as a word before its dimension is read


def test_tight_criterion_compares_only_degree_d_minus_k_minus_1():
    # H_1 of RP^2 x S^1 is Z + Z/2, so the ring shows in the profile
    m = sk.product_complex(projective_plane(), sk.cube_boundary(2))
    skel = sk.skeleton(m, 2)
    f = "**0001*0"
    assert f in m
    standard = sk.face_criterion(skel, f, 2, 3)
    assert [(j, base) for j, _, base in standard.profiles] == [(1, (2, ())), (0, (1, ()))]
    assert sk.face_criterion(skel, f, 2, 4, sk.TIGHT_GF2).profiles == ((1, (2, ()), (2, ())),)
    assert sk.face_criterion(skel, f, 2, 4, sk.TIGHT_INTEGER).profiles == ((1, (1, (2,)), (1, (2,))),)


def test_face_criterion_missing_boundary_is_rejected_early():
    skel = sk.skeleton(sk.cube_boundary(4), 2)
    gap = sk.CubicalComplex(4, skel.faces - frozenset(["**00"]))
    verdict = sk.face_criterion(gap, "***0", 2, 3)
    assert not verdict.boundary_present
    assert not verdict.accepted
    assert verdict.profiles == ()


def test_sphere_rebuild_from_2_skeleton():
    s2 = sk.cube_boundary(3)
    skel = sk.skeleton(s2, 2)
    assert skel == s2  # the boundary complex is its own 2-skeleton
    steps = list(sk.reconstruct_steps(sk.skeleton(sk.cube_boundary(4), 2), sk.ReconstructionConfig(2, 3)))
    assert len(steps) == 1
    final = steps[0].complex_after
    assert final == sk.cube_boundary(4)
    assert all(v.accepted for v in steps[0].verdicts)
    assert len(steps[0].verdicts) == 8


def test_three_torus_rebuild():
    t3 = sk.product_complex(
        sk.product_complex(sk.cube_boundary(2), sk.cube_boundary(2)), sk.cube_boundary(2)
    )
    skel = sk.skeleton(t3, 2)
    out = sk.reconstruct(skel, sk.ReconstructionConfig(2, 3))
    assert out == t3


def test_product_manifold_rebuild_rejects_spurious_faces():
    m = sk.product_complex(sk.cube_boundary(3), sk.cube_boundary(2))
    skel = sk.skeleton(m, 2)
    steps = list(sk.reconstruct_steps(skel, sk.ReconstructionConfig(2, 3)))
    first = steps[0]
    rejected = [v.face for v in first.verdicts if not v.accepted]
    assert rejected == ["***00", "***01", "***10", "***11"]
    for v in first.verdicts:
        if not v.accepted:
            assert v.boundary_present  # rejected on homology, not on closure
            degrees = {j for j, _, _ in v.profiles}
            assert degrees == {0, 1}
    assert steps[-1].complex_after == m


@pytest.mark.parametrize(
    "m, k, d",
    [
        (sk.product_complex(sk.cube_boundary(4), sk.cube_boundary(2)), 3, 4),
        (sk.product_complex(shelled_sphere(1, 3, 1, 6), sk.cube_boundary(3)), 2, 3),
    ],
    ids=["dI^4xdI^2", "S^1xdI^3"],
)
def test_rebuilds_reject_cube_boundaries_on_degree_d_minus_j_alone(m, k, d):
    # a factor dI^(j+1) offers (j+1)-cubes, dI^(j+1) x {vertex}, whose whole
    # boundary is present at step j: deleting it drops H_(d-j), and nothing
    # in degree d-j-1 tells them from the faces of m
    steps = list(sk.reconstruct_steps(sk.skeleton(m, k), sk.ReconstructionConfig(k, d)))
    assert steps[-1].complex_after == m
    alone = [
        v.face
        for step in steps
        for v in step.verdicts
        if v.boundary_present
        and [left == right for _, left, right in v.profiles] == [False, True]
        and [j for j, _, _ in v.profiles] == [d - step.degree, d - step.degree - 1]
    ]
    assert alone


def test_rejected_profiles_show_the_homology_drop():
    m = sk.product_complex(sk.cube_boundary(3), sk.cube_boundary(2))
    skel = sk.skeleton(m, 2)
    verdict = sk.face_criterion(skel, "***00", 2, 3)
    assert verdict.boundary_present and not verdict.accepted
    by_degree = {j: (left, right) for j, left, right in verdict.profiles}
    assert by_degree[1][0] != by_degree[1][1]


def test_tight_modes_rebuild_boundary_of_5_cube():
    skel = sk.skeleton(sk.cube_boundary(5), 2)
    for mode in (sk.TIGHT_GF2, sk.TIGHT_INTEGER):
        out = sk.reconstruct(skel, sk.ReconstructionConfig(2, 4, mode))
        assert out == sk.cube_boundary(5)


@pytest.mark.parametrize("seed, n, d", [(1, 5, 3), (2, 6, 3), (3, 6, 4)], ids=["S^3-in-I^5", "S^3-in-I^6", "S^4-in-I^6"])
def test_shelled_sphere_rebuilds_from_its_middle_skeleton(seed, n, d):
    # a sphere that is no cube boundary: the paper's sphere case, where at
    # even d the (d/2)-skeleton suffices in both tight modes
    s = shelled_sphere(seed, n, d, cells=8)
    assert len(s.maximal_faces()) > 2 * (d + 1)
    report = sk.is_homology_manifold(s, check_orientability=True)
    assert (report.is_manifold, report.dimension, report.orientable) == (True, d, True)
    for ring in (sk.GF2, sk.INTEGER):
        assert sk.homology_profile(s, ring) == sk.homology_profile(sk.cube_boundary(d + 1), ring)
    k = d // 2 + 1
    assert sk.reconstruct(sk.skeleton(s, k), sk.ReconstructionConfig(k, d)) == s
    if d % 2 == 0:
        for mode in (sk.TIGHT_GF2, sk.TIGHT_INTEGER):
            assert sk.reconstruct(sk.skeleton(s, d // 2), sk.ReconstructionConfig(d // 2, d, mode)) == s


@pytest.mark.parametrize(
    "sphere, f_vector, tops, cube, faces, betti",
    [
        ((3, 5, 3), (30, 70, 60, 20), 20, 2, 1440, (1, 1, 0, 1, 1)),
        ((5, 4, 2), (16, 28, 14), 14, 3, 1508, (1, 0, 2, 0, 1)),
    ],
    ids=["S^3xS^1", "S^2xS^2"],
)
def test_product_of_a_shelled_sphere_rebuilds_from_its_3_skeleton(sphere, f_vector, tops, cube, faces, betti):
    # the theorem holds for any cubical manifold, not only for products of
    # cube boundaries: a shelled sphere times the boundary of a square or
    # of a cube is an orientable 4-manifold with Kuenneth homology
    s = shelled_sphere(*sphere, cells=8)
    assert tuple(sum(1 for w in s.faces if w.count("*") == j) for j in range(s.dim + 1)) == f_vector
    assert len(s.maximal_faces()) == tops
    m = sk.product_complex(s, sk.cube_boundary(cube))
    assert len(m.faces) == faces
    report = sk.is_homology_manifold(m, check_orientability=True)
    assert (report.is_manifold, report.dimension, report.orientable) == (True, 4, True)
    for ring in (sk.GF2, sk.INTEGER):
        assert sk.homology_profile(m, ring) == sk.HomologyProfile(betti, ((),) * 5)
    assert sk.reconstruct(sk.skeleton(m, 3), sk.ReconstructionConfig(3, 4)) == m


def test_reconstruct_is_idempotent_on_complete_input():
    s3 = sk.cube_boundary(4)
    out = sk.reconstruct(sk.skeleton(s3, 3), sk.ReconstructionConfig(3, 3))
    assert out == s3  # degree range is empty, nothing to do
    out = sk.reconstruct(s3, sk.ReconstructionConfig(3, 4))
    # rebuilding from its own top skeleton cannot add anything new
    assert out == s3


def test_intermediate_skeleton_restarts_cleanly():
    s4 = sk.cube_boundary(5)
    mid = sk.reconstruct(sk.skeleton(s4, 3), sk.ReconstructionConfig(3, 4))
    assert mid == s4


def test_step_count_matches_degree_range():
    skel = sk.skeleton(sk.cube_boundary(4), 2)
    steps = list(sk.reconstruct_steps(skel, sk.ReconstructionConfig(2, 3)))
    assert [s.degree for s in steps] == [2]
    steps = list(sk.reconstruct_steps(sk.skeleton(sk.cube_boundary(5), 3), sk.ReconstructionConfig(3, 4)))
    assert [s.degree for s in steps] == [3]


def test_accepted_faces_imply_boundary_present():
    skel = sk.skeleton(sk.cube_boundary(4), 2)
    for step in sk.reconstruct_steps(skel, sk.ReconstructionConfig(2, 3)):
        for v in step.verdicts:
            if v.accepted:
                assert v.boundary_present


def test_reconstruct_rejects_oversized_input():
    with pytest.raises(sk.ContractError):
        sk.reconstruct(sk.cube_boundary(4), sk.ReconstructionConfig(2, 3))


def test_reconstruct_steps_checks_its_contract_at_the_call():
    # each call raises before any step is asked for: a bad k, an input
    # above k, and targets above the ambient I^4 (no face has dimension > 4)
    skel = sk.skeleton(sk.cube_boundary(4), 2)
    for c, cfg in (
        (skel, sk.ReconstructionConfig(1, 3)),
        (sk.cube_boundary(4), sk.ReconstructionConfig(2, 3)),
        (skel, sk.ReconstructionConfig(20000, 39999)),
    ):
        with pytest.raises(sk.ContractError):
            sk.reconstruct_steps(c, cfg)
    with pytest.raises(sk.ContractError, match=r"d=5 exceeds the ambient dimension 4"):
        sk.reconstruct_steps(skel, sk.ReconstructionConfig(3, 5))
    # d = 4 itself fits: one step, without candidates on a 2-complex
    (step,) = sk.reconstruct_steps(skel, sk.ReconstructionConfig(3, 4))
    assert step.degree == 3 and not step.verdicts


def test_auto_tries_no_target_above_the_ambient_dimension(monkeypatch):
    # d runs from k + 1 up to min(dmax, 2k - 1, 4) on a complex in I^4, never
    # past 4: d = k would add no face to a k-skeleton, whose own check is made
    module = importlib.import_module("skelcube.reconstruct")  # the package's name is the function
    tried = []
    real = module.reconstruct

    def spy(c, cfg):
        assert cfg.d <= c.ambient_dim, cfg
        tried.append(cfg.d)
        return real(c, cfg)

    monkeypatch.setattr(module, "reconstruct", spy)
    for k in (2, 3, 800):
        found = sk.reconstruct_auto(sk.skeleton(sk.cube_boundary(4), 2), k, 10**6)
        assert [(d, cx == sk.cube_boundary(4)) for d, cx in found] == ([(3, True)] if k == 2 else [])
    assert tried == [3, 4]


def test_auto_refuses_an_input_above_k_for_every_dmax():
    # whether d_max reaches k or not: the refusal is made on entry
    for d_max in (1, 2, 3, 10**6):
        with pytest.raises(sk.ContractError, match=r"^input dimension 3 exceeds k=2$"):
            sk.reconstruct_auto(sk.cube_boundary(4), 2, d_max)


def test_auto_finds_sphere_and_nothing_else():
    skel = sk.skeleton(sk.cube_boundary(3), 2)
    found = sk.reconstruct_auto(skel, 2, 4)
    assert [(d, len(cx.faces)) for d, cx in found] == [(2, 26)]
    assert found[0][1] == sk.cube_boundary(3)


def test_auto_reports_input_when_already_a_manifold():
    circle = sk.cube_boundary(2)
    sq = sk.product_complex(circle, circle)
    found = sk.reconstruct_auto(sq, 2, 3)
    dims = [d for d, _ in found]
    assert 2 in dims
    assert any(cx == sq for d, cx in found if d == 2)


def test_auto_on_skeleton_of_4_sphere():
    skel = sk.skeleton(sk.cube_boundary(4), 2)
    found = sk.reconstruct_auto(skel, 2, 3)
    assert [(d, cx == sk.cube_boundary(4)) for d, cx in found] == [(3, True)]


def test_auto_validates_arguments():
    skel = sk.skeleton(sk.cube_boundary(3), 2)
    with pytest.raises(sk.ContractError):
        sk.reconstruct_auto(skel, 1, 3)
    with pytest.raises(sk.ContractError):
        sk.reconstruct_auto(skel, 2, 4, mode="loose")


def test_tight_mode_misuse_is_caught_by_manifold_check():
    # the 2-skeleton of the 3-sphere violates the tight middle-homology
    # hypothesis at d=4; auto discards whatever the tight run produces
    skel = sk.skeleton(sk.cube_boundary(4), 2)
    found = sk.reconstruct_auto(skel, 2, 4, mode=sk.TIGHT_GF2)
    assert all(d != 4 or sk.is_homology_manifold(cx).is_manifold for d, cx in found)
    assert (3, sk.cube_boundary(4)) in [(d, cx) for d, cx in found]


def test_criterion_matches_delete_and_recompute_oracle_on_the_corpus():
    compared = 0
    for _, c in corpus():
        for k in range(2, c.dim):
            skel = sk.skeleton(c, k)
            compared += assert_criterion_matches_oracle(skel, k, sk.enumerate_candidates(skel, k))
    assert compared > 0


def _emptied_degrees(skel: sk.CubicalComplex, f: str) -> bool:
    """Whether deleting f's boundary removes every face of some degree of skel."""
    # f and its boundary have the same vertices, which is all the deletion looks at
    return len(delete_oracle(skel, sk.closure(skel.ambient_dim, [f])).f_vector()) < len(skel.f_vector())


def test_criterion_matches_delete_and_recompute_oracle_on_random_subcomplexes():
    # I^1 and I^2 hold no (k+1)-face for k >= 2, so their cases are vacuous
    rng = random.Random(41)
    compared = emptied = 0
    for n in range(1, 6):
        base = sk.full_cube(n)
        by_stars = words_by_stars(n)
        for _ in range(20):
            c = random_subcomplex(rng, base, max_generators=4)
            for k in range(2, n):
                skel = sk.skeleton(c, k)
                ambient = by_stars[k + 1]
                # the candidates, plus two faces whose boundary may be missing
                faces = sorted(set(sk.enumerate_candidates(skel, k)) | set(rng.sample(ambient, min(2, len(ambient)))))
                compared += assert_criterion_matches_oracle(skel, k, faces)
                emptied += sum(_emptied_degrees(skel, f) for f in faces)
    assert compared > 100
    assert emptied > 0


_COST_CASES = pytest.mark.parametrize(
    "skel, cfg",
    [
        (sk.skeleton(sk.cube_boundary(4), 2), sk.ReconstructionConfig(2, 3)),
        (sk.skeleton(sk.cube_boundary(5), 2), sk.ReconstructionConfig(2, 4, sk.TIGHT_GF2)),
    ],
    ids=["S^3", "S^4-tight"],
)


@_COST_CASES
def test_reconstruction_builds_one_chain_complex_per_degree(monkeypatch, skel, cfg):
    built = []
    real = homology._matrices_over

    def counting(face_set):
        built.append(frozenset(face_set))
        return real(face_set)

    monkeypatch.setattr(homology, "_matrices_over", counting)
    skel = sk.CubicalComplex(skel.ambient_dim, skel.faces)  # a fresh instance, nothing built yet
    steps = list(sk.reconstruct_steps(skel, cfg))
    assert len(steps) == cfg.d - cfg.k
    # the input's matrices only: each later degree carries them up by one level
    assert built == [skel.faces]


@_COST_CASES
def test_reconstruction_builds_no_vertex_table(monkeypatch, skel, cfg):
    # the candidates' deletions find the open star by the letter masks of
    # the matrices' view; no face is expanded into its vertices
    calls = []
    real = sk.complex.vertex_table
    monkeypatch.setattr(sk.complex, "vertex_table", lambda words: calls.append(words) or real(words))
    skel = sk.CubicalComplex(skel.ambient_dim, skel.faces)  # a fresh instance, nothing built yet
    steps = list(sk.reconstruct_steps(skel, cfg))
    assert calls == []
    assert sum(len(step.verdicts) for step in steps) > len(steps)


def test_reconstruction_from_a_deletion_matches_its_plain_twin():
    # the one library path that reads a view's columns: the first degree
    # grows the deletion's chains by `extended`.  Its steps, verdicts and
    # grown complexes are those of the same faces in a plain complex, and
    # every carried column, read and table is that of a fresh build
    skel = sk.skeleton(sk.product_complex(sk.cube_boundary(3), sk.cube_boundary(3)), 2)
    cfg = sk.ReconstructionConfig(2, 3)
    for v in sorted(skel.vertices())[::21]:
        cut = sk.delete(skel, sk.closure(skel.ambient_dim, [v]))
        twin = sk.CubicalComplex(cut.ambient_dim, cut.faces)
        steps = reconstruct_checking_the_carry(cut, cfg)
        assert "columns" in cut.chains.__dict__
        assert steps == list(sk.reconstruct_steps(twin, cfg)), v
        assert any(step.complex_after.dim == 3 for step in steps), v


@_COST_CASES
def test_reconstruction_reads_no_deletion_face_set(monkeypatch, skel, cfg):
    # the criterion reads a candidate's deletion through its chains alone,
    # so no deletion builds its face set
    kept = []
    module = importlib.import_module("skelcube.reconstruct")  # the package's name is the function
    real = module.delete
    monkeypatch.setattr(module, "delete", lambda c, g: kept.append(real(c, g)) or kept[-1])
    steps = list(sk.reconstruct_steps(skel, cfg))
    assert len(kept) == sum(len(step.verdicts) for step in steps) > len(steps)
    assert not any("faces" in vars(c) for c in kept)


@_COST_CASES
def test_reconstruction_eliminates_each_gf2_map_once_per_degree(monkeypatch, skel, cfg):
    # every candidate reads the base's rank and kernel table of a map, none
    # reduces its own columns, and a later degree keeps the ranks and tables
    # of the maps it carries: over the whole reconstruction each map gets
    # one rank pass, from the base profile, and at most one table build.
    # The input's passes run from its top level down, each packing the
    # columns off the pivot rows of the map above, as many as its rank;
    # a level added later has no map above it when it is read
    ranked, tabled = [], []
    real_rank, real_table = homology.gf2_rank, homology._gf2_table
    rank_read = homology._gf2_elimination.__code__

    def counting_rank(vectors, pivot_rows=None):
        if sys._getframe(1).f_code is rank_read:  # the shared pass, not the masked read's rank of Y
            vectors = list(vectors)
            ranked.append(len(vectors))
        return real_rank(vectors, pivot_rows)

    def counting_table(columns):
        tabled.append(columns)
        return real_table(columns)

    monkeypatch.setattr(homology, "gf2_rank", counting_rank)
    monkeypatch.setattr(homology, "_gf2_table", counting_table)
    skel = sk.CubicalComplex(skel.ambient_dim, skel.faces)
    steps = list(sk.reconstruct_steps(skel, cfg))
    last = steps[-2].complex_after if len(steps) > 1 else skel  # the base of the last degree
    mats = last.chains
    top = skel.dim
    cleared = [mats.num_faces(j) - (homology._read(mats, sk.GF2, j + 1)[0] if j < top else 0) for j in range(top, 0, -1)]
    assert ranked == cleared + [mats.num_faces(j) for j in range(top + 1, last.dim + 1)]
    maps = last.chains.columns[1:]
    assert tabled and all(sum(t is m for m in maps) == 1 for t in tabled)
    assert len({id(t) for t in tabled}) == len(tabled)
    assert sum(len(step.verdicts) for step in steps) > len(ranked) + len(tabled)

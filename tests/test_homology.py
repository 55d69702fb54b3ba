import math
import random

import pytest

import skelcube as sk
from skelcube.homology import _homology, _invariant_factors, _matrices_over

from helpers import (
    assert_chain_identity,
    bareiss_det,
    bareiss_rank,
    betti_oracle_gf2,
    cohomology_oracle,
    gf2_rank_dense,
    kept_homology_gf2_oracle,
    projective_plane,
    random_subcomplex,
    snf_oracle,
    transposed_columns,
)


def test_boundary_of_boundary_vanishes():
    rng = random.Random(7)
    base = sk.full_cube(4)
    for _ in range(25):
        c = random_subcomplex(rng, base)
        assert_chain_identity(c.chains)


def test_boundary_matrix_shapes_match_f_vector():
    t = sk.product_complex(sk.cube_boundary(2), sk.cube_boundary(2))
    mats = t.chains
    f = t.f_vector()
    for j in range(1, len(f)):
        assert mats.num_faces(j - 1) == f[j - 1]
        assert len(mats.columns[j]) == f[j]


def test_betti_gf2_frozen_values():
    assert sk.betti_gf2(sk.cube_boundary(2)).betti == (1, 1)
    assert sk.betti_gf2(sk.cube_boundary(3)).betti == (1, 0, 1)
    assert sk.betti_gf2(sk.full_cube(3)).betti == (1, 0, 0, 0)
    torus = sk.product_complex(sk.cube_boundary(2), sk.cube_boundary(2))
    assert sk.betti_gf2(torus).betti == (1, 2, 1)


def test_betti_gf2_against_dense_oracle():
    rng = random.Random(13)
    base = sk.full_cube(4)
    for _ in range(20):
        c = random_subcomplex(rng, base)
        assert sk.betti_gf2(c).betti == betti_oracle_gf2(c)


def test_integer_homology_frozen_values():
    prof = sk.homology_integer(sk.cube_boundary(3))
    assert prof.betti == (1, 0, 1)
    assert prof.torsion == ((), (), ())
    torus = sk.product_complex(sk.cube_boundary(2), sk.cube_boundary(2))
    prof = sk.homology_integer(torus)
    assert prof.betti == (1, 2, 1)
    assert prof.torsion == ((), (), ())


def test_projective_plane_torsion():
    p = projective_plane()
    prof = sk.homology_integer(p)
    assert prof.betti == (1, 0, 0)
    assert prof.torsion == ((), (2,), ())
    # gf2 sees the torsion class at degrees 1 and 2
    assert sk.betti_gf2(p).betti == (1, 1, 1)


def test_projective_plane_cohomology_shifts_torsion():
    p = projective_plane()
    prof = sk.cohomology_profile(p, sk.INTEGER)
    assert prof.betti == (1, 0, 0)
    assert prof.torsion == ((), (), (2,))
    assert prof == cohomology_oracle(p, sk.INTEGER)
    assert sk.cohomology_profile(p, sk.GF2).betti == (1, 1, 1)
    assert sk.cohomology_profile(p, sk.GF2) == cohomology_oracle(p, sk.GF2)


def test_cohomology_gf2_matches_homology_ranks():
    rng = random.Random(29)
    base = sk.full_cube(4)
    for _ in range(15):
        c = random_subcomplex(rng, base)
        assert sk.cohomology_profile(c, sk.GF2).betti == sk.betti_gf2(c).betti
        assert sk.cohomology_profile(c, sk.GF2) == cohomology_oracle(c, sk.GF2)


def test_integer_cohomology_obeys_universal_coefficients():
    # H^j(C; Z) has the free rank of H_j and the torsion of H_(j-1)
    rng = random.Random(53)
    base = sk.full_cube(4)
    for c in [projective_plane()] + [random_subcomplex(rng, base) for _ in range(15)]:
        hom = sk.homology_integer(c)
        coh = sk.cohomology_profile(c, sk.INTEGER)
        assert coh == cohomology_oracle(c, sk.INTEGER)
        assert coh.betti == hom.betti
        for j in range(len(coh.betti)):
            assert coh.degree(j)[1] == hom.degree(j - 1)[1]


def test_profile_interface():
    prof = sk.homology_profile(sk.cube_boundary(3), sk.GF2)
    assert prof.betti == (1, 0, 1)
    assert prof.degree(0) == (1, ())
    assert prof.degree(2) == (1, ())
    assert prof.degree(7) == (0, ())
    assert prof.degree(-1) == (0, ())
    ip = sk.homology_profile(sk.cube_boundary(3), sk.INTEGER)
    assert ip.betti == prof.betti
    assert prof.degree(2) == ip.degree(2)
    with pytest.raises(sk.ContractError):
        sk.homology_profile(sk.cube_boundary(3), "rationals")


def test_empty_and_point_profiles():
    empty = sk.CubicalComplex(2, frozenset())
    prof = sk.homology_profile(empty, sk.GF2)
    assert prof.betti == ()
    assert prof.degree(0) == (0, ())
    pt = sk.full_cube(0)
    assert sk.betti_gf2(pt).betti == (1,)
    assert sk.homology_integer(pt).betti == (1,)
    assert sk.homology_integer(pt).torsion == ((),)


def test_euler_characteristic_consistency():
    rng = random.Random(41)
    base = sk.full_cube(4)
    for _ in range(20):
        c = random_subcomplex(rng, base)
        b = sk.homology_integer(c).betti
        chi = sum((-1) ** j * bj for j, bj in enumerate(b))
        assert chi == c.euler_characteristic()


def test_corpus_is_torsion_free_and_mod2_consistent():
    # with no torsion anywhere, GF(2) and integer Betti vectors must agree
    for name, c in sk.corpus():
        integral = sk.homology_integer(c)
        assert all(t == () for t in integral.torsion), name
        assert sk.betti_gf2(c).betti == integral.betti, name


def test_disconnected_betti_zero_counts_components():
    c = sk.closure(4, ["**00", "**11"])
    assert sk.betti_gf2(c).betti[0] == 2
    assert sk.homology_integer(c).betti[0] == 2


def test_smith_normal_form_frozen():
    assert sk.smith_normal_form([[2, 4], [6, 8]]) == (2, 4)
    assert sk.smith_normal_form([[1, 0], [0, 1]]) == (1, 1)
    assert sk.smith_normal_form([[0, 0], [0, 0]]) == ()
    assert sk.smith_normal_form([]) == ()
    assert sk.smith_normal_form([[6]]) == (6,)
    assert sk.smith_normal_form([[2, 0], [0, 3]]) == (1, 6)


def test_smith_normal_form_vs_oracle_random():
    rng = random.Random(3)
    for _ in range(40):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        assert sk.smith_normal_form(m) == snf_oracle(m)
    # many entries of least absolute value: the pivot is chosen among ties
    for _ in range(150):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = [[rng.choice([0, 2, -2, 4, -4]) for _ in range(cols)] for _ in range(rows)]
        assert sk.smith_normal_form(m) == snf_oracle(m), m
    # a dense 40 x 40 without units is beyond the minors oracle: check the
    # rank, the divisibility chain and that the factors multiply to |det|
    m = [[rng.choice([0, 2, -2, 3, 4, 6]) for _ in range(40)] for _ in range(40)]
    factors = sk.smith_normal_form(m)
    assert len(factors) == bareiss_rank(m)
    assert all(b % a == 0 for a, b in zip(factors, factors[1:]))
    assert math.prod(factors) == abs(bareiss_det(m)) != 0


def test_integer_rank_matches_snf_length():
    rng = random.Random(17)
    for _ in range(40):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
        assert sk.integer_rank(m) == len(sk.smith_normal_form(m))


def sparse_columns(mat, cols: int) -> list[list[tuple[int, int]]]:
    return [[(i, row[j]) for i, row in enumerate(mat) if row[j]] for j in range(cols)]


def test_invariant_factors_vs_oracle_random():
    rng = random.Random(41)
    entries = [0, 0, 0, 0, 1, -1, 2, -2, 3, -4, 6]
    for _ in range(400):
        rows = rng.randint(0, 4)
        cols = rng.randint(0, 4)
        m = [[rng.choice(entries) for _ in range(cols)] for _ in range(rows)]
        if rows and rng.random() < 0.3:
            m[rng.randrange(rows)] = [0] * cols
        if cols and rng.random() < 0.3:
            dead = rng.randrange(cols)
            for row in m:
                row[dead] = 0
        assert _invariant_factors(sparse_columns(m, cols)) == snf_oracle(m), m
    assert _invariant_factors([[], [], []]) == ()  # 0 x 3
    assert _invariant_factors([]) == ()  # any m x 0
    assert _invariant_factors([[(0, 2), (1, 4)], [(0, 6), (1, 8)]]) == (2, 4)
    assert _invariant_factors([[(5, 1)], [(5, 1)], [(7, -1)]]) == (1, 1)


def test_invariant_factors_match_dense_snf_on_boundary_and_quotient_matrices():
    rng = random.Random(59)
    checked = 0
    for n in range(1, 6):
        base = sk.full_cube(n)
        for _ in range(50):
            c = random_subcomplex(rng, base)
            a = random_subcomplex(rng, c)
            for faces in (c.faces, c.faces - a.faces):
                mats = _matrices_over(faces)
                for j in range(1, mats.top + 1):
                    dense = mats.dense(j)
                    assert _invariant_factors(mats.columns[j]) == sk.smith_normal_form(dense)
                    assert _invariant_factors(transposed_columns(mats, j)) == sk.smith_normal_form(list(zip(*dense)))
                    checked += 1
    assert checked > 500


def test_integer_rank_vs_bareiss_oracle():
    rng = random.Random(23)
    for _ in range(150):
        rows = rng.randint(0, 6)
        cols = rng.randint(0, 6)
        m = [[rng.choice([0, 0, 1, -1, 2, 3, -5]) for _ in range(cols)] for _ in range(rows)]
        assert sk.integer_rank(m) == bareiss_rank(m)
    rp2 = projective_plane()
    mats = _matrices_over(rp2.faces)
    for j in range(1, mats.top + 1):
        assert sk.integer_rank(mats.dense(j)) == bareiss_rank(mats.dense(j))


def test_projective_plane_squared_integer_homology_and_cohomology():
    # Kuenneth: H_*(RP^2 x RP^2; Z) = Z, (Z/2)^2, Z/2, Z/2, 0
    rp2 = projective_plane()
    c = sk.product_complex(rp2, rp2)
    assert len(c.faces) == 14641
    h = sk.homology_integer(c)
    assert h.betti == (1, 0, 0, 0, 0)
    assert h.torsion == ((), (2, 2), (2,), (2,), ())
    co = sk.cohomology_profile(c, sk.INTEGER)
    assert co.betti == (1, 0, 0, 0, 0)
    assert co.torsion == ((), (), (2, 2), (2,), (2,))
    assert co == cohomology_oracle(c, sk.INTEGER)


def test_kept_columns_give_the_homology_of_any_subcomplex():
    # a subcomplex's boundary matrices are its host's, restricted to its columns
    rng = random.Random(53)
    base = sk.full_cube(4)
    for _ in range(40):
        c = random_subcomplex(rng, base)
        sub = random_subcomplex(rng, c)
        degrees = range(-1, c.dim + 2)
        for ring in (sk.GF2, sk.INTEGER):
            expected = sk.homology_profile(sub, ring)
            assert _homology(c.chains, ring, degrees, sub.faces) == {j: expected.degree(j) for j in degrees}
    rp2_times_circle = sk.product_complex(projective_plane(), sk.cube_boundary(2))
    skel = sk.skeleton(rp2_times_circle, 2)
    # the torsion of H_1 = Z + Z/2 shows up from the host's own integer matrices
    assert _homology(rp2_times_circle.chains, sk.INTEGER, (1,), skel.faces) == {1: (1, (2,))}


def test_gf2_elimination_gives_the_rank_and_a_kernel_basis():
    rng = random.Random(57)
    for n in range(1, 6):
        base = sk.full_cube(n)
        for _ in range(10):
            mats = random_subcomplex(rng, base).chains
            for j in range(-1, mats.top + 2):
                rank, kernel = mats.gf2_elimination(j)
                if not 1 <= j <= mats.top:
                    assert (rank, kernel) == (0, ())
                    continue
                columns = [sum(1 << r for r, _ in col) for col in mats.columns[j]]
                assert rank == gf2_rank_dense([[v % 2 for v in row] for row in mats.dense(j)])
                assert len(kernel) == len(columns) - rank
                assert sk.gf2_rank(kernel) == len(kernel)
                for z in kernel:
                    image = 0
                    for c, col in enumerate(columns):
                        if z >> c & 1:
                            image ^= col
                    assert image == 0
                assert mats.gf2_elimination(j) is mats.gf2_elimination(j)


def test_rank_nullity_matches_the_kept_column_reduction():
    # kept sets: none, all, a vertex deletion, a skeleton and any subcomplex
    rng = random.Random(59)
    emptied = 0
    for n in range(1, 6):
        base = sk.full_cube(n)
        for _ in range(16):
            c = random_subcomplex(rng, base)
            mats = c.chains
            degrees = range(-1, c.dim + 2)
            deleted = sk.delete(c, random_subcomplex(rng, c, max_generators=2)).faces
            for kept in (
                frozenset(),
                c.faces,
                deleted,
                sk.skeleton(c, rng.randint(-1, c.dim)).faces,
                random_subcomplex(rng, c).faces,
            ):
                got = _homology(mats, sk.GF2, degrees, kept)
                assert got == kept_homology_gf2_oracle(mats, degrees, kept), (sorted(c.faces), sorted(kept))
            emptied += any(level and deleted.isdisjoint(level) for level in mats.levels)
    assert emptied > 10


def test_gf2_rank_packed():
    assert sk.gf2_rank([]) == 0
    assert sk.gf2_rank([0b101, 0b011, 0b110]) == 2
    assert sk.gf2_rank([1, 2, 4, 7]) == 3


def test_relative_profile_extremes():
    c = sk.cube_boundary(3)
    full = sk.relative_profile(c, c, sk.GF2)
    assert full.betti == (0, 0, 0)
    empty = sk.CubicalComplex(3, frozenset())
    assert sk.relative_profile(c, empty, sk.GF2).betti == sk.betti_gf2(c).betti
    assert sk.relative_profile(c, empty, sk.INTEGER).betti == (1, 0, 1)


def test_relative_profile_sphere_minus_vertex_star():
    # removing the closed faces avoiding one vertex leaves a relative disc
    c = sk.cube_boundary(2)
    a = sk.delete(c, sk.closure(2, ["00"]))
    rel = sk.relative_profile(c, a, sk.GF2)
    assert rel.betti == (0, 1)


def test_relative_profile_requires_subcomplex():
    c = sk.cube_boundary(2)
    with pytest.raises(sk.StructuralError):
        sk.relative_profile(c, sk.full_cube(2), sk.GF2)
    with pytest.raises(sk.StructuralError):
        sk.relative_profile(c, sk.CubicalComplex(3, frozenset()), sk.GF2)


def test_restricted_matrices_equal_the_quotient_matrices_built_from_words():
    # slicing c.chains to the faces outside a subcomplex gives the quotient
    # matrices of the pair, in canonical order, with the degrees of c
    rng = random.Random(67)
    for n in range(1, 6):
        base = sk.full_cube(n)
        for _ in range(20):
            c = random_subcomplex(rng, base)
            a = random_subcomplex(rng, c)
            for away in (c.faces - a.faces, c.faces):
                sliced = c.chains.restricted_to(away)
                built = _matrices_over(away)
                assert sliced.top == c.dim
                for j in range(c.dim + 1):
                    assert sliced.levels[j] == (built.levels[j] if j <= built.top else [])
                    assert sliced.index[j] == (built.index[j] if j <= built.top else {})
                    if j >= 1:
                        assert sliced.columns[j] == (built.columns[j] if j <= built.top else [])


def test_long_exact_sequence_euler_check():
    # chi(c) == chi(a) + chi(c, a) for any subcomplex pair
    rng = random.Random(53)
    base = sk.full_cube(4)
    for _ in range(15):
        c = random_subcomplex(rng, base)
        a = random_subcomplex(rng, c)
        rel = sk.relative_profile(c, a, sk.INTEGER)
        chi_rel = sum((-1) ** j * bj for j, bj in enumerate(rel.betti))
        assert c.euler_characteristic() == a.euler_characteristic() + chi_rel

import math
import pickle
import random
import sys
import tracemalloc

import pytest

import skelcube as sk
from skelcube import homology
from skelcube.complex import _grown
from skelcube.homology import _gf2_map, _homology, _invariant_factors, _matrices_over, _read
from skelcube.words import letter_masks, signed_facets, word_dim, word_vertices

from helpers import (
    all_words,
    assert_chain_identity,
    bareiss_det,
    bareiss_rank,
    betti_oracle_gf2,
    cohomology_oracle,
    corpus,
    gf2_elimination_oracle,
    gf2_rank_dense,
    gf2_table_oracle,
    kept_homology,
    kept_homology_gf2_oracle,
    meeting_oracle,
    packed_columns,
    per_level_homology,
    projective_plane,
    random_subcomplex,
    sliced_chains,
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
    for name, c in corpus():
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
    # empty shapes, tuples and bool entries read as the integers they are
    for m in ([], [[]], [[], []], [[0, 0]], ((2, 4), (1, 2)), [[True, False], [True, True]], [[False]]):
        assert sk.integer_rank(m) == len(sk.smith_normal_form(m))
    assert sk.integer_rank([[True, True], [True, True]]) == 1
    for ragged in ([[1, 2], [3]], [[], [1]], [[0], [0, 0]]):
        with pytest.raises(sk.StructuralError):
            sk.integer_rank(ragged)
        with pytest.raises(sk.StructuralError, match="ragged matrix"):
            sk.smith_normal_form(ragged)


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


def test_matrices_over_walks_its_faces_once():
    # an iterator builds what its list builds; a set without its lower
    # dimensions, as `_top_free_rank` passes, keeps those levels empty
    rp2 = projective_plane()
    for faces in (sorted(rp2.faces), [w for w in rp2.faces if word_dim(w) >= 1]):
        listed, walked = _matrices_over(faces), _matrices_over(iter(faces))
        assert (walked.levels, walked.columns) == (listed.levels, listed.columns)
        assert len(walked.levels) == 3
    assert _matrices_over(iter(["0", "1", "*"])).levels == [["0", "1"], ["*"]]


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
            assert kept_homology(c.chains, ring, degrees, sub.faces) == {j: expected.degree(j) for j in degrees}
    rp2_times_circle = sk.product_complex(projective_plane(), sk.cube_boundary(2))
    skel = sk.skeleton(rp2_times_circle, 2)
    # the torsion of H_1 = Z + Z/2 shows up from the host's own integer
    # matrices, and so it does through a view without a vertex's star
    assert kept_homology(rp2_times_circle.chains, sk.INTEGER, (1,), skel.faces) == {1: (1, (2,))}
    vertex = min(rp2_times_circle.vertices())
    assert _homology(rp2_times_circle.chains.without([vertex]), sk.INTEGER, (1,)) == {1: (1, (2,))}


def test_gf2_elimination_gives_the_rank_and_a_kernel_basis():
    # the oracle the library's GF(2) ranks and kernel tables are checked
    # against: its rank is the dense one, and its kernel is an independent
    # set of kernel vectors, as many as the nullity, fully reduced
    rng = random.Random(57)
    for n in range(1, 6):
        base = sk.full_cube(n)
        for _ in range(10):
            mats = random_subcomplex(rng, base).chains
            for j in range(1, mats.top + 1):
                columns = packed_columns(mats, j)
                rank, kernel = gf2_elimination_oracle(columns)
                assert rank == gf2_rank_dense([[v % 2 for v in row] for row in mats.dense(j)])
                assert len(kernel) == len(columns) - rank
                assert sk.gf2_rank(kernel) == len(kernel)
                tops = [1 << (z.bit_length() - 1) for z in kernel]
                assert all(z & sum(tops) == top for z, top in zip(kernel, tops))
                for z in kernel:
                    image = 0
                    for c, col in enumerate(columns):
                        if z >> c & 1:
                            image ^= col
                    assert image == 0


def test_gf2_rank_and_kernel_table_match_the_oracle_in_either_read_order():
    # a masked read builds the table first and the cleared pass reads the
    # rank later; an unmasked one takes the rank alone, and a later mask
    # builds the table.  Outside degrees 1..top `_read` answers before any
    # table is asked for
    rng = random.Random(61)
    hosts = [c for _, c in corpus()]
    hosts += [random_subcomplex(rng, sk.full_cube(n)) for n in range(1, 6) for _ in range(8)]
    for c in hosts:
        top = c.chains.top
        expected = {j: gf2_table_oracle(c.chains, j) for j in range(-1, top + 2)}
        masked_first, unmasked_first = _matrices_over(c.faces), _matrices_over(c.faces)
        for j, (rank, table) in expected.items():
            if 1 <= j <= top:
                assert masked_first._kernel_table(j) == table, (sorted(c.faces), j)
            assert _read(masked_first, sk.GF2, j) == (rank, ()), (sorted(c.faces), j)
            assert _read(unmasked_first, sk.GF2, j) == (rank, ()), (sorted(c.faces), j)
            if 1 <= j <= top:
                assert unmasked_first._kernel_table(j) == table, (sorted(c.faces), j)
        assert all(masked_first._kernel_table(j) is masked_first._kernel_table(j) for j in range(1, top + 1))
        # a table above caches no read, so the pass over the map below
        # reads the map above itself and is cleared by its pivot rows
        for j, (rank, _) in expected.items():
            tabled_above = _matrices_over(c.faces)
            if 1 <= j + 1 <= top:
                tabled_above._kernel_table(j + 1)
            assert not tabled_above._reads
            assert _read(tabled_above, sk.GF2, j) == (rank, ()), (sorted(c.faces), j)


def test_rank_nullity_matches_the_kept_column_reduction():
    # kept sets: none, all, a vertex deletion, a skeleton and any subcomplex,
    # of random complexes and of RP^2, whose H_1 has torsion; over Z the
    # answer is compared with matrices built anew from the kept words
    rng = random.Random(59)
    hosts = [random_subcomplex(rng, sk.full_cube(n)) for n in range(1, 6) for _ in range(16)]
    hosts += [projective_plane()] * 4
    emptied = torsion = 0
    for c in hosts:
        mats = c.chains
        degrees = range(-1, c.dim + 2)
        deleted = sk.delete(c, random_subcomplex(rng, c, max_generators=2))
        for kept in (
            frozenset(),
            c.faces,
            deleted.faces,
            sk.skeleton(c, rng.randint(-1, c.dim)).faces,
            random_subcomplex(rng, c).faces,
        ):
            got = kept_homology(mats, sk.GF2, degrees, kept)
            assert got == kept_homology_gf2_oracle(mats, degrees, kept), (sorted(c.faces), sorted(kept))
            got = kept_homology(mats, sk.INTEGER, degrees, kept)
            assert got == _homology(_matrices_over(kept), sk.INTEGER, degrees), (sorted(c.faces), sorted(kept))
            torsion += any(factors for _, factors in got.values())
        # the deletion's own matrices are a view of c's, read the same way
        assert _homology(deleted.chains, sk.GF2, degrees) == kept_homology_gf2_oracle(mats, degrees, deleted.faces)
        assert _homology(deleted.chains, sk.INTEGER, degrees) == kept_homology(mats, sk.INTEGER, degrees, deleted.faces)
        emptied += any(level and deleted.faces.isdisjoint(level) for level in mats.levels)
    assert emptied > 10
    assert torsion >= 4


def test_masked_gf2_rank_matches_the_dense_rank_of_the_kept_columns():
    # masks: random ones (not stars), none, all, exactly the pivots of the
    # reduced kernel and exactly the other columns.  D_0 and the map above
    # the top are zero whatever a view deletes: `_read` answers so before
    # it calls a masked reader, which tests no degree
    rng = random.Random(83)
    hosts = [random_subcomplex(rng, sk.full_cube(n)) for n in range(2, 6) for _ in range(6)]
    hosts.append(projective_plane())
    for c in hosts:
        mats = c.chains
        for i in range(1, mats.top + 1):
            width = mats.num_faces(i)
            pivots = mats._kernel_table(i)[0]
            every = (1 << width) - 1
            dense = [[v % 2 for v in row] for row in mats.dense(i)]
            for deleted in (0, every, pivots, every & ~pivots, *(rng.getrandbits(width) for _ in range(4))):
                kept = [[v for q, v in enumerate(row) if not deleted >> q & 1] for row in dense]
                assert _gf2_map(mats, i, deleted) == (gf2_rank_dense(kept), ()), (sorted(c.faces), i, deleted)
        for vertices in (sorted(c.vertices())[:1], c.vertices()):
            view = mats.without(vertices)
            for ring in (sk.GF2, sk.INTEGER):
                assert _read(view, ring, 0) == _read(view, ring, mats.top + 1) == (0, ()), (sorted(c.faces), ring)


def test_reduced_kernel_tables_stay_within_five_times_their_kernel_basis():
    # the tables a reconstruction from the middle skeleton reads, D_1 to
    # D_ceil(d/2).  Tracing the build itself would trace every temporary
    # int and run some 25 times slower, so tracemalloc weighs a copy of
    # each table and of each basis, loaded from pickle: the same objects,
    # allocated once each.
    def traced_bytes(blob: bytes) -> int:
        tracemalloc.start()
        try:
            loaded = pickle.loads(blob)
            size, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        del loaded
        return size

    s3_times_s3 = sk.product_complex(sk.cube_boundary(4), sk.cube_boundary(4))
    c200_times_s2 = sk.product_complex(sk.generate("even-cycle(200)"), sk.cube_boundary(3))
    for host in (s3_times_s3, c200_times_s2):
        top = (host.dim + 1) // 2
        mats = sk.skeleton(host, top).chains
        for j in range(1, top + 1):
            kernel = traced_bytes(pickle.dumps(gf2_elimination_oracle(packed_columns(mats, j))[1]))
            table = traced_bytes(pickle.dumps(mats._kernel_table(j)))
            assert table <= 5 * kernel, (host.dim, j, table, kernel)


def test_whole_complex_gf2_homology_reads_ranks_alone_in_little_memory():
    # with nothing deleted no kernel table is built: the traced peak of
    # I^7's GF(2) homology, its chains prebuilt, is about 86 KB, against
    # 193 KB when every read kept a kernel basis and built its table
    c = sk.full_cube(7)
    c.chains
    tracemalloc.start()
    try:
        profile = sk.homology.betti_gf2.__wrapped__(c)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert profile.betti == (1,) + (0,) * 7
    assert peak <= 112_000, peak
    assert not c.chains._tables


def test_a_view_leaves_out_the_columns_of_the_faces_meeting_its_vertices():
    # vertex sets: none, a face's vertices (read as the one face), some of
    # them, and random ones of c and of I^n; each level's mask from the
    # letter masks is compared with a letter-by-letter scan
    rng = random.Random(71)
    for n in range(1, 6):
        base = sk.full_cube(n)
        everywhere = sorted(base.vertices())
        for _ in range(12):
            c = random_subcomplex(rng, base)
            mats = c.chains
            face = rng.choice(sorted(base.faces))
            corners = sorted(word_vertices(face))
            for vertices in (
                [],
                corners,
                rng.sample(corners, rng.randint(1, len(corners))),
                rng.sample(sorted(c.vertices()), min(len(c.vertices()), rng.randint(1, 4))),
                rng.sample(everywhere, rng.randint(1, len(everywhere))),
            ):
                view = mats.without(vertices)
                for j in range(-1, c.dim + 2):
                    level = mats.levels[j] if 0 <= j <= mats.top else []
                    assert view.source(j) == (mats, meeting_oracle(level, vertices)), (sorted(c.faces), vertices, j)
            assert all(mats.source(j) == (mats, 0) for j in range(-1, c.dim + 2))
            for j in mats._letters:
                assert mats._letters[j] == letter_masks(mats.levels[j])


def test_every_reader_of_a_deletion_view_matches_matrices_built_anew():
    # delete(c, g) on c with chains built hands on c's matrices without the
    # deleted columns; levels, columns, counts, GF(2) ranks (rank-nullity
    # from c's table), the view's own kernel tables, dense matrices and
    # homology over both rings must be those of a fresh build over the
    # kept faces.  g spans a face (one letter-mask term) or is arbitrary
    # (a term per vertex); half the views are read rank first.  A deletion
    # from a deletion masks the first view's host.
    def assert_fresh(cut: sk.CubicalComplex) -> None:
        view, fresh = cut.chains, _matrices_over(cut.faces)
        degrees = range(-1, fresh.top + 3)
        if rng.random() < 0.5:
            assert [_read(view, sk.GF2, j) for j in degrees] == [_read(fresh, sk.GF2, j) for j in degrees]
        for ring in (sk.GF2, sk.INTEGER):
            assert _homology(view, ring, degrees) == _homology(fresh, ring, degrees), (sorted(cut.faces), ring)
        assert view.levels == fresh.levels and view.columns == fresh.columns and view.top == fresh.top
        for j in degrees:
            assert view.num_faces(j) == fresh.num_faces(j)
            assert _read(view, sk.GF2, j) == _read(fresh, sk.GF2, j), (sorted(cut.faces), j)
            if 1 <= j <= fresh.top:
                assert view._kernel_table(j) == fresh._kernel_table(j)
            assert view.dense(j) == fresh.dense(j)

    rng = random.Random(67)
    hosts = [c for _, c in corpus()] + [projective_plane()]
    hosts += [random_subcomplex(rng, sk.full_cube(n)) for n in range(1, 6) for _ in range(8)]
    shapes = twice = 0
    for c in filter(len, hosts):
        c.chains
        faces = sorted(c.faces)
        face = rng.choice(faces)
        for g in (
            sk.closure(c.ambient_dim, word_vertices(face)),
            sk.closure(c.ambient_dim, [rng.choice(faces)]),
            random_subcomplex(rng, c, max_generators=3),
            c,
        ):
            cut = sk.delete(c, g)
            assert cut.chains._whole is c.chains
            shapes += len(cut.chains._faces) == 1 < len(g.vertices())
            assert_fresh(cut)
            if cut.vertices():
                assert_fresh(sk.delete(cut, sk.closure(c.ambient_dim, [min(cut.vertices())])))
                twice += 1
    assert shapes > 20 and twice > 20


def test_letter_masks_stay_within_half_the_face_words_on_a_long_sparse_product():
    # the 2-skeleton of even-cycle(200) x the 2-sphere lies in I^103 and
    # its levels' words differ at nearly every coordinate, so each level
    # keeps two masks per coordinate: about 0.24 MB, against about 1.5 MB
    # for the 9,200 words they index, and 1.6 MB for a mask per vertex
    # and level.  Tracing the builds would run some ten times slower, so
    # tracemalloc weighs copies loaded from pickle.
    def loaded_bytes(obj) -> int:
        blob = pickle.dumps(obj)
        tracemalloc.start()
        try:
            loaded = pickle.loads(blob)
            size, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        del loaded
        return size

    c = sk.skeleton(sk.product_complex(sk.generate("even-cycle(200)"), sk.cube_boundary(3)), 2)
    mats = c.chains
    view = mats.without([min(c.vertices())])
    assert [view.num_faces(j) for j in range(3)] == [1599, 3995, 3591]
    assert sorted(mats._letters) == [0, 1, 2]
    words = loaded_bytes(list(c.faces))
    letters = loaded_bytes(mats._letters)
    assert 2 * letters <= words, (letters, words)


def test_a_view_in_a_padded_cube_keeps_masks_for_the_differing_coordinates_alone():
    # the 2-sphere padded with zeros into I^100000: its levels differ at
    # three coordinates, so each vertex's view reads six masks per level.
    # Masks for every coordinate took 44 MB and 5.8 s in I^200000, and a
    # scan of each level by membership a 19.6 MB traced peak
    n = 100_000
    s2 = sk.product_complex(sk.cube_boundary(3), sk.closure(n - 3, ["0" * (n - 3)]))
    mats = s2.chains
    vertices = sorted(s2.vertices())
    tracemalloc.start()
    try:
        got = [_homology(mats.without([v]), sk.GF2, range(3)) for v in vertices]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == [{0: (1, ()), 1: (0, ()), 2: (0, ())}] * 8
    assert all(len(masks) == 3 for *_, masks in mats._letters.values())
    assert peak <= 3_000_000, peak


def _count_cleared_columns(monkeypatch) -> dict[str, list[int]]:
    """Per ring, the number of columns each unmasked read hands to its elimination, as the reads run."""
    packed = {sk.GF2: [], sk.INTEGER: []}
    real_rank, real_factors = homology.gf2_rank, homology._invariant_factors

    def counting_rank(vectors, pivot_rows=None):
        if pivot_rows is not None:  # only the unmasked read keeps its pivot rows
            vectors = list(vectors)
            packed[sk.GF2].append(len(vectors))
        return real_rank(vectors, pivot_rows)

    def counting_factors(columns, pivot_rows=None):
        if pivot_rows is not None:  # only the unmasked read keeps its pivot rows
            columns = list(columns)
            packed[sk.INTEGER].append(len(columns))
        return real_factors(columns, pivot_rows)

    monkeypatch.setattr(homology, "gf2_rank", counting_rank)
    monkeypatch.setattr(homology, "_invariant_factors", counting_factors)
    return packed


def test_cleared_reads_match_the_per_level_oracle_over_both_rings(monkeypatch):
    # the corpus, RP^2 products and, for torsion, the closures of seeded
    # random parts of their top faces: the cleared reads give each map's
    # rank and factors as reading it whole does, and each read skips in
    # D_j one column per pivot row of D_(j+1), rank D_(j+1) of them over GF(2)
    rng = random.Random(97)
    rp2 = projective_plane()
    products = [sk.product_complex(rp2, sk.cube_boundary(2)), sk.product_complex(rp2, sk.generate("even-cycle(6)"))]
    hosts = [c for _, c in corpus()] + [rp2] + products
    for host in products:
        tops = sorted(w for w in host.faces if word_dim(w) == host.dim)
        hosts += [sk.closure(host.ambient_dim, rng.sample(tops, rng.randint(len(tops) // 2, len(tops)))) for _ in range(6)]
    packed = _count_cleared_columns(monkeypatch)
    torsion = 0
    for c in hosts:
        degrees = range(-1, c.dim + 2)
        for ring in (sk.GF2, sk.INTEGER):
            mats = _matrices_over(c.faces)
            packed[ring].clear()
            got = _homology(mats, ring, degrees)
            assert got == per_level_homology(mats, ring, degrees), (ring, sorted(c.faces))
            levels = range(1, mats.top + 1)
            skipped = [mats._reads.get((ring, j + 1), (0, (), b""))[2].count(0) for j in levels]
            assert sum(packed[ring]) == sum(mats.num_faces(j) - s for j, s in zip(levels, skipped)), ring
            if ring == sk.GF2:
                assert skipped == [_read(mats, ring, j + 1)[0] for j in levels]
            torsion += any(factors for _, factors in got.values())
    assert torsion >= 6  # RP^2, its two products and three or more of their random parts


def test_cleared_reads_of_grown_complexes_and_views_of_views_match_the_oracle():
    # a complex grown one level at a time by `extended` keeps the reads of
    # its lower levels, cleared by the top it had; a view of a view, with
    # nothing more deleted or a second star, masks the first view's host;
    # each equals the per-level reads of matrices built anew
    rng = random.Random(101)
    rp2 = projective_plane()
    hosts = [sk.product_complex(rp2, sk.cube_boundary(2)), sk.full_cube(4), sk.product_complex(sk.cube_boundary(3), sk.cube_boundary(2))]
    for host in hosts:
        n = host.ambient_dim
        for ring in (sk.GF2, sk.INTEGER):
            current = sk.skeleton(host, 1)
            _homology(current.chains, ring, range(3))
            for k in range(2, host.dim + 1):
                current = _grown(current, [w for w in host.faces if word_dim(w) == k])
                degrees = range(-1, k + 2)
                fresh = _matrices_over(current.faces)
                assert _homology(current.chains, ring, degrees) == per_level_homology(fresh, ring, degrees), (ring, k)
            c = sk.CubicalComplex(n, host.faces)
            c.chains
            vertices = sorted(c.vertices())
            cut = sk.delete(c, sk.closure(n, [rng.choice(vertices)]))
            for g in (sk.closure(n, []), sk.closure(n, [rng.choice(sorted(cut.vertices()))])):
                twice = sk.delete(cut, g)
                assert twice.chains._whole is c.chains
                degrees = range(-1, host.dim + 2)
                expected = per_level_homology(_matrices_over(twice.faces), ring, degrees)
                assert _homology(twice.chains, ring, degrees) == expected, (ring, sorted(g.faces))


def test_a_masked_gf2_read_leaves_the_whole_read_to_the_cleared_pass():
    # a masked read builds kernel tables and caches no read of the whole
    # map: only the cleared pass writes one, with its pivot rows, so a
    # later whole read of the map below is cleared by them
    for c in (sk.cube_boundary(4), projective_plane(), sk.product_complex(sk.cube_boundary(3), sk.cube_boundary(2))):
        degrees = range(-1, c.dim + 2)
        for v in sorted(c.vertices())[:3]:
            fresh = sk.CubicalComplex(c.ambient_dim, c.faces)
            masked = _homology(fresh.chains.without([v]), sk.GF2, degrees)
            assert masked == _homology(_matrices_over(sk.delete(c, sk.closure(c.ambient_dim, [v])).faces), sk.GF2, degrees)
            assert fresh.chains._tables
            assert not fresh.chains._reads, (sorted(c.faces), v)
            assert _homology(fresh.chains, sk.GF2, degrees) == {j: sk.homology_profile(c).degree(j) for j in degrees}
            assert all(len(rows) == fresh.chains.num_faces(j - 1) for (_, j), (*_, rows) in fresh.chains._reads.items())


def test_a_deletion_of_a_deletion_reads_its_host_alone():
    # deleting V(g1) and then V(g2) deletes their union from c, so the
    # second view masks c's matrices and the first builds no columns,
    # kernel tables or letter masks of its own
    rng = random.Random(109)
    c = sk.product_complex(sk.cube_boundary(3), sk.cube_boundary(3))
    degrees = range(-1, c.dim + 2)
    for _ in range(3):
        cut = sk.delete(c, sk.closure(c.ambient_dim, [rng.choice(sorted(c.vertices()))]))
        twice = sk.delete(cut, sk.closure(c.ambient_dim, word_vertices(rng.choice(sorted(cut.faces)))))
        for ring in (sk.GF2, sk.INTEGER):
            assert _homology(twice.chains, ring, degrees) == _homology(_matrices_over(twice.faces), ring, degrees)
        assert "columns" not in cut.chains.__dict__
        assert not cut.chains._tables and not cut.chains._letters
        assert twice.chains._whole is c.chains


def test_whole_complex_gf2_pass_packs_one_column_per_pivot_on_a_full_cube(monkeypatch):
    # cleared from the top down, every column a pass of I^n packs brings a
    # new pivot: (3^n - 1) / 2 columns in all, half the faces, where
    # reading each map whole packs every face but the 2^n vertices
    packed = _count_cleared_columns(monkeypatch)
    for n in range(1, 8):
        c = sk.full_cube(n)
        packed[sk.GF2].clear()
        assert homology._profile(c.chains, n + 1, sk.GF2).betti == (1,) + (0,) * n
        assert sum(packed[sk.GF2]) == (3**n - 1) // 2, n
        assert sum(packed[sk.GF2]) == sum(_read(c.chains, sk.GF2, j)[0] for j in range(1, n + 1))


def test_chains_of_a_padded_complex_cost_their_stars_not_their_letters():
    # the 2-sphere padded with zeros into I^2003: its matrices are those of
    # the 2-sphere, and `signed_facets`, called twice per face (closedness
    # and the matrices), runs a few Python lines per star and per call,
    # where a walk over the letters ran two per letter: some 140,000
    small = sk.cube_boundary(3)
    pad = "0" * 2000
    padded = sk.CubicalComplex(2003, frozenset(w + pad for w in small.faces))
    lines = 0

    def local(frame, event, arg):
        nonlocal lines
        lines += event == "line"
        return local

    sys.settrace(lambda frame, event, arg: local if frame.f_code is signed_facets.__code__ else None)
    try:
        mats = padded.chains
    finally:
        sys.settrace(None)
    assert mats.levels == [[w + pad for w in level] for level in small.chains.levels]
    assert mats.columns == small.chains.columns
    assert lines <= 20 * (sum(map(word_dim, small.faces)) + len(small.faces)), lines


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


@pytest.mark.parametrize("ring", [sk.GF2, sk.INTEGER])
def test_relative_profile_refuses_a_second_member_that_is_not_closed(ring):
    # an edge without its vertices: the faces outside it are not closed
    # upward, and slicing there once gave Betti numbers (1, -1, 0)
    square = sk.full_cube(2)
    for faces in ({"0*"}, {"0*", "00"}, {"**", "0*", "00", "01"}):
        with pytest.raises(sk.StructuralError):
            sk.relative_profile(square, sk.CubicalComplex(2, frozenset(faces)), ring)
    assert sk.relative_profile(square, sk.closure(2, ["0*"]), ring).betti == (0, 0, 0)


@pytest.mark.parametrize("ring", [sk.GF2, sk.INTEGER])
def test_relative_profile_refuses_a_first_member_that_is_not_closed(ring):
    # the square without its edge 0*: read as it stands, (1, -1, 0)
    square = sk.CubicalComplex(2, sk.full_cube(2).faces - {"0*"})
    with pytest.raises(sk.StructuralError, match=r"at '\*\*', face '0\*' is missing"):
        sk.relative_profile(square, sk.CubicalComplex(2), ring)


def test_restricted_matrices_equal_the_quotient_matrices_built_from_words():
    # the matrices built over the faces outside a subcomplex equal c.chains
    # sliced to them (the oracle): columns in canonical order, facets in
    # the subcomplex dropped as rows, the degrees of c
    rng = random.Random(67)
    for n in range(1, 6):
        base = sk.full_cube(n)
        for _ in range(20):
            c = random_subcomplex(rng, base)
            a = random_subcomplex(rng, c)
            for away in (c.faces - a.faces, c.faces):
                sliced = sliced_chains(c.chains, away)
                built = _matrices_over(away)
                assert sliced.top == c.dim
                for j in range(c.dim + 1):
                    assert sliced.levels[j] == (built.levels[j] if j <= built.top else [])
                    if j >= 1:
                        assert sliced.columns[j] == (built.columns[j] if j <= built.top else [])


@pytest.mark.parametrize("ring", [sk.GF2, sk.INTEGER])
def test_relative_profile_builds_no_matrices_of_either_member(ring):
    # the quotient is built over the faces outside a, not sliced from c's own
    c = sk.product_complex(sk.cube_boundary(2), sk.cube_boundary(2))
    a = sk.closure(4, [w for w in c.faces if w.replace("*", "0") != "0000"])  # c less the open star of 0000
    assert sk.relative_profile(c, a, ring).betti == (0, 0, 1)
    assert "chains" not in c.__dict__ and "chains" not in a.__dict__


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

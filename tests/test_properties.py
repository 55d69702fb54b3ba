"""Algebraic identities and closure on random downward-closed complexes in I^n, n <= 5,
and the paper's statements on closed manifolds placed by random cube symmetries.

Examples are derandomized and no example database is kept, so every run
checks the same complexes.  Small random complexes carry no torsion, so
RP^2 and RP^2 x S^1 are added as explicit examples.
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import skelcube as sk
from skelcube.io import parse_complex, serialize_complex

from helpers import (
    TORUS7_TRIANGLES,
    all_words,
    assert_criterion_matches_oracle,
    projective_plane,
    reconstruct_checking_the_carry,
    relabel,
)

WORDS = [list(all_words(n)) for n in range(6)]


@st.composite
def complexes(draw, max_n: int = 5, max_generators: int = 6) -> sk.CubicalComplex:
    n = draw(st.integers(min_value=0, max_value=max_n))
    gens = draw(st.lists(st.sampled_from(WORDS[n]), max_size=max_generators))
    return sk.closure(n, gens)


PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=150)
RP2 = projective_plane()
RP2_TIMES_CIRCLE = sk.product_complex(RP2, sk.cube_boundary(2))
TORUS7 = sk.cubical_barycentric_subdivision(TORUS7_TRIANGLES)


@PROPERTY
@given(complexes())
@example(RP2)
@example(RP2_TIMES_CIRCLE)
def test_euler_characteristic_is_alternating_integer_betti_sum(c):
    betti = sk.homology_integer(c).betti
    assert c.euler_characteristic() == sum((-1) ** j * b for j, b in enumerate(betti))


@PROPERTY
@given(complexes())
@example(RP2)
@example(RP2_TIMES_CIRCLE)
def test_universal_coefficients_mod_2(c):
    # dim H_j(c; GF(2)) = b_j + #even factors in T_j + #even factors in T_(j-1)
    h = sk.homology_integer(c)
    gf2 = sk.betti_gf2(c).betti
    assert len(gf2) == len(h.betti)
    for j, bj in enumerate(gf2):
        even = sum(1 for d in h.degree(j)[1] + h.degree(j - 1)[1] if d % 2 == 0)
        assert bj == h.betti[j] + even


@PROPERTY
@given(complexes(), st.data())
def test_delete_keeps_a_complex_downward_closed(c, data):
    gens = data.draw(st.lists(st.sampled_from(sorted(c.faces)), max_size=3)) if c.faces else []
    g = sk.closure(c.ambient_dim, gens)
    out = sk.delete(c, g)
    out.validate()
    assert out.faces <= c.faces


def _sphere(d: int) -> sk.CubicalComplex:
    return sk.cube_boundary(d + 1)


_C6 = sk.generate("even-cycle(6)")

# (name, closed manifold, dimension, orientable), known independently of the library
MANIFOLDS = [
    ("S^1", _sphere(1), 1, True),
    ("S^2", _sphere(2), 2, True),
    ("S^3", _sphere(3), 3, True),
    ("S^4", _sphere(4), 4, True),
    ("T^2", sk.product_complex(_sphere(1), _sphere(1)), 2, True),
    ("T^3", sk.product_complex(sk.product_complex(_sphere(1), _sphere(1)), _sphere(1)), 3, True),
    ("S^2xS^1", sk.product_complex(_sphere(2), _sphere(1)), 3, True),
    ("S^1xC_6", sk.product_complex(_sphere(1), _C6), 2, True),
    ("S^2xC_6", sk.product_complex(_sphere(2), _C6), 3, True),
    ("S^2xS^2", sk.product_complex(_sphere(2), _sphere(2)), 4, True),
    ("T^2_7", TORUS7, 2, True),
    ("T^2_7xS^1", sk.product_complex(TORUS7, _sphere(1)), 3, True),
    ("RP^2", RP2, 2, False),
    ("RP^2xS^1", RP2_TIMES_CIRCLE, 3, False),
]
BY_NAME = {name: (m, d, orientable) for name, m, d, orientable in MANIFOLDS}


def test_seven_vertex_torus_under_cbs():
    assert len(TORUS7.faces) == 168
    assert len(BY_NAME["T^2_7xS^1"][0].faces) == 1344
    h = sk.homology_integer(TORUS7)
    assert h.betti == (1, 2, 1)
    assert h.torsion == ((), (), ())
    report = sk.is_homology_manifold(TORUS7, check_orientability=True)
    assert report.is_manifold and report.dimension == 2 and report.orientable


# a rebuild of T^2_7 x S^1 takes about half a second, so each input is placed once
REBUILD = settings(PROPERTY, max_examples=1)
PLACED = settings(PROPERTY, max_examples=4)
# a seeded Random, so that even the first, simplest example moves the faces
SYMMETRY = st.integers(min_value=1, max_value=2**32).map(random.Random)


@REBUILD
@pytest.mark.parametrize("name", [name for name, _, d, _ in MANIFOLDS if d >= 3])
@given(rng=SYMMETRY)
def test_middle_skeleton_rebuilds_the_manifold(name, rng):
    # Dancis' bound as the paper adapts it to cubes: k = floor(d/2) + 1
    m, d, _ = BY_NAME[name]
    m = relabel(m, rng)
    k = d // 2 + 1
    skel = sk.skeleton(m, k)
    steps = reconstruct_checking_the_carry(skel, sk.ReconstructionConfig(k, d))
    assert steps[-1].complex_after == m
    assert (d, m) in sk.reconstruct_auto(skel, k, d)


def test_a_step_that_accepts_nothing_keeps_the_complex():
    # one dimension above each manifold nothing may be added, so the step
    # hands on the complex it judged, with its own matrices and index
    rejected = 0
    for name, m, d, _ in MANIFOLDS:
        k = max(2, d)
        cfg = sk.ReconstructionConfig(k, k + 1)
        if cfg.d > m.ambient_dim:  # S^1 in I^2: no dimension above k fits in the square
            with pytest.raises(sk.ContractError):
                sk.reconstruct_steps(m, cfg)
            continue
        (step,) = sk.reconstruct_steps(m, cfg)
        assert not any(v.accepted for v in step.verdicts)
        assert step.complex_after is m
        rejected += len(step.verdicts)
    assert rejected > 0


# the largest entries have over a hundred candidates, each judged in four
# cases, and the oracle recomputes integer homology for each candidate
ORACLE_SAMPLE = 16


@pytest.mark.parametrize("name", [name for name, *_ in MANIFOLDS])
def test_criterion_matches_delete_and_recompute_oracle(name):
    # every mode on the skeleton a rebuild starts from, surfaces at k = 2
    m, d, _ = BY_NAME[name]
    k = max(2, d // 2 + 1)
    skel = sk.skeleton(m, k)
    candidates = sk.enumerate_candidates(skel, k)
    faces = random.Random(name).sample(candidates, min(len(candidates), ORACLE_SAMPLE))
    assert_criterion_matches_oracle(skel, k, faces)


@PLACED
@pytest.mark.parametrize("mode", [sk.TIGHT_GF2, sk.TIGHT_INTEGER])
@given(rng=SYMMETRY)
def test_tight_modes_rebuild_the_four_sphere_from_its_two_skeleton(mode, rng):
    # H_2(S^4) = 0, so the middle-homology hypothesis of both tight modes holds
    m = relabel(_sphere(4), rng)
    steps = reconstruct_checking_the_carry(sk.skeleton(m, 2), sk.ReconstructionConfig(2, 4, mode))
    assert steps[-1].complex_after == m


@PLACED
@pytest.mark.parametrize("name", [name for name, *_ in MANIFOLDS])
@given(rng=SYMMETRY)
def test_poincare_duality(name, rng):
    m, d, orientable = BY_NAME[name]
    m = relabel(m, rng)
    gf2 = sk.betti_gf2(m).betti
    assert len(gf2) == d + 1
    assert all(gf2[j] == gf2[d - j] for j in range(d + 1))
    if orientable:
        h = sk.homology_integer(m)
        assert all(h.betti[j] == h.betti[d - j] for j in range(d + 1))
        # torsion of H_j matches that of H_(d-j-1)
        assert all(h.degree(j)[1] == h.degree(d - j - 1)[1] for j in range(d + 1))


@PLACED
@pytest.mark.parametrize("name", [name for name, *_ in MANIFOLDS])
@given(rng=SYMMETRY)
def test_parse_inverts_serialize(name, rng):
    m = relabel(BY_NAME[name][0], rng)
    assert parse_complex(serialize_complex(m))[0] == m


def _poly_mul(a, b) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


@settings(PROPERTY, max_examples=60)
@given(complexes(max_n=3, max_generators=4), complexes(max_n=3, max_generators=4))
@example(RP2, _sphere(1))
def test_kuenneth_over_gf2(a, b):
    # over a field the Betti polynomial of a product is the product of the factors'
    product = sk.betti_gf2(sk.product_complex(a, b)).betti
    assert product == _poly_mul(sk.betti_gf2(a).betti, sk.betti_gf2(b).betti)

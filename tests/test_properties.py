"""Algebraic identities and closure on random downward-closed complexes in I^n, n <= 5.

Examples are derandomized and no example database is kept, so every run
checks the same complexes.  Small random complexes carry no torsion, so
RP^2 and RP^2 x S^1 are added as explicit examples.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

import skelcube as sk

from helpers import all_words, projective_plane

WORDS = [list(all_words(n)) for n in range(6)]


@st.composite
def complexes(draw) -> sk.CubicalComplex:
    n = draw(st.integers(min_value=0, max_value=5))
    gens = draw(st.lists(st.sampled_from(WORDS[n]), max_size=6))
    return sk.closure(n, gens)


PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=150)
RP2 = projective_plane()
RP2_TIMES_CIRCLE = sk.product_complex(RP2, sk.cube_boundary(2))


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

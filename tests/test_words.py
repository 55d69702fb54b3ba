import random

import pytest

import skelcube as sk
from skelcube.words import (
    canon_key,
    facets,
    mask_word,
    one_step_cofaces,
    proper_subwords,
    signed_facets,
    sort_words,
    subwords,
    validate_word,
    word_dim,
    word_vertices,
)



def test_word_dim():
    assert word_dim("0101") == 0
    assert word_dim("*1*") == 2
    assert word_dim("") == 0


def test_validate_word():
    validate_word("01*", 3)
    with pytest.raises(sk.StructuralError):
        validate_word("01*", 2)
    with pytest.raises(sk.StructuralError):
        validate_word("01x", 3)
    with pytest.raises(sk.StructuralError):
        validate_word(123, 3)


def test_canonical_order_puts_star_last():
    assert sort_words(["*0", "00", "10", "1*"]) == ["00", "10", "1*", "*0"]
    assert canon_key("0") < canon_key("1") < canon_key("*")


def test_facets():
    assert sorted(facets("*1*")) == ["*10", "*11", "01*", "11*"]
    assert list(facets("010")) == []


def test_signed_facets_alternate_and_square_first_star_is_positive_one():
    got = dict(signed_facets("**"))
    assert got == {"1*": 1, "0*": -1, "*1": -1, "*0": 1}


def test_subwords_counts():
    assert len(set(subwords("**"))) == 9
    assert len(set(proper_subwords("***"))) == 26
    assert set(subwords("01")) == {"01"}


def test_word_vertices():
    assert sorted(word_vertices("*1*")) == ["010", "011", "110", "111"]
    assert list(word_vertices("10")) == ["10"]


def test_one_step_cofaces():
    assert sorted(one_step_cofaces("01")) == ["*1", "0*"]
    assert list(one_step_cofaces("**")) == []


def test_mask_word_spells_the_face_of_its_codes():
    # letter i is bit i: the vertices of mask_word(n, ones, stars) are the
    # codes that agree with ones off stars, spelt low bit first
    def spelt(n: int, code: int) -> str:
        return "".join(str(code >> i & 1) for i in range(n))

    assert mask_word(3, 0b001, 0b100) == "10*"
    assert mask_word(0, 0, 0) == ""
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(0, 7)
        ones, stars = rng.randrange(1 << n), rng.randrange(1 << n)
        subs = [sub for sub in range(1 << n) if sub & ~stars == 0]
        want = {spelt(n, (ones & ~stars) | sub) for sub in subs}
        assert set(word_vertices(mask_word(n, ones, stars))) == want

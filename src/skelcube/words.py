"""Face words of the n-cube.

A face of I^n is written as a string of length n over the alphabet
{'0', '1', '*'}; '*' marks a free coordinate.  The dimension of a face
is its number of stars, so vertices have none.  p is a subface of q
iff at every position q has '*' or the letters agree.
"""

from __future__ import annotations

from itertools import product, repeat

from .errors import StructuralError

__all__ = [
    "ZERO",
    "ONE",
    "STAR",
    "canon_key",
    "sort_words",
    "word_dim",
    "validate_word",
    "facets",
    "signed_facets",
    "subwords",
    "proper_subwords",
    "word_vertices",
    "one_step_cofaces",
    "mask_word",
    "free_masks",
]

ZERO = "0"
ONE = "1"
STAR = "*"

_LETTERS = frozenset("01*")

# a face word spelt as the binary numeral of its free coordinates
_FREE = str.maketrans("01*", "001")

# canonical letter order is ZERO < ONE < STAR, which is not ASCII order;
# translating '*' to '2' makes plain string comparison agree with it
_CANON = str.maketrans("01*", "012")


def canon_key(w: str) -> str:
    """Sort key realizing the canonical word order."""
    return w.translate(_CANON)


def sort_words(words) -> list[str]:
    return sorted(words, key=canon_key)


def word_dim(w: str) -> int:
    return w.count(STAR)


def validate_word(w: str, ambient_dim: int) -> None:
    if not isinstance(w, str):
        raise StructuralError(f"face word must be a string, got {type(w).__name__}")
    if len(w) != ambient_dim:
        raise StructuralError(f"face word {w!r} has length {len(w)}, expected {ambient_dim}")
    if not _LETTERS.issuperset(w):
        raise StructuralError(f"face word {w!r} contains letters outside '01*'")


def facets(w: str):
    """Codimension-one subfaces, each star replaced by '1' and by '0': signed_facets without the signs."""
    return (f for f, _ in signed_facets(w))


def signed_facets(w: str):
    """Facets with incidence coefficients.

    Counting stars left to right starting at 1, replacing the i-th star
    by ONE carries (-1)**(i+1) and by ZERO carries (-1)**i.  This choice
    satisfies boundary-of-boundary = 0.
    """
    i = 0
    for pos, letter in enumerate(w):
        if letter == STAR:
            i += 1
            sign = -1 if i % 2 == 0 else 1
            yield w[:pos] + ONE + w[pos + 1 :], sign
            yield w[:pos] + ZERO + w[pos + 1 :], -sign


def subwords(w: str):
    """All subfaces of w, including w itself."""
    options = [("01*" if letter == STAR else letter) for letter in w]
    for combo in product(*options):
        yield "".join(combo)


def proper_subwords(w: str):
    for s in subwords(w):
        if s != w:
            yield s


def word_vertices(w: str):
    """The 2**dim vertices of a face."""
    options = [("01" if letter == STAR else letter) for letter in w]
    for combo in product(*options):
        yield "".join(combo)


def one_step_cofaces(w: str):
    """Faces one dimension up that contain w."""
    for i, letter in enumerate(w):
        if letter != STAR:
            yield w[:i] + STAR + w[i + 1 :]


def mask_word(n: int, ones: int, stars: int) -> str:
    """The face of I^n whose letter i is STAR where bit i of stars is set, else bit i of ones."""
    return "".join(STAR if stars >> i & 1 else ONE if ones >> i & 1 else ZERO for i in range(n))


def free_masks(words: tuple[str, ...]) -> tuple[int, ...]:
    """Each word's free coordinates as a mask, letter 0 the highest bit.

    One `translate` spells all the words as binary numerals, each led by
    a "0" so that the empty word of I^0 is one too.
    """
    if not words:
        return ()
    return tuple(map(int, ("0" + " 0".join(words)).translate(_FREE).split(), repeat(2)))

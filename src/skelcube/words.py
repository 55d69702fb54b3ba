"""Face words of the n-cube.

A face of I^n is written as a string of length n over the alphabet
{'0', '1', '*'}; '*' marks a free coordinate.  The dimension of a face
is its number of stars, so vertices have none.  p is a subface of q
iff at every position q has '*' or the letters agree.
"""

from __future__ import annotations

from itertools import product

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
    "span_word",
]

ZERO = "0"
ONE = "1"
STAR = "*"

_LETTERS = frozenset("01*")

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


def span_word(words) -> str:
    """Smallest ambient face containing every given word."""
    words = list(words)
    if not words:
        raise StructuralError("span of an empty set of words is undefined")
    cols = []
    for i in range(len(words[0])):
        letters = {w[i] for w in words}
        if len(letters) == 1 and STAR not in letters:
            cols.append(next(iter(letters)))
        else:
            cols.append(STAR)
    return "".join(cols)

"""Face words of the n-cube.

A face of I^n is written as a string of length n over the alphabet
{'0', '1', '*'}; '*' marks a free coordinate.  The dimension of a face
is its number of stars, so vertices have none.  p is a subface of q
iff at every position q has '*' or the letters agree.
"""

from __future__ import annotations

from collections import defaultdict
from functools import reduce
from itertools import product, repeat
from operator import itemgetter, or_

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
    "vertex_table",
    "one_step_cofaces",
    "mask_word",
    "free_masks",
    "letter_bits",
    "letter_masks",
    "meeting",
    "spanned_faces",
]

ZERO = "0"
ONE = "1"
STAR = "*"

_LETTERS = frozenset("01*")

# a face word spelt as the binary numeral of its free coordinates
_FREE = str.maketrans("01*", "001")

# a word spelt as the binary numeral of where it holds ZERO, and of where ONE
_ZERO_AT = str.maketrans("01*", "100")
_ONE_AT = str.maketrans("01*", "010")

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


def _named(w: str) -> str:
    """w as a refusal names it: quoted, or past 64 letters by its length and stars, so the line stays short."""
    if len(w) <= 64:
        return repr(w)
    d = word_dim(w)
    return f"a {len(w)}-letter word with {d} star{'s' * (d != 1)}"


def _number(n: int) -> str:
    """n as a refusal names it: in full up to 64 digits, else by its first and last 8 and its digit count.

    Nothing spells n whole, which past 4,300 digits Python refuses to do.
    """
    if -(10**64) < n < 10**64:
        return str(n)
    m = abs(n)
    digits = max(64, int((m.bit_length() - 1) * 0.30103) - 1)  # log10(2), rounded down: at most the count
    while 10**digits <= m:
        digits += 1
    return f"{'-' * (n < 0)}{m // 10 ** (digits - 8)}...{m % 10**8:08d} ({digits} digits)"


def validate_word(w: str, ambient_dim: int) -> None:
    if not isinstance(w, str):
        raise StructuralError(f"face word must be a string, got {type(w).__name__}")
    if len(w) != ambient_dim:
        raise StructuralError(f"face word {_named(w)} has length {len(w)}, expected {ambient_dim}")
    if not _LETTERS.issuperset(w):
        raise StructuralError(f"face word {_named(w)} contains letters outside '01*'")


def facets(w: str):
    """Codimension-one subfaces, each star replaced by '1' and by '0': signed_facets without the signs."""
    return (f for f, _ in signed_facets(w))


def signed_facets(w: str):
    """Facets with incidence coefficients.

    Counting stars left to right starting at 1, replacing the i-th star
    by ONE carries (-1)**(i+1) and by ZERO carries (-1)**i.  This choice
    satisfies boundary-of-boundary = 0.  The stars are found by
    `str.find`, so a long word with few stars costs its stars, not its
    letters, in Python.
    """
    sign = 1
    pos = w.find(STAR)
    while pos >= 0:
        head, tail = w[:pos], w[pos + 1 :]
        yield head + ONE + tail, sign
        yield head + ZERO + tail, -sign
        sign = -sign
        pos = w.find(STAR, pos + 1)


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


def one_step_cofaces(w: str, directions=None):
    """Faces one dimension up that contain w; with `directions`, those starring one of these coordinates."""
    for i in range(len(w)) if directions is None else directions:
        if w[i] != STAR:
            yield w[:i] + STAR + w[i + 1 :]


def mask_word(n: int, ones: int, stars: int) -> str:
    """The face of I^n whose letter i is STAR where bit i of stars is set, else bit i of ones."""
    return "".join(STAR if stars >> i & 1 else ONE if ones >> i & 1 else ZERO for i in range(n))


def free_masks(words: tuple[str, ...]) -> tuple[int, ...]:
    """Each word's free coordinates as a mask, letter 0 the highest bit."""
    return tuple(_numerals(words, _FREE)) if words else ()


def _numerals(words: tuple[str, ...], table: dict) -> map:
    """A nonempty tuple of words, each translated by table to a binary numeral, read as ints.

    One `translate` spells all the words, each led by a "0" so that the
    empty word of I^0 is a numeral too.
    """
    return map(int, ("0" + " 0".join(words)).translate(table).split(), repeat(2))


def vertex_table(words, masks: bool = False) -> dict[str, tuple]:
    """Each vertex of the faces mapped to the faces containing it, or with `masks` to their free masks.

    A face's vertices are its ONE letters (as a mask, letter 0 the
    highest bit) with any sub-mask of its free coordinates added, walked
    from the empty one, its low corner, upward.  Every incidence is an
    int; each distinct vertex is spelt once at the end, so a vertex of
    I^0 is the empty word.  Values keep the faces' order.
    """
    words = tuple(words)
    if not words:
        return {}
    at: defaultdict[int, list] = defaultdict(list)
    frees = free_masks(words)
    for ones, free, value in zip(_numerals(words, _ONE_AT), frees, frees if masks else words):
        sub = 0
        while True:
            at[ones | sub].append(value)
            sub = (sub - free) & free  # the next sub-mask up, 0 after the last
            if not sub:
                break
    lead = 1 << len(words[0])  # spelt with its leading bit, cut off, so every letter shows
    return {bin(x | lead)[3:]: tuple(vs) for x, vs in at.items()}


def letter_bits(w: str) -> tuple[int, int]:
    """(zeros, ones): the coordinates where w has letter 0 and letter 1, as masks with letter 0 the highest bit.

    Each is one `translate` read by `int`, led by a "0" so that the
    empty word is a numeral too.
    """
    return int("0" + w.translate(_ZERO_AT), 2), int("0" + w.translate(_ONE_AT), 2)


def letter_masks(words) -> tuple[int, int, int, dict[int, tuple[int, int]]]:
    """Where a nonempty list of words of one length differ, and which of them hold each letter there.

    Returns (zeros, ones, differ, masks): `letter_bits` of words[0], the
    coordinates (as bits, like theirs) where two words differ, and for
    each such bit p the masks of the words with letter 0 and with letter
    1 there, bit c standing for words[c].  Everywhere else every word has
    the letter of words[0], so a long word with few differing letters
    costs masks for those alone.  The letters at a coordinate are read
    as one string of all the words' letters there.
    """
    zeros, ones = letter_bits(words[0])
    differ = reduce(or_, (z ^ zeros | o ^ ones for z, o in map(letter_bits, words)))
    n, masks, rest = len(words[0]), {}, differ
    while rest:
        p = rest.bit_length() - 1
        rest ^= 1 << p
        masks[p] = letter_bits("".join(map(itemgetter(n - 1 - p), reversed(words))))
    return zeros, ones, differ, masks


def meeting(letters, faces) -> int:
    """The mask of the words meeting one of `faces`, from their `letter_masks` and the faces' `letter_bits`.

    Two faces miss each other exactly where a coordinate fixed in both
    holds opposite letters.  Where the words differ, the masks give the
    words holding each letter; anywhere else the first word's letter
    holds for all.  Bits past the last word may be set.
    """
    zeros, ones, differ, masks = letters
    out = 0
    for fz, fo in faces:
        if (fz & ones | fo & zeros) & ~differ:
            continue  # every word holds the other letter somewhere
        miss = 0
        for p, (z, o) in masks.items():
            if fz >> p & 1:
                miss |= o
            elif fo >> p & 1:
                miss |= z
        out |= ~miss
    return out


def spanned_faces(vertices) -> list[tuple[int, int]]:
    """`letter_bits` of faces whose vertices together are exactly the given ones.

    The smallest face holding them all stars the coordinates where two
    differ.  When they are all its vertices, 2**stars of them, it is the
    one face; otherwise each vertex is its own.  No vertices, no face.
    """
    vertices = set(vertices)
    if not vertices:
        return []
    ones = [int("0" + v, 2) for v in vertices]  # a vertex is the binary numeral of its ones
    free = reduce(or_, (x ^ ones[0] for x in ones))
    if len(ones) == 1 << free.bit_count():
        ones = ones[:1]
    else:
        free = 0
    fixed = ((1 << len(next(iter(vertices)))) - 1) & ~free
    return [(fixed & ~x, fixed & x) for x in ones]

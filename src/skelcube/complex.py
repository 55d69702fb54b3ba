"""Cubical complexes: downward-closed sets of faces of I^n."""

from __future__ import annotations

from functools import cached_property
from itertools import chain

from .errors import ContractError, StructuralError, _Record
from .words import (
    STAR,
    _named,
    _number,
    canon_key,
    facets,
    proper_subwords,
    sort_words,
    subwords,
    validate_word,
    vertex_table,
    word_dim,
)

__all__ = [
    "CubicalComplex",
    "closure",
    "full_cube",
    "cube_boundary",
    "skeleton",
    "delete",
    "product_complex",
]

# Most letters (faces times ambient dimension) a built complex may hold:
# what full_cube(13) holds.  A word with d stars has 3**d subfaces and a
# product as many faces as its factors' counts multiplied, so a small
# input could otherwise exhaust memory.  I^n has 3**n faces, so no
# complex within the bound has more than 3**13.
MAX_LETTERS = 13 * 3**13

# the key in a complex's __dict__ marking its face set as checked closed
_CLOSED = "_closed"


class CubicalComplex(_Record):
    """Immutable set of face words of I^ambient_dim.

    The constructor checks word shape only.  Every answer is defined on
    downward-closed sets alone, and `validate` is the one check of that:
    each reader calls it on entry (`chains`, and so homology, cohomology
    and the reconstruction criterion; `enumerate_candidates`; `graph_of`,
    and so components and the manifold tests; the GF(2) `local_profile`;
    both members of `relative_profile`).  A passed check is marked on the
    instance, so it runs at most once per complex, and `closure`, which
    builds every parsed file, marks its output.  The library's own
    builders build through `_derived`, which skips the word check.  That
    one complex lies in another is checked only where a pair is read
    (`delete`, `relative_profile`), by `_require_subcomplex`.

    A `_Record` of `ambient_dim` and `faces`: equality, hash and repr
    read those two alone.  Tables read from the faces are cached beside
    them in the instance `__dict__` on first use: `dim`, the boundary
    matrices `chains` and the masks of each vertex's link, `vertex_links`.
    A deletion is made from its chains alone, and its `faces` are cached
    the same way, from its view's levels on first read.  Pickle and copy
    keep the faces and the closed mark alone (`__reduce__`), so a
    deletion's copy leaves its host's matrices behind.
    """

    _fields = ("ambient_dim", "faces")

    def __init__(self, ambient_dim: int, faces: frozenset[str] = frozenset()):
        if ambient_dim < 0:
            raise StructuralError("ambient_dim must be nonnegative")
        faces = frozenset(faces)
        for w in faces:
            validate_word(w, ambient_dim)
        self.__dict__.update(ambient_dim=ambient_dim, faces=faces)

    def __reduce__(self):
        return _derived, (self.ambient_dim, self.faces, _CLOSED in self.__dict__)

    @cached_property
    def faces(self) -> frozenset[str]:
        """The faces of a complex `_derived` from its chains alone (a deletion), frozen from their levels on first read.

        Every other instance holds its faces in `__dict__`, which shadows
        this property, so reading them costs nothing extra.
        """
        return frozenset(chain.from_iterable(self.chains.levels))

    @cached_property
    def dim(self) -> int:
        """Top face dimension, -1 for the empty complex; computed once per instance."""
        return max((word_dim(w) for w in self.faces), default=-1)

    @cached_property
    def chains(self):
        """Signed boundary matrices of the whole complex (a homology.BoundaryMatrices), built once per instance after `validate`."""
        from . import homology  # homology imports this module

        self.validate()
        return homology._matrices_over(self.faces)

    @cached_property
    def vertex_links(self) -> dict[str, tuple[int, ...]]:
        """Each vertex mapped to the free-coordinate masks of the faces containing it, built once per instance.

        A face containing vertex v is v with the coordinates of its mask
        freed, so the masks are the simplices of v's link, found by one
        walk over each face's vertices (`vertex_table`); the link of any
        face is read from its low corner's entry (`manifold._link`).
        """
        return vertex_table(self.faces)

    def __contains__(self, w: str) -> bool:
        return w in self.faces

    def __len__(self) -> int:
        return len(self.faces)

    def f_vector(self) -> tuple[int, ...]:
        counts = [0] * (self.dim + 1)
        for w in self.faces:
            counts[word_dim(w)] += 1
        return tuple(counts)

    def euler_characteristic(self) -> int:
        return sum((-1) ** j * n for j, n in enumerate(self.f_vector()))

    def vertices(self) -> frozenset[str]:
        return frozenset(w for w in self.faces if word_dim(w) == 0)

    def sorted_faces(self) -> list[str]:
        return sort_words(self.faces)

    def maximal_faces(self) -> list[str]:
        """Faces not properly contained in another face, canonical order.

        In a downward-closed set a face lies in another only if it lies
        in one a step up, which frees one of its fixed coordinates.  The
        set is read as given, unvalidated: {'***', '0*0'} gives both.
        Only the coordinates some face frees are tried, each by one
        strided slice of the words joined end to end: a complex padded
        into a large cube costs no more than unpadded.
        """
        faces, n = self.faces, self.ambient_dim
        joined = "".join(faces)
        free = [i for i in range(n) if STAR in joined[i::n]]
        out = []
        for w in faces:
            for i in free:
                if w[i] != STAR and w[:i] + STAR + w[i + 1 :] in faces:
                    break
            else:
                out.append(w)
        return sort_words(out)

    def validate(self) -> None:
        """Refuse a face set that is not downward closed; word shape was checked on construction.

        The refusal (`_not_closed`) names the first face in canonical
        order that lacks a facet, and the first facet it lacks in
        `facets` order, so it does not depend on set iteration order.  A
        passed check sets the mark `_CLOSED` on the instance, which later
        calls read instead of scanning again.
        """
        if _CLOSED in self.__dict__:
            return
        faces = self.faces
        gaps = [w for w in faces if not faces.issuperset(facets(w))]
        if gaps:
            w = min(gaps, key=canon_key)
            raise _not_closed(w, next(f for f in facets(w) if f not in faces))
        self.__dict__[_CLOSED] = True


def _not_closed(at: str, missing: str) -> StructuralError:
    """The one refusal of a face set that is not downward closed: face `at` is in it, its subface `missing` is not."""
    return StructuralError(f"the face set is not downward closed: at {_named(at)}, face {_named(missing)} is missing")


def _derived(ambient_dim: int, faces: frozenset | None, closed: bool = False, chains=None) -> CubicalComplex:
    """A complex built without the constructor's word check, for faces the library made.

    Its words come from valid complexes or are spelt by a builder.  With
    `closed` the builder marks the set as checked, so `validate` never
    scans it, and `chains`, when given, are its boundary matrices.  A
    builder marks only what is closed whatever it was given: `closure`,
    `components`, whose input has passed `validate` by then, `_grown`,
    which adds to a checked c faces whose facets are in c, and `delete`,
    which validates c first and so refuses a c that is not closed.  Any
    other output, such as the skeleton or product of an unchecked set,
    is checked by its first reader.  `faces` may be None only together
    with `chains` and `closed` (`delete`): they are then read from the
    chains' levels on first use (`CubicalComplex.faces`).
    """
    c = object.__new__(CubicalComplex)
    entries = {"ambient_dim": ambient_dim, "faces": faces, _CLOSED: closed or None, "chains": chains}
    c.__dict__.update((key, value) for key, value in entries.items() if value is not None)
    return c


def _grown(c: CubicalComplex, added) -> CubicalComplex:
    """c with faces one dimension above its top added, c itself when none are; their facets must be in c.

    Its chains are c's with one level added (`BoundaryMatrices.extended`),
    the builder of a fresh complex started from c's matrices, which stay
    as they are; reading c.chains validates c.
    """
    if not added:
        return c
    return _derived(c.ambient_dim, c.faces.union(added), closed=True, chains=c.chains.extended(added))


def closure(ambient_dim: int, generators) -> CubicalComplex:
    """Downward closure of a set of face words inside I^ambient_dim."""
    if ambient_dim < 0:
        raise StructuralError("ambient_dim must be nonnegative")
    out: set[str] = set()
    for g in generators:
        validate_word(g, ambient_dim)
        if g not in out:
            d = word_dim(g)
            _check_stars(d)
            _check_size(f"closure of {_named(g)}", len(out) + 3**d, ambient_dim)
            out.update(subwords(g))
    return _derived(ambient_dim, frozenset(out), closed=True)


def _check_size(what: str, faces: int, ambient_dim: int) -> None:
    """Refuse to build `what`, up to `faces` faces of I^ambient_dim, when they exceed MAX_LETTERS letters."""
    if faces * ambient_dim > MAX_LETTERS:
        raise ContractError(
            f"{what} would exceed {MAX_LETTERS} letters (up to {_number(faces)} faces of I^{_number(ambient_dim)})"
        )


def _check_stars(stars: int) -> None:
    """Refuse a word with so many stars that its 3**stars subfaces alone exceed MAX_LETTERS.

    3**stars > 2**stars, so past the bit length of the bound this holds
    without the power or the word being made; fewer stars are left to
    `_check_size`.
    """
    if stars >= MAX_LETTERS.bit_length():
        raise ContractError(f"a word with {_number(stars)} stars would exceed {MAX_LETTERS} letters")


def full_cube(n: int) -> CubicalComplex:
    """All faces of I^n."""
    if n < 0:
        raise StructuralError("cube dimension must be nonnegative")
    _check_stars(n)
    return closure(n, [STAR * n])


def cube_boundary(n: int) -> CubicalComplex:
    """All faces of I^n except the top one."""
    if n < 1:
        raise StructuralError("boundary of I^n needs n >= 1")
    _check_stars(n)
    top = STAR * n
    _check_size(f"closure of {_named(top)}", 3**n, n)
    return _derived(n, frozenset(proper_subwords(top)))


def skeleton(c: CubicalComplex, k: int) -> CubicalComplex:
    """Faces of dimension at most k; k < 0 yields the empty complex."""
    return _derived(c.ambient_dim, frozenset(w for w in c.faces if word_dim(w) <= k))


def _require_subcomplex(c: CubicalComplex, g: CubicalComplex, role: str) -> None:
    if g.ambient_dim != c.ambient_dim:
        raise StructuralError(f"{role} lives in I^{g.ambient_dim}, expected I^{c.ambient_dim}")
    if not g.faces <= c.faces:
        raise StructuralError(f"{role} is not a subcomplex: {len(g.faces - c.faces)} faces missing from the host")


def delete(c: CubicalComplex, g: CubicalComplex) -> CubicalComplex:
    """Faces of c containing no vertex of g: c minus the open star of V(g).

    The result's boundary matrices are a view of c's without the star
    (`BoundaryMatrices.without`), of c's host when c is a deletion, so
    its homology costs no new matrices.  Its faces are the view's levels,
    built on first read: a deletion costs one pass over g's faces (the
    subcomplex check and V(g)) and the masks the view reads, not a copy
    of c's faces; a c that is a deletion has its faces and view levels
    frozen by that check.  Building c's matrices refuses a c that is not
    downward closed (StructuralError); a closed set minus an open star is closed.
    """
    _require_subcomplex(c, g, "deletion argument")
    kept = c.chains.without(g.vertices())
    return _derived(c.ambient_dim, None, closed=True, chains=kept)


def product_complex(a: CubicalComplex, b: CubicalComplex) -> CubicalComplex:
    """Concatenate face words; realizes the product in I^(m+n)."""
    _check_size("product", len(a.faces) * len(b.faces), a.ambient_dim + b.ambient_dim)
    faces = frozenset(wa + wb for wa in a.faces for wb in b.faces)
    return _derived(a.ambient_dim + b.ambient_dim, faces)

"""Cubical complexes: downward-closed sets of faces of I^n."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations, product

from .errors import ContractError, StructuralError
from .words import (
    ONE,
    STAR,
    ZERO,
    facets,
    proper_subwords,
    sort_words,
    subwords,
    validate_word,
    word_dim,
    word_vertices,
)

__all__ = [
    "CubicalComplex",
    "closure",
    "full_cube",
    "cube_boundary",
    "skeleton",
    "star",
    "delete",
    "face_subcomplex",
    "face_boundary",
    "is_face_like",
    "product_complex",
    "ambient_faces",
]

# Most faces a closure may hold.  A generator with d stars has 3**d
# subfaces, so one long word in a complex file could exhaust memory;
# full_cube(13) is the largest cube within the bound.
MAX_CLOSURE_FACES = 3**13


@dataclass(frozen=True)
class CubicalComplex:
    """Immutable set of face words of I^ambient_dim.

    Operations in this module keep the face set downward closed; the
    constructor only checks word shape, closure is asserted separately
    by validate().  Complexes derived from valid ones are made by
    `_derived`, which skips that check.
    """

    ambient_dim: int
    faces: frozenset[str] = field(default_factory=frozenset)

    def __post_init__(self):
        if self.ambient_dim < 0:
            raise StructuralError("ambient_dim must be nonnegative")
        if not isinstance(self.faces, frozenset):
            object.__setattr__(self, "faces", frozenset(self.faces))
        for w in self.faces:
            validate_word(w, self.ambient_dim)

    @cached_property
    def dim(self) -> int:
        """Top face dimension, -1 for the empty complex; computed once per instance."""
        return max((word_dim(w) for w in self.faces), default=-1)

    @cached_property
    def chains(self):
        """Signed boundary matrices of the whole complex (a homology.BoundaryMatrices), built once per instance."""
        from . import homology  # homology imports this module

        return homology._matrices_over(self.faces)

    @cached_property
    def faces_by_vertex(self) -> dict[str, tuple[str, ...]]:
        """Each vertex mapped to the faces containing it, built once per instance.

        One pass over the sum of 2**dim(w) vertex incidences; tuples keep
        the index small, as it lives as long as the complex.
        """
        at: dict[str, list[str]] = {}
        for w in self.faces:
            for v in word_vertices(w):
                at.setdefault(v, []).append(w)
        return {v: tuple(ws) for v, ws in at.items()}

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
        """Faces not properly contained in another face, canonical order."""
        out = []
        for w in self.faces:
            for i, letter in enumerate(w):
                if letter != STAR and w[:i] + STAR + w[i + 1 :] in self.faces:
                    break
            else:
                out.append(w)
        return sort_words(out)

    def is_subcomplex_of(self, other: "CubicalComplex") -> bool:
        return self.ambient_dim == other.ambient_dim and self.faces <= other.faces

    def validate(self) -> None:
        """Assert downward closure; word shape was checked on construction."""
        for w in self.faces:
            for f in facets(w):
                if f not in self.faces:
                    raise StructuralError(f"complex is not closed: {w!r} present, facet {f!r} missing")


def _derived(ambient_dim: int, faces: frozenset) -> CubicalComplex:
    """A complex whose words come from valid complexes, built without re-validating them."""
    c = object.__new__(CubicalComplex)
    object.__setattr__(c, "ambient_dim", ambient_dim)
    object.__setattr__(c, "faces", faces)
    return c


def closure(ambient_dim: int, generators) -> CubicalComplex:
    """Downward closure of a set of face words inside I^ambient_dim."""
    out: set[str] = set()
    for g in generators:
        validate_word(g, ambient_dim)
        if g not in out:
            _check_closure_size(len(out), g)
            out.update(subwords(g))
    return CubicalComplex(ambient_dim, frozenset(out))


def _check_closure_size(known: int, g: str) -> None:
    if known + 3 ** word_dim(g) > MAX_CLOSURE_FACES:
        raise ContractError(f"closure of {g!r} would exceed {MAX_CLOSURE_FACES} faces")


def full_cube(n: int) -> CubicalComplex:
    """All faces of I^n."""
    if n < 0:
        raise StructuralError("cube dimension must be nonnegative")
    return closure(n, [STAR * n])


def cube_boundary(n: int) -> CubicalComplex:
    """All faces of I^n except the top one."""
    if n < 1:
        raise StructuralError("boundary of I^n needs n >= 1")
    top = STAR * n
    _check_closure_size(0, top)
    return CubicalComplex(n, frozenset(s for s in subwords(top) if s != top))


def skeleton(c: CubicalComplex, k: int) -> CubicalComplex:
    """Faces of dimension at most k; k < 0 yields the empty complex."""
    if k < 0:
        return _derived(c.ambient_dim, frozenset())
    return _derived(c.ambient_dim, frozenset(w for w in c.faces if word_dim(w) <= k))


def _require_subcomplex(c: CubicalComplex, g: CubicalComplex, role: str) -> None:
    if g.ambient_dim != c.ambient_dim:
        raise StructuralError(f"{role} lives in I^{g.ambient_dim}, expected I^{c.ambient_dim}")
    if not g.faces <= c.faces:
        raise StructuralError(f"{role} is not a subcomplex: {len(g.faces - c.faces)} faces missing from the host")


def star(c: CubicalComplex, faces) -> frozenset[str]:
    """Faces of c having one of the given faces as a subface (their open star).

    A face contains f exactly when it contains both extreme corners of
    f, the vertices with every star of f set to 0 and to 1, so the star
    of f is the intersection of their entries in `faces_by_vertex`.
    Exact on any face set, downward closed or not, and for given words
    outside c.
    """
    at = c.faces_by_vertex
    found: set[str] = set()
    for f in faces:
        low = at.get(f.replace(STAR, ZERO), ())
        high = at.get(f.replace(STAR, ONE), ())
        # a vertex is both its corners: the same tuple, no intersection needed
        found.update(low if low is high else set(low).intersection(high))
    return frozenset(found)


def delete(c: CubicalComplex, g: CubicalComplex) -> CubicalComplex:
    """Faces of c containing no vertex of g: c minus the open star of V(g)."""
    _require_subcomplex(c, g, "deletion argument")
    return _derived(c.ambient_dim, c.faces - star(c, g.vertices()))


def face_subcomplex(c: CubicalComplex, f: str) -> CubicalComplex:
    """The subcomplex of all subfaces of a single face of c."""
    if f not in c.faces:
        raise StructuralError(f"face {f!r} is not in the complex")
    return CubicalComplex(c.ambient_dim, frozenset(subwords(f)))


def face_boundary(c: CubicalComplex, f: str) -> CubicalComplex:
    """Proper subfaces of a face of c."""
    if f not in c.faces:
        raise StructuralError(f"face {f!r} is not in the complex")
    return CubicalComplex(c.ambient_dim, frozenset(proper_subwords(f)))


def is_face_like(c: CubicalComplex, g: CubicalComplex) -> bool:
    """Whether every face of c meets the vertices of g in nothing or in a face of g.

    The test is purely combinatorial: intersect each face's vertex set
    with V(g) and look the result up among vertex sets of faces of g.
    Only the open star of V(g) meets V(g) at all, so only its faces,
    read from the vertex index, are checked.
    """
    _require_subcomplex(c, g, "face-likeness argument")
    gverts = g.vertices()
    gface_vertex_sets = {frozenset(word_vertices(w)) for w in g.faces}
    for w in star(c, gverts):
        if frozenset(v for v in word_vertices(w) if v in gverts) not in gface_vertex_sets:
            return False
    return True


def product_complex(a: CubicalComplex, b: CubicalComplex) -> CubicalComplex:
    """Concatenate face words; realizes the product in I^(m+n)."""
    faces = frozenset(wa + wb for wa in a.faces for wb in b.faces)
    return _derived(a.ambient_dim + b.ambient_dim, faces)


def ambient_faces(n: int, k: int):
    """All k-faces of I^n (unsorted; callers sort when order matters)."""
    if not 0 <= k <= n:
        return
    fixed_positions = list(range(n))
    for stars in combinations(range(n), k):
        star_set = set(stars)
        free = [i for i in fixed_positions if i not in star_set]
        for bits in product("01", repeat=n - k):
            w = [STAR] * n
            for i, b in zip(free, bits):
                w[i] = b
            yield "".join(w)

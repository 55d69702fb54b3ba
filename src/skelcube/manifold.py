"""Homology-manifold tests via local homology at every face."""

from __future__ import annotations

from .complex import CubicalComplex
from .errors import StructuralError, _Record
from .graph import components
from .homology import (
    HomologyProfile,
    _as_profile,
    _groups,
    _matrices_over,
    gf2_rank,
    integer_rank,
    relative_profile,
)
from .words import STAR, ZERO, _named, free_masks, word_dim

# relative_profile is re-exported, not called: perfbench/traced.py wraps
# skelcube.manifold.relative_profile as its homology.relative span, which
# the next benchmark change retires (ROADMAP item 1).
__all__ = [
    "ManifoldReport",
    "local_profile",
    "is_homology_manifold",
    "relative_profile",
]


class ManifoldReport(_Record):
    """The verdict, and on a negative one why it came out so.

    reason is None on a manifold, else one of: `impure` (a
    maximal face below the top dimension, failing_face), `local-homology`
    (failing_face has the local GF(2) profile failing_profile, not that
    of a sphere), `mixed-dimension` (manifold components of different
    dimensions) or `empty`.
    """

    _fields = ("is_manifold", "dimension", "orientable", "failing_face", "per_component", "reason", "failing_profile")

    def __init__(
        self,
        is_manifold: bool,
        dimension: int | None,
        orientable: bool | None,
        failing_face: str | None,
        per_component: tuple[ManifoldReport, ...] = (),
        reason: str | None = None,
        failing_profile: HomologyProfile | None = None,
    ):
        values = (is_manifold, dimension, orientable, failing_face, per_component, reason, failing_profile)
        self.__dict__.update(zip(self._fields, values))


def _link(c: CubicalComplex, f: str) -> list[list[int]]:
    """The link of f in c by number of vertices, each simplex a mask of f's fixed coordinates.

    A face g containing f frees a set A_g of f's fixed coordinates; the
    A_g are the simplices, f's own the empty one.  g contains f exactly
    when it contains f's low corner (every star of f set to 0) and frees
    every coordinate f frees, so the link is read from that corner's
    entry in `vertex_links`: the masks covering f's, less f's.  Exact on
    any face set, downward closed or not.
    """
    (own,) = free_masks((f,))
    levels: list[list[int]] = [[] for _ in range(c.dim - word_dim(f) + 1)]
    for a in c.vertex_links[f.replace(STAR, ZERO)]:
        if a & own == own:
            a ^= own
            levels[a.bit_count()].append(a)
    return levels


def _link_rank(below: list[int], level: list[int]) -> int:
    """Rank over GF(2) of the link's boundary from level to below, columns packed as ints.

    The complex has passed `validate`, so below holds every facet of a
    simplex of level.
    """
    row = {a: 1 << r for r, a in enumerate(below)}
    columns = []
    for a in level:
        column, rest = 0, a
        while rest:
            low = rest & -rest
            column |= row[a ^ low]
            rest ^= low
        columns.append(column)
    return gf2_rank(columns)


def local_profile(c: CubicalComplex, f: str) -> HomologyProfile:
    """GF(2) homology of the pair (c, faces not containing f), in degrees 0..dim c.

    The quotient basis is the open star of f, and no matrix is built
    over it: the facets of a star face g that stay in the star put f's
    letter back at one coordinate of A_g (see `_link`), so the quotient
    is the augmented chain complex of the link shifted up by p = dim f,
    and H_j of the pair is the reduced H_(j-p-1) of the link (Munkres,
    *Elements of Algebraic Topology*, 1984, section 63).  That reading
    needs a downward-closed c, where a star face of dimension p + k has
    k facets in the star, so c is validated first.  Over Z the pair's
    homology is `relative_profile` of c and its faces not containing f.
    """
    if f not in c.faces:
        raise StructuralError(f"face {_named(f)} is not in the complex")
    c.validate()
    p, length = word_dim(f), c.dim + 1
    faces, rank = [0] * (length + 1), [0] * (length + 1)
    levels = _link(c, f)
    for k, level in enumerate(levels):
        faces[p + k] = len(level)
        if k:
            rank[p + k] = _link_rank(levels[k - 1], level)
    return _as_profile(_groups(faces, rank, [()] * (length + 1), range(length)))


def _top_free_rank(comp: CubicalComplex) -> int:
    # integer H_top is free (no higher faces), so a rank suffices; D_d
    # needs only the faces of the top two dimensions
    d = comp.dim
    mats = _matrices_over([w for w in comp.faces if word_dim(w) >= d - 1])
    return mats.num_faces(d) - integer_rank(mats.dense(d))


def _impure_face(c: CubicalComplex) -> str | None:
    """First maximal face below the top dimension, None when c is pure."""
    return next((w for w in c.maximal_faces() if word_dim(w) != c.dim), None)


def _component_report(comp: CubicalComplex, with_orientability: bool) -> ManifoldReport:
    d = comp.dim
    impure = _impure_face(comp)
    if impure is not None:
        return ManifoldReport(False, None, None, impure, reason="impure")
    sphere = (0,) * d + (1,)
    for w in comp.sorted_faces():
        seen = local_profile(comp, w)
        if seen.betti != sphere:
            return ManifoldReport(False, None, None, w, reason="local-homology", failing_profile=seen)
    orientable = _top_free_rank(comp) == 1 if with_orientability else None
    return ManifoldReport(True, d, orientable, None)


def is_homology_manifold(c: CubicalComplex, check_orientability: bool = False) -> ManifoldReport:
    """Check purity and the sphere pattern of every local GF(2) profile.

    Components are tested separately; the whole complex qualifies iff
    every component does and all share one dimension.
    """
    parts = components(c)
    if not parts:
        return ManifoldReport(False, None, None, None, reason="empty")
    sub = tuple(_component_report(p, check_orientability) for p in parts)
    bad = next((r for r in sub if not r.is_manifold), None)
    if bad is not None:
        return ManifoldReport(False, None, None, bad.failing_face, sub, bad.reason, bad.failing_profile)
    if len({r.dimension for r in sub}) != 1:
        return ManifoldReport(False, None, None, None, sub, "mixed-dimension")
    orientable = all(r.orientable for r in sub) if check_orientability else None
    return ManifoldReport(True, sub[0].dimension, orientable, None, sub)


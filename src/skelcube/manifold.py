"""Homology-manifold tests via local homology at every face."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .complex import CubicalComplex, _derived, _require_subcomplex, is_face_like, star
from .embedding import components
from .errors import ContractError, ContradictionError, StructuralError
from .homology import GF2, HomologyProfile, integer_rank, relative_profile
from .words import proper_subwords, span_word, word_dim

__all__ = [
    "ManifoldReport",
    "local_profile",
    "is_homology_manifold",
    "is_orientable",
    "facelike_characterization",
]


@dataclass(frozen=True)
class ManifoldReport:
    is_manifold: bool
    dimension: Optional[int]
    orientable: Optional[bool]
    failing_face: Optional[str]
    per_component: tuple["ManifoldReport", ...] = ()


def local_profile(c: CubicalComplex, f: str, ring: str = GF2) -> HomologyProfile:
    """Homology of the pair (c, faces not containing f).

    The quotient basis is the open star of f, the faces having f as a
    subface, read from c's vertex index (see star).
    """
    if f not in c.faces:
        raise StructuralError(f"face {f!r} is not in the complex")
    away = c.faces - star(c, (f,))
    return relative_profile(c, _derived(c.ambient_dim, away), ring)


def _top_free_rank(comp: CubicalComplex) -> int:
    # integer H_top is free (no higher faces), so a rank suffices
    d = comp.dim
    mats = comp.chains
    return mats.num_faces(d) - integer_rank(mats.dense(d))


def _impure_face(c: CubicalComplex) -> Optional[str]:
    """First maximal face below the top dimension, None when c is pure."""
    return next((w for w in c.maximal_faces() if word_dim(w) != c.dim), None)


def _component_report(comp: CubicalComplex, with_orientability: bool) -> ManifoldReport:
    d = comp.dim
    impure = _impure_face(comp)
    if impure is not None:
        return ManifoldReport(False, None, None, impure)
    sphere = (0,) * d + (1,)
    for w in comp.sorted_faces():
        if local_profile(comp, w, GF2).betti != sphere:
            return ManifoldReport(False, None, None, w)
    orientable = _top_free_rank(comp) == 1 if with_orientability else None
    return ManifoldReport(True, d, orientable, None)


def is_homology_manifold(c: CubicalComplex, check_orientability: bool = False) -> ManifoldReport:
    """Check purity and the sphere pattern of every local GF(2) profile.

    Components are tested separately; the whole complex qualifies iff
    every component does and all share one dimension.
    """
    parts = components(c)
    if not parts:
        return ManifoldReport(False, None, None, None)
    sub = tuple(_component_report(p, check_orientability) for p in parts)
    ok = all(r.is_manifold for r in sub) and len({r.dimension for r in sub}) == 1
    if not ok:
        failing = next((r.failing_face for r in sub if r.failing_face is not None), None)
        return ManifoldReport(False, None, None, failing, sub)
    orientable = all(r.orientable for r in sub) if check_orientability else None
    return ManifoldReport(True, sub[0].dimension, orientable, None, sub)


def is_orientable(c: CubicalComplex) -> bool:
    """Whether each component carries an integer fundamental class.

    The caller is expected to have verified the homology-manifold
    property; only purity is re-checked here.  Degree-d torsion cannot
    occur (there are no (d+1)-faces), so the test is a rank condition.
    """
    parts = components(c)
    if not parts:
        raise ContractError("orientability needs a nonempty homology manifold")
    impure = _impure_face(c)
    if impure is not None:
        raise ContractError(f"complex is not pure: maximal face {impure!r} has dimension {word_dim(impure)}")
    return all(_top_free_rank(p) == 1 for p in parts)


def facelike_characterization(c: CubicalComplex, s: CubicalComplex, k: int) -> bool:
    """Face-likeness of a cube-boundary subcomplex, with the bounding cross-check.

    s must be the full boundary of some (k+1)-face of the ambient cube,
    given as a subcomplex of c.  The return value is is_face_like(c, s);
    it must coincide with the absence of a face of c whose boundary is
    exactly s, and ContradictionError is raised when it does not.
    """
    if k < 1:
        raise ContractError(f"k >= 1 required, got {k}")
    _require_subcomplex(c, s, "s")
    if not s.faces:
        raise StructuralError("s is empty")
    spanning = span_word(s.maximal_faces())
    if word_dim(spanning) != k + 1 or s.faces != frozenset(proper_subwords(spanning)):
        raise StructuralError(f"s is not the boundary of a ({k + 1})-face")
    facelike = is_face_like(c, s)
    bounds = spanning in c.faces
    if facelike == bounds:
        raise ContradictionError(
            f"face-likeness ({facelike}) disagrees with not-bounding ({not bounds}) for {spanning!r}"
        )
    return facelike

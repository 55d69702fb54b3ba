"""Homology-manifold tests via local homology at every face."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .complex import CubicalComplex, _require_subcomplex, is_face_like, star
from .embedding import components
from .errors import ContractError, ContradictionError, StructuralError
from .homology import GF2, HomologyProfile, _check_ring, _profile, integer_rank, relative_profile
from .words import proper_subwords, span_word, word_dim

# relative_profile is re-exported, not called: perfbench/traced.py wraps
# skelcube.manifold.relative_profile as its homology.relative span, which
# the next benchmark change retires (ROADMAP item 1).
__all__ = [
    "ManifoldReport",
    "local_profile",
    "is_homology_manifold",
    "is_orientable",
    "facelike_characterization",
    "relative_profile",
]


@dataclass(frozen=True)
class ManifoldReport:
    """The verdict, and on a negative one why it came out so.

    reason is None on a manifold, else one of: `impure` (a
    maximal face below the top dimension, failing_face), `local-homology`
    (failing_face has the local GF(2) profile failing_profile, not that
    of a sphere), `mixed-dimension` (manifold components of different
    dimensions) or `empty`.
    """

    is_manifold: bool
    dimension: Optional[int]
    orientable: Optional[bool]
    failing_face: Optional[str]
    per_component: tuple["ManifoldReport", ...] = ()
    reason: Optional[str] = None
    failing_profile: Optional[HomologyProfile] = None


def local_profile(c: CubicalComplex, f: str, ring: str = GF2) -> HomologyProfile:
    """Homology of the pair (c, faces not containing f), in degrees 0..dim c.

    The quotient basis is the open star of f, the faces having f as a
    subface, read from c's vertex index (see star).  The star is closed
    upward, so the quotient matrices are c's own (`c.chains`) sliced to
    the star's columns and rows (`BoundaryMatrices.restricted_to`), over
    either ring.  Per face only the star's own columns are built.
    """
    if f not in c.faces:
        raise StructuralError(f"face {f!r} is not in the complex")
    _check_ring(ring)
    return _profile(c.chains.restricted_to(star(c, (f,))), c.dim + 1, ring)


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
        return ManifoldReport(False, None, None, impure, reason="impure")
    sphere = (0,) * d + (1,)
    for w in comp.sorted_faces():
        seen = local_profile(comp, w, GF2)
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

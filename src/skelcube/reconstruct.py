"""Rebuilding a cubical homology manifold from a middle skeleton.

Starting from the k-skeleton, every (k+1)-face one step above a k-face
of the complex whose boundary already lies in the complex is a
candidate; it is accepted when deleting its boundary sphere leaves the
homology unchanged in degrees d-k and d-k-1, which are computable at
skeleton level because d-k <= k-1.  Accepted faces are added in one
batch per degree and the process repeats with the grown complex until
the target dimension is reached.

Deleting the boundary of a candidate removes the open star of its
vertices, and a face outside that star has no vertex there, so none of
its facets is in the star either.  The deletion therefore removes
columns only: its D_j is the current complex's D_j restricted to the
j-faces kept.  The input builds its boundary matrices once
(`CubicalComplex.chains`, also read by its base profile) and indexes its
faces by vertex once (`CubicalComplex.faces_by_vertex`).  A degree only
adds faces one dimension above the current complex, so the grown
complex carries both up (`complex._grown`) with the builders a fresh
complex starts from nothing: its matrices are the current ones plus
one level (`BoundaryMatrices.extended`), sharing D_1..D_k with their
GF(2) eliminations, and its vertex index is a copy of the current one
plus the added faces; the current complex is left as it is.  A step
that accepts nothing keeps the current complex.  So each map is built
and eliminated over GF(2) once per reconstruction, and a candidate's
deleted star is a few index lookups.  A candidate then costs a few
C-level passes (`delete`, which is one frozenset difference with its
vertices' index entries, and the mask of deleted columns per compared
map) and, over GF(2), a pass over the mask's non-pivot columns in the
base's reduced kernel and one small rank, by rank-nullity (see
homology); TIGHT_INTEGER compares torsion and reduces the columns
outside the mask over Z.

A tight mode (even target dimension d = 2k) is the same test at the
first degree with degree d-k dropped, the middle degree whose homology
its hypothesis controls: H_k vanishing over GF(2) for TIGHT_GF2, or
orientability plus finite integer H_k for TIGHT_INTEGER, which also
compares over the integers.  The caller asserts the hypothesis; misuse
produces a well-defined but possibly wrong complex.
"""

from __future__ import annotations

from .complex import CubicalComplex, _derived, _grown, delete
from .errors import ContractError, _Record
from .homology import GF2, INTEGER, _homology, homology_profile
from .words import facets, one_step_cofaces, sort_words, validate_word, word_dim, word_vertices

__all__ = [
    "STANDARD",
    "TIGHT_GF2",
    "TIGHT_INTEGER",
    "ReconstructionConfig",
    "CandidateVerdict",
    "ReconstructionStep",
    "enumerate_candidates",
    "face_criterion",
    "reconstruct_steps",
    "reconstruct",
    "reconstruct_auto",
]

STANDARD = "standard"
TIGHT_GF2 = "tight-gf2"
TIGHT_INTEGER = "tight-int"

_MODES = (STANDARD, TIGHT_GF2, TIGHT_INTEGER)


class ReconstructionConfig(_Record):
    _fields = ("k", "d", "mode")

    def __init__(self, k: int, d: int, mode: str = STANDARD):
        self.__dict__.update(k=k, d=d, mode=mode)

    def validate(self) -> None:
        _check_mode_and_k(self.mode, self.k)
        if self.mode == STANDARD:
            if self.k < self.d // 2 + 1:
                raise ContractError(f"k >= floor(d/2)+1 required, got k={self.k}, d={self.d}")
        elif self.d != 2 * self.k:
            raise ContractError(f"tight mode needs d = 2k, got k={self.k}, d={self.d}")


def _check_mode_and_k(mode: str, k: int) -> None:
    if mode not in _MODES:
        raise ContractError(f"mode must be one of {_MODES}, got {mode!r}")
    if k < 2:
        raise ContractError(f"k >= 2 required, got k={k}")


class CandidateVerdict(_Record):
    _fields = ("face", "boundary_present", "accepted", "profiles")

    # profiles: one entry per compared degree, (j, deleted-side degree, base-side degree)
    def __init__(self, face: str, boundary_present: bool, accepted: bool, profiles: tuple = ()):
        self.__dict__.update(face=face, boundary_present=boundary_present, accepted=accepted, profiles=profiles)


class ReconstructionStep(_Record):
    _fields = ("degree", "verdicts", "complex_after")

    def __init__(self, degree: int, verdicts: tuple[CandidateVerdict, ...], complex_after: CubicalComplex):
        self.__dict__.update(degree=degree, verdicts=verdicts, complex_after=complex_after)


def enumerate_candidates(skel: CubicalComplex, k: int) -> list[str]:
    """(k+1)-faces of I^n whose boundary lies in skel, canonical order.

    Every such face has its k-dimensional facets in skel, so walking one
    step up from the k-faces of skel finds them all without scanning the
    ambient cube; k < 0 yields none.  Checking the 2(k+1) facets
    suffices: skel is downward closed, so deeper subfaces are then
    present as well.
    """
    if skel.dim > k:
        raise ContractError(f"skeleton dimension {skel.dim} exceeds k={k}")
    above = {up for w in skel.faces if word_dim(w) == k for up in one_step_cofaces(w)}
    return sort_words(w for w in above if _boundary_present(skel, w))


def _boundary_present(skel: CubicalComplex, w: str) -> bool:
    return all(f in skel.faces for f in facets(w))


def face_criterion(skel: CubicalComplex, f: str, k: int, d: int, mode: str = STANDARD) -> CandidateVerdict:
    """Accept f iff deleting its boundary preserves homology in the compared degrees.

    These are d-k and d-k-1 in the standard mode and d-k-1 alone in a
    tight mode (see the module docstring); negative degrees count as
    zero groups.  Homology is over GF(2) except in TIGHT_INTEGER.
    The boundary of f has the vertices of f, so the deletion is that of
    V(f).  It removes columns only (no kept face has a facet in the
    deleted star), so the deleted side is computed from skel's own
    boundary matrices restricted to the kept faces, in the compared
    degrees alone.
    """
    ReconstructionConfig(k, d, mode).validate()
    if word_dim(f) != k + 1:
        raise ContractError(f"candidate {f!r} has dimension {word_dim(f)}, expected {k + 1}")
    validate_word(f, skel.ambient_dim)
    ring = INTEGER if mode == TIGHT_INTEGER else GF2
    base = homology_profile(skel, ring)  # refuses a skel lacking a facet of one of its faces
    if not _boundary_present(skel, f):
        return CandidateVerdict(f, False, False)
    degrees = (d - k, d - k - 1) if mode == STANDARD else (d - k - 1,)
    kept = delete(skel, _derived(skel.ambient_dim, frozenset(word_vertices(f)))).faces
    deleted = _homology(skel.chains, ring, degrees, kept)
    profiles = tuple((j, deleted[j], base.degree(j)) for j in degrees)
    accepted = all(left == right for _, left, right in profiles)
    return CandidateVerdict(f, True, accepted, profiles)


def reconstruct_steps(skel: CubicalComplex, cfg: ReconstructionConfig):
    """An iterator over one ReconstructionStep per degree from k up to d-1.

    The configured mode judges degree k; every later degree is standard.
    The contract is checked here, before any step: no face of I^n has
    dimension above n, so a target d above the ambient n is refused,
    and building skel's boundary matrices, which the criterion reads,
    refuses a face set lacking a facet of one of its faces.
    """
    cfg.validate()
    if skel.dim > cfg.k:
        raise ContractError(f"input dimension {skel.dim} exceeds k={cfg.k}")
    if cfg.d > skel.ambient_dim:
        raise ContractError(f"target dimension d={cfg.d} exceeds the ambient dimension {skel.ambient_dim}")
    skel.chains  # built now, so that a gap is refused before the first step
    return _steps(skel, cfg)


def _steps(skel: CubicalComplex, cfg: ReconstructionConfig):
    current = skel
    for degree in range(cfg.k, cfg.d):
        mode = cfg.mode if degree == cfg.k else STANDARD
        verdicts = tuple(
            face_criterion(current, f, degree, cfg.d, mode) for f in enumerate_candidates(current, degree)
        )
        added = [v.face for v in verdicts if v.accepted]
        current = _grown(current, added)
        yield ReconstructionStep(degree, verdicts, current)


def reconstruct(skel: CubicalComplex, cfg: ReconstructionConfig) -> CubicalComplex:
    """Run all degrees and return the final complex (the input if nothing was added)."""
    current = skel
    for step in reconstruct_steps(skel, cfg):
        current = step.complex_after
    return current


def reconstruct_auto(
    skel: CubicalComplex,
    k: int,
    d_max: int,
    mode: str = STANDARD,
) -> list[tuple[int, CubicalComplex]]:
    """Try every admissible target dimension and keep verified manifolds.

    For d in k..min(d_max, 2k, n) the standard loop runs below d = 2k,
    where k >= floor(d/2)+1 holds; the boundary case d = 2k runs only in
    a tight mode, which the caller enables only when its hypothesis is
    trusted.  No mode admits d > 2k, and no d-manifold lies in I^n for
    d > n, the ambient dimension.
    A result is kept iff it passes is_homology_manifold at dimension d.
    The input itself is reported when it is already a manifold, covering
    skeletons below the search range.  Whenever a d is tried, its
    dimension is at most k (a larger one makes reconstruct raise), so
    results come in ascending d, and it can only repeat as the result at
    d = k.
    """
    from .manifold import is_homology_manifold  # a run without --auto does not load manifold

    _check_mode_and_k(mode, k)
    results: list[tuple[int, CubicalComplex]] = []
    own = is_homology_manifold(skel)
    if own.is_manifold:
        results.append((own.dimension, skel))
    top = 2 * k if mode != STANDARD else 2 * k - 1
    for d in range(k, min(d_max, top, skel.ambient_dim) + 1):
        built = reconstruct(skel, ReconstructionConfig(k, d, mode if d == 2 * k else STANDARD))
        report = is_homology_manifold(built)
        if report.is_manifold and report.dimension == d and (d, built) not in results:
            results.append((d, built))
    return results

"""Rebuilding a cubical homology manifold from a middle skeleton.

Starting from the k-skeleton, every ambient (k+1)-face whose boundary
already lies in the complex is a candidate; it is accepted when deleting
its boundary sphere leaves the homology unchanged in degrees d-k and
d-k-1, which are computable at skeleton level because d-k <= k-1.
Accepted faces are added in one batch per degree and the process repeats
with the grown complex until the target dimension is reached.

Tight mode (even target dimension d = 2r) replaces the first-step test
by a comparison in the single degree r-1.  It is only valid when the
caller asserts the matching hypothesis: H_r vanishing over GF(2), or
orientability plus finite integer H_r for the integer variant.  Misuse
produces a well-defined but possibly wrong complex.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complex import CubicalComplex, ambient_faces, delete
from .errors import ContractError
from .homology import GF2, INTEGER, homology_profile
from .manifold import is_homology_manifold
from .words import facets, proper_subwords, sort_words, validate_word, word_dim

__all__ = [
    "STANDARD",
    "TIGHT_GF2",
    "TIGHT_INTEGER",
    "ReconstructionConfig",
    "CandidateVerdict",
    "ReconstructionStep",
    "enumerate_candidates",
    "face_criterion",
    "face_criterion_tight",
    "reconstruct_steps",
    "reconstruct",
    "reconstruct_auto",
]

STANDARD = "standard"
TIGHT_GF2 = "tight-gf2"
TIGHT_INTEGER = "tight-int"

_MODES = (STANDARD, TIGHT_GF2, TIGHT_INTEGER)


@dataclass(frozen=True)
class ReconstructionConfig:
    k: int
    d: int
    mode: str = STANDARD

    def validate(self) -> None:
        if self.mode not in _MODES:
            raise ContractError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if self.k < 2:
            raise ContractError(f"k >= 2 required, got k={self.k}")
        if self.mode == STANDARD:
            if self.k < self.d // 2 + 1:
                raise ContractError(f"k >= floor(d/2)+1 required, got k={self.k}, d={self.d}")
        else:
            if self.d != 2 * self.k:
                raise ContractError(f"tight mode needs d = 2k, got k={self.k}, d={self.d}")
            if self.d < 4:
                raise ContractError(f"tight mode needs d >= 4, got d={self.d}")


@dataclass(frozen=True)
class CandidateVerdict:
    face: str
    boundary_present: bool
    accepted: bool
    # one entry per compared degree: (j, deleted-side degree, base-side degree)
    profiles: tuple = ()


@dataclass(frozen=True)
class ReconstructionStep:
    degree: int
    verdicts: tuple[CandidateVerdict, ...]
    complex_after: CubicalComplex


def enumerate_candidates(skel: CubicalComplex, k: int) -> list[str]:
    """Ambient (k+1)-faces of I^n whose boundary lies in skel, canonical order.

    Checking the 2(k+1) facets suffices: skel is downward closed, so
    deeper subfaces are then present as well.
    """
    if skel.dim > k:
        raise ContractError(f"skeleton dimension {skel.dim} exceeds k={k}")
    return sort_words(w for w in ambient_faces(skel.ambient_dim, k + 1) if _boundary_present(skel, w))


def _boundary_present(skel: CubicalComplex, w: str) -> bool:
    return all(f in skel.faces for f in facets(w))


def _boundary_complex(n: int, w: str) -> CubicalComplex:
    return CubicalComplex(n, frozenset(proper_subwords(w)))


def _criterion(skel: CubicalComplex, f: str, degrees, ring: str) -> CandidateVerdict:
    validate_word(f, skel.ambient_dim)
    if not _boundary_present(skel, f):
        return CandidateVerdict(f, False, False)
    boundary = _boundary_complex(skel.ambient_dim, f)
    deleted = homology_profile(delete(skel, boundary), ring)
    base = homology_profile(skel, ring)
    profiles = tuple((j, deleted.degree(j), base.degree(j)) for j in degrees)
    accepted = all(left == right for _, left, right in profiles)
    return CandidateVerdict(f, True, accepted, profiles)


def face_criterion(skel: CubicalComplex, f: str, k: int, d: int) -> CandidateVerdict:
    """Accept f iff deleting its boundary preserves GF(2) homology in
    degrees d-k and d-k-1 (negative degrees count as zero groups)."""
    if k < 2:
        raise ContractError(f"k >= 2 required, got k={k}")
    if d - k > k - 1:
        raise ContractError(f"d-k <= k-1 required, got k={k}, d={d}")
    if word_dim(f) != k + 1:
        raise ContractError(f"candidate {f!r} has dimension {word_dim(f)}, expected {k + 1}")
    return _criterion(skel, f, (d - k, d - k - 1), GF2)


def face_criterion_tight(skel: CubicalComplex, f: str, r: int, ring: str = GF2) -> CandidateVerdict:
    """Single-degree variant for d = 2r: compare homology only in degree r-1.

    Sound only under the caller-asserted middle-homology hypothesis; see
    the module docstring.
    """
    if r < 2:
        raise ContractError(f"r >= 2 required, got r={r}")
    if ring not in (GF2, INTEGER):
        raise ContractError(f"ring must be {GF2!r} or {INTEGER!r}, got {ring!r}")
    if word_dim(f) != r + 1:
        raise ContractError(f"candidate {f!r} has dimension {word_dim(f)}, expected {r + 1}")
    return _criterion(skel, f, (r - 1,), ring)


def reconstruct_steps(skel: CubicalComplex, cfg: ReconstructionConfig):
    """Yield one ReconstructionStep per degree from k up to d-1."""
    cfg.validate()
    if skel.dim > cfg.k:
        raise ContractError(f"input dimension {skel.dim} exceeds k={cfg.k}")
    current = skel
    for degree in range(cfg.k, cfg.d):
        cands = enumerate_candidates(current, degree)
        if cfg.mode != STANDARD and degree == cfg.k:
            ring = GF2 if cfg.mode == TIGHT_GF2 else INTEGER
            verdicts = tuple(face_criterion_tight(current, f, cfg.k, ring) for f in cands)
        else:
            verdicts = tuple(face_criterion(current, f, degree, cfg.d) for f in cands)
        added = [v.face for v in verdicts if v.accepted]
        current = CubicalComplex(current.ambient_dim, current.faces | frozenset(added))
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
    tight_mode: str | None = None,
) -> list[tuple[int, CubicalComplex]]:
    """Try every admissible target dimension and keep verified manifolds.

    For d in k..d_max the standard loop runs whenever k >= floor(d/2)+1;
    the boundary case d = 2k additionally runs under the requested tight
    mode, which the caller enables only when its hypothesis is trusted.
    A result is kept iff it passes is_homology_manifold at dimension d.
    The input itself is reported when it is already a manifold, covering
    skeletons below the search range.
    """
    if k < 2:
        raise ContractError(f"k >= 2 required, got k={k}")
    if tight_mode not in (None, TIGHT_GF2, TIGHT_INTEGER):
        raise ContractError(f"tight_mode must be {TIGHT_GF2!r}, {TIGHT_INTEGER!r} or None")
    results: list[tuple[int, CubicalComplex]] = []
    seen: set[tuple[int, frozenset]] = set()

    def keep(d: int, cx: CubicalComplex) -> None:
        key = (d, cx.faces)
        if key not in seen:
            seen.add(key)
            results.append((d, cx))

    own = is_homology_manifold(skel)
    if own.is_manifold:
        keep(own.dimension, skel)
    for d in range(k, d_max + 1):
        if k >= d // 2 + 1:
            cfg = ReconstructionConfig(k, d, STANDARD)
        elif tight_mode is not None and d == 2 * k:
            cfg = ReconstructionConfig(k, d, tight_mode)
        else:
            continue
        built = reconstruct(skel, cfg)
        report = is_homology_manifold(built)
        if report.is_manifold and report.dimension == d:
            keep(d, built)
    results.sort(key=lambda t: t[0])
    return results

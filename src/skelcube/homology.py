"""Chain complexes and homology of cubical complexes.

Boundary matrices are built per degree with rows indexed by (j-1)-faces
and columns by j-faces, both in canonical order.  Incidence signs follow
signed_facets: the i-th star of a face (left to right, starting at 1)
contributes (-1)**(i+1) on its ONE facet and (-1)**i on its ZERO facet.

GF(2) ranks run on bit-packed integers.  Integer computations use exact
Python arithmetic, so entry growth in the Smith normal form is handled
by arbitrary precision and there is no overflow path to detect.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .complex import CubicalComplex
from .errors import ContractError, StructuralError
from .words import signed_facets, sort_words, word_dim

__all__ = [
    "GF2",
    "INTEGER",
    "HomologyProfile",
    "BoundaryMatrices",
    "boundary_matrices",
    "gf2_rank",
    "smith_normal_form",
    "integer_rank",
    "betti_gf2",
    "homology_integer",
    "homology_profile",
    "cohomology_betti_gf2",
    "cohomology_integer",
    "cohomology_profile",
    "relative_profile",
]

GF2 = "gf2"
INTEGER = "int"


def _check_ring(ring: str) -> None:
    if ring not in (GF2, INTEGER):
        raise ContractError(f"ring must be {GF2!r} or {INTEGER!r}, got {ring!r}")


@dataclass(frozen=True)
class HomologyProfile:
    """Betti numbers and invariant factors per degree.

    betti[j] is the free rank over the chosen ring; torsion[j] lists the
    invariant factors exceeding 1 (always empty over GF(2)).  Degrees
    outside the stored range, including negative ones, are zero groups.
    """

    betti: tuple[int, ...]
    torsion: tuple[tuple[int, ...], ...]

    def degree(self, j: int) -> tuple[int, tuple[int, ...]]:
        if 0 <= j < len(self.betti):
            return self.betti[j], self.torsion[j]
        return 0, ()

    def agrees_with(self, other: "HomologyProfile", j: int) -> bool:
        return self.degree(j) == other.degree(j)


class BoundaryMatrices:
    """Signed boundary matrices over a set of faces.

    The face set need not be downward closed: for relative homology the
    basis is the faces of a pair difference, and facet entries leading
    outside the set are dropped (the quotient boundary).
    """

    def __init__(self, ambient_dim: int, ring: str, levels, columns):
        self.ambient_dim = ambient_dim
        self.ring = ring
        self.levels = levels        # levels[j]: j-faces, canonical order
        self.columns = columns      # columns[j][c]: list of (row, sign), j >= 1

    @property
    def top(self) -> int:
        return len(self.levels) - 1

    def num_faces(self, j: int) -> int:
        if 0 <= j <= self.top:
            return len(self.levels[j])
        return 0

    def gf2_column_masks(self, j: int) -> list[int]:
        if not 1 <= j <= self.top:
            return []
        return [sum(1 << r for r, _ in col) for col in self.columns[j]]

    def dense(self, j: int) -> list[list[int]]:
        if not 1 <= j <= self.top:
            return []
        m = len(self.levels[j - 1])
        out = [[0] * len(self.columns[j]) for _ in range(m)]
        for ci, col in enumerate(self.columns[j]):
            for r, s in col:
                out[r][ci] = s
        return out

    def check_chain_identity(self) -> None:
        """Assert D_j composed with D_(j+1) vanishes over the ring."""
        mod2 = self.ring == GF2
        for j in range(2, self.top + 1):
            lower = self.columns[j - 1]
            for col in self.columns[j]:
                acc: dict[int, int] = {}
                for mid, s1 in col:
                    for r, s2 in lower[mid]:
                        acc[r] = acc.get(r, 0) + s1 * s2
                for r, v in acc.items():
                    if (v % 2 if mod2 else v) != 0:
                        raise AssertionError(f"boundary of boundary nonzero at degree {j}, row {r}")


def _matrices_over(face_set, ambient_dim: int, ring: str) -> BoundaryMatrices:
    top = max((word_dim(w) for w in face_set), default=-1)
    levels = [[] for _ in range(top + 1)]
    for w in face_set:
        levels[word_dim(w)].append(w)
    levels = [sort_words(level) for level in levels]
    index = [{w: i for i, w in enumerate(level)} for level in levels]
    columns: list[list[list[tuple[int, int]]]] = [[] for _ in range(top + 1)]
    for j in range(1, top + 1):
        below = index[j - 1]
        cols = []
        for w in levels[j]:
            col = [(below[f], s) for f, s in signed_facets(w) if f in below]
            cols.append(col)
        columns[j] = cols
    return BoundaryMatrices(ambient_dim, ring, levels, columns)


def boundary_matrices(c: CubicalComplex, ring: str = GF2) -> BoundaryMatrices:
    _check_ring(ring)
    return _matrices_over(c.faces, c.ambient_dim, ring)


def gf2_rank(vectors) -> int:
    """Rank of a family of GF(2) vectors packed as ints."""
    basis: dict[int, int] = {}
    rank = 0
    for v in vectors:
        while v:
            h = v.bit_length() - 1
            b = basis.get(h)
            if b is None:
                basis[h] = v
                rank += 1
                break
            v ^= b
    return rank


def smith_normal_form(matrix) -> tuple[int, ...]:
    """Invariant factors d_1 | d_2 | ... of an integer matrix.

    Smallest-absolute-pivot selection keeps entries from growing; the
    remainder-swap steps strictly shrink the pivot, so the loop always
    terminates with a full divisibility chain.
    """
    a = [[int(v) for v in row] for row in matrix]
    m = len(a)
    n = len(a[0]) if m else 0
    if m and any(len(row) != n for row in a):
        raise StructuralError("ragged matrix")
    factors: list[int] = []
    t = 0
    while t < m and t < n:
        # pick the entry of smallest absolute value in the live submatrix
        pr = pc = -1
        best = 0
        for i in range(t, m):
            for j in range(t, n):
                v = a[i][j]
                if v and (best == 0 or abs(v) < best):
                    best = abs(v)
                    pr, pc = i, j
                    if best == 1:
                        break
            if best == 1:
                break
        if best == 0:
            break
        a[t], a[pr] = a[pr], a[t]
        for row in a:
            row[t], row[pc] = row[pc], row[t]
        restart = False
        # clear column t; a nonzero remainder is strictly smaller, retry with it
        for i in range(t + 1, m):
            if a[i][t]:
                q = a[i][t] // a[t][t]
                if q:
                    ai, at = a[i], a[t]
                    for j in range(t, n):
                        ai[j] -= q * at[j]
                if a[i][t]:
                    restart = True
                    break
        if restart:
            continue
        # clear row t by column operations
        for j in range(t + 1, n):
            if a[t][j]:
                q = a[t][j] // a[t][t]
                if q:
                    for i in range(t, m):
                        a[i][j] -= q * a[i][t]
                if a[t][j]:
                    restart = True
                    break
        if restart:
            continue
        # enforce divisibility into the rest of the matrix
        bad_row = -1
        for i in range(t + 1, m):
            if any(a[i][j] % a[t][t] for j in range(t + 1, n)):
                bad_row = i
                break
        if bad_row >= 0:
            at = a[t]
            abad = a[bad_row]
            for j in range(t, n):
                at[j] += abad[j]
            continue
        factors.append(abs(a[t][t]))
        t += 1
    return tuple(factors)


def integer_rank(matrix) -> int:
    """Rank over the rationals by fraction-free (Bareiss) elimination."""
    a = [[int(v) for v in row] for row in matrix]
    m = len(a)
    n = len(a[0]) if m else 0
    rank = 0
    prev = 1
    row = 0
    for col in range(n):
        piv = -1
        for i in range(row, m):
            if a[i][col]:
                piv = i
                break
        if piv < 0:
            continue
        a[row], a[piv] = a[piv], a[row]
        p = a[row][col]
        ar = a[row]
        for i in range(row + 1, m):
            ai = a[i]
            f = ai[col]
            for j in range(col + 1, n):
                ai[j] = (ai[j] * p - f * ar[j]) // prev
            ai[col] = 0
        prev = p
        rank += 1
        row += 1
        if row == m:
            break
    return rank


def _profile(mats: BoundaryMatrices, length: int, factors_of, shift: int = 1) -> HomologyProfile:
    """Betti numbers faces_j - rank_j - rank_(j+1) and torsion in degrees 0..length-1.

    factors_of(j) returns the invariant factors of the degree-j boundary
    map, or of its transpose for cohomology (over GF(2), one 1 per pivot),
    and an empty tuple outside 1..top.  Homology takes the torsion of
    degree j from D_(j+1) (shift 1); cohomology takes it from the
    coboundary into degree j, the transpose of D_j (shift 0).
    """
    factors = [factors_of(j) for j in range(length + 2)]
    betti = tuple(mats.num_faces(j) - len(factors[j]) - len(factors[j + 1]) for j in range(length))
    torsion = tuple(tuple(d for d in factors[j + shift] if d > 1) for j in range(length))
    return HomologyProfile(betti, torsion)


def _gf2_factors(vectors) -> tuple[int, ...]:
    return (1,) * gf2_rank(vectors)


def _homology(mats: BoundaryMatrices, length: int, ring: str) -> HomologyProfile:
    if ring == GF2:
        return _profile(mats, length, lambda j: _gf2_factors(mats.gf2_column_masks(j)))
    return _profile(mats, length, lambda j: smith_normal_form(mats.dense(j)))


# Reconstruction asks for the base profile of the same skeleton once per
# candidate, and perfbench/traced.py reads cache_info() of these two memos
# for homology.memo_hit_ratio.  No path asks for a cohomology twice.
@lru_cache(maxsize=256)
def betti_gf2(c: CubicalComplex) -> HomologyProfile:
    """Non-reduced GF(2) Betti numbers in degrees 0..dim."""
    return _homology(_matrices_over(c.faces, c.ambient_dim, GF2), c.dim + 1, GF2)


@lru_cache(maxsize=256)
def homology_integer(c: CubicalComplex) -> HomologyProfile:
    """Integer homology: free ranks plus invariant factors per degree."""
    return _homology(_matrices_over(c.faces, c.ambient_dim, INTEGER), c.dim + 1, INTEGER)


def homology_profile(c: CubicalComplex, ring: str = GF2) -> HomologyProfile:
    _check_ring(ring)
    return betti_gf2(c) if ring == GF2 else homology_integer(c)


def cohomology_betti_gf2(c: CubicalComplex) -> HomologyProfile:
    """GF(2) cohomology ranks, eliminated along the transposed matrices.

    Field coefficients force equality with betti_gf2; eliminating the
    columns of D_j^T (the rows of D_j) keeps this an independent route
    rather than an alias.
    """
    mats = _matrices_over(c.faces, c.ambient_dim, GF2)
    return _profile(
        mats,
        c.dim + 1,
        lambda j: _gf2_factors(sum(1 << i for i, v in enumerate(row) if v) for row in mats.dense(j)),
    )


def cohomology_integer(c: CubicalComplex) -> HomologyProfile:
    """Integer cohomology from the coboundary (transposed) matrices.

    In degree j the torsion subgroup comes from the Smith form of the
    incoming coboundary, which is the transpose of D_j.
    """
    mats = _matrices_over(c.faces, c.ambient_dim, INTEGER)
    return _profile(mats, c.dim + 1, lambda j: smith_normal_form(list(zip(*mats.dense(j)))), shift=0)


def cohomology_profile(c: CubicalComplex, ring: str = GF2) -> HomologyProfile:
    _check_ring(ring)
    return cohomology_betti_gf2(c) if ring == GF2 else cohomology_integer(c)


def relative_profile(c: CubicalComplex, a: CubicalComplex, ring: str = GF2) -> HomologyProfile:
    """Homology of the pair (c, a) via the quotient chain complex.

    The basis is the set of faces of c outside a; boundary entries that
    land in a are dropped.  Degrees run 0..dim(c) so that pairs with a
    small difference still report a full-length profile.
    """
    _check_ring(ring)
    if a.ambient_dim != c.ambient_dim:
        raise StructuralError(f"pair lives in I^{a.ambient_dim}, expected I^{c.ambient_dim}")
    if not a.faces <= c.faces:
        raise StructuralError("second member of the pair is not a subcomplex of the first")
    rest = c.faces - a.faces
    return _homology(_matrices_over(rest, c.ambient_dim, ring), c.dim + 1, ring)

"""Chain complexes and homology of cubical complexes.

Boundary matrices are built per degree with rows indexed by (j-1)-faces
and columns by j-faces, both in canonical order.  Incidence signs follow
signed_facets: the i-th star of a face (left to right, starting at 1)
contributes (-1)**(i+1) on its ONE facet and (-1)**i on its ZERO facet.

The matrices carry no ring: they are the same sparse (index, sign)
vectors over GF(2) and over Z, and the ring only picks how a vector is
packed and the reducer that eliminates them.  GF(2) packs each vector
into an integer for `gf2_rank`, once per matrix.  A complex builds the
matrices of its whole face set once (`CubicalComplex.chains`); the
homology of a subcomplex in a few degrees is read off them by keeping
the subcomplex's columns (`_kept_degrees`).

Every integer elimination (homology, cohomology, relative
homology and `integer_rank`) goes through one sparse reducer,
`_invariant_factors`.  It first eliminates unit (+-1) pivots: each one
is a unimodular row and column operation that contributes an invariant
factor 1 and leaves the Schur complement, one row and one column
smaller.  Only the remainder without unit entries, which is small on
boundary matrices, is densified and handed to `smith_normal_form` (cf.
Kaczynski-Mischaikow-Mrozek, *Computational Homology*, 2004;
Dumas-Saunders-Villard on sparse integer Smith forms).  Arithmetic is
exact Python integers, so entry growth is handled by arbitrary precision
and there is no overflow path to detect.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, lru_cache

from .complex import CubicalComplex, _require_subcomplex
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
    "cohomology_profile",
    "relative_profile",
]

GF2 = "gf2"
INTEGER = "int"


def _check_ring(ring: str) -> None:
    if ring not in _RINGS:
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

    def __init__(self, levels, columns):
        self.levels = levels        # levels[j]: j-faces, canonical order
        self.columns = columns      # columns[j][c]: list of (row, sign), j >= 1
        self._packed: dict[str, list] = {}  # ring -> columns packed for its reducer

    @property
    def top(self) -> int:
        return len(self.levels) - 1

    def num_faces(self, j: int) -> int:
        if 0 <= j <= self.top:
            return len(self.levels[j])
        return 0

    def sparse_columns(self, j: int) -> list[list[tuple[int, int]]]:
        """Columns of D_j as (row, sign) lists; empty outside 1..top."""
        if not 1 <= j <= self.top:
            return []
        return self.columns[j]

    def packed_columns(self, j: int, ring: str) -> list:
        """Columns of D_j packed for the ring's reducer; each ring packs them once per instance."""
        if not 1 <= j <= self.top:
            return []
        packed = self._packed.get(ring)
        if packed is None:
            pack = _RINGS[ring][0]
            packed = self._packed[ring] = [[pack(col) for col in cols] for cols in self.columns]
        return packed[j]

    def sparse_rows(self, j: int) -> list[list[tuple[int, int]]]:
        """Rows of D_j as (column, sign) lists: the columns of its transpose."""
        if not 1 <= j <= self.top:
            return []
        rows: list[list[tuple[int, int]]] = [[] for _ in self.levels[j - 1]]
        for ci, col in enumerate(self.columns[j]):
            for r, s in col:
                rows[r].append((ci, s))
        return rows

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
        """Assert D_j composed with D_(j+1) vanishes over Z, hence over GF(2)."""
        for j in range(2, self.top + 1):
            lower = self.columns[j - 1]
            for col in self.columns[j]:
                acc: dict[int, int] = {}
                for mid, s1 in col:
                    for r, s2 in lower[mid]:
                        acc[r] = acc.get(r, 0) + s1 * s2
                for r, v in acc.items():
                    if v:
                        raise AssertionError(f"boundary of boundary nonzero at degree {j}, row {r}")


def _matrices_over(face_set) -> BoundaryMatrices:
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
    return BoundaryMatrices(levels, columns)


def boundary_matrices(c: CubicalComplex) -> BoundaryMatrices:
    return c.chains


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
    """Invariant factors d_1 | d_2 | ... of a dense integer matrix.

    The library calls this only on the remainder that `_invariant_factors`
    leaves after eliminating unit pivots.  Smallest-absolute-pivot
    selection keeps entries from growing; the remainder-swap steps
    strictly shrink the pivot, so the loop always terminates with a full
    divisibility chain.
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


def _invariant_factors(columns) -> tuple[int, ...]:
    """Invariant factors of the matrix whose columns are (row, value) lists.

    Values are nonzero and a row appears at most once per column.  While
    some column holds a unit entry, take the one whose row has the fewest
    nonzeros (columns in index order, passes until no unit is left), clear
    its row by column operations and drop the pivot's row and column: the
    Schur complement.  Each such step adds one factor 1.  The rest is
    handed to the dense `smith_normal_form`.
    """
    cols = [dict(col) for col in columns]
    rows: dict[int, set[int]] = {}
    for c, col in enumerate(cols):
        for r in col:
            rows.setdefault(r, set()).add(c)
    units = 0
    progress = True
    while progress:
        progress = False
        for c, col in enumerate(cols):
            pivots = [r for r, v in col.items() if v == 1 or v == -1]
            if not pivots:
                continue
            r = min(pivots, key=lambda i: len(rows[i]))
            u = col.pop(r)
            for r2 in col:
                rows[r2].discard(c)
            others = rows.pop(r)
            others.discard(c)
            for c2 in others:
                col2 = cols[c2]
                f = col2.pop(r) * u
                for r2, v in col.items():
                    w = col2.get(r2, 0) - f * v
                    if w:
                        if r2 not in col2:
                            rows[r2].add(c2)
                        col2[r2] = w
                    elif r2 in col2:
                        del col2[r2]
                        rows[r2].discard(c2)
            col.clear()
            units += 1
            progress = True
    live_rows = sorted(r for r, cs in rows.items() if cs)
    live_cols = [col for col in cols if col]
    remainder = [[col.get(r, 0) for col in live_cols] for r in live_rows]
    return (1,) * units + smith_normal_form(remainder)


def integer_rank(matrix) -> int:
    """Rank over the rationals of a dense integer matrix.

    The number of its invariant factors, from the same unit-pivot
    elimination and dense remainder as integer homology.
    """
    a = [[int(v) for v in row] for row in matrix]
    n = len(a[0]) if a else 0
    if any(len(row) != n for row in a):
        raise StructuralError("ragged matrix")
    return len(_invariant_factors([[(i, row[j]) for i, row in enumerate(a) if row[j]] for j in range(n)]))


def _degrees(faces_of, factors_of, degrees, shift: int = 1) -> dict[int, tuple[int, tuple[int, ...]]]:
    """(Betti number, torsion) per degree j: faces_j - rank_j - rank_(j+1), factors above 1.

    faces_of(j) counts the j-faces; factors_of(j) returns the invariant
    factors of the degree-j boundary map, or of its transpose for
    cohomology (over GF(2), one 1 per pivot), and an empty tuple outside
    1..top.  Each map is reduced once, also when two degrees share it.
    Homology takes the torsion of degree j from D_(j+1) (shift 1);
    cohomology takes it from the coboundary into degree j, the transpose
    of D_j (shift 0).
    """
    factors = {i: factors_of(i) for i in sorted({i for j in degrees for i in (j, j + 1)})}
    return {
        j: (faces_of(j) - len(factors[j]) - len(factors[j + 1]), tuple(d for d in factors[j + shift] if d > 1))
        for j in degrees
    }


def _profile(mats: BoundaryMatrices, length: int, factors_of, shift: int = 1) -> HomologyProfile:
    """The profile of every face of mats in degrees 0..length-1 (see _degrees)."""
    groups = _degrees(mats.num_faces, factors_of, range(length), shift)
    return HomologyProfile(
        tuple(groups[j][0] for j in range(length)), tuple(groups[j][1] for j in range(length))
    )


def _pack_gf2(vector) -> int:
    """A sparse (index, value) vector over GF(2) as an int, bit i for index i."""
    return sum(1 << i for i, _ in vector)


def _gf2_factors(packed) -> tuple[int, ...]:
    """One factor 1 per GF(2) pivot of vectors packed as ints."""
    return (1,) * gf2_rank(packed)


# The ring picks the packing and the reducer, never the matrix: pack turns
# one sparse (index, value) vector into what reduce takes, and reduce
# returns the invariant factors of the matrix made of such vectors.
_RINGS = {GF2: (_pack_gf2, _gf2_factors), INTEGER: (lambda vector: vector, _invariant_factors)}


def _homology(mats: BoundaryMatrices, length: int, ring: str) -> HomologyProfile:
    reduce = _RINGS[ring][1]
    return _profile(mats, length, lambda j: reduce(mats.packed_columns(j, ring)))


def _kept_degrees(mats: BoundaryMatrices, kept, degrees, ring: str) -> dict[int, tuple[int, tuple[int, ...]]]:
    """Homology in the given degrees of the subcomplex on the faces in `kept`, from its host's matrices.

    A subcomplex holds every facet of its faces, so its D_j is the
    host's D_j restricted to the kept j-faces: columns only, as the
    rows those columns reach are kept faces and every other row is zero
    there.  The host's packed columns are reused, and only the maps of
    the requested degrees and the ones above them are reduced.
    """
    reduce = _RINGS[ring][1]

    @cache
    def kept_at(j: int) -> list[int]:
        if not 0 <= j <= mats.top:
            return []
        return [i for i, w in enumerate(mats.levels[j]) if w in kept]

    def factors_of(j: int) -> tuple[int, ...]:
        packed = mats.packed_columns(j, ring)
        return reduce([packed[i] for i in kept_at(j)] if packed else [])

    return _degrees(lambda j: len(kept_at(j)), factors_of, degrees)


# Reconstruction asks for the base profile of the same skeleton once per
# candidate, so these two memos now hold only the base of each degree
# (the candidates' deleted complexes are judged by _kept_degrees).  They
# stay because perfbench/traced.py reads their cache_info() for
# homology.memo_hit_ratio until the benchmark records spans itself
# (ROADMAP item 1).  No path asks for a cohomology twice.
@lru_cache(maxsize=256)
def betti_gf2(c: CubicalComplex) -> HomologyProfile:
    """Non-reduced GF(2) Betti numbers in degrees 0..dim."""
    return _homology(c.chains, c.dim + 1, GF2)


@lru_cache(maxsize=256)
def homology_integer(c: CubicalComplex) -> HomologyProfile:
    """Integer homology: free ranks plus invariant factors per degree."""
    return _homology(c.chains, c.dim + 1, INTEGER)


def homology_profile(c: CubicalComplex, ring: str = GF2) -> HomologyProfile:
    _check_ring(ring)
    return betti_gf2(c) if ring == GF2 else homology_integer(c)


def cohomology_profile(c: CubicalComplex, ring: str = GF2) -> HomologyProfile:
    """Cohomology from the coboundaries D_j^T, whose columns are the rows of D_j.

    In degree j the torsion subgroup comes from the invariant factors of
    the incoming coboundary, the transpose of D_j.  Over GF(2) the ranks
    must equal those of `betti_gf2`; eliminating the transposed matrices
    keeps this an independent route rather than an alias.
    """
    _check_ring(ring)
    mats = c.chains
    pack, reduce = _RINGS[ring]
    return _profile(mats, c.dim + 1, lambda j: reduce([pack(row) for row in mats.sparse_rows(j)]), shift=0)


def relative_profile(c: CubicalComplex, a: CubicalComplex, ring: str = GF2) -> HomologyProfile:
    """Homology of the pair (c, a) via the quotient chain complex.

    The basis is the set of faces of c outside a; boundary entries that
    land in a are dropped.  Degrees run 0..dim(c) so that pairs with a
    small difference still report a full-length profile.
    """
    _check_ring(ring)
    _require_subcomplex(c, a, "second member of the pair")
    return _homology(_matrices_over(c.faces - a.faces), c.dim + 1, ring)

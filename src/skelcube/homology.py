"""Chain complexes and homology of cubical complexes.

Boundary matrices are built per degree with rows indexed by (j-1)-faces
and columns by j-faces, both in canonical order.  Incidence signs follow
signed_facets: the i-th star of a face (left to right, starting at 1)
contributes (-1)**(i+1) on its ONE facet and (-1)**i on its ZERO facet.

The matrices carry no ring: they are the same sparse (index, sign)
vectors over GF(2) and over Z, and the ring only picks the routine that
reads a map.  One builder makes them all: `BoundaryMatrices.extended`
adds a level of columns on top, and `_matrices_over` folds it over the
levels of a face set, giving a facet outside the set no row.  A complex
builds the matrices of its whole face set once (`CubicalComplex.chains`),
and a complex grown by one level extends them.  A subcomplex's homology
in a few degrees uses the subcomplex's columns.  The faces of c outside
a subcomplex are closed upward, so the quotient matrices of a pair
(`relative_profile`) are the matrices built over those faces, and so
are the integer ones at an open star (`manifold.local_profile`); over
GF(2) that quotient is read as the chain complex of a link, with no
matrix built.  `_groups` is the one ranks-to-Betti formula, read by
`_homology` and by the link, and cohomology follows from homology by
universal coefficients.

Over GF(2) each matrix is eliminated once (`gf2_elimination`): column
reduction packs each column into an int and records rank D_j and a
kernel basis Z_j, fully reduced as it comes: the top bit of each
vector, its pivot, lies in no other vector.  Keeping only the columns
K of D_j, with S the rest, rank(D_j|K) = rank D_j - |S| + rank(Z_j|S)
by rank-nullity.  With P the pivots, each pivot in S is a unit column
of Z_j|S, so rank(Z_j|S) = |S & P| + rank(Y), where Y holds, for each
non-pivot column in S, the pivots outside S of the vectors holding it.
The first mask read of a map builds its table of those pivots by
column (`gf2_reduced_kernel`), so a kept set costs one pass over its
non-pivot columns and one `gf2_rank` of Y, which is small when S is a
local deletion.  With nothing deleted the correction is zero, and the
same route serves absolute and relative homology.  A complex grown by
one level carries up the levels, eliminations and tables below it.

Only `_homology` reads a kept set: per map it takes the mask of S
(`columns_outside`: one byte per face, read in C with no table) and
counts faces from it, and either ring reads the map through that
mask.  Over Z the masked columns are dropped and the rest reduced, as
the integer reconstruction mode compares torsion, which ranks do not give.
Every integer elimination (homology, relative homology and
`integer_rank`) goes through one sparse reducer, `_invariant_factors`.
It first eliminates unit (+-1) pivots: each one is a unimodular row and
column operation that contributes an invariant factor 1 and leaves the
Schur complement, one row and one column smaller.  Only the remainder
without unit entries, which is small on boundary matrices, is densified
and handed to `smith_normal_form`, one loop over least-absolute-value
pivots (cf. Kaczynski-Mischaikow-Mrozek, *Computational Homology*,
2004; Dumas-Saunders-Villard on sparse integer Smith forms).  Arithmetic
is exact Python integers, so entry growth is handled by arbitrary
precision and there is no overflow path to detect.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import compress, count

from .complex import CubicalComplex, _require_subcomplex
from .errors import ContractError, StructuralError, _Record
from .words import signed_facets, sort_words, word_dim

__all__ = [
    "GF2",
    "INTEGER",
    "HomologyProfile",
    "BoundaryMatrices",
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

# columns_outside reads membership in kept as bytes 1 and 0; this table
# spells them as binary digits of the deleted columns, 0 and 1
_OUTSIDE = bytes.maketrans(b"\x00\x01", b"10")


def _check_ring(ring: str) -> None:
    if ring not in _RINGS:
        raise ContractError(f"ring must be {GF2!r} or {INTEGER!r}, got {ring!r}")


class HomologyProfile(_Record):
    """Betti numbers and invariant factors per degree.

    betti[j] is the free rank over the chosen ring; torsion[j] lists the
    invariant factors exceeding 1 (always empty over GF(2)).  Degrees
    outside the stored range, including negative ones, are zero groups.
    """

    _fields = ("betti", "torsion")

    def __init__(self, betti: tuple[int, ...], torsion: tuple[tuple[int, ...], ...]):
        self.__dict__.update(betti=betti, torsion=torsion)

    def degree(self, j: int) -> tuple[int, tuple[int, ...]]:
        if 0 <= j < len(self.betti):
            return self.betti[j], self.torsion[j]
        return 0, ()


class BoundaryMatrices:
    """Signed boundary matrices over a set of faces, one per degree.

    Built only by `extended`, one level at a time (`_matrices_over`),
    for a complex (`CubicalComplex.chains`), a grown complex and the
    quotient of a pair alike.
    """

    def __init__(self, levels, columns):
        self.levels = levels        # levels[j]: j-faces, canonical order
        self.columns = columns      # columns[j][c]: list of (row, sign), j >= 1
        self._eliminated: dict[int, tuple[int, tuple[int, ...]]] = {}
        self._covers: dict[int, tuple[int, list[int]]] = {}

    @property
    def top(self) -> int:
        return len(self.levels) - 1

    def num_faces(self, j: int) -> int:
        if 0 <= j <= self.top:
            return len(self.levels[j])
        return 0

    def gf2_elimination(self, j: int) -> tuple[int, tuple[int, ...]]:
        """Rank of D_j over GF(2) and a basis of its kernel, from one column reduction per matrix.

        Kernel vectors are ints over column indices, bit c for column c;
        the basis is fully reduced (`_gf2_eliminate`).
        Outside degrees 1..top there is no matrix: rank 0, no basis.
        """
        if not 1 <= j <= self.top:
            return 0, ()
        got = self._eliminated.get(j)
        if got is None:
            got = self._eliminated[j] = _gf2_eliminate([sum(1 << r for r, _ in col) for col in self.columns[j]])
        return got

    def gf2_reduced_kernel(self, j: int) -> tuple[int, list[int]]:
        """The fully reduced kernel basis of D_j read by column, as (pivots, cover), built once per matrix.

        pivots is the mask of the basis vectors' top bits, each of which
        lies in its own vector only (`gf2_elimination`).  cover[q] is the
        mask of the pivots of the vectors holding the non-pivot column q:
        0 when none does, and at a pivot.  Outside degrees 1..top there
        is no kernel.
        """
        if not 1 <= j <= self.top:
            return 0, []
        got = self._covers.get(j)
        if got is None:
            got = self._covers[j] = _kernel_cover(self.gf2_elimination(j)[1], len(self.levels[j]))
        return got

    def columns_outside(self, j: int, kept) -> int:
        """The j-faces not in kept, as a mask over column indices; none when kept is None.

        One byte per face of the level, 0 or 1 for its membership in
        kept, spelt as a binary numeral and read by `int`: every pass
        runs in C, and no table of bits is kept.
        """
        if kept is None or not self.num_faces(j):
            return 0
        return int(bytes(map(kept.__contains__, self.levels[j])).translate(_OUTSIDE)[::-1], 2)

    def extended(self, words) -> "BoundaryMatrices":
        """These matrices with one level added on top: `words`, faces one dimension above the top.

        Rows are the top level's faces, looked up in a dict of that level
        built here, and a facet outside it gets none.  The lower levels,
        their GF(2) eliminations and their reduced kernels are shared.
        """
        level = sort_words(words)
        below = {w: i for i, w in enumerate(self.levels[-1])} if self.levels else {}
        columns = [[(below[f], s) for f, s in signed_facets(w) if f in below] for w in level]
        grown = BoundaryMatrices(self.levels + [level], self.columns + [columns])
        grown._eliminated.update(self._eliminated)
        grown._covers.update(self._covers)
        return grown

    def dense(self, j: int) -> list[list[int]]:
        if not 1 <= j <= self.top:
            return []
        m = len(self.levels[j - 1])
        out = [[0] * len(self.columns[j]) for _ in range(m)]
        for ci, col in enumerate(self.columns[j]):
            for r, s in col:
                out[r][ci] = s
        return out


def _matrices_over(face_set) -> BoundaryMatrices:
    """The matrices of face_set, one `extended` per level from none; facets outside face_set get no row."""
    top = max((word_dim(w) for w in face_set), default=-1)
    levels = [[] for _ in range(top + 1)]
    for w in face_set:
        levels[word_dim(w)].append(w)
    return reduce(BoundaryMatrices.extended, levels, BoundaryMatrices([], []))


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


def _gf2_eliminate(columns) -> tuple[int, tuple[int, ...]]:
    """Rank and a kernel basis of the GF(2) matrix whose columns are packed as ints.

    Column reduction that also tracks, as a mask, the columns each
    reduced column is the sum of: a column reducing to zero names a
    kernel vector (Edelsbrunner-Harer, *Computational Topology*, 2010,
    ch. VII).  The kernel vectors are independent, as the one of column
    c is the only one whose highest bit is c, its pivot.  The basis is
    fully reduced as it comes: a reduced column is summed only with
    columns that stayed nonzero, whose masks hold such columns alone,
    so no pivot lies in another kernel vector.
    """
    pivots: dict[int, tuple[int, int]] = {}
    kernel = []
    for c, v in enumerate(columns):
        sums = 1 << c
        while v:
            h = v.bit_length() - 1
            hit = pivots.get(h)
            if hit is None:
                pivots[h] = (v, sums)
                break
            v ^= hit[0]
            sums ^= hit[1]
        else:
            kernel.append(sums)
    return len(pivots), tuple(kernel)


def _kernel_cover(kernel, width: int) -> tuple[int, list[int]]:
    """(pivots, cover) of a kernel basis from `_gf2_eliminate` over `width` columns (see `gf2_reduced_kernel`)."""
    pivots = 0
    cover = [0] * width
    for z in kernel:
        bit = 1 << (z.bit_length() - 1)
        pivots |= bit
        rest = z ^ bit
        while rest:
            q = rest.bit_length() - 1
            cover[q] |= bit
            rest ^= 1 << q
    return pivots, cover


def smith_normal_form(matrix) -> tuple[int, ...]:
    """Invariant factors d_1 | d_2 | ... of a dense integer matrix, by one pivot loop.

    The pivot is an entry of least absolute value (ties by row, then
    column).  Reducing its row and column by it leaves remainders smaller
    than it; a nonzero one is the next pivot.  Else a row with an entry
    the pivot does not divide is added to the pivot's row, and reducing
    again leaves such a remainder.  Else |pivot| divides all that is
    left, hence every later factor: it is recorded and its row and
    column go.  Each pass drops a row and a column or shrinks |pivot|.
    """
    a = [[int(v) for v in row] for row in matrix]
    if any(len(row) != len(a[0]) for row in a):
        raise StructuralError("ragged matrix")
    factors: list[int] = []
    pivot = None
    while a:
        if pivot is None:
            live = [(abs(v), i, j) for i, row in enumerate(a) for j, v in enumerate(row) if v]
            if not live:
                break
            pivot = min(live)[1:]
        r, c = pivot
        top, p = a[r], a[r][c]
        for row in a:
            if row is not top and row[c]:
                q = row[c] // p
                row[:] = [v - q * t for v, t in zip(row, top)]
        for j, t in enumerate(top):
            if j != c and t:
                q = t // p
                for row in a:
                    row[j] -= q * row[c]
        pivot = None
        if any(row[c] for row in a if row is not top) or any(top[:c] + top[c + 1 :]):
            continue
        bad = next((row for row in a if any(v % p for v in row)), None)
        if bad is not None:
            top[:] = [t + v for t, v in zip(top, bad)]
            pivot = (r, c)
            continue
        factors.append(abs(p))
        a = [row[:c] + row[c + 1 :] for row in a if row is not top]
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
    rows = list(matrix)
    n = len(rows[0]) if rows else 0
    if any(len(row) != n for row in rows):
        raise StructuralError("ragged matrix")
    # compress picks each column's nonzero rows in C
    return len(_invariant_factors([[(i, int(col[i])) for i in compress(count(), col)] for col in zip(*rows)]))


def _gf2_map(mats: BoundaryMatrices, i: int, deleted: int) -> tuple[int, tuple[int, ...]]:
    """(rank of D_i, torsion) over GF(2) without the columns in the mask `deleted`, by rank-nullity.

    With S the deleted columns of D_i and Z a basis of its kernel,
    rank(D_i|K) = rank D_i - |S| + rank(Z|S): the kernel of D_i|K is the
    part of ker D_i vanishing on S.  Z is mats' fully reduced basis, with
    P the mask of its pivots.  A pivot in S is a unit column of Z|S, and
    the other columns of S count only on the vectors whose pivot is not
    in S, so rank(Z|S) = |S & P| + rank(Y), where Y holds for each
    non-pivot q in S the pivots outside S of the vectors holding q.
    """
    rank = mats.gf2_elimination(i)[0]
    if deleted and i >= 1:  # D_0 is the zero map whatever is deleted
        pivots, cover = mats.gf2_reduced_kernel(i)
        outside = pivots & ~deleted
        # the deleted non-pivot columns, read off the binary numeral of
        # their mask written backwards, so that index q is bit q
        digits, y = bin(deleted & ~pivots)[:1:-1], []
        q = digits.find("1")
        while q >= 0:
            y.append(cover[q] & outside)
            q = digits.find("1", q + 1)
        rank += (deleted & pivots).bit_count() + gf2_rank(y) - deleted.bit_count()
    return rank, ()


def _integer_map(mats: BoundaryMatrices, i: int, deleted: int) -> tuple[int, tuple[int, ...]]:
    """(rank of D_i, invariant factors above 1) over Z without the columns in the mask `deleted`."""
    columns = mats.columns[i] if 1 <= i <= mats.top else []
    if deleted:
        columns = [col for c, col in enumerate(columns) if not deleted >> c & 1]
    factors = _invariant_factors(columns)
    return len(factors), tuple(d for d in factors if d > 1)


# the ring picks the routine that reads one boundary map through a mask of deleted columns
_RINGS = {GF2: _gf2_map, INTEGER: _integer_map}


def _homology(mats: BoundaryMatrices, ring: str, degrees, kept=None) -> dict[int, tuple[int, tuple[int, ...]]]:
    """(Betti number, torsion) per degree j: faces_j - rank D_j - rank D_(j+1), factors above 1.

    The torsion of degree j is that of D_(j+1).  With `kept` given, the
    answer is for the faces of mats in `kept`, which must hold every
    facet of its faces: its D_j is mats' D_j restricted to the kept
    j-faces, columns only, as the rows those columns reach are kept
    faces and every other row is zero there.  Without it every face is
    kept.  Each map is read once, also when two degrees share it, and
    the ring's reader sees only the mask of its deleted columns.
    """
    read = _RINGS[ring]
    faces: dict[int, int] = {}
    rank: dict[int, int] = {}
    torsion: dict[int, tuple[int, ...]] = {}
    for i in sorted({i for j in degrees for i in (j, j + 1)}):
        deleted = mats.columns_outside(i, kept)
        faces[i] = mats.num_faces(i) - deleted.bit_count()
        rank[i], torsion[i] = read(mats, i, deleted)
    return _groups(faces, rank, torsion, degrees)


def _groups(faces, rank, torsion, degrees) -> dict[int, tuple[int, tuple[int, ...]]]:
    """The one ranks-to-Betti formula: (faces_j - rank D_j - rank D_(j+1), torsion of D_(j+1)) per degree j.

    faces, rank and torsion are indexed by degree and hold j and j+1
    for every j in degrees.
    """
    return {j: (faces[j] - rank[j] - rank[j + 1], torsion[j + 1]) for j in degrees}


def _as_profile(groups: dict[int, tuple[int, tuple[int, ...]]]) -> HomologyProfile:
    """The profile of (Betti number, torsion) groups given for degrees 0, 1, ... in order."""
    return HomologyProfile(tuple(betti for betti, _ in groups.values()), tuple(t for _, t in groups.values()))


def _profile(mats: BoundaryMatrices, length: int, ring: str) -> HomologyProfile:
    """The homology of every face of mats in degrees 0..length-1."""
    return _as_profile(_homology(mats, ring, range(length)))


# Reconstruction asks for the base profile of the same skeleton once per
# candidate, so these two memos now hold only the base of each degree
# (the candidates' deleted complexes are judged by _homology over the
# base's own matrices).  They stay because perfbench/traced.py reads
# their cache_info() for homology.memo_hit_ratio until the benchmark
# records spans itself (ROADMAP item 1).  Cohomology reads them too.
@lru_cache(maxsize=256)
def betti_gf2(c: CubicalComplex) -> HomologyProfile:
    """Non-reduced GF(2) Betti numbers in degrees 0..dim."""
    return _profile(c.chains, c.dim + 1, GF2)


@lru_cache(maxsize=256)
def homology_integer(c: CubicalComplex) -> HomologyProfile:
    """Integer homology: free ranks plus invariant factors per degree."""
    return _profile(c.chains, c.dim + 1, INTEGER)


def homology_profile(c: CubicalComplex, ring: str = GF2) -> HomologyProfile:
    _check_ring(ring)
    return betti_gf2(c) if ring == GF2 else homology_integer(c)


def cohomology_profile(c: CubicalComplex, ring: str = GF2) -> HomologyProfile:
    """Cohomology by universal coefficients, from `homology_profile`.

    H^j has the free rank of H_j and the torsion of H_(j-1), none in
    degree 0: the coboundary into degree j is the transpose of D_j,
    which has the invariant factors of D_j (Kaczynski-Mischaikow-Mrozek,
    *Computational Homology*, 2004).  Over GF(2) there is no torsion, so
    cohomology and homology agree.
    """
    h = homology_profile(c, ring)
    return HomologyProfile(h.betti, tuple(h.degree(j - 1)[1] for j in range(len(h.betti))))


def relative_profile(c: CubicalComplex, a: CubicalComplex, ring: str = GF2) -> HomologyProfile:
    """Homology of the pair (c, a) via the quotient chain complex, in degrees 0..dim(c).

    The faces of c outside the subcomplex a are closed upward, so the
    quotient matrices are those built over them, where a facet in a
    gets no row.  Either member lacking a facet of one of its faces
    would leave no chain complex there, so both are validated.
    """
    _check_ring(ring)
    _require_subcomplex(c, a, "second member of the pair")
    c.validate()
    a.validate()
    return _profile(_matrices_over(c.faces - a.faces), c.dim + 1, ring)

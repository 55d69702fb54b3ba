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
and a complex grown by one level extends them.  Deleting the open star
of some vertices keeps a closed set whose matrices are the complex's
restricted to the kept columns: `BoundaryMatrices.without` gives them
as a view, and a view of a view cuts both stars from the same host.
The faces of c outside a subcomplex are closed upward, so the quotient
matrices of a pair (`relative_profile`) are those built over them.  The
local GF(2) profile at a face, whose pair leaves out an open star, is
read as the chain complex of a link instead (`manifold.local_profile`),
with no matrix built.  `_groups` is the one ranks-to-Betti formula,
read by `_homology` and by the link, and cohomology follows from
homology by universal coefficients.

One function reads a map, over either ring: `_read(mats, ring, j)`.  It
takes the matrices level j is read from and the mask of their columns
left out (`BoundaryMatrices.source`): none for whole matrices, the
deleted stars' for a view made by `without`.  With none it makes the
one pass both rings share, the only writer of its cache: per level
(rank, torsion, the `compress` selectors of the columns below off its
pivot rows), carried up with the levels when a complex grows.  Maps are
read from the top degree down and cleared: the twist of Chen-Kerber
("Persistent homology computation with a twist", EuroCG 2011) and
Bauer-Kerber-Reininghaus ("Clear and compress", 2014).  A pass over D_j
first reads D_(j+1), then hands the ring's elimination (`gf2_rank` on
columns packed into ints, or `_invariant_factors`) the columns of D_j
off D_(j+1)'s pivot rows (`BoundaryMatrices._cleared`), and keeps the
rows it marks as D_j's.  Over GF(2) they are the top bits of the basis:
a basis vector b with top bit r is a boundary, so D_j b = 0 makes column
r of D_j a sum of columns of lower index, and by induction on r a sum of
kept ones, so the rank stays.  Over Z they are the rows of the unit
pivots that `_invariant_factors` eliminates.  These pivots lie in a
square block U of D_(j+1), on rows R and columns C, with det +-1, the
product of the pivots.  D_j D_(j+1) = 0 then gives D_j's columns at R
as -D_j[:, not R] D_(j+1)[not R, C] U^-1, integer combinations of the
kept columns: the column lattice stays, and with it the invariant
factors.  About half the columns are skipped; on a full cube every kept
column brings a new pivot.  A level that `extended` adds later clears
nothing already cached: the levels below keep the reads made before it.

Through a mask the ring's masked reader reads the map, uncleared.  Over
GF(2) (`_gf2_map`), keeping only the columns K of D_j, with S the rest,
rank(D_j|K) = rank D_j - |S| + rank(Z_j|S) by rank-nullity, for Z_j a
kernel basis.  Column reduction finds Z_j fully reduced: the top bit of
each vector, its pivot, lies in no other vector.  With P the pivots,
each pivot in S is a unit column of Z_j|S, so rank(Z_j|S) = |S & P| +
rank(Y), where Y holds, for each non-pivot column in S, the pivots
outside S of the vectors holding it.  The first mask read of a map
builds only that table of pivots by column (`_kernel_table`), folding
in each kernel vector as it is found, so no basis is kept.  A view then
costs a C-level pick of S's non-pivot columns and one `gf2_rank` of Y,
small for a local S.  Over Z (`_integer_map`) the masked columns are
dropped and the rest reduced, as the integer reconstruction mode
compares torsion.

A view finds S per level from its host level's letter masks, built once
(`words.letter_masks`): the faces with letter 0 and with letter 1 at
each coordinate where the level's words differ.  A face misses a vertex
where a coordinate holds the opposite letter, so the faces meeting a
face's vertices are all but an OR of masks over its fixed coordinates
(`words.meeting`).

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

from functools import cached_property, lru_cache, reduce
from itertools import compress, count

from .complex import CubicalComplex, _require_subcomplex
from .errors import ContractError, StructuralError, _Record
from .words import letter_masks, meeting, signed_facets, sort_words, spanned_faces, word_dim

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

# a mask's binary digits as bytes 0 and 1, and marked pivot rows as 0s among 1s: selectors of itertools.compress
_SELECT = bytes.maketrans(b"01", b"\x00\x01")
_FLIP = bytes.maketrans(b"\x00\x01", b"\x01\x00")


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
    quotient of a pair alike.  Unmasked reads clear each map by the one
    above, which holds only because D_j D_(j+1) = 0 for such matrices.
    """

    def __init__(self, levels, columns):
        self.levels = levels        # levels[j]: j-faces, canonical order
        self.columns = columns      # columns[j][c]: list of (row, sign), j >= 1
        self._reads: dict[tuple[str, int], tuple[int, tuple[int, ...], bytearray]] = {}  # (ring, j): rank, torsion, rows kept below
        self._tables: dict[int, tuple[int, list[int]]] = {}
        self._letters: dict[int, tuple] = {}

    @property
    def top(self) -> int:
        return len(self.levels) - 1

    def num_faces(self, j: int) -> int:
        """The j-faces held: those of the level read (`source`) but the columns left out."""
        whole, deleted = self.source(j)
        return (len(whole.levels[j]) if 0 <= j <= whole.top else 0) - deleted.bit_count()

    def _cleared(self, ring: str, j: int):
        """The columns of D_j, in order, but those at the pivot rows of D_(j+1) as read over `ring`: all above the top.

        Each skipped column is a sum of kept ones (see the module
        docstring), so the rank and the invariant factors stay.
        """
        got = self._reads.get((ring, j + 1))
        return compress(self.columns[j], got[2]) if got else self.columns[j]

    def _kernel_table(self, j: int) -> tuple[int, list[int]]:
        """A fully reduced kernel basis of D_j read by column, as (pivots, cover), built once per matrix.

        pivots is the mask of the basis vectors' top bits, each of which
        lies in its own vector only.  cover[q] is the mask of the pivots
        of the vectors holding the non-pivot column q: 0 when none does,
        and at a pivot.  The basis itself is not kept (`_gf2_table`).
        """
        got = self._tables.get(j)
        if got is None:
            got = self._tables[j] = _gf2_table(self.columns[j])
        return got

    def source(self, j: int) -> tuple["BoundaryMatrices", int]:
        """The matrices level j is read from and the mask of their columns left out: these and none."""
        return self, 0

    def without(self, vertices) -> "BoundaryMatrices":
        """A view of these matrices and their tables in which every reader sees only the faces holding none of `vertices`."""
        return _Without(self, spanned_faces(vertices))

    def _meeting(self, j: int, faces) -> int:
        """The mask of the j-faces meeting one of `faces` (`words.meeting`), by the level's letter masks, built once."""
        width = self.num_faces(j)
        if not width or not faces:
            return 0
        got = self._letters.get(j)
        if got is None:
            got = self._letters[j] = letter_masks(self.levels[j])
        return meeting(got, faces) & ((1 << width) - 1)

    def extended(self, words) -> "BoundaryMatrices":
        """These matrices with one level added on top: `words`, faces one dimension above the top.

        Rows are the top level's faces, looked up in a dict of that level
        built here, and a facet outside it gets none.  The lower levels,
        their reads over both rings, reduced kernel tables and letter
        masks are shared.
        """
        level = sort_words(words)
        below = {w: i for i, w in enumerate(self.levels[-1])} if self.levels else {}
        columns = [[(below[f], s) for f, s in signed_facets(w) if f in below] for w in level]
        grown = BoundaryMatrices(self.levels + [level], self.columns + [columns])
        grown._reads.update(self._reads)
        grown._tables.update(self._tables)
        grown._letters.update(self._letters)
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


class _Without(BoundaryMatrices):
    """`whole`'s matrices without the faces meeting one of `faces` (`BoundaryMatrices.without`).

    A closed set minus an open star is closed, so the kept D_j is whole's
    restricted to the kept columns, and a view of a view is whole's
    without both stars (`without`).  Reads take each level's deleted mask
    alone (`source`); levels are built only when read, a deletion's face
    set is frozen from them (`CubicalComplex.faces`), and columns are
    built over them as a complex's are.
    """

    def __init__(self, whole: BoundaryMatrices, faces):
        self._whole, self._faces, self._deleted = whole, faces, {}
        self._reads, self._tables, self._letters = {}, {}, {}

    def without(self, vertices) -> BoundaryMatrices:
        """The same host's matrices without this view's faces and those holding one of `vertices`."""
        return _Without(self._whole, self._faces + spanned_faces(vertices))

    def source(self, j: int) -> tuple[BoundaryMatrices, int]:
        got = self._deleted.get(j)
        if got is None:
            got = self._deleted[j] = self._whole._meeting(j, self._faces)
        return self._whole, got

    @cached_property
    def levels(self) -> list[list[str]]:
        """The kept faces per level, in whole's order, up to the top level holding one."""
        kept = [list(_outside(level, self.source(j)[1])) for j, level in enumerate(self._whole.levels)]
        while kept and not kept[-1]:
            kept.pop()
        return kept

    @cached_property
    def columns(self) -> list[list[list[tuple[int, int]]]]:
        """The columns of the kept faces, built from them (`extended`), as a complex's are from its own."""
        return reduce(BoundaryMatrices.extended, self.levels, BoundaryMatrices([], [])).columns


def _outside(items, mask: int):
    """An iterator over the items of a sequence but those at the set bits of mask, in order, picked in C."""
    return compress(items, _selectors(((1 << len(items)) - 1) & ~mask))


def _selectors(mask: int) -> bytes:
    """One byte per bit of a nonnegative mask, 1 where it is set, bit 0 first: selectors for itertools.compress."""
    return bin(mask)[:1:-1].encode().translate(_SELECT)


def _matrices_over(face_set) -> BoundaryMatrices:
    """The matrices of any iterable of faces, grouped by dimension in one walk, one `extended` per level; outside facets get no row."""
    by_dim: dict[int, list[str]] = {}
    for w in face_set:
        by_dim.setdefault(word_dim(w), []).append(w)
    levels = [by_dim.get(j, []) for j in range(max(by_dim, default=-1) + 1)]
    return reduce(BoundaryMatrices.extended, levels, BoundaryMatrices([], []))


def gf2_rank(vectors, pivot_rows: bytearray | None = None) -> int:
    """Rank of a family of GF(2) vectors packed as ints.

    Each vector is reduced by the basis vectors at its top bits in turn.
    When `pivot_rows` is given (a bytearray over the bits), the top bit
    of each basis vector, its pivot row, is marked with 1 there.
    """
    basis: dict[int, int] = {}
    for v in vectors:
        while v:
            h = v.bit_length() - 1
            b = basis.get(h)
            if b is None:
                basis[h] = v
                break
            v ^= b
    if pivot_rows is not None:
        for h in basis:
            pivot_rows[h] = 1
    return len(basis)


def _gf2_table(columns) -> tuple[int, list[int]]:
    """(pivots, cover) of a fully reduced kernel basis of the GF(2) matrix with these (row, sign) columns.

    Column reduction that also tracks, as a mask, the columns each
    reduced column is the sum of: a column reducing to zero names a
    kernel vector (Edelsbrunner-Harer, *Computational Topology*, 2010,
    ch. VII), whose top bit c, its pivot, is the column itself.  A
    reduced column is summed only with columns that stayed nonzero,
    whose masks hold such columns alone, so no pivot lies in another
    kernel vector.  Each vector is folded into the table as it is found
    and not kept (see `BoundaryMatrices._kernel_table`).
    """
    reduced: dict[int, tuple[int, int]] = {}
    pivots = 0
    cover = [0] * len(columns)
    for c, col in enumerate(columns):
        v, sums = sum(1 << r for r, _ in col), 1 << c
        while v:
            h = v.bit_length() - 1
            hit = reduced.get(h)
            if hit is None:
                reduced[h] = (v, sums)
                break
            v ^= hit[0]
            sums ^= hit[1]
        else:
            bit = 1 << c
            pivots |= bit
            rest = sums ^ bit
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


def _invariant_factors(columns, pivot_rows: bytearray | None = None) -> tuple[int, ...]:
    """Invariant factors of the matrix whose columns are (row, value) lists.

    Values are nonzero and a row appears at most once per column.  While
    some column holds a unit entry, take the one whose row has the fewest
    nonzeros (columns in index order, passes until no unit is left), clear
    its row by column operations and drop the pivot's row and column: the
    Schur complement.  Each such step adds one factor 1 and, when
    `pivot_rows` is given (a bytearray over the rows), marks the pivot's
    row with 1 there.  The rest is handed to the dense `smith_normal_form`.
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
            if pivot_rows is not None:
                pivot_rows[r] = 1
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
    pivots, cover = mats._kernel_table(i)
    outside = pivots & ~deleted
    # the deleted non-pivot columns' pivots outside S, the zero ones dropped, picked in C
    y = filter(None, map(outside.__and__, compress(cover, _selectors(deleted & ~pivots))))
    rank = len(cover) - pivots.bit_count()  # rank D_i, the width less the nullity
    rank += (deleted & pivots).bit_count() + gf2_rank(y) - deleted.bit_count()
    return rank, ()


def _integer_map(mats: BoundaryMatrices, i: int, deleted: int) -> tuple[int, tuple[int, ...]]:
    """(rank of D_i, invariant factors above 1) over Z without the columns in the mask `deleted`, reduced as they are."""
    return _integer_elimination(_outside(mats.columns[i], deleted))


def _gf2_elimination(columns, pivot_rows: bytearray) -> tuple[int, tuple[int, ...]]:
    """(rank, no torsion) over GF(2) of (row, sign) columns, packed into ints for `gf2_rank`, which marks pivot_rows."""
    return gf2_rank((sum(1 << r for r, _ in col) for col in columns), pivot_rows), ()


def _integer_elimination(columns, pivot_rows: bytearray | None = None) -> tuple[int, tuple[int, ...]]:
    """(rank, invariant factors above 1) over Z of (row, value) columns, by `_invariant_factors`, which marks pivot_rows."""
    factors = _invariant_factors(columns, pivot_rows)
    return len(factors), tuple(d for d in factors if d > 1)


# per ring: the elimination of the shared cleared pass, and the reader of a map through a mask of deleted columns
_RINGS = {GF2: (_gf2_elimination, _gf2_map), INTEGER: (_integer_elimination, _integer_map)}


def _read(mats: BoundaryMatrices, ring: str, j: int) -> tuple[int, tuple[int, ...]]:
    """(rank of D_j, invariant factors above 1) over `ring` of the faces mats holds: the one reader of a map.

    The map is read from the matrices and mask `mats.source(j)` gives.
    Outside their degrees 1..top it is zero, so no masked reader tests
    the degree.  A mask goes to the ring's masked reader; else it is the
    pass both rings share, cached per level here alone: D_(j+1) is read
    first, the ring's elimination takes the columns of D_j off its pivot
    rows (`_cleared`) and marks D_j's, kept for D_(j-1) as the selectors
    of the other rows.
    """
    whole, deleted = mats.source(j)
    if not 1 <= j <= whole.top:
        return 0, ()
    elimination, masked = _RINGS[ring]
    if deleted:
        return masked(whole, j, deleted)
    got = whole._reads.get((ring, j))
    if got is None:
        _read(whole, ring, j + 1)
        rows = bytearray(whole.num_faces(j - 1))
        got = whole._reads[ring, j] = (*elimination(whole._cleared(ring, j), rows), rows.translate(_FLIP))
    return got[:2]


def _homology(mats: BoundaryMatrices, ring: str, degrees) -> dict[int, tuple[int, tuple[int, ...]]]:
    """(Betti number, torsion) per degree j: faces_j - rank D_j - rank D_(j+1), factors above 1.

    The torsion of degree j is that of D_(j+1).  Each map is read once
    (`_read`), also when two degrees share it.
    """
    faces: dict[int, int] = {}
    rank: dict[int, int] = {}
    torsion: dict[int, tuple[int, ...]] = {}
    for i in sorted({i for j in degrees for i in (j, j + 1)}):
        faces[i] = mats.num_faces(i)
        rank[i], torsion[i] = _read(mats, ring, i)
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

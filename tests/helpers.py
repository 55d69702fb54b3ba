"""Independent oracles, property checks and shared inputs for the test suite.

Everything here recomputes results by brute force or by a different
algorithm than the library, so agreement is meaningful.  Two checks
test statements of the paper on library output: a face's boundary is
face-like exactly when the face is missing, and a graph embedding of a
complex's 1-skeleton transports the complex.  One runner starts fresh
interpreters, for what a single process cannot show: which modules a
run loads first.  Frozen dataclass twins of the library's records pin
how the records behave.
"""

from __future__ import annotations

import math
import os
import re
import subprocess
import sys
from dataclasses import field, make_dataclass
from functools import lru_cache
from itertools import combinations, product
from pathlib import Path

import skelcube as sk
from skelcube.complex import _derived
from skelcube.homology import _RINGS, _groups, _integer_map, _invariant_factors, _matrices_over, _profile
from skelcube.words import (
    letter_masks,
    mask_word,
    one_step_cofaces,
    proper_subwords,
    sort_words,
    word_dim,
    word_vertices,
)


def oracle_is_subface(p: str, q: str) -> bool:
    """Subface test by expanding both faces to their vertex boxes."""
    vp = set(vertices_of(p))
    vq = set(vertices_of(q))
    return vp <= vq


NOT_CLOSED = re.compile(r"the face set is not downward closed: at '([01*]*)', face '([01*]*)' is missing")


def gap_named_by(err: Exception, c: sk.CubicalComplex) -> tuple[str, str]:
    """The faces named by a refusal of c as not downward closed: one in c and a proper subface of it that c lacks."""
    m = NOT_CLOSED.fullmatch(str(err))
    assert m, str(err)
    at, missing = m.groups()
    assert at in c.faces and missing not in c.faces, (at, missing)
    assert missing != at and oracle_is_subface(missing, at), (at, missing)
    return at, missing


def first_gap_oracle(c: sk.CubicalComplex) -> tuple[str, str] | None:
    """The gap every refusal of c names, None when c is closed.

    It is the first face in canonical order (0 < 1 < *) lacking a facet,
    with the first facet it lacks, taking stars left to right and each
    star as 1 before 0 (the order of `facets`).
    """
    order = {"0": 0, "1": 1, "*": 2}
    for w in sorted(c.faces, key=lambda w: [order[a] for a in w]):
        for i, letter in enumerate(w):
            if letter == "*":
                for f in (w[:i] + "1" + w[i + 1 :], w[:i] + "0" + w[i + 1 :]):
                    if f not in c.faces:
                        return w, f
    return None


def vertices_of(w: str):
    options = [("01" if ch == "*" else ch) for ch in w]
    for combo in product(*options):
        yield "".join(combo)


def all_words(n: int):
    for combo in product("01*", repeat=n):
        yield "".join(combo)


def words_by_stars(n: int) -> dict[int, list[str]]:
    """Every word of length n, grouped by its number of stars; each group sorted."""
    groups: dict[int, list[str]] = {k: [] for k in range(n + 1)}
    for w in all_words(n):
        groups[w.count("*")].append(w)
    return {k: sorted(ws) for k, ws in groups.items()}


def proper_subfaces_of(w: str):
    for cand in all_words(len(w)):
        if cand != w and oracle_is_subface(cand, w):
            yield cand


def gf2_rank_dense(rows) -> int:
    """Dense row-reduction rank over GF(2), no bit packing."""
    rows = [list(r) for r in rows]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                rows[i] = [a ^ b for a, b in zip(rows[i], rows[r])]
        r += 1
        rank += 1
    return rank


def gf2_elimination_oracle(columns) -> tuple[int, tuple[int, ...]]:
    """Rank and a kernel basis of the GF(2) matrix whose columns are packed as ints.

    Column reduction that also tracks, as a mask, the columns each
    reduced column is the sum of: a column reducing to zero names a
    kernel vector, kept whole.  The basis is fully reduced as it comes:
    the vector of column c is the only one whose top bit (its pivot) is
    c, and it is summed only from columns that stayed nonzero, so no
    pivot lies in another vector.
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


def packed_columns(mats: sk.BoundaryMatrices, j: int) -> list[int]:
    """The columns of D_j packed as ints over rows, bit r for row r; none outside degrees 1..top."""
    return [sum(1 << r for r, _ in col) for col in mats.columns[j]] if 1 <= j <= mats.top else []


def gf2_table_oracle(mats: sk.BoundaryMatrices, j: int) -> tuple[int, tuple[int, list[int]]]:
    """(rank D_j, (pivots, cover)) read off the kept kernel basis of `gf2_elimination_oracle`.

    pivots holds each vector's top bit, and cover[q] the pivots of the
    vectors holding the non-pivot column q (0 at a pivot).
    """
    rank, kernel = gf2_elimination_oracle(packed_columns(mats, j))
    tops = [1 << (z.bit_length() - 1) for z in kernel]
    pivots = sum(tops)
    cover = [0 if pivots >> q & 1 else sum(t for z, t in zip(kernel, tops) if z >> q & 1) for q in range(mats.num_faces(j))]
    return rank, (pivots, cover if 1 <= j <= mats.top else [])


def betti_oracle_gf2(c: sk.CubicalComplex) -> tuple[int, ...]:
    """GF(2) Betti numbers from dense incidence matrices built by brute force."""
    levels: dict[int, list[str]] = {}
    for w in c.faces:
        levels.setdefault(w.count("*"), []).append(w)
    top = max(levels, default=-1)
    ranks: dict[int, int] = {}
    for j in range(1, top + 1):
        rows_faces = sorted(levels.get(j - 1, []))
        cols_faces = sorted(levels.get(j, []))
        mat = [
            [1 if oracle_is_subface(rw, cw) else 0 for cw in cols_faces]
            for rw in rows_faces
        ]
        ranks[j] = gf2_rank_dense(mat)
    return tuple(
        len(levels.get(j, [])) - ranks.get(j, 0) - ranks.get(j + 1, 0) for j in range(top + 1)
    )


def snf_oracle(mat) -> tuple[int, ...]:
    """Invariant factors as successive quotients of gcds of k-minors."""
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    prev = 1
    factors = []
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for rsel in combinations(range(rows), k):
            for csel in combinations(range(cols), k):
                g = math.gcd(g, bareiss_det([[mat[i][j] for j in csel] for i in rsel]))
        if g == 0:
            break
        factors.append(g // prev)
        prev = g
    return tuple(factors)


def bareiss_det(matrix) -> int:
    """Determinant of a square integer matrix by fraction-free (Bareiss) elimination."""
    a = [[int(v) for v in row] for row in matrix]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * prev


def bareiss_rank(matrix) -> int:
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


def transposed_columns(mats: sk.BoundaryMatrices, j: int) -> list[list[tuple[int, int]]]:
    """Rows of D_j as (column, sign) lists: the columns of D_j transposed, none outside 1..top."""
    if not 1 <= j <= mats.top:
        return []
    rows: list[list[tuple[int, int]]] = [[] for _ in mats.levels[j - 1]]
    for ci, col in enumerate(mats.columns[j]):
        for r, s in col:
            rows[r].append((ci, s))
    return rows


def sliced_chains(mats: sk.BoundaryMatrices, faces) -> sk.BoundaryMatrices:
    """mats sliced to `faces`, a subset of its faces closed upward: the quotient matrices, by another route.

    The faces outside `faces` are then a subcomplex, so the quotient D_j
    is mats' D_j on the j-faces of `faces` as columns, with the rows of
    the (j-1)-faces outside dropped.  Faces keep their canonical order
    and the degrees stay 0..top.
    """
    index = [{w: i for i, w in enumerate(level)} for level in mats.levels]
    taken: list[list[int]] = [[] for _ in mats.levels]
    for w in faces:
        j = word_dim(w)
        taken[j].append(index[j][w])
    for cols in taken:
        cols.sort()
    levels = [[mats.levels[j][c] for c in cols] for j, cols in enumerate(taken)]
    columns: list[list[list[tuple[int, int]]]] = [[] for _ in mats.levels]
    for j in range(1, len(mats.levels)):
        rows = {c: i for i, c in enumerate(taken[j - 1])}
        columns[j] = [[(rows[r], s) for r, s in mats.columns[j][c] if r in rows] for c in taken[j]]
    return sk.BoundaryMatrices(levels, columns)


def assert_chain_identity(mats: sk.BoundaryMatrices) -> None:
    """Assert D_j composed with D_(j+1) vanishes over Z, hence over GF(2)."""
    for j in range(2, mats.top + 1):
        lower = mats.columns[j - 1]
        for col in mats.columns[j]:
            acc: dict[int, int] = {}
            for mid, s1 in col:
                for r, s2 in lower[mid]:
                    acc[r] = acc.get(r, 0) + s1 * s2
            for r, v in acc.items():
                assert not v, f"boundary of boundary nonzero at degree {j}, row {r}"


def cohomology_oracle(c: sk.CubicalComplex, ring: str) -> sk.HomologyProfile:
    """Cohomology by eliminating the coboundaries D_j^T, where the library applies universal coefficients.

    In degree j the torsion comes from the invariant factors of the
    coboundary into degree j, the transpose of D_j.
    """
    mats = c.chains

    def factors(j: int) -> tuple[int, ...]:
        rows = transposed_columns(mats, j)
        if ring == sk.GF2:
            return (1,) * sk.gf2_rank([sum(1 << i for i, _ in row) for row in rows])
        return _invariant_factors(rows)

    f = [factors(j) for j in range(c.dim + 2)]
    return sk.HomologyProfile(
        tuple(mats.num_faces(j) - len(f[j]) - len(f[j + 1]) for j in range(c.dim + 1)),
        tuple(tuple(d for d in f[j] if d > 1) for j in range(c.dim + 1)),
    )


def candidate_oracle(skel: sk.CubicalComplex, k: int) -> list[str]:
    """Scan every ambient word and test all proper subfaces, not just facets."""
    n = skel.ambient_dim
    out = []
    for w in all_words(n):
        if w.count("*") != k + 1:
            continue
        if all(s in skel.faces for s in proper_subfaces_of(w)):
            out.append(w)
    return sorted(out, key=lambda w: w.translate(str.maketrans("01*", "012")))


def cbs_oracle(simplices) -> frozenset[str]:
    """Faces of the cubical barycentric subdivision, one per interval [sigma, tau] of the closed simplex poset.

    The simplices are closed downward first; the interval is the word
    with ones on sigma, stars on tau minus sigma and zeros elsewhere.
    """
    given = {frozenset(s) for s in simplices}
    n = max(max(s) for s in given) + 1
    closed = {frozenset(sub) for s in given for r in range(1, len(s) + 1) for sub in combinations(sorted(s), r)}
    faces = set()
    for tau in closed:
        for r in range(1, len(tau) + 1):
            for sigma in combinations(sorted(tau), r):
                word = ["0"] * n
                for v in tau:
                    word[v] = "1" if v in sigma else "*"
                faces.add("".join(word))
    return frozenset(faces)


def is_full_subcomplex(c: sk.CubicalComplex, g: sk.CubicalComplex) -> bool:
    """Whether g contains every face of c spanned by vertices of g."""
    gverts = {w for w in g.faces if "*" not in w}
    for w in c.faces:
        if set(vertices_of(w)) <= gverts and w not in g.faces:
            return False
    return True


def delete_oracle(c: sk.CubicalComplex, g: sk.CubicalComplex) -> sk.CubicalComplex:
    """Faces of c none of whose vertices is a vertex of g, by expanding every face."""
    gverts = {w for w in g.faces if "*" not in w}
    keep = frozenset(w for w in c.faces if not any(v in gverts for v in vertices_of(w)))
    return sk.CubicalComplex(c.ambient_dim, keep)


def is_face_like_oracle(c: sk.CubicalComplex, g: sk.CubicalComplex) -> bool:
    """Every face of c meets V(g) in nothing or in the vertex set of a face of g."""
    gverts = {w for w in g.faces if "*" not in w}
    gface_vertex_sets = {frozenset(vertices_of(w)) for w in g.faces}
    for w in c.faces:
        hit = frozenset(v for v in vertices_of(w) if v in gverts)
        if hit and hit not in gface_vertex_sets:
            return False
    return True


def is_face_like(c: sk.CubicalComplex, g: sk.CubicalComplex) -> bool:
    """Whether every face of c meets V(g) in nothing or in the vertex set of a face of g, scanning only the open star of V(g)."""
    gverts = g.vertices()
    gface_vertex_sets = {frozenset(word_vertices(w)) for w in g.faces}
    return all(frozenset(v for v in word_vertices(w) if v in gverts) in gface_vertex_sets for w in star(c, gverts))


def assert_facelike_iff_not_bounding(c: sk.CubicalComplex, f: str) -> bool:
    """Assert that the boundary of the face word f, a subcomplex of c, is face-like in c exactly when f is not a face of c.

    This is the characterization of face-like cube boundaries (Dancis
    1984) the reconstruction rests on.  Returns the face-likeness.
    """
    boundary = sk.CubicalComplex(c.ambient_dim, frozenset(proper_subwords(f)))
    assert boundary.faces <= c.faces, f
    facelike = is_face_like(c, boundary)
    assert facelike == (f not in c.faces), (f, facelike)
    return facelike


def star(c: sk.CubicalComplex, faces) -> frozenset[str]:
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
        low = at.get(f.replace("*", "0"), ())
        high = at.get(f.replace("*", "1"), ())
        # a vertex is both its corners: the same tuple, no intersection needed
        found.update(low if low is high else set(low).intersection(high))
    return frozenset(found)


def integer_local_profile(c: sk.CubicalComplex, f: str) -> sk.HomologyProfile:
    """Integer homology of the pair (c, faces not containing f), through `relative_profile`.

    c minus an open star is closed whenever c is, and `relative_profile`
    validates c before its second member, so that member is marked
    closed rather than scanned again at every face.
    """
    return sk.relative_profile(c, _derived(c.ambient_dim, c.faces - star(c, (f,)), closed=True), sk.INTEGER)


def star_walk_oracle(c: sk.CubicalComplex, faces) -> frozenset[str]:
    """Open star by walking up one coface at a time inside c.faces.

    Exact only when c is downward closed: every face between a given
    face and a face of c above it must itself be in c for the walk to
    pass through it.
    """
    found = {f for f in faces if f in c.faces}
    frontier = list(found)
    while frontier:
        for up in one_step_cofaces(frontier.pop()):
            if up in c.faces and up not in found:
                found.add(up)
                frontier.append(up)
    return frozenset(found)


def kept_homology_gf2_oracle(mats: sk.BoundaryMatrices, degrees, kept) -> dict[int, tuple[int, tuple]]:
    """GF(2) homology of the faces of mats in kept by reducing their own columns.

    The library instead corrects the rank of each whole matrix by
    rank-nullity over its kernel.
    """

    def kept_faces(i: int) -> list[int]:
        if not 0 <= i <= mats.top:
            return []
        return [c for c, w in enumerate(mats.levels[i]) if w in kept]

    def rank(i: int) -> int:
        if not 1 <= i <= mats.top:
            return 0
        return sk.gf2_rank([sum(1 << r for r, _ in mats.columns[i][c]) for c in kept_faces(i)])

    return {j: (len(kept_faces(j)) - rank(j) - rank(j + 1), ()) for j in degrees}


def per_level_homology(mats: sk.BoundaryMatrices, ring: str, degrees) -> dict[int, tuple[int, tuple]]:
    """Homology with each map read whole on its own: the reads the library made before it cleared them.

    Over GF(2) the rank of all of D_j's columns packed into ints, over Z
    the invariant factors of all of them; no read skips a column at the
    pivot rows of the map above.
    """
    faces, rank, torsion = {}, {}, {}
    for i in sorted({i for j in degrees for i in (j, j + 1)}):
        faces[i] = mats.num_faces(i)
        if ring == sk.GF2:
            rank[i], torsion[i] = sk.gf2_rank(packed_columns(mats, i)), ()
        else:
            factors = _invariant_factors(mats.columns[i] if 1 <= i <= mats.top else [])
            rank[i], torsion[i] = len(factors), tuple(d for d in factors if d > 1)
    return _groups(faces, rank, torsion, degrees)


def kept_homology(mats: sk.BoundaryMatrices, ring: str, degrees, kept) -> dict[int, tuple[int, tuple]]:
    """Homology of the faces of mats in kept, which holds every facet of its faces, through the library's ring readers.

    Each level's faces outside kept are found by a membership scan and
    each map is read through their mask, as `_homology` reads a view
    made by `BoundaryMatrices.without`, whose masks come from letters.
    """
    faces, rank, torsion = {}, {}, {}
    for i in sorted({i for j in degrees for i in (j, j + 1)}):
        level = mats.levels[i] if 0 <= i <= mats.top else []
        deleted = sum(1 << c for c, w in enumerate(level) if w not in kept)
        faces[i] = len(level) - deleted.bit_count()
        rank[i], torsion[i] = _RINGS[ring](mats, i, deleted)
    return _groups(faces, rank, torsion, degrees)


def meeting_oracle(level, vertices) -> int:
    """The mask of the words of level holding one of vertices, letter by letter."""
    return sum(
        1 << c for c, w in enumerate(level) if any(all(a in ("*", b) for a, b in zip(w, v)) for v in vertices)
    )


def local_profile_oracle(c: sk.CubicalComplex, f: str, ring: str) -> sk.HomologyProfile:
    """Homology of (c, faces not containing f) from quotient matrices rebuilt from words.

    The faces containing f are listed by keeping or starring each fixed
    letter of f, not read from the library's vertex index, and their
    matrices are built from the words, not sliced from c.chains.
    """
    letters = [(a,) if a == "*" else (a, "*") for a in f]
    above = frozenset("".join(w) for w in product(*letters)) & c.faces
    return _profile(_matrices_over(above), c.dim + 1, ring)


def link_by_star_oracle(c: sk.CubicalComplex, f: str) -> list[list[int]]:
    """The link of f in c by number of vertices, each simplex a mask of f's fixed coordinates, from `star`.

    The open star is the intersection of the vertex-index entries of f's
    two extreme corners, and each of its faces g is parsed on its own
    into A_g, its free coordinates less f's; the library filters the
    masks of f's low corner instead.
    """

    def free(w: str) -> int:
        return int("0" + w.translate(str.maketrans("01*", "001")), 2)

    levels: list[list[int]] = [[] for _ in range(c.dim - word_dim(f) + 1)]
    for g in star(c, (f,)):
        a = free(g) ^ free(f)
        levels[a.bit_count()].append(a)
    return levels


def face_criterion_oracle(
    skel: sk.CubicalComplex, f: str, k: int, d: int, mode: str = sk.STANDARD
) -> sk.CandidateVerdict:
    """The reconstruction criterion by deleting and recomputing.

    Deletes the vertex star of f's boundary by scanning every face and
    computes the whole deleted complex's homology from scratch, where
    the library restricts the skeleton's own boundary matrices.
    """
    sk.ReconstructionConfig(k, d, mode).validate()
    if not all(w in skel.faces for w in _facet_words(f)):
        return sk.CandidateVerdict(f, False, False)
    degrees = (d - k, d - k - 1) if mode == sk.STANDARD else (d - k - 1,)
    ring = sk.INTEGER if mode == sk.TIGHT_INTEGER else sk.GF2
    deleted = sk.homology_profile(_delete_boundary_oracle(skel, f), ring)
    base = sk.homology_profile(skel, ring)
    profiles = tuple((j, deleted.degree(j), base.degree(j)) for j in degrees)
    return sk.CandidateVerdict(f, True, all(left == right for _, left, right in profiles), profiles)


def _facet_words(f: str) -> list[str]:
    return [f[:i] + b + f[i + 1 :] for i, letter in enumerate(f) if letter == "*" for b in "01"]


@lru_cache(maxsize=8)
def _delete_boundary_oracle(skel: sk.CubicalComplex, f: str) -> sk.CubicalComplex:
    # one deletion per candidate, shared by the modes that judge it
    return delete_oracle(skel, sk.closure(skel.ambient_dim, _facet_words(f)))


def assert_criterion_matches_oracle(skel: sk.CubicalComplex, k: int, faces) -> int:
    """Compare face_criterion with its oracle on each face in every case it admits at degree k.

    The cases are each standard d from k to 2k-1 and d = 2k in both
    tight modes.  Returns the number of comparisons.
    """
    cases = [(d, sk.STANDARD) for d in range(k, 2 * k)] + [(2 * k, sk.TIGHT_GF2), (2 * k, sk.TIGHT_INTEGER)]
    compared = 0
    for f in faces:
        for d, mode in cases:
            assert sk.face_criterion(skel, f, k, d, mode) == face_criterion_oracle(skel, f, k, d, mode), (f, k, d, mode)
            compared += 1
    return compared


def reconstruct_checking_the_carry(skel: sk.CubicalComplex, cfg: sk.ReconstructionConfig) -> list:
    """The steps of reconstruct_steps, each grown complex checked against a fresh build.

    A degree carries the previous complex's matrices, their ranks over
    both rings, pivot rows, kernel tables and letter masks and its vertex
    index up by the added faces; they must equal what `_matrices_over`
    and a new complex build from the grown faces: levels, signed columns,
    and every rank, GF(2) pivot mask, table and letter mask carried.  The
    vertex index is compared as sets.
    After the last step the input and every grown complex are checked
    again, as a later carry must not change the complex it grew from.
    """
    steps = []
    for step in sk.reconstruct_steps(skel, cfg):
        _assert_tables_fresh(step.complex_after)
        steps.append(step)
    for c in [skel] + [step.complex_after for step in steps]:
        _assert_tables_fresh(c)
    return steps


def _assert_tables_fresh(c: sk.CubicalComplex) -> None:
    """Assert c's chains, with each rank, pivot mask, table and letter mask carried, equal those built anew, and its vertex index the oracle's."""
    carried, fresh = c.chains, _matrices_over(c.faces)
    assert carried.levels == fresh.levels
    assert carried.columns[1:] == fresh.columns[1:]
    for j, got in carried._ranks.items():
        assert got == fresh.gf2_rank(j), j
    for j, got in carried._tables.items():
        assert got == fresh.gf2_reduced_kernel(j), j
    for j, got in carried._integer.items():
        assert got == _integer_map(fresh, j, 0), j
    ranked = _matrices_over(c.faces)  # read rank first, so that each level keeps its pivot rows
    for (ring, j), got in carried._pivots.items():
        # over GF(2) the top bits of a basis are those of its span, D_j's column space, however it was cleared
        if ring == sk.GF2:
            ranked.gf2_rank(j)
            assert got == ranked._pivots[ring, j], j
    for j, got in carried._letters.items():
        assert got == letter_masks(fresh.levels[j]), j
    assert sorted_entries(c.faces_by_vertex) == vertex_tables_oracle(c)[0]


def vertex_tables_oracle(c: sk.CubicalComplex) -> tuple[dict[str, list[str]], dict[str, list[int]]]:
    """c's vertex index and link table, each entry sorted: every vertex of a face spelt by `word_vertices`.

    A face's link simplex is its free mask, read letter by letter with
    letter 0 the highest bit.
    """
    index: dict[str, list[str]] = {}
    links: dict[str, list[int]] = {}
    n = c.ambient_dim
    for w in c.faces:
        mask = sum(1 << (n - 1 - i) for i, letter in enumerate(w) if letter == "*")
        for v in word_vertices(w):
            index.setdefault(v, []).append(w)
            links.setdefault(v, []).append(mask)
    return sorted_entries(index), sorted_entries(links)


def sorted_entries(table: dict) -> dict:
    """table with each entry a sorted list, so that two tables compare as multisets per key."""
    return {key: sorted(values) for key, values in table.items()}


def random_subcomplex(rng, base: sk.CubicalComplex, max_generators: int = 6) -> sk.CubicalComplex:
    faces = sorted(base.faces)
    count = rng.randint(0, min(max_generators, len(faces)))
    gens = rng.sample(faces, count)
    return sk.closure(base.ambient_dim, gens)


# 6-vertex triangulation of the projective plane (antipodal icosahedron),
# used through cubical barycentric subdivision as the torsion specimen
RP2_TRIANGLES = [
    frozenset({0, 1, 2}),
    frozenset({0, 2, 3}),
    frozenset({0, 3, 4}),
    frozenset({0, 4, 5}),
    frozenset({0, 1, 5}),
    frozenset({1, 2, 4}),
    frozenset({2, 3, 5}),
    frozenset({1, 3, 4}),
    frozenset({2, 4, 5}),
    frozenset({1, 3, 5}),
]


# 7-vertex torus (Moebius-Csaszar): triangles {i, i+1, i+3} and {i, i+2, i+3} mod 7
TORUS7_TRIANGLES = [
    frozenset({0, 1, 3}),
    frozenset({1, 2, 4}),
    frozenset({2, 3, 5}),
    frozenset({3, 4, 6}),
    frozenset({4, 5, 0}),
    frozenset({5, 6, 1}),
    frozenset({6, 0, 2}),
    frozenset({0, 2, 3}),
    frozenset({1, 3, 4}),
    frozenset({2, 4, 5}),
    frozenset({3, 5, 6}),
    frozenset({4, 6, 0}),
    frozenset({5, 0, 1}),
    frozenset({6, 1, 2}),
]


def projective_plane() -> sk.CubicalComplex:
    return sk.cubical_barycentric_subdivision(RP2_TRIANGLES)


def corpus() -> list[tuple[str, sk.CubicalComplex]]:
    """Standard complexes used across the test suite, by name."""
    specs = [
        ("point", "cube(0)"),
        ("interval", "cube(1)"),
        ("square", "cube(2)"),
        ("solid-cube", "cube(3)"),
        ("circle", "boundary-cube(2)"),
        ("sphere-2", "boundary-cube(3)"),
        ("sphere-3", "boundary-cube(4)"),
        ("sphere-4", "boundary-cube(5)"),
        ("hexagon", "cbs(3)"),
        ("torus", "product(boundary-cube(2), boundary-cube(2))"),
        ("three-torus", "product(product(boundary-cube(2), boundary-cube(2)), boundary-cube(2))"),
        ("sphere-times-circle", "product(boundary-cube(3), boundary-cube(2))"),
        ("two-spheres", "disjoint-union(boundary-cube(3), boundary-cube(3))"),
    ]
    return [(name, sk.generate(text)) for name, text in specs]


def lift_to_complex_embedding(c: sk.CubicalComplex, emb: sk.HypercubeEmbedding) -> sk.CubicalComplex:
    """Transport a complex along a graph embedding of its 1-skeleton.

    Vertex i of the graph is the i-th vertex of c in canonical order.
    Each face must map onto the full vertex set of an ambient face of
    I^n; any failure raises, since for complexes sitting in a cube the
    image of a cube graph always spans a face.
    """
    verts = sort_words(c.vertices())
    if len(verts) != len(emb.codes):
        raise sk.ContradictionError("embedding does not cover the vertex set of the complex")
    if not emb.is_valid_for(sk.graph_of(c)):
        raise sk.ContradictionError("not a graph embedding of the 1-skeleton")
    code_of = {v: emb.codes[i] for i, v in enumerate(verts)}
    out = set()
    for w in c.faces:
        codes = [code_of[v] for v in word_vertices(w)]
        lo = hi = codes[0]
        for x in codes[1:]:
            lo &= x
            hi |= x
        varying = hi & ~lo
        if varying.bit_count() != word_dim(w) or len(set(codes)) != 1 << word_dim(w):
            raise sk.ContradictionError(f"image of face {w!r} does not span a face")
        out.add(mask_word(emb.n, lo, varying))
    return sk.CubicalComplex(emb.n, frozenset(out))


def cube_symmetry(rng, n: int):
    """A random symmetry of I^n, a coordinate permutation plus flips, on face words."""
    perm = list(range(n))
    rng.shuffle(perm)
    flips = [rng.random() < 0.5 for _ in range(n)]
    swap = {"0": "1", "1": "0", "*": "*"}

    def apply(w: str) -> str:
        out = [""] * n
        for i, letter in enumerate(w):
            out[perm[i]] = swap[letter] if flips[i] else letter
        return "".join(out)

    return apply


def relabel(c: sk.CubicalComplex, rng) -> sk.CubicalComplex:
    """The image of c under a random cube symmetry: an isomorphic complex."""
    apply = cube_symmetry(rng, c.ambient_dim)
    return sk.CubicalComplex(c.ambient_dim, frozenset(apply(w) for w in c.faces))


def components_oracle(c: sk.CubicalComplex) -> list[frozenset[str]]:
    """Face sets of the connected components, ordered by smallest vertex.

    Union-find joins all vertices of every face, so no edge list or
    graph traversal is involved.
    """
    root = {w: w for w in c.faces if "*" not in w}

    def find(x: str) -> str:
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    for w in c.faces:
        first, *rest = vertices_of(w)
        for v in rest:
            root[find(v)] = find(first)
    groups: dict[str, set[str]] = {}
    for w in c.faces:
        groups.setdefault(find(next(vertices_of(w))), set()).add(w)
    return sorted((frozenset(g) for g in groups.values()), key=lambda g: min(w for w in g if "*" not in w))


def graph_of_by_vertices(c: sk.CubicalComplex) -> sk.SimpleGraph:
    """`graph_of` with each edge's ends listed by `word_vertices`, not spelt as its two corners."""
    index = {v: i for i, v in enumerate(sort_words(c.vertices()))}
    edges = set()
    for w in c.faces:
        if word_dim(w) == 1:
            a, b = word_vertices(w)
            edges.add((min(index[a], index[b]), max(index[a], index[b])))
    return sk.SimpleGraph(len(index), frozenset(edges))


def components_by_vertices(c: sk.CubicalComplex) -> list[frozenset[str]]:
    """The face sets of `components`, each face bucketed by the first vertex `word_vertices` yields, not by its low corner."""
    index = {v: i for i, v in enumerate(sort_words(c.vertices()))}
    order, parent = sk.bfs_forest(graph_of_by_vertices(c).adjacency())
    root = [-1] * len(order)
    for v in order:
        root[v] = v if parent[v] < 0 else root[parent[v]]
    buckets: list[set[str]] = [set() for _ in order]
    for w in c.faces:
        buckets[root[index[next(word_vertices(w))]]].add(w)
    return [frozenset(b) for b in buckets if b]


def heawood_graph() -> sk.SimpleGraph:
    """Bipartite, 3-regular, 14 vertices, girth 6: no two vertices share two neighbours."""
    return sk.SimpleGraph.from_edges(
        14, [(i, (i + 1) % 14) for i in range(14)] + [(i, (i + 5) % 14) for i in range(0, 14, 2)]
    )


def path_joined_to_k23() -> sk.SimpleGraph:
    """The path 0-1-...-10 joined at 10 to K_{2,3} with parts {10, 11}, {12, 13, 14}."""
    path = [(i, i + 1) for i in range(10)]
    return sk.SimpleGraph.from_edges(15, path + [(u, v) for u in (10, 11) for v in (12, 13, 14)])


def _twin(record: type, *fields) -> type:
    """A frozen dataclass named as `record`, with the given fields: a name, or a (name, default) pair."""
    spec = [f if isinstance(f, str) else (f[0], object, field(default=f[1])) for f in fields]
    return make_dataclass(record.__name__, spec, frozen=True)


# Frozen dataclass twins of the library's records, as the records were
# declared when they were dataclasses: the same names, fields and defaults,
# without the constructors' checks.  A record must construct, compare,
# hash and print as its twin does.
RECORD_TWINS = {
    sk.CubicalComplex: _twin(sk.CubicalComplex, "ambient_dim", ("faces", frozenset())),
    sk.SimpleGraph: _twin(sk.SimpleGraph, "num_vertices", "edges"),
    sk.HypercubeEmbedding: _twin(sk.HypercubeEmbedding, "n", "codes"),
    sk.HomologyProfile: _twin(sk.HomologyProfile, "betti", "torsion"),
    sk.ManifoldReport: _twin(
        sk.ManifoldReport,
        "is_manifold",
        "dimension",
        "orientable",
        "failing_face",
        ("per_component", ()),
        ("reason", None),
        ("failing_profile", None),
    ),
    sk.ReconstructionConfig: _twin(sk.ReconstructionConfig, "k", "d", ("mode", sk.STANDARD)),
    sk.CandidateVerdict: _twin(sk.CandidateVerdict, "face", "boundary_present", "accepted", ("profiles", ())),
    sk.ReconstructionStep: _twin(sk.ReconstructionStep, "degree", "verdicts", "complex_after"),
    sk.GeneratorSpec: _twin(sk.GeneratorSpec, "family", ("args", ())),
}


def run_in_fresh_interpreters(programs: list[str]) -> list[list[str]]:
    """The lines each program prints, each run at once in its own interpreter with this skelcube on the path.

    The interpreters start with -S, so no site-packages hook (a `.pth`
    file, say) loads modules that would hide what skelcube loads.
    """
    src = str(Path(sk.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    children = [
        subprocess.Popen([sys.executable, "-S", "-c", code], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for code in programs
    ]
    printed = []
    try:
        for code, child in zip(programs, children):
            out, err = child.communicate(timeout=5)
            assert child.returncode == 0, f"{code!r} exited {child.returncode}: {err}"
            printed.append(out.splitlines())
    finally:
        for child in children:
            child.kill()  # nothing to do for a child that has exited
            child.wait()
    return printed

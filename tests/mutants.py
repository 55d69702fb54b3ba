"""Mutation check: each recorded mutant must make its named tests fail.

    python tests/mutants.py

Each entry of MUTANTS changes one piece of text in one file.  For each
mutant the script copies src/, tests/ and pyproject.toml into a fresh
temporary directory, replaces the old text (which must occur exactly
once) by the new, and runs `pytest -x` on the named tests there.  A
mutant is caught when pytest reports a failing test within the budget;
a run past the budget counts as not caught.  The one equivalent mutant
is marked `survives`: the named tests must pass under it, which records
that no test of homology can tell it from the real code.  Before the
mutants, the named tests run once on the unchanged copy and must pass,
so that a failure under a mutant is the mutant's doing.

pytest does not collect this file (it does not match test_*.py).  The
script works only in temporary directories, so the checkout stays clean.
Exit status 0 when every mutant behaves as recorded, 1 otherwise.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUDGET_S = 60.0  # per pytest run; the slowest mutant below needs about 10 s


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root
    survives: bool = False


COMPLEX = "src/skelcube/complex.py"
HOMOLOGY = "src/skelcube/homology.py"
RECONSTRUCT = "src/skelcube/reconstruct.py"
EMBEDDING = "src/skelcube/embedding.py"
GRAPH = "src/skelcube/graph.py"
WORDS = "src/skelcube/words.py"
GENERATORS = "src/skelcube/generators.py"
MANIFOLD = "src/skelcube/manifold.py"
PACKAGE = "src/skelcube/__init__.py"
CLI = "src/skelcube/cli.py"
ERRORS = "src/skelcube/errors.py"

MUTANTS = (
    Mutant(
        "snf-skips-divisibility",
        HOMOLOGY,
        "bad = next((row for row in a if any(v % p for v in row)), None)",
        "bad = None",
        (
            "tests/test_homology.py::test_smith_normal_form_frozen",
            "tests/test_homology.py::test_smith_normal_form_vs_oracle_random",
            "tests/test_homology.py::test_invariant_factors_vs_oracle_random",
        ),
    ),
    # the quotient built over every face of c, the subcomplex's too
    Mutant(
        "quotient-keeps-the-subcomplex",
        HOMOLOGY,
        "_matrices_over(c.faces - a.faces)",
        "_matrices_over(c.faces)",
        (
            "tests/test_homology.py::test_relative_profile_extremes",
            "tests/test_homology.py::test_relative_profile_sphere_minus_vertex_star",
            "tests/test_homology.py::test_long_exact_sequence_euler_check",
            "tests/test_homology.py::test_relative_profile_builds_no_matrices_of_either_member",
        ),
    ),
    Mutant(
        "rank-nullity-drops-size",
        HOMOLOGY,
        "rank += (deleted & pivots).bit_count() + gf2_rank(y) - deleted.bit_count()",
        "rank += (deleted & pivots).bit_count() + gf2_rank(y)",
        (
            "tests/test_homology.py::test_rank_nullity_matches_the_kept_column_reduction",
            "tests/test_homology.py::test_masked_gf2_rank_matches_the_dense_rank_of_the_kept_columns",
        ),
    ),
    # the deleted pivots, each a unit column of the kernel restricted to
    # the mask, no longer counted: only rank(Y) is left of rank(Z|S)
    Mutant(
        "masked-rank-drops-the-deleted-pivots",
        HOMOLOGY,
        "rank += (deleted & pivots).bit_count() + gf2_rank(y) - deleted.bit_count()",
        "rank += gf2_rank(y) - deleted.bit_count()",
        (
            "tests/test_homology.py::test_rank_nullity_matches_the_kept_column_reduction",
            "tests/test_homology.py::test_masked_gf2_rank_matches_the_dense_rank_of_the_kept_columns",
        ),
    ),
    # D_j cleared by the pivot rows of D_j itself, which a read from the top
    # down has not found yet: nothing is skipped, so every answer stays and
    # only the count of columns each pass takes tells it from clearing
    Mutant(
        "clearing-reads-its-own-pivots",
        HOMOLOGY,
        "got = self._reads.get((ring, j + 1))",
        "got = self._reads.get((ring, j))",
        (
            "tests/test_homology.py::test_cleared_reads_match_the_per_level_oracle_over_both_rings",
            "tests/test_homology.py::test_whole_complex_gf2_pass_packs_one_column_per_pivot_on_a_full_cube",
        ),
    ),
    # the pass keeps the pivot rows themselves as D_(j-1)'s selectors: the
    # read below takes only the columns it should skip and loses rank
    Mutant(
        "cleared-keeps-the-pivot-columns",
        HOMOLOGY,
        "rows.translate(_FLIP)",
        "bytes(rows)",
        (
            "tests/test_homology.py::test_relative_profile_extremes",
            "tests/test_homology.py::test_cleared_reads_match_the_per_level_oracle_over_both_rings",
            "tests/test_cli_golden.py::test_cli_output_matches_the_golden_transcript",
        ),
    ),
    # over Z, every row the unit pivot's column holds is cleared below, not
    # the pivot's row alone: columns that span more of the lattice are lost
    Mutant(
        "integer-clears-every-row-of-a-unit-column",
        HOMOLOGY,
        "            if pivot_rows is not None:\n                pivot_rows[r] = 1\n",
        "            if pivot_rows is not None:\n                for r2 in col:\n                    pivot_rows[r2] = 1\n",
        (
            "tests/test_homology.py::test_cleared_reads_match_the_per_level_oracle_over_both_rings",
            "tests/test_homology.py::test_cleared_reads_of_grown_complexes_and_views_of_views_match_the_oracle",
        ),
    ),
    # a face meets a j-face unless some coordinate holds opposite letters;
    # each mutant below misreads the letter masks of a deletion view
    Mutant(
        "letter-mask-drops-a-fixed-coordinate",
        WORDS,
        "for p, (z, o) in masks.items():",
        "for p, (z, o) in list(masks.items())[1:]:",
        (
            "tests/test_homology.py::test_a_view_leaves_out_the_columns_of_the_faces_meeting_its_vertices",
            "tests/test_homology.py::test_every_reader_of_a_deletion_view_matches_matrices_built_anew",
        ),
    ),
    Mutant(
        "letter-mask-reads-the-same-letter",
        WORDS,
        "                miss |= o\n",
        "                miss |= z\n",
        (
            "tests/test_homology.py::test_a_view_leaves_out_the_columns_of_the_faces_meeting_its_vertices",
            "tests/test_homology.py::test_every_reader_of_a_deletion_view_matches_matrices_built_anew",
        ),
    ),
    # vertices that span no face are ORed one by one, here all but one
    Mutant(
        "vertex-terms-skip-one",
        WORDS,
        "        free = 0\n",
        "        free, ones = 0, ones[1:]\n",
        (
            "tests/test_homology.py::test_a_view_leaves_out_the_columns_of_the_faces_meeting_its_vertices",
            "tests/test_homology.py::test_every_reader_of_a_deletion_view_matches_matrices_built_anew",
        ),
    ),
    # a vertex's one-step cofaces are edges, which are not yet in the
    # skeleton to lend their directions
    Mutant(
        "candidates-walk-edges-at-degree-zero",
        RECONSTRUCT,
        "edges.get(w.replace(STAR, ZERO), ()) if k else None",
        "edges.get(w.replace(STAR, ZERO), ())",
        ("tests/test_reconstruct.py::test_enumerate_candidates_against_oracle",),
    ),
    # over Z the mask is the only trace of the kept set
    Mutant(
        "integer-reader-ignores-mask",
        HOMOLOGY,
        "_integer_elimination(_outside(mats.columns[i], deleted))",
        "_integer_elimination(mats.columns[i])",
        (
            "tests/test_reconstruct.py::test_tight_criterion_compares_only_degree_d_minus_k_minus_1",
            "tests/test_homology.py::test_rank_nullity_matches_the_kept_column_reduction",
        ),
    ),
    # every level's columns, built fresh or carried up a degree, come from this line
    Mutant(
        "level-signs-all-positive",
        HOMOLOGY,
        "columns = [[(below[f], s) for f, s in signed_facets(w) if f in below] for w in level]",
        "columns = [[(below[f], 1) for f, s in signed_facets(w) if f in below] for w in level]",
        (
            "tests/test_homology.py::test_boundary_of_boundary_vanishes",
            "tests/test_homology.py::test_integer_homology_frozen_values",
        ),
    ),
    # the closure mark set before the scan: a reader after a refused one
    # reads the mark and answers
    Mutant(
        "closure-marked-before-the-check",
        COMPLEX,
        "        faces = self.faces\n        gaps = ",
        "        self.__dict__[_CLOSED] = True\n        faces = self.faces\n        gaps = ",
        (
            "tests/test_complex.py::test_no_reader_answers_on_a_face_set_that_is_not_downward_closed",
            "tests/test_cli.py::test_parsed_inputs_are_never_scanned_and_a_constructed_complex_once",
        ),
    ),
    # a parsed file is scanned again by its first reader
    Mutant(
        "closure-leaves-its-output-unmarked",
        COMPLEX,
        "return _derived(ambient_dim, frozenset(out), closed=True)",
        "return _derived(ambient_dim, frozenset(out))",
        ("tests/test_cli.py::test_parsed_inputs_are_never_scanned_and_a_constructed_complex_once",),
    ),
    # the star of g's first vertex (in canonical order) is kept
    Mutant(
        "delete-skips-a-vertex",
        COMPLEX,
        "kept = c.chains.without(g.vertices())",
        "kept = c.chains.without(sorted(g.vertices())[1:])",
        (
            "tests/test_complex.py::test_delete_and_face_likeness_match_vertex_scan_oracles",
            "tests/test_complex.py::test_delete_matches_the_oracle_and_hashes_alike",
        ),
    ),
    # the view's kept faces start at the edges, so a deletion's faces lose its vertices
    Mutant(
        "deleted-faces-skip-level-zero",
        HOMOLOGY,
        "for j, level in enumerate(self._whole.levels)]",
        "for j, level in enumerate(self._whole.levels[1:], 1)]",
        ("tests/test_complex.py::test_delete_matches_the_oracle_and_hashes_alike",),
    ),
    # a view's columns built over its host's levels, not its own: only a
    # reader of the view's columns, as a rebuild from a deletion is, sees it
    Mutant(
        "view-columns-from-the-host",
        HOMOLOGY,
        "reduce(BoundaryMatrices.extended, self.levels,",
        "reduce(BoundaryMatrices.extended, self._whole.levels,",
        (
            "tests/test_reconstruct.py::test_reconstruction_from_a_deletion_matches_its_plain_twin",
            "tests/test_homology.py::test_every_reader_of_a_deletion_view_matches_matrices_built_anew",
        ),
    ),
    # a deletion of a deletion masks the first view as its host: its
    # answers stay right, but the first view builds columns, kernel tables
    # and letter masks of its own
    Mutant(
        "view-nests",
        HOMOLOGY,
        "return _Without(self._whole, self._faces + spanned_faces(vertices))",
        "return _Without(self, self._faces + spanned_faces(vertices))",
        ("tests/test_homology.py::test_a_deletion_of_a_deletion_reads_its_host_alone",),
    ),
    # a deletion of a deletion keeps the first star
    Mutant(
        "compose-forgets-first-cut",
        HOMOLOGY,
        "return _Without(self._whole, self._faces + spanned_faces(vertices))",
        "return _Without(self._whole, spanned_faces(vertices))",
        ("tests/test_complex.py::test_delete_matches_the_oracle_and_hashes_alike",),
    ),
    # a deletion freezes its faces as it is made: its answers stay right,
    # only the tests of what a deletion holds and allocates can tell
    Mutant(
        "delete-builds-its-faces",
        COMPLEX,
        "return _derived(c.ambient_dim, None, closed=True, chains=kept)",
        "return _derived(c.ambient_dim, frozenset(chain.from_iterable(kept.levels)), closed=True, chains=kept)",
        (
            "tests/test_complex.py::test_deleting_a_star_copies_no_face_set",
            "tests/test_reconstruct.py::test_reconstruction_reads_no_deletion_face_set",
        ),
    ),
    # a local profile read on a face set that is not closed: a link facet
    # has no row (KeyError)
    Mutant(
        "local-profile-skips-validate",
        MANIFOLD,
        "    c.validate()\n    p, length = word_dim(f), c.dim + 1\n",
        "    p, length = word_dim(f), c.dim + 1\n",
        (
            "tests/test_manifold.py::test_a_face_whose_star_lacks_a_facet_containing_it_is_refused_over_both_rings",
            "tests/test_complex.py::test_no_reader_answers_on_a_face_set_that_is_not_downward_closed",
        ),
    ),
    # each link simplex loses the facet that drops its lowest vertex
    Mutant(
        "link-column-drops-lowest-facet",
        MANIFOLD,
        "column, rest = 0, a\n",
        "column, rest = 0, a & (a - 1)\n",
        (
            "tests/test_manifold.py::test_local_profile_interior_and_top_faces",
            "tests/test_manifold.py::test_sphere_is_manifold",
            "tests/test_manifold.py::test_local_profile_matches_subface_scan_oracle",
        ),
    ),
    # the link keeps every face of the low corner that frees some coordinate
    # f frees, not all of them, and at a vertex keeps none; each test alone
    # catches it.  Reading the high corner's entry instead is no mutant: g
    # contains f also exactly when it contains that corner and frees f's
    # free coordinates.
    Mutant(
        "link-filter-any-shared-free-coordinate",
        MANIFOLD,
        "if a & own == own:",
        "if a & own:",
        (
            "tests/test_manifold.py::test_local_profile_interior_and_top_faces",
            "tests/test_manifold.py::test_link_matches_the_star_intersection_oracle",
            "tests/test_manifold.py::test_sphere_is_manifold",
            "tests/test_manifold.py::test_local_profile_matches_subface_scan_oracle",
        ),
    ),
    Mutant(
        "cohomology-torsion-from-same-degree",
        HOMOLOGY,
        "tuple(h.degree(j - 1)[1] for j in range(len(h.betti)))",
        "tuple(h.degree(j)[1] for j in range(len(h.betti)))",
        ("tests/test_homology.py::test_projective_plane_cohomology_shifts_torsion",),
    ),
    Mutant(
        "criterion-compares-one-degree",
        RECONSTRUCT,
        "degrees = (d - k, d - k - 1) if mode == STANDARD else (d - k - 1,)",
        "degrees = (d - k - 1,)",
        ("tests/test_reconstruct.py::test_product_manifold_rebuild_rejects_spurious_faces",),
    ),
    # the face set walked once for its top dimension before it is grouped,
    # so an iterator leaves every level empty
    Mutant(
        "matrices-over-walks-twice",
        HOMOLOGY,
        "    by_dim: dict[int, list[str]] = {}\n",
        "    by_dim: dict[int, list[str]] = {}\n    max(map(word_dim, face_set), default=-1)\n",
        ("tests/test_homology.py::test_matrices_over_walks_its_faces_once",),
    ),
    # two vertices of a hypercube share 0 or 2 neighbours, so this refutes
    # every cube graph with a vertex of degree 3 or more
    Mutant(
        "k23-threshold-2",
        EMBEDDING,
        "if k >= 3 and v > u",
        "if k >= 2 and v > u",
        ("tests/test_embedding.py::test_find_embedding_cube_graph",),
    ),
    Mutant(
        "size-refutes-full-cube",
        EMBEDDING,
        "(g.num_vertices - 1).bit_length() > n_max",
        "g.num_vertices.bit_length() > n_max",
        ("tests/test_embedding.py::test_find_embedding_cube_graph",),
    ),
    # free roots counted from the least free code, all of which must be tried
    Mutant(
        "root-floor-one-too-high",
        EMBEDDING,
        "count(floor))",
        "count(floor + 1))",
        ("tests/test_embedding.py::test_many_components_embed_in_linear_time",),
    ),
    # the subwords of a simplex's cube holding no ONE are not intervals
    Mutant(
        "subdivision-keeps-words-without-a-one",
        GENERATORS,
        "for w in subwords(span) if ONE in w)",
        "for w in subwords(span))",
        (
            "tests/test_generators.py::test_cbs_matches_the_interval_poset_oracle_on_random_inputs",
            "tests/test_cli_golden.py::test_cli_output_matches_the_golden_transcript",
        ),
    ),
    # a mirrored word is still a face, so only spelt words catch it
    Mutant(
        "mask-word-reads-bits-high-first",
        WORDS,
        "STAR if stars >> i & 1 else ONE if ones >> i & 1 else ZERO",
        "STAR if stars >> (n - 1 - i) & 1 else ONE if ones >> (n - 1 - i) & 1 else ZERO",
        (
            "tests/test_words.py::test_mask_word_spells_the_face_of_its_codes",
            "tests/test_embedding.py::test_lift_spells_bit_i_as_letter_i",
            "tests/test_cli_golden.py::test_cli_output_matches_the_golden_transcript",
        ),
    ),
    Mutant(
        "signs-ignore-star-index",
        WORDS,
        "sign = -sign",
        "sign = 1",
        ("tests/test_homology.py::test_boundary_of_boundary_vanishes",),
    ),
    # the package takes the submodule the import system binds on it, so
    # `skelcube.reconstruct` is the module once anything has loaded it
    Mutant(
        "package-binds-the-reconstruct-submodule",
        PACKAGE,
        "        if name in _EXPORTS and isinstance(value, types.ModuleType):\n            return\n",
        "",
        ("tests/test_imports.py::test_reconstruct_is_the_function_whatever_loads_its_module_first",),
    ),
    # without __all__, a star import binds importlib, sys, types and every
    # submodule loaded so far, `complex` among them
    Mutant(
        "package-drops-all",
        PACKAGE,
        "__all__ = list(_EXPORTS)\n",
        "",
        (
            "tests/test_imports.py::test_star_import_binds_exactly_the_exported_names",
            "tests/test_imports.py::test_all_names_are_defined",
        ),
    ),
    # running out of memory read as a negative answer
    Mutant(
        "memory-error-exits-1",
        CLI,
        'for this computation", file=sys.stderr)\n        return 3\n',
        'for this computation", file=sys.stderr)\n        return 1\n',
        ("tests/test_cli.py::test_running_out_of_memory_exits_3_with_one_line",),
    ),
    # a record equal to any record with equal fields, of whatever class
    Mutant(
        "record-eq-ignores-type",
        ERRORS,
        "        if other.__class__ is self.__class__:\n",
        "        if isinstance(other, _Record):\n",
        ("tests/test_records.py::test_record_behaves_as_its_dataclass_twin",),
    ),
    # `embed` loads the complex layer again
    Mutant(
        "graph-imports-complex",
        GRAPH,
        "from .errors import StructuralError, _Record\n",
        "from .complex import _derived\nfrom .errors import StructuralError, _Record\n",
        ("tests/test_cli.py::test_cli_import_loads_no_process_machinery",),
    ),
    # every command, and `import skelcube.cli`, loads the embedding search again
    Mutant(
        "cli-imports-embedding",
        CLI,
        "never evaluated\nfrom .errors import",
        "never evaluated\nfrom .embedding import embedding_obstruction, labelling_from_embedding, verify_labelling\n"
        "from .errors import",
        ("tests/test_cli.py::test_cli_import_loads_no_process_machinery",),
    ),
    # each face of positive dimension loses its low corner from both vertex tables
    Mutant(
        "vertex-walk-skips-low-corner",
        WORDS,
        "        sub = 0\n",
        "        sub = -free & free\n",
        ("tests/test_complex.py::test_vertex_tables_match_the_word_vertices_oracle",),
    ),
    # a memo keyed on whole complexes keeps each one and its chains alive,
    # and answers an equal complex without building its chains
    Mutant(
        "profile-memoized",
        HOMOLOGY,
        "\ndef homology_profile(",
        "\n@lru_cache(maxsize=256)\ndef homology_profile(",
        (
            "tests/test_homology.py::test_a_dropped_complex_leaves_nothing_alive_after_its_homology_is_read",
            "tests/test_homology.py::test_an_equal_complex_reads_its_own_chains",
        ),
    ),
    Mutant(
        "alias-memo-holds-complexes",
        HOMOLOGY,
        "@lru_cache(maxsize=0)\ndef betti_gf2(",
        "@lru_cache(maxsize=256)\ndef betti_gf2(",
        (
            "tests/test_homology.py::test_a_dropped_complex_leaves_nothing_alive_after_its_homology_is_read",
            "tests/test_homology.py::test_an_equal_complex_reads_its_own_chains",
        ),
    ),
    # Both facets of a star with the same sign: w -> (-1)^(number of ONEs in w) w
    # carries this boundary to -D, so every homology answer is unchanged.
    # Only tests/test_words.py pins the signs themselves.
    Mutant(
        "same-sign-facets",
        WORDS,
        "yield head + ZERO + tail, -sign",
        "yield head + ZERO + tail, sign",
        ("tests/test_homology.py", "tests/test_manifold.py"),
        survives=True,
    ),
)


def _copy(dst: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dst / part, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dst / "pyproject.toml")


def _pytest(where: Path, tests) -> int | None:
    """pytest's exit status on the tests, None past the budget."""
    env = dict(os.environ, PYTHONPATH=str(where / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        return subprocess.run(cmd, cwd=where, env=env, capture_output=True, timeout=BUDGET_S).returncode
    except subprocess.TimeoutExpired:
        return None


def _run(m: Mutant) -> tuple[bool, str]:
    with tempfile.TemporaryDirectory(prefix="skelcube-mutant-") as tmp:
        where = Path(tmp)
        _copy(where)
        target = where / m.path
        text = target.read_text()
        if text.count(m.old) != 1:
            return False, f"old text occurs {text.count(m.old)} times in {m.path}"
        target.write_text(text.replace(m.old, m.new))
        status = _pytest(where, m.tests)
    if status is None:
        return False, f"ran past {BUDGET_S:g} s"
    if m.survives:
        return status == 0, "survives, as recorded" if status == 0 else f"pytest exit {status}, expected 0"
    return status == 1, "caught" if status == 1 else f"pytest exit {status}, expected 1"


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="skelcube-mutant-") as tmp:
        _copy(Path(tmp))
        if _pytest(Path(tmp), sorted({t for m in MUTANTS for t in m.tests})) != 0:
            print("the named tests do not pass on the unchanged code")
            return 1
    ok = True
    for m in MUTANTS:
        t0 = time.perf_counter()
        good, how = _run(m)
        ok &= good
        print(f"{'ok  ' if good else 'FAIL'} {m.name}: {how} ({time.perf_counter() - t0:.1f} s)", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

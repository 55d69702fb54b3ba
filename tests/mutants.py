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
BUDGET_S = 60.0  # per pytest run; the slowest mutant below needs about 7 s


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root
    survives: bool = False


HOMOLOGY = "src/skelcube/homology.py"
RECONSTRUCT = "src/skelcube/reconstruct.py"
EMBEDDING = "src/skelcube/embedding.py"
WORDS = "src/skelcube/words.py"

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
    Mutant(
        "slice-keeps-outside-rows",
        HOMOLOGY,
        "[[(rows[r], s) for r, s in own[c] if r in rows] for c in taken[j]]",
        "[[(rows.get(r, len(rows) + r), s) for r, s in own[c]] for c in taken[j]]",
        ("tests/test_homology.py::test_restricted_matrices_equal_the_quotient_matrices_built_from_words",),
    ),
    Mutant(
        "rank-nullity-drops-size",
        HOMOLOGY,
        "rank += gf2_rank([z & deleted for z in kernel]) - size",
        "rank += gf2_rank([z & deleted for z in kernel])",
        ("tests/test_homology.py::test_rank_nullity_matches_the_kept_column_reduction",),
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
    Mutant(
        "k23-threshold-2",
        EMBEDDING,
        "if k >= 3 and v > u",
        "if k >= 2 and v > u",
        ("tests/test_embedding.py::test_find_embedding_even_cycles",),
    ),
    Mutant(
        "size-refutes-full-cube",
        EMBEDDING,
        "(g.num_vertices - 1).bit_length() > n_max",
        "g.num_vertices.bit_length() > n_max",
        ("tests/test_embedding.py::test_find_embedding_cube_graph",),
    ),
    Mutant(
        "signs-ignore-star-index",
        WORDS,
        "sign = -1 if i % 2 == 0 else 1",
        "sign = 1",
        ("tests/test_homology.py::test_boundary_of_boundary_vanishes",),
    ),
    # Both facets of a star with the same sign: w -> (-1)^(number of ONEs in w) w
    # carries this boundary to -D, so every homology answer is unchanged.
    # Only tests/test_words.py pins the signs themselves.
    Mutant(
        "same-sign-facets",
        WORDS,
        "yield w[:pos] + ZERO + w[pos + 1 :], -sign",
        "yield w[:pos] + ZERO + w[pos + 1 :], sign",
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

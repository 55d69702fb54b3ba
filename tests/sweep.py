"""A seeded sweep of shelled spheres and their products through the manifold check and reconstruction.

    python tests/sweep.py

Each sphere is the boundary of a seeded shelling of (d+1)-faces of
I^(d+3) or I^(d+4) (`helpers.shelled_sphere`), 14 seeds for each d =
3..6.  In I^(d+2), which has only 2(d+2) faces of dimension d+1, every
such ball is a piece of one cube boundary and most seeds give the same
sphere; the larger cube and a number of cells that varies with the seed
make them differ, and the sweep prints how many distinct (faces,
maximal faces) pairs each d has.  A sphere with at most 2(d+1) maximal
faces is a cube boundary, which the tier-1 tests cover, and is skipped.
Every other sphere must be an orientable homology d-manifold with the
homology of S^d over GF(2) and over Z, and must rebuild to itself from
its (floor(d/2)+1)-skeleton in the standard mode and, at even d, from
its d/2-skeleton in the tight GF(2) mode.  The tight integer mode runs
at d = 4 only: it reduces each candidate's kept columns over Z, and at
d = 6 the sphere of seed 1 in I^8 alone took 21.7 s of CPU on a 2-vCPU
VM (ROADMAP item 6).

Each product of two spheres of I^(p+2), of total dimension 3..5, and
each product of a sphere with a cube boundary dI^(j+1), of dimension
3..5, must be an orientable homology manifold with the Kuenneth
homology over both rings and rebuild from its (floor(d/2)+1)-skeleton.
A factor dI^(j+1) with j >= floor(d/2)+1 offers (j+1)-cubes whose whole
boundary is present at step j, and only degree d-j of the criterion
rejects them.

pytest does not collect this file (it does not match test_*.py).  It
prints one line per case and exits 0 when every check holds, 1
otherwise.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import skelcube as sk  # noqa: E402
from helpers import shelled_sphere  # noqa: E402

# d: (n, cells, spread), each sphere the boundary of a shelling of up to
# cells + seed % spread (d+1)-faces of I^n; sized so the sweep stays
# well inside its 5-minute CI step
SIZES = {3: (7, 10, 5), 4: (8, 8, 5), 5: (8, 6, 5), 6: (9, 4, 3)}
SPHERES = [(seed, d, n, cells + seed % spread) for d, (n, cells, spread) in SIZES.items() for seed in range(1, 15)]
# (seed, p) and (seed, q) of the factors S^p and S^q, each in I^(p+2)
PRODUCTS = [
    ((31, 1), (32, 2)),
    ((33, 1), (34, 2)),
    ((35, 1), (36, 3)),
    ((37, 1), (38, 3)),
    ((39, 2), (40, 2)),
    ((41, 2), (42, 2)),
    ((43, 1), (44, 4)),
    ((45, 2), (46, 3)),
    ((47, 2), (48, 3)),
]
# (seed, a) of a factor S^a in I^(a+2), and j of the cube boundary dI^(j+1)
CUBE_PRODUCTS = [((51, 1), 2), ((52, 1), 3), ((53, 2), 2), ((54, 1), 4), ((55, 2), 3), ((56, 3), 2)]


def _factor(seed: int, d: int, cells: int = 8) -> sk.CubicalComplex:
    return shelled_sphere(seed, d + 2, d, cells)


def _homology_is(c: sk.CubicalComplex, betti: tuple[int, ...]) -> bool:
    """Whether c has these Betti numbers and no torsion over both rings."""
    want = sk.HomologyProfile(betti, ((),) * len(betti))
    return all(sk.homology_profile(c, ring) == want for ring in (sk.GF2, sk.INTEGER))


def _sphere_betti(d: int) -> tuple[int, ...]:
    return (1,) + (0,) * (d - 1) + (1,)


def _kuenneth(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """The Betti numbers of a product of two spaces with free homology."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def _manifold(c: sk.CubicalComplex, d: int) -> bool:
    report = sk.is_homology_manifold(c, check_orientability=True)
    return (report.is_manifold, report.dimension, report.orientable) == (True, d, True)


def _rebuilds(c: sk.CubicalComplex, k: int, d: int, mode: str = sk.STANDARD) -> bool:
    return sk.reconstruct(sk.skeleton(c, k), sk.ReconstructionConfig(k, d, mode)) == c


def _checks(c: sk.CubicalComplex, d: int, betti: tuple[int, ...]):
    """(name, check) pairs for a closed orientable d-manifold c with free homology `betti`."""
    k = d // 2 + 1
    yield f"orientable homology {d}-manifold", lambda: _manifold(c, d)
    yield f"homology {betti}", lambda: _homology_is(c, betti)
    yield f"standard from the {k}-skeleton", lambda: _rebuilds(c, k, d)
    if d % 2 == 0 and betti == _sphere_betti(d):
        for mode in (sk.TIGHT_GF2, sk.TIGHT_INTEGER) if d == 4 else (sk.TIGHT_GF2,):
            yield f"{mode} from the {d // 2}-skeleton", lambda mode=mode: _rebuilds(c, d // 2, d, mode)


def _run(label: str, checks) -> bool:
    """Run the checks, print one line for the case and say whether all held; an exception fails its check."""
    t0 = time.process_time()
    held, failed = [], []
    for name, check in checks:
        try:
            (held if check() else failed).append(name)
        except Exception as e:  # a crash is a failed check, and the sweep goes on
            failed.append(f"{name} ({type(e).__name__}: {e})")
    how = f"FAIL {label}: " + "; ".join(failed) if failed else f"ok   {label}: " + ", ".join(held)
    print(f"{how} ({time.process_time() - t0:.2f} s)", flush=True)
    return not failed


def main() -> int:
    ok = True
    sizes: dict[int, list[tuple[int, int]]] = {d: [] for d in SIZES}
    for seed, d, n, cells in SPHERES:
        s = shelled_sphere(seed, n, d, cells)
        tops = len(s.maximal_faces())
        sizes[d].append((len(s.faces), tops))
        label = f"S^{d} seed {seed}, {cells} cells in I^{n}, {len(s.faces)} faces, {tops} maximal"
        if tops <= 2 * (d + 1):
            print(f"skip {label}: a cube boundary", flush=True)
            continue
        ok &= _run(label, _checks(s, d, _sphere_betti(d)))
    for (seed_p, p), (seed_q, q) in PRODUCTS:
        m = sk.product_complex(_factor(seed_p, p), _factor(seed_q, q))
        label = f"S^{p} seed {seed_p} x S^{q} seed {seed_q}, {len(m.faces)} faces"
        ok &= _run(label, _checks(m, p + q, _kuenneth(_sphere_betti(p), _sphere_betti(q))))
    for (seed, a), j in CUBE_PRODUCTS:
        m = sk.product_complex(_factor(seed, a, 6), sk.cube_boundary(j + 1))
        label = f"S^{a} seed {seed} x dI^{j + 1}, {len(m.faces)} faces"
        ok &= _run(label, _checks(m, a + j, _kuenneth(_sphere_betti(a), _sphere_betti(j))))
    for d, pairs in sizes.items():
        print(f"S^{d}: {len(set(pairs))} distinct (faces, maximal faces) pairs of {len(pairs)} spheres")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

"""A seeded sweep of shelled spheres and their products through the manifold check and reconstruction.

    python tests/sweep.py

Each sphere is the boundary of a seeded shelling of (d+1)-faces of
I^(d+2) (`helpers.shelled_sphere`), for d = 3..6.  A sphere with at most
2(d+1) maximal faces is a cube boundary, which the tier-1 tests cover,
and is skipped.  Every other sphere must be an orientable homology
d-manifold with the homology of S^d over GF(2) and over Z, and must
rebuild to itself from its (floor(d/2)+1)-skeleton in the standard mode
and, at even d, from its d/2-skeleton in the tight GF(2) mode.  The
tight integer mode runs at d = 4 only: it reduces each candidate's kept
columns over Z, and at d = 6 the sphere of seed 1 alone takes 21.7 s of
CPU on a 2-vCPU VM (ROADMAP item 6).

Each product of two such spheres, of total dimension 3..5, must be an
orientable homology manifold with the Kuenneth homology of S^p x S^q
over both rings and rebuild from its (floor(d/2)+1)-skeleton.

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

# (seed, d, cells): the boundary of a shelling of up to `cells` (d+1)-faces of I^(d+2)
SPHERES = [(seed, d, 6 + seed % 5) for d in range(3, 7) for seed in range(1, 15)]
# (seed, p) and (seed, q) of the factors S^p and S^q
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


def _sphere(seed: int, d: int, cells: int = 8) -> sk.CubicalComplex:
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
    for seed, d, cells in SPHERES:
        s = _sphere(seed, d, cells)
        tops = len(s.maximal_faces())
        label = f"S^{d} seed {seed}, {cells} cells in I^{d + 2}, {len(s.faces)} faces, {tops} maximal"
        if tops <= 2 * (d + 1):
            print(f"skip {label}: a cube boundary", flush=True)
            continue
        ok &= _run(label, _checks(s, d, _sphere_betti(d)))
    for (seed_p, p), (seed_q, q) in PRODUCTS:
        m = sk.product_complex(_sphere(seed_p, p), _sphere(seed_q, q))
        label = f"S^{p} seed {seed_p} x S^{q} seed {seed_q}, {len(m.faces)} faces"
        ok &= _run(label, _checks(m, p + q, _kuenneth(_sphere_betti(p), _sphere_betti(q))))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

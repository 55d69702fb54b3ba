"""Seeded inputs, command lines and answer checks for the four CLI workloads.

Inputs are built with skelcube's public API only.  Expected answers are
facts about the spaces, not output of the code under test:

- reconstruct: a closed manifold is rebuilt from its middle skeleton, so
  the output equals the (relabelled) manifold the skeleton came from;
- manifold-check and homology-int: RP^2 x C_6 is a connected,
  non-orientable 3-manifold, and by Kuenneth its integer homology is
  Z, Z + Z/2, Z/2, 0;
- embed-refute: K_{2,3} is not a subgraph of any hypercube (two vertices
  at distance 2 share exactly two neighbours there, K_{2,3} needs three),
  and the graph is bipartite, so the CLI must refute without an odd cycle.

A seed applies one symmetry of the ambient cube (a coordinate
permutation plus a 0/1 flip per coordinate) to every complex input; it
changes labels, not the space or the cost.  The embed graph keeps its
numbering on every seed, because the search cost depends on which
vertex it starts from.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

NAMES = ("reconstruct", "manifold-check", "homology-int", "embed-refute")

# Minimal 6-vertex triangulation of RP^2 (10 triangles).
RP2_TRIANGLES = (
    (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 1),
    (1, 2, 4), (2, 3, 5), (3, 4, 1), (4, 5, 2), (5, 1, 3),
)


@dataclass(frozen=True)
class Prepared:
    """Files written for one workload plus everything the check needs."""

    argv: tuple[str, ...]           # CLI arguments after `python -m skelcube.cli`
    exit_code: int                  # expected exit status
    required_lines: tuple[str, ...] # stdout lines that must be present
    forbidden_prefixes: tuple[str, ...] = ()
    output_path: str | None = None  # file the CLI writes, compared byte for byte
    expected_output: str | None = None


def cube_symmetry(rng: random.Random, n: int):
    """A random symmetry of I^n as a function on face words."""
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


def relabel(sk, c, rng: random.Random):
    apply = cube_symmetry(rng, c.ambient_dim)
    return sk.CubicalComplex(c.ambient_dim, frozenset(apply(w) for w in c.faces))


def rp2_times_c6(sk):
    rp2 = sk.cubical_barycentric_subdivision([frozenset(t) for t in RP2_TRIANGLES])
    return sk.product_complex(rp2, sk.generate("even-cycle(6)"))


def embed_graph_edges():
    """Path 0-1-...-10 joined at vertex 10 to K_{2,3} with parts {10, 11}, {12, 13, 14}."""
    path = [(i, i + 1) for i in range(10)]
    k23 = [(u, v) for u in (10, 11) for v in (12, 13, 14)]
    return 15, path + k23


def _write(path: Path, text: str) -> str:
    path.write_text(text)
    return str(path)


def prepare(sk, name: str, seed: int, workdir: Path, smoke: bool = False) -> Prepared:
    """Build and write the inputs of one workload into workdir.

    smoke=True swaps in tiny inputs that run the same CLI paths in well
    under a second each (S^3 rebuilt from its 2-skeleton, RP^2 alone,
    K_{2,3} alone).
    """
    rng = random.Random(f"{name}:{seed}")
    if name == "reconstruct":
        if smoke:
            manifold, k, d = sk.cube_boundary(4), 2, 3
        else:
            manifold, k, d = sk.product_complex(sk.cube_boundary(4), sk.cube_boundary(3)), 3, 5
        manifold = relabel(sk, manifold, rng)
        src = _write(workdir / "skeleton.cplx", sk.serialize_complex(sk.skeleton(manifold, k)))
        out = str(workdir / "rebuilt.cplx")
        faces = 80 if smoke else 2080
        return Prepared(
            ("reconstruct", src, "-k", str(k), "-d", str(d), "-o", out),
            0,
            (f"faces {faces}", f"dimension {d}"),
            output_path=out,
            expected_output=sk.serialize_complex(manifold),
        )
    if name in ("manifold-check", "homology-int"):
        if smoke:
            space = sk.cubical_barycentric_subdivision([frozenset(t) for t in RP2_TRIANGLES])
        else:
            space = rp2_times_c6(sk)
        src = _write(workdir / "space.cplx", sk.serialize_complex(relabel(sk, space, rng)))
        dim = 2 if smoke else 3
        if name == "manifold-check":
            lines = ("manifold true", f"dimension {dim}", "orientable false", "components 1")
            return Prepared(("manifold-check", src), 0, lines)
        # RP^2: Z, Z/2, 0.  RP^2 x S^1: Z, Z + Z/2, Z/2, 0.
        betti = "betti 1 0 0" if smoke else "betti 1 1 0 0"
        torsion = ("torsion 1 2",) if smoke else ("torsion 1 2", "torsion 2 2")
        lines = (f"dimension {dim}", "ring int", betti) + torsion
        return Prepared(("homology", src, "--ring", "int"), 0, lines)
    if name == "embed-refute":
        if smoke:
            n, edges, nmax = 5, [(u, v) for u in (0, 1) for v in (2, 3, 4)], 3
        else:
            (n, edges), nmax = embed_graph_edges(), 6
        g = sk.SimpleGraph.from_edges(n, edges)
        src = _write(workdir / "graph.txt", sk.serialize_graph(g))
        return Prepared(
            ("embed", src, "--nmax", str(nmax)),
            1,
            (f"no embedding with n <= {nmax}",),
            forbidden_prefixes=("odd cycle",),
        )
    raise ValueError(f"unknown workload {name!r}")


def check(p: Prepared, exit_code: int, stdout: str, output_text: str | None) -> str | None:
    """Return None when the run's answer is right, else the reason it is wrong."""
    if exit_code != p.exit_code:
        return f"exit code {exit_code}, expected {p.exit_code}"
    lines = set(stdout.splitlines())
    for want in p.required_lines:
        if want not in lines:
            return f"missing output line {want!r}"
    for line in lines:
        if line.startswith(p.forbidden_prefixes):
            return f"unexpected output line {line!r}"
    if p.output_path is not None and output_text != p.expected_output:
        return f"{p.output_path} differs from the expected complex"
    return None

"""Command line interface.

Exit status: 0 success, 1 negative domain answer (not a manifold, no
embedding, empty auto reconstruction), 2 input error, 3 violated
contract, failed internal verification or memory exhausted.
"""

from __future__ import annotations

import argparse
import sys

# each command loads the layers it runs; annotations naming their classes are never evaluated
from .errors import ContractError, ContradictionError, StructuralError
from .io import parse_complex, parse_graph, serialize_complex, serialize_graph
from .words import mask_word


def _read(path: str) -> str:
    with open(path) as f:  # not pathlib, which no command then loads
        return f.read()


def _write(path: str, text: str) -> None:
    with open(path, "w") as f:
        f.write(text)


def _load_complex(path: str) -> CubicalComplex:
    c, added = parse_complex(_read(path))
    if added:
        print(f"note closure added {added} faces while reading {path}")
    return c


def _fmt_degree(data: tuple[int, tuple[int, ...]]) -> str:
    betti, torsion = data
    if torsion:
        return f"{betti}[{','.join(str(t) for t in torsion)}]"
    return str(betti)


def _cmd_homology(args) -> int:
    from .homology import cohomology_profile, homology_profile

    c = _load_complex(args.file)
    profile = cohomology_profile(c, args.ring) if args.cohomology else homology_profile(c, args.ring)
    print(f"ambient {c.ambient_dim}")
    print(f"faces {len(c.faces)}")
    print(f"dimension {c.dim}")
    print(f"ring {args.ring}")
    print("betti " + " ".join(str(b) for b in profile.betti))
    torsion_lines = [(j, t) for j, t in enumerate(profile.torsion) if t]
    if torsion_lines:
        for j, t in torsion_lines:
            print(f"torsion {j} " + " ".join(str(d) for d in t))
    else:
        print("torsion none")
    return 0


def _cmd_manifold_check(args) -> int:
    from .manifold import is_homology_manifold

    c = _load_complex(args.file)
    report = is_homology_manifold(c, check_orientability=True)
    print(f"manifold {'true' if report.is_manifold else 'false'}")
    if report.dimension is not None:
        print(f"dimension {report.dimension}")
    if report.orientable is not None:
        print(f"orientable {'true' if report.orientable else 'false'}")
    print(f"components {len(report.per_component)}")
    if report.failing_face is not None:
        print(f"failing-face {report.failing_face}")
    return 0 if report.is_manifold else 1


def _cmd_skeleton(args) -> int:
    from .complex import skeleton

    c = _load_complex(args.file)
    out = skeleton(c, args.k)
    _write(args.output, serialize_complex(out))
    print(f"faces {len(out.faces)}")
    print(f"dimension {out.dim}")
    print(f"wrote {args.output}")
    return 0


def _print_verdicts(step) -> None:
    accepted = sum(1 for v in step.verdicts if v.accepted)
    print(f"step degree={step.degree} candidates={len(step.verdicts)} accepted={accepted}")
    for v in step.verdicts:
        bits = [
            f"candidate {v.face}",
            f"boundary={'present' if v.boundary_present else 'absent'}",
            f"accepted={'yes' if v.accepted else 'no'}",
        ]
        for j, left, right in v.profiles:
            bits.append(f"j={j} deleted={_fmt_degree(left)} base={_fmt_degree(right)}")
        print(" ".join(bits))


def _cmd_reconstruct(args) -> int:
    from .reconstruct import STANDARD, ReconstructionConfig, _check_mode_and_k, reconstruct_auto, reconstruct_steps

    # each range option belongs to one search; refuse one that would go unread
    if args.auto and args.dmax is None:
        raise StructuralError("--auto requires --dmax")
    if args.auto and args.d is not None:
        raise StructuralError("-d does not apply with --auto, which tries each d up to --dmax")
    if not args.auto and args.dmax is not None:
        raise StructuralError("--dmax applies only with --auto")
    if not args.auto and args.d is None:
        raise StructuralError("reconstruct requires -d or --auto")
    c = _load_complex(args.file)
    if args.auto:
        _check_mode_and_k(args.mode, args.k)  # before the auto line, which would echo a refused k in full
        print(f"auto k={args.k} dmax={args.dmax} tight={'off' if args.mode == STANDARD else args.mode}")
        results = reconstruct_auto(c, args.k, args.dmax, args.mode)
        for d, cx in results:
            print(f"result d={d} faces={len(cx.faces)}")
        if not results:
            print("no manifold found")
            return 1
        d, cx = results[0]
        _write(args.output, serialize_complex(cx))
        print(f"wrote {args.output} (d={d})")
        return 0
    # the contract is checked before the mode line, which would echo a refused number in full
    steps = reconstruct_steps(c, ReconstructionConfig(args.k, args.d, args.mode))
    print(f"mode {args.mode} k={args.k} d={args.d}")
    current = c
    for step in steps:
        _print_verdicts(step)
        current = step.complex_after
    print(f"faces {len(current.faces)}")
    print(f"dimension {current.dim}")
    _write(args.output, serialize_complex(current))
    print(f"wrote {args.output}")
    return 0


def find_graph_embedding(g: SimpleGraph, n_max: int) -> HypercubeEmbedding | None:
    """`embedding.find_graph_embedding`, its module loaded by the first call.

    The benchmark's tracer (`perfbench/traced.py`) times the search by
    wrapping this module attribute, so the name stays here while the
    search loads only for `embed`.  Once the benchmark unpins its call
    sites (ROADMAP item 1a), `_cmd_embed` may import the search itself.
    """
    from .embedding import find_graph_embedding

    return find_graph_embedding(g, n_max)


def _cmd_embed(args) -> int:
    from .embedding import embedding_obstruction, labelling_from_embedding, verify_labelling

    g = parse_graph(_read(args.file))
    emb = find_graph_embedding(g, args.nmax)
    if emb is None:
        print(f"no embedding with n <= {args.nmax}")
        reason, witness = embedding_obstruction(g, args.nmax) or ("search", ())
        if reason == "odd-cycle":
            print("odd cycle " + " ".join(str(v) for v in witness))
            print("reason odd-cycle")
        else:
            print(" ".join(["reason", reason, *(str(v) for v in witness)]))
        return 1
    print(f"embedding found n={emb.n}")
    for i, code in enumerate(emb.codes):
        print(f"vertex {i} {mask_word(emb.n, code, 0)}")
    labels = labelling_from_embedding(emb, g)
    for (u, v), lab in sorted(labels.items()):
        print(f"edge {u} {v} label {lab}")
    if g.edges and g.is_connected():
        if not verify_labelling(g, labels):
            raise ContradictionError("labelling from embedding failed verification")
        print("labelling verified")
    return 0


def _cmd_generate(args) -> int:
    from .generators import generate
    from .graph import SimpleGraph

    text = args.family
    if args.params:
        text += "(" + ", ".join(args.params) + ")"
    obj = generate(text)
    if isinstance(obj, SimpleGraph):
        _write(args.output, serialize_graph(obj))
        print(f"graph vertices={obj.num_vertices} edges={len(obj.edges)}")
    else:
        _write(args.output, serialize_complex(obj))
        print(f"complex ambient={obj.ambient_dim} faces={len(obj.faces)} dimension={obj.dim}")
    print(f"wrote {args.output}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    # ring, mode and family names are spelt out, so building the parser
    # loads no layer; tests/test_cli.py holds them to the library's own
    parser = argparse.ArgumentParser(
        prog="skelcube",
        description="Cubical complexes in hypercubes: homology, manifold checks, "
        "skeleton reconstruction, embeddability",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("homology", help="homology profile of a complex file")
    p.add_argument("file")
    p.add_argument("--ring", choices=["gf2", "int"], default="gf2")
    p.add_argument("--cohomology", action="store_true", help="report cohomology instead")
    p.set_defaults(func=_cmd_homology)

    p = sub.add_parser("manifold-check", help="homology manifold test with orientability")
    p.add_argument("file")
    p.set_defaults(func=_cmd_manifold_check)

    p = sub.add_parser("skeleton", help="write the k-skeleton of a complex")
    p.add_argument("file")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_skeleton)

    p = sub.add_parser("reconstruct", help="rebuild a manifold from its k-skeleton")
    p.add_argument("file")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-d", type=int)
    p.add_argument("--auto", action="store_true")
    p.add_argument("--dmax", type=int)
    p.add_argument("--mode", choices=["standard", "tight-gf2", "tight-int"], default="standard")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("embed", help="embed a graph into a hypercube graph")
    p.add_argument("file")
    p.add_argument("--nmax", type=int, required=True)
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser(
        "generate",
        help="write a named complex or graph (cube, boundary-cube, "
        "skeleton-of, even-cycle, product, disjoint-union, cbs, graph-c3, graph-k23)",
    )
    p.add_argument("family")
    p.add_argument("params", nargs="*", help="integers or nested specs like 'boundary-cube(3)'")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_generate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ContractError as exc:
        print(f"contract violation: {exc}", file=sys.stderr)
        return 3
    except ContradictionError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 3
    except (StructuralError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("out of memory: the input is too large for this computation", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

"""Named families of test complexes and graphs.

Specs are written family(arg, ...) with integer or nested-spec
arguments, e.g. "product(boundary-cube(3), boundary-cube(2))".
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .complex import CubicalComplex, closure, cube_boundary, full_cube, product_complex, skeleton
from .embedding import SimpleGraph
from .errors import StructuralError
from .words import ONE, STAR, ZERO

__all__ = [
    "GeneratorSpec",
    "parse_generator_spec",
    "generate",
    "cubical_barycentric_subdivision",
    "corpus",
    "FAMILIES",
]


@dataclass(frozen=True)
class GeneratorSpec:
    family: str
    args: tuple = ()

    def __str__(self) -> str:
        if not self.args:
            return self.family
        return f"{self.family}({', '.join(str(a) for a in self.args)})"


def parse_generator_spec(text: str) -> GeneratorSpec:
    text = text.strip()
    spec, rest = _parse_spec(text, 0)
    if rest != len(text):
        raise StructuralError(f"trailing input in generator spec: {text[rest:]!r}")
    return spec


def _parse_spec(text: str, i: int) -> tuple[GeneratorSpec, int]:
    start = i
    while i < len(text) and (text[i].isalnum() or text[i] == "-"):
        i += 1
    name = text[start:i]
    if not name:
        raise StructuralError(f"expected a family name at position {start} of {text!r}")
    if i == len(text) or text[i] != "(":
        return GeneratorSpec(name), i
    i += 1
    args: list = []
    while True:
        while i < len(text) and text[i] == " ":
            i += 1
        if i < len(text) and text[i] == ")":
            i += 1
            break
        if i < len(text) and (text[i].isdigit() or (text[i] == "-" and text[i + 1 : i + 2].isdigit())):
            start = i
            if text[i] == "-":
                i += 1
            while i < len(text) and text[i].isdigit():
                i += 1
            args.append(int(text[start:i]))
        else:
            spec, i = _parse_spec(text, i)
            args.append(spec)
        while i < len(text) and text[i] == " ":
            i += 1
        if i < len(text) and text[i] == ",":
            i += 1
        elif i < len(text) and text[i] == ")":
            i += 1
            break
        else:
            raise StructuralError(f"expected ',' or ')' at position {i} of {text!r}")
    return GeneratorSpec(name, tuple(args)), i


def _int_arg(spec: GeneratorSpec, pos: int) -> int:
    if pos >= len(spec.args) or not isinstance(spec.args[pos], int):
        raise ValueError(f"{spec.family} needs an integer argument at position {pos}")
    return spec.args[pos]


def _complex_arg(spec: GeneratorSpec, pos: int) -> CubicalComplex:
    if pos >= len(spec.args) or not isinstance(spec.args[pos], GeneratorSpec):
        raise ValueError(f"{spec.family} needs a nested spec argument at position {pos}")
    out = generate(spec.args[pos])
    if not isinstance(out, CubicalComplex):
        raise ValueError(f"{spec.family} argument {spec.args[pos]} is a graph, not a complex")
    return out


def _arity(spec: GeneratorSpec, n: int) -> None:
    if len(spec.args) != n:
        raise ValueError(f"{spec.family} takes {n} argument(s), got {len(spec.args)}")


def cubical_barycentric_subdivision(simplices, num_vertices: int | None = None) -> CubicalComplex:
    """Cubes are intervals [sigma, tau] of the simplex poset.

    A simplex is a set of vertex indices; the input is closed downward
    here for convenience.  The interval [sigma, tau] embeds into the
    cube on the vertex set as the word with ones on sigma, stars on
    tau minus sigma and zeros elsewhere.
    """
    closed: set[frozenset[int]] = set()
    for s in simplices:
        s = frozenset(s)
        if not s:
            raise StructuralError("simplices must be nonempty vertex sets")
        if any(v < 0 for v in s):
            raise StructuralError("vertex indices must be nonnegative")
        for r in range(1, len(s) + 1):
            for sub in combinations(sorted(s), r):
                closed.add(frozenset(sub))
    if not closed:
        raise StructuralError("cubical barycentric subdivision of an empty complex is undefined")
    n = max(max(s) for s in closed) + 1
    if num_vertices is not None:
        if num_vertices < n:
            raise StructuralError("num_vertices is smaller than the largest vertex index")
        n = num_vertices
    faces = set()
    for tau in closed:
        members = sorted(tau)
        for r in range(1, len(members) + 1):
            for sigma in combinations(members, r):
                word = [ZERO] * n
                for v in tau:
                    word[v] = STAR
                for v in sigma:
                    word[v] = ONE
                faces.add("".join(word))
    return CubicalComplex(n, frozenset(faces))


def _polygon(m: int):
    """Boundary of an m-gon as a simplicial complex on vertices 0..m-1."""
    return [frozenset({i, (i + 1) % m}) for i in range(m)]


def generate(spec: GeneratorSpec | str):
    """Build the complex or graph named by a generator spec."""
    if isinstance(spec, str):
        spec = parse_generator_spec(spec)
    family = spec.family
    if family == "cube":
        _arity(spec, 1)
        n = _int_arg(spec, 0)
        if n < 0:
            raise ValueError("cube dimension must be nonnegative")
        return full_cube(n)
    if family == "boundary-cube":
        _arity(spec, 1)
        n = _int_arg(spec, 0)
        if n < 1:
            raise ValueError("boundary-cube needs n >= 1")
        return cube_boundary(n)
    if family == "skeleton-of":
        _arity(spec, 2)
        base = _complex_arg(spec, 0)
        return skeleton(base, _int_arg(spec, 1))
    if family == "even-cycle":
        _arity(spec, 1)
        length = _int_arg(spec, 0)
        if length < 4 or length % 2:
            raise ValueError(f"cycle complexes exist only for even length >= 4, got {length}")
        if length == 4:
            return cube_boundary(2)
        return cubical_barycentric_subdivision(_polygon(length // 2))
    if family == "product":
        _arity(spec, 2)
        return product_complex(_complex_arg(spec, 0), _complex_arg(spec, 1))
    if family == "disjoint-union":
        _arity(spec, 2)
        a = _complex_arg(spec, 0)
        b = _complex_arg(spec, 1)
        # one extra splitting coordinate keeps the copies vertex-disjoint
        # even when both operands use all corners of their blocks
        na, nb = a.ambient_dim, b.ambient_dim
        faces = {w + ZERO * nb + ZERO for w in a.faces}
        faces.update(ZERO * na + w + ONE for w in b.faces)
        return CubicalComplex(na + nb + 1, frozenset(faces))
    if family == "cbs":
        _arity(spec, 1)
        m = _int_arg(spec, 0)
        if m < 3:
            raise ValueError(f"cbs takes a polygon size >= 3, got {m}")
        return cubical_barycentric_subdivision(_polygon(m))
    if family == "graph-c3":
        _arity(spec, 0)
        return SimpleGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    if family == "graph-k23":
        _arity(spec, 0)
        return SimpleGraph.from_edges(5, [(u, v) for u in (0, 1) for v in (2, 3, 4)])
    raise ValueError(f"unknown generator family {family!r}")


FAMILIES = (
    "cube",
    "boundary-cube",
    "skeleton-of",
    "even-cycle",
    "product",
    "disjoint-union",
    "cbs",
    "graph-c3",
    "graph-k23",
)


def corpus() -> list[tuple[str, CubicalComplex]]:
    """Standard complexes used across the test suite."""
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
    return [(name, generate(text)) for name, text in specs]

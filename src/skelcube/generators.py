"""Named families of test complexes and graphs.

Specs are written family(arg, ...) with integer or nested-spec
arguments, e.g. "product(boundary-cube(3), boundary-cube(2))".
FAMILIES maps each family name to the kinds of its arguments (an
integer or a complex, given by a nested spec) and the builder they are
passed to; the builders check the ranges of their own arguments.
"""

from __future__ import annotations

from .complex import CubicalComplex, _check_size, _derived, cube_boundary, full_cube, product_complex, skeleton
from .errors import StructuralError, _Record
from .graph import SimpleGraph
from .words import ONE, STAR, ZERO, _named, _number, subwords

__all__ = [
    "GeneratorSpec",
    "parse_generator_spec",
    "generate",
    "cubical_barycentric_subdivision",
    "FAMILIES",
]


class GeneratorSpec(_Record):
    _fields = ("family", "args")

    def __init__(self, family: str, args: tuple = ()):
        self.__dict__.update(family=family, args=args)

    def __str__(self) -> str:
        if not self.args:
            return self.family
        return f"{self.family}({', '.join(str(a) for a in self.args)})"


# Deepest nesting of specs a parse accepts.  The parser recurses once per
# level, so a very deep spec would exhaust the interpreter's stack; the
# three-torus, product(product(boundary-cube(2), ...), ...), nests 3.
MAX_SPEC_DEPTH = 32


def parse_generator_spec(text: str) -> GeneratorSpec:
    text = text.strip()
    spec, rest = _parse_spec(text, 0)
    if rest != len(text):
        raise StructuralError(f"trailing input in generator spec: {_named(text[rest:])}")
    return spec


def _parse_spec(text: str, i: int, depth: int = 1) -> tuple[GeneratorSpec, int]:
    if depth > MAX_SPEC_DEPTH:
        raise StructuralError(f"generator spec nests deeper than {MAX_SPEC_DEPTH} levels")
    start = i
    while i < len(text) and (text[i].isalnum() or text[i] == "-"):
        i += 1
    name = text[start:i]
    if not name:
        raise StructuralError(f"expected a family name at position {start} of {_named(text)}")
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
        if i < len(text) and (text[i].isdecimal() or (text[i] == "-" and text[i + 1 : i + 2].isdecimal())):
            start = i
            if text[i] == "-":
                i += 1
            while i < len(text) and text[i].isdecimal():
                i += 1
            args.append(int(text[start:i]))
        else:
            spec, i = _parse_spec(text, i, depth + 1)
            args.append(spec)
        while i < len(text) and text[i] == " ":
            i += 1
        if i < len(text) and text[i] == ",":
            i += 1
        elif i < len(text) and text[i] == ")":
            i += 1
            break
        else:
            raise StructuralError(f"expected ',' or ')' at position {i} of {_named(text)}")
    return GeneratorSpec(name, tuple(args)), i


def cubical_barycentric_subdivision(simplices) -> CubicalComplex:
    """Cubes are intervals [sigma, tau] of the simplex poset.

    A simplex is a set of vertex indices, and the input need not be
    closed downward.  The interval [sigma, tau] embeds into the cube on
    the vertex set as the word with ones on sigma, stars on tau minus
    sigma and zeros elsewhere, so the intervals below a simplex s are the
    subwords of its cube that hold a ONE: 3**|s| - 2**|s| of them, which
    bound the size before anything is built.  Each is spelt on the span
    of s and padded with zeros.
    """
    given = {frozenset(s) for s in simplices}
    if frozenset() in given:
        raise StructuralError("simplices must be nonempty vertex sets")
    if any(v < 0 for s in given for v in s):
        raise StructuralError("vertex indices must be nonnegative")
    if not given:
        raise StructuralError("cubical barycentric subdivision of an empty complex is undefined")
    n = max(max(s) for s in given) + 1
    _check_size("cubical barycentric subdivision", sum(3 ** len(s) - 2 ** len(s) for s in given), n)
    faces = set()
    for s in given:
        lo, hi = min(s), max(s)
        span = "".join(STAR if v in s else ZERO for v in range(lo, hi + 1))
        head, tail = ZERO * lo, ZERO * (n - 1 - hi)
        faces.update(head + w + tail for w in subwords(span) if ONE in w)
    return _derived(n, frozenset(faces))


def _cbs_polygon(m: int) -> CubicalComplex:
    """Subdivided boundary of an m-gon: a cycle of 2m edges in I^m."""
    if m < 3:
        raise ValueError(f"cbs takes a polygon size >= 3, got {_number(m)}")
    # the count the subdivision checks, 3**2 - 2**2 intervals per edge, before the edges are listed
    _check_size("cubical barycentric subdivision", 5 * m, m)
    return cubical_barycentric_subdivision([frozenset({i, (i + 1) % m}) for i in range(m)])


def _even_cycle(length: int) -> CubicalComplex:
    if length < 4 or length % 2:
        raise ValueError(f"cycle complexes exist only for even length >= 4, got {_number(length)}")
    return cube_boundary(2) if length == 4 else _cbs_polygon(length // 2)


def _disjoint_union(a: CubicalComplex, b: CubicalComplex) -> CubicalComplex:
    # one extra splitting coordinate keeps the copies vertex-disjoint
    # even when both operands use all corners of their blocks
    na, nb = a.ambient_dim, b.ambient_dim
    _check_size("disjoint union", len(a.faces) + len(b.faces), na + nb + 1)
    faces = {w + ZERO * nb + ZERO for w in a.faces}
    faces.update(ZERO * na + w + ONE for w in b.faces)
    return _derived(na + nb + 1, frozenset(faces))


# name -> (argument kinds, builder); a nested spec is built before the check
FAMILIES = {
    "cube": ((int,), full_cube),
    "boundary-cube": ((int,), cube_boundary),
    "skeleton-of": ((CubicalComplex, int), skeleton),
    "even-cycle": ((int,), _even_cycle),
    "product": ((CubicalComplex, CubicalComplex), product_complex),
    "disjoint-union": ((CubicalComplex, CubicalComplex), _disjoint_union),
    "cbs": ((int,), _cbs_polygon),
    "graph-c3": ((), lambda: SimpleGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)])),
    "graph-k23": ((), lambda: SimpleGraph.from_edges(5, [(u, v) for u in (0, 1) for v in (2, 3, 4)])),
}

_KIND_NAMES = {int: "integer", CubicalComplex: "complex"}


def generate(spec: GeneratorSpec | str):
    """Build the complex or graph named by a generator spec."""
    if isinstance(spec, str):
        spec = parse_generator_spec(spec)
    if spec.family not in FAMILIES:
        raise ValueError(f"unknown generator family {_named(spec.family)}")
    kinds, build = FAMILIES[spec.family]
    args = [generate(a) if isinstance(a, GeneratorSpec) else a for a in spec.args]
    if len(args) != len(kinds) or not all(isinstance(a, kind) for a, kind in zip(args, kinds)):
        expected = ", ".join(_KIND_NAMES[kind] for kind in kinds)
        got = str(spec)
        if len(got) > 64:  # named by its family and argument count, as `_named` names a long word
            got = f"{spec.family}(...) with {len(args)} argument{'s' * (len(args) != 1)}"
        raise ValueError(f"{spec.family} takes ({expected}), got {got}")
    return build(*args)

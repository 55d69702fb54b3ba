"""Line-oriented file formats for complexes and graphs.

Complex files start with "ambient <n>" followed by one face word per
line.  Parsing closes the face set downward; serialization writes only
the maximal faces in canonical order, so parse and serialize are
mutually inverse exactly on canonical files.  Graph files start with
"vertices <n>" followed by "u v" edge lines.  Full-line comments start
with '#'; blank lines are ignored, except that in an "ambient 0" file a
blank line after the header is the empty word, the one face of I^0.
"""

from __future__ import annotations

# `complex` loads in `parse_complex` alone and `graph` in `parse_graph`; annotations
# naming CubicalComplex or SimpleGraph are never evaluated
from .errors import StructuralError
from .words import _named, _number

__all__ = ["parse_complex", "serialize_complex", "parse_graph", "serialize_graph"]

# Most vertices a graph file may declare.  The header alone makes the
# embedding search allocate per vertex (a peak of about 0.8 KB each
# under tracemalloc, so about 0.8 GB at the bound), so a huge count
# could exhaust memory; 2^20 is the vertex count of Q_20.
MAX_GRAPH_VERTICES = 1 << 20


def _content_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line


def _header(text: str, keyword: str, what: str, empty: str) -> tuple[list[tuple[int, str]], int, int]:
    """The content lines after a '<keyword> <n>' header, the header's line number and n; `what` names n."""
    lines = list(_content_lines(text))
    if not lines:
        raise StructuralError(empty)
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 2 or parts[0] != keyword:
        raise StructuralError(f"line {lineno}: expected '{keyword} <n>', got {_named(header)}")
    try:
        return lines[1:], lineno, int(parts[1])
    except ValueError:
        raise StructuralError(f"line {lineno}: {what} {_named(parts[1])} is not an integer") from None


def parse_complex(text: str) -> tuple[CubicalComplex, int]:
    """Parse a complex file; returns (complex, number of faces added by closure)."""
    from .complex import closure

    empty = "empty complex file, expected an 'ambient <n>' header"
    lines, head, n = _header(text, "ambient", "ambient dimension", empty)
    if n < 0:
        raise StructuralError(f"line {head}: ambient dimension must be nonnegative")
    generators = []
    for lineno, line in lines:
        if len(line.split()) != 1:
            raise StructuralError(f"line {lineno}: expected a single face word, got {_named(line)}")
        generators.append(line)
    # the empty word, the one face of I^0, serializes as a blank line
    if n == 0 and any(not raw.strip() for raw in text.splitlines()[head:]):
        generators.append("")
    try:
        c = closure(n, generators)
    except StructuralError as exc:
        raise StructuralError(f"bad face word: {exc}") from None
    return c, len(c.faces) - len(set(generators))


def serialize_complex(c: CubicalComplex) -> str:
    """The header and `maximal_faces`, of the set as given: parsing closes it again, so the file reads back as its closure."""
    lines = [f"ambient {c.ambient_dim}"]
    lines.extend(c.maximal_faces())
    return "\n".join(lines) + "\n"


def parse_graph(text: str) -> SimpleGraph:
    from .graph import SimpleGraph, _normalize_edge

    empty = "empty graph file, expected a 'vertices <n>' header"
    lines, head, n = _header(text, "vertices", "vertex count", empty)
    if n > MAX_GRAPH_VERTICES:
        raise StructuralError(f"line {head}: vertex count {_number(n)} exceeds the bound {MAX_GRAPH_VERTICES}")
    edges = set()
    for lineno, line in lines:
        parts = line.split()
        if len(parts) != 2:
            raise StructuralError(f"line {lineno}: expected 'u v', got {_named(line)}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise StructuralError(f"line {lineno}: endpoints must be integers") from None
        if u == v:
            raise StructuralError(f"line {lineno}: loop at vertex {u}")
        e = _normalize_edge(u, v)
        if e in edges:
            raise StructuralError(f"line {lineno}: duplicate edge {u} {v}")
        edges.add(e)
    try:
        return SimpleGraph(n, frozenset(edges))
    except StructuralError as exc:
        raise StructuralError(f"bad graph: {exc}") from None


def serialize_graph(g: SimpleGraph) -> str:
    lines = [f"vertices {g.num_vertices}"]
    lines.extend(f"{u} {v}" for u, v in sorted(g.edges))
    return "\n".join(lines) + "\n"

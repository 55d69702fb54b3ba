"""CLI output pinned byte for byte against a committed transcript.

`transcript()` runs a fixed list of commands in the current directory
with relative paths, so every `note …` and `wrote …` line is the same
wherever it runs, and records each command, its stdout, its exit code
and the files it wrote.  tests/data/cli_golden.txt holds the transcript
of a known-good build; a change that alters any answer, line or file
shows up as a diff against it.
"""

from __future__ import annotations

import contextlib
import io
import time
from pathlib import Path

import skelcube as sk
from skelcube.cli import main
from skelcube.io import serialize_complex, serialize_graph

from helpers import heawood_graph, projective_plane

GOLDEN = Path(__file__).parent / "data" / "cli_golden.txt"


def _run(out: list[str], argv: list[str], writes: str | None = None) -> None:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    out.append("$ skelcube " + " ".join(argv) + "\n")
    out.append(buf.getvalue())
    out.append(f"exit {code}\n")
    if writes is not None:
        out.append(f"--- {writes}\n" + Path(writes).read_text())


def transcript() -> str:
    """Run every pinned command in the current directory and return what they printed and wrote."""
    out: list[str] = []
    corpus = [name for name, _ in sk.corpus()]
    for name, c in sk.corpus() + [("rp2", projective_plane())]:
        Path(f"{name}.cplx").write_text(serialize_complex(c))
    for name in corpus + ["rp2"]:
        for ring in (sk.GF2, sk.INTEGER):
            _run(out, ["homology", f"{name}.cplx", "--ring", ring])
            _run(out, ["homology", f"{name}.cplx", "--ring", ring, "--cohomology"])
    for name in corpus:
        _run(out, ["manifold-check", f"{name}.cplx"])
    _run(out, ["skeleton", "sphere-3.cplx", "-k", "2", "-o", "s3-k2.cplx"], "s3-k2.cplx")
    _run(out, ["reconstruct", "s3-k2.cplx", "-k", "2", "-d", "3", "-o", "s3.cplx"], "s3.cplx")
    _run(out, ["skeleton", "sphere-4.cplx", "-k", "2", "-o", "s4-k2.cplx"], "s4-k2.cplx")
    _run(out, ["reconstruct", "s4-k2.cplx", "-k", "2", "-d", "4", "--mode", "tight-gf2", "-o", "s4.cplx"], "s4.cplx")
    _run(out, ["generate", "graph-c3", "-o", "c3.graph"], "c3.graph")
    _run(out, ["generate", "graph-k23", "-o", "k23.graph"], "k23.graph")
    Path("heawood.graph").write_text(serialize_graph(heawood_graph()))
    Path("q3.graph").write_text(serialize_graph(sk.graph_of(sk.full_cube(3))))
    for graph, nmax in (("c3", 3), ("k23", 4), ("heawood", 6), ("q3", 3)):
        _run(out, ["embed", f"{graph}.graph", "--nmax", str(nmax)])
    return "".join(out)


def test_cli_output_matches_the_golden_transcript(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    t0 = time.process_time()
    got = transcript()
    assert time.process_time() - t0 < 1.5
    want = GOLDEN.read_text()
    assert got.splitlines() == want.splitlines()
    assert got == want

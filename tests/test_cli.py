import argparse
import random
import time

import pytest

import skelcube as sk
from skelcube.cli import build_parser, main
from skelcube.generators import FAMILIES, _disjoint_union
from skelcube.io import parse_complex, parse_graph, serialize_complex, serialize_graph

from helpers import heawood_graph, path_joined_to_k23, projective_plane, run_in_fresh_interpreters


def write_complex(tmp_path, name, c):
    path = tmp_path / name
    path.write_text(serialize_complex(c))
    return str(path)


def write_graph(tmp_path, name, g):
    path = tmp_path / name
    path.write_text(serialize_graph(g))
    return str(path)


def cycle_file(tmp_path, m):
    g = sk.SimpleGraph.from_edges(m, [(i, (i + 1) % m) for i in range(m)])
    return write_graph(tmp_path, f"c{m}.graph", g)


def test_complex_round_trip():
    c = sk.cube_boundary(3)
    text = serialize_complex(c)
    back, added = parse_complex(text)
    assert back == c
    assert added == 20  # six squares listed, closure fills in the rest
    assert serialize_complex(back) == text
    assert text.endswith("\n")
    # the point's one face is the empty word, written as a blank line;
    # without it the file holds the empty complex of I^0
    for c, text in ((sk.full_cube(0), "ambient 0\n\n"), (sk.CubicalComplex(0, frozenset()), "ambient 0\n")):
        assert serialize_complex(c) == text
        assert parse_complex(text) == (c, 0)


def test_complex_parse_skips_comments_and_blanks():
    text = "# a sphere\n\nambient 2\n # say\n0*\n1*\n*0\n*1\n"
    c, added = parse_complex(text)
    assert c == sk.cube_boundary(2)
    assert added == 4


def test_complex_parse_errors():
    for text in ["", "faces 2\n", "ambient x\n", "ambient -1\n", "ambient 2\n0* 1*\n", "ambient 2\n0*2\n"]:
        with pytest.raises(sk.StructuralError):
            parse_complex(text)


def test_complex_parse_counts_nothing_when_closure_listed():
    c = sk.cube_boundary(2)
    text = "ambient 2\n" + "\n".join(c.sorted_faces()) + "\n"
    _, added = parse_complex(text)
    assert added == 0


def test_graph_round_trip_and_errors():
    g = sk.SimpleGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert parse_graph(serialize_graph(g)) == g
    for text in ["", "vertices x\n", "vertices 3\n0\n", "vertices 3\n0 0\n",
                 "vertices 3\n0 1\n1 0\n", "vertices 2\n0 5\n"]:
        with pytest.raises(sk.StructuralError):
            parse_graph(text)


def body_lines(captured: str) -> list[str]:
    # serialized files carry only maximal faces, so loading always
    # triggers the closure note; the commands' own output follows it
    lines = captured.splitlines()
    assert lines and lines[0].startswith("note closure added ")
    return lines[1:]


def test_homology_command(tmp_path, capsys):
    torus = sk.product_complex(sk.cube_boundary(2), sk.cube_boundary(2))
    path = write_complex(tmp_path, "torus.cplx", torus)
    assert main(["homology", path]) == 0
    out = body_lines(capsys.readouterr().out)
    assert out == [
        "ambient 4",
        "faces 64",
        "dimension 2",
        "ring gf2",
        "betti 1 2 1",
        "torsion none",
    ]


def test_homology_command_integer_torsion(tmp_path, capsys):
    path = write_complex(tmp_path, "rp2.cplx", projective_plane())
    assert main(["homology", path, "--ring", "int"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "betti 1 0 0" in out
    assert "torsion 1 2" in out
    assert main(["homology", path, "--ring", "int", "--cohomology"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "betti 1 0 0" in out
    assert "torsion 2 2" in out


def test_homology_command_notes_closure(tmp_path, capsys):
    path = tmp_path / "cube.cplx"
    path.write_text("ambient 3\n***\n")
    assert main(["homology", str(path)]) == 0
    out = capsys.readouterr().out
    assert f"note closure added 26 faces while reading {path}" in out
    assert "betti 1 0 0 0" in out


def test_manifold_check_command(tmp_path, capsys):
    sphere = write_complex(tmp_path, "s2.cplx", sk.cube_boundary(3))
    assert main(["manifold-check", sphere]) == 0
    out = body_lines(capsys.readouterr().out)
    assert out == ["manifold true", "dimension 2", "orientable true", "components 1"]

    disc = write_complex(tmp_path, "disc.cplx", sk.full_cube(2))
    assert main(["manifold-check", disc]) == 1
    out = body_lines(capsys.readouterr().out)
    assert out[0] == "manifold false"
    assert any(line.startswith("failing-face ") for line in out)


def test_skeleton_command(tmp_path, capsys):
    src = write_complex(tmp_path, "s3.cplx", sk.cube_boundary(4))
    dst = str(tmp_path / "skel.cplx")
    assert main(["skeleton", src, "-k", "2", "-o", dst]) == 0
    out = capsys.readouterr().out
    assert "faces 72" in out and "dimension 2" in out
    written, _ = parse_complex((tmp_path / "skel.cplx").read_text())
    assert written == sk.skeleton(sk.cube_boundary(4), 2)


def test_reconstruct_command_verbose_and_deterministic(tmp_path, capsys):
    skel = sk.skeleton(sk.cube_boundary(4), 2)
    src = write_complex(tmp_path, "skel.cplx", skel)
    out1 = str(tmp_path / "out1.cplx")
    out2 = str(tmp_path / "out2.cplx")

    assert main(["reconstruct", src, "-k", "2", "-d", "3", "-o", out1]) == 0
    text1 = capsys.readouterr().out
    assert "mode standard k=2 d=3" in text1
    assert "step degree=2 candidates=8 accepted=8" in text1
    assert text1.count("candidate ") == 8
    assert "accepted=yes" in text1

    assert main(["reconstruct", src, "-k", "2", "-d", "3", "-o", out2]) == 0
    text2 = capsys.readouterr().out
    assert text1.replace(out1, "OUT") == text2.replace(out2, "OUT")
    assert (tmp_path / "out1.cplx").read_bytes() == (tmp_path / "out2.cplx").read_bytes()
    rebuilt, _ = parse_complex((tmp_path / "out1.cplx").read_text())
    assert rebuilt == sk.cube_boundary(4)


def test_reconstruct_command_reports_rejections(tmp_path, capsys):
    m = sk.product_complex(sk.cube_boundary(3), sk.cube_boundary(2))
    src = write_complex(tmp_path, "skel.cplx", sk.skeleton(m, 2))
    dst = str(tmp_path / "out.cplx")
    assert main(["reconstruct", src, "-k", "2", "-d", "3", "-o", dst]) == 0
    out = capsys.readouterr().out
    assert "step degree=2 candidates=28 accepted=24" in out
    assert "candidate ***00 boundary=present accepted=no j=1 deleted=0 base=1 j=0 deleted=1 base=1" in out
    rebuilt, _ = parse_complex((tmp_path / "out.cplx").read_text())
    assert rebuilt == m


def test_reconstruct_command_in_a_large_ambient_cube(tmp_path, capsys):
    # the 3-sphere padded with zeros into I^14: candidates come from the
    # skeleton's own faces, not from the C(14,3) * 2^11 ambient 3-faces
    s3 = sk.product_complex(sk.cube_boundary(4), sk.closure(10, ["0" * 10]))
    src = write_complex(tmp_path, "skel.cplx", sk.skeleton(s3, 2))
    dst = str(tmp_path / "out.cplx")
    start = time.process_time()
    assert main(["reconstruct", src, "-k", "2", "-d", "3", "-o", dst]) == 0
    assert time.process_time() - start <= 0.5
    assert "step degree=2 candidates=8 accepted=8" in capsys.readouterr().out
    rebuilt, _ = parse_complex((tmp_path / "out.cplx").read_text())
    assert rebuilt == s3


def test_reconstruct_auto_command(tmp_path, capsys):
    src = write_complex(tmp_path, "skel.cplx", sk.skeleton(sk.cube_boundary(3), 2))
    dst = str(tmp_path / "auto.cplx")
    # no mode admits d > 2k, so a --dmax far above 2k does no further work
    for dmax in ("4", str(10**18)):
        assert main(["reconstruct", src, "-k", "2", "--auto", "--dmax", dmax, "-o", dst]) == 0
        out = capsys.readouterr().out
        assert f"auto k=2 dmax={dmax} tight=off" in out
        assert "result d=2 faces=26" in out
        assert f"wrote {dst} (d=2)" in out
        rebuilt, _ = parse_complex((tmp_path / "auto.cplx").read_text())
        assert rebuilt == sk.cube_boundary(3)


def test_reconstruct_refuses_a_target_above_the_ambient_dimension(tmp_path, capsys):
    src = write_complex(tmp_path, "skel.cplx", sk.skeleton(sk.cube_boundary(4), 2))
    dst = tmp_path / "out.cplx"
    nines = "9" * 4000
    for k, d, named in (
        ("5", "9", "9"),
        ("20000", "39999", "39999"),
        (nines, nines, "99999999...99999999 (4000 digits)"),
    ):
        assert main(["reconstruct", src, "-k", k, "-d", d, "-o", str(dst)]) == 3
        out, err = capsys.readouterr()
        assert "mode" not in out and len(out) < 1000  # refused before the mode line, which would echo d in full
        assert f"d={named} exceeds the ambient dimension 4" in err
        assert not dst.exists()
    # --auto stops its d range at 4 too: no degree above it is run
    start = time.process_time()
    assert main(["reconstruct", src, "-k", "800", "--auto", "--dmax", "1000000", "-o", str(dst)]) == 1
    assert time.process_time() - start <= 0.5
    assert capsys.readouterr().out.endswith("auto k=800 dmax=1000000 tight=off\nno manifold found\n")


def test_reconstruct_auto_without_result(tmp_path, capsys):
    src = write_complex(tmp_path, "disc.cplx", sk.full_cube(2))
    dst = str(tmp_path / "none.cplx")
    assert main(["reconstruct", src, "-k", "2", "--auto", "--dmax", "3", "-o", dst]) == 1
    out = capsys.readouterr().out
    assert "no manifold found" in out


def test_reconstruct_verdict_lines_print_torsion(tmp_path, capsys):
    # RP^2 next to the 2-sphere: the one candidate fills the sphere, and the
    # tight integer mode compares H_1, which is Z/2 before and after
    c = _disjoint_union(projective_plane(), sk.cube_boundary(3))
    src = write_complex(tmp_path, "pair.cplx", c)
    dst = str(tmp_path / "out.cplx")
    assert main(["reconstruct", src, "-k", "2", "-d", "4", "--mode", "tight-int", "-o", dst]) == 0
    out = body_lines(capsys.readouterr().out)
    assert out[:3] == [
        "mode tight-int k=2 d=4",
        "step degree=2 candidates=1 accepted=1",
        "candidate 000000***1 boundary=present accepted=yes j=1 deleted=0[2] base=0[2]",
    ]


def test_reconstruct_command_input_errors(tmp_path, capsys):
    src = write_complex(tmp_path, "skel.cplx", sk.skeleton(sk.cube_boundary(3), 2))
    dst = str(tmp_path / "x.cplx")
    assert main(["reconstruct", src, "-k", "2", "-o", dst]) == 2
    assert "input error" in capsys.readouterr().err
    assert main(["reconstruct", src, "-k", "1", "-d", "2", "-o", dst]) == 3
    assert "contract violation" in capsys.readouterr().err
    assert main(["reconstruct", str(tmp_path / "missing.cplx"), "-k", "2", "-d", "3", "-o", dst]) == 2
    assert "io error" in capsys.readouterr().err
    assert main(["reconstruct", src, "-k", "2", "--auto", "-o", dst]) == 2
    assert "--auto requires --dmax" in capsys.readouterr().err
    # an input above k is refused whether --dmax reaches k or not
    sphere = write_complex(tmp_path, "s3.cplx", sk.cube_boundary(4))
    for dmax in ("1", "2", "3"):
        assert main(["reconstruct", sphere, "-k", "2", "--auto", "--dmax", dmax, "-o", dst]) == 3
        assert "input dimension 3 exceeds k=2" in capsys.readouterr().err
    assert not (tmp_path / "x.cplx").exists()


def test_reconstruct_refuses_d_under_auto(tmp_path, capsys):
    src = write_complex(tmp_path, "skel.cplx", sk.skeleton(sk.cube_boundary(3), 2))
    dst = tmp_path / "x.cplx"
    assert main(["reconstruct", src, "-k", "2", "-d", "3", "--auto", "--dmax", "2", "-o", str(dst)]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "input error: -d does not apply with --auto, which tries each d up to --dmax\n")
    assert not dst.exists()


def test_reconstruct_refuses_dmax_without_auto(tmp_path, capsys):
    src = write_complex(tmp_path, "skel.cplx", sk.skeleton(sk.cube_boundary(3), 2))
    dst = tmp_path / "x.cplx"
    assert main(["reconstruct", src, "-k", "2", "-d", "3", "--dmax", "4", "-o", str(dst)]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "input error: --dmax applies only with --auto\n")
    assert not dst.exists()


def test_running_out_of_memory_exits_3_with_one_line(tmp_path, capsys, monkeypatch):
    # whole-complex GF(2) homology reads only ranks; here the rank raises at once
    def exhausted(vectors, pivot_rows=None):
        raise MemoryError

    monkeypatch.setattr(sk.homology, "gf2_rank", exhausted)
    src = write_complex(tmp_path, "square.cplx", sk.full_cube(2))
    assert main(["homology", src]) == 3
    assert capsys.readouterr().err == "out of memory: the input is too large for this computation\n"


def test_embed_command_names_the_line_of_a_non_integer_endpoint(tmp_path, capsys):
    path = tmp_path / "bad.graph"
    path.write_text("vertices 3\n0 1\n1 x\n")
    assert main(["embed", str(path), "--nmax", "2"]) == 2
    assert "input error: line 3: endpoints must be integers" in capsys.readouterr().err


def test_embed_command_positive(tmp_path, capsys):
    path = cycle_file(tmp_path, 6)
    assert main(["embed", path, "--nmax", "3"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "embedding found n=3"
    assert sum(1 for line in out if line.startswith("vertex ")) == 6
    assert sum(1 for line in out if line.startswith("edge ")) == 6
    assert out[-1] == "labelling verified"
    codes = [line.split()[2] for line in out if line.startswith("vertex ")]
    assert all(len(w) == 3 and set(w) <= {"0", "1"} for w in codes)
    assert len(set(codes)) == 6


def test_embed_command_negative_odd_cycle(tmp_path, capsys):
    path = cycle_file(tmp_path, 5)
    assert main(["embed", path, "--nmax", "6"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "no embedding with n <= 6"
    assert out[1].startswith("odd cycle ")
    assert len(out[1].split()) == 2 + 5


def test_embed_command_pins_odd_cycle_of_two_component_graph(tmp_path, capsys):
    edges = [(0, 1), (1, 2), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (8, 9), (9, 10), (3, 10), (3, 6), (5, 9)]
    path = write_graph(tmp_path, "g11.graph", sk.SimpleGraph.from_edges(11, edges))
    assert main(["embed", path, "--nmax", "6"]) == 1
    assert capsys.readouterr().out == "no embedding with n <= 6\nodd cycle 5 4 3 10 9\nreason odd-cycle\n"


def test_embed_command_negative_bipartite(tmp_path, capsys):
    k23 = sk.SimpleGraph.from_edges(5, [(u, v) for u in (0, 1) for v in (2, 3, 4)])
    path = write_graph(tmp_path, "k23.graph", k23)
    assert main(["embed", path, "--nmax", "4"]) == 1
    out = capsys.readouterr().out
    assert "no embedding with n <= 4" in out
    assert "odd cycle" not in out


@pytest.mark.parametrize(
    "graph, nmax, reason",
    [
        (sk.SimpleGraph.from_edges(6, [(0, i) for i in range(1, 6)]), 4, "degree"),
        (sk.SimpleGraph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)]), 2, "size"),
        (path_joined_to_k23(), 6, "k23 10 11 12 13 14"),
        (heawood_graph(), 4, "search"),
    ],
    ids=["degree", "size", "k23", "search"],
)
def test_embed_command_prints_the_reason(tmp_path, capsys, graph, nmax, reason):
    path = write_graph(tmp_path, "g.graph", graph)
    assert main(["embed", path, "--nmax", str(nmax)]) == 1
    assert capsys.readouterr().out == f"no embedding with n <= {nmax}\nreason {reason}\n"


def test_generate_command_complex(tmp_path, capsys):
    dst = str(tmp_path / "s2.cplx")
    assert main(["generate", "boundary-cube", "3", "-o", dst]) == 0
    out = capsys.readouterr().out
    assert "complex ambient=3 faces=26 dimension=2" in out
    written, _ = parse_complex((tmp_path / "s2.cplx").read_text())
    assert written == sk.cube_boundary(3)


def test_generate_command_nested_spec(tmp_path, capsys):
    dst = str(tmp_path / "torus.cplx")
    assert main(["generate", "product", "boundary-cube(2)", "boundary-cube(2)", "-o", dst]) == 0
    assert "complex ambient=4 faces=64 dimension=2" in capsys.readouterr().out
    written, _ = parse_complex((tmp_path / "torus.cplx").read_text())
    assert written == sk.product_complex(sk.cube_boundary(2), sk.cube_boundary(2))


def test_generate_command_graph(tmp_path, capsys):
    dst = str(tmp_path / "k23.graph")
    assert main(["generate", "graph-k23", "-o", dst]) == 0
    assert "graph vertices=5 edges=6" in capsys.readouterr().out
    assert parse_graph((tmp_path / "k23.graph").read_text()).num_vertices == 5


def test_generate_command_unknown_family(tmp_path, capsys):
    assert main(["generate", "moebius", "2", "-o", str(tmp_path / "x")]) == 2
    assert "input error" in capsys.readouterr().err


def test_generate_command_refuses_digits_int_cannot_read(tmp_path, capsys):
    assert main(["generate", "cube(²)", "-o", str(tmp_path / "x")]) == 2
    assert "unknown generator family '²'" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_generate_command_refuses_deep_specs(tmp_path, capsys):
    # nested far past the interpreter's recursion limit: an input error, not a traceback
    deep = "skeleton-of(" * 3000 + "cube(1)" + ", 1)" * 3000
    assert main(["generate", deep, "-o", str(tmp_path / "x")]) == 2
    assert "nests deeper than 32 levels" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_commands_refuse_closures_over_the_bound(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("skelcube.complex.MAX_LETTERS", 5 * 3**4)
    dst = str(tmp_path / "x.cplx")
    assert main(["generate", "cube", "5", "-o", dst]) == 3
    assert main(["generate", "boundary-cube", "5", "-o", dst]) == 3
    (tmp_path / "big.cplx").write_text("ambient 5\n*****\n")
    assert main(["homology", str(tmp_path / "big.cplx")]) == 3
    err = capsys.readouterr().err
    assert err.count("contract violation: closure of '*****' would exceed 405 letters") == 3
    assert not (tmp_path / "x.cplx").exists()


def test_huge_cubes_are_refused_before_their_word_is_spelt(tmp_path, capsys):
    # the star count is refused before '*' * n is spelt or 3**n computed:
    # the power takes seconds at n = 10**7 and has too many digits to print
    dst = str(tmp_path / "x.cplx")
    start = time.perf_counter()
    for family, n in (("cube", "1000000"), ("cube", "100000000"), ("boundary-cube", "100000000")):
        assert main(["generate", family, n, "-o", dst]) == 3
    assert time.perf_counter() - start < 0.5
    err = capsys.readouterr().err.splitlines()
    assert err == [f"contract violation: a word with {n} stars would exceed 20726199 letters" for n in (10**6, 10**8, 10**8)]
    assert not (tmp_path / "x.cplx").exists()


def test_commands_refuse_long_words_products_and_subdivisions_over_the_bound(tmp_path, capsys, monkeypatch):
    # 5 * 3**4 letters: 3**4 faces fit in I^5 but not in I^6
    monkeypatch.setattr("skelcube.complex.MAX_LETTERS", 5 * 3**4)
    dst = str(tmp_path / "x.cplx")
    (tmp_path / "fits.cplx").write_text("ambient 5\n****0\n")
    assert main(["homology", str(tmp_path / "fits.cplx")]) == 0
    (tmp_path / "long.cplx").write_text("ambient 6\n****00\n")
    assert main(["homology", str(tmp_path / "long.cplx")]) == 3
    assert main(["generate", "product", "boundary-cube(2)", "boundary-cube(3)", "-o", dst]) == 3
    assert main(["generate", "disjoint-union", "boundary-cube(3)", "boundary-cube(4)", "-o", dst]) == 3
    assert main(["generate", "cbs", "30", "-o", dst]) == 3
    err = capsys.readouterr().err
    assert err.count("contract violation: ") == 4
    for what in ("closure of '****00'", "product", "disjoint union", "cubical barycentric subdivision"):
        assert f"contract violation: {what} would exceed 405 letters" in err
    assert not (tmp_path / "x.cplx").exists()


def test_embed_refuses_graph_files_over_the_vertex_bound(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("skelcube.io.MAX_GRAPH_VERTICES", 4)
    (tmp_path / "ok.graph").write_text("vertices 4\n0 1\n")
    (tmp_path / "big.graph").write_text("# five vertices\nvertices 5\n0 1\n")
    assert main(["embed", str(tmp_path / "ok.graph"), "--nmax", "3"]) == 0
    assert main(["embed", str(tmp_path / "big.graph"), "--nmax", "3"]) == 2
    assert "line 2: vertex count 5 exceeds the bound 4" in capsys.readouterr().err


def test_embed_command_long_path(tmp_path, capsys):
    # the search places one vertex per level; 3000 levels exceed the default recursion limit
    m = 3000
    path = write_graph(tmp_path, "path.graph", sk.SimpleGraph.from_edges(m, [(i, i + 1) for i in range(m - 1)]))
    assert main(["embed", path, "--nmax", "12"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "embedding found n=12"
    assert out[-1] == "labelling verified"


# the skelcube modules each run loads: `import skelcube` loads no layer,
# and a command loads the CLI's own layers plus the ones it runs.  Only
# commands that build a complex load `complex`, only `embed` loads the
# embedding search, and only `--auto` loads `manifold` for `reconstruct`.
# The graph layer comes with the search, with `manifold` (for
# `components`) and with `generators` (for its graph families).
CLI_LAYERS = {"skelcube", "skelcube.cli", "skelcube.errors", "skelcube.io", "skelcube.words"}
COMPLEX_LAYERS = CLI_LAYERS | {"skelcube.complex"}
FOOTPRINTS = (
    ("import skelcube", (), {"skelcube"}),
    ("import skelcube.cli", (), CLI_LAYERS),
    ("embed", (["embed", "{graph}", "--nmax", "3"],), CLI_LAYERS | {"skelcube.embedding", "skelcube.graph"}),
    ("skeleton", (["skeleton", "{cplx}", "-k", "1", "-o", "{out}"],), COMPLEX_LAYERS),
    ("homology", (["homology", "{cplx}"],), COMPLEX_LAYERS | {"skelcube.homology"}),
    (
        "manifold-check",
        (["manifold-check", "{cplx}"],),
        COMPLEX_LAYERS | {"skelcube.graph", "skelcube.homology", "skelcube.manifold"},
    ),
    (
        "reconstruct",
        (["reconstruct", "{skel}", "-k", "2", "-d", "3", "-o", "{out}"],),
        COMPLEX_LAYERS | {"skelcube.homology", "skelcube.reconstruct"},
    ),
    ("generate", (["generate", "cube", "2", "-o", "{out}"],), COMPLEX_LAYERS | {"skelcube.generators", "skelcube.graph"}),
)
# modules no run may load: the process machinery, and the standard library
# modules whose import costs more than a command's own start-up
# (`dataclasses` pulls in `inspect`, `ast`, `dis` and `tokenize`)
SHUNNED = ("concurrent", "multiprocessing", "dataclasses", "inspect", "typing", "pathlib")


def test_cli_import_loads_no_process_machinery(tmp_path):
    # each row in a fresh interpreter started with -S, so no site hook
    # loads a shunned module first; the two import rows share one
    paths = {
        "graph": write_graph(tmp_path, "c4.graph", sk.SimpleGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])),
        "cplx": write_complex(tmp_path, "sphere.cplx", sk.cube_boundary(3)),
        "skel": write_complex(tmp_path, "skel.cplx", sk.skeleton(sk.cube_boundary(4), 2)),
    }
    report = f"print(sorted(m for m in sys.modules if m.split('.')[0] in {('skelcube', *SHUNNED)!r}))"
    programs = [f"import sys, skelcube; {report}; import skelcube.cli; {report}"]
    for i, (_, commands, _) in enumerate(FOOTPRINTS[2:]):
        out = str(tmp_path / f"out{i}")  # one output per child: they run at once
        runs = "; ".join(f"assert main({[a.format(out=out, **paths) for a in argv]!r}) == 0" for argv in commands)
        programs.append(f"import sys; from skelcube.cli import main; {runs}; {report}")
    first, *rest = run_in_fresh_interpreters(programs)
    loaded = first + [lines[-1] for lines in rest]
    assert dict(zip((run for run, _, _ in FOOTPRINTS), loaded)) == {
        run: repr(sorted(modules)) for run, _, modules in FOOTPRINTS
    }


def test_parser_spells_the_library_names():
    # build_parser writes these names out so that it loads no layer
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))

    def option(command, dest):
        return next(a for a in sub.choices[command]._actions if a.dest == dest)

    ring, mode = option("homology", "ring"), option("reconstruct", "mode")
    assert (ring.choices, ring.default) == (sorted([sk.GF2, sk.INTEGER]), sk.GF2)
    assert (mode.choices, mode.default) == (sorted([sk.STANDARD, sk.TIGHT_GF2, sk.TIGHT_INTEGER]), sk.STANDARD)
    generate_help = next(a.help for a in sub._choices_actions if a.dest == "generate")
    assert generate_help == f"write a named complex or graph ({', '.join(FAMILIES)})"


def _count_validation_passes(monkeypatch) -> list[int]:
    """The face count of each full validation pass from now on: a validate() call that looks up a facet."""
    passes, looked = [], []
    real_facets, real_validate = sk.complex.facets, sk.CubicalComplex.validate

    def facets(w):
        looked.append(w)
        return real_facets(w)

    def validate(self):
        before = len(looked)
        try:
            real_validate(self)
        finally:
            if len(looked) > before:
                passes.append(len(self.faces))

    monkeypatch.setattr("skelcube.complex.facets", facets)
    monkeypatch.setattr(sk.CubicalComplex, "validate", validate)
    return passes


def test_parsed_inputs_are_never_scanned_and_a_constructed_complex_once(tmp_path, capsys, monkeypatch):
    passes = _count_validation_passes(monkeypatch)
    # the smoke-sized inputs of the reconstruct, manifold-check and homology-int workloads
    skel = write_complex(tmp_path, "skel.cplx", sk.skeleton(sk.cube_boundary(4), 2))
    rp2 = write_complex(tmp_path, "rp2.cplx", projective_plane())
    assert main(["reconstruct", skel, "-k", "2", "-d", "3", "-o", str(tmp_path / "out.cplx")]) == 0
    assert main(["manifold-check", rp2]) == 0
    assert main(["homology", rp2, "--ring", "int"]) == 0
    capsys.readouterr()
    assert passes == []
    # a complex from the public constructor is scanned by its first reader alone
    torus = sk.CubicalComplex(4, sk.product_complex(sk.cube_boundary(2), sk.cube_boundary(2)).faces)
    for ring in (sk.GF2, sk.INTEGER):
        sk.homology_profile(torus, ring)
    sk.local_profile(torus, min(torus.faces))
    assert sk.is_homology_manifold(torus, check_orientability=True).is_manifold
    assert passes == [len(torus.faces)]
    # a refused set is refused again by the next reader
    broken = sk.CubicalComplex(2, frozenset({"**"}))
    for reader in (sk.homology_profile, sk.graph_of, sk.components):
        with pytest.raises(sk.StructuralError, match="not downward closed"):
            reader(broken)


def _mutated(rng, text: str) -> str:
    """text with one seeded edit: a line dropped, repeated, cut short, given a wrong letter or a stray line, or the header's count moved."""
    lines = text.splitlines()
    i = rng.randrange(len(lines))
    edit = rng.randrange(6)
    if edit == 0:
        del lines[i]
    elif edit == 1:
        lines.insert(i, rng.choice(lines))
    elif edit == 2:
        lines[i] = lines[i][: rng.randrange(len(lines[i]) + 1)]
    elif edit == 3 and lines[i]:
        j = rng.randrange(len(lines[i]))
        lines[i] = lines[i][:j] + rng.choice("01*x9- ") + lines[i][j + 1 :]
    elif edit == 4:
        keyword, n = lines[0].split()
        lines[0] = f"{keyword} {int(n) + rng.choice((-2, -1, 1, 2))}"
    else:
        lines.insert(i, rng.choice(["", "# note", "ambient", "ambient 2", "0 0", "***", "vertices 3", "1 2 3"]))
    return "\n".join(lines) + "\n"


def _long_inputs(rng, n: int):
    """(subcommand, file text or spec) pairs whose refusals meet words and lines of about n letters.

    The first is the 6,999,999-letter word in I^7000000.  The letters
    that break each word sit at seeded places.  The last two specs are a
    4,000-digit cube dimension and a cube of n // 5 arguments.
    """
    at = rng.randrange(n)
    bad = "0" * at + "x" + "0" * (n - at - 1)
    stars = "".join(rng.sample("*" * 12 + "0" * (n - 12), n))
    complexes = [
        f"ambient 7000000\n{'0' * 6_999_999}\n",
        f"ambient {n}\n{bad}\n",
        f"ambient {n}\n{stars}\n",
        f"ambient {n}\n{'0' * n} {'1' * n}\n",
        f"ambient 3 {bad}\n",
        f"ambient {bad}\n",
    ]
    graphs = [f"vertices 3\n0 1 {' 2' * n}\n", f"vertices {bad}\n", f"{bad} 3\n"]
    specs = ["cube(2)" + bad, bad, "cube(2 " + "0" * n, "(" + bad]
    specs += ["cube(" + "9" * 4000 + ")", "cube(" + ", ".join(["1"] * (n // 5)) + ")"]
    return [("complex", t) for t in complexes] + [("graph", t) for t in graphs] + [("spec", t) for t in specs]


def robustness_runs(tmp_path) -> tuple[list[list[str]], list[list[str]], list[list[str]]]:
    """The argument lists of the robustness test, their input files written under tmp_path.

    Returns (runs, long_runs, refused_configs): 60 seeded runs over the
    six subcommands on mutated inputs; every subcommand on long words,
    lines, specs and numbers; and the reconstruct configs among the long
    runs that are refused as configs.  `tests/reach.py` runs them too.
    """
    rng = random.Random(89)
    complexes = [
        serialize_complex(c)
        for c in (
            sk.cube_boundary(3),
            sk.skeleton(sk.cube_boundary(4), 2),
            sk.closure(3, ["0**", "11*"]),
            sk.generate("even-cycle(6)"),
        )
    ]
    graphs = [
        serialize_graph(g)
        for g in (
            sk.graph_of(sk.cube_boundary(3)),
            sk.SimpleGraph.from_edges(5, [(u, v) for u in (0, 1) for v in (2, 3, 4)]),
            sk.SimpleGraph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)]),
        )
    ]
    specs = ["cube(2)", "boundary-cube(3)", "even-cycle(6)", "product(boundary-cube(2), cbs(3))", "skeleton-of(cube(3), 2)"]
    out = str(tmp_path / "out")
    runs = []
    for run in range(60):
        path = tmp_path / f"input{run}"
        if run % 3 == 0:
            path.write_text(_mutated(rng, rng.choice(complexes)))
            k = str(rng.randint(-1, 3))
            argv = rng.choice(
                [
                    ["homology", str(path), "--ring", rng.choice(["gf2", "int", "z"])],
                    ["homology", str(path), "--cohomology"],
                    ["manifold-check", str(path)],
                    ["skeleton", str(path), "-k", k, "-o", out],
                    ["reconstruct", str(path), "-k", k, "-d", str(rng.randint(1, 4)), "-o", out],
                    ["reconstruct", str(path), "-k", k, "--auto", "--dmax", "4", "-o", out],
                ]
            )
        elif run % 3 == 1:
            path.write_text(_mutated(rng, rng.choice(graphs)))
            argv = ["embed", str(path), "--nmax", str(rng.randint(-1, 4))]
        else:
            spec = rng.choice(specs)
            # mostly an edit of the arguments, as a misspelt family is refused at once
            j = rng.choice([j for j, a in enumerate(spec) if not a.isalpha() or rng.random() < 0.1])
            spec = spec[:j] + rng.choice(["", "(", ")", ",", "0", "3", "x", spec[j] * 2]) + spec[j + 1 :]
            argv = ["generate", spec, "-o", out]
        runs.append(argv)
    long_runs = []
    for kind, text in _long_inputs(rng, 100_000):
        if kind == "spec":
            long_runs.append(["generate", text, "-o", out])
            continue
        path = tmp_path / f"long{len(long_runs)}"
        path.write_text(text)
        if kind == "graph":
            long_runs.append(["embed", str(path), "--nmax", "3"])
            continue
        for command in (
            ["homology", "--ring", "int"],
            ["homology", "--cohomology"],
            ["manifold-check"],
            ["skeleton", "-k", "1", "-o", out],
            ["reconstruct", "-k", "2", "-d", "3", "-o", out],
            ["reconstruct", "-k", "2", "--auto", "--dmax", "4", "-o", out],
        ):
            long_runs.append([command[0], str(path), *command[1:]])
    # numbers of 4,000 digits in options and headers of valid inputs
    huge = "9" * 4000
    sphere, triangle, crowded = tmp_path / "sphere", tmp_path / "triangle", tmp_path / "crowded"
    sphere.write_text(complexes[0])
    triangle.write_text("vertices 3\n0 1\n1 2\n")
    crowded.write_text(f"vertices {huge}\n0 1\n")
    # a refused reconstruct config echoes none of its numbers on stdout either
    refused_configs = [
        ["reconstruct", str(sphere), "-k", "2", "-d", huge, "-o", out],
        ["reconstruct", str(sphere), "-k", "-" + huge, "-d", "3", "-o", out],
        ["reconstruct", str(sphere), "-k", "-" + huge, "--auto", "--dmax", "3", "-o", out],
    ]
    long_runs += refused_configs + [
        ["embed", str(triangle), "--nmax", "-" + huge],
        ["embed", str(crowded), "--nmax", "3"],
        ["generate", f"even-cycle({huge})", "-o", out],
        ["generate", f"cbs(-{huge})", "-o", out],
    ]
    return runs, long_runs, refused_configs


def test_cli_ends_every_run_on_mutated_inputs_with_an_exit_code(tmp_path, capsys):
    # argparse refusing an argument exits 2.  Each refusal of a long input
    # names a long word by its length and stars, a long spec by its family
    # and argument count and a long number by its digits, so no run writes
    # more than 1 KB to stderr.
    runs, long_runs, refused_configs = robustness_runs(tmp_path)
    for argv in runs + long_runs:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out_text, err = capsys.readouterr()
        assert code in (0, 1, 2, 3), argv
        assert "Traceback" not in err
        assert len(err.encode()) <= 1024, (argv[0], err[:200])
        if argv in long_runs:
            assert code in (2, 3) and err.count("\n") == 1, (argv[0], err)
            assert len(out_text.encode()) <= 1024, (argv[0], out_text[:200])
        if argv in refused_configs:
            assert code == 3, argv

import os
import subprocess
import sys
from pathlib import Path

import pytest

import skelcube as sk
from skelcube.cli import main
from skelcube.io import parse_complex, parse_graph, serialize_complex, serialize_graph

from helpers import projective_plane


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


def test_reconstruct_auto_command(tmp_path, capsys):
    src = write_complex(tmp_path, "skel.cplx", sk.skeleton(sk.cube_boundary(3), 2))
    dst = str(tmp_path / "auto.cplx")
    assert main(["reconstruct", src, "-k", "2", "--auto", "--dmax", "4", "-o", dst]) == 0
    out = capsys.readouterr().out
    assert "auto k=2 dmax=4 tight=off" in out
    assert "result d=2 faces=26" in out
    assert f"wrote {dst} (d=2)" in out
    rebuilt, _ = parse_complex((tmp_path / "auto.cplx").read_text())
    assert rebuilt == sk.cube_boundary(3)


def test_reconstruct_auto_without_result(tmp_path, capsys):
    src = write_complex(tmp_path, "disc.cplx", sk.full_cube(2))
    dst = str(tmp_path / "none.cplx")
    assert main(["reconstruct", src, "-k", "2", "--auto", "--dmax", "3", "-o", dst]) == 1
    out = capsys.readouterr().out
    assert "no manifold found" in out


def test_reconstruct_command_input_errors(tmp_path, capsys):
    src = write_complex(tmp_path, "skel.cplx", sk.skeleton(sk.cube_boundary(3), 2))
    dst = str(tmp_path / "x.cplx")
    assert main(["reconstruct", src, "-k", "2", "-o", dst]) == 2
    assert "input error" in capsys.readouterr().err
    assert main(["reconstruct", src, "-k", "1", "-d", "2", "-o", dst]) == 3
    assert "contract violation" in capsys.readouterr().err
    assert main(["reconstruct", str(tmp_path / "missing.cplx"), "-k", "2", "-d", "3", "-o", dst]) == 2
    assert "io error" in capsys.readouterr().err


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


def test_embed_command_negative_bipartite(tmp_path, capsys):
    k23 = sk.SimpleGraph.from_edges(5, [(u, v) for u in (0, 1) for v in (2, 3, 4)])
    path = write_graph(tmp_path, "k23.graph", k23)
    assert main(["embed", path, "--nmax", "4"]) == 1
    out = capsys.readouterr().out
    assert "no embedding with n <= 4" in out
    assert "odd cycle" not in out


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


def test_cli_import_loads_no_process_machinery():
    src = str(Path(sk.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys, skelcube.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('concurrent', 'multiprocessing')))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"

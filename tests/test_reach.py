"""The reach gate (tests/reach.py) on a fixture package with one function that no run enters."""

import sys

import pytest

import reach

MODULE = '''\
def used():
    return _helper()


def _helper():
    return 1


class Box:
    def unused(self):
        return 2
'''

RUN = '''\
from reachfixture import shapes


def run(record):
    record(shapes.used)()
'''


@pytest.fixture
def fixture_gate(tmp_path, monkeypatch):
    package = tmp_path / "reachfixture"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "shapes.py").write_text(MODULE)
    (tmp_path / "reachfixture_run.py").write_text(RUN)
    monkeypatch.syspath_prepend(str(tmp_path))
    listed = tmp_path / "reach.txt"
    yield listed, ["--package", str(package), "--list", str(listed), "--run", "reachfixture_run:run"]
    for name in [n for n in sys.modules if n.startswith("reachfixture")]:
        del sys.modules[name]


def test_the_gate_fails_on_the_unlisted_function_and_passes_once_it_is_listed_with_a_reason(fixture_gate, capsys):
    listed, argv = fixture_gate
    listed.write_text("")
    assert reach.main(argv) == 1
    out = capsys.readouterr().out
    assert "unreached reachfixture.shapes:Box.unused lines 10-11\n" in out
    assert "FAIL reachfixture.shapes:Box.unused: newly unreached\n" in out
    assert out.endswith("1 of 3 functions unreached; 1 problems\n")
    listed.write_text("# a comment\nreachfixture.shapes:Box.unused API, called by no command\n")
    assert reach.main(argv) == 0
    listed.write_text("reachfixture.shapes:Box.unused\n")
    assert reach.main(argv) == 1
    assert "FAIL reachfixture.shapes:Box.unused: listed without a reason\n" in capsys.readouterr().out
    # a function listed but entered by the run, and one that does not exist
    listed.write_text(
        "reachfixture.shapes:Box.unused API\nreachfixture.shapes:_helper kept\nreachfixture.shapes:gone kept\n"
    )
    assert reach.main(argv) == 1
    out = capsys.readouterr().out
    assert "FAIL reachfixture.shapes:_helper: listed, but reached or gone\n" in out
    assert "FAIL reachfixture.shapes:gone: listed, but reached or gone\n" in out

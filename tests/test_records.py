"""The library's immutable records behave as the frozen dataclasses they replace.

Each record is checked against its dataclass twin in helpers.py: the
same constructor signature, field values, equality, hash and repr, and
the same refusal of assignment and deletion.  Pickle and copy restore a
record whole, and a complex's cached tables stay its own.
"""

import copy
import inspect
import pickle

import pytest

import skelcube as sk

from helpers import RECORD_TWINS

_profile = sk.HomologyProfile((1, 0, 1), ((), (), ()))
_verdict = sk.CandidateVerdict("**0", True, True, ((1, (0, ()), (0, ())),))

# per record, constructor calls as (args, kwargs), each building a different value
CALLS = {
    sk.CubicalComplex: [
        ((1,), {}),
        ((1, frozenset({"0", "1", "*"})), {}),
        ((), {"ambient_dim": 2, "faces": frozenset({"00"})}),
    ],
    sk.SimpleGraph: [((3, frozenset({(0, 1), (1, 2)})), {}), ((), {"num_vertices": 2, "edges": frozenset()})],
    sk.HypercubeEmbedding: [((2, (0, 1, 3)), {}), ((), {"n": 0, "codes": ()})],
    sk.HomologyProfile: [(((1, 0, 1), ((), (), ())), {}), ((), {"betti": (1, 1), "torsion": ((), (2,))})],
    sk.ManifoldReport: [
        ((True, 2, True, None), {}),
        ((True, 2, None, None, (sk.ManifoldReport(True, 2, None, None),)), {}),
        ((False, None, None, "0*"), {"reason": "local-homology", "failing_profile": _profile}),
        ((), {"is_manifold": False, "dimension": None, "orientable": None, "failing_face": None, "reason": "empty"}),
    ],
    sk.ReconstructionConfig: [((2, 3), {}), ((2, 4, sk.TIGHT_GF2), {}), ((), {"k": 3, "d": 5, "mode": sk.STANDARD})],
    sk.CandidateVerdict: [
        (("0*", False, False), {}),
        (("**0", True, True, ((1, (0, ()), (0, ())),)), {}),
        ((), {"face": "0*", "boundary_present": True, "accepted": False}),
    ],
    sk.ReconstructionStep: [
        ((3, (_verdict,), sk.full_cube(1)), {}),
        ((), {"degree": 3, "verdicts": (), "complex_after": sk.cube_boundary(2)}),
    ],
    sk.GeneratorSpec: [
        (("cube",), {}),
        (("product", (sk.GeneratorSpec("cube", (2,)), 3)), {}),
        ((), {"family": "cube", "args": (2,)}),
    ],
}


def _signature(cls) -> list[tuple]:
    return [(p.name, p.kind, p.default) for p in inspect.signature(cls).parameters.values()]


@pytest.mark.parametrize("cls", list(RECORD_TWINS), ids=lambda cls: cls.__name__)
def test_record_behaves_as_its_dataclass_twin(cls):
    twin = RECORD_TWINS[cls]
    assert _signature(cls) == _signature(twin)
    records, twins = [], []
    for args, kwargs in CALLS[cls]:
        rec, tw = cls(*args, **kwargs), twin(*args, **kwargs)
        records.append(rec)
        twins.append(tw)
        assert vars(rec) == vars(tw)
        assert repr(rec) == repr(tw)
        assert hash(rec) == hash(tw)
        # equal only to a record of its own class with equal fields
        again = cls(*args, **kwargs)
        assert rec == again and not rec != again and hash(rec) == hash(again)
        sub = object.__new__(type("Sub", (cls,), {}))
        sub.__dict__.update(vars(rec))
        for other in (tw, sub, tuple(vars(rec).values())):
            assert rec != other and other != rec and not rec == other
        for name in (*vars(rec), "other"):
            with pytest.raises(AttributeError):
                setattr(rec, name, None)
            with pytest.raises(AttributeError):
                delattr(rec, name)
            with pytest.raises(AttributeError):
                setattr(tw, name, None)
        assert vars(rec) == vars(tw)
        for back in (pickle.loads(pickle.dumps(rec)), copy.copy(rec), copy.deepcopy(rec)):
            assert type(back) is cls and back == rec and vars(back) == vars(rec)
    # the calls build different values, and records tell them apart as their twins do
    for i, rec in enumerate(records):
        assert [rec == other for other in records] == [twins[i] == other for other in twins]
        assert [rec == other for other in records].count(True) == 1


def test_complex_tables_are_cached_per_instance():
    c = sk.closure(3, ["**0", "0**"])
    again = sk.CubicalComplex(c.ambient_dim, c.faces)
    assert c == again and hash(c) == hash(again) and "_closed" in vars(c) and "_closed" not in vars(again)
    for name in ("chains", "faces_by_vertex", "vertex_links"):
        table = getattr(c, name)
        assert getattr(c, name) is table and vars(c)[name] is table
        assert name not in vars(again)
    again.validate()
    assert vars(again)["_closed"] is True
    # cached tables are not fields: equality, hash and repr read the faces alone
    assert c == again and hash(c) == hash(again) and repr(c) == repr(again) == repr(sk.CubicalComplex(3, c.faces))
    assert again.chains is not c.chains
    back = pickle.loads(pickle.dumps(c))
    assert vars(back).keys() == vars(c).keys() and back.faces_by_vertex == c.faces_by_vertex

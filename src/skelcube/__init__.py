"""Cubical complexes inside hypercubes.

Core objects are face words over '01*' and immutable downward-closed
complexes.  On top of these sit GF(2) and integer homology, local
homology manifold checks, reconstruction of a manifold from a middle
skeleton, and embeddability of graphs into hypercube graphs.

The namespace is lazy: `import skelcube` loads no layer, and the first
read of an exported name imports the submodule that defines it.  So a
command line run loads only the layers its command uses.  The name
`reconstruct` is always the function, never the submodule of that
name; reach the submodule through `sys.modules` or `importlib`.
`from skelcube import *` binds exactly the exported names, loading
every layer.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

# each exported name and the submodule that defines it
_EXPORTS = {
    "CubicalComplex": "complex",
    "closure": "complex",
    "cube_boundary": "complex",
    "delete": "complex",
    "full_cube": "complex",
    "product_complex": "complex",
    "skeleton": "complex",
    "HypercubeEmbedding": "embedding",
    "SimpleGraph": "embedding",
    "bfs_forest": "embedding",
    "bipartition_or_odd_cycle": "embedding",
    "components": "embedding",
    "embedding_obstruction": "embedding",
    "find_graph_embedding": "embedding",
    "graph_of": "embedding",
    "labelling_from_embedding": "embedding",
    "verify_labelling": "embedding",
    "ContractError": "errors",
    "ContradictionError": "errors",
    "StructuralError": "errors",
    "GeneratorSpec": "generators",
    "cubical_barycentric_subdivision": "generators",
    "generate": "generators",
    "parse_generator_spec": "generators",
    "GF2": "homology",
    "INTEGER": "homology",
    "BoundaryMatrices": "homology",
    "HomologyProfile": "homology",
    "betti_gf2": "homology",
    "cohomology_profile": "homology",
    "gf2_rank": "homology",
    "homology_integer": "homology",
    "homology_profile": "homology",
    "integer_rank": "homology",
    "relative_profile": "homology",
    "smith_normal_form": "homology",
    "parse_complex": "io",
    "parse_graph": "io",
    "serialize_complex": "io",
    "serialize_graph": "io",
    "ManifoldReport": "manifold",
    "is_homology_manifold": "manifold",
    "local_profile": "manifold",
    "STANDARD": "reconstruct",
    "TIGHT_GF2": "reconstruct",
    "TIGHT_INTEGER": "reconstruct",
    "CandidateVerdict": "reconstruct",
    "ReconstructionConfig": "reconstruct",
    "ReconstructionStep": "reconstruct",
    "enumerate_candidates": "reconstruct",
    "face_criterion": "reconstruct",
    "reconstruct": "reconstruct",
    "reconstruct_steps": "reconstruct",
    "reconstruct_auto": "reconstruct",
}

__all__ = list(_EXPORTS)

# submodules read as attributes (`skelcube.homology`), imported on first read
_SUBMODULES = frozenset(_EXPORTS.values()) | {"words"}


class _Namespace(types.ModuleType):
    def __setattr__(self, name, value):
        # the import system binds every submodule it loads on the package;
        # the submodule `reconstruct` must not hide the function
        if name in _EXPORTS and isinstance(value, types.ModuleType):
            return
        super().__setattr__(name, value)


def __getattr__(name):
    if name in _EXPORTS:
        value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
        globals()[name] = value
        return value
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(globals().keys() | _EXPORTS.keys())


sys.modules[__name__].__class__ = _Namespace

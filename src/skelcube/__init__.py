"""Cubical complexes inside hypercubes.

Core objects are face words over '01*' and immutable downward-closed
complexes.  On top of these sit GF(2) and integer homology, local
homology manifold checks, reconstruction of a manifold from a middle
skeleton, and embeddability of graphs into hypercube graphs.
"""

from .complex import (
    CubicalComplex,
    ambient_faces,
    closure,
    cube_boundary,
    delete,
    face_boundary,
    face_subcomplex,
    full_cube,
    is_face_like,
    product_complex,
    skeleton,
    star,
)
from .embedding import (
    HypercubeEmbedding,
    SimpleGraph,
    bfs_forest,
    bipartition_or_odd_cycle,
    components,
    embedding_obstruction,
    find_graph_embedding,
    graph_of,
    labelling_from_embedding,
    lift_to_complex_embedding,
    verify_labelling,
)
from .errors import ContractError, ContradictionError, StructuralError
from .generators import (
    GeneratorSpec,
    corpus,
    cubical_barycentric_subdivision,
    generate,
    parse_generator_spec,
)
from .homology import (
    GF2,
    INTEGER,
    BoundaryMatrices,
    HomologyProfile,
    betti_gf2,
    cohomology_profile,
    gf2_rank,
    homology_integer,
    homology_profile,
    integer_rank,
    relative_profile,
    smith_normal_form,
)
from .io import parse_complex, parse_graph, serialize_complex, serialize_graph
from .manifold import (
    ManifoldReport,
    facelike_characterization,
    is_homology_manifold,
    is_orientable,
    local_profile,
)
from .reconstruct import (
    STANDARD,
    TIGHT_GF2,
    TIGHT_INTEGER,
    CandidateVerdict,
    ReconstructionConfig,
    ReconstructionStep,
    enumerate_candidates,
    face_criterion,
    reconstruct,
    reconstruct_auto,
    reconstruct_steps,
)

__version__ = "0.1.0"

"""End-to-end acceptance checks.

One test per criterion; each prints a single PASS/FAIL line (visible
with pytest -s, or in the failure report otherwise) and then asserts.
"""

import random
import time
from functools import lru_cache
from itertools import permutations

import skelcube as sk
from skelcube.cli import main as cli_main
from skelcube.io import serialize_complex
from skelcube.words import proper_subwords, word_dim

from helpers import assert_chain_identity, assert_facelike_iff_not_bounding, corpus, snf_oracle, words_by_stars


def report(n: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {n}: {detail}")
    assert ok, f"criterion {n}: {detail}"


def three_torus() -> sk.CubicalComplex:
    c2 = sk.cube_boundary(2)
    return sk.product_complex(sk.product_complex(c2, c2), c2)


def sphere_times_circle() -> sk.CubicalComplex:
    return sk.product_complex(sk.cube_boundary(3), sk.cube_boundary(2))


@lru_cache(maxsize=None)
def run(name: str):
    """One named reconstruction run: (input skeleton, steps, seconds)."""
    skel, cfg = {
        "sphere3": (sk.skeleton(sk.cube_boundary(4), 2), sk.ReconstructionConfig(2, 3)),
        "torus3": (sk.skeleton(three_torus(), 2), sk.ReconstructionConfig(2, 3)),
        "sxc": (sk.skeleton(sphere_times_circle(), 2), sk.ReconstructionConfig(2, 3)),
        "tight-gf2": (sk.skeleton(sk.cube_boundary(5), 2), sk.ReconstructionConfig(2, 4, sk.TIGHT_GF2)),
        "tight-int": (sk.skeleton(sk.cube_boundary(5), 2), sk.ReconstructionConfig(2, 4, sk.TIGHT_INTEGER)),
    }[name]
    t0 = time.perf_counter()
    steps = tuple(sk.reconstruct_steps(skel, cfg))
    return skel, steps, time.perf_counter() - t0


def test_criterion_1_sphere3_reconstruction(tmp_path):
    _, steps, elapsed = run("sphere3")
    final = steps[-1].complex_after
    target = sk.cube_boundary(4)
    verdicts = steps[0].verdicts
    all_accepted = len(verdicts) == 8 and all(v.accepted for v in verdicts)
    bytes_equal = serialize_complex(final) == serialize_complex(target)
    path_a, path_b = tmp_path / "rebuilt.cplx", tmp_path / "generated.cplx"
    path_a.write_text(serialize_complex(final))
    assert cli_main(["generate", "boundary-cube", "4", "-o", str(path_b)]) == 0
    file_equal = path_a.read_bytes() == path_b.read_bytes()
    ok = final == target and all_accepted and bytes_equal and file_equal and elapsed < 1.0
    report(1, ok, f"3-sphere rebuilt byte-identically, 8/8 candidates accepted, {elapsed:.3f}s")


def test_criterion_2_three_torus_reconstruction():
    _, steps, elapsed = run("torus3")
    final = steps[-1].complex_after
    target = three_torus()
    accepted = {v.face for v in steps[0].verdicts if v.accepted}
    genuine = {w for w in target.faces if word_dim(w) == 3}
    ok = (
        final == target
        and len(final.faces) == 512
        and final.ambient_dim == 6
        and len(accepted) == 64
        and accepted == genuine
        and elapsed < 10.0
    )
    report(2, ok, f"3-torus rebuilt exactly (512 faces), 64 cube faces accepted, {elapsed:.3f}s")


def test_criterion_3_spurious_sphere_rejection():
    _, steps, _ = run("sxc")
    final = steps[-1].complex_after
    target = sphere_times_circle()
    verdicts = steps[0].verdicts
    rejected = sorted(v.face for v in verdicts if not v.accepted)
    accepted = [v.face for v in verdicts if v.accepted]
    spurious = ["***00", "***01", "***10", "***11"]
    square_x_edge = all(w.count("*") == 3 and w[:3].count("*") == 2 for w in accepted)
    ok = (
        len(verdicts) == 28
        and rejected == spurious
        and len(accepted) == 24
        and square_x_edge
        and final == target
    )
    report(3, ok, "28 candidates, the 4 solid-times-vertex faces rejected, final complex exact")


def test_criterion_4_tight_modes():
    target = sk.cube_boundary(5)
    _, steps_a, ta = run("tight-gf2")
    _, steps_b, tb = run("tight-int")
    ok = (
        steps_a[-1].complex_after == target
        and steps_b[-1].complex_after == target
        and ta + tb < 30.0
    )
    report(4, ok, f"tight gf2 and integer modes both rebuild the 4-sphere, {ta + tb:.3f}s")


def test_criterion_5_self_rejection_auto():
    s2 = sk.cube_boundary(3)
    results = sk.reconstruct_auto(s2, 2, 4)
    only_itself = [(d, cx == s2) for d, cx in results] == [(2, True)]
    direct = sk.reconstruct(s2, sk.ReconstructionConfig(2, 3))
    no_solid = direct == s2 and direct != sk.full_cube(3)
    ok = only_itself and no_solid
    report(5, ok, "auto returns only (2, the sphere itself); d=3 never fills in the solid cube")


def test_criterion_6_facelike_characterization_everywhere():
    checked = 0
    for name in ("sphere3", "torus3", "sxc", "tight-gf2", "tight-int"):
        skel, steps, _ = run(name)
        current = skel
        for step in steps:
            # candidate boundaries, tested against the state that judged them
            for v in step.verdicts:
                if not v.boundary_present:
                    continue
                assert assert_facelike_iff_not_bounding(current, v.face) is True
                checked += 1
            current = step.complex_after
        # boundaries of faces present in the final complex all bound
        final = steps[-1].complex_after
        for f in final.sorted_faces():
            if word_dim(f) >= 2:
                assert assert_facelike_iff_not_bounding(final, f) is False
                checked += 1
    ok = checked >= 200
    report(6, ok, f"face-like equals not-bounding on {checked} sphere subcomplexes, zero exceptions")


def facelike_sphere_subcomplexes(m: sk.CubicalComplex, cap: int) -> list[sk.CubicalComplex]:
    """All face-like boundary-of-a-face subcomplexes of m, up to cap many."""
    out = []
    by_stars = words_by_stars(m.ambient_dim)
    for k in range(1, m.ambient_dim + 1):
        for g in by_stars[k]:
            if g in m.faces:
                continue
            sub = frozenset(proper_subwords(g))
            if sub <= m.faces:
                out.append(sk.CubicalComplex(m.ambient_dim, sub))
                if len(out) == cap:
                    return out
    return out


def test_criterion_7_duality_suite():
    torus = sk.product_complex(sk.cube_boundary(2), sk.cube_boundary(2))
    members = [sk.cube_boundary(3), sk.cube_boundary(4), torus]
    checked = 0
    spheres = 0
    for m in members:
        assert sk.is_homology_manifold(m, check_orientability=True).orientable
        d = m.dim
        gammas = [sk.closure(m.ambient_dim, [f]) for f in m.sorted_faces()]
        found = facelike_sphere_subcomplexes(m, 20)
        spheres += len(found)
        gammas.extend(found)
        for gamma in gammas:
            away = sk.delete(m, gamma)
            for ring in (sk.GF2, sk.INTEGER):
                left = sk.relative_profile(m, away, ring)
                right = sk.cohomology_profile(gamma, ring)
                for j in range(d + 1):
                    assert left.degree(j) == right.degree(d - j), (
                        f"duality fails at degree {j} over {ring} for a subcomplex of a {d}-manifold"
                    )
                    checked += 1
    ok = checked >= 900 and spheres >= 10
    report(7, ok, f"{checked} degree comparisons over both rings ({spheres} sphere subcomplexes), zero exceptions")


def test_criterion_8_homology_engine():
    t0 = time.perf_counter()
    expected = [
        (sk.cube_boundary(3), (1, 0, 1)),
        (sk.product_complex(sk.cube_boundary(2), sk.cube_boundary(2)), (1, 2, 1)),
        (sphere_times_circle(), (1, 1, 1, 1)),
        (three_torus(), (1, 3, 3, 1)),
    ]
    betti_ok = all(sk.betti_gf2(c).betti == want for c, want in expected)
    for _, c in corpus():
        assert_chain_identity(c.chains)
    rng = random.Random(2024)
    snf_ok = True
    for _ in range(200):
        m = [[rng.randint(-9, 9) for _ in range(5)] for _ in range(5)]
        if sk.smith_normal_form(m) != snf_oracle(m):
            snf_ok = False
            break
    elapsed = time.perf_counter() - t0
    ok = betti_ok and snf_ok and elapsed < 10.0
    report(8, ok, f"betti tables exact, boundary-squared zero on the corpus, 200/200 Smith forms, {elapsed:.1f}s")


def test_criterion_9_embeddability():
    t0 = time.perf_counter()

    def cycle(m):
        return sk.SimpleGraph.from_edges(m, [(i, (i + 1) % m) for i in range(m)])

    k23 = sk.SimpleGraph.from_edges(5, [(u, v) for u in (0, 1) for v in (2, 3, 4)])
    rejected = sk.find_graph_embedding(cycle(3), 6) is None and sk.find_graph_embedding(k23, 6) is None

    accepted = True
    for g in (cycle(4), cycle(6), sk.graph_of(sk.cube_boundary(3))):
        emb = sk.find_graph_embedding(g, 4)
        accepted = accepted and emb is not None and emb.is_valid_for(g)
        accepted = accepted and sk.verify_labelling(g, sk.labelling_from_embedding(emb, g))

    corpus_ok = True
    for _, c in corpus():
        g = sk.graph_of(c)
        emb = sk.find_graph_embedding(g, c.ambient_dim)
        corpus_ok = corpus_ok and emb is not None and emb.is_valid_for(g)
        if emb is not None and g.edges and g.is_connected():
            corpus_ok = corpus_ok and sk.verify_labelling(g, sk.labelling_from_embedding(emb, g))

    # every labelled copy of the square graph inside the 4-cube graph
    # must have a 2-face of I^4 as its vertex image
    square = cycle(4)
    copies = 0
    images_are_faces = True
    for assign in permutations(range(16), 4):
        if all((assign[u] ^ assign[v]).bit_count() == 1 for u, v in square.edges):
            copies += 1
            lo = hi = assign[0]
            for x in assign[1:]:
                lo &= x
                hi |= x
            varying = hi & ~lo
            images_are_faces = images_are_faces and varying.bit_count() == 2 and len(set(assign)) == 4

    elapsed = time.perf_counter() - t0
    ok = rejected and accepted and corpus_ok and copies == 192 and images_are_faces and elapsed < 60.0
    report(9, ok, f"odd/forbidden graphs rejected, all corpus graphs embedded, {copies} square images all faces, {elapsed:.1f}s")


def test_criterion_10_manifold_checks():
    torus = sk.product_complex(sk.cube_boundary(2), sk.cube_boundary(2))
    positives = [(sk.cube_boundary(d + 1), d) for d in range(5)]
    positives += [(torus, 2), (three_torus(), 3), (sphere_times_circle(), 3)]
    pos_ok = True
    for c, d in positives:
        rep = sk.is_homology_manifold(c)
        pos_ok = pos_ok and rep.is_manifold and rep.dimension == d

    wedge = sk.closure(4, ["**00", "11**"])
    neg_ok = not sk.is_homology_manifold(sk.full_cube(2)).is_manifold
    neg_ok = neg_ok and not sk.is_homology_manifold(wedge).is_manifold

    orient_ok = True
    manifolds = 0
    for _, c in corpus():
        rep = sk.is_homology_manifold(c, check_orientability=True)
        if rep.is_manifold:
            manifolds += 1
            orient_ok = orient_ok and rep.orientable

    ok = pos_ok and neg_ok and orient_ok and manifolds >= 10
    report(10, ok, f"spheres through d=4, tori and the sphere-circle product pass; discs and the wedge fail; {manifolds} corpus manifolds orientable")

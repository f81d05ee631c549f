"""Reeb module tests: meshes, classification, sweep, pruning, Theorem-2 formula."""

import numpy as np
import pytest

from _oracles import surface_integral_oracle
from qmlab.errors import (DegenerateSaddleError, InvariantError, ValidationError)
from qmlab.meshes import (genus2_mesh, genus3_mesh, genus_chain_mesh,
                          height_field, sphere_mesh, torus_mesh)
from qmlab.reeb import (GraphHamiltonian, MorseField, SurfaceMesh, _integrate_density_product,
                        _lower_arc_groups, build_reeb, classify_vertices, graph_integral,
                        graph_to_json, prune, prune_step, random_morse_field,
                        read_morse_csv, read_off, theorem2_value,
                        trivalent_vertices, write_off)


@pytest.fixture(scope="module")
def g2():
    mesh = genus2_mesh().normalized()
    graph = build_reeb(mesh, height_field(mesh))
    return mesh, graph


# ---------------------------------------------------------------- meshes

def test_mesh_genus_and_euler():
    assert sphere_mesh().genus == 0
    assert torus_mesh().genus == 1
    assert genus2_mesh().genus == 2
    assert genus3_mesh().genus == 3


def test_mesh_rejects_non_manifold():
    verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], dtype=float)
    tris = np.array([[0, 1, 2], [0, 1, 3]])  # edge (0,1) traversed twice same way
    with pytest.raises(ValidationError):
        SurfaceMesh(verts, tris)
    # open surface: single triangle has boundary edges
    with pytest.raises(ValidationError):
        SurfaceMesh(verts[:3], np.array([[0, 1, 2]]))


def _tetrahedron(offset=0):
    a, b, c, d = (offset + i for i in range(4))
    return [[a, b, c], [a, c, d], [a, d, b], [b, d, c]]


def _random_points(n, seed=0):
    return np.random.default_rng(seed).standard_normal((n, 3))


@pytest.mark.parametrize("n_vertices, tris, message", [
    # triangle 1 is degenerate and also repeats the directed edge (0,1)
    (3, [[0, 1, 2], [0, 1, 1]], "triangle 1 is degenerate"),
    # the repeat in triangle 1 comes before the degenerate triangle 2
    (4, [[0, 1, 2], [0, 1, 3], [2, 2, 3]], r"directed edge \(0,1\) repeated"),
    # an edge in three triangles repeats one of its directions
    (5, [[0, 1, 2], [1, 0, 3], [2, 1, 4], [0, 1, 4]], r"directed edge \(0,1\) repeated"),
    (3, [[0, 1, 2]], r"edge \(0, 1\) lies in 1 triangles"),
    (8, _tetrahedron() + _tetrahedron(4), "mesh is not connected"),
    # two tetrahedra sharing vertex 3
    (7, _tetrahedron() + _tetrahedron(3), "Euler characteristic 3 is odd"),
    # three tetrahedra in a chain, each sharing one vertex with the next
    (10, _tetrahedron() + _tetrahedron(3) + _tetrahedron(6), "Euler characteristic 4 exceeds 2"),
])
def test_mesh_topology_errors(n_vertices, tris, message):
    with pytest.raises(ValidationError, match=message):
        SurfaceMesh(_random_points(n_vertices), np.array(tris), np.ones(len(tris)))


def _uv_sphere(rings=5, m=8):
    """Vertex ids: apex 0, rings of m vertices bottom to top, apex last."""
    verts = [[0.0, 0.0, -1.0]]
    for r in range(rings):
        z = -1.0 + 2.0 * (r + 1) / (rings + 1)
        verts += [[np.cos(2 * np.pi * j / m), np.sin(2 * np.pi * j / m), z] for j in range(m)]
    verts.append([0.0, 0.0, 1.0])
    ring = lambda r, j: 1 + r * m + j % m
    top = len(verts) - 1
    tris = [[0, ring(0, j + 1), ring(0, j)] for j in range(m)]
    for r in range(rings - 1):
        for j in range(m):
            tris += [[ring(r, j), ring(r, j + 1), ring(r + 1, j)],
                     [ring(r, j + 1), ring(r + 1, j + 1), ring(r + 1, j)]]
    tris += [[top, ring(rings - 1, j), ring(rings - 1, j + 1)] for j in range(m)]
    return np.array(verts), np.array(tris)


def _reference_rings(mesh):
    """Each link as a cycle from the first triangle's successor (dict walk)."""
    succ = [dict() for _ in range(mesh.n_vertices)]
    for a, b, c in mesh.triangles.tolist():
        succ[a][b], succ[b][c], succ[c][a] = c, a, b
    rings = []
    for nxt in succ:
        ring = [next(iter(nxt))]
        while nxt[ring[-1]] != ring[0]:
            ring.append(nxt[ring[-1]])
        assert len(ring) == len(nxt)
        rings.append(ring)
    return rings


def test_vertex_rings_match_reference_walk():
    for mesh in (sphere_mesh(5), torus_mesh(), genus_chain_mesh(3, 8),
                 SurfaceMesh(*_uv_sphere())):
        assert mesh.vertex_rings() == _reference_rings(mesh)


def test_pinched_vertex_link_rejected():
    # identifying two far-apart vertex pairs of a sphere passes the Euler
    # check (chi = 0) but leaves the merged vertices with two-cycle links
    verts, tris = _uv_sphere()
    tris = np.where(tris == 35, 3, np.where(tris == 39, 7, tris))
    tris = np.where(tris > 39, tris - 2, np.where(tris > 35, tris - 1, tris))
    verts = np.delete(verts, [35, 39], axis=0)
    mesh = SurfaceMesh(verts, tris)
    assert mesh.genus == 1
    with pytest.raises(ValidationError, match="link of vertex 3 is not a single cycle"):
        mesh.vertex_rings()
    with pytest.raises(ValidationError, match="link of vertex 3"):
        classify_vertices(mesh, height_field(mesh))


def test_mesh_arrays_are_read_only_copies():
    verts, tris = _uv_sphere()
    mesh = SurfaceMesh(verts, tris)
    verts[0, 0] = 5.0
    tris[0, 0] = 1
    assert mesh.vertices[0, 0] == 0.0 and mesh.triangles[0, 0] == 0
    for arr in (mesh.vertices, mesh.triangles):
        with pytest.raises(ValueError):
            arr[0, 0] = 2


def test_mesh_normalization():
    mesh = genus2_mesh().normalized()
    assert mesh.total_area == pytest.approx(2.0, rel=1e-12)
    with pytest.raises(ValidationError):
        torus_mesh().normalized()  # 2g-2 = 0 is not a valid target


def test_normalized_keeps_topology():
    mesh = genus3_mesh(6)
    rings = mesh.vertex_rings()
    scaled = mesh.normalized(7.5)
    assert scaled.total_area == pytest.approx(7.5, rel=1e-12)
    assert scaled.genus == 3
    assert scaled.vertex_rings() == rings
    assert np.array_equal(scaled.vertices, mesh.vertices)
    assert np.array_equal(scaled.triangles, mesh.triangles)
    for a, b, _ in mesh.triangles[::7].tolist():
        assert scaled.edge_triangles(a, b) == mesh.edge_triangles(b, a)
        assert len(scaled.edge_triangles(a, b)) == 2
    assert np.array_equal(scaled.area_weights, mesh.area_weights * (7.5 / mesh.total_area))
    for target in (0.0, -1.0):
        with pytest.raises(ValidationError, match="must be positive"):
            mesh.normalized(target)


def test_off_roundtrip(tmp_path):
    mesh = torus_mesh(5)
    back = read_off(write_off(mesh))
    assert back.genus == 1
    assert np.allclose(back.vertices, mesh.vertices)
    assert np.array_equal(back.triangles, mesh.triangles)
    with pytest.raises(ValidationError):
        read_off("not an off file")


def test_morse_csv():
    mesh = sphere_mesh(4)
    rows = "\n".join(f"{i},{v}" for i, v in enumerate(mesh.vertices[:, 2]))
    f = read_morse_csv("vertex_id,value\n" + rows, mesh.n_vertices)
    assert np.allclose(f.values, mesh.vertices[:, 2])
    with pytest.raises(ValidationError):
        read_morse_csv("0,1.0", mesh.n_vertices)  # incomplete


# ---------------------------------------------------------------- classification

def test_height_classification_counts():
    for mesh, g in [(torus_mesh(), 1), (genus2_mesh(), 2), (genus3_mesh(), 3)]:
        kinds = classify_vertices(mesh, height_field(mesh))
        assert kinds.count("min") == 1
        assert kinds.count("max") == 1
        assert kinds.count("saddle") == 2 * g


def test_monkey_saddle_detected():
    # a hexagonal cone over a vertex with alternating low/high neighbours
    b = []
    verts = [[0.0, 0.0, 0.0]]
    for j in range(6):
        a = np.pi * j / 3.0
        verts.append([np.cos(a), np.sin(a), 1.0 if j % 2 else -1.0])
    verts.append([0.0, 0.0, 4.0])  # apex closing the fan into a sphere
    tris = [[0, 1 + j, 1 + (j + 1) % 6] for j in range(6)]
    tris += [[7, 1 + (j + 1) % 6, 1 + j] for j in range(6)]
    mesh = SurfaceMesh(np.array(verts), np.array(tris))
    with pytest.raises(DegenerateSaddleError) as err:
        classify_vertices(mesh, MorseField(np.array([v[2] for v in verts])))
    assert err.value.vertex == 0


def _reference_kinds(mesh, f):
    """Per-vertex classification by the tie-broken comparison (loop version)."""
    kinds = []
    for v, ring in enumerate(_reference_rings(mesh)):
        lower = _lower_arc_groups(ring, lambda u: f.below(u, v))
        total_low = sum(len(g) for g in lower)
        if total_low == 0:
            kinds.append("min")
        elif total_low == len(ring):
            kinds.append("max")
        elif len(lower) in (1, 2):
            kinds.append(("regular", "saddle")[len(lower) - 1])
        else:
            raise DegenerateSaddleError(v)
    return kinds


def _outcome(classify, mesh, f):
    try:
        return classify(mesh, f)
    except DegenerateSaddleError as err:
        return ("degenerate", err.vertex)


def test_classification_matches_reference():
    mesh = genus_chain_mesh(3, 8)
    rng = np.random.default_rng(21)
    fields = [height_field(mesh)]
    fields += [random_morse_field(mesh, rng) for _ in range(4)]
    fields += [MorseField(rng.standard_normal(mesh.n_vertices)) for _ in range(4)]
    for levels in (2, 3, 5):
        # few distinct values: ties everywhere, broken by vertex id
        q = rng.integers(-levels, levels + 1, mesh.n_vertices) / levels
        fields.append(MorseField(q))
        # zeros of both signs tie with each other
        fields.append(MorseField(np.where(q == 0.0, np.copysign(0.0, rng.standard_normal(q.size)), q)))
    outcomes = []
    for f in fields:
        expected = _outcome(_reference_kinds, mesh, f)
        assert _outcome(classify_vertices, mesh, f) == expected
        outcomes.append(expected[0] == "degenerate")
    assert any(outcomes) and not all(outcomes)  # both paths were exercised


def test_lowest_monkey_saddle_reported():
    # two cones over one hexagon with alternating heights: both apexes are
    # monkey saddles; the one swept first (id 7) is not the lowest id
    verts = [[np.cos(np.pi * j / 3), np.sin(np.pi * j / 3), (-1.0) ** j] for j in range(6)]
    verts += [[0.0, 0.0, 0.5], [0.0, 0.0, 0.2]]
    tris = [[6, j, (j + 1) % 6] for j in range(6)] + [[7, (j + 1) % 6, j] for j in range(6)]
    mesh = SurfaceMesh(np.array(verts), np.array(tris))
    f = height_field(mesh)
    for classify in (classify_vertices, _reference_kinds):
        with pytest.raises(DegenerateSaddleError) as err:
            classify(mesh, f)
        assert err.value.vertex == 6


# ---------------------------------------------------------------- build_reeb

def test_sphere_reeb_single_edge():
    mesh = sphere_mesh()
    graph = build_reeb(mesh, height_field(mesh))
    assert len(graph.nodes) == 2 and len(graph.edges) == 1
    assert graph.euler_deficiency() == 2
    assert graph.total_measure() == pytest.approx(mesh.total_area, rel=1e-12)


def test_torus_reeb_structure():
    mesh = torus_mesh()
    graph = build_reeb(mesh, height_field(mesh))
    kinds = sorted(n.kind for n in graph.nodes.values())
    assert kinds == ["max", "min", "saddle", "saddle"]
    assert len(graph.edges) == 4
    assert graph.euler_deficiency() == 0
    deg = graph.degrees()
    assert sorted(deg.values()) == [1, 1, 3, 3]
    # the two saddles bound a 2-cycle
    saddles = [nid for nid, n in graph.nodes.items() if n.kind == "saddle"]
    cyc = [e for e in graph.edges.values() if {e.lo, e.hi} == set(saddles)]
    assert len(cyc) == 2


def test_genus2_reeb_structure(g2):
    mesh, graph = g2
    kinds = sorted(n.kind for n in graph.nodes.values())
    assert kinds == ["max", "min", "saddle", "saddle", "saddle", "saddle"]
    assert len(graph.edges) == 7
    assert graph.euler_deficiency() == -2
    assert graph.total_measure() == pytest.approx(2.0, rel=1e-12)


def test_edge_intervals_oriented(g2):
    _, graph = g2
    for e in graph.edges.values():
        assert e.f_lo < e.f_hi
        assert graph.nodes[e.lo].f == e.f_lo
        assert graph.nodes[e.hi].f == e.f_hi
        assert e.measure > 0


@pytest.mark.parametrize("seed", [None, 1, 2])
def test_source_edges_partition_upper_stars(seed):
    mesh = genus_chain_mesh(3, 8)
    f = (height_field(mesh) if seed is None
         else random_morse_field(mesh, np.random.default_rng(seed)))
    graph = build_reeb(mesh, f)
    rings = mesh.vertex_rings()
    for nid, node in graph.nodes.items():
        v = node.vertex
        out = [e for e in graph.edges.values() if e.lo == nid]
        n_in = sum(e.hi == nid for e in graph.edges.values())
        expected = {"min": [(0, 1)], "max": [(1, 0)], "saddle": [(2, 1), (1, 2)]}[node.kind]
        assert (n_in, len(out)) in expected
        upper = {(min(u, v), max(u, v)) for u in rings[v] if f.below(v, u)}
        sources = [s for e in out for s in e.source_edges]
        assert len(sources) == len(set(sources)) and set(sources) == upper
        for e in out:
            assert e.source_edges and all(v in s for s in e.source_edges)
            assert list(e.source_edges) == sorted(e.source_edges)


def test_edge_measures_match_slab_areas(g2):
    mesh, graph = g2
    # the two pendant edges are the caps plus trunk below/above the first saddle
    f = mesh.vertices[:, 2]
    for e in graph.edges.values():
        lo_node, hi_node = graph.nodes[e.lo], graph.nodes[e.hi]
        if lo_node.kind == "min":
            # area below the first saddle level
            expected = surface_integral_oracle(
                mesh, f, [e.f_lo, e.f_hi, e.f_hi + 1e-9], [1.0, 1.0, 0.0])
            # indicator up to the saddle: compare against direct clip
            assert e.measure == pytest.approx(expected, abs=1e-8)


# ---------------------------------------------------------------- pruning

def test_prune_torus_leaves_bare_cycle():
    mesh = torus_mesh()
    graph = build_reeb(mesh, height_field(mesh))
    pruned = prune(graph)
    assert len(pruned.nodes) == 2 and len(pruned.edges) == 2
    assert all(d == 2 for d in pruned.degrees().values())
    assert trivalent_vertices(pruned) == set()


def test_prune_idempotent(g2):
    _, graph = g2
    once = prune(graph)
    twice = prune(once)
    assert set(twice.nodes) == set(once.nodes)
    assert set(twice.edges) == set(once.edges)


def test_prune_sphere_degenerates_to_empty():
    mesh = sphere_mesh()
    graph = build_reeb(mesh, height_field(mesh))
    assert prune(graph).nodes == {}


def test_prune_step_preserves_deficiency(g2):
    _, graph = g2
    cur = graph
    steps = 0
    while True:
        nxt = prune_step(cur)
        if nxt is None:
            break
        assert nxt.euler_deficiency() == graph.euler_deficiency()
        cur = nxt
        steps += 1
    assert steps == 2  # min and max leaves


def test_prune_order_independent(g2):
    _, graph = g2
    rng = np.random.default_rng(3)
    baseline = prune(graph)
    for _ in range(5):
        shuffled = prune(graph, choose=lambda ids: ids[int(rng.integers(len(ids)))]
                         if isinstance(ids, list) else min(ids))
        assert set(shuffled.nodes) == set(baseline.nodes)
        assert set(shuffled.edges) == set(baseline.edges)


def test_trivalent_counts():
    for mesh, g in [(genus2_mesh(), 2), (genus3_mesh(), 3)]:
        graph = build_reeb(mesh, height_field(mesh))
        assert len(trivalent_vertices(prune(graph))) == 2 * g - 2
    with pytest.raises(ValidationError):
        trivalent_vertices(prune(build_reeb(sphere_mesh(), height_field(sphere_mesh()))))


def test_genus2_trivalent_are_neck_saddles(g2):
    # in the series chain only the two middle saddles stay trivalent
    _, graph = g2
    vset = trivalent_vertices(prune(graph))
    levels = sorted(graph.nodes[v].f for v in vset)
    assert levels == [-0.5, 0.5]


# ---------------------------------------------------------------- integrals

def test_graph_integral_constant(g2):
    _, graph = g2
    h = GraphHamiltonian.constant(graph, 2.5)
    assert graph_integral(graph, h) == pytest.approx(2.5 * 2.0, rel=1e-12)


def test_graph_integral_identity_symmetric_zero(g2):
    _, graph = g2
    h = GraphHamiltonian.from_function(graph, lambda c: c)
    assert graph_integral(graph, h) == pytest.approx(0.0, abs=1e-12)


def test_graph_integral_matches_clip_oracle(g2):
    mesh, graph = g2
    cs = [-3.0, -0.8, 0.3, 3.0]
    hs = [0.5, 2.0, -1.0, 0.25]
    phi = lambda c: float(np.interp(c, cs, hs))
    h = GraphHamiltonian(graph, {
        eid: [(c, phi(c)) for c in sorted({e.f_lo, e.f_hi,
                                           *(x for x, _ in e.breakpoints),
                                           *[b for b in cs if e.f_lo < b < e.f_hi]})]
        for eid, e in graph.edges.items()})
    oracle = surface_integral_oracle(mesh, mesh.vertices[:, 2], cs, hs)
    assert graph_integral(graph, h) == pytest.approx(oracle, abs=1e-10)


def test_graph_integral_random_fields_match_oracle():
    mesh = genus2_mesh(6)
    rng = np.random.default_rng(14)
    for _ in range(3):
        f = random_morse_field(mesh, rng)
        graph = build_reeb(mesh, f)
        lo, hi = f.values.min(), f.values.max()
        cs = [lo - 1, lo + 0.3 * (hi - lo), lo + 0.7 * (hi - lo), hi + 1]
        hs = [rng.normal(), rng.normal(), rng.normal(), rng.normal()]
        phi = lambda c: float(np.interp(c, cs, hs))
        h = GraphHamiltonian(graph, {
            eid: [(c, phi(c)) for c in sorted({e.f_lo, e.f_hi,
                                               *(x for x, _ in e.breakpoints),
                                               *[b for b in cs if e.f_lo < b < e.f_hi]})]
            for eid, e in graph.edges.items()})
        oracle = surface_integral_oracle(mesh, f.values, cs, hs)
        assert graph_integral(graph, h) == pytest.approx(oracle, abs=1e-9)


def _scalar_density_product(bps, hcs, hhs):
    """Reference: the per-scalar ``np.interp`` loop of the batched integrator."""
    total = 0.0
    for (c0, d0), (c1, d1) in zip(bps, bps[1:]):
        if c1 <= c0:
            continue
        cuts = [c0] + [c for c in hcs if c0 < c < c1] + [c1]
        for a, b in zip(cuts, cuts[1:]):
            da = d0 + (d1 - d0) * (a - c0) / (c1 - c0)
            db = d0 + (d1 - d0) * (b - c0) / (c1 - c0)
            ha = float(np.interp(a, hcs, hhs))
            hb = float(np.interp(b, hcs, hhs))
            mid = 0.25 * (da + db) * (ha + hb)
            total += (b - a) / 6.0 * (da * ha + 4.0 * mid + db * hb)
    return total


@pytest.mark.parametrize("n_cuts", [2, 3, 9])
def test_density_product_matches_scalar_reference(n_cuts):
    # the height field has tied levels, so its densities jump
    mesh = genus_chain_mesh(3, 8)
    for f in (height_field(mesh), random_morse_field(mesh, np.random.default_rng(5))):
        graph = build_reeb(mesh, f)
        for e in graph.edges.values():
            hcs = np.linspace(e.f_lo, e.f_hi, n_cuts)
            hhs = np.sin(3.0 * hcs) + hcs ** 2
            got = _integrate_density_product(e.breakpoints, hcs, hhs)
            assert repr(got) == repr(_scalar_density_product(e.breakpoints, hcs, hhs))


def test_pendant_edge_measure_recovered(g2):
    # h ~ 1 on one pendant edge (tapered near the node) integrates to ~ its measure
    _, graph = g2
    pend = next(e for e in graph.edges.values() if graph.nodes[e.lo].kind == "min")
    eps = 1e-6
    table = {eid: [(e.f_lo, 0.0), (e.f_hi, 0.0)] for eid, e in graph.edges.items()}
    table[pend.id] = [(pend.f_lo, 1.0), (pend.f_hi - eps, 1.0), (pend.f_hi, 0.0)]
    h = GraphHamiltonian(graph, table)
    assert graph_integral(graph, h) == pytest.approx(pend.measure, abs=1e-5)


def test_hamiltonian_node_consistency_enforced(g2):
    _, graph = g2
    table = {eid: [(e.f_lo, 0.0), (e.f_hi, 0.0)] for eid, e in graph.edges.items()}
    some = next(iter(graph.edges.values()))
    table[some.id] = [(some.f_lo, 1.0), (some.f_hi, 1.0)]
    with pytest.raises(ValidationError):
        GraphHamiltonian(graph, table)
    with pytest.raises(ValidationError):
        GraphHamiltonian(graph, {k: v for k, v in list(table.items())[1:]})


# ---------------------------------------------------------------- theorem 2

def test_theorem2_constant_is_zero(g2):
    _, graph = g2
    for c in (1.0, -3.2, 0.0):
        h = GraphHamiltonian.constant(graph, c)
        assert theorem2_value(graph, h) == pytest.approx(0.0, abs=1e-12)


def test_theorem2_height_value_matches_hand_oracle(g2):
    mesh, graph = g2
    h = GraphHamiltonian.from_function(graph, lambda c: c)
    # mirror symmetry: integral term 0; trivalent saddles at -1/2, +1/2 sum to 0
    assert theorem2_value(graph, h) == pytest.approx(0.0, abs=1e-10)
    # non-symmetric h: oracle = clip integral minus values at the neck saddles
    cs = [-3.0, 0.0, 3.0]
    hs = [0.0, 1.0, 0.0]
    phi = lambda c: float(np.interp(c, cs, hs))
    h2 = GraphHamiltonian(graph, {
        eid: [(c, phi(c)) for c in sorted({e.f_lo, e.f_hi,
                                           *(x for x, _ in e.breakpoints),
                                           *[b for b in cs if e.f_lo < b < e.f_hi]})]
        for eid, e in graph.edges.items()})
    oracle = surface_integral_oracle(mesh, mesh.vertices[:, 2], cs, hs) - (phi(-0.5) + phi(0.5))
    assert theorem2_value(graph, h2) == pytest.approx(oracle, abs=1e-10)


def test_theorem2_linearity(g2):
    _, graph = g2
    h1 = GraphHamiltonian.from_function(graph, lambda c: c)
    h2 = GraphHamiltonian.from_function(graph, lambda c: abs(c - 0.3))
    a, b = 1.7, -0.4
    comb = GraphHamiltonian(graph, {
        eid: [(c, a * h1.value(eid, c) + b * h2.value(eid, c))
              for c in sorted({e.f_lo, e.f_hi, *(x for x, _ in e.breakpoints), 0.3})
              if e.f_lo <= c <= e.f_hi]
        for eid, e in graph.edges.items()})
    lhs = theorem2_value(graph, comb)
    rhs = a * theorem2_value(graph, h1) + b * theorem2_value(graph, h2)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_theorem2_shift_invariance(g2):
    _, graph = g2
    h = GraphHamiltonian.from_function(graph, lambda c: np.sin(c))
    hc = GraphHamiltonian.from_function(graph, lambda c: np.sin(c) + 4.0)
    assert theorem2_value(graph, hc) == pytest.approx(theorem2_value(graph, h), abs=1e-12)


def test_theorem2_rejects_unnormalized_and_low_genus():
    mesh = genus2_mesh()  # not normalized
    graph = build_reeb(mesh, height_field(mesh))
    with pytest.raises(ValidationError):
        theorem2_value(graph, GraphHamiltonian.constant(graph, 1.0))
    tor = torus_mesh()
    tg = build_reeb(tor, height_field(tor))
    with pytest.raises(ValidationError):
        theorem2_value(tg, GraphHamiltonian.constant(tg, 1.0))


# ---------------------------------------------------------------- importer

def test_field_importer_accepts_commuting(g2):
    mesh, _ = g2
    graph = build_reeb(mesh, height_field(mesh), sample_field=lambda p: p[2] ** 2)
    h = GraphHamiltonian.from_sampling(graph)
    # exact at the sampled levels (between them the function is PL interpolation)
    for eid, e in graph.edges.items():
        cs, hs = h.breakpoints(eid)
        assert np.allclose(hs, cs ** 2, atol=1e-9)
    # a field that is PL in F is reproduced exactly everywhere
    graph_lin = build_reeb(mesh, height_field(mesh), sample_field=lambda p: 2.0 * p[2] - 1.0)
    h_lin = GraphHamiltonian.from_sampling(graph_lin)
    for eid, e in graph_lin.edges.items():
        for c in np.linspace(e.f_lo, e.f_hi, 5):
            assert h_lin.value(eid, c) == pytest.approx(2.0 * c - 1.0, abs=1e-9)


def test_field_importer_rejects_non_commuting(g2):
    mesh, _ = g2
    with pytest.raises(ValidationError):
        build_reeb(mesh, height_field(mesh), sample_field=lambda p: p[0])


def test_from_sampling_requires_sampled_graph(g2):
    _, graph = g2
    with pytest.raises(ValidationError):
        GraphHamiltonian.from_sampling(graph)


# ---------------------------------------------------------------- json

def test_incident_edges_match_scan(g2):
    _, graph = g2
    for g in (graph, prune(graph)):
        for nid in list(g.nodes) + [max(g.nodes) + 1]:
            scan = [e for e in g.edges.values() if nid in (e.lo, e.hi)]
            assert g.incident_edges(nid) == scan
            assert g.degree(nid) == len(scan) == g.degrees().get(nid, 0)


def test_graph_json_shape(g2):
    _, graph = g2
    data = graph_to_json(graph)
    assert data["genus"] == 2
    assert len(data["nodes"]) == 6 and len(data["edges"]) == 7
    assert data["total_measure"] == pytest.approx(2.0)
    h = GraphHamiltonian.from_function(graph, lambda c: c)
    back = GraphHamiltonian.from_json(graph, h.to_json())
    some = next(iter(graph.edges))
    assert back.value(some, graph.edges[some].f_lo) == h.value(some, graph.edges[some].f_lo)

"""Reeb graphs of piecewise-linear Morse functions on closed oriented surfaces.

The surface is a triangulated mesh carrying per-triangle area weights (the
symplectic area).  A scalar vertex field is made Morse by the standard
simulation of simplicity: vertices are totally ordered by ``(value, id)``,
so equal values never create degenerate combinatorics.  The Reeb graph is
built by a single sweep over that order.  A connected component of the
level curve only ever needs to be found, merged and split, never listed,
so each live component is a union-find class of the mesh edges it crosses,
with a count of them; components join or divide only at PL-critical
vertices, which become graph nodes.  Each live component is also the Reeb
edge it traces.  A regular vertex points its up edges at its down edges'
class; every critical vertex, whether a minimum, a maximum, a merge or a
split, closes the components on its lower arcs at one node and opens one
component per part of the level just above it.  A merge unions two
classes.  A split walks both circles of the level just above the saddle,
from triangle to triangle on edge ids, starting from its two upper arcs,
and gives each circle a class of its own; the same walk lists a
component's crossed edges for the field-sampling importer.

Each graph edge carries the pushforward of the area measure as an exact
piecewise-linear density in the field parameter: a triangle crossed by the
level contributes a linear density on each interval between its own vertex
values, so recording the totals at every traversed vertex level makes
downstream quadrature exact for PL data.  The density can jump only at a
level where a triangle has two equal vertex values; at every other vertex
the sweep records one breakpoint.

A mesh validates its topology once, with array operations, when it is
built; rescaled copies (``normalized``) share it.  Undirected edges are
numbered once, in the order of their ``(u, v)`` keys, with read-only
edge -> triangles and triangle -> edges tables.  The vertex links are
cached on the mesh as one flat array of ring entries plus per-vertex
offsets, with the edge id of each entry, so every field on the same mesh
classifies its vertices in one vectorized pass over those arrays, and the
sweep reuses the classification's ranks and the cached links.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DegenerateSaddleError, InvariantError, ValidationError, convert

LEVEL_CONSTANCY_TOL = 1e-6   # importer rejects fields that vary along a level component
NODE_CONSISTENCY_TOL = 1e-9  # incident-edge limits of a graph Hamiltonian must agree
AREA_NORMALIZATION_RTOL = 1e-8
MORSE_DRAWS, MORSE_WAVES = 60, 4  # random_morse_field: draws before giving up, plane waves per draw


# --------------------------------------------------------------------------
# surface meshes
# --------------------------------------------------------------------------

class SurfaceMesh:
    """A closed, oriented, connected triangulated surface with area weights.

    Parameters
    ----------
    vertices : (V, 3) float array
        Point positions (used for crossing-point geometry and default areas).
    triangles : (F, 3) int array
        Consistently oriented triangles (each directed edge appears once).
    area_weights : (F,) float array, optional
        Positive symplectic area per triangle; Euclidean area by default.

    The mesh keeps read-only copies of ``vertices`` and ``triangles``; its
    topology is validated once, here, and shared with rescaled copies.
    """

    def __init__(self, vertices, triangles, area_weights=None):
        vertices = np.array(vertices, dtype=float)
        triangles = np.array(triangles, dtype=int)
        if vertices.ndim != 2 or vertices.shape[1] != 3:
            raise ValidationError("vertices must be (V, 3)")
        if triangles.ndim != 2 or triangles.shape[1] != 3:
            raise ValidationError("triangles must be (F, 3)")
        if triangles.size and (triangles.min() < 0 or triangles.max() >= len(vertices)):
            raise ValidationError("triangle index out of range")
        if not np.all(np.isfinite(vertices)):
            raise ValidationError("vertex coordinates must be finite")
        vertices.flags.writeable = False
        triangles.flags.writeable = False
        if area_weights is None:
            p, t = vertices, triangles
            cross = np.cross(p[t[:, 1]] - p[t[:, 0]], p[t[:, 2]] - p[t[:, 0]])
            area_weights = 0.5 * np.linalg.norm(cross, axis=1)
        self.area_weights = _checked_weights(area_weights, len(triangles))
        self._topo = _Topology(vertices, triangles)

    @property
    def vertices(self) -> np.ndarray:
        return self._topo.vertices

    @property
    def triangles(self) -> np.ndarray:
        return self._topo.triangles

    @property
    def genus(self) -> int:
        return self._topo.genus

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def total_area(self) -> float:
        return float(self.area_weights.sum())

    def edge_triangles(self, u: int, v: int) -> tuple[int, ...]:
        """The two triangles on edge {u, v}, in half-edge order."""
        keys = self._topo.edge_keys
        key = min(u, v) * self.n_vertices + max(u, v)
        i = int(np.searchsorted(keys, key))
        if i == len(keys) or keys[i] != key:
            raise KeyError((u, v))
        return tuple(self._topo.edge_tris[i].tolist())

    def vertex_rings(self) -> list[list[int]]:
        """The link of each vertex as an oriented cycle of neighbours."""
        entries, offsets, _ = self._topo.links()
        flat, bounds = entries.tolist(), offsets.tolist()
        return [flat[lo:hi] for lo, hi in zip(bounds, bounds[1:])]

    def normalized(self, target: float | None = None) -> "SurfaceMesh":
        """Rescale area weights to a given total (default 2g-2, genus >= 2)."""
        if target is None:
            if self.genus < 2:
                raise ValidationError("default normalization 2g-2 requires genus >= 2")
            target = 2.0 * self.genus - 2.0
        if target <= 0:
            raise ValidationError("normalization target must be positive")
        mesh = SurfaceMesh.__new__(SurfaceMesh)
        mesh.area_weights = _checked_weights(self.area_weights * (target / self.total_area),
                                             len(self.triangles))
        mesh._topo = self._topo
        return mesh


def _checked_weights(area_weights, n_triangles: int) -> np.ndarray:
    weights = np.asarray(area_weights, dtype=float)
    if weights.shape != (n_triangles,):
        raise ValidationError("area_weights must have one entry per triangle")
    if not np.all(np.isfinite(weights)):
        raise ValidationError("area weights must be finite")
    if np.any(weights <= 0):
        raise ValidationError("area weights must be positive")
    return weights


class _Topology:
    """Validated connectivity of a triangle mesh, shared by its rescaled copies.

    Half-edges are numbered ``3 * ti + j`` for the edges (a, b), (b, c),
    (c, a) of triangle ``ti = (a, b, c)``, so every check below that names
    "the first" offender means the first in that order.
    """

    def __init__(self, vertices: np.ndarray, triangles: np.ndarray):
        self.vertices = vertices
        self.triangles = triangles
        n_v, t = len(vertices), triangles
        tail = t.ravel()
        head = t[:, [1, 2, 0]].ravel()
        degenerate = np.flatnonzero((t[:, 0] == t[:, 1]) | (t[:, 1] == t[:, 2])
                                    | (t[:, 2] == t[:, 0]))
        repeat = _first_repeat(tail * n_v + head)
        if degenerate.size and (repeat is None or degenerate[0] <= repeat // 3):
            raise ValidationError(f"triangle {degenerate[0]} is degenerate")
        if repeat is not None:
            u, v = tail[repeat], head[repeat]
            raise ValidationError(
                f"directed edge ({u},{v}) repeated: mesh is non-manifold or inconsistently oriented")
        lo, hi = np.minimum(tail, head), np.maximum(tail, head)
        edge_key = lo * n_v + hi
        keys, first, edge_of, counts = np.unique(edge_key, return_index=True,
                                                 return_inverse=True, return_counts=True)
        open_edges = np.flatnonzero(counts != 2)
        if open_edges.size:
            j = open_edges[np.argmin(first[open_edges])]
            e = (int(lo[first[j]]), int(hi[first[j]]))
            raise ValidationError(f"edge {e} lies in {counts[j]} triangles; surface must be closed")
        if _component_count(n_v, lo[first], hi[first]) != 1:
            raise ValidationError("mesh is not connected")
        # Edge ids number the undirected edges (u, v), u < v, in the order of
        # the tuples.  Both half-edges of each edge, in half-edge order, give
        # its two triangles; half-edge 3 * ti + j gives edge j of triangle ti.
        pairs = np.argsort(edge_key, kind="stable").reshape(-1, 2)
        self.edge_keys = keys
        self.edge_tris = pairs // 3
        self.tri_edges = edge_of.reshape(-1, 3)
        for arr in (self.edge_keys, self.edge_tris, self.tri_edges):
            arr.flags.writeable = False
        chi = n_v - len(keys) + len(t)
        if chi % 2:
            raise ValidationError(f"Euler characteristic {chi} is odd")
        genus = (2 - chi) // 2
        if genus < 0:
            raise ValidationError(f"Euler characteristic {chi} exceeds 2")
        self.genus = genus
        self._links = None

    def links(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vertex links in CSR form, built on first use.

        ``entries[offsets[v]:offsets[v + 1]]`` is the oriented cycle of
        neighbours of v, and ``edges`` holds the id of the edge from v to
        each entry.
        """
        if self._links is None:
            entries, offsets, corners = _vertex_links(self.triangles, len(self.vertices))
            edges = self.tri_edges.ravel()[corners]
            edges.flags.writeable = False
            self._links = entries, offsets, edges
        return self._links


def _first_repeat(keys: np.ndarray) -> int | None:
    """The first position whose key already occurred earlier, or None."""
    order = np.argsort(keys, kind="stable")
    later = order[1:][keys[order[1:]] == keys[order[:-1]]]
    return int(later.min()) if later.size else None


def _component_count(n_v: int, u: np.ndarray, v: np.ndarray) -> int:
    """Connected components of the graph on n_v vertices with edges (u[i], v[i]).

    Hook and compress: every edge hooks the larger of its two root labels
    onto the smaller (``np.minimum.at``), then pointer jumping compresses
    each label to its root.  Labels only decrease, so each round leaves
    fewer roots, and the loop stops when every edge joins equal labels.
    """
    label = np.arange(n_v)
    while True:
        a, b = label[u], label[v]
        if np.array_equal(a, b):
            return int(np.count_nonzero(label == np.arange(n_v)))
        np.minimum.at(label, np.maximum(a, b), np.minimum(a, b))
        jumped = label[label]
        while not np.array_equal(jumped, label):
            label, jumped = jumped, jumped[jumped]


def _vertex_links(triangles: np.ndarray,
                  n_v: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Walk every vertex link at once over the triangle corners.

    The corner of v in triangle (v, k, w) maps k to w, and the link of v
    is the cycle of that map.  A ring starts at k of v's first triangle and
    follows the corner whose k is the current w; the vertices are walked
    in parallel, one ring position per step.  Returns the ring entries,
    their CSR offsets and each entry's corner ``3 * ti + j``, which is also
    the number of the half-edge from v to the entry.
    """
    center = triangles.ravel()
    key = triangles[:, [1, 2, 0]].ravel()
    succ = triangles[:, [2, 0, 1]].ravel()
    deg = np.bincount(center, minlength=n_v)
    offsets = np.zeros(n_v + 1, dtype=np.intp)
    np.cumsum(deg, out=offsets[1:])
    # half-edge (v, k) -> its corner; (v, w) exists for every corner of a closed mesh
    halfedge = center * n_v + key
    by_halfedge = np.argsort(halfedge)
    nxt = by_halfedge[np.searchsorted(halfedge, center * n_v + succ, sorter=by_halfedge)]
    start = np.argsort(center, kind="stable")[offsets[:-1]]
    corners = np.empty(center.size, dtype=np.intp)
    cur = start.copy()
    broken = np.zeros(n_v, dtype=bool)
    for i in range(int(deg.max(initial=0))):
        live = np.flatnonzero(deg > i)
        c = cur[live]
        if i:
            broken[live[c == start[live]]] = True
        corners[offsets[live] + i] = c
        cur[live] = nxt[c]
    broken |= cur != start
    if np.any(broken):
        raise ValidationError(f"link of vertex {int(np.argmax(broken))} is not a single cycle")
    entries = key[corners]
    entries.flags.writeable = False
    offsets.flags.writeable = False
    return entries, offsets, corners


def read_off(text: str) -> SurfaceMesh:
    """Parse an ASCII OFF file (triangles only)."""
    tokens = re.sub(r"#.*", "", text).split()
    if not tokens or tokens[0] != "OFF":
        raise ValidationError("not an OFF file")
    try:
        nv, nf = int(tokens[1]), int(tokens[2])
        if nv < 0 or nf < 0:
            raise ValueError(f"negative counts {nv} {nf}")
        pos = 4
        verts = np.array(tokens[pos:pos + 3 * nv], dtype=float).reshape(nv, 3)
        pos += 3 * nv
        faces = np.array(tokens[pos:pos + 4 * nf], dtype=int)
    except (IndexError, ValueError) as exc:
        raise ValidationError(f"malformed OFF file: {exc}") from exc
    complete = faces[:4 * (faces.size // 4)].reshape(-1, 4)
    if np.any(complete[:, 0] != 3):
        raise ValidationError("only triangle faces are supported")
    if len(complete) < nf:
        raise ValidationError(f"malformed OFF file: {len(complete)} of {nf} faces present")
    return SurfaceMesh(verts, complete[:, 1:])


def write_off(mesh: SurfaceMesh) -> str:
    out = io.StringIO()
    out.write("OFF\n")
    out.write(f"{mesh.n_vertices} {len(mesh.triangles)} 0\n")
    for p in mesh.vertices:
        out.write(f"{p[0]:.17g} {p[1]:.17g} {p[2]:.17g}\n")
    for t in mesh.triangles:
        out.write(f"3 {t[0]} {t[1]} {t[2]}\n")
    return out.getvalue()


# --------------------------------------------------------------------------
# Morse fields
# --------------------------------------------------------------------------

KIND_MIN = "min"
KIND_MAX = "max"
KIND_SADDLE = "saddle"
KIND_REGULAR = "regular"


@dataclass(frozen=True)
class MorseField:
    """Per-vertex scalar values, made Morse by the (value, id) tie-break."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1:
            raise ValidationError("field values must be a 1-d array")
        if not np.all(np.isfinite(vals)):
            raise ValidationError("field values must be finite")
        object.__setattr__(self, "values", vals)

    def below(self, u: int, v: int) -> bool:
        """Tie-broken comparison: u strictly below v."""
        return (self.values[u], u) < (self.values[v], v)


_KIND_BY_CODE = (KIND_MIN, KIND_MAX, KIND_REGULAR, KIND_SADDLE)


def _classify(mesh: SurfaceMesh, f: MorseField) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Kinds of all vertices, the sweep order and each vertex's rank in it.

    The sweep order is the total order by ``(value, id)``.  A vertex's ring
    entry is lower when its rank is lower, and every maximal cyclic run of
    lower entries ends where a lower entry is followed by a higher one, so
    the number of such ends is the number of lower arcs.
    """
    if len(f.values) != mesh.n_vertices:
        raise ValidationError("field length does not match the mesh")
    entries, offsets, _ = mesh._topo.links()
    n_v = mesh.n_vertices
    order = np.lexsort((np.arange(n_v), f.values))
    rank = np.empty(n_v, dtype=np.intp)
    rank[order] = np.arange(n_v)
    deg = np.diff(offsets)
    starts = offsets[:-1]
    low = rank[entries] < np.repeat(rank, deg)
    nxt = np.arange(1, entries.size + 1)
    nxt[offsets[1:] - 1] = starts
    n_low = np.add.reduceat(low, starts, dtype=np.intp)
    arcs = np.add.reduceat(low & ~low[nxt], starts, dtype=np.intp)
    degenerate = np.flatnonzero(arcs >= 3)
    if degenerate.size:
        raise DegenerateSaddleError(int(degenerate[0]))
    codes = np.where(n_low == 0, 0, np.where(n_low == deg, 1, 1 + arcs))
    return [_KIND_BY_CODE[c] for c in codes.tolist()], order, rank


def classify_vertices(mesh: SurfaceMesh, f: MorseField) -> list[str]:
    """PL classification of every vertex (min / max / saddle / regular).

    Raises :class:`DegenerateSaddleError` when a lower link has three or
    more components (a monkey saddle survives the tie-break); the error
    names the lowest such vertex id.
    """
    return _classify(mesh, f)[0]


def random_morse_field(mesh: SurfaceMesh, rng: np.random.Generator) -> MorseField:
    """A random smooth field sampled at the vertices, redrawn until PL-Morse.

    Low-frequency random plane waves keep the variation across a triangle
    small, so degenerate (monkey) saddles are rare and rejection sampling
    terminates quickly; white vertex noise would instead make them almost
    certain at high-degree vertices.
    """
    pts = mesh.vertices
    scale = np.linalg.norm(pts.max(axis=0) - pts.min(axis=0)) or 1.0
    for _ in range(MORSE_DRAWS):
        vals = np.zeros(mesh.n_vertices)
        for _ in range(MORSE_WAVES):
            direction = rng.standard_normal(3)
            direction /= np.linalg.norm(direction)
            freq = rng.uniform(0.5, 2.5) * 2.0 * np.pi / scale
            phase = rng.uniform(0.0, 2.0 * np.pi)
            vals += rng.standard_normal() * np.cos(freq * pts @ direction + phase)
        f = MorseField(vals)
        try:
            classify_vertices(mesh, f)
        except DegenerateSaddleError:
            continue
        return f
    raise ValidationError(f"no PL-Morse field found in {MORSE_DRAWS} draws")


def read_morse_csv(text: str, n_vertices: int) -> MorseField:
    """Parse 'vertex_id,value' rows (optional header) into a MorseField."""
    values = np.full(n_vertices, np.nan)
    seen = np.zeros(n_vertices, dtype=bool)
    reader = csv.reader(io.StringIO(text))
    for row in reader:
        if not row or row[0].strip().lower() in ("vertex_id", "vertex", "id"):
            continue
        try:
            idx, val = int(row[0]), float(row[1])
        except (IndexError, ValueError) as exc:
            raise ValidationError(f"malformed Morse CSV row {row!r}") from exc
        if not 0 <= idx < n_vertices:
            raise ValidationError(f"vertex id {idx} out of range")
        if seen[idx]:
            raise ValidationError(f"Morse CSV repeats vertex {idx}")
        seen[idx] = True
        values[idx] = val
    if not seen.all():
        raise ValidationError("Morse CSV does not cover every vertex")
    return MorseField(values)


# --------------------------------------------------------------------------
# Reeb graphs
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ReebNode:
    id: int
    f: float
    kind: str
    vertex: int | None = None


@dataclass(frozen=True)
class ReebEdge:
    """An edge of the Reeb graph, oriented lo -> hi by increasing field value.

    ``breakpoints`` is the exact PL density (area per unit field value) of
    the pushforward measure on the edge's cylinder, as ``(c, density)``
    pairs with non-decreasing c.  A repeated c marks a jump.  The sweep
    records a vertex level twice, before and after the vertex, only when a
    triangle of its star has two equal vertex values, which is where the
    density can jump; a level that several vertices share is recorded once
    per vertex.  ``h_breakpoints`` is optionally filled by the
    field-sampling importer.
    """

    id: int
    lo: int
    hi: int
    f_lo: float
    f_hi: float
    breakpoints: tuple  # ((c, density), ...); a repeated c marks a jump
    source_edges: tuple = ()
    h_breakpoints: tuple | None = None

    @cached_property
    def measure(self) -> float:
        """Total area on the edge, computed on first access."""
        cs = np.array([c for c, _ in self.breakpoints])
        ds = np.array([d for _, d in self.breakpoints])
        return float(np.trapezoid(ds, cs)) if cs.size > 1 else 0.0


@dataclass(frozen=True)
class ReebGraph:
    nodes: dict[int, ReebNode]
    edges: dict[int, ReebEdge]
    genus: int

    @cached_property
    def _incidence(self) -> dict[int, list[ReebEdge]]:
        """Node id -> incident edges in edge order, built once per graph."""
        inc: dict[int, list[ReebEdge]] = {}
        for e in self.edges.values():
            inc.setdefault(e.lo, []).append(e)
            if e.hi != e.lo:
                inc.setdefault(e.hi, []).append(e)
        return inc

    @cached_property
    def core(self) -> "ReebGraph":
        """``prune(self)``, computed once per graph."""
        return prune(self)

    def degrees(self) -> dict[int, int]:
        deg = {nid: 0 for nid in self.nodes}
        for e in self.edges.values():
            deg[e.lo] += 1
            deg[e.hi] += 1
        return deg

    def euler_deficiency(self) -> int:
        """Sum over nodes of (2 - degree); equals 2 - 2g for a valid graph."""
        deg = self.degrees()
        return sum(2 - d for d in deg.values())

    def total_measure(self) -> float:
        return sum(e.measure for e in self.edges.values())

    def incident_edges(self, node_id: int) -> list[ReebEdge]:
        return list(self._incidence.get(node_id, ()))


def _tri_coeffs(lams: np.ndarray, area: np.ndarray) -> tuple[np.ndarray, ...]:
    """Density contributions (a, b), density(c) = a + b*c, of every triangle.

    ``lams`` holds each triangle's vertex values in sweep order.  Returns
    ``(a1, b1, a2, b2)``: regime 1 is the level between the lowest and the
    middle vertex, regime 2 between the middle and the highest.  Zero-width
    regimes (tied values) contribute nothing: they are only ever evaluated
    on value intervals of zero length.
    """
    l1, l2, l3 = lams.T
    den1 = (l2 - l1) * (l3 - l1)
    den2 = (l3 - l2) * (l3 - l1)
    with np.errstate(divide="ignore", invalid="ignore"):
        a1 = np.where(den1 == 0.0, 0.0, -2.0 * area * l1 / den1)
        b1 = np.where(den1 == 0.0, 0.0, 2.0 * area / den1)
        a2 = np.where(den2 == 0.0, 0.0, 2.0 * area * l3 / den2)
        b2 = np.where(den2 == 0.0, 0.0, -2.0 * area / den2)
    return a1, b1, a2, b2


class _Comp:
    """A live level component and the Reeb edge it traces.

    The component is one union-find class of the mesh edges it crosses:
    ``count`` of them cross the level, and ``a + b*c`` is the density of
    their crossed triangles.  The Reeb edge opens at node ``lo`` and
    collects the density (and, under field sampling, the h-value) at every
    level the sweep records until it closes at ``hi``.
    """

    __slots__ = ("id", "count", "a", "b", "lo", "f_lo", "hi", "f_hi", "source_edges",
                 "bps", "h_bps")

    def __init__(self, cid: int, count: int, a: float, b: float, lo: int, f_lo: float,
                 source_edges: tuple):
        self.id = cid
        self.count = count
        self.a = a
        self.b = b
        self.lo = lo
        self.f_lo = f_lo
        self.hi = self.f_hi = None
        self.source_edges = source_edges
        self.bps = [(f_lo, a + b * f_lo)]
        self.h_bps = []

    def reeb_edge(self, node_h: dict[int, float] | None) -> ReebEdge:
        """The closed edge; ``node_h`` holds the sampled field at every node."""
        h_bps = None
        if node_h is not None:
            h_bps = _collapse_breakpoints([(self.f_lo, node_h[self.lo]), *self.h_bps,
                                           (self.f_hi, node_h[self.hi])])
        return ReebEdge(id=self.id, lo=self.lo, hi=self.hi, f_lo=self.f_lo, f_hi=self.f_hi,
                        breakpoints=_dedupe_breakpoints(self.bps),
                        source_edges=self.source_edges, h_breakpoints=h_bps)


def build_reeb(mesh: SurfaceMesh, f: MorseField, sample_field=None) -> ReebGraph:
    """Reeb graph of a PL Morse field by a sorted sweep over vertex levels.

    Each live level component is a union-find class of the mesh edges it
    crosses, keyed by the class's root edge, with a count of those edges.
    A regular vertex points its up edges at its down edges' class.  Every
    critical vertex takes one path: it closes the components on its lower
    arcs (none at a minimum, one at a maximum or split, two at a merge) at
    one new node, and opens one component per part of the level just above
    it: none at a maximum, the union of the closed classes at a minimum or
    merge, and at a split the two circles that walks from its upper arcs
    find, each moved into a class of its own.

    ``sample_field(point) -> float``, when given, is sampled along every
    recorded level component; the samples must be constant on components
    within ``LEVEL_CONSTANCY_TOL`` (the field must commute with f), and the edge-wise
    values are stored on ``h_breakpoints`` for later use as a graph
    Hamiltonian.
    """
    kinds, order_arr, rank = _classify(mesh, f)
    topo = mesh._topo
    entries, offsets, ring_edges = topo.links()
    n_v, tris_arr = mesh.n_vertices, mesh.triangles
    # triangles with their vertices in sweep order
    tri_rank = rank[tris_arr]
    by_rank = np.argsort(tri_rank, axis=1)
    lams = f.values[np.take_along_axis(tris_arr, by_rank, axis=1)]
    a1, b1, a2, b2 = _tri_coeffs(lams, mesh.area_weights)
    # Change of a triangle's density coefficients as the sweep passes one of
    # its corners: the lowest opens regime 1, the middle switches to regime
    # 2, the highest closes regime 2.  A vertex's star sums its corners'
    # changes in triangle order.
    rows = np.arange(len(tris_arr))[:, None]
    place = np.argsort(by_rank, axis=1)
    da = np.stack([a1, a2 - a1, -a2], axis=1)[rows, place]
    db = np.stack([b1, b2 - b1, -b2], axis=1)[rows, place]
    star_a = np.bincount(tris_arr.ravel(), weights=da.ravel(), minlength=n_v)
    star_b = np.bincount(tris_arr.ravel(), weights=db.ravel(), minlength=n_v)
    # Without a tied triangle in its star, a vertex's regime changes leave
    # the density continuous, so its level needs one breakpoint, not two.
    tied = np.zeros(n_v, dtype=bool)
    tied[tris_arr[(lams[:, 0] == lams[:, 1]) | (lams[:, 1] == lams[:, 2])]] = True
    # A level crosses a triangle on its long edge (lowest to highest vertex)
    # and, below the middle vertex's rank, on its low edge, above it on its
    # high edge.  Edge (j + 1) % 3 of a triangle is the one opposite corner j.
    opposite = np.take_along_axis(topo.tri_edges, (by_rank + 1) % 3, axis=1)
    mid_rank = np.sort(tri_rank, axis=1)[:, 1]
    up = rank[entries] > np.repeat(rank, np.diff(offsets))
    up_bounds = np.zeros(n_v + 1, dtype=np.intp)
    np.cumsum(np.add.reduceat(up, offsets[:-1], dtype=np.intp), out=up_bounds[1:])

    # Python lists: the sweep reads them one element at a time
    vals = f.values.tolist()
    order = order_arr.tolist()
    star_a, star_b, tied = star_a.tolist(), star_b.tolist(), tied.tolist()
    high_edge, long_edge, low_edge = opposite.T.tolist()
    mid_rank = mid_rank.tolist()
    regime1, regime2 = (a1.tolist(), b1.tolist()), (a2.tolist(), b2.tolist())
    edge_tri0, edge_tri1 = topo.edge_tris.T.tolist()
    keys = topo.edge_keys.tolist()
    ring, bounds = ring_edges.tolist(), offsets.tolist()
    # v's up and down edges in ring order; down_flat holds every other ring entry
    up_flat, down_flat = ring_edges[up].tolist(), ring_edges[~up].tolist()
    up_bounds = up_bounds.tolist()
    verts = mesh.vertices

    parent = list(range(len(keys)))
    owner: list[_Comp | None] = [None] * len(keys)  # root edge -> its class's component

    def find(e: int) -> int:
        while parent[e] != e:  # path halving
            parent[e] = e = parent[parent[e]]
        return e

    def level_cycle(e0: int, k: int) -> tuple[list[int], list[int]]:
        """Crossed edges and triangles of the level curve through e0 at position k.

        The level leaves a crossed triangle through its other crossed edge.
        Every crossed edge lies in two crossed triangles, so the walk
        closes on e0, and it visits each crossed triangle of the circle once.
        """
        edges, tris = [e0], []
        e, ti = e0, edge_tri0[e0]
        while True:
            tris.append(ti)
            if e != long_edge[ti]:
                e = long_edge[ti]
            else:
                e = low_edge[ti] if k < mid_rank[ti] else high_edge[ti]
            if e == e0:
                return edges, tris
            edges.append(e)
            ti = edge_tri1[e] if edge_tri0[e] == ti else edge_tri0[e]

    def split_parts(v: int, k: int, ups: list[int], count: int) -> list[tuple]:
        """The circles of a split level through its upper arcs, each moved into
        a class of its own and summing its own triangles' coefficients."""
        circles = {}  # root -> (edges, triangles); each up edge's arc starts one walk
        for e0 in ups:
            if parent[e0] not in circles:
                circles[e0] = level_cycle(e0, k)
                for e in circles[e0][0]:
                    parent[e] = e0
        n_crossed = sum(len(edges) for edges, _ in circles.values())
        if len(circles) != 2 or n_crossed != count:
            found = len(circles) if n_crossed == count else f"more than {len(circles)}"
            raise InvariantError(
                f"saddle at vertex {v} produced {found} components; expected 2 on an orientable surface")
        parts = []
        for root, (edges, tris) in sorted(circles.items(), key=lambda item: min(item[1][0])):
            a = b = 0.0
            for ti in tris:
                ca, cb = regime1 if k < mid_rank[ti] else regime2
                a += ca[ti]
                b += cb[ti]
            parts.append((root, len(edges), a, b, [e for e in ups if parent[e] == root]))
        return parts

    def sample_level(comp: _Comp, c: float, e0: int, k: int):
        samples = []
        for e in level_cycle(e0, k)[0]:
            u, w = divmod(keys[e], n_v)
            fu, fw = vals[u], vals[w]
            if fu == fw:
                pt = 0.5 * (verts[u] + verts[w])
            else:
                t = np.clip((c - fu) / (fw - fu), 0.0, 1.0)
                pt = (1 - t) * verts[u] + t * verts[w]
            samples.append(float(sample_field(pt)))
        spread = max(samples) - min(samples)
        if spread > LEVEL_CONSTANCY_TOL:
            raise ValidationError(
                f"sampled field varies by {spread:.3e} on a level component: it does not commute with f")
        comp.h_bps.append((c, float(np.mean(samples))))

    comps: list[_Comp] = []  # every component opened, in id order
    nodes: dict[int, ReebNode] = {}
    sampling = sample_field is not None

    for k, v in enumerate(order):
        lam = vals[v]
        ups = up_flat[up_bounds[v]:up_bounds[v + 1]]
        downs = down_flat[bounds[v] - up_bounds[v]:bounds[v + 1] - up_bounds[v + 1]]

        if kinds[v] == KIND_REGULAR:
            root = find(downs[0])
            comp = owner[root]
            if tied[v]:
                comp.bps.append((lam, comp.a + comp.b * lam))
                if sampling:
                    sample_level(comp, lam, downs[0], k - 1)
            comp.a += star_a[v]
            comp.b += star_b[v]
            comp.count += len(ups) - len(downs)
            for e in ups:
                parent[e] = root
            comp.bps.append((lam, comp.a + comp.b * lam))
            if sampling:
                sample_level(comp, lam, ups[0], k)
            continue

        # close the components on the lower arcs at one node, in ring order
        # from a higher neighbour: the ring entries before the first higher
        # one are all lower.  Consecutive ring entries span a triangle with v,
        # so all edges of one arc share a component.
        start = ring[bounds[v]:bounds[v + 1]].index(ups[0]) if ups else 0
        closing: dict[_Comp, tuple[int, int]] = {}
        for e in downs[start:] + downs[:start]:
            root = find(e)
            comp = owner[root]
            if comp is None or comp.hi is not None:
                raise InvariantError(f"a down edge of vertex {v} is on no level component below it")
            closing.setdefault(comp, (root, e))
        node = len(nodes)
        nodes[node] = ReebNode(id=node, f=lam, kind=kinds[v], vertex=v)
        for comp, (_, e) in closing.items():
            comp.bps.append((lam, comp.a + comp.b * lam))
            if sampling:
                sample_level(comp, lam, e, k - 1)
            comp.hi, comp.f_hi = node, lam

        # the crossed edges just above the vertex
        count = sum(comp.count for comp in closing) - len(downs) + len(ups)
        if count and not ups:
            raise InvariantError("component at a maximum is larger than the vertex star")
        # open one component per part: two when both lower arcs were on one circle
        if kinds[v] == KIND_SADDLE and len(closing) == 1:
            parts = split_parts(v, k, ups, count)
        elif count:
            roots = [root for root, _ in closing.values()] or [ups[0]]
            for r in roots[1:]:
                parent[r] = roots[0]
            a = sum(comp.a for comp in closing) + star_a[v]
            b = sum(comp.b for comp in closing) + star_b[v]
            parts = [(roots[0], count, a, b, ups)]
        else:
            parts = []
        for root, n_crossed, a, b, sources in parts:
            for e in sources:
                parent[e] = root
            comp = _Comp(len(comps), n_crossed, a, b, node, lam,
                         tuple(divmod(keys[e], n_v) for e in sorted(sources)))
            comps.append(comp)
            owner[root] = comp
            if sampling:
                sample_level(comp, lam, sources[0], k)

    if any(comp.hi is None for comp in comps):
        raise InvariantError("sweep finished with open level components")

    node_h = None
    if sampling:
        node_h = {nid: float(sample_field(verts[node.vertex]))
                  for nid, node in nodes.items()}

    edges = {comp.id: comp.reeb_edge(node_h) for comp in comps}
    graph = ReebGraph(nodes=nodes, edges=edges, genus=mesh.genus)
    if graph.euler_deficiency() != 2 - 2 * mesh.genus:
        raise InvariantError(
            f"graph deficiency {graph.euler_deficiency()} != {2 - 2 * mesh.genus}")
    total = graph.total_measure()
    if abs(total - mesh.total_area) > 1e-8 * max(1.0, mesh.total_area):
        raise InvariantError(f"pushforward measure {total} != mesh area {mesh.total_area}")
    return graph


def _dedupe_breakpoints(bps: list[tuple[float, float]]) -> tuple:
    """Drop exact consecutive duplicates; keep genuine jumps as repeated c.

    Densities of PL pushforwards are discontinuous at tied vertex values
    (e.g. a triangle with a level bottom edge), so a repeated parameter
    with two values is meaningful: it encodes a jump.  Zero-width segments
    are integration-neutral.
    """
    out: list[tuple[float, float]] = []
    for c, d in bps:
        if out and out[-1] == (c, d):
            continue
        if out and c < out[-1][0]:
            raise InvariantError("breakpoints recorded out of order")
        out.append((c, d))
    return tuple(out)


def _collapse_breakpoints(bps: list[tuple[float, float]]) -> tuple:
    """Sort and collapse repeated parameter values (continuous data only)."""
    bps = sorted(bps, key=lambda p: p[0])
    out: list[tuple[float, float]] = []
    for c, d in bps:
        if out and out[-1][0] == c:
            out[-1] = (c, d)
        else:
            out.append((c, d))
    return tuple(out)


# --------------------------------------------------------------------------
# pruning
# --------------------------------------------------------------------------

def prune(graph: ReebGraph) -> ReebGraph:
    """Iterated leaf removal until only degree-2/3 nodes remain, in one pass.

    Removing a leaf's edge can only make its other end a leaf, which then
    goes on the stack.  For genus <= 1 the result may degenerate (isolated
    nodes are dropped; the sphere prunes to the empty graph).  For genus
    >= 2 an empty result signals a construction bug and raises.
    """
    deg = graph.degrees()
    gone: set[int] = set()
    leaves = [nid for nid, d in deg.items() if d == 1]
    while leaves:
        nid = leaves.pop()
        if deg[nid] != 1:  # both ends of a two-node path start as leaves
            continue
        live = [e for e in graph.incident_edges(nid) if e.id not in gone]
        if len(live) != 1:
            raise InvariantError("leaf node did not have exactly one incident edge")
        e = live[0]
        gone.add(e.id)
        deg[e.lo] -= 1
        deg[e.hi] -= 1
        other = e.hi if e.lo == nid else e.lo
        if deg[other] == 1:
            leaves.append(other)
    if graph.genus >= 2 and not any(deg.values()):
        raise InvariantError("pruning emptied a genus >= 2 graph")
    bad = {d for d in deg.values() if d not in (0, 2, 3)}
    if bad:
        raise InvariantError(f"pruned graph has degrees {sorted(bad)}")
    return ReebGraph(nodes={nid: n for nid, n in graph.nodes.items() if deg[nid]},
                     edges={eid: e for eid, e in graph.edges.items() if eid not in gone},
                     genus=graph.genus)


def trivalent_vertices(pruned: ReebGraph) -> set[int]:
    """The degree-3 node set of a pruned graph; its size must be 2g-2."""
    if pruned.genus == 0:
        raise ValidationError("the trivalent set is defined for genus >= 1")
    tri = {nid for nid, d in pruned.degrees().items() if d == 3}
    expected = 2 * pruned.genus - 2
    if len(tri) != expected:
        raise InvariantError(f"found {len(tri)} trivalent nodes, expected {expected}")
    return tri


# --------------------------------------------------------------------------
# graph Hamiltonians and the closed formula
# --------------------------------------------------------------------------

class GraphHamiltonian:
    """A piecewise-linear function of the field parameter on every graph edge.

    Values of incident edges must agree at shared nodes (the function
    descends from a genuine function on the graph).
    """

    def __init__(self, graph: ReebGraph, edge_breakpoints: dict[int, list[tuple[float, float]]]):
        self.graph = graph
        self._data: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        for eid, edge in graph.edges.items():
            if eid not in edge_breakpoints:
                raise ValidationError(f"graph Hamiltonian missing edge {eid}")
            bps = _collapse_breakpoints(list(edge_breakpoints[eid]))
            cs = np.array([c for c, _ in bps])
            hs = np.array([h for _, h in bps])
            if not (np.isfinite(cs).all() and np.isfinite(hs).all()):
                raise ValidationError(f"graph Hamiltonian edge {eid} has a non-finite breakpoint")
            span = max(1.0, abs(edge.f_hi - edge.f_lo))
            if cs.size < 2 or cs[0] > edge.f_lo + 1e-12 * span or cs[-1] < edge.f_hi - 1e-12 * span:
                raise ValidationError(f"breakpoints do not cover edge {eid}")
            self._data[eid] = (cs, hs)
        extra = set(edge_breakpoints) - set(graph.edges)
        if extra:
            raise ValidationError(f"Hamiltonian defined on unknown edges {sorted(extra)}")
        for nid, node in graph.nodes.items():
            vals = [self.value(e.id, node.f) for e in graph.incident_edges(nid)]
            if vals and max(vals) - min(vals) > NODE_CONSISTENCY_TOL * max(1.0, max(abs(v) for v in vals)):
                raise ValidationError(f"edge limits disagree at node {nid}: {vals}")

    def value(self, edge_id: int, c: float) -> float:
        cs, hs = self._data[edge_id]
        return float(np.interp(c, cs, hs))

    def node_value(self, node_id: int) -> float:
        node = self.graph.nodes[node_id]
        incident = self.graph.incident_edges(node_id)
        if not incident:
            raise ValidationError(f"node {node_id} has no incident edge")
        return self.value(incident[0].id, node.f)

    def breakpoints(self, edge_id: int) -> tuple[np.ndarray, np.ndarray]:
        return self._data[edge_id]

    @classmethod
    def constant(cls, graph: ReebGraph, value: float) -> "GraphHamiltonian":
        return cls(graph, {eid: [(e.f_lo, value), (e.f_hi, value)]
                           for eid, e in graph.edges.items()})

    @classmethod
    def from_function(cls, graph: ReebGraph, fn) -> "GraphHamiltonian":
        """Apply a scalar function of the field value, sampled at density breakpoints."""
        data = {}
        for eid, e in graph.edges.items():
            cs = sorted({e.f_lo, e.f_hi, *(c for c, _ in e.breakpoints)})
            data[eid] = [(c, float(fn(c))) for c in cs]
        return cls(graph, data)

    @classmethod
    def from_sampling(cls, graph: ReebGraph) -> "GraphHamiltonian":
        """Use the h-values recorded by ``build_reeb(..., sample_field=...)``."""
        data = {}
        for eid, e in graph.edges.items():
            if e.h_breakpoints is None:
                raise ValidationError("graph was built without field sampling")
            data[eid] = list(e.h_breakpoints)
        return cls(graph, data)

    def to_json(self) -> dict:
        return {"edges": [{"id": eid,
                           "breakpoints": [[float(c), float(h)] for c, h in zip(*self._data[eid])]}
                          for eid in sorted(self._data)]}

    @classmethod
    def from_json(cls, graph: ReebGraph, data: dict) -> "GraphHamiltonian":
        source = "GraphHamiltonian JSON"
        table = {}
        try:
            for rec in data["edges"]:
                eid = convert("id", rec["id"], int, source)
                if eid in table:
                    raise ValidationError(f"{source} repeats edge {eid}")
                table[eid] = [(convert("breakpoints", c, float, source),
                               convert("breakpoints", h, float, source))
                              for c, h in rec["breakpoints"]]
        except ValidationError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed {source}: {exc}") from exc
        return cls(graph, table)


def _integrate_density_product(bps, hcs, hhs) -> float:
    """Exact integral of (possibly jumpy) PL density times a continuous PL h.

    Walks the density segments (repeated parameters encode jumps and span
    zero width), splitting each at h's breakpoints; on every piece both
    factors are linear, so Simpson is exact.  h is interpolated at all cut
    points of the edge in one call.
    """
    segments = [(c0, d0, c1, d1) for (c0, d0), (c1, d1) in zip(bps, bps[1:]) if c1 > c0]
    first = np.searchsorted(hcs, [s[0] for s in segments], side="right").tolist()
    last = np.searchsorted(hcs, [s[2] for s in segments], side="left").tolist()
    # the h breakpoints strictly inside each segment, as in ``c0 < c < c1``
    cuts = [[c0, *hcs[i:j], c1] for (c0, _, c1, _), i, j in zip(segments, first, last)]
    h_at = np.interp([c for seg in cuts for c in seg], hcs, hhs).tolist()
    total, at = 0.0, 0
    for (c0, d0, c1, d1), seg in zip(segments, cuts):
        for a, b in zip(seg, seg[1:]):
            da = d0 + (d1 - d0) * (a - c0) / (c1 - c0)
            db = d0 + (d1 - d0) * (b - c0) / (c1 - c0)
            ha, hb = h_at[at], h_at[at + 1]
            at += 1
            mid = 0.25 * (da + db) * (ha + hb)
            total += (b - a) / 6.0 * (da * ha + 4.0 * mid + db * hb)
        at += 1
    return total


def graph_integral(graph: ReebGraph, h: GraphHamiltonian) -> float:
    """Integral of h against the pushforward measure: equals the surface integral."""
    if h.graph is not graph and set(h.graph.edges) != set(graph.edges):
        raise ValidationError("Hamiltonian was built on a different graph")
    total = 0.0
    for eid, e in graph.edges.items():
        hcs, hhs = h.breakpoints(eid)
        total += _integrate_density_product(e.breakpoints, hcs, hhs)
    return total


def theorem2_value(graph: ReebGraph, h: GraphHamiltonian) -> float:
    """The closed formula: integral of h minus its values at the trivalent set.

    Requires genus >= 2 and total measure 2g-2 (the pinned normalization);
    other totals are rejected rather than rescaled.
    """
    if graph.genus < 2:
        raise ValidationError("the closed formula requires genus >= 2")
    target = 2.0 * graph.genus - 2.0
    total = graph.total_measure()
    if abs(total - target) > AREA_NORMALIZATION_RTOL * target:
        raise ValidationError(
            f"total measure {total:.12g} != {target} (normalize the mesh first)")
    trivalent = trivalent_vertices(graph.core)
    return graph_integral(graph, h) - sum(h.node_value(nid) for nid in trivalent)


def graph_to_json(graph: ReebGraph) -> dict:
    deg = graph.degrees()
    return {
        "genus": graph.genus,
        "total_measure": graph.total_measure(),
        "nodes": [{"id": n.id, "f": n.f, "kind": n.kind, "degree": deg[n.id],
                   "vertex": n.vertex}
                  for n in sorted(graph.nodes.values(), key=lambda n: n.id)],
        "edges": [{"id": e.id, "lo": e.lo, "hi": e.hi,
                   "f_lo": e.f_lo, "f_hi": e.f_hi,
                   "measure": e.measure,
                   "breakpoints": [[float(c), float(d)] for c, d in e.breakpoints]}
                  for e in sorted(graph.edges.values(), key=lambda e: e.id)],
    }

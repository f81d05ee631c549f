"""Independent oracles used by the test suite.

These deliberately avoid the code paths they check: surface integrals go
through polygon clipping in barycentric coordinates (no Reeb graph, no
pushforward densities), radial invariants through 1-d quadrature of closed
forms, Calabi also as the integral of lambda(X_H) over space and time (the
primitive form that the library turns into -n times the integral of H), and
rotation numbers through explicit orbit averages, the fiber range of the
boundary turns through sampled lifts (no closed form), the midpoint flow
through a fixed number of full Newton iterates (no stop test, no predictor),
and the Reeb sweep through sets of crossed (u, v) edges (no union-find).
"""

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad


def _clip_halfplane(poly, sign, f0, fx, fy, level):
    """Sutherland-Hodgman clip of a polygon against sign*(F - level) <= 0."""
    if not poly:
        return []
    out = []
    k = len(poly)
    vals = [sign * (f0 + fx * x + fy * y - level) for x, y in poly]
    for i in range(k):
        j = (i + 1) % k
        (xi, yi), (xj, yj) = poly[i], poly[j]
        vi, vj = vals[i], vals[j]
        if vi <= 0.0:
            out.append((xi, yi))
        if (vi < 0.0 < vj) or (vj < 0.0 < vi):
            t = vi / (vi - vj)
            out.append((xi + t * (xj - xi), yi + t * (yj - yi)))
    return out


def _poly_area_and_centroid(poly):
    if len(poly) < 3:
        return 0.0, (0.0, 0.0)
    a = 0.0
    cx = cy = 0.0
    for i in range(len(poly)):
        j = (i + 1) % len(poly)
        cross = poly[i][0] * poly[j][1] - poly[j][0] * poly[i][1]
        a += cross
        cx += (poly[i][0] + poly[j][0]) * cross
        cy += (poly[i][1] + poly[j][1]) * cross
    a *= 0.5
    if a == 0.0:
        return 0.0, (0.0, 0.0)
    return abs(a), (cx / (6.0 * a), cy / (6.0 * a))


def surface_integral_oracle(mesh, field_values, phi_cs, phi_hs):
    """Exact integral over the surface of phi(F) against the area weights.

    phi is the PL function through (phi_cs, phi_hs) (values clamped outside);
    each triangle is clipped against every linear piece of phi, and the
    affine integrand is integrated as area * value(centroid).
    """
    phi_cs = np.asarray(phi_cs, dtype=float)
    phi_hs = np.asarray(phi_hs, dtype=float)
    total = 0.0
    for tri, weight in zip(mesh.triangles, mesh.area_weights):
        v0, v1, v2 = (float(field_values[t]) for t in tri)
        f0, fx, fy = v0, v1 - v0, v2 - v0
        lo, hi = min(v0, v1, v2), max(v0, v1, v2)
        cuts = sorted({lo, hi, *[c for c in phi_cs if lo < c < hi]})
        if len(cuts) == 1:
            cuts = [lo, hi]
        base = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
        for a, b in zip(cuts, cuts[1:]):
            poly = _clip_halfplane(base, -1.0, f0, fx, fy, a)
            poly = _clip_halfplane(poly, +1.0, f0, fx, fy, b)
            area, (cx, cy) = _poly_area_and_centroid(poly)
            if area == 0.0:
                continue
            f_c = f0 + fx * cx + fy * cy
            # phi on [a, b] is linear; interpolate through the piece midpoint slope
            pa = float(np.interp(a, phi_cs, phi_hs))
            pb = float(np.interp(b, phi_cs, phi_hs))
            phi_c = pa if b == a else pa + (pb - pa) * (f_c - a) / (b - a)
            total += weight * (area / 0.5) * phi_c
    return total


def radial_calabi_oracle(omega_fn, r_supp, density=None):
    """Calabi of an autonomous radial flow by 1-d quadrature.

    lambda(X_H) = a(r) r^2 Omega(r) with a(r) the radial primitive
    coefficient; for the standard form a = 1/2 and the value reduces to
    pi * int r^3 Omega dr.
    """
    if density is None:
        integrand = lambda r: np.pi * r ** 3 * omega_fn(r)
    else:
        rho, prim_a = density
        integrand = lambda r: prim_a(r) * omega_fn(r) * r ** 2 * rho(r) * 2.0 * np.pi * r
    val, err = quad(integrand, 0.0, r_supp, limit=200)
    return val


def radial_calabi_4d_oracle(c, r_supp):
    """Calabi of H = c (1 - r^2/R^2)^3 on R^4 (standard form), in closed form.

    The value is -2 times the integral of H over the ball: with s = r^2/R^2,
    -2 c 2 pi^2 (R^4 / 2) int_0^1 (1 - s)^3 s ds = -pi^2 c R^4 / 10.
    """
    return -np.pi ** 2 * c * r_supp ** 4 / 10.0


def lambda_form_calabi(sc, shift=None):
    """Calabi of a 2-d scenario as the integral of lambda(X_H) rho over its support disk and time.

    lambda = a(r) (x dy - y dx) + d(shift), with a the form's chart primitive
    coefficient and ``shift`` an optional field whose ``spatial_jet`` gives
    the exact part.  The integrand is taken as written, with the full
    gradient of H_t at every node of a 24-point Gauss-Legendre rule on each
    half of [0, 1] (a concatenation switches parts at t = 1/2) and a polar
    rule of 192 radii by 256 angles on the support disk; by Stokes it
    equals -(integral of H rho) whatever the shift.
    """
    n_angle = 256
    x, wx = leggauss(192)
    r = 0.5 * sc.support_radius * (x + 1.0)
    ang = 2.0 * np.pi * np.arange(n_angle) / n_angle
    pts = np.stack([np.outer(r, np.cos(ang)).ravel(), np.outer(r, np.sin(ang)).ravel()], axis=1)
    w = np.repeat(0.5 * sc.support_radius * wx * r, n_angle) * (2.0 * np.pi / n_angle)
    lam = (sc.form.primitive_coefficient(np.repeat(r, n_angle))[:, None]
           * np.stack([-pts[:, 1], pts[:, 0]], axis=1))
    if shift is not None:
        lam = lam + shift.spatial_jet(pts)[0]
    u, wu = leggauss(24)
    total = 0.0
    for t, w_t in zip(np.concatenate([(u + 1.0) / 4.0, (u + 3.0) / 4.0]), np.tile(wu / 4.0, 2)):
        g = sc.field.grad(pts, float(t))  # lambda(J0 grad H) = lambda_y H_x - lambda_x H_y
        total += w_t * float(w @ (lam[:, 1] * g[:, 0] - lam[:, 0] * g[:, 1]))
    return total


def radial_tau_oracle(omega_fn, r_supp):
    """tau of a radial twist: int over the ball of Omega(r)/pi, standard form."""
    val, err = quad(lambda r: (omega_fn(r) / np.pi) * 2.0 * np.pi * r, 0.0, r_supp, limit=200)
    return val


def sampled_fiber_range(z0, z1, dpsi, k, refine=0):
    """(min, max) over k equally spaced fiber angles of the boundary turns D, (N,) each.

    D at psi is the lifted boundary angle of (z1, psi + dpsi) minus that of
    (z0, psi), in turns, through ``_endpoint_angles``: the sampled fiber that
    ``cal_s`` used before the closed-form range.  Each of ``refine`` rounds
    resamples k angles across the two grid cells around each row's extremum;
    D has one minimum and one maximum on the circle, so the extremum stays
    inside that window.
    """
    # imported here: perfbench imports this module and should not depend on qmlab's private names
    from qmlab.hypgeo import _endpoint_angles

    z0, z1, dpsi = np.asarray(z0), np.asarray(z1), np.asarray(dpsi)

    def turns(psi):
        return (_endpoint_angles(z1, psi + dpsi[:, None]) / (2.0 * np.pi)
                - _endpoint_angles(z0, psi) / (2.0 * np.pi))

    grid = np.broadcast_to(2.0 * np.pi * np.arange(k) / k, (z0.size, k))
    out = []
    for sign in (1.0, -1.0):  # the min of D, then the max as -min(-D)
        psi, vals, cell = grid, sign * turns(grid), 2.0 * np.pi / k
        for _ in range(refine):
            best = psi[np.arange(z0.size), np.argmin(vals, axis=1)]
            psi = best[:, None] + cell * np.linspace(-1.0, 1.0, k)
            vals, cell = sign * turns(psi), 2.0 * cell / (k - 1)
        out.append(sign * np.min(vals, axis=1))
    return tuple(out)


def newton_reference_evolve(sc, pts, periods, iterates=8):
    """The implicit-midpoint flow of (n, d) points over whole periods, by fixed Newton iterates.

    Each step of h = 1/round(1/dt) starts Newton at the step's start point
    and takes ``iterates`` full Newton iterates, with no stop test, on
    F(w) = w - x - h X_H((x + w)/2), X_H = J0 grad H / rho, in the (n, d)
    layout through ``np.linalg.solve``: the solution to the rounding floor,
    whatever the batch.
    """
    n_steps = max(1, round(1.0 / sc.dt))
    h = 1.0 / n_steps
    half = sc.dim // 2
    j0 = np.block([[np.zeros((half, half)), -np.eye(half)], [np.eye(half), np.zeros((half, half))]])
    eye = np.eye(sc.dim)
    x = np.array(pts, dtype=float)
    for _ in range(periods):
        for step in range(n_steps):
            t = (step + 0.5) * h
            w = x.copy()
            for _ in range(iterates):
                mid = 0.5 * (x + w)
                grad, hess = sc.field.grad(mid, t), sc.field.hess(mid, t)
                rho, grad_rho = sc.form.rho_jet(mid)
                vel = grad @ j0.T / rho[:, None]
                dvel = j0 @ (hess / rho[:, None, None]
                             - grad[:, :, None] * grad_rho[:, None, :] / rho[:, None, None] ** 2)
                resid = w - x - h * vel
                w = w - np.linalg.solve(eye - 0.5 * h * dvel, resid[:, :, None])[:, :, 0]
            x = w
    return x


class _SetComp:
    """A level component of ``reeb_sweep_oracle``: its crossed edges as a set."""

    def __init__(self, cid, edges, a, b, lo, f_lo, source_edges):
        self.id, self.edges, self.a, self.b = cid, edges, a, b
        self.lo, self.f_lo, self.hi, self.f_hi = lo, f_lo, None, None
        self.source_edges = source_edges
        self.bps = [(f_lo, a + b * f_lo)]


def reeb_sweep_oracle(mesh, f):
    """The Reeb graph of ``build_reeb`` from a sweep over sets of crossed edges.

    Every live level component is a ``set`` of (u, v) mesh edges, u < v;
    a regular vertex adds and removes the edges of its star and records its
    level twice, before and after, and a split walks the level curve
    triangle by triangle until its pool of crossed edges is used up.  It
    shares the vertex classification and the per-triangle density
    coefficients with the library (``_classify``, ``_tri_coeffs``), not the
    sweep.
    """
    from qmlab.errors import InvariantError
    from qmlab.reeb import (KIND_REGULAR, KIND_SADDLE, ReebEdge, ReebGraph, ReebNode,
                            _classify, _dedupe_breakpoints, _tri_coeffs)

    kinds, order, rank = _classify(mesh, f)
    vals, pos = f.values.tolist(), rank.tolist()
    tris = mesh.triangles.tolist()
    rings = mesh.vertex_rings()
    by_rank = np.argsort(rank[mesh.triangles], axis=1)
    a1, b1, a2, b2 = (c.tolist() for c in _tri_coeffs(
        f.values[np.take_along_axis(mesh.triangles, by_rank, axis=1)], mesh.area_weights))
    mid_rank = np.sort(rank[mesh.triangles], axis=1)[:, 1].tolist()
    edge_tris, star = {}, [[] for _ in vals]
    for ti, t in enumerate(tris):
        for j in range(3):
            u, w = t[j], t[(j + 1) % 3]
            edge_tris.setdefault((min(u, w), max(u, w)), []).append(ti)
            star[u].append(ti)

    def ek(u, v):
        return (u, v) if u < v else (v, u)

    def delta(ti, v):
        """New minus old density coefficients of triangle ti as the sweep passes v."""
        place = sorted(tris[ti], key=lambda u: pos[u]).index(v)
        new = [(a1[ti], b1[ti]), (a2[ti], b2[ti]), (0.0, 0.0)][place]
        old = [(0.0, 0.0), (a1[ti], b1[ti]), (a2[ti], b2[ti])][place]
        return new[0] - old[0], new[1] - old[1]

    def level_cycle(e0, k):
        cycle = {e0}
        e, ti = e0, edge_tris[e0][0]
        while True:
            x, y = e
            below, above = (x, y) if pos[x] <= k else (y, x)
            z = sum(tris[ti]) - x - y
            e = ek(z, above) if pos[z] <= k else ek(below, z)
            if e == e0:
                return cycle
            cycle.add(e)
            t1, t2 = edge_tris[e]
            ti = t2 if t1 == ti else t1

    def part_coeffs(part, k):
        a = b = 0.0
        for ti in {ti for e in part for ti in edge_tris[e]}:
            if k < mid_rank[ti]:
                a, b = a + a1[ti], b + b1[ti]
            else:
                a, b = a + a2[ti], b + b2[ti]
        return a, b

    comps, edge_comp, nodes = [], {}, {}
    for k, v in enumerate(order.tolist()):
        lam, ring = vals[v], rings[v]
        down = [ek(u, v) for u in ring if pos[u] < k]
        up = [ek(u, v) for u in ring if pos[u] > k]
        if kinds[v] == KIND_REGULAR:
            comp = edge_comp[down[0]]
            comp.bps.append((lam, comp.a + comp.b * lam))
            for ti in star[v]:
                da, db = delta(ti, v)
                comp.a, comp.b = comp.a + da, comp.b + db
            comp.edges.difference_update(down)
            comp.edges.update(up)
            edge_comp.update(dict.fromkeys(up, comp))
            comp.bps.append((lam, comp.a + comp.b * lam))
            continue
        start = next((i for i, u in enumerate(ring) if pos[u] > k), 0)
        closing = list(dict.fromkeys(edge_comp[ek(u, v)] for u in ring[start:] + ring[:start]
                                     if pos[u] < k))
        node = len(nodes)
        nodes[node] = ReebNode(id=node, f=lam, kind=kinds[v], vertex=v)
        pool = set()
        for comp in closing:
            comp.bps.append((lam, comp.a + comp.b * lam))
            comp.hi, comp.f_hi = node, lam
            pool |= comp.edges
        pool = (pool - set(down)) | set(up)
        if kinds[v] == KIND_SADDLE and len(closing) == 1:
            cycles, remaining = [], set(pool)
            while remaining:
                cycles.append(level_cycle(next(iter(remaining)), k))
                remaining -= cycles[-1]
            if len(cycles) != 2:
                raise InvariantError(f"saddle at vertex {v} produced {len(cycles)} components")
            parts = [(part, *part_coeffs(part, k)) for part in sorted(cycles, key=min)]
        elif pool:
            a, b = (closing[0].a, closing[0].b) if closing else (0.0, 0.0)
            for comp in closing[1:]:
                a, b = a + comp.a, b + comp.b
            for ti in star[v]:
                da, db = delta(ti, v)
                a, b = a + da, b + db
            parts = [(pool, a, b)]
        else:
            parts = []
        for part, a, b in parts:
            comp = _SetComp(len(comps), part, a, b, node, lam,
                            tuple(sorted(e for e in up if e in part)))
            comps.append(comp)
            edge_comp.update(dict.fromkeys(part, comp))
    edges = {c.id: ReebEdge(id=c.id, lo=c.lo, hi=c.hi, f_lo=c.f_lo, f_hi=c.f_hi,
                            breakpoints=_dedupe_breakpoints(c.bps), source_edges=c.source_edges)
             for c in comps}
    return ReebGraph(nodes=nodes, edges=edges, genus=mesh.genus)

"""Preimages of chart segments and of the figure-eight graph in the source disk.

A chart segment (the horizontal line t of a Moebius chart zeta) is lifted
through zeta o f from the preimages of its end points (lifting.lift_paths), so
each lift is one good or bad arc of the arcs statement.  The figure-eight
is the level set {level = 0} of one function on the target (a lemniscate),
and its preimage is marched (_march.extract) on an adaptive grid sampled
in bands of rows, not as one grid.  The march samples f only where ball
arithmetic (expr.evaluate_ball, GraphSpec.certainly_outside) cannot rule
the curve out, one certification quadtree per grid.  A marched chain
is cut where it leaves the disk |z| < r or enters the figure-eight's
node ball, both by one run rule (_march.runs): a closed chain is walked
from a dropped sample around to it again, so no kept run wraps its seam.
The figure-eight preimage is split at the preimages of its node, bad arcs
(those meeting the boundary circle) are deleted, and the Euler
characteristic of what remains is V - E.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass

import numpy as np

from coverlab import _march
from coverlab.expr import (
    Add,
    Const,
    Div,
    INF,
    IndeterminateError,
    Mul,
    differentiate,
    evaluate,
    evaluate_array,
    evaluate_ball,
)
from coverlab.lifting import lift_paths
from coverlab.metric import _gauss_legendre, chordal_distance, sphere_point
from coverlab.count import (
    ContourPassesThroughRoot,
    ResolutionError,
    WindingError,
    count_preimages,
    count_preimages_many,
    find_roots,
    find_roots_many,
    margin_radius,
    ring_radius,
)

_ARC_NODES, _ARC_WEIGHTS = _gauss_legendre(  # the 24-point rule of the arc test integral
    [0.06405689286260563, 0.1911188674736163, 0.3150426796961634, 0.4337935076260451,
     0.5454214713888396, 0.6480936519369755, 0.7401241915785544, 0.820001985973903,
     0.8864155270044011, 0.9382745520027328, 0.9747285559713095, 0.9951872199970213],
    [0.12793819534675202, 0.12583745634682825, 0.1216704729278033, 0.11550566805372552,
     0.10744427011596556, 0.09761865210411393, 0.0861901615319532, 0.07334648141108016,
     0.05929858491543636, 0.04427743881741941, 0.02853138862893356, 0.01234122979998869],
)
_IMAGE_SAMPLES = 4096  # first sampling of the boundary image f(|z| = r)
_IMAGE_BUDGET = 200_000  # samples after which the image is not refined further


class TransversalityError(ArithmeticError):
    """No horizontal line in the chart met the transversality margin."""


class GraphPlacementError(ValueError):
    """Graph crossing vertices sit too close to critical values."""


# ---------------------------------------------------------------------------
# Target-side geometry


@dataclass(frozen=True)
class RectangleChart:
    """Moebius chart sending a curve neighborhood to a thin rectangle.

    zeta(w) = (a w + b) / (c w + d); the base arc is the segment t = 0,
    x in x_range, and perturbed arcs are the horizontal lines t = const.
    """

    a: complex
    b: complex
    c: complex
    d: complex
    x_range: tuple
    t_range: tuple

    def __post_init__(self):
        if self.a * self.d - self.b * self.c == 0:
            raise ValueError("moebius coefficients must satisfy ad - bc != 0")
        if not self.x_range[0] < self.x_range[1]:
            raise ValueError("empty x_range")
        if not self.t_range[0] < self.t_range[1]:
            raise ValueError("empty t_range")

    def apply(self, w):
        w = np.asarray(w, dtype=np.complex128)
        with np.errstate(all="ignore"):
            out = (self.a * w + self.b) / (self.c * w + self.d)
        if self.c != 0:
            out = np.where(np.isfinite(out), out, self.a / self.c)
        return out

    def inverse(self, zeta):
        zeta = np.asarray(zeta, dtype=np.complex128)
        with np.errstate(all="ignore"):
            return (self.d * zeta - self.b) / (-self.c * zeta + self.a)


@dataclass(frozen=True)
class GraphSpec:
    """A figure-eight graph on the sphere, realized as a lemniscate.

    One vertex (the node), two loop edges (the lobes); chi = -1.  The
    spherical complement has three faces: the two lobes and the outer face.
    """

    node: complex = 0.5j
    scale: float = 0.5

    def __post_init__(self):
        if self.node is INF or not cmath.isfinite(self.node):
            raise ValueError("graph node must be finite")
        if not self.scale > 0:
            raise ValueError("figure-eight scale must be positive")

    @property
    def chi(self):
        return -1

    @property
    def foci(self):
        return (self.node - self.scale, self.node + self.scale)

    def level(self, ws):
        """|(w - node)^2 - scale^2| - scale^2 over target values: negative
        in the lobes, 0 on the figure-eight, 1e300 where not finite."""
        s2 = self.scale**2
        with np.errstate(all="ignore"):
            g = np.abs((np.asarray(ws, dtype=np.complex128) - self.node) ** 2 - s2) - s2
        return np.where(np.isfinite(g), g, 1e300)

    def certainly_outside(self, c, rho):
        """True where the level is above a small margin at every w of the
        ball |w - c| <= rho.  The level is |w - f1| |w - f2| - scale^2 for
        the foci f1, f2, and on the ball |w - f| >= |c - f| - rho.  False
        wherever c or rho is not finite."""
        c = np.asarray(c, dtype=np.complex128)
        s2 = self.scale**2
        with np.errstate(all="ignore"):
            d1, d2 = (np.abs(c - f) - rho for f in self.foci)
            # the margin outweighs the rounding of the level, ~ |w - node|^2 + scale^2
            reach = 0.5 * (d1 + d2) + 2 * rho
            return (d1 > 0) & (d2 > 0) & (d1 * d2 - s2 > 1e-9 * (reach * reach + s2))

    def face_of(self, w):
        """'lobe-', 'lobe+' or 'outer' for a target point; infinity is outer."""
        w = sphere_point(w)
        if w is INF or self.level(w) >= 0:
            return "outer"
        return "lobe+" if (w - self.node).real > 0 else "lobe-"


# ---------------------------------------------------------------------------
# Tracing


@dataclass
class Polyline:
    points: np.ndarray  # complex samples along the arc
    closed: bool
    touches_clip: bool  # was cut by, or left the disk through, |z| = r
    resolution: int


def trace_preimage(m, chart, t, r, resolution=512):
    """Lifts of the chart segment {zeta(w) = x + i t : x in chart.x_range},
    which the chart may send through infinity, that start in |z| < r.

    The chart segment x -> x + i t is lifted through g = zeta o f
    (lifting.lift_paths), a straight path even where the chart sends it through
    infinity: forward from every preimage of its start in the disk, and
    backward from every preimage of its end.  A backward lift that
    completes retraces a forward one and is dropped.  A lift that leaves
    the disk stops at its first point with |z| >= r and touches the clip.
    Each polyline runs along increasing x; they are ordered by their
    lowest-left point and carry `resolution`, which sets the margin band
    of _arc_tag.  A preimage component with no end point in the disk, one
    that enters and leaves through |z| = r, is no lift from inside and is
    not reported.  A lift that stalls raises ResolutionError.
    """
    if resolution < 64:
        raise ValueError("resolution must be at least 64")
    a, b, c, d = (Const(complex(k)) for k in (chart.a, chart.b, chart.c, chart.d))
    g = Div(Add(Mul(a, m), b), Add(Mul(c, m), d))
    dg = differentiate(g)

    def path(x):
        return x + 1j * t, 1.0

    out = []
    for start, end in (chart.x_range, chart.x_range[::-1]):
        roots = find_roots(m, complex(chart.inverse(start + 1j * t)), r)
        (lifted,) = lift_paths(g, dg, [([root.location for root in roots], path, start, end, r)])
        if isinstance(lifted, ResolutionError):
            raise lifted
        rows, alive = lifted
        for pts, complete in zip(rows.T, alive):
            if complete and end < start:
                continue  # a forward lift, reversed
            pts = pts[np.r_[True, pts[1:] != pts[:-1]]]  # a stopped lift repeats its last point
            pts = pts if start < end else pts[::-1]
            out.append(Polyline(pts, False, not complete, resolution))
    out.sort(key=lambda p: (p.points.real.min(), p.points.imag.min()))
    return out


def _chain_runs(points, keep, closed):
    """_march.runs over the samples of a chain; a closed chain that repeats
    its first point at the end is walked as the ring without the repeat."""
    if closed and len(points) > 1 and points[0] == points[-1]:
        keep = keep[:-1]
    return _march.runs(keep, closed)


def _clip_to_disk(points, closed, r):
    """Split a chain at the circle |z| = r; keep inside pieces."""
    pts = np.asarray(points)
    inside = np.abs(pts) <= r
    if inside.all():
        return [(pts, closed, False)]
    order, spans = _chain_runs(pts, inside, closed)
    walk = pts[order]
    pieces = []
    for lo, hi in spans:
        start = [_circle_cut(walk[lo], walk[lo - 1], r)] if lo > 0 else []
        end = [_circle_cut(walk[hi - 1], walk[hi], r)] if hi < len(walk) else []
        piece = np.concatenate([start, walk[lo:hi], end])
        if len(piece) >= 2:
            pieces.append((piece, False, True))
    return pieces


def _circle_cut(z_in, z_out, r):
    """Point on |z| = r along the segment z_in -> z_out."""
    d = z_out - z_in
    a = abs(d) ** 2
    if a == 0:
        return z_in
    b = 2 * (z_in.real * d.real + z_in.imag * d.imag)
    c = abs(z_in) ** 2 - r * r
    disc = max(b * b - 4 * a * c, 0.0)
    t = (-b + math.sqrt(disc)) / (2 * a)
    t = min(1.0, max(0.0, t))
    return z_in + t * d


# ---------------------------------------------------------------------------
# Arc classification


def classify_arcs(polylines, m, r):
    """(good, bad, suspect) counts of the lifts of a chart segment from
    trace_preimage, by the tags of _arc_tag.

    A lift covers the segment once and monotonically by construction.  A
    preimage component with no end point in the disk is no lift from
    inside and is not counted, so bad counts the lifts that leave the disk
    or reach its margin band.
    """
    dm = differentiate(m)
    tags = [_arc_tag(dm, pl.points, pl.touches_clip, r, pl.resolution) for pl in polylines]
    return tags.count("good"), tags.count("bad"), tags.count("ramified-suspect")


def _arc_tag(dm, points, touches_clip, r, resolution):
    """The arc-tagging rule: "bad" when the arc is cut by the circle or
    meets the margin band |z| >= r (1 - 10/resolution); else
    "ramified-suspect" when |f'| on it dips below 1e-4 of its largest value
    or has no finite value at all; else "good"."""
    if touches_clip or float(np.abs(points).max()) >= margin_radius(r, resolution):
        return "bad"
    dvals = np.abs(evaluate_array(dm, points))
    dvals = dvals[np.isfinite(dvals)]
    if len(dvals) == 0 or dvals.min() < 1e-4 * max(dvals.max(), 1e-280):
        return "ramified-suspect"
    return "good"


# ---------------------------------------------------------------------------
# Perturbation selection (coarea)


def _boundary_image_polyline(m, r, chart):
    """f(|z| = r) sampled densely enough near the chart rectangle."""
    x0, x1 = chart.x_range
    t0, t1 = chart.t_range
    diag = math.hypot(x1 - x0, t1 - t0)
    fine = diag / 64.0
    w = 2 * diag  # a long step with an end within w of the rectangle is split

    thetas = np.linspace(0.0, 2 * math.pi, _IMAGE_SAMPLES, endpoint=False)
    for _ in range(24):
        zs = r * np.exp(1j * thetas)
        zeta = chart.apply(evaluate_array(m, zs))
        steps = np.abs(np.roll(zeta, -1) - zeta)
        near = (x0 - w < zeta.real) & (zeta.real < x1 + w)
        near &= (t0 - w < zeta.imag) & (zeta.imag < t1 + w)
        big = (near | np.roll(near, -1)) & (steps > fine)
        if not big.any() or len(thetas) > _IMAGE_BUDGET:
            return zeta
        th_next = np.roll(thetas, -1)
        th_next[-1] += 2 * math.pi
        mids = (thetas[big] + th_next[big]) / 2.0
        thetas = np.sort(np.concatenate([thetas, mids]))
    zs = r * np.exp(1j * thetas)
    return chart.apply(evaluate_array(m, zs))


def select_perturbation(m, r, chart, n_samples=1000):
    """Pick the horizontal chart line crossed least by the boundary image.

    Returns (t_star, coarea_lhs, coarea_rhs) where the coarea pair checks
    that the mean crossing count times |t_range| equals the projected
    vertical length (with multiplicity) of the boundary image inside the
    rectangle.  t_star is the least crossed of n_samples evenly spaced lines,
    the most central among equals, with no polyline vertex within 1e-3
    |t_range| of it and no crossing flatter than 5 degrees (transversality).
    Each segment of the polyline is paired only with the lines it spans.
    """
    if n_samples < 100:
        raise ValueError("n_samples must be at least 100")
    a = _boundary_image_polyline(m, r, chart)
    b = np.roll(a, -1)
    x0, x1 = chart.x_range
    t0, t1 = chart.t_range
    span = t1 - t0

    # restrict to segments that could interact with the rectangle
    sel = (np.minimum(a.real, b.real) <= x1) & (np.maximum(a.real, b.real) >= x0)
    sel &= (np.minimum(a.imag, b.imag) <= t1) & (np.maximum(a.imag, b.imag) >= t0)
    a, b = a[sel], b[sel]
    lo, hi = np.minimum(a.imag, b.imag), np.maximum(a.imag, b.imag)

    # midpoint grid of candidate lines
    t_grid = t0 + (np.arange(n_samples) + 0.5) * span / n_samples

    def lines(lo, hi, widen=0):
        # (range, line) index pairs: the lines each [lo, hi] spans and `widen`
        # more on each side, clipped before the cast, since a height near a
        # pole of the chart passes 2^63
        j0 = np.ceil((lo - t0) / span * n_samples - 0.5) - widen
        j1 = np.floor((hi - t0) / span * n_samples - 0.5) + widen
        j0 = np.clip(j0, 0, n_samples).astype(int)
        j1 = np.clip(j1, -1, n_samples - 1).astype(int)
        n = np.maximum(j1 - j0 + 1, 0)
        j = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n - j0, n)
        return np.repeat(np.arange(len(lo)), n), j

    tilted = hi > lo
    p, q = a[tilted], b[tilted]
    seg, j = lines(lo[tilted], hi[tilted])
    # p.real + dx (t - p.imag) / dt, ordered so that numpy reuses temporaries
    xs = (t_grid[j] - p.imag[seg]) * (q.real - p.real)[seg] / (q.imag - p.imag)[seg]
    xs += p.real[seg]
    counts = np.bincount(j[(xs >= x0) & (xs <= x1)], minlength=n_samples)
    lhs = float(counts.mean() * span)

    # |dt| inside the rectangle: cut each segment where it crosses the four
    # sides and keep the pieces whose midpoint is inside
    d = b - a
    with np.errstate(divide="ignore", invalid="ignore"):
        cuts = np.column_stack([(x0 - a.real) / d.real, (x1 - a.real) / d.real,
                                (t0 - a.imag) / d.imag, (t1 - a.imag) / d.imag])
    cuts = np.where((cuts > 0) & (cuts < 1), cuts, 1.0)
    taus = np.sort(np.column_stack([np.zeros(len(a)), np.ones(len(a)), cuts]))
    u0, u1 = taus[:, :-1], taus[:, 1:]
    mid = a[:, None] + 0.5 * (u0 + u1) * d[:, None]
    inside = (x0 <= mid.real) & (mid.real <= x1) & (t0 <= mid.imag) & (mid.imag <= t1)
    inside &= (np.minimum(hi, t1) > np.maximum(lo, t0))[:, None]  # not a mere touch
    pieces = np.where(inside, np.abs((u1 - u0) * d.imag[:, None]), 0.0)
    # summed piece by piece, then segment by segment in polyline order
    rhs = float(np.cumsum(np.append(0.0, np.cumsum(pieces, axis=1)[:, -1]))[-1])

    # transversality; the ranges are widened by one line to hold every line
    # that the exact comparisons block: a vertex within margin, a flat crossing
    margin = 1e-3 * span
    blocked = np.zeros(n_samples, dtype=bool)
    verts = np.concatenate([a.imag, b.imag])
    seg, j = lines(verts - margin, verts + margin, widen=1)
    blocked[j[np.abs(verts[seg] - t_grid[j]) < margin]] = True
    flat = np.arctan2(hi - lo, np.abs(b.real - a.real)) < math.radians(5.0)
    lo, hi = lo[flat], hi[flat]
    seg, j = lines(lo, hi, widen=1)
    blocked[j[(lo[seg] < t_grid[j]) & (t_grid[j] < hi[seg])]] = True
    order = np.lexsort((np.abs(t_grid - 0.5 * (t0 + t1)), counts))
    free = order[~blocked[order]]
    if len(free) == 0:
        raise TransversalityError(
            "every candidate line fails the transversality margin; enlarge t_range"
        )
    return float(t_grid[free[0]]), lhs, rhs


# ---------------------------------------------------------------------------
# Graph preimages


@dataclass
class Arc:
    points: np.ndarray
    tag: str  # good | bad | ramified-suspect
    endpoints: tuple  # (vertex index | None, vertex index | None)
    closed: bool


@dataclass
class PreimageGraph:
    arcs: list
    vertices: list  # complex preimages of the graph node
    euler: int
    m: object  # the map's expression tree
    graph: GraphSpec

    @property
    def retained_arcs(self):
        return [a for a in self.arcs if a.tag != "bad"]


def graph_roots(m, node, radii):
    """The two root searches of build_preimage_graph at each radius r of
    `radii`: the critical points (f' = 0) and the preimages of the node in
    |z| < r, each a Root list or the error its own find_roots call raises.
    All come from one find_roots_many call, so the searches of one kind
    share their passes over the radii; a run makes one such call
    (verify.radius_contexts)."""
    dm = differentiate(m)
    found = find_roots_many([query for r in radii for query in ((dm, 0, r), (m, node, r))])
    return list(zip(found[::2], found[1::2]))


def build_preimage_graph(m, graph, r, resolution=512, roots=None):
    """Trace the whole graph preimage and assemble Euler data.

    The preimage {graph.level(f(z)) = 0} is marched (_march.extract) on a
    resolution x resolution grid over the disk's bounding square, one band
    of _march.BAND_ROWS rows at a time; the chains are clipped at |z| = r.
    One quadtree over the grid skips each block of cells whose disc f maps,
    by expr.evaluate_ball, into a ball that GraphSpec.certainly_outside
    keeps off the figure-eight and its lobes; the chains are the same, bit
    for bit, as from sampling every node.  The critical points and the
    vertex preimages are this radius's entry of graph_roots: `roots`, as a
    run shares it, or searched here.  Critical points that find_roots
    cannot resolve raise ResolutionError, since the vertex placement is
    then unchecked.  Vertex preimages are located by the argument-principle
    root finder and polished by Newton; polylines are cut where the target
    value enters a small ball around the node and the loose ends snap to
    vertices.  Bad arcs (meeting the boundary band) are deleted; euler =
    V - E counts the retained graph (closed loops carry an implicit vertex
    each).
    """
    if resolution < 64:
        raise ValueError("resolution must be at least 64")
    crit_points, node_roots = roots or graph_roots(m, graph.node, [r])[0]
    # the crossing vertex must avoid critical values (else: perturb the node)
    dm = differentiate(m)
    if isinstance(crit_points, (WindingError, ContourPassesThroughRoot)):
        raise ResolutionError(
            f"critical points of the map in |z| < {r} not resolved, so the "
            f"graph vertex cannot be checked against the critical values: {crit_points}"
        ) from crit_points
    if isinstance(crit_points, Exception):
        raise crit_points
    for cp in crit_points:
        try:
            cv = evaluate(m, cp.location)
        except IndeterminateError:
            continue
        if chordal_distance(cv, graph.node) < 1e-3:
            raise GraphPlacementError(
                f"graph vertex {graph.node!r} within 1e-3 of critical value {cv!r}; "
                f"perturb the node parameter"
            )
    if isinstance(node_roots, Exception):
        raise node_roots

    margin_r = margin_radius(r, resolution)
    vertices = [root.location for root in node_roots if abs(root.location) < margin_r]
    R = r * (1.0 + 2.0 / resolution)
    chains = _march.extract(
        lambda zs: graph.level(evaluate_array(m, zs)),
        (-R, R, -R, R),
        resolution,
        resolution,
        positive=lambda zs, radii: graph.certainly_outside(*evaluate_ball(m, zs, radii)),
    )
    polylines = [
        Polyline(pts, closed, touched, resolution)
        for ch in chains
        for pts, closed, touched in _clip_to_disk(ch.points, ch.closed, r)
        if len(pts) >= 2
    ]
    polylines.sort(key=lambda p: (p.points.real.min(), p.points.imag.min()))
    final_arcs = [
        Arc(
            points=pts,
            tag=_arc_tag(dm, pts, touched, r, resolution),
            endpoints=endpoint_ids,
            closed=closed,
        )
        for pl in polylines
        for pts, endpoint_ids, closed, touched in _cut_at_vertices(pl, m, graph, vertices)
    ]

    retained = [a for a in final_arcs if a.tag != "bad"]
    n_edges = sum(1 for a in retained if not a.closed or a.endpoints[0] is not None)
    euler = len(vertices) - n_edges
    return PreimageGraph(
        arcs=final_arcs,
        vertices=vertices,
        euler=euler,
        m=m,
        graph=graph,
    )


def _cut_at_vertices(pl, m, graph, vertices):
    """Cut a polyline where f enters the node ball (radius 0.08 * scale);
    snap the cut ends to the nearest vertex.

    Returns tuples (points, (vid_a, vid_b), closed, touches_clip).
    """
    pts = pl.points
    with np.errstate(all="ignore"):
        keep = ~(np.abs(evaluate_array(m, pts) - graph.node) < 0.08 * graph.scale)
    if keep.all():
        return [(pts, (None, None), pl.closed, pl.touches_clip)]

    def snap(z):
        if not vertices:
            return None
        return int(np.argmin([abs(z - v) for v in vertices]))

    order, spans = _chain_runs(pts, keep, pl.closed)
    walk = pts[order]
    out = []
    for lo, hi in spans:
        va = snap(walk[lo]) if lo > 0 else None
        vb = snap(walk[hi - 1]) if hi < len(walk) else None
        arc_pts = walk[lo:hi]
        if va is not None:
            arc_pts = np.concatenate([[vertices[va]], arc_pts])
        if vb is not None:
            arc_pts = np.concatenate([arc_pts, [vertices[vb]]])
        out.append((arc_pts, (va, vb), False, pl.touches_clip))
    return out


# ---------------------------------------------------------------------------
# Complement components


@dataclass
class ComplementComponent:
    chi: int
    touches_boundary: bool
    face: str | None  # the one face it maps into; None when it touches the boundary
    n_pixels: int
    label: int


@dataclass
class ComplementAnalysis:
    components: list
    # one (start, stop, label) row per labelled run, in raster order: the
    # row-major pixel indices start .. stop - 1 of the n x n grid
    runs: np.ndarray
    extent: float  # grid covers [-extent, extent]^2
    resolution: int

    def label_of_point(self, z):
        n = self.resolution
        i = math.floor((z.real + self.extent) / (2 * self.extent) * n)
        j = math.floor((z.imag + self.extent) / (2 * self.extent) * n)
        if not (0 <= i < n and 0 <= j < n):
            return 0
        k = int(np.searchsorted(self.runs[:, 0], j * n + i, side="right")) - 1
        return int(self.runs[k, 2]) if k >= 0 and j * n + i < self.runs[k, 1] else 0


def _pixel_blocks(zs, owner, r, n):
    """The 3x3 pixel blocks of the n x n grid on [-r, r]^2 around points zs.

    Returns the flat indices of the block pixels inside the grid, point by
    point and in (row, column) order within a block, and the owner of the
    point each pixel belongs to.  A point on the pixel and of the owner of
    the point before it, which would repaint that block, is skipped.
    """
    i = ((zs.real + r) / (2 * r) * n).astype(int)
    j = ((zs.imag + r) / (2 * r) * n).astype(int)
    new = np.ones(len(zs), dtype=bool)
    new[1:] = (i[1:] != i[:-1]) | (j[1:] != j[:-1]) | (owner[1:] != owner[:-1])
    i, j, owner = i[new], j[new], owner[new]
    jj = (j[:, None] + np.array([-1, -1, -1, 0, 0, 0, 1, 1, 1])).ravel()
    ii = (i[:, None] + np.array([-1, 0, 1, -1, 0, 1, -1, 0, 1])).ravel()
    inside = (0 <= jj) & (jj < n) & (0 <= ii) & (ii < n)
    return (jj * n + ii)[inside], np.repeat(owner, 9)[inside]


def _blocked_pixels(g, r, n, xs):
    """Sorted flat indices of the pixels that the vertices and the retained
    arcs of g block on the n x n grid on [-r, r]^2 (pixel centres xs)."""
    h = 2.0 * r / n
    # vertices are part of the retained graph even when all their incident
    # arcs were deleted as bad; block them so isolated ones puncture C_0
    vertices = np.asarray(g.vertices, dtype=complex)
    vertex_pixels = _pixel_blocks(vertices, np.arange(len(vertices)), r, n)[0]

    # supercover: resample each segment of each retained arc at sub-pixel
    # steps, p + (q - p) * s / steps for s = 0..steps, in paint order
    retained = g.retained_arcs
    p = np.concatenate([a.points[:-1] for a in retained] + [np.zeros(0, complex)])
    q = np.concatenate([a.points[1:] for a in retained] + [np.zeros(0, complex)])
    arc_of = np.repeat(np.arange(len(retained)), [len(a.points) - 1 for a in retained])
    steps = (np.abs(q - p) / (0.5 * h)).astype(int) + 1
    seg = np.repeat(np.arange(len(p)), steps + 1)
    s = np.arange(len(seg)) - np.repeat(np.cumsum(steps + 1) - (steps + 1), steps + 1)
    pixels, arc = _pixel_blocks(p[seg] + (q - p)[seg] * s / steps[seg], arc_of[seg], r, n)

    # a pixel painted by one arc right after another puts the two arcs in
    # one corridor, unless it lies within 4h of a vertex both arcs end on;
    # the conflicts are taken in paint order; a skipped repaint by the same
    # arc adds no conflict and moves none
    by_pixel = np.argsort(pixels, kind="stable")
    prev, cur = by_pixel[:-1], by_pixel[1:]
    clash = (pixels[prev] == pixels[cur]) & (arc[prev] != arc[cur])
    prev, cur = prev[clash], cur[clash]
    shared = {}
    for k in np.argsort(cur):
        j, i = divmod(int(pixels[cur[k]]), n)
        a_id, b_id, where = int(arc[prev[k]]), int(arc[cur[k]]), complex(xs[i], xs[j])
        common = (set(retained[a_id].endpoints) & set(retained[b_id].endpoints)) - {None}
        if not any(abs(where - g.vertices[v]) < 4 * h for v in common):
            shared[(min(a_id, b_id), max(a_id, b_id))] = where
    if shared:
        raise ResolutionError(
            f"arcs share a pixel corridor at {list(shared.values())[:3]!r}; "
            f"retry with a finer resolution"
        )
    # the sorted distinct pixels, as np.unique gives them, which would load
    # numpy.ma on its first call
    pixels = np.sort(np.concatenate((vertex_pixels, pixels)))
    first = np.ones(len(pixels), dtype=bool)
    first[1:] = pixels[1:] != pixels[:-1]
    return pixels[first]


def _free_runs(blocked, r, n, xs):
    """Row runs of the pixels of the n x n grid (pixel centres xs) in
    |z| <= r less the blocked ones, in raster order: row, first column, end
    column (one past the last) and whether it has a pixel past ring_radius.

    In row j the pixels with |xs + i xs[j]| <= rad, for rad = r and the
    ring radius, are a span whose ends, from sqrt(rad^2 - xs[j]^2), are
    moved onto that exact test; the disk's spans are cut at blocked pixels.
    """
    rad = np.array([[r], [ring_radius(r, n)]])
    half = np.sqrt(np.maximum(rad * rad - xs * xs, 0.0))
    a, b = np.searchsorted(xs, -half), np.searchsorted(xs, half, side="right")

    def inside(i):
        k = np.clip(i, 0, n - 1)
        return (i == k) & (np.abs(xs[k] + 1j * xs) <= rad)

    while (step := inside(a - 1)).any():
        a -= step
    while (step := (a < b) & ~inside(a)).any():
        a += step
    while (step := inside(b)).any():
        b += step
    while (step := (a < b) & ~inside(b - 1)).any():
        b -= step
    (a, inner_a), (b, inner_b) = a, b
    bj, bi = np.divmod(blocked, n)
    cut = (a[bj] <= bi) & (bi < b[bj])
    rows, stride = np.flatnonzero(a < b), n + 1
    # runs start at a span's start or past a blocked pixel, end at one or at the span's end
    start = np.sort(np.r_[rows * stride + a[rows], (bj * stride + bi + 1)[cut]], kind="stable")
    stop = np.sort(np.r_[(bj * stride + bi)[cut], rows * stride + b[rows]], kind="stable")
    row, lo = np.divmod(start[start < stop], stride)
    hi = stop[start < stop] - row * stride
    # a run off the inner span (or in a row where it is empty) has a ring pixel
    return row, lo, hi, (lo < inner_a[row]) | (hi > inner_b[row])


def complement_components(g, r, resolution=512):
    """Components of the disk minus the retained arcs of a preimage graph,
    labelled on row runs: each row's disk span split at its blocked pixels.

    Per component: chi from the pixel complex (2 - #boundary curves for a
    planar piece), a boundary-touching flag, and the target face its map
    image covers (None for a boundary-touching one, whose image may cross
    the graph's arcs).  Raises ResolutionError when two distinct arcs share a
    pixel corridor (the rasterization would merge their sides).
    """
    n = resolution
    xs = -r + (np.arange(n) + 0.5) * (2.0 * r / n)
    row, lo, hi, on_ring = _free_runs(_blocked_pixels(g, r, n, xs), r, n, xs)
    label = _march.label_runs(row, lo, hi)
    chi = _march.mask_euler_characteristic(row, lo, hi, label).tolist()
    size = len(chi)
    n_pixels = np.bincount(label, hi - lo, minlength=size).astype(int).tolist()
    touches = (np.bincount(label[on_ring], minlength=size) > 0).tolist()
    # each face probe samples the middle pixel of its component's widest
    # run, the first in raster order among equals: a component off the
    # boundary maps into one face, so any of its pixels names that face;
    # a component on the boundary is not probed
    order = np.lexsort((lo - hi, label))
    widest = order[np.searchsorted(label[order], np.arange(size))]
    probe = zip(row[widest].tolist(), ((lo[widest] + hi[widest] - 1) // 2).tolist())
    components = []
    for k, (y, x) in enumerate(probe):
        face = None
        if not touches[k]:
            try:
                face = g.graph.face_of(evaluate(g.m, complex(xs[x], xs[y])))
            except IndeterminateError:
                face = "outer"
        components.append(
            ComplementComponent(
                chi=chi[k],
                touches_boundary=touches[k],
                face=face,
                n_pixels=n_pixels[k],
                label=k + 1,
            )
        )
    runs = np.column_stack((row * n + lo, row * n + hi, label + 1))
    return ComplementAnalysis(components=components, runs=runs, extent=r, resolution=n)


# ---------------------------------------------------------------------------
# Test 1-form integral along a perturbed arc


def arc_test_integral(m, chart, t, r):
    """Integral of d_n(gamma_t(x)) beta(x) dx along the chart line t.

    beta is the cos^2 window of unit integral over x_range; the result
    approximates the covering area a(r) when the arc has only good lifts.
    The preimage counts d_n at the Gauss nodes come from one winding pass
    over the boundary image f(|z| = r) (count_preimages_many); a node
    inside the band around the image goes to count_preimages, which raises
    RootOnCircleError when its root lies on the circle.  Counts are
    distinct roots, which equal the winding count except at critical values.
    """
    x0, x1 = chart.x_range
    width = x1 - x0
    xs = 0.5 * (x0 + x1) + 0.5 * width * _ARC_NODES
    beta = (2.0 / width) * np.sin(math.pi * ((xs - x0) / width)) ** 2
    targets = [complex(chart.inverse(complex(x, t))) for x in xs]
    total = 0.0
    for w, b, target, d in zip(_ARC_WEIGHTS, beta, targets, count_preimages_many(m, targets, r)):
        if d is None:
            d = count_preimages(m, target, r)
        total += w * b * d
    return total * 0.5 * width


# ---------------------------------------------------------------------------
# Exports


def export_svg(path, r, graph=None, islands=None):
    """Static SVG render of the source disk: arcs, vertices, islands (each
    boundary curve, holes after the outer one).

    Each coordinate is written as f"{x:.2f}"; a polyline's coordinates are
    computed as one array and formatted by one "%.2f,%.2f" template.
    """
    size = 800
    scale = size / (2.2 * r)

    def xy(zs):
        zs = np.asarray(zs, dtype=complex)
        x, y = (zs.real + 1.1 * r) * scale, (1.1 * r - zs.imag) * scale
        return np.stack((x, y), 1).ravel().tolist()

    def points(zs):
        coords = xy(zs)
        return " ".join(["%.2f,%.2f"] * (len(coords) // 2)) % tuple(coords)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<circle cx="{size/2}" cy="{size/2}" r="{r*scale}" fill="none" '
        f'stroke="#888" stroke-width="1"/>',
    ]
    styles = {
        "good": 'stroke="#1f77b4" stroke-width="1.5"',
        "bad": 'stroke="#d62728" stroke-width="1.2" stroke-dasharray="6 4"',
        "ramified-suspect": 'stroke="#ff7f0e" stroke-width="1.5" stroke-dasharray="2 3"',
    }
    if graph is not None:
        for arc in graph.arcs:
            parts.append(f'<polyline points="{points(arc.points)}" fill="none" {styles[arc.tag]}/>')
        for v in graph.vertices:
            x, y = xy([v])
            parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3" fill="#000"/>')
    for rec in islands or ():
        for loop in [rec.boundary, *rec.holes]:
            parts.append(f'<polyline points="{points(loop)}" fill="none" '
                         'stroke="#2ca02c" stroke-width="1.5"/>')
    parts.append("</svg>")
    text = "\n".join(parts) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return text


def export_json(path, graph=None, components=None, islands=None):
    """JSON document with arcs, tags, euler and the component table.

    The text is json.dumps(doc, sort_keys=True, indent=2) of the dict built
    here, arc points rounded to 9 digits.  The encoder writes the document
    with a marker for each arc's points; each points block is then laid out
    as indent=2 lays it out at that depth, from the number tokens of one
    flat json.dumps (so NaN and Infinity read as the encoder writes them).
    """
    doc = {}
    blocks, marker = [], "<points>"  # the marker stands in for each arc's points
    if graph is not None:
        doc["euler"] = graph.euler
        doc["vertices"] = [[v.real, v.imag] for v in graph.vertices]
        doc["arcs"] = []
        # a point [x, y] at depth 4 of the document, and the text between two
        point, sep = f"[\n{' ' * 10}%s,\n{' ' * 10}%s\n{' ' * 8}]", ",\n" + " " * 8
        for arc in graph.arcs:
            xy = np.round(np.stack((arc.points.real, arc.points.imag), 1), 9)
            tokens = json.dumps(xy.ravel().tolist())[1:-1].split(", ")
            block = f"[\n{' ' * 8}{sep.join([point] * len(xy))}\n{' ' * 6}]"
            blocks.append(block % tuple(tokens) if len(xy) else "[]")
            doc["arcs"].append({
                "tag": arc.tag,
                "closed": bool(arc.closed),
                "endpoints": [None if e is None else int(e) for e in arc.endpoints],
                "points": marker,
            })
    if components is not None:
        doc["components"] = [
            {
                "chi": c.chi,
                "touches_boundary": c.touches_boundary,
                "face": c.face,
                "n_pixels": c.n_pixels,
            }
            for c in components.components
        ]
    if islands is not None:
        doc["islands"] = [
            {
                "disk_index": rec.disk_index,
                "chi": rec.chi,
                "degree": rec.degree,
                "ramification": rec.ramification,
                "centroid": [rec.centroid.real, rec.centroid.imag],
            }
            for rec in islands
        ]
    pieces = json.dumps(doc, sort_keys=True, indent=2).split(json.dumps(marker))
    text = pieces[0] + "".join(b + p for b, p in zip(blocks, pieces[1:]))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")
    return text

"""Discrete double branched covers of sampled circle-action quotients.

The quotient is a 2-sphere-like surface sampled by points with exact
pairwise distances.  A cover branched over two marked points is built on a
k-nearest-neighbor graph (k = 12) whose edge weights are the base distances:

* every node away from the branch points is doubled into two sheets;
* a discrete cut from one branch point to the other switches sheets.  The
  cut is the minimizing segment between the branch points, routed through
  an equidistant waypoint sample when the branch pair is nearly antipodal
  and no single segment direction is stable.  An edge crosses the cut
  when its angular interval, seen from each endpoint of the segment,
  spans the direction toward the opposite endpoint and the interpolated
  crossing radius stays inside the segment;
* the branch points stay single and are joined to every node of both
  sheets by their exact base distances, so certified quantities (the
  lifted branch distance, extremal triples through the branch locus) ride
  on exact edges.

The angular span tests are sign tests against per-node azimuth fields, so
the crossing set is the indicator of a fixed curve and the sheet
assignment is a true mod-2 cocycle: azimuth noise only deforms the cut,
which leaves the cover metric unchanged up to isometry, and can never
create a one-edge wormhole between the sheets.  At a cone point of
isotropy k the azimuth lives modulo 2*pi/k, which keeps the segment
direction well defined even when the minimizing segment is not unique
(tied minimizers differ by exactly the stabilizer angle).  Large azimuth
jumps occur only deep on cut loci, far from the segment, where the test
at the partner endpoint or the radius gate rejects the edge; requiring
agreement from both endpoints is what stops a far cone point, where one
field alone wraps incoherently, from being glued like an extra branch
point.

Cover distances are all-pairs shortest paths.  Every reported cover is
recomputed at twice the sampling resolution; the drift of its extremal
statistics (the maximum distance and the third extent, which downstream
smallness checks consume) between the two resolutions must stay within
2 * tol, else a ConvergenceError is raised.  Extremal configurations of
these quotients pass through the branch locus, where the star edges are
exact, so the statistics converge much faster than raw per-pair graph
distances, whose fixed-k stretch noise does not vanish with resolution.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import pi

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components, dijkstra

from .actions import circle_generator
from .engine import DistanceEngine
from .extents import extent
from .spaces import SampledMetricSpace, MarkedPoint, regenerate, validate_metric


K_NEIGHBORS = 12

# the neighbor graph is densified with every pair closer than this factor
# times the median 12th-neighbor distance; longer hops bend less, which
# shrinks the graph's metric stretch quadratically while all edge weights
# stay exact base distances
RADIUS_FACTOR = 3.0

# an edge crossing a cut segment must do so within this fraction of the
# segment length from one endpoint; genuine crossings sit at <= 1/2
GATE_FRACTION = 0.75

# branch pairs farther apart than this are treated as antipodal and the
# cut is routed through a waypoint (quotients of curvature >= 4 have
# diameter <= pi/2, where minimizing segments stop being unique)
WAYPOINT_THRESHOLD = pi / 2.0 - 0.05


class GraphDisconnectedError(ValueError):
    """The neighbor graph does not connect the sampled quotient."""


class ConvergenceError(RuntimeError):
    """The two-resolution cover certificate failed."""


@dataclass
class CoverCertificate:
    samples_low: int
    samples_high: int
    diameter_low: float
    diameter_high: float
    xt3_low: float
    xt3_high: float
    tol: float

    @property
    def drift(self) -> float:
        return max(
            abs(self.diameter_low - self.diameter_high),
            abs(self.xt3_low - self.xt3_high),
        )

    @property
    def passed(self) -> bool:
        return self.drift <= 2.0 * self.tol


def _knn_edges(dist: np.ndarray, k: int = K_NEIGHBORS) -> dict:
    """k-nearest-neighbor edges densified by a local connection radius."""
    n = len(dist)
    edges: dict[tuple[int, int], float] = {}
    take = min(k + 1, n)
    kth = np.empty(n)
    for u in range(n):
        nearest = np.argpartition(dist[u], take - 1)[:take]
        kth[u] = dist[u][nearest].max()
        for v in nearest:
            v = int(v)
            if v == u:
                continue
            key = (u, v) if u < v else (v, u)
            edges[key] = float(dist[key[0], key[1]])
    radius = RADIUS_FACTOR * float(np.median(kth))
    for u, v in np.argwhere(np.triu(dist <= radius, 1)):
        edges[(int(u), int(v))] = float(dist[u, v])
    return edges


def _csr_from_edges(n: int, edges: dict) -> sp.csr_matrix:
    if not edges:
        return sp.csr_matrix((n, n))
    keys = list(edges.keys())
    ii = [k[0] for k in keys] + [k[1] for k in keys]
    jj = [k[1] for k in keys] + [k[0] for k in keys]
    ww = [edges[k] for k in keys] * 2
    return sp.csr_matrix((ww, (ii, jj)), shape=(n, n))


def _azimuth_field(space: SampledMetricSpace, anchor_idx: int):
    """Azimuth of every sample around the anchor, reduced mod 2*pi/isotropy.

    One batched `engine.align` call gives every sample's aligned
    representative; each is projected onto an oriented 2-frame orthogonal
    to the anchor and its orbit direction.  The anchor's stabilizer rotates
    that normal plane by multiples of 2*pi/isotropy, so the reduced angle
    does not depend on which minimizing representative the alignment picks.
    Samples whose projection vanishes (the anchor itself, and points at
    distance pi/2 where every theta is optimal) get azimuth 0.
    """
    engine = DistanceEngine(space.spec.weights, space.spec.gamma)
    iso = {m.index: m.isotropy for m in space.marked}
    alpha = 2.0 * pi / iso.get(anchor_idx, 1)
    center = space.points[anchor_idx]
    orbit = circle_generator(engine.p, engine.q) @ center
    orbit = orbit / np.linalg.norm(orbit)
    frame = [center, orbit]
    for cand in np.eye(4):
        w = cand.copy()
        for e in frame:
            w -= (w @ e) * e
        norm = np.linalg.norm(w)
        if norm > 1e-6:
            frame.append(w / norm)
        if len(frame) == 4:
            break
    if np.linalg.det(np.column_stack(frame)) < 0:
        frame[3] = -frame[3]
    e1, e2 = frame[2], frame[3]

    _, aligned = engine.align(center, space.points)
    w = aligned - np.outer(aligned @ center, center)
    w -= np.outer(w @ orbit, orbit)
    psi = np.arctan2(w @ e2, w @ e1) % alpha
    psi[np.linalg.norm(w, axis=1) < 1e-12] = 0.0
    psi[anchor_idx] = 0.0
    return psi, alpha


def _shortway(x: np.ndarray, alpha: float) -> np.ndarray:
    """Reduce angle differences to the short way around, in (-alpha/2, alpha/2]."""
    return x - alpha * np.round(x / alpha)


def _choose_waypoint(space: SampledMetricSpace, b1: int, b2: int) -> int:
    """Sample closest to the midpoint of a minimizing branch-to-branch segment.

    Only needed for nearly antipodal branch pairs, where every direction
    out of a branch point starts a minimizing segment; routing the cut
    through a concrete equidistant sample pins down one of them.
    """
    d = space.dist
    sep = d[b1, b2]
    r1, r2 = d[b1].copy(), d[b2]
    score = np.abs(r1 - r2) + 0.5 * np.abs(r1 + r2 - sep)
    score[np.minimum(r1, r2) < 0.25 * sep] = np.inf
    for m in space.marked:
        score[m.index] = np.inf
    score[[b1, b2]] = np.inf
    idx = int(np.argmin(score))
    if not np.isfinite(score[idx]):
        raise ValueError("no waypoint candidate between the branch points")
    return idx


def _segment_crossings(
    space: SampledMetricSpace,
    fields: dict,
    i: int,
    j: int,
    eu: np.ndarray,
    ev: np.ndarray,
) -> np.ndarray:
    """Which edges (eu[k], ev[k]) cross the minimizing segment from node i to j.

    An edge crosses when, seen from each segment endpoint, its angular
    interval spans the direction of the opposite endpoint (sign test
    within the short-way lens) and the crossing radius interpolated from
    both endpoints stays inside the segment.  Edges touching i or j are
    never reported as crossing.  fields maps i and j to their azimuth
    fields.
    """
    d = space.dist
    crosses = (eu != i) & (eu != j) & (ev != i) & (ev != j)
    radii = []
    for a, b in ((i, j), (j, i)):
        psi, alpha = fields[a]
        qu = _shortway(psi[eu] - psi[b], alpha)
        qv = _shortway(psi[ev] - psi[b], alpha)
        crosses &= (qu * qv < 0.0) & (np.abs(qu) + np.abs(qv) <= 0.5 * alpha)
        with np.errstate(invalid="ignore", divide="ignore"):
            s = qu / (qu - qv)
        radii.append(d[a][eu] + s * (d[a][ev] - d[a][eu]))
    with np.errstate(invalid="ignore"):
        crosses &= np.minimum(radii[0], radii[1]) <= GATE_FRACTION * d[i, j]
    return crosses


def _cut_crossings(
    space: SampledMetricSpace, branch: tuple[int, int], eu: np.ndarray, ev: np.ndarray
) -> np.ndarray:
    """Mod-2 crossing indicator of the branch-to-branch cut for each edge."""
    b1, b2 = branch
    if space.dist[b1, b2] < WAYPOINT_THRESHOLD:
        fields = {b: _azimuth_field(space, b) for b in (b1, b2)}
        return _segment_crossings(space, fields, b1, b2, eu, ev)

    mid = _choose_waypoint(space, b1, b2)
    fields = {b: _azimuth_field(space, b) for b in (b1, mid, b2)}
    crosses = _segment_crossings(space, fields, b1, mid, eu, ev)
    crosses ^= _segment_crossings(space, fields, mid, b2, eu, ev)
    # edges at the waypoint itself carry a side-of-cut bit, so the cut
    # runs through the waypoint node without leaving a gap
    psi, alpha = fields[mid]
    span = (psi[b2] - psi[b1]) % alpha
    incident = (eu == mid) | (ev == mid)
    other = np.where(eu == mid, ev, eu)
    side = (psi[other] - psi[b1]) % alpha < span
    crosses[incident] = side[incident]
    return crosses


def _build_cover(space: SampledMetricSpace, branch: tuple[int, int]):
    """One-resolution cover graph; returns (cover space, node map).

    node map is an (n, 2) array sending (base index, sheet) to the cover
    row; branch points map both sheets to their single row.
    """
    if space.spec is None:
        raise ValueError("branched covers need a quotient with an action spec")
    d = space.dist
    n = space.size
    b1, b2 = branch
    branch_set = {b1, b2}

    knn = _knn_edges(d)
    n_comp, _ = connected_components(_csr_from_edges(n, knn), directed=False)
    if n_comp != 1:
        raise GraphDisconnectedError("neighbor graph is disconnected")

    plain = [
        (u, v, w)
        for (u, v), w in knn.items()
        if u not in branch_set and v not in branch_set
    ]
    eu = np.array([e[0] for e in plain], dtype=int)
    ev = np.array([e[1] for e in plain], dtype=int)
    crossings = _cut_crossings(space, (b1, b2), eu, ev)

    cover_edges: dict[tuple[int, int], float] = {}

    def add(i: int, j: int, w: float) -> None:
        if i == j:
            return
        key = (i, j) if i < j else (j, i)
        cur = cover_edges.get(key)
        if cur is None or w < cur:
            cover_edges[key] = w

    def lift(u: int, sheet: int) -> int:
        if u in branch_set:
            return u
        return u + sheet * n

    # branch-incident knn edges are superseded by the exact stars below
    for (u, v, w), crosses in zip(plain, crossings):
        if crosses:
            add(lift(u, 0), lift(v, 1), w)
            add(lift(u, 1), lift(v, 0), w)
        else:
            add(lift(u, 0), lift(v, 0), w)
            add(lift(u, 1), lift(v, 1), w)
    for b in (b1, b2):
        for x in range(n):
            if x == b:
                continue
            w = float(d[b, x])
            if x in branch_set:
                add(b, x, w)
            else:
                add(b, lift(x, 0), w)
                add(b, lift(x, 1), w)

    active = list(range(n)) + [u + n for u in range(n) if u not in branch_set]
    position = {node: row for row, node in enumerate(active)}
    graph = _csr_from_edges(2 * n, cover_edges)
    dist_rows = dijkstra(graph, directed=False, indices=np.array(active))
    cover_dist = dist_rows[:, active]
    if not np.all(np.isfinite(cover_dist)):
        raise GraphDisconnectedError("cover graph is disconnected")
    cover_dist = np.minimum(cover_dist, cover_dist.T)
    np.fill_diagonal(cover_dist, 0.0)

    cover_points = space.points[[node % n for node in active]]
    cover_marked = []
    for m in space.marked:
        cover_marked.append(
            MarkedPoint(position[m.index], f"{m.label}+0", m.isotropy)
        )
        if m.index not in branch_set:
            cover_marked.append(
                MarkedPoint(position[m.index + n], f"{m.label}+1", m.isotropy)
            )

    node_map = np.empty((n, 2), dtype=int)
    for u in range(n):
        node_map[u, 0] = position[u]
        node_map[u, 1] = position[u] if u in branch_set else position[u + n]

    cover = SampledMetricSpace(
        points=cover_points,
        dist=cover_dist,
        marked=cover_marked,
        kind="double-cover",
        seed=space.seed,
        requested_samples=space.requested_samples,
        spec=space.spec,
    )
    validate_metric(cover)
    return cover, node_map


def double_branched_cover(
    space: SampledMetricSpace,
    branch: tuple[int, int],
    tol: float = 0.02,
    high_base: SampledMetricSpace | None = None,
) -> SampledMetricSpace:
    """Double cover of the sampled quotient branched over two marked points.

    Returns the cover rebuilt at twice the requested resolution, carrying a
    CoverCertificate with the observed drift between the two resolutions.
    Raises ConvergenceError when the drift exceeds 2 * tol, and ValueError
    when the branch indices are not distinct marked points.
    """
    marked_indices = [m.index for m in space.marked]
    b1, b2 = int(branch[0]), int(branch[1])
    if b1 not in marked_indices or b2 not in marked_indices:
        raise ValueError("branch indices must be marked points")
    if b1 == b2 or space.dist[b1, b2] <= 1e-9:
        raise ValueError("branch points coincide")

    low_cover, low_map = _build_cover(space, (b1, b2))

    if high_base is None:
        high_base = regenerate(space, 2 * space.requested_samples)
    if [m.label for m in high_base.marked] != [m.label for m in space.marked]:
        raise RuntimeError("marked loci differ between resolutions")
    pos1 = marked_indices.index(b1)
    pos2 = marked_indices.index(b2)
    branch_high = (high_base.marked[pos1].index, high_base.marked[pos2].index)
    high_cover, _high_map = _build_cover(high_base, branch_high)

    certificate = CoverCertificate(
        samples_low=space.requested_samples,
        samples_high=high_base.requested_samples,
        diameter_low=low_cover.diameter(),
        diameter_high=high_cover.diameter(),
        xt3_low=extent(low_cover, 3).value,
        xt3_high=extent(high_cover, 3).value,
        tol=tol,
    )
    if not certificate.passed:
        raise ConvergenceError(
            f"cover drift {certificate.drift:.6f} exceeds 2*tol = "
            f"{2 * tol:.6f} between resolutions {certificate.samples_low} "
            f"and {certificate.samples_high}"
        )
    high_cover.certificate = certificate
    return high_cover

"""Discrete double branched covers of sampled circle-action quotients.

The quotient is a 2-sphere-like surface sampled by points with exact
pairwise distances.  A cover branched over two marked points is built on a
neighbor graph whose edge weights are the base distances: the 12 nearest
neighbors of each node, densified with every pair closer than
RADIUS_FACTOR times the median 12th-neighbor distance, which gives about
50-100 neighbors per node:

* every node away from the branch points is doubled into two sheets;
* a discrete cut from one branch point to the other switches sheets.  The
  cut is the minimizing segment between the branch points, routed through
  an equidistant waypoint sample when the branch pair is nearly antipodal
  and no single segment direction is stable.  An edge crosses the cut
  when its angular interval, seen from each endpoint of the segment,
  spans the direction toward the opposite endpoint and the interpolated
  crossing radius stays inside the segment;
* the branch points stay single and are joined to every node of both
  sheets by their exact base distances: these stars reach every lift
  whatever the cut does, and certified quantities (the lifted branch
  distance, extremal triples through the branch locus) ride on exact edges.

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

Every edge list is an integer index array: the neighbor graph is an (m, 2)
array of base index pairs u < v, the cut test reads its columns, and each
sparse graph is assembled from such arrays in one call.

Cover distances are shortest paths from the n base rows only.  The graph
stores both orientations of every edge, so the directed search (scipy's
default) is the undirected one and scans each stored edge once.  The sheet
swap sigma, which exchanges the two lifts of every doubled node and fixes
the branch points, maps each edge to an edge of the same weight, so it is
an isometry of the cover graph: d(sigma u, v) = d(u, sigma v).  Every
path and its sigma-image add the same weights in the same order, so each
sheet-1 row is its base row read through sigma, bit for bit, and the
mirrored matrix equals the all-sources one, zero diagonal included.
Every reported cover is recomputed at twice the sampling resolution; the
drift of its extremal statistics (the maximum distance and the third
extent, which downstream smallness checks consume) between the two
resolutions must stay within 2 * tol, else a ConvergenceError is raised.
Extremal configurations of these quotients pass through the branch
locus, where the star edges are exact, so the statistics converge much
faster than raw per-pair graph distances, whose fixed-k stretch noise
does not vanish with resolution.

The cover carries sigma as its sheet_swap, so validate_metric checks that
its matrix is exactly sigma-invariant and scans each triangle and its
sigma-image once.  The neighbor graph and the azimuth fields depend only
on the base space, so a BaseGraphs instance builds each once however many
branch pairs use it; check_condition_qprime passes one to all its covers.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import pi

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components, dijkstra

from .actions import circle_generator
from .extents import check_tol, extent
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


class ConvergenceError(RuntimeError):
    """The two-resolution cover certificate failed; `certificate` holds it."""

    def __init__(self, certificate: CoverCertificate):
        super().__init__(
            f"cover drift {certificate.drift:.6f} exceeds 2*tol = "
            f"{2 * certificate.tol:.6f} between resolutions {certificate.samples_low} "
            f"and {certificate.samples_high}"
        )
        self.certificate = certificate


def _knn_edges(dist: np.ndarray) -> np.ndarray:
    """K_NEIGHBORS-nearest-neighbor edges densified by a local connection
    radius.

    Returns an (m, 2) array of index pairs u < v in lexicographic order.
    """
    n = len(dist)
    take = min(K_NEIGHBORS + 1, n)
    nearest = np.argpartition(dist, take - 1, axis=1)[:, :take]
    kth = np.take_along_axis(dist, nearest, axis=1).max(axis=1)
    adjacent = dist <= RADIUS_FACTOR * float(np.median(kth))
    adjacent[np.arange(n).repeat(take), nearest.ravel()] = True
    return np.argwhere(np.triu(adjacent | adjacent.T, 1))


class BaseGraphs:
    """Connectivity-checked neighbor graphs and azimuth fields of base
    spaces, each built the first time a cover asks for it."""

    def __init__(self):
        self._knn = {}
        self._fields = {}

    def knn(self, space: SampledMetricSpace) -> np.ndarray:
        """`_knn_edges` of space; GraphDisconnectedError if it does not
        connect the samples."""
        if space not in self._knn:
            knn = _knn_edges(space.dist)
            n = space.size
            adjacency = sp.coo_matrix((np.ones(len(knn)), knn.T), shape=(n, n))
            n_comp, _ = connected_components(adjacency, directed=False)
            if n_comp != 1:
                raise GraphDisconnectedError("neighbor graph is disconnected")
            self._knn[space] = knn
        return self._knn[space]

    def field(self, space: SampledMetricSpace, anchor_idx: int):
        """`_azimuth_field` of space around anchor_idx."""
        key = (space, anchor_idx)
        if key not in self._fields:
            self._fields[key] = _azimuth_field(space, anchor_idx)
        return self._fields[key]


def _azimuth_field(space: SampledMetricSpace, anchor_idx: int):
    """Azimuth of every sample around the anchor, reduced mod 2*pi/isotropy.

    One batched `align` call on space.engine gives every sample's aligned
    representative; each is projected onto an oriented 2-frame orthogonal
    to the anchor and its orbit direction.  The anchor's stabilizer rotates
    that normal plane by multiples of 2*pi/isotropy, so the reduced angle
    does not depend on which minimizing representative the alignment picks.
    Samples whose projection vanishes (the anchor itself, and points at
    distance pi/2 where every theta is optimal) get azimuth 0.
    """
    engine = space.engine
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

    aligned = engine.align(center, space.points)
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
    graphs: BaseGraphs,
    i: int,
    j: int,
    eu: np.ndarray,
    ev: np.ndarray,
) -> np.ndarray:
    """Which edges (eu[k], ev[k]) cross the minimizing segment from node i to j.

    An edge crosses when, seen from each segment endpoint, its angular
    interval spans the direction of the opposite endpoint (sign test
    within the short-way lens) and the crossing radius interpolated from
    both endpoints stays inside the segment.  The azimuth fields of i and j
    come from graphs.
    """
    d = space.dist
    crosses = np.ones(len(eu), dtype=bool)
    radii = []
    for a, b in ((i, j), (j, i)):
        psi, alpha = graphs.field(space, a)
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
    space: SampledMetricSpace,
    branch: tuple[int, int],
    eu: np.ndarray,
    ev: np.ndarray,
    graphs: BaseGraphs,
) -> np.ndarray:
    """Mod-2 crossing indicator of the branch-to-branch cut for each edge;
    its segments and the waypoint's side bit read the azimuth fields from
    graphs."""
    b1, b2 = branch
    if space.dist[b1, b2] < WAYPOINT_THRESHOLD:
        return _segment_crossings(space, graphs, b1, b2, eu, ev)

    mid = _choose_waypoint(space, b1, b2)
    crosses = _segment_crossings(space, graphs, b1, mid, eu, ev)
    crosses ^= _segment_crossings(space, graphs, mid, b2, eu, ev)
    # edges at the waypoint itself carry a side-of-cut bit, so the cut
    # runs through the waypoint node without leaving a gap
    psi, alpha = graphs.field(space, mid)
    span = (psi[b2] - psi[b1]) % alpha
    incident = (eu == mid) | (ev == mid)
    other = np.where(eu == mid, ev, eu)
    side = (psi[other] - psi[b1]) % alpha < span
    crosses[incident] = side[incident]
    return crosses


def _build_cover(
    space: SampledMetricSpace, branch: tuple[int, int], graphs: BaseGraphs
) -> SampledMetricSpace:
    """One-resolution cover of space branched over the two base indices
    in branch; the neighbor graph and azimuth fields of space come from
    graphs.

    Sheet 0 keeps the base indices and sheet 1 follows in base order, so
    base point i lifts to cover rows i and sheet_swap[i], which coincide
    exactly at the branch points.
    """
    if space.spec is None:
        raise ValueError("branched covers need a quotient with an action spec")
    d = space.dist
    n = space.size
    b1, b2 = branch

    knn = graphs.knn(space)

    doubled = np.setdiff1d(np.arange(n), branch)
    size = n + len(doubled)
    # cover row r lies over base point base[r]; base point i lifts to rows i
    # and sigma[i], where sigma is the sheet swap
    base = np.r_[:n, doubled]
    sigma = base.copy()
    sigma[doubled] = np.arange(n, size)

    # sheet edges stay on their sheet unless they cross the cut; the
    # branch-incident knn edges are superseded by the exact stars, which join
    # each branch point to both lifts of every doubled node and to each other
    eu, ev = knn[~np.isin(knn, branch).any(axis=1)].T
    flip = _cut_crossings(space, (b1, b2), eu, ev, graphs)
    lift_ev = np.where(flip, sigma[ev], ev)  # the lift of ev joined to eu's sheet-0 lift
    hub = np.repeat(branch, len(doubled))
    leaf = np.tile(doubled, 2)
    head = np.concatenate([eu, sigma[eu], hub, hub, [b1]])
    tail = np.concatenate([lift_ev, sigma[lift_ev], leaf, sigma[leaf], [b2]])
    weight = np.concatenate([d[eu, ev], d[eu, ev], d[hub, leaf], d[hub, leaf], [d[b1, b2]]])
    graph = sp.csr_matrix(
        (np.tile(weight, 2), (np.r_[head, tail], np.r_[tail, head])), shape=(size, size)
    )
    # the sheet swap sigma preserves every edge weight, so each sheet-1 row
    # is its base row read through sigma (module docstring)
    cover_dist = np.empty((size, size))
    cover_dist[:n] = dijkstra(graph, indices=np.arange(n))
    # every index is in range; "clip" only spares the buffer "raise" uses
    np.take(cover_dist[doubled], sigma, axis=1, out=cover_dist[n:], mode="clip")
    # symmetrise in place, 256 rows at a time: np.minimum(c, c.T) would
    # allocate a second size x size matrix
    for r0 in range(0, size, 256):
        r1 = r0 + 256
        m = np.minimum(cover_dist[r0:r1, r0:], cover_dist[r0:, r0:r1].T)
        cover_dist[r0:r1, r0:] = m
        cover_dist[r0:, r0:r1] = m.T

    cover_marked = []
    for m in space.marked:
        cover_marked.append(MarkedPoint(m.index, f"{m.label}+0", m.isotropy))
        if m.index not in branch:
            cover_marked.append(MarkedPoint(int(sigma[m.index]), f"{m.label}+1", m.isotropy))

    cover = SampledMetricSpace(
        points=space.points[base],
        dist=cover_dist,
        marked=cover_marked,
        seed=space.seed,
        sheet_swap=sigma,
    )
    validate_metric(cover)
    return cover


def double_branched_cover(
    space: SampledMetricSpace,
    branch: tuple[int, int],
    tol: float = 0.02,
    high_base: SampledMetricSpace | None = None,
    graphs: BaseGraphs | None = None,
) -> tuple[SampledMetricSpace, CoverCertificate]:
    """Double cover of the sampled quotient branched over two marked points.

    Returns (cover, certificate): the cover rebuilt at twice the requested
    resolution, and the CoverCertificate with the observed drift between the
    two resolutions.  Point i of the twice-resolution base lifts to cover
    rows i and cover.sheet_swap[i], one row for a branch point.  Raises
    ConvergenceError, carrying the failed certificate, when the drift
    exceeds 2 * tol, and ValueError when tol lies outside (0, 1) or the
    branch indices are not distinct marked points.  high_base, when given,
    is the twice-resolution base; graphs holds the neighbor graphs and
    azimuth fields of both bases, and one instance passed to the covers of
    several branch pairs over the same bases builds each of them once.
    """
    check_tol(tol)
    marked_indices = [m.index for m in space.marked]
    b1, b2 = int(branch[0]), int(branch[1])
    if b1 not in marked_indices or b2 not in marked_indices:
        raise ValueError("branch indices must be marked points")
    if b1 == b2 or space.dist[b1, b2] <= 1e-9:
        raise ValueError("branch points coincide")

    graphs = BaseGraphs() if graphs is None else graphs
    low_cover = _build_cover(space, (b1, b2), graphs)

    if high_base is None:
        high_base = regenerate(space, 2 * space.spec.samples)
    if [m.label for m in high_base.marked] != [m.label for m in space.marked]:
        raise RuntimeError("marked loci differ between resolutions")
    pos1 = marked_indices.index(b1)
    pos2 = marked_indices.index(b2)
    branch_high = (high_base.marked[pos1].index, high_base.marked[pos2].index)
    high_cover = _build_cover(high_base, branch_high, graphs)

    certificate = CoverCertificate(
        samples_low=space.spec.samples,
        samples_high=high_base.spec.samples,
        diameter_low=low_cover.diameter(),
        diameter_high=high_cover.diameter(),
        xt3_low=extent(low_cover, 3).value,
        xt3_high=extent(high_cover, 3).value,
        tol=tol,
    )
    if not certificate.passed:
        raise ConvergenceError(certificate)
    return high_cover, certificate

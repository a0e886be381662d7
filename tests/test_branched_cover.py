"""Tests for the double branched cover construction.

The binary dihedral quotient has three cone points; its double cover
branched over the two order-2 points is a curvature-4 football whose
third extent is exactly pi/3, and the diagonal-action quotient (a round
2-sphere of radius 1/2) covers itself branched over an antipodal pair,
exercising the waypoint-routed cut.  Both truths are independent of the
sampling resolution, which makes them sharp oracles for the gluing: any
sheet-assignment error shows up as a shortcut between the sheets long
before it moves a certified statistic.
"""

from math import pi

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from x4circle.extent_lab import (
    ConvergenceError,
    IsometricActionSpec,
    double_branched_cover,
    extent,
    gamma_binary_dihedral,
    regenerate,
    sample_quotient,
)
from x4circle.extent_lab import cover as cover_module
from x4circle.extent_lab.cover import (
    K_NEIGHBORS,
    RADIUS_FACTOR,
    BaseGraphs,
    _build_cover,
    _cut_crossings,
    _knn_edges,
)

from oracles import sample_round_two_sphere


@pytest.fixture(scope="module")
def dihedral_space():
    return sample_quotient(
        IsometricActionSpec(
            weights=(1, 1), gamma=gamma_binary_dihedral(3), samples=300, seed=42
        )
    )


@pytest.fixture(scope="module")
def dihedral_branch(dihedral_space):
    marks = {m.label: m.index for m in dihedral_space.marked}
    return marks["singular:0"], marks["singular:1"]


def node_map(cover, n):
    """(n, 2) array of the cover rows of (base index, sheet): sheet 0
    keeps the base index, sheet 1 is its image under the sheet swap."""
    return np.column_stack([np.arange(n), cover.sheet_swap[:n]])


@pytest.fixture(scope="module")
def dihedral_low_cover(dihedral_space, dihedral_branch):
    cover = _build_cover(dihedral_space, dihedral_branch, BaseGraphs())
    return cover, node_map(cover, dihedral_space.size)


@pytest.fixture(scope="module")
def hopf_space():
    return sample_quotient(IsometricActionSpec(weights=(1, 1), samples=250, seed=7))


@pytest.fixture(scope="module")
def football_space():
    # general weights: distances from the engine's grid solver
    return sample_quotient(IsometricActionSpec(weights=(2, 3), samples=100, seed=3))


@pytest.fixture(scope="module")
def hopf_high_base(hopf_space):
    return regenerate(hopf_space, 500)


@pytest.fixture(scope="module")
def hopf_antipodal_branch(hopf_space):
    marks = {m.label: m.index for m in hopf_space.marked}
    return marks["z2=0"], marks["z1=0"]


@pytest.fixture(scope="module")
def hopf_antipodal_cover(hopf_space, hopf_antipodal_branch, hopf_high_base):
    return double_branched_cover(
        hopf_space, hopf_antipodal_branch, tol=0.02, high_base=hopf_high_base
    )


def knn_oracle(dist: np.ndarray, k: int = K_NEIGHBORS) -> np.ndarray:
    """Neighbor graph built one row at a time: each node's k + 1 nearest
    (itself included) plus every pair within RADIUS_FACTOR times the
    median k-th neighbor distance, as sorted pairs u < v."""
    n = len(dist)
    pairs = set()
    kth = []
    for u in range(n):
        order = np.argsort(dist[u])
        kth.append(dist[u, order[k]])
        pairs.update((min(u, v), max(u, v)) for v in order[: k + 1] if v != u)
    radius = RADIUS_FACTOR * float(np.median(kth))
    for u in range(n):
        pairs.update((u, v) for v in range(u + 1, n) if dist[u, v] <= radius)
    return np.array(sorted(pairs))


def sphere_distances(samples: int, seed: int, squeeze: float) -> np.ndarray:
    """Great-circle distances of random points on S^2, crowded toward the
    north pole by mapping the polar angle t to pi * (t / pi) ** squeeze.
    Uneven density leaves sparse nodes that only their k nearest reach."""
    pts = sample_round_two_sphere(samples, seed=seed).points[:, :3]
    polar = pi * (np.arccos(np.clip(pts[:, 2], -1.0, 1.0)) / pi) ** squeeze
    azimuth = np.arctan2(pts[:, 1], pts[:, 0])
    xyz = np.column_stack(
        [np.sin(polar) * np.cos(azimuth), np.sin(polar) * np.sin(azimuth), np.cos(polar)]
    )
    gram = xyz @ xyz.T
    dist = np.arccos(np.clip((gram + gram.T) / 2.0, -1.0, 1.0))
    np.fill_diagonal(dist, 0.0)
    return dist


class TestNeighborGraph:
    @given(
        seed=st.integers(0, 2**32 - 1),
        samples=st.integers(50, 200),
        squeeze=st.sampled_from([1.0, 2.0, 4.0]),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_row_by_row_oracle(self, seed, samples, squeeze):
        dist = sphere_distances(samples, seed, squeeze)
        ordered = np.sort(dist, axis=1)
        # the k + 1 nearest are unique only without a tie at the k-th place
        assume(np.all(ordered[:, K_NEIGHBORS] < ordered[:, K_NEIGHBORS + 1]))
        edges = _knn_edges(dist)
        assert edges.ndim == 2 and edges.shape[1] == 2
        assert np.all(edges[:, 0] < edges[:, 1])
        assert len(np.unique(edges, axis=0)) == len(edges)
        assert np.array_equal(edges, knn_oracle(dist))


def cover_graph_oracle(space, branch) -> dict:
    """Cover edges built one at a time, as {frozenset of cover rows: weight}.

    Sheet 0 keeps the base rows, sheet 1 follows in base order, and the
    branch points stay single; an edge switches sheets when it crosses the
    cut, and each branch point is joined to every other node by its exact
    base distance."""
    d, n = space.dist, space.size
    rows = list(range(n)) + [u for u in range(n) if u not in branch]
    lift = {(u, int(row >= n)): row for row, u in enumerate(rows)}
    lift.update({(b, 1): b for b in branch})
    plain = [(u, v) for u, v in _knn_edges(d) if u not in branch and v not in branch]
    eu = np.array([u for u, _ in plain])
    ev = np.array([v for _, v in plain])
    edges = {}
    for (u, v), crosses in zip(plain, _cut_crossings(space, branch, eu, ev, BaseGraphs())):
        for sheet in (0, 1):
            edges[frozenset((lift[u, sheet], lift[v, sheet ^ int(crosses)]))] = d[u, v]
    for b in branch:
        for x in range(n):
            if x != b:
                for sheet in (0, 1):
                    edges[frozenset((b, lift[x, sheet]))] = d[b, x]
    return edges


class TestCoverGraph:
    @pytest.mark.parametrize("fixture, labels", [
        ("dihedral_space", ("singular:0", "singular:1")),
        ("hopf_space", ("z2=0", "z1=0")),  # antipodal: the cut uses a waypoint
    ])
    def test_matches_edge_by_edge_oracle(self, request, monkeypatch, fixture, labels):
        space = request.getfixturevalue(fixture)
        marks = {m.label: m.index for m in space.marked}
        branch = (marks[labels[0]], marks[labels[1]])
        graphs = []

        def recording_dijkstra(csgraph, **kwargs):
            graphs.append(csgraph)
            return dijkstra(csgraph, **kwargs)

        dijkstra = cover_module.dijkstra
        monkeypatch.setattr(cover_module, "dijkstra", recording_dijkstra)
        _build_cover(space, branch, BaseGraphs())
        expected = cover_graph_oracle(space, branch)

        (graph,) = graphs
        assert graph.shape == (2 * space.size - 2,) * 2
        # every edge is stored once in each direction, the b1-b2 edge included
        assert graph.nnz == 2 * len(expected)
        assert abs(graph - graph.T).max() == 0
        coo = graph.tocoo()
        found = {
            frozenset((int(i), int(j))): w
            for i, j, w in zip(coo.row, coo.col, coo.data)
            if i < j
        }
        assert found == expected

    @pytest.mark.parametrize("fixture, labels", [
        ("dihedral_space", ("singular:0", "singular:1")),
        ("hopf_space", ("z2=0", "z1=0")),  # antipodal: the cut uses a waypoint
        ("football_space", ("z2=0", "z1=0")),
    ])
    def test_sheet_swap_mirrors_all_sources(self, request, monkeypatch, fixture, labels):
        # the sheet swap is an automorphism of the weighted graph, so
        # Dijkstra from the base rows alone gives the all-sources matrix;
        # the graph stores both orientations of each edge, so the directed
        # search from those rows gives the undirected distances
        space = request.getfixturevalue(fixture)
        marks = {m.label: m.index for m in space.marked}
        branch = (marks[labels[0]], marks[labels[1]])
        calls = []

        def recording_dijkstra(csgraph, **kwargs):
            calls.append((csgraph, kwargs))
            return dijkstra(csgraph, **kwargs)

        dijkstra = cover_module.dijkstra
        monkeypatch.setattr(cover_module, "dijkstra", recording_dijkstra)
        cover = _build_cover(space, branch, BaseGraphs())
        lifts = node_map(cover, space.size)

        ((graph, kwargs),) = calls
        assert kwargs.get("directed", True)  # one scan per stored edge
        sources = kwargs["indices"]
        n = space.size
        assert len(sources) == n
        doubled = np.setdiff1d(np.arange(n), branch)
        sigma = np.concatenate([lifts[:, 1], doubled])
        assert np.array_equal(sigma[sigma], np.arange(2 * n - 2))
        assert (graph[sigma][:, sigma] != graph).nnz == 0
        assert np.array_equal(cover.sheet_swap, sigma)

        full = dijkstra(graph, directed=False)
        full = np.minimum(full, full.T)
        np.fill_diagonal(full, 0.0)
        assert np.array_equal(cover.dist, full)


    @pytest.mark.parametrize("fixture, labels", [
        ("dihedral_space", ("singular:0", "singular:1")),
        ("football_space", ("z2=0", "z1=0")),
    ])
    def test_stars_reach_every_lift_with_zero_diagonal(self, request, monkeypatch, fixture, labels):
        # every doubled node has a star edge to both branch points, and
        # Dijkstra leaves exact zeros at its sources; validate_metric is
        # bypassed, so this reads the matrix as _build_cover assembles it
        space = request.getfixturevalue(fixture)
        marks = {m.label: m.index for m in space.marked}
        monkeypatch.setattr(cover_module, "validate_metric", lambda space: None)
        cover = _build_cover(space, (marks[labels[0]], marks[labels[1]]), BaseGraphs())
        assert np.all(np.isfinite(cover.dist))
        assert np.all(np.diag(cover.dist) == 0.0)


class TestSheetGluing:
    def test_cover_shape(self, dihedral_space, dihedral_branch, dihedral_low_cover):
        cover, node_map = dihedral_low_cover
        n = dihedral_space.size
        assert cover.size == 2 * n - 2
        b1, b2 = dihedral_branch
        assert node_map[b1, 0] == node_map[b1, 1]
        assert node_map[b2, 0] == node_map[b2, 1]

    def test_only_quotients_regenerate(self, dihedral_low_cover):
        cover, _ = dihedral_low_cover
        # only a quotient carries the action spec that resampling needs
        assert cover.spec is None
        with pytest.raises(ValueError, match="without an action spec"):
            regenerate(cover, 600)
        with pytest.raises(ValueError, match="without an action spec"):
            regenerate(sample_round_two_sphere(60, seed=1), 120)

    def test_branch_marks_stay_single(self, dihedral_low_cover):
        cover, _ = dihedral_low_cover
        labels = [m.label for m in cover.marked]
        assert "singular:0+0" in labels and "singular:0+1" not in labels
        assert "singular:1+0" in labels and "singular:1+1" not in labels
        assert "z2=0+0" in labels and "z2=0+1" in labels

    def test_no_wormholes(self, dihedral_space, dihedral_branch, dihedral_low_cover):
        # a path between the two lifts of any point must pass the branch
        # locus, so its length is at least twice the distance to that locus
        cover, node_map = dihedral_low_cover
        b1, b2 = dihedral_branch
        d = dihedral_space.dist
        to_branch = np.minimum(d[:, b1], d[:, b2])
        sheet_gap = cover.dist[node_map[:, 0], node_map[:, 1]]
        doubled = np.ones(dihedral_space.size, dtype=bool)
        doubled[[b1, b2]] = False
        slack = 0.06
        assert np.all(sheet_gap[doubled] >= 2.0 * to_branch[doubled] - slack)

    def test_projection_is_one_lipschitz(
        self, dihedral_space, dihedral_low_cover
    ):
        # cover edges carry exact base lengths, so any cover path projects
        # to a base path of the same length
        cover, node_map = dihedral_low_cover
        d = dihedral_space.dist
        idx = np.arange(0, dihedral_space.size, 7)
        for s in (0, 1):
            rows = node_map[idx, 0]
            cols = node_map[idx, s]
            assert np.all(cover.dist[np.ix_(rows, cols)] >= d[np.ix_(idx, idx)] - 1e-9)

    def test_sheets_are_isometric(self, dihedral_space, dihedral_low_cover):
        cover, node_map = dihedral_low_cover
        idx = np.arange(0, dihedral_space.size, 5)
        top = cover.dist[np.ix_(node_map[idx, 0], node_map[idx, 0])]
        bottom = cover.dist[np.ix_(node_map[idx, 1], node_map[idx, 1])]
        assert np.allclose(top, bottom, atol=1e-9)

    def test_close_pairs_have_a_short_lift(self, dihedral_space, dihedral_low_cover):
        cover, node_map = dihedral_low_cover
        d = dihedral_space.dist
        rng = np.random.default_rng(0)
        count = 0
        for u in rng.integers(0, dihedral_space.size, 300):
            v = int(np.argsort(d[u])[5])
            same = cover.dist[node_map[u, 0], node_map[v, 0]]
            cross = cover.dist[node_map[u, 0], node_map[v, 1]]
            assert min(same, cross) <= d[u, v] + 0.03
            count += 1
        assert count == 300


class TestCertifiedCover:
    def test_football_cover(self, dihedral_space, dihedral_branch):
        cover, cert = double_branched_cover(dihedral_space, dihedral_branch, tol=0.02)
        assert cert.passed
        assert cert.samples_low == 300 and cert.samples_high == 600

        # lifted branch separation equals the base separation exactly
        labels = {m.label: m.index for m in cover.marked}
        lifted = cover.dist[labels["singular:0+0"], labels["singular:1+0"]]
        assert lifted == pytest.approx(pi / 6, abs=1e-6)

        # the cover is a curvature-4 football: xt3 = pi/3 on the nose
        assert extent(cover, 3).value == pytest.approx(pi / 3, abs=0.01)
        assert cover.diameter() <= pi / 2 + 0.01

    def test_antipodal_branch_waypoint_route(
        self, hopf_space, hopf_antipodal_branch, hopf_antipodal_cover
    ):
        branch = hopf_antipodal_branch
        assert hopf_space.dist[branch[0], branch[1]] == pytest.approx(pi / 2, abs=1e-9)

        cover, cert = hopf_antipodal_cover
        assert cert.passed
        labels = {m.label: m.index for m in cover.marked}
        lifted = cover.dist[labels["z2=0+0"], labels["z1=0+0"]]
        assert lifted == pytest.approx(pi / 2, abs=1e-6)
        # doubling the round hemisphere angles gives the 4pi-football
        assert extent(cover, 3).value == pytest.approx(pi / 2, abs=0.05)
        assert cover.diameter() == pytest.approx(pi / 2, abs=0.03)

    def test_certificate_describes_returned_cover(self, hopf_antipodal_cover, hopf_high_base):
        # the high-resolution statistics are those of the cover handed back
        cover, cert = hopf_antipodal_cover
        assert cert.xt3_high == extent(cover, 3).value
        assert cert.diameter_high == cover.diameter()
        assert cert.samples_high == hopf_high_base.spec.samples == 500
        assert cover.size == 2 * hopf_high_base.size - 2

    def test_star_riding_statistics_have_zero_drift(self, hopf_space, hopf_high_base):
        # both certified statistics pass through the branch locus on exact
        # edges, so the certificate is immune even to an absurd tolerance
        marks = {m.label: m.index for m in hopf_space.marked}
        branch = (marks["z2=0"], marks["z1=0"])
        _, cert = double_branched_cover(
            hopf_space, branch, tol=1e-12, high_base=hopf_high_base
        )
        assert cert.drift <= 2e-12

    def test_drift_gate_raises(self, hopf_space):
        # a high base drawn from a different stream has slightly different
        # extremal samples; a tiny tolerance must reject the pair
        marks = {m.label: m.index for m in hopf_space.marked}
        branch = (marks["z2=0"], marks["z1=0"])
        other = sample_quotient(IsometricActionSpec(weights=(1, 1), samples=500, seed=8))
        with pytest.raises(ConvergenceError) as exc:
            double_branched_cover(hopf_space, branch, tol=1e-12, high_base=other)
        cert = exc.value.certificate
        assert not cert.passed
        assert (cert.samples_low, cert.samples_high) == (250, 500)
        assert f"cover drift {cert.drift:.6f}" in str(exc.value)

    def test_certificate_gate(self):
        from x4circle.extent_lab import CoverCertificate

        cert = CoverCertificate(
            samples_low=300,
            samples_high=600,
            diameter_low=1.0,
            diameter_high=1.1,
            xt3_low=0.9,
            xt3_high=0.9,
            tol=0.02,
        )
        assert cert.drift == pytest.approx(0.1)
        assert not cert.passed
        exc = ConvergenceError(cert)
        assert exc.certificate is cert
        assert str(exc) == (
            "cover drift 0.100000 exceeds 2*tol = 0.040000 between resolutions 300 and 600"
        )

    def test_branch_validation(self, dihedral_space, dihedral_branch):
        with pytest.raises(ValueError):
            double_branched_cover(dihedral_space, (0, 1))  # unmarked samples
        b1, _ = dihedral_branch
        with pytest.raises(ValueError):
            double_branched_cover(dihedral_space, (b1, b1))

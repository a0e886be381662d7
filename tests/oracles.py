"""Independent oracles used by the test suite.

These deliberately avoid the library's own shortcuts: equivalence of
invariant tuples is decided by a word search over the move generators,
group orders come from Smith normal form of freshly assembled relation
matrices rather than closed formulas, the singular orbits come from a
smallest-singular-value scan polished by golden-section search rather than
from the eigenvectors of each group element's complex 2 x 2 matrix,
quaternion products are written in the complex coordinates
(z1, z2) <-> z1 + z2 j, the
exact three-point extent is a row-by-row brute force rather than a
branch-and-bound search over cells, the Smith diagonal comes from
determinantal divisors (gcds of minors) rather than row and column
reduction, and kernels come from Gauss-Jordan elimination over the
rationals rather than from integer arithmetic, the worst triangle
slack of the metric check's random triples comes from one draw of all of
them gathered by 2-D fancy indexing rather than from chunked draws read
through the flattened matrix, the full triangle scan takes every ordered
triple rather than each triangle inequality once, the scan of a space
without a sheet swap reads d one row pair at a time in its own order
rather than one pass per row of a copy in orbit order, the per-pass
scan takes each pass alone with two fresh temporaries rather than pairs
of passes in one reused work buffer, unit-weight distances come from
the Hopf map in np.longdouble, each rotation of S^2 read off the images of three probe points and each angle
an atan2 of cross and dot products, rather than from the quadratic-form
traces, BLAS cosine products and arccos, general-weight alignments come from
a 256-per-weight grid with golden-section polish of every grid-local
maximum, evaluated in complex exponentials, rather than from a coarse grid,
a candidate margin and Newton steps, unit-weight distance matrices keep
each pair's winner by masked writes rather than a running maximum, the
general-weight grid scan builds four full-size masks per block and one
2-D nonzero rather than one threshold pass whose few cells are tested
alone, the heuristic extent runs each restart's ascent alone rather than
all restarts in one sweep, the
group checks on gamma run one element or pair at a time rather than
batched, and the stabilizing pairs (gamma, theta) of a point are counted
one gamma and one theta at a time by circle matrices, and the action's
kernel as the fewest of them at three generic points, rather than read
off the rotations gbar, the repeated eigenvalues of each gamma, or the
turn of each diagonal gamma.  The golden-section search is this module's own, so no oracle
shares a solver with the code it checks.  The unit round 2-sphere, whose distances are plain great-circle
angles, is a space with known extents that no action spec describes.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm, pi, sqrt, tau

import numpy as np

from x4circle.extent_lab.actions import (
    GROUP_TOL,
    MAX_GROUP_ORDER,
    ORTHOGONALITY_TOL,
    circle_generator,
    rotation_block,
)
from x4circle.extent_lab.engine import CANDIDATE_MARGIN, ROW_CHUNK, DistanceEngine
from x4circle.extent_lab.spaces import (
    RANDOM_TRIPLES,
    SampledMetricSpace,
    validate_metric,
)
from x4circle.invariants import InvariantTuple


def circle_matrix(p: int, q: int, theta: float) -> np.ndarray:
    """R(theta), the action of e^{i theta}: block rotations by p*theta and q*theta."""
    out = np.zeros((4, 4))
    out[:2, :2] = rotation_block(p * theta)
    out[2:, 2:] = rotation_block(q * theta)
    return out


# largest sigma_min of R(theta) gamma - I at a polished root of `svd_theta_roots`
ROOT_TOL = 1e-7


# The three equivalence moves of invariant tuples, on entry tuples


def rotate(entries: tuple) -> tuple:
    """(t1, t2, ..., tn) -> (t2, ..., tn, t1)."""
    return entries[1:] + entries[:1]


def reverse(entries: tuple) -> tuple:
    """(t1, ..., tn) -> (-tn, ..., -t1)."""
    return tuple(-x for x in reversed(entries))


def translate(entries: tuple, k: int) -> tuple:
    """(t1, ..., tn) -> (t1 + k, ..., tn + k) for an integer k."""
    return tuple(x + k for x in entries)


def _abs_bound(t: InvariantTuple) -> Fraction:
    return max(abs(e) for e in t.entries)


def bfs_equivalent(a: InvariantTuple, b: InvariantTuple) -> bool:
    """Breadth-first word search over {rotation, reversal, translation +-1}.

    Entries along any useful path stay within a bound derived from both
    tuples, so pruning to that bound keeps the search exact and finite.
    """
    if len(a) != len(b):
        return False
    bound = 2 * (_abs_bound(a) + _abs_bound(b)) + 2
    start = a.entries
    target = b.entries
    seen = {start}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        if cur == target:
            return True
        for nxt in (rotate(cur), reverse(cur), translate(cur, 1), translate(cur, -1)):
            if nxt in seen or max(abs(x) for x in nxt) > bound:
                continue
            seen.add(nxt)
            queue.append(nxt)
    return target in seen


def random_tuple(rng, n: int, max_den: int = 4, max_num: int = 4) -> InvariantTuple:
    entries = []
    for _ in range(n):
        den = rng.integers(1, max_den + 1)
        num = rng.integers(-max_num, max_num + 1)
        entries.append(Fraction(int(num), int(den)))
    return InvariantTuple(entries)


def random_move_image(rng, t: InvariantTuple) -> InvariantTuple:
    """Apply a random word of equivalence moves to t."""
    out = t.entries
    for _ in range(int(rng.integers(1, 8))):
        choice = rng.integers(0, 3)
        if choice == 0:
            out = rotate(out)
        elif choice == 1:
            out = reverse(out)
        else:
            out = translate(out, int(rng.integers(-3, 4)))
    return InvariantTuple(out)


_INVPHI = (sqrt(5.0) - 1.0) / 2.0


def golden_max(f, a, b, iters: int):
    """Golden-section maximization of f over every bracket [a[k], b[k]].

    f maps an array of abscissae to values elementwise.  Returns (value,
    arg) of the better point of the final golden pair.  Each step keeps
    the better interior point, so that value is the largest one f returned
    during the search, bit for bit.  It needs no derivative, so it serves
    -sigma_min, whose minima are kinks.
    """
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        keep_low = fc >= fd
        a = np.where(keep_low, a, c)
        b = np.where(keep_low, d, b)
        x_new = np.where(keep_low, b - _INVPHI * (b - a), a + _INVPHI * (b - a))
        f_new = f(x_new)
        c, d = np.where(keep_low, x_new, d), np.where(keep_low, c, x_new)
        fc, fd = np.where(keep_low, f_new, fd), np.where(keep_low, fc, f_new)
    keep_low = fc >= fd
    return np.where(keep_low, fc, fd), np.where(keep_low, c, d)


def svd_theta_roots(spec) -> list[np.ndarray]:
    """Fixed-locus representatives by a smallest-singular-value scan.

    Scans sigma_min(R(theta) gamma - I) with a 4x4 SVD at 2048 * max|w|
    values of theta for each gamma, polishes every valley with golden-section
    search on -sigma_min, and keeps the roots whose fixed set is a circle,
    in the order of spec.gamma, then of theta.  A gamma with a root where
    R(theta) gamma = I acts trivially: its other roots fix coordinate
    circles, and none of its roots is kept.
    """
    p, q = spec.weights
    max_w = max(abs(p), abs(q))
    k_grid = 2048 * max_w
    h = tau / k_grid
    eye = np.eye(4)

    def sigma_min(theta, gamma):
        rot = np.zeros((len(theta), 4, 4))
        rot[:, 0, 0] = rot[:, 1, 1] = np.cos(p * theta)
        rot[:, 1, 0] = np.sin(p * theta)
        rot[:, 0, 1] = -rot[:, 1, 0]
        rot[:, 2, 2] = rot[:, 3, 3] = np.cos(q * theta)
        rot[:, 3, 2] = np.sin(q * theta)
        rot[:, 2, 3] = -rot[:, 3, 2]
        return np.linalg.svd(rot @ gamma - eye, compute_uv=False)[:, -1]

    thetas = np.arange(k_grid) * h
    detect = 8.0 * max_w * pi / k_grid + 1e-9
    valleys = []
    for gamma in spec.gamma:
        sigma = sigma_min(thetas, gamma)
        valley = (sigma <= np.roll(sigma, 1)) & (sigma <= np.roll(sigma, -1))
        valleys.append(valley & (sigma < detect))
    owner, t_idx = np.nonzero(valleys)
    gammas = spec.gamma[owner]
    centers = thetas[t_idx]
    neg_sigma, roots = golden_max(
        lambda theta: -sigma_min(theta, gammas), centers - h, centers + h, 60
    )

    fixed = [circle_matrix(p, q, theta_star) @ gamma for theta_star, gamma in zip(roots, gammas)]
    kernel = {k for k, f in zip(owner, fixed) if np.max(np.abs(f - eye)) < 1e-6}
    reps = []
    for value, f, k in zip(neg_sigma, fixed, owner):
        if -value > ROOT_TOL or k in kernel:
            continue
        _, svals, vt = np.linalg.svd(f - eye)
        if svals[-2] > 1e-5:
            continue
        rep = vt[-1]
        lead = np.nonzero(np.abs(rep) > 1e-8)[0][0]
        if rep[lead] < 0:
            rep = -rep
        reps.append(rep / np.linalg.norm(rep))
    return reps


def stabilizer_count(spec, x: np.ndarray) -> int:
    """Number of pairs (gamma, theta) with R(theta) gamma x = x, within
    1e-6 on S^3: for each gamma, the thetas that turn the larger complex
    coordinate of gamma x back onto that of x, each tested by its circle
    matrix."""
    p, q = spec.weights
    x1 = complex(x[0], x[1])
    x2 = complex(x[2], x[3])
    count = 0
    for gamma in spec.gamma:
        w = gamma @ x
        w1 = complex(w[0], w[1])
        w2 = complex(w[2], w[3])
        if abs(x1) >= abs(x2):
            lead_x, lead_w, weight = x1, w1, p
        else:
            lead_x, lead_w, weight = x2, w2, q
        if abs(abs(lead_w) - abs(lead_x)) > 1e-6:
            continue
        base = (np.angle(lead_x) - np.angle(lead_w)) / weight
        for k in range(abs(weight)):
            theta = base + tau * k / weight
            image = circle_matrix(p, q, theta) @ w
            if np.max(np.abs(image - x)) < 1e-6:
                count += 1
    return count


_GENERIC_PROBES = np.array([
    [0.5377519909, -0.3616707624, 0.6612823052, 0.3678327414],
    [0.1739406507, 0.8325569561, -0.2881956200, 0.4401225868],
    [-0.6218804037, 0.2905338206, 0.5148500216, 0.5115842666],
])


def probe_kernel_count(spec) -> int:
    """Number of kernel elements of the action, as the fewest pairs
    (gamma, theta) with R(theta) gamma x = x over three generic points x:
    at a point with trivial isotropy only the kernel elements stabilize,
    each at one theta."""
    return min(
        stabilizer_count(spec, probe / np.linalg.norm(probe)) for probe in _GENERIC_PROBES
    )


def sample_round_two_sphere(samples: int, seed: int = 0) -> SampledMetricSpace:
    """Quasi-uniform samples of the unit round 2-sphere, embedded in R^4."""
    gauss = np.random.default_rng(seed).standard_normal((samples, 3))
    pts3 = gauss / np.linalg.norm(gauss, axis=1, keepdims=True)
    gram = pts3 @ pts3.T
    dist = np.arccos(np.clip((gram + gram.T) / 2.0, -1.0, 1.0))
    np.fill_diagonal(dist, 0.0)
    space = SampledMetricSpace(
        points=np.hstack([pts3, np.zeros((samples, 1))]), dist=dist, marked=[], seed=seed
    )
    validate_metric(space)
    return space


def sampled_triples(n: int, seed: int) -> np.ndarray:
    """The metric check's random triples on n points, in one draw."""
    rng = np.random.default_rng(seed ^ 0x7A11E)
    return rng.integers(0, n, size=(RANDOM_TRIPLES, 3))


def sampled_triangle_slack(d: np.ndarray, seed: int) -> float:
    """Worst d[i, j] - d[i, k] - d[k, j] over the sampled triples (i, j, k)."""
    idx = sampled_triples(len(d), seed)
    i, j, k = idx[:, 0], idx[:, 1], idx[:, 2]
    return float(np.max(d[i, j] - d[i, k] - d[k, j]))


def full_triangle_slack(d: np.ndarray) -> float:
    """Worst d[i, j] - d[i, k] - d[k, j] over every triple, by n passes over
    an n x n array."""
    return max(float((d[i][None, :] - d[i][:, None] - d).max()) for i in range(len(d)))


def row_scan_slack(d: np.ndarray) -> float:
    """Worst |d[k, j] - d[i, j]| - d[i, k] over i < k and j > i, one pair
    (i, k) at a time, of d in its own order: the complete triangle scan of
    a space without a sheet swap, read row by row with no permutation."""
    n = len(d)
    worst = -np.inf
    for i in range(n - 1):
        for k in range(i + 1, n):
            worst = max(worst, float(np.abs(d[k, i + 1 :] - d[i, i + 1 :]).max() - d[i, k]))
    return worst


def pass_scan_slack(d: np.ndarray, passes) -> float:
    """Worst |d[k, j] - d[i, j]| - d[i, k] over k, j > i in each pass i of
    passes: every pass alone on its own block, two fresh m x m temporaries
    a pass."""
    worst = -np.inf
    for i in passes:
        row = d[i, i + 1 :]
        slack = np.abs(d[i + 1 :, i + 1 :] - row).max(axis=1) - row
        worst = max(worst, float(slack.max()))
    return worst


def loop_validate_gamma(gammas: np.ndarray, p: int, q: int) -> None:
    """validate_gamma's checks and messages, one element or pair at a time."""
    if gammas.ndim != 3 or gammas.shape[1:] != (4, 4):
        raise ValueError("gamma must have shape (count, 4, 4)")
    if len(gammas) > MAX_GROUP_ORDER:
        raise ValueError(
            f"group order {len(gammas)} exceeds the limit of {MAX_GROUP_ORDER} elements"
        )
    if not np.all(np.isfinite(gammas)):
        raise ValueError("gamma entries must be finite")
    g = len(gammas)
    if g == 0:
        raise ValueError("gamma must contain at least the identity")
    eye = np.eye(4)
    for m in gammas:
        if np.max(np.abs(m.T @ m - eye)) > ORTHOGONALITY_TOL:
            raise ValueError("gamma element is not orthogonal to 1e-12")
        if abs(np.linalg.det(m) - 1.0) > GROUP_TOL:
            raise ValueError("gamma element must preserve orientation (det +1)")
    if not any(np.max(np.abs(m - eye)) <= GROUP_TOL for m in gammas):
        raise ValueError("gamma must contain the identity")
    for i in range(g):
        for j in range(i + 1, g):
            if np.max(np.abs(gammas[i] - gammas[j])) <= GROUP_TOL:
                raise ValueError("gamma contains duplicate elements")
    for i in range(g):
        prod = gammas[i] @ gammas
        for j in range(g):
            gap = np.min(np.max(np.abs(gammas - prod[j]), axis=(1, 2)))
            if gap > GROUP_TOL:
                raise ValueError("gamma is not closed under composition")
    j_gen = circle_generator(p, q)
    for m in gammas:
        if np.max(np.abs(m @ j_gen @ m.T - j_gen)) > GROUP_TOL:
            raise ValueError(
                "gamma element does not commute with the circle action "
                "(gamma J gamma^T must be J)"
            )


def golden_grid_alignments(weights, gammas, pts, iters: int = 48) -> np.ndarray:
    """Best <x, R(theta) gamma y> over gamma and theta for every ordered pair
    (x, y) of pts, as an (n, n) array.

    f(theta) = Re(A e^{i p theta} + B e^{i q theta}) is scanned on 256 *
    max(|p|, |q|) points, and every grid-local maximum is polished by iters
    golden-section steps over its two neighbouring cells, with no margin
    pruning.  Each value is the larger of the polished and grid maxima.
    """
    p, q = weights
    n = len(pts)
    m_grid = 256 * max(abs(p), abs(q))
    h = tau / m_grid
    thetas = np.arange(m_grid) * h
    z1, z2 = _complex_pair(pts.T)
    best = np.full(n * n, -np.inf)
    for gamma in gammas:
        w1, w2 = _complex_pair(np.asarray(gamma) @ pts.T)
        a = np.outer(z1.conj(), w1).reshape(-1)
        b = np.outer(z2.conj(), w2).reshape(-1)

        def f(theta, a, b):
            return (a * np.exp(1j * p * theta) + b * np.exp(1j * q * theta)).real

        grid = f(thetas[:, None], a, b)
        local = (grid >= np.roll(grid, 1, axis=0)) & (grid >= np.roll(grid, -1, axis=0))
        t_idx, pair = np.nonzero(local)
        centers = thetas[t_idx]
        polished, _ = golden_max(
            lambda theta: f(theta, a[pair], b[pair]), centers - h, centers + h, iters
        )
        np.maximum(best, grid.max(axis=0), out=best)
        np.maximum.at(best, pair, polished)
    return best.reshape(n, n)


def winner_path_distance_matrix(weights, gammas, points) -> np.ndarray:
    """A unit-weight distance matrix as the engine built it when every pair
    went through the winner bookkeeping of `align`.

    Rows are chunked and pairs listed exactly as in
    `DistanceEngine.distance_matrix`, so every complex product sees the
    same operands at the same position.  Each gamma's |S| then replaces the
    pair's best only where it is strictly larger, by a masked write; the
    winning gamma and theta, which a matrix never reads, are not kept.
    """
    p, q = weights
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    u1, u2 = pts[:, 0] + 1j * pts[:, 1], pts[:, 2] + 1j * pts[:, 3]
    moved = np.einsum("gab,jb->gja", np.asarray(gammas, dtype=float), pts)
    v1, v2 = moved[..., 0] + 1j * moved[..., 1], moved[..., 2] + 1j * moved[..., 3]
    out = np.zeros((n, n))
    for r0 in range(0, n, ROW_CHUNK):
        rows, cols = np.nonzero(np.triu(np.ones((min(ROW_CHUNK, n - r0), n), dtype=bool), r0 + 1))
        rows += r0
        a1, a2 = u1[rows].conj(), u2[rows].conj()
        win_val = np.full(len(cols), -np.inf)
        for gi in range(len(v1)):
            av = np.multiply(a1, v1[gi].take(cols))
            bv = np.multiply(a2, v2[gi].take(cols))
            value = np.abs((av if p == 1 else av.conj()) + (bv if q == 1 else bv.conj()))
            wins = value > win_val
            win_val[wins] = value[wins]
        out[rows, cols] = out[cols, rows] = np.arccos(np.clip(win_val, -1.0, 1.0))
    return out


def hopf_long(weights, points) -> np.ndarray:
    """The Hopf map (|z1|^2 - |z2|^2, 2 Re z1 conj(z2), 2 Im z1 conj(z2)) of
    each point in np.longdouble, from its complex coordinates, with z2
    conjugated when the weights have opposite signs: shape (n, 3)."""
    x = np.asarray(points, dtype=np.longdouble)
    z1 = x[:, 0] + 1j * x[:, 1]
    z2 = x[:, 2] + 1j * x[:, 3]
    if weights[0] == -weights[1]:
        z2 = z2.conj()
    cross = 2 * z1 * z2.conj()
    return np.stack([(z1 * z1.conj()).real - (z2 * z2.conj()).real, cross.real, cross.imag], axis=1)


def hopf_rotations(weights, gammas) -> np.ndarray:
    """The distinct maps gbar with h(gamma y) = gbar h(y), in np.longdouble
    and in the order of gammas: column k of gbar is h(gamma s_k) for a
    point s_k with h(s_k) = e_k, and images within GROUP_TOL are one."""
    sign = -1.0 if weights[0] == -weights[1] else 1.0
    # z = (1, 0), (1, 1)/sqrt 2 and (1, -i)/sqrt 2, z2 conjugated for sign -1
    probes = np.array([[1.0, 0, 0, 0], [1.0, 0, 1.0, 0], [1.0, 0, 0, -sign]])
    probes /= np.linalg.norm(probes, axis=1, keepdims=True)
    kept: list[np.ndarray] = []
    for gamma in np.asarray(gammas, dtype=np.longdouble):
        image = hopf_long(weights, probes.astype(np.longdouble) @ gamma.T).T
        if all(np.max(np.abs(image - other)) > GROUP_TOL for other in kept):
            kept.append(image)
    return np.array(kept)


def hopf_distance_matrix(weights, gammas, points) -> np.ndarray:
    """Unit-weight quotient distances as 1/2 the least angle between h(x)
    and gbar h(y) over `hopf_rotations`, each angle
    atan2(|u x v|, u . v) in np.longdouble: shape (n, n)."""
    u = hopf_long(weights, points)
    best = np.full((len(u), len(u)), np.inf, dtype=np.longdouble)
    for rotation in hopf_rotations(weights, gammas):
        v = u @ rotation.T
        sine = np.linalg.norm(np.cross(u[:, None, :], v[None, :, :]), axis=2)
        np.minimum(best, np.arctan2(sine, u @ v.T), out=best)
    return best / 2


class MaskScanEngine(DistanceEngine):
    """The engine with its general-weight grid scan in the masked form.

    Each 64-cell block is a fresh (66, pairs) product, and its candidates
    are the nonzero cells of the three full-size masks "at least the left
    neighbour", "at least the right neighbour" and "within CANDIDATE_MARGIN
    of the running peak", in row-major order.  Only the
    scan is replaced; the pick of the winners (`_pick_alignments`) is the
    engine's.
    """

    def _grid_candidates(self, a1, a2, v1, v2, cols):
        flat = len(cols)
        m_grid = self.grid_size
        theta = np.arange(m_grid) * self.step
        trig = np.array([np.cos(self.p * theta), np.sin(self.p * theta),
                         np.cos(self.q * theta), np.sin(self.q * theta)])
        best = np.full(flat, -np.inf)
        scans = []
        for gi in range(len(self.gammas)):
            av = np.multiply(a1, v1[gi].take(cols))
            bv = np.multiply(a2, v2[gi].take(cols))
            g_rows = np.stack([av.real, -av.imag, bv.real, -bv.imag])
            cand_t, cand_f, cand_v = [], [], []
            for t0 in range(0, m_grid, 64):
                idx = np.arange(t0 - 1, t0 + 65) % m_grid
                f_block = trig[:, idx].T @ g_rows
                mid = f_block[1:-1]
                np.maximum(best, mid.max(axis=0), out=best)
                local = (
                    (mid >= f_block[:-2])
                    & (mid >= f_block[2:])
                    & (mid >= best - CANDIDATE_MARGIN)
                )
                tt, ff = np.nonzero(local)
                cand_t.append(tt + t0)
                cand_f.append(ff)
                cand_v.append(mid[tt, ff])
            f_idx = np.concatenate(cand_f)
            scans.append((np.concatenate(cand_t), f_idx, np.concatenate(cand_v), g_rows[:, f_idx]))
        return best, scans


def serial_heuristic_extent(d: np.ndarray, q: int, seed: int, restarts: int):
    """(value, witness) of the heuristic xt_q, one restart at a time.

    Each restart draws q start indices from the generator seeded with
    seed + 7919 q and exchanges one position at a time for the first
    maximiser of d[:, others].sum(axis=1), when that strictly beats the
    current index, until a sweep over the positions changes nothing.  A
    later restart wins only when its mean pairwise distance exceeds the
    best by more than 1e-15; the witness is the winner sorted, and the
    value its mean pairwise distance.
    """
    rng = np.random.default_rng(seed + 7919 * q)

    def mean(idx):
        pairs = list(combinations(idx, 2))
        return sum((d[a, b] for a, b in pairs), 0.0) / len(pairs) if pairs else 0.0

    best_val, best_idx = -1.0, None
    for _ in range(restarts):
        idx = rng.integers(0, len(d), size=q)
        improved = True
        while improved:
            improved = False
            for pos in range(q):
                score = d[:, np.delete(idx, pos)].sum(axis=1)
                top = int(np.argmax(score))
                if score[top] > score[idx[pos]]:
                    idx[pos] = top
                    improved = True
        val = mean(idx)
        if val > best_val + 1e-15:
            best_val, best_idx = val, idx
    witness = tuple(sorted(int(v) for v in best_idx))
    return float(mean(witness)), witness


def _complex_pair(x):
    """(z1, z2) of a point x, or of every column when x is 4 x n."""
    return x[0] + 1j * x[1], x[2] + 1j * x[3]


def quaternion_product(x, y) -> np.ndarray:
    """xy for x = z1 + z2 j, y = w1 + w2 j, using j w = conj(w) j."""
    z1, z2 = _complex_pair(x)
    w1, w2 = _complex_pair(y)
    u1 = z1 * w1 - z2 * w2.conjugate()
    u2 = z1 * w2 + z2 * w1.conjugate()
    return np.array([u1.real, u1.imag, u2.real, u2.imag])


def two_sided_matrix(a, b) -> np.ndarray:
    """The 4x4 matrix of x -> a x conj(b), column by column."""
    b_bar = np.array([b[0], -b[1], -b[2], -b[3]])
    columns = [quaternion_product(quaternion_product(a, e), b_bar) for e in np.eye(4)]
    return np.column_stack(columns)


def brute_force_extent_three(d: np.ndarray) -> tuple[float, tuple[int, int, int]]:
    """Exact xt_3 of a distance matrix by n passes over an n x n array.

    Row i averages ((d[i, j] + d[i, k]) + d[j, k]) / 3 over j, k >= i and
    takes the first maximum in row-major order, and a later row wins only
    when strictly larger: the witness is the lexicographically smallest
    sorted triple of the largest value.
    """
    n = len(d)
    best_val = -1.0
    best = (0, 0, 0)
    for i in range(n):
        row = d[i]
        avg = (row[:, None] + row[None, :] + d) / 3.0
        sub = avg[i:, i:]
        flat = int(np.argmax(np.triu(sub)))
        j_off, k_off = divmod(flat, len(sub))
        val = float(sub[j_off, k_off])
        if val > best_val:
            best_val = val
            best = (i, i + j_off, i + k_off)
    return best_val, best


def det(a: list[list[int]]) -> int:
    """Determinant by fraction-free Gaussian elimination (Bareiss)."""
    n = len(a)
    if n == 0:
        return 1
    m = [row[:] for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def determinantal_divisor_diagonal(a: list[list[int]]) -> tuple[int, ...]:
    """Smith diagonal d_k = D_k / D_(k-1), where D_k is the gcd of all k x k
    minors (D_0 = 1); d_k = 0 once D_k vanishes."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    diag = []
    prev = 1
    for k in range(1, min(rows, cols) + 1):
        divisor = 0
        for r in combinations(range(rows), k):
            for c in combinations(range(cols), k):
                divisor = gcd(divisor, det([[a[i][j] for j in c] for i in r]))
        diag.append(divisor // prev if divisor else 0)
        prev = divisor
    return tuple(diag)


def rational_nullspace(a: list[list[int]]) -> list[list[int]]:
    """Basis of {x : A x = 0} by Gauss-Jordan elimination over the rationals.

    One vector per non-pivot column, scaled to a primitive integer vector.
    """
    m = [[Fraction(x) for x in row] for row in a]
    cols = len(m[0]) if m else 0
    pivots: list[int] = []
    for c in range(cols):
        r = len(pivots)
        p = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
    basis = []
    for free in (c for c in range(cols) if c not in pivots):
        vec = [Fraction(0)] * cols
        vec[free] = Fraction(1)
        for i, c in enumerate(pivots):
            vec[c] = -m[i][free]
        scale = lcm(*(x.denominator for x in vec))
        ints = [int(x * scale) for x in vec]
        g = gcd(*ints)
        basis.append([x // g for x in ints])
    return basis

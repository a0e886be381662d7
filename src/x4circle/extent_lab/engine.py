"""Orbit-distance engine for weighted circle actions on S^3/Gamma.

The quotient distance between samples x, y is

    d([x], [y]) = min over gamma, theta of arccos <x, R(theta) gamma y>,

so for each gamma we maximize f(theta) = Re(A e^{i p theta} + B e^{i q theta})
with A = conj(u1) v1, B = conj(u2) v2 built from the complex coordinates of x
and gamma y.

For unit weights (p, q in {1, -1}) the circle acts by one complex scalar,
up to conjugating z2 when p = -q (the frame c = diag(1, 1, 1, -1) there,
c = I otherwise), and S^3/S^1 is the round sphere S^2(1/2).  The Hopf map
h(z) = (|z1|^2 - |z2|^2, 2 Re z1 conj(z2), 2 Im z1 conj(z2)) of c x sends
each orbit to a unit 3-vector, and every gamma, which normalizes the
circle, acts on those vectors by the orthogonal map gbar with
gbar_kl = tr(gamma^T H_k gamma H_l) / 4, where H_k is the symmetric form,
read off h by polarization, with x^T H_k x the k-th coordinate of h.
Elements with the same gbar (the kernel cosets, such as
-I = R(pi) beside I) give the same distances, so the rotations are kept
once each, within GROUP_TOL: the binary dihedral group D3* of order 12
has 6, and `first_elements` is the index in Gamma of each one's first
element.  The distance is

    d([x], [y]) = 1/2 arccos(max over gbar of h(x) . gbar h(y)),

one (rows x 3) @ (3 x columns) BLAS product per gbar and row chunk.
BLAS evaluates each entry of such a product in one order, whatever the
block shape or thread split, so an entry does not depend on the rows and
columns around it; a product with one row or one column takes a
matrix-vector path whose last bits differ, so none is formed.  h and
gbar h(y) are computed entry by entry for the same reason.  Within
NEAR_END of a cosine of +-1, where arccos loses digits, the distance is
the half-angle atan2(|u - w|, |u + w|) between u = h(x) and w = gbar h(y),
least over gbar, whose error does not grow as the distance nears 0.
`align` finds the aligned representative R(theta*) gamma* y on S^3, over
all of Gamma: with S = A' + B', where A' is A for p = 1 and conj(A) for
p = -1 (B' likewise from B and q), f(theta) = Re(S e^{i theta}) peaks at
|S| at theta* = -arg S, and gamma* is the first argmax of |S|.

For every other pair of weights the maximum is located on a
64 * max(|p|, |q|) point grid of step h and then polished by Newton steps.
Because f is a trigonometric polynomial of degree max(|p|, |q|) and
|A| + |B| <= 1, |f''| <= max(|p|, |q|)^2, so the grid peak of any
competing bump is within max_w^2 (h/2)^2 / 2 = pi^2/(2*64^2) < 1.3e-3 of its
true peak; refining every grid-local maximum within CANDIDATE_MARGIN = 5e-3
of the per-pair best therefore never misses the global optimum.  The grid
is scanned once: the same block products give the per-pair best and the
grid-local maxima near it.  Each 64-cell block is written into one
(66, pairs) buffer, the block with its two neighbouring cells, reused for
every block and gamma of a call.  One threshold pass into one bool buffer
marks the cells within CANDIDATE_MARGIN of the running peak, a few per
pair, and only those cells are tested against their neighbours.  Within
one gamma, an exact tie between a pair's polished candidates keeps the
last cell's.  As on the sphere path, a pair whose best cosine is within
NEAR_END of 1 is re-read from a chord: its distance is the angle
2 atan2(|x - y'|, |x + y'|) to the aligned representative
y' = R(theta*) gamma* y that `align` builds.

The polish, `DistanceEngine._refine` on `_taylor`, is a safeguarded Newton
iteration on f' in the bracket of the two neighbouring grid cells.
Each step shrinks the bracket by the sign of f', takes the Newton step
theta - f'/f'' when f'' < 0 and the step lands in the closed bracket,
and bisects otherwise.  A candidate stops once its
step is below 1e-13 or f' is exactly 0, and at most NEWTON_ITERS steps are
taken, so a degenerate maximum converges no worse than by bisection.  The
largest f evaluated is returned with its theta; the start cell is
evaluated, so the polish never falls below the grid value.

The grid solver takes a flat list of pairs, each a row point against a
column point.  Neither path is bit-symmetric in (x, y), so a distance
matrix takes each pair (i, j), i < j, with the lower index i as the row,
and mirrors it; the grid path aligns only the pairs it needs, and the
sphere path copies a known block over its products.  `align` pairs its
one point with every column.

All reductions are elementwise max/min or argmax over Gamma, so results
are bit-identical no matter how BLAS threads split the work.
"""

from __future__ import annotations

from math import pi

import numpy as np


GRID_PER_WEIGHT = 64
CANDIDATE_MARGIN = 5e-3
NEWTON_ITERS = 48  # cap: bisection alone reaches 1e-13 in about 40 steps
NEWTON_TOL = 1e-13  # radians
ROW_CHUNK = 64  # distance-matrix rows aligned per batch
# entrywise tolerance within which two elements are one: group validation
# and the rotations gbar read it
GROUP_TOL = 1e-9
# the singular-orbit tests, entry by entry: the identity rotation gbar and
# one Hopf image on another.  A turn q a - p b of 0 is tested within
# (|p| + |q|) SINGULAR_TOL, since it multiplies the error of a user matrix,
# validated only to GROUP_TOL, by up to |p| + |q|
SINGULAR_TOL = 1e-6
# cosines within this of +-1 are re-read from chords, at every weight;
# arccos is off by about 1e-16 / sqrt(2 NEAR_END) < 1e-14 elsewhere
NEAR_END = 1e-4


def first_of_each(rows: np.ndarray) -> np.ndarray:
    """Mask of the rows that no earlier row matches within GROUP_TOL, entry
    by entry: the one test of "the same element", for the rotations gbar
    and for duplicates in group validation.  Rows are compared ROW_CHUNK at
    a time against those up to the chunk's end, in one reused gap buffer."""
    n = len(rows)
    first = np.empty(n, dtype=bool)
    buffer = np.empty((min(ROW_CHUNK, n), n, rows.shape[1]))
    for r0 in range(0, n, ROW_CHUNK):
        r1 = min(r0 + ROW_CHUNK, n)
        gap = np.subtract(rows[r0:r1, None], rows[:r1], out=buffer[: r1 - r0, :r1])
        np.abs(gap, out=gap)
        # local row i is global row r0 + i: only the columns before it count
        close = np.tril(gap.max(axis=2) <= GROUP_TOL, r0 - 1)
        first[r0:r1] = ~close.any(axis=1)
    return first


def _within(thresh, t_idx, f_idx, values, *coefficients):
    """The grid candidates, in order, whose value reaches thresh of their
    pair; coefficient arrays hold one column per candidate."""
    keep = values >= thresh[f_idx]
    return (t_idx[keep], f_idx[keep], values[keep], *(c[:, keep] for c in coefficients))


class DistanceEngine:
    def __init__(self, weights: tuple[int, int], gammas: np.ndarray):
        self.p, self.q = int(weights[0]), int(weights[1])
        self.gammas = np.asarray(gammas, dtype=float)
        self.max_weight = max(abs(self.p), abs(self.q))
        self.grid_size = GRID_PER_WEIGHT * self.max_weight
        self.step = 2.0 * pi / self.grid_size
        theta = np.arange(self.grid_size) * self.step
        trig = np.empty((4, self.grid_size))
        trig[0] = np.cos(self.p * theta)
        trig[1] = np.sin(self.p * theta)
        trig[2] = np.cos(self.q * theta)
        trig[3] = np.sin(self.q * theta)
        # each 64-cell block with its two wrap-around neighbours, (66, 4)
        self.trig_blocks = [
            trig[:, np.arange(t0 - 1, t0 + 65) % self.grid_size].T
            for t0 in range(0, self.grid_size, 64)
        ]
        if self.max_weight == 1:
            # the symmetric H_k of h, shape (3, 4, 4), by polarization:
            # H_k[a, b] = (h_k(e_a + e_b) - h_k(e_a) - h_k(e_b)) / 2, exact
            # halves of small integers
            eye = np.eye(4)
            ones = self.hopf(eye)
            sums = self.hopf((eye[:, None] + eye).reshape(16, 4)).reshape(4, 4, 3)
            self.hopf_forms = forms = np.moveaxis(sums - ones[:, None] - ones, 2, 0) / 2
            # gamma^T H_k gamma, then its trace against each H_l / 4
            conjugated = np.swapaxes(self.gammas, 1, 2)[:, None] @ forms @ self.gammas[:, None]
            flat = conjugated.reshape(-1, 3, 16) @ forms.reshape(3, 16).T / 4
            # gbar of each distinct image, in the order of Gamma: (|Gamma bar|, 3, 3)
            first = first_of_each(flat.reshape(-1, 9))
            self.rotations, self.first_elements = flat[first], np.flatnonzero(first)
        else:
            # cosets = |Gamma| / |K|: a diagonal gamma = diag(e^{ia}, e^{ib}) turns the
            # longitude q arg z1 - p arg z2 by q a - p b; K is where that is 0 mod 2 pi
            e_a = self.gammas[:, 0, 0] + 1j * self.gammas[:, 1, 0]
            e_b = self.gammas[:, 2, 2] + 1j * self.gammas[:, 3, 2]
            turns = np.abs(np.angle(e_a**self.q * e_b.conj() ** self.p))
            kernel = turns <= (abs(self.p) + abs(self.q)) * SINGULAR_TOL
            self.cosets = len(self.gammas) // int(np.count_nonzero(kernel))

    # -- helpers ---------------------------------------------------------

    @staticmethod
    def _complex_parts(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        pts = np.asarray(points, dtype=float)
        return pts[..., 0] + 1j * pts[..., 1], pts[..., 2] + 1j * pts[..., 3]

    def hopf(self, points: np.ndarray) -> np.ndarray:
        """h(c x) of every point, shape (n, 3), entry by entry."""
        x0, x1, x2, x3 = np.asarray(points, dtype=float).T
        if self.p == -self.q:
            x3 = -x3
        return np.stack(
            [x0 * x0 + x1 * x1 - (x2 * x2 + x3 * x3), 2 * (x0 * x2 + x1 * x3),
             2 * (x1 * x2 - x0 * x3)],
            axis=1,
        )

    def _rotated(self, hopf: np.ndarray) -> np.ndarray:
        """gbar h of every row of hopf, for every rotation: (|Gamma bar|, 3, n),
        entry by entry in one order, so a column does not depend on the
        others."""
        h = hopf.T
        out = self.rotations[:, :, 0, None] * h[0]
        out += self.rotations[:, :, 1, None] * h[1]
        out += self.rotations[:, :, 2, None] * h[2]
        return out

    @staticmethod
    def _sphere_cosines(rows: np.ndarray, moved: np.ndarray) -> np.ndarray:
        """The largest h(x) . gbar h(y) over the rotations, for every row x of
        rows, (r, 3), against every column of moved, (|Gamma bar|, 3, m):
        one BLAS product per rotation.  r and m must be at least 2 (module
        docstring)."""
        best = rows @ moved[0]
        for image in moved[1:]:
            np.maximum(best, rows @ image, out=best)
        return best

    @staticmethod
    def _half_angles(best: np.ndarray, rows: np.ndarray, moved: np.ndarray) -> np.ndarray:
        """The distances 1/2 arccos(best) of `_sphere_cosines`' entries.

        arccos loses digits near +-1 (a rounding of the cosine moves the
        angle by about 1e-16 / sin), so an entry within NEAR_END of +-1 is
        the half-angle atan2(|u - w|, |u + w|) of u = h(x) to w = gbar h(y),
        least over the rotations.
        """
        dist = np.clip(best, -1.0, 1.0)
        np.arccos(dist, out=dist)
        dist *= 0.5
        k, j = np.nonzero(np.abs(best) > 1.0 - NEAR_END)
        u, w = rows[k].T, moved[:, :, j]
        minus, plus = u - w, u + w
        dist[k, j] = np.arctan2(
            np.sqrt(minus[:, 0] ** 2 + minus[:, 1] ** 2 + minus[:, 2] ** 2),
            np.sqrt(plus[:, 0] ** 2 + plus[:, 1] ** 2 + plus[:, 2] ** 2),
        ).min(axis=0)
        return dist

    def _transformed_parts(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # V[g, j] = complex coordinates of gamma_g applied to point j
        moved = np.einsum("gab,jb->gja", self.gammas, points)
        return self._complex_parts(moved)

    def _taylor(self, g0, g1, g2, g3, theta):
        """f = g0 cos(p t) + g1 sin(p t) + g2 cos(q t) + g3 sin(q t) at
        t = theta, with its first and second derivatives."""
        p, q = self.p, self.q
        cp, sp = np.cos(p * theta), np.sin(p * theta)
        cq, sq = np.cos(q * theta), np.sin(q * theta)
        f = g0 * cp + g1 * sp + g2 * cq + g3 * sq
        df = p * (g1 * cp - g0 * sp) + q * (g3 * cq - g2 * sq)
        d2f = -p * p * (g0 * cp + g1 * sp) - q * q * (g2 * cq + g3 * sq)
        return f, df, d2f

    def _refine(self, g0, g1, g2, g3, t_idx):
        """Safeguarded Newton maximization of each candidate's f, the
        `_taylor` of coefficients (g0[k], g1[k], g2[k], g3[k]), over the
        bracket of the two cells around grid cell t_idx[k]: (value, theta).

        Each candidate starts at its cell, and the largest value evaluated
        is returned with the theta where it was.  Only the candidates whose
        last step moved are evaluated again.
        """
        theta = t_idx * self.step
        lo, hi = theta - self.step, theta + self.step
        value = np.full(len(theta), -np.inf)
        arg = theta.copy()
        live = np.arange(len(theta))
        for _ in range(NEWTON_ITERS):
            t = theta[live]
            f, df, d2f = self._taylor(g0[live], g1[live], g2[live], g3[live], t)
            better = f > value[live]
            value[live[better]] = f[better]
            arg[live[better]] = t[better]
            # the maximum lies on the rising side of t
            t_lo = np.where(df > 0, t, lo[live])
            t_hi = np.where(df < 0, t, hi[live])
            lo[live], hi[live] = t_lo, t_hi
            concave = d2f < 0
            newton = t - np.divide(df, d2f, out=np.zeros_like(df), where=concave)
            # a closed bracket: once converged, the step may round onto an
            # end, and bisecting instead would throw the converged t away
            take = concave & (newton >= t_lo) & (newton <= t_hi)
            step_to = np.where(take, newton, 0.5 * (t_lo + t_hi))
            theta[live] = step_to
            live = live[(np.abs(step_to - t) >= NEWTON_TOL) & (df != 0)]
            if not len(live):
                break
        return value, arg

    def _gamma_products(self, a1, a2, v1, v2, cols):
        """(A, B) of f (module docstring) for every pair of a flat list, one
        gamma at a time: pair k is the row whose complex coordinates,
        conjugated, are a1[k], a2[k], against column cols[k]; v1, v2 hold
        the complex coordinates of gamma_g applied to every column, shape
        (|Gamma|, columns)."""
        for gi in range(len(self.gammas)):
            # np.multiply, not `*`: numpy reuses a large temporary right
            # operand as the output with the factors swapped, which moves
            # the last bit of the fused complex product
            yield np.multiply(a1, v1[gi].take(cols)), np.multiply(a2, v2[gi].take(cols))

    def _grid_alignments(self, a1, a2, v1, v2, cols):
        """Best alignment of every pair of `_gamma_products`' flat list, for
        any weights, by one grid scan and Newton polish: the maximal
        <x, R(theta) gamma y> with the winning gamma index and theta.

        The scan (`_grid_candidates`) gives the per-pair grid peak and each
        gamma's candidates; the final margin is applied after the last gamma.
        The winner is the best polished candidate; the value also admits the
        grid maximum, whose cell is always among the candidates.
        """
        best, scans = self._grid_candidates(a1, a2, v1, v2, cols)
        return self._pick_alignments(best, scans)

    def _grid_candidates(self, a1, a2, v1, v2, cols):
        """(per-pair grid peak, one candidate list per gamma) of the grid scan.

        Each product of a gamma's coefficients with a 64-cell block of the
        grid (plus its two wrap-around neighbours) raises the per-pair grid
        peak and yields the block's grid-local maxima within CANDIDATE_MARGIN
        of the peak so far.  The peak only grows, so those cover every
        candidate of the final margin.  A gamma's list holds the candidate
        cells, their pairs, grid values and coefficient columns.

        Whenever the held candidates, of every gamma so far, outnumber
        2 kept + pairs, kept being the count the last drop left, those
        below their pair's running peak minus CANDIDATE_MARGIN are dropped.
        The final margin would drop them too, and the rest keep their
        order, so `_refine` gets the same candidates.  At high weights,
        where each of a pair's early blocks can leave one, the scan so holds
        about twice the survivors rather than one per pair and block.
        """
        flat = len(cols)
        m_grid = self.grid_size
        best = np.full(flat, -np.inf)
        scans = []
        held = kept = 0
        # one block product and one threshold mask, reused by every block
        # and gamma
        f_block = np.empty((66, flat))
        above = np.empty((64, flat), dtype=bool)
        mid = f_block[1:-1]
        # the block's cells, and those one row above and below, flattened
        lower, centre, upper = (f_block[r : r + 64].reshape(-1) for r in range(3))

        for av, bv in self._gamma_products(a1, a2, v1, v2, cols):
            g_rows = np.stack([av.real, -av.imag, bv.real, -bv.imag])
            blocks = []
            for t0, trig_block in zip(range(0, m_grid, 64), self.trig_blocks):
                np.matmul(trig_block, g_rows, out=f_block)
                np.maximum(best, mid.max(axis=0), out=best)
                np.greater_equal(mid, best - CANDIDATE_MARGIN, out=above)
                # only the few cells near the peak are tested further
                k = np.flatnonzero(above)
                value = centre.take(k)
                tt, ff = np.divmod(k, flat)
                local = (value >= lower.take(k)) & (value >= upper.take(k))
                blocks.append((tt[local] + t0, ff[local], value[local]))
                held += len(blocks[-1][0])
                if held > 2 * kept + flat:
                    thresh = best - CANDIDATE_MARGIN
                    scans = [_within(thresh, *scan) for scan in scans]
                    blocks = [_within(thresh, *map(np.concatenate, zip(*blocks)))]
                    held = kept = sum(len(scan[0]) for scan in scans) + len(blocks[0][0])
            t_idx, f_idx, values = map(np.concatenate, zip(*blocks))
            scans.append((t_idx, f_idx, values, g_rows[:, f_idx]))
        return best, scans

    def _pick_alignments(self, best, scans):
        """(value, gamma index, theta) per pair from `_grid_candidates`' scan:
        the candidates within CANDIDATE_MARGIN of the final grid peak are
        polished, and the first gamma with the best polished value wins."""
        flat = len(best)
        thresh = best - CANDIDATE_MARGIN
        win_val = np.full(flat, -np.inf)
        win_gamma = np.zeros(flat, dtype=int)
        win_theta = np.zeros(flat)

        for gi, (t_idx, f_idx, grid_f, g_cand) in enumerate(scans):
            keep = grid_f >= thresh[f_idx]
            f_idx = f_idx[keep]
            if not len(f_idx):
                continue
            refined, theta = self._refine(*g_cand[:, keep], t_idx[keep])
            top = np.full(flat, -np.inf)
            np.maximum.at(top, f_idx, refined)
            # earlier gammas keep exact ties
            wins = (refined == top[f_idx]) & (refined > win_val[f_idx])
            won = f_idx[wins]
            win_val[won] = refined[wins]
            win_gamma[won] = gi
            win_theta[won] = theta[wins]

        np.maximum(best, win_val, out=best)
        return best, win_gamma, win_theta

    # -- distance matrix --------------------------------------------------

    def distance_matrix(self, points: np.ndarray, known=None) -> np.ndarray:
        """Symmetric quotient distance matrix over the given unit 4-vectors.

        known = (index, block) gives the distances among points[index],
        block[a, b] being that of points index[a] and index[b]; they are
        copied.  Each pair (i, j), i < j, is taken with its lower index i
        as the row and written to (i, j) and (j, i): the grid path aligns
        each such pair with i or j outside index once, the sphere path
        takes row chunks of at least two rows against every later column
        and copies the known block over them.  The orientation does not
        depend on what is known, so a block cut from the full matrix of
        these points gives back that matrix, bit for bit.
        """
        pts = np.asarray(points, dtype=float)
        n = len(pts)
        out = np.zeros((n, n))
        if self.max_weight == 1:
            hopf = self.hopf(pts)
            moved = self._rotated(hopf)
            # r0 <= n - 2: the last row has no later column, and every
            # chunk has two rows and two columns at least
            for r0 in range(0, n - 1, ROW_CHUNK):
                r1 = min(r0 + ROW_CHUNK, n)
                best = self._sphere_cosines(hopf[r0:r1], moved[:, :, r0:])
                block = self._half_angles(best, hopf[r0:r1], moved[:, :, r0:])
                out[r0:r1, r1:] = block[:, r1 - r0 :]
                out[r1:, r0:r1] = block[:, r1 - r0 :].T
                # the chunk's own square: its upper triangle, mirrored
                upper = np.triu(block[:, : r1 - r0], 1)
                out[r0:r1, r0:r1] = upper + upper.T
        else:
            # conjugated once here, so each chunk gathers its rows in one copy
            a1, a2 = (u.conj() for u in self._complex_parts(pts))
            v1, v2 = self._transformed_parts(pts)
            need = np.ones(n, dtype=bool)
            if known is not None:
                need[known[0]] = False
            for r0 in range(0, n, ROW_CHUNK):
                rows, cols = np.nonzero(np.triu(need[r0 : r0 + ROW_CHUNK, None] | need, r0 + 1))
                rows += r0
                best, gamma_idx, theta = self._grid_alignments(a1[rows], a2[rows], v1, v2, cols)
                dist = np.arccos(np.clip(best, -1.0, 1.0))
                near = np.flatnonzero(best > 1.0 - NEAR_END)
                if len(near):
                    moved = self._representatives(v1, v2, gamma_idx[near], theta[near], cols[near])
                    dist[near] = self._chord_angles(pts[rows[near]], moved)
                out[rows, cols] = out[cols, rows] = dist
        if known is not None:
            index, block = known
            out[np.ix_(index, index)] = block
        return out

    # -- alignment ----------------------------------------------------------

    def align(self, x: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """The representatives R(theta*) gamma* y, shape (len(ys), 4), that
        realize on S^3 the distance from x to every row y of ys; the
        distances are those of `distance_matrix`.

        For unit weights gamma* is the argmax of |S| over Gamma, the first
        of exact ties, and theta* = -arg S.  Other weights take the winners
        of `_grid_alignments`.
        """
        ys = np.asarray(ys, dtype=float)
        u1, u2 = self._complex_parts(np.asarray(x, dtype=float)[None, :])
        v1, v2 = self._transformed_parts(ys)
        cols = np.arange(len(ys))
        rows = u1.conj().repeat(len(ys)), u2.conj().repeat(len(ys))
        if self.max_weight == 1:
            # S = A' + B' (module docstring) for every gamma
            sums = np.stack([
                (av if self.p == 1 else av.conj()) + (bv if self.q == 1 else bv.conj())
                for av, bv in self._gamma_products(*rows, v1, v2, cols)
            ])
            gamma_idx = np.abs(sums).argmax(axis=0)
            theta = np.mod(-np.angle(sums[gamma_idx, cols]), 2.0 * pi)
        else:
            _, gamma_idx, theta = self._grid_alignments(*rows, v1, v2, cols)
        return self._representatives(v1, v2, gamma_idx, theta, cols)

    def _representatives(self, v1, v2, gamma_idx, theta, cols):
        """R(theta[k]) gamma_{gamma_idx[k]} y for the column y = cols[k] of the
        complex coordinates v1, v2 of `_transformed_parts`: shape (len(cols), 4)."""
        z1 = v1[gamma_idx, cols] * np.exp(1j * self.p * theta)
        z2 = v2[gamma_idx, cols] * np.exp(1j * self.q * theta)
        return np.column_stack([z1.real, z1.imag, z2.real, z2.imag])

    @staticmethod
    def _chord_angles(xs, ys):
        """The angle 2 atan2(|x - y|, |x + y|) between the unit 4-vectors of
        each row pair, accurate near 0, where arccos of their cosine is not."""
        return 2.0 * np.arctan2(
            np.sqrt(((xs - ys) ** 2).sum(axis=1)), np.sqrt(((xs + ys) ** 2).sum(axis=1))
        )

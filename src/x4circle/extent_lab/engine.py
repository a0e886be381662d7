"""Orbit-distance engine for weighted circle actions on S^3/Gamma.

The quotient distance between samples x, y is

    d([x], [y]) = min over gamma, theta of arccos <x, R(theta) gamma y>,

so for each gamma we maximize f(theta) = Re(A e^{i p theta} + B e^{i q theta})
with A = conj(u1) v1, B = conj(u2) v2 built from the complex coordinates of x
and gamma y.

For unit weights (p, q in {1, -1}) the circle acts by one complex scalar,
up to conjugating a coordinate, so f(theta) = Re(S e^{i theta}) with
S = A' + B', where A' is A for p = 1 and conj(A) for p = -1 (B' likewise
from B and q).  The maximum is |S| at theta = -arg S: the Fubini-Study
distance on S^3/S^1 = S^2(1/2), computed in closed form.  A distance
matrix takes only the largest |S| over Gamma of each pair; `align`
stacks the S of every gamma and also returns the winning gamma*, the
first argmax of |S|, with theta*.  The two paths share the expression of
S and agree bit for bit.

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
pair, and only those cells are tested against their neighbours and for a
flat pair.

The polish, `DistanceEngine._refine` on `_taylor`, is a safeguarded Newton
iteration on f' in the bracket of the two neighbouring grid cells.
Each step shrinks the bracket by the sign of f', takes the Newton step
theta - f'/f'' when f'' < 0 and the step lands in the closed bracket,
and bisects otherwise.  A candidate stops once its
step is below 1e-13 or f' is exactly 0, and at most NEWTON_ITERS steps are
taken, so a degenerate maximum converges no worse than by bisection.  The
largest f evaluated is returned with its theta; the start cell is
evaluated, so the polish never falls below the grid value.  A flat pair,
A = B = 0, makes f constant; it is answered from its grid value without
refinement, at the theta of the last grid cell, where the polish of a
constant f stops (f' = 0 at the start).

The solvers take a flat list of pairs, each a row point against a column
point.  The alignment is not bit-symmetric in (x, y), so a distance matrix
aligns each pair (i, j), i < j, that it needs exactly once with the lower
index i as the row, and mirrors it; `align` pairs its one point with every
column.

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

    # -- helpers ---------------------------------------------------------

    @staticmethod
    def _complex_parts(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        pts = np.asarray(points, dtype=float)
        return pts[..., 0] + 1j * pts[..., 1], pts[..., 2] + 1j * pts[..., 3]

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

    def _best_values(self, a1, a2, v1, v2, cols):
        """The maximal <x, R(theta) gamma y> of each pair in a flat list.

        Pair k is the row whose complex coordinates, conjugated, are
        a1[k], a2[k], against column cols[k]; v1, v2 hold the complex
        coordinates of gamma_g applied to every column, shape
        (|Gamma|, columns).  For unit weights the value is the largest |S|
        over Gamma, the one `align` reads at its argmax, bit for bit; for
        any other weights it is that of `_grid_alignments`.
        """
        if self.max_weight > 1:
            return self._grid_alignments(a1, a2, v1, v2, cols)[0]
        best = np.full(len(cols), -np.inf)
        for s in self._unit_sums(a1, a2, v1, v2, cols):
            np.maximum(best, np.abs(s), out=best)
        return best

    def _gamma_products(self, a1, a2, v1, v2, cols):
        """(A, B) of f (module docstring) for every pair of `_best_values`'
        flat list, one gamma at a time."""
        for gi in range(len(self.gammas)):
            # np.multiply, not `*`: numpy reuses a large temporary right
            # operand as the output with the factors swapped, which moves
            # the last bit of the fused complex product
            yield np.multiply(a1, v1[gi].take(cols)), np.multiply(a2, v2[gi].take(cols))

    def _unit_sums(self, a1, a2, v1, v2, cols):
        """S = A' + B' of each `_gamma_products` pair (unit weights)."""
        for av, bv in self._gamma_products(a1, a2, v1, v2, cols):
            yield (av if self.p == 1 else av.conj()) + (bv if self.q == 1 else bv.conj())

    def _grid_alignments(self, a1, a2, v1, v2, cols):
        """Best alignment of every pair of `_best_values`' flat list, for any
        weights, by one grid scan and Newton polish: the maximal
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
        cells, their pairs, grid values and coefficient columns, and the
        pairs that are flat under it.
        """
        flat = len(cols)
        m_grid = self.grid_size
        best = np.full(flat, -np.inf)
        scans = []
        # one block product and one threshold mask, reused by every block
        # and gamma
        f_block = np.empty((66, flat))
        above = np.empty((64, flat), dtype=bool)
        mid = f_block[1:-1]
        # the block's cells, and those one row above and below, flattened
        lower, centre, upper = (f_block[r : r + 64].reshape(-1) for r in range(3))

        for av, bv in self._gamma_products(a1, a2, v1, v2, cols):
            g_rows = np.stack([av.real, -av.imag, bv.real, -bv.imag])
            # a flat pair (A = B = 0) has f == 0 at every theta: instead of
            # refining all its cells, it takes its grid value, 0, at the theta
            # where polishing its last cell ends: that cell itself
            constant = (av == 0) & (bv == 0)
            varies = ~constant
            cand_t, cand_f, cand_v = [], [], []
            for t0, trig_block in zip(range(0, m_grid, 64), self.trig_blocks):
                np.matmul(trig_block, g_rows, out=f_block)
                np.maximum(best, mid.max(axis=0), out=best)
                np.greater_equal(mid, best - CANDIDATE_MARGIN, out=above)
                # only the few cells near the peak are tested further
                k = np.flatnonzero(above)
                value = centre.take(k)
                tt, ff = np.divmod(k, flat)
                local = (value >= lower.take(k)) & (value >= upper.take(k)) & varies.take(ff)
                cand_t.append(tt[local] + t0)
                cand_f.append(ff[local])
                cand_v.append(value[local])
            f_idx = np.concatenate(cand_f)
            scans.append((
                np.concatenate(cand_t), f_idx, np.concatenate(cand_v),
                g_rows[:, f_idx], np.nonzero(constant)[0],
            ))
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

        for gi, (t_idx, f_idx, grid_f, g_cand, flat_f) in enumerate(scans):
            keep = grid_f >= thresh[f_idx]
            t_idx = t_idx[keep]
            f_idx = np.concatenate([f_idx[keep], flat_f[thresh[flat_f] <= 0.0]])
            if not len(f_idx):
                continue
            refined = np.zeros(len(f_idx))
            theta = np.full(len(f_idx), (self.grid_size - 1) * self.step)
            if len(t_idx):
                refined[: len(t_idx)], theta[: len(t_idx)] = self._refine(
                    *g_cand[:, keep], t_idx
                )
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
        copied.  Each pair (i, j), i < j, with i or j outside index is
        aligned once, with its lower index i as the row, and written to
        (i, j) and (j, i).  The orientation does not depend on what is known,
        so a block cut from the full matrix of these points gives back that
        matrix, bit for bit.
        """
        pts = np.asarray(points, dtype=float)
        n = len(pts)
        # conjugated once here, so each chunk gathers its rows in one copy
        a1, a2 = (u.conj() for u in self._complex_parts(pts))
        v1, v2 = self._transformed_parts(pts)
        out = np.zeros((n, n))
        need = np.ones(n, dtype=bool)
        if known is not None:
            index, block = known
            out[np.ix_(index, index)] = block
            need[index] = False

        for r0 in range(0, n, ROW_CHUNK):
            rows, cols = np.nonzero(np.triu(need[r0 : r0 + ROW_CHUNK, None] | need, r0 + 1))
            rows += r0
            best = self._best_values(a1[rows], a2[rows], v1, v2, cols)
            out[rows, cols] = out[cols, rows] = np.arccos(np.clip(best, -1.0, 1.0))
        return out

    # -- alignment ----------------------------------------------------------

    def align(self, x: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Distances from x to every row of ys, with the aligned
        representatives R(theta*) gamma* y realizing them on S^3.

        For unit weights gamma* is the argmax of |S| over Gamma, the first
        of exact ties, and theta* = -arg S; other weights take the winners
        of `_grid_alignments`.
        """
        ys = np.asarray(ys, dtype=float)
        u1, u2 = self._complex_parts(np.asarray(x, dtype=float)[None, :])
        v1, v2 = self._transformed_parts(ys)
        cols = np.arange(len(ys))
        rows = u1.conj().repeat(len(ys)), u2.conj().repeat(len(ys))
        if self.max_weight == 1:
            sums = np.stack(list(self._unit_sums(*rows, v1, v2, cols)))
            gamma_idx = np.abs(sums).argmax(axis=0)
            s = sums[gamma_idx, cols]
            best, theta = np.abs(s), np.mod(-np.angle(s), 2.0 * pi)
        else:
            best, gamma_idx, theta = self._grid_alignments(*rows, v1, v2, cols)
        z1 = v1[gamma_idx, cols] * np.exp(1j * self.p * theta)
        z2 = v2[gamma_idx, cols] * np.exp(1j * self.q * theta)
        aligned = np.column_stack([z1.real, z1.imag, z2.real, z2.imag])
        return np.arccos(np.clip(best, -1.0, 1.0)), aligned

"""Orbit-distance engine for weighted circle actions on S^3/Gamma.

The quotient distance between samples x, y is

    d([x], [y]) = min over gamma, theta of arccos <x, R(theta) gamma y>,

so for each gamma we maximize f(theta) = Re(A e^{i p theta} + B e^{i q theta})
with A = conj(u1) v1, B = conj(u2) v2 built from the complex coordinates of x
and gamma y.  The maximum is located on a 256 * max(|p|, |q|) point grid and
then polished by golden-section search to 1e-10 in theta.  Because f is a
trigonometric polynomial of degree max(|p|, |q|) and |A| + |B| <= 1, the grid
peak of any competing bump is within pi^2/(2*256^2) < 1e-4 of its true peak;
refining every grid-local maximum within 5e-3 of the per-pair best therefore
never misses the global optimum.

One solver serves every caller: `golden_max` polishes whole arrays of
brackets and returns the maximizing argument with its value, so the
distance matrix, the aligned representatives of `align`, and the
fixed-locus search in `spaces` all run the same loop.

All reductions are elementwise max/min, so results are bit-identical no
matter how BLAS threads split the work.
"""

from __future__ import annotations

from math import pi, sqrt

import numpy as np


GRID_PER_WEIGHT = 256
CANDIDATE_MARGIN = 5e-3
GOLDEN_ITERS = 48
_INVPHI = (sqrt(5.0) - 1.0) / 2.0


def golden_max(f, a, b, iters: int):
    """Golden-section maximization of f over every bracket [a[k], b[k]].

    f maps an array of abscissae to values elementwise.  Returns (value,
    arg) of the better point of the final golden pair.  Each step keeps
    the better interior point, so that value is the largest one f returned
    during the search, bit for bit.
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


class DistanceEngine:
    def __init__(self, weights: tuple[int, int], gammas: np.ndarray):
        self.p, self.q = int(weights[0]), int(weights[1])
        self.gammas = np.asarray(gammas, dtype=float)
        self.max_weight = max(abs(self.p), abs(self.q))
        self.grid_size = GRID_PER_WEIGHT * self.max_weight
        self.step = 2.0 * pi / self.grid_size
        theta = np.arange(self.grid_size) * self.step
        self.trig = np.empty((4, self.grid_size))
        self.trig[0] = np.cos(self.p * theta)
        self.trig[1] = np.sin(self.p * theta)
        self.trig[2] = np.cos(self.q * theta)
        self.trig[3] = np.sin(self.q * theta)

    # -- helpers ---------------------------------------------------------

    @staticmethod
    def _complex_parts(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        pts = np.asarray(points, dtype=float)
        return pts[..., 0] + 1j * pts[..., 1], pts[..., 2] + 1j * pts[..., 3]

    def _transformed_parts(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # V[g, j] = complex coordinates of gamma_g applied to point j
        moved = np.einsum("gab,jb->gja", self.gammas, points)
        return self._complex_parts(moved)

    def _objective(self, g0, g1, g2, g3, theta):
        return (
            g0 * np.cos(self.p * theta)
            + g1 * np.sin(self.p * theta)
            + g2 * np.cos(self.q * theta)
            + g3 * np.sin(self.q * theta)
        )

    def _refine(self, g0, g1, g2, g3, t_idx):
        """Golden-section polish around grid cells t_idx: (value, theta)."""
        center = t_idx * self.step
        return golden_max(
            lambda theta: self._objective(g0, g1, g2, g3, theta),
            center - self.step,
            center + self.step,
            GOLDEN_ITERS,
        )

    def _best_alignments(self, u1, u2, v1, v2):
        """Best alignment of every (row, column) pair, flattened row-major.

        u1, u2 hold the complex coordinates of the rows; v1, v2 those of
        gamma_g applied to the columns, shape (|Gamma|, columns).  Returns
        the maximal <x, R(theta) gamma y> of each pair with the winning
        gamma index and theta.  The winner is the best polished candidate;
        the value also admits the grid maximum, whose cell is always among
        the candidates.
        """
        a1 = u1.conj()[:, None]
        a2 = u2.conj()[:, None]
        flat = len(u1) * v1.shape[1]
        g_count = len(self.gammas)
        m_grid = self.grid_size

        coarse = np.empty((g_count, flat))
        for gi in range(g_count):
            av = (a1 * v1[gi][None, :]).reshape(flat)
            bv = (a2 * v2[gi][None, :]).reshape(flat)
            g_rows = np.empty((4, flat))
            g_rows[0] = av.real
            g_rows[1] = -av.imag
            g_rows[2] = bv.real
            g_rows[3] = -bv.imag
            peak = np.full(flat, -np.inf)
            for t0 in range(0, m_grid, 64):
                f_block = self.trig[:, t0 : t0 + 64].T @ g_rows
                np.maximum(peak, f_block.max(axis=0), out=peak)
            coarse[gi] = peak

        best = coarse.max(axis=0)
        thresh = best - CANDIDATE_MARGIN
        win_val = np.full(flat, -np.inf)
        win_gamma = np.zeros(flat, dtype=int)
        win_theta = np.zeros(flat)

        for gi in range(g_count):
            if not np.any(coarse[gi] >= thresh):
                continue
            av = (a1 * v1[gi][None, :]).reshape(flat)
            bv = (a2 * v2[gi][None, :]).reshape(flat)
            g0, g1 = av.real, -av.imag
            g2, g3 = bv.real, -bv.imag
            g_rows = np.stack([g0, g1, g2, g3])
            cand_t = []
            cand_f = []
            for t0 in range(0, m_grid, 64):
                span = min(64, m_grid - t0)
                idx = np.arange(t0 - 1, t0 + span + 1) % m_grid
                f_block = self.trig[:, idx].T @ g_rows
                mid = f_block[1:-1]
                local = (
                    (mid >= f_block[:-2])
                    & (mid >= f_block[2:])
                    & (mid >= thresh[None, :])
                )
                tt, ff = np.nonzero(local)
                if len(tt):
                    cand_t.append(tt + t0)
                    cand_f.append(ff)
            if not cand_t:
                continue
            t_idx = np.concatenate(cand_t)
            f_idx = np.concatenate(cand_f)
            refined, theta = self._refine(
                g0[f_idx], g1[f_idx], g2[f_idx], g3[f_idx], t_idx
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

    def distance_matrix(self, points: np.ndarray, chunk: int = 64) -> np.ndarray:
        """Symmetric quotient distance matrix over the given unit 4-vectors."""
        pts = np.asarray(points, dtype=float)
        n = len(pts)
        u1, u2 = self._complex_parts(pts)
        v1, v2 = self._transformed_parts(pts)
        out = np.empty((n, n))

        for r0 in range(0, n, chunk):
            r1 = min(r0 + chunk, n)
            best, _, _ = self._best_alignments(
                u1[r0:r1], u2[r0:r1], v1[:, r0:], v2[:, r0:]
            )
            block = np.arccos(np.clip(best, -1.0, 1.0)).reshape(r1 - r0, n - r0)
            out[r0:r1, r0:] = block

        lower = np.tril_indices(n, -1)
        out[lower] = out.T[lower]
        np.fill_diagonal(out, 0.0)
        return out

    # -- alignment ----------------------------------------------------------

    def align(self, x: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Distances from x to every row of ys, with the aligned
        representatives R(theta*) gamma* y realizing them on S^3."""
        ys = np.asarray(ys, dtype=float)
        u1, u2 = self._complex_parts(np.asarray(x, dtype=float)[None, :])
        v1, v2 = self._transformed_parts(ys)
        best, gamma_idx, theta = self._best_alignments(u1, u2, v1, v2)
        cols = np.arange(len(ys))
        z1 = v1[gamma_idx, cols] * np.exp(1j * self.p * theta)
        z2 = v2[gamma_idx, cols] * np.exp(1j * self.q * theta)
        aligned = np.column_stack([z1.real, z1.imag, z2.real, z2.imag])
        return np.arccos(np.clip(best, -1.0, 1.0)), aligned

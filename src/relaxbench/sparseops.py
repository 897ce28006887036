"""Periodic difference stencils, the block-sparse operator they assemble, and its solves.

The sparse/LAPACK layer under the Crank-Nicolson Picard reference
(`parasolver._PicardQL`), kept out of `parasolver` so that importing the
package, and every command whose reference is an exact Fourier map, loads no
SciPy.

A stencil is a list of (offset, weight) taps, (S u)[m] = sum w u[m + offset],
with offset a length-d integer vector on the periodic grid.
"""

from __future__ import annotations

import itertools
from typing import Callable, List, Tuple

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dgtsv
from scipy.sparse.linalg import splu

from .core import Array, SpatialGrid

Stencil = List[Tuple[Array, float]]


def differences(grid: SpatialGrid, axis: int) -> Tuple[Stencil, Stencil]:
    """Central difference D1 and forward difference D+ along one axis."""
    e, h = np.eye(grid.d, dtype=int)[axis], grid.h[axis]
    return [(e, 1.0 / (2 * h)), (-e, -1.0 / (2 * h))], [(e, 1.0 / h), (0 * e, -1.0 / h)]


def shifted(grid: SpatialGrid, offset: Array) -> Array:
    """Flat index of cell m + offset for every flat cell m."""
    cells = np.arange(grid.cell_count).reshape(grid.ns)
    return np.roll(cells, tuple(-offset), axis=tuple(range(grid.d))).ravel()


class BlockOperator:
    """k-component second-order operator with coefficient blocks B_ij^ab on cells.

    Divergence placement is sum_ij d_i(B_ij d_j .): -D+_i^T diag(avg_i B_ii) D+_i
    on the diagonal, D1_i diag(B_ij) D1_j across; non-divergence placement is
    sum_ij diag(B_ij) d_i d_j.  Linear in B, so the CSC pattern is built once and
    data = P @ B.ravel(); every block enters the pattern, zero or not.  A 1-d
    scalar operator on n >= 3 cells is periodic tridiagonal: `crank_nicolson`
    reads its three diagonals straight out of data, multiplies by slices and
    solves without factorizing.
    """

    def __init__(self, grid: SpatialGrid, k: int, divergence: bool):
        d, mcells, n = grid.d, grid.cell_count, k * grid.cell_count
        ident: Stencil = [(np.zeros(d, dtype=int), 1.0)]
        d1, dplus = zip(*(differences(grid, i) for i in range(d)))
        # the diagonal comes first, so I - dt * L always has it in its pattern
        rows, cols, slots, weights = [np.arange(n)], [np.arange(n)], [], []
        for slot, (i, j, a, b) in enumerate(np.ndindex(d, d, k, k)):
            neg_dplus_t = [(-o, -w) for o, w in dplus[i]]
            if divergence and i == j:
                face_avg = [(o, 0.5) for o, _ in dplus[i]]  # (c[m] + c[m + e_i]) / 2
                terms = (neg_dplus_t, face_avg, dplus[i])
            elif divergence:
                terms = (d1[i], ident, d1[j])
            else:
                left, right = (neg_dplus_t, dplus[i]) if i == j else (d1[i], d1[j])
                terms = (ident, ident, [(o1 + o2, w1 * w2) for o1, w1 in left for o2, w2 in right])
            # (L diag(K c) R u)[m] = sum w_l w_k w_r c[m + o_l + o_k] u[m + o_l + o_r]
            for (ol, wl), (ok, wk), (o_r, wr) in itertools.product(*terms):
                rows.append(a * mcells + np.arange(mcells))
                cols.append(b * mcells + shifted(grid, ol + o_r))
                slots.append(slot * mcells + shifted(grid, ol + ok))
                weights.append(np.full(mcells, wl * wk * wr))
        rows, cols = np.concatenate(rows), np.concatenate(cols)
        pattern = sp.csc_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n))
        pattern.sum_duplicates()  # sorted and duplicate-free
        self.indices, self.indptr = pattern.indices, pattern.indptr
        entry_keys = np.repeat(np.arange(n), np.diff(self.indptr)) * n + self.indices
        where = np.searchsorted(entry_keys, cols * n + rows)  # position of each entry in data
        self.diag = where[:n]
        self.scatter = sp.csr_matrix((np.concatenate(weights), (where[n:], np.concatenate(slots))),
                                     shape=(self.indices.size, d * d * k * k * mcells))
        # positions of A[i, i - 1] and A[i, i + 1] (mod n); below 3 cells they coincide
        self.lower = self.upper = None
        if d == 1 and k == 1 and n >= 3:
            cells = np.arange(n)
            self.lower = np.searchsorted(entry_keys, (cells - 1) % n * n + cells)
            self.upper = np.searchsorted(entry_keys, (cells + 1) % n * n + cells)

    def _data(self, blocks: Array, dt: float) -> Array:
        data = -dt * (self.scatter @ np.asarray(blocks, dtype=float).reshape(-1))
        data[self.diag] += 1.0
        return data

    def crank_nicolson(self, blocks: Array, dt: float) -> Tuple[Callable[[Array], Array], Callable[[Array], Array]]:
        """(u -> (I + dt/2 * L) u, rhs -> (I - dt/2 * L)^-1 rhs) at coefficient blocks (d, d, k, k, M).

        Both come from one assembly of A = I - dt/2 * L: the explicit half is 2u - A u.  A
        singular A raises RuntimeError on the SuperLU path and LinAlgError on the periodic
        tridiagonal path.
        """
        data = self._data(blocks, 0.5 * dt)
        if self.lower is None:
            matrix = sp.csc_matrix((data, self.indices, self.indptr))
            return (lambda u: 2.0 * u - matrix @ u), factorize(matrix).solve
        lower, diag, upper = data[self.lower], data[self.diag], data[self.upper]
        return (lambda u: 2.0 * u - cyclic_product(lower, diag, upper, u),
                lambda rhs: cyclic_tridiagonal(lower, diag, upper, rhs))


def factorize(matrix: sp.csc_matrix):
    """SuperLU factors of a square matrix; RuntimeError if it is numerically singular.

    SuperLU itself only refuses an exactly zero pivot; a singular matrix whose
    last pivot is round-off would otherwise solve to numbers of size 1/eps.
    """
    lu = splu(matrix)
    pivots = np.abs(lu.U.diagonal())
    if pivots.min() <= matrix.shape[0] * np.finfo(float).eps * pivots.max():
        raise RuntimeError(f"matrix is numerically singular: smallest LU pivot {pivots.min():.3g}, "
                           f"largest {pivots.max():.3g}")
    return lu


def cyclic_product(lower: Array, diag: Array, upper: Array, u: Array) -> Array:
    """lower[i] u[i-1] + diag[i] u[i] + upper[i] u[i+1], indices mod n >= 3."""
    out = diag * u
    out[1:] += lower[1:] * u[:-1]
    out[0] += lower[0] * u[-1]
    out[:-1] += upper[:-1] * u[1:]
    out[-1] += upper[-1] * u[0]
    return out


def cyclic_tridiagonal(lower: Array, diag: Array, upper: Array, rhs: Array) -> Array:
    """Solve lower[i] x[i-1] + diag[i] x[i] + upper[i] x[i+1] = rhs[i], indices mod n >= 3.

    The tridiagonal part T goes through LAPACK dgtsv for the right-hand sides
    rhs, e_0 and e_{n-1} at once.  The corners a = A[0, n-1] = lower[0] and
    c = A[n-1, 0] = upper[n-1] are the rank-2 term U V^T with U = [e_0, e_{n-1}]
    and V = [a e_{n-1}, c e_0], folded back in by Woodbury:
    x = y - Z C^-1 V^T y with y = T^-1 rhs, Z = T^-1 U and C = I + V^T Z.
    """
    n = diag.size
    b = np.zeros((n, 3), order="F")
    b[:, 0] = rhs
    b[0, 1] = b[-1, 2] = 1.0
    _, _, _, sol, info = dgtsv(lower[1:], diag, upper[:-1], b, overwrite_b=True)
    if info != 0:
        raise np.linalg.LinAlgError(f"tridiagonal part is singular (dgtsv info = {info})")
    # V^T y = (r0, r1) and C = I + V^T Z in Python floats: the 2 x 2 solve is in closed form
    a, c = float(lower[0]), float(upper[-1])
    (y0, z00, z01), (yn, zn0, zn1) = sol[0].tolist(), sol[-1].tolist()
    r0, c00, c01 = a * yn, 1.0 + a * zn0, a * zn1
    r1, c10, c11 = c * y0, c * z00, 1.0 + c * z01
    det = c00 * c11 - c01 * c10
    # det = 1 + a zn0 + c z01 + a c (zn0 z01 - zn1 z00); one within round-off of those terms is
    # noise, like an LU pivot within n * eps of the largest (factorize)
    terms = 1.0 + abs(a * zn0) + abs(c * z01) + abs(a * c) * (abs(zn0 * z01) + abs(zn1 * z00))
    if abs(det) <= n * np.finfo(float).eps * terms:
        raise np.linalg.LinAlgError(f"periodic corner correction is singular: determinant {det:.3g} "
                                    f"is round-off against terms of size {terms:.3g}")
    x = sol[:, 0] - sol[:, 1:] @ np.array([(c11 * r0 - c01 * r1) / det, (c00 * r1 - c10 * r0) / det])
    if not np.isfinite(x).all():
        raise np.linalg.LinAlgError("periodic tridiagonal solution is not finite")
    return x


__all__ = [
    "Stencil",
    "differences",
    "shifted",
    "BlockOperator",
    "factorize",
    "cyclic_product",
    "cyclic_tridiagonal",
]

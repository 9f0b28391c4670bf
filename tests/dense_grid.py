"""A product grid's dense points, weights, antipode index and basis matrix
from its ring layout, the mirror half as exact negations of the primary
half: the tests' oracle, evaluating the basis by HarmonicBasis.evaluate."""

import math
from typing import NamedTuple

import numpy as np


class DenseGrid(NamedTuple):
    points: np.ndarray
    weights: np.ndarray
    antipode_index: np.ndarray

    def basis_matrix(self, basis) -> np.ndarray:
        half = self.weights.size // 2
        out = np.empty((basis.size, 2 * half))
        out[:, :half] = basis.evaluate(self.points[:half])
        out[:, self.antipode_index[:half]] = (-1.0) ** basis.l * out[:, :half]
        return out


def dense_grid(grid) -> DenseGrid:
    d, n_phi, rings = grid.d, grid.n_phi, grid.ring_weights.size
    # ring g's antipodal ring is R - 1 - g, phi shifted by n_phi/2
    antipode = ((rings - 1 - np.arange(rings))[:, None] * n_phi
                + (np.arange(n_phi) + n_phi // 2) % n_phi).ravel()
    phi = 2.0 * math.pi * np.arange(n_phi) / n_phi
    points = np.empty((rings, n_phi, d + 1))
    sin_prod = np.ones(rings)
    for j, t in enumerate(grid.ring_nodes):
        points[:, :, j] = (sin_prod * t)[:, None]
        sin_prod = sin_prod * np.sqrt(np.maximum(0.0, 1.0 - t * t))
    points[:, :, d - 1] = np.outer(sin_prod, np.cos(phi))
    points[:, :, d] = np.outer(sin_prod, np.sin(phi))
    points = points.reshape(grid.size, d + 1)
    half = grid.size // 2
    points[antipode[:half]] = -points[:half]
    return DenseGrid(points, np.repeat(grid.ring_weights, n_phi), antipode)

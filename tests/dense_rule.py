"""A dense distance table as a metric rule: the all-pairs oracle the tests
compare the package's rules against.

A dense space's points are labelled (i,) for the rows of a fixed matrix, and
the rule reads the matrix at those labels. So a subspace keeps the rule and
its labels, and no path of the rule reads coordinate structure: every
method is MetricRule's generic one, over the whole matrix.
"""

from __future__ import annotations

import numpy as np

from coarseiso.spaces import FiniteSpace, MetricRule


class DenseRule(MetricRule):
    def __init__(self, matrix):
        self.matrix = np.asarray(matrix, dtype=float)

    def dists(self, rows: np.ndarray, coords: np.ndarray) -> np.ndarray:
        return self.matrix[rows[..., 0]][..., coords[:, 0]]

    def descriptor(self) -> dict:
        return {"kind": "dense"}


def dense_space(matrix, basepoint: int, inner_radius) -> FiniteSpace:
    """The space on the rows of a square distance matrix."""
    labels = np.arange(len(matrix))[:, None]
    return FiniteSpace(labels, DenseRule(matrix), basepoint, inner_radius)


def as_dense(sp: FiniteSpace) -> FiniteSpace:
    """The same distances, basepoint and radius behind a dense rule."""
    return dense_space(sp.dmat(), sp.basepoint, sp.inner_radius)

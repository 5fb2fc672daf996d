"""A dense distance table as a metric rule: the all-pairs oracle the tests
compare the package's rules against.

A dense space's points are labelled (i,) for the rows of a fixed matrix, and
the rule reads the matrix at those labels. So a subspace keeps the rule and
its labels, and no path of the rule reads coordinate structure: its labels
are the row indices as given, its chain and components are the oracles'
(prim_chain, graph_components), and every other method is MetricRule's
default.
"""

from __future__ import annotations

import numpy as np

from coarseiso.spaces import FiniteSpace, MetricRule
from oracles import graph_components, prim_chain


class DenseRule(MetricRule):
    def __init__(self, matrix):
        self.matrix = np.asarray(matrix, dtype=float)

    def checked_coords(self, labels) -> np.ndarray:
        return np.asarray(labels)

    def dists(self, rows: np.ndarray, coords: np.ndarray) -> np.ndarray:
        return self.matrix[rows[..., 0]][..., coords[:, 0]]

    def chain(self, space: FiniteSpace, subset: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return prim_chain(space, subset)

    def components(self, space: FiniteSpace, eps: float) -> np.ndarray:
        return graph_components(space, eps)

    def descriptor(self) -> dict:
        return {"kind": "dense"}


def dense_space(matrix, basepoint: int, inner_radius) -> FiniteSpace:
    """The space on the rows of a square distance matrix."""
    labels = np.arange(len(matrix))[:, None]
    return FiniteSpace(labels, DenseRule(matrix), basepoint, inner_radius)


def as_dense(sp: FiniteSpace) -> FiniteSpace:
    """The same distances, basepoint and radius behind a dense rule."""
    return dense_space(sp.dmat(), sp.basepoint, sp.inner_radius)

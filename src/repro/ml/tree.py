"""Histogram-based gradient decision tree.

The shared tree engine behind :mod:`repro.ml.forest` and
:mod:`repro.ml.gbdt`.  Features are pre-binned into at most ``max_bins``
quantile bins (:class:`Binner`); split finding scans per-feature histograms
of gradient/hessian sums, exactly as LightGBM does.  Growth is *leaf-wise*
(best-gain-first, LightGBM's signature strategy) bounded by ``max_leaves``
and ``max_depth``.

With the second-order objective the optimal leaf weight is ``-G / (H + λ)``
and the split gain is the standard XGBoost/LightGBM formula.  Plain
regression trees (for Random Forest) are the special case ``g = -y, h = 1``,
whose leaf value reduces to the label mean and whose gain reduces to
variance reduction.

Every prediction, of one tree or of a whole ensemble, runs through
:class:`TreePack`: all trees walked together in one vectorised traversal.
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class TreeParams:
    """Growth bounds and regularisation."""

    max_leaves: int = 31
    max_depth: int = 8
    min_samples_leaf: int = 20
    min_gain: float = 1e-6
    reg_lambda: float = 1.0
    max_bins: int = 64

    def __post_init__(self) -> None:
        if self.max_leaves < 2:
            raise ValueError("max_leaves must be >= 2")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if self.min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        if not 2 <= self.max_bins <= 255:
            raise ValueError("max_bins must be in [2, 255]")


class Binner:
    """Quantile pre-binning of a feature matrix into uint8 bin indices."""

    def __init__(self, max_bins: int = 64):
        if not 2 <= max_bins <= 255:
            raise ValueError("max_bins must be in [2, 255]")
        self.max_bins = max_bins
        self.edges_: list[np.ndarray] | None = None

    def fit(self, X: np.ndarray) -> "Binner":
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise ValueError("X must be 2-D")
        quantiles = np.linspace(0.0, 1.0, self.max_bins + 1)[1:-1]
        self.edges_ = [
            np.unique(np.quantile(X[:, j], quantiles)) for j in range(X.shape[1])
        ]
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        if self.edges_ is None:
            raise RuntimeError("Binner not fitted")
        X = np.asarray(X, dtype=float)
        binned = np.empty(X.shape, dtype=np.uint8)
        for j, edges in enumerate(self.edges_):
            binned[:, j] = np.searchsorted(edges, X[:, j], side="right")
        return binned

    def fit_transform(self, X: np.ndarray) -> np.ndarray:
        return self.fit(X).transform(X)

    @property
    def n_bins(self) -> list[int]:
        if self.edges_ is None:
            raise RuntimeError("Binner not fitted")
        return [len(edges) + 1 for edges in self.edges_]


@dataclass
class _LeafCandidate:
    """A leaf plus its best potential split, ordered by gain for the heap."""

    gain: float
    node_id: int
    feature: int
    bin_threshold: int
    indices: np.ndarray
    depth: int
    order: int = field(default=0)

    def __lt__(self, other: "_LeafCandidate") -> bool:
        return (-self.gain, self.order) < (-other.gain, other.order)


class GradientTree:
    """One leaf-wise-grown tree over pre-binned features."""

    def __init__(self, params: TreeParams | None = None):
        self.params = params or TreeParams()
        # Flat node arrays; feature == -1 marks a leaf.
        self.feature: np.ndarray | None = None
        self.threshold: np.ndarray | None = None
        self.left: np.ndarray | None = None
        self.right: np.ndarray | None = None
        self.value: np.ndarray | None = None
        self.n_leaves = 0
        self._pack: TreePack | None = None

    # -- fitting -----------------------------------------------------------

    def fit(
        self,
        binned: np.ndarray,
        g: np.ndarray,
        h: np.ndarray,
        feature_subset: np.ndarray | None = None,
    ) -> "GradientTree":
        """Grow the tree on gradients ``g`` and hessians ``h``."""
        params = self.params
        self._pack = None
        binned = np.asarray(binned, dtype=np.uint8)
        g = np.asarray(g, dtype=np.float64)
        h = np.asarray(h, dtype=np.float64)
        if binned.ndim != 2 or g.shape != h.shape or g.shape[0] != binned.shape[0]:
            raise ValueError("inconsistent shapes")
        n_features = binned.shape[1]
        features = (
            np.arange(n_features) if feature_subset is None else feature_subset
        )

        nodes_feature: list[int] = [-1]
        nodes_threshold: list[int] = [0]
        nodes_left: list[int] = [-1]
        nodes_right: list[int] = [-1]
        nodes_value: list[float] = [0.0]

        counter = itertools.count()
        heap: list[_LeafCandidate] = []
        root_indices = np.arange(binned.shape[0])
        nodes_value[0] = self._leaf_value(g, h, root_indices)
        self._push_candidate(
            heap, binned, g, h, features, 0, root_indices, 0, counter
        )

        leaves = 1
        while heap and leaves < params.max_leaves:
            candidate = heapq.heappop(heap)
            if candidate.gain < params.min_gain:
                break
            indices = candidate.indices
            go_left = binned[indices, candidate.feature] <= candidate.bin_threshold
            left_indices = indices[go_left]
            right_indices = indices[~go_left]
            if (
                len(left_indices) < params.min_samples_leaf
                or len(right_indices) < params.min_samples_leaf
            ):
                continue

            left_id = len(nodes_feature)
            right_id = left_id + 1
            for child_indices in (left_indices, right_indices):
                nodes_feature.append(-1)
                nodes_threshold.append(0)
                nodes_left.append(-1)
                nodes_right.append(-1)
                nodes_value.append(self._leaf_value(g, h, child_indices))
            nodes_feature[candidate.node_id] = candidate.feature
            nodes_threshold[candidate.node_id] = candidate.bin_threshold
            nodes_left[candidate.node_id] = left_id
            nodes_right[candidate.node_id] = right_id
            leaves += 1

            depth = candidate.depth + 1
            if depth < params.max_depth:
                self._push_candidate(
                    heap, binned, g, h, features, left_id, left_indices, depth, counter
                )
                self._push_candidate(
                    heap, binned, g, h, features, right_id, right_indices, depth, counter
                )

        self.feature = np.asarray(nodes_feature, dtype=np.int32)
        self.threshold = np.asarray(nodes_threshold, dtype=np.int32)
        self.left = np.asarray(nodes_left, dtype=np.int32)
        self.right = np.asarray(nodes_right, dtype=np.int32)
        self.value = np.asarray(nodes_value, dtype=np.float64)
        self.n_leaves = leaves
        return self

    def _leaf_value(self, g: np.ndarray, h: np.ndarray, indices: np.ndarray) -> float:
        g_sum = float(g[indices].sum())
        h_sum = float(h[indices].sum())
        return -g_sum / (h_sum + self.params.reg_lambda)

    def _push_candidate(
        self,
        heap: list,
        binned: np.ndarray,
        g: np.ndarray,
        h: np.ndarray,
        features: np.ndarray,
        node_id: int,
        indices: np.ndarray,
        depth: int,
        counter,
    ) -> None:
        if len(indices) < 2 * self.params.min_samples_leaf:
            return
        best = self._best_split(binned, g, h, features, indices)
        if best is None:
            return
        gain, feature, bin_threshold = best
        heapq.heappush(
            heap,
            _LeafCandidate(
                gain=gain,
                node_id=node_id,
                feature=feature,
                bin_threshold=bin_threshold,
                indices=indices,
                depth=depth,
                order=next(counter),
            ),
        )

    def _best_split(
        self,
        binned: np.ndarray,
        g: np.ndarray,
        h: np.ndarray,
        features: np.ndarray,
        indices: np.ndarray,
    ) -> tuple[float, int, int] | None:
        params = self.params
        g_local = g[indices]
        h_local = h[indices]
        g_total = g_local.sum()
        h_total = h_local.sum()
        parent_score = g_total * g_total / (h_total + params.reg_lambda)

        best_gain = 0.0
        best: tuple[float, int, int] | None = None
        for feature in features:
            bins = binned[indices, feature]
            hist_g = np.bincount(bins, weights=g_local)
            if hist_g.size < 2:
                continue
            hist_h = np.bincount(bins, weights=h_local)
            hist_c = np.bincount(bins)

            gl = np.cumsum(hist_g)[:-1]
            hl = np.cumsum(hist_h)[:-1]
            cl = np.cumsum(hist_c)[:-1]
            gr = g_total - gl
            hr = h_total - hl
            cr = len(indices) - cl

            valid = (cl >= params.min_samples_leaf) & (cr >= params.min_samples_leaf)
            if not valid.any():
                continue
            gains = (
                gl * gl / (hl + params.reg_lambda)
                + gr * gr / (hr + params.reg_lambda)
                - parent_score
            )
            gains = np.where(valid, gains, -np.inf)
            best_bin = int(np.argmax(gains))
            gain = float(gains[best_bin])
            if gain > best_gain:
                best_gain = gain
                best = (gain, int(feature), best_bin)
        return best

    # -- prediction ----------------------------------------------------------

    def predict(self, binned: np.ndarray) -> np.ndarray:
        """Leaf values for pre-binned samples."""
        if self.feature is None:
            raise RuntimeError("tree not fitted")
        if self._pack is None:
            self._pack = TreePack([self])
        return self._pack.leaf_values(binned)[:, 0]


#: Rows x trees per traversal chunk (512 rows of a 256-tree ensemble).  It
#: bounds the kernel's temporaries to 1 MiB each; on a 2-core x86-64 VM,
#: 2,000- and 20,000-row batches ran ~30% slower with chunks four times
#: larger, and no faster with smaller ones.
_CHUNK_CELLS = 1 << 17


class TreePack:
    """An ensemble's trees packed into flat arrays for one joint traversal.

    The trees' node arrays are concatenated, and every node is addressed
    by its *slot* ``2 * node``: ``children[slot + go_right]`` is the slot of
    the child a sample moves to.  A leaf's two children are the leaf
    itself, so walking every (row, tree) pair for the ensemble's deepest
    path needs no masking: samples that reach a leaf early stay on it.
    ``leaf_map`` is applied once to the concatenated leaf values (e.g.
    shrinkage or clipping), so the kernel only gathers.
    """

    def __init__(
        self,
        trees: Sequence[GradientTree],
        leaf_map: Callable[[np.ndarray], np.ndarray] | None = None,
    ):
        sizes = np.array([len(tree.feature) for tree in trees], dtype=np.intp)
        offsets = np.concatenate(([0], np.cumsum(sizes)[:-1])).astype(np.intp)
        feature = np.concatenate([tree.feature for tree in trees])
        internal = feature >= 0
        node = np.arange(len(feature), dtype=np.intp)
        base = np.repeat(offsets, sizes)
        left = np.where(
            internal, np.concatenate([tree.left for tree in trees]) + base, node
        )
        right = np.where(
            internal, np.concatenate([tree.right for tree in trees]) + base, node
        )
        value = np.concatenate([tree.value for tree in trees])
        if leaf_map is not None:
            value = leaf_map(value)

        # Slot-indexed tables: a node's fields sit at its even slot.  Bin
        # thresholds fit uint8: fit splits below max_bins <= 255, and
        # model_io rejects artifacts with thresholds outside [0, 255].
        self._feature = np.repeat(np.where(internal, feature, 0).astype(np.intp), 2)
        self._threshold = np.repeat(
            np.concatenate([tree.threshold for tree in trees]).astype(np.uint8), 2
        )
        self._children = 2 * np.stack([left, right], axis=1).ravel()
        self._value = np.repeat(value.astype(np.float64), 2)
        self._roots = 2 * offsets
        self.n_trees = len(trees)

        # Deepest root-to-leaf path, one vectorised pass per level.
        self.depth = 0
        frontier = offsets[internal[offsets]]
        while frontier.size:
            self.depth += 1
            frontier = np.concatenate([left[frontier], right[frontier]])
            frontier = frontier[internal[frontier]]

    def _walk(self, binned: np.ndarray) -> np.ndarray:
        """Leaf slots, shape ``(rows, n_trees)``, for one chunk of rows."""
        rows, n_features = binned.shape
        flat = binned.ravel()
        row_base = np.arange(0, rows * n_features, n_features, dtype=np.intp)
        slots = np.repeat(self._roots[None, :], rows, axis=0)
        for _ in range(self.depth):
            go_right = flat.take(row_base[:, None] + self._feature.take(slots))
            go_right = go_right > self._threshold.take(slots)
            slots = self._children.take(slots + go_right)
        return slots

    def _chunks(self, binned: np.ndarray):
        binned = np.ascontiguousarray(binned, dtype=np.uint8)
        step = max(1, _CHUNK_CELLS // self.n_trees)
        for start in range(0, binned.shape[0], step):
            yield start, binned[start : start + step]

    def leaf_values(self, binned: np.ndarray) -> np.ndarray:
        """Every tree's (mapped) leaf value per row, shape ``(rows, n_trees)``."""
        out = np.empty((binned.shape[0], self.n_trees))
        for start, chunk in self._chunks(binned):
            out[start : start + len(chunk)] = self._value.take(self._walk(chunk))
        return out

    def accumulate(self, binned: np.ndarray, start: float) -> np.ndarray:
        """``start + v_0 + v_1 + ...`` per row, added tree by tree.

        ``np.cumsum`` adds along the tree axis strictly left to right, the
        same float64 operations as ``raw += values_of_tree_t`` per tree, so
        the sums are bit-identical to a one-tree-at-a-time loop.
        """
        out = np.empty(binned.shape[0])
        for first, chunk in self._chunks(binned):
            block = np.empty((len(chunk), self.n_trees + 1))
            block[:, 0] = start
            block[:, 1:] = self._value.take(self._walk(chunk))
            np.cumsum(block, axis=1, out=block)
            out[first : first + len(chunk)] = block[:, -1]
        return out

"""Model persistence.

The model registry needs durable artifacts: tree ensembles serialise to
plain JSON (arrays of node fields).  An open format rather than pickle
keeps artifacts inspectable and safe to load.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.ml.forest import RandomForestClassifier, RandomForestParams
from repro.ml.gbdt import GbdtClassifier, GbdtParams
from repro.ml.tree import Binner, GradientTree, TreeParams


def _tree_to_dict(tree: GradientTree) -> dict:
    return {
        "params": vars(tree.params).copy() if hasattr(tree.params, "__dict__") else {
            field: getattr(tree.params, field)
            for field in tree.params.__dataclass_fields__
        },
        "feature": tree.feature.tolist(),
        "threshold": tree.threshold.tolist(),
        "left": tree.left.tolist(),
        "right": tree.right.tolist(),
        "value": tree.value.tolist(),
        "n_leaves": tree.n_leaves,
    }


def _tree_from_dict(payload: dict, n_features: int) -> GradientTree:
    try:
        arrays = {
            name: np.asarray(payload[name], dtype=np.int32)
            for name in ("feature", "threshold", "left", "right")
        }
        arrays["value"] = np.asarray(payload["value"], dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed node arrays: {exc}") from exc
    _check_nodes(n_features=n_features, **arrays)
    tree = GradientTree(TreeParams(**payload["params"]))
    tree.feature = arrays["feature"]
    tree.threshold = arrays["threshold"]
    tree.left = arrays["left"]
    tree.right = arrays["right"]
    tree.value = arrays["value"]
    tree.n_leaves = payload["n_leaves"]
    return tree


def _check_nodes(
    feature: np.ndarray,
    threshold: np.ndarray,
    left: np.ndarray,
    right: np.ndarray,
    value: np.ndarray,
    n_features: int,
) -> None:
    """Reject node arrays the packed traversal could walk out of a tree on.

    Children must come after their parent, as :meth:`GradientTree.fit`
    numbers them, which also rules out cycles.
    """
    n = len(feature)
    if n == 0 or any(
        array.ndim != 1 or len(array) != n
        for array in (feature, threshold, left, right, value)
    ):
        raise ValueError("node arrays must be non-empty and of equal length")
    if feature.min() < -1 or feature.max() >= n_features:
        raise ValueError(f"feature index outside [-1, {n_features})")
    internal = np.flatnonzero(feature >= 0)
    for name, child in (("left", left), ("right", right)):
        child = child[internal]
        if np.any(child <= internal) or np.any(child >= n):
            raise ValueError(
                f"{name} child index not after its parent or out of range"
            )
    if threshold.min() < 0 or threshold.max() > 255:
        raise ValueError("bin threshold outside [0, 255]")
    if not np.isfinite(value).all():
        raise ValueError("non-finite node value")


def _binner_to_dict(binner: Binner) -> dict:
    return {
        "max_bins": binner.max_bins,
        "edges": [edges.tolist() for edges in binner.edges_],
    }


def _binner_from_dict(payload: dict) -> Binner:
    binner = Binner(payload["max_bins"])
    binner.edges_ = [np.asarray(edges, dtype=float) for edges in payload["edges"]]
    return binner


def _load_trees(items: list, binner: Binner, path) -> list[GradientTree]:
    n_features = len(binner.edges_)
    trees = []
    for index, item in enumerate(items):
        try:
            trees.append(_tree_from_dict(item, n_features))
        except ValueError as exc:
            raise ValueError(f"{path}: tree {index}: {exc}") from exc
    return trees


def save_gbdt(model: GbdtClassifier, path: str | Path) -> Path:
    """Serialise a fitted GBDT to JSON."""
    if model._binner is None:
        raise RuntimeError("model not fitted")
    path = Path(path)
    payload = {
        "format": "repro.gbdt.v1",
        "params": {
            field: getattr(model.params, field)
            for field in model.params.__dataclass_fields__
        },
        "bias": model._bias,
        "binner": _binner_to_dict(model._binner),
        "trees": [_tree_to_dict(tree) for tree in model._trees],
    }
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def load_gbdt(path: str | Path) -> GbdtClassifier:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if payload.get("format") != "repro.gbdt.v1":
        raise ValueError(f"not a repro GBDT artifact: {path}")
    model = GbdtClassifier(GbdtParams(**payload["params"]))
    model._bias = payload["bias"]
    model._binner = _binner_from_dict(payload["binner"])
    model._trees = _load_trees(payload["trees"], model._binner, path)
    model.best_iteration_ = len(model._trees)
    return model


def save_forest(model: RandomForestClassifier, path: str | Path) -> Path:
    """Serialise a fitted random forest to JSON."""
    if model._binner is None:
        raise RuntimeError("model not fitted")
    path = Path(path)
    payload = {
        "format": "repro.forest.v1",
        "params": {
            field: getattr(model.params, field)
            for field in model.params.__dataclass_fields__
        },
        "binner": _binner_to_dict(model._binner),
        "trees": [
            {"tree": _tree_to_dict(tree), "features": features.tolist()}
            for tree, features in model._trees
        ],
    }
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def load_forest(path: str | Path) -> RandomForestClassifier:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if payload.get("format") != "repro.forest.v1":
        raise ValueError(f"not a repro forest artifact: {path}")
    model = RandomForestClassifier(RandomForestParams(**payload["params"]))
    model._binner = _binner_from_dict(payload["binner"])
    trees = _load_trees(
        [item["tree"] for item in payload["trees"]], model._binner, path
    )
    model._trees = [
        (tree, np.asarray(item["features"], dtype=int))
        for tree, item in zip(trees, payload["trees"])
    ]
    return model

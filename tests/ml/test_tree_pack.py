"""Bitwise parity of the packed tree-ensemble kernel.

Every prediction goes through :class:`repro.ml.tree.TreePack`.  The
reference here walks each tree node by node in plain Python and adds the
contributions tree by tree, so equality is asserted on the float64 bit
patterns, not within a tolerance.
"""

import numpy as np
import pytest

from repro.ml import tree as tree_module
from repro.ml.forest import RandomForestClassifier, RandomForestParams
from repro.ml.gbdt import GbdtClassifier, GbdtParams, _sigmoid
from repro.ml.model_io import load_gbdt, save_gbdt
from repro.ml.tree import GradientTree, TreeParams


def _leaf(tree, row):
    node = 0
    while tree.feature[node] >= 0:
        if row[tree.feature[node]] <= tree.threshold[node]:
            node = tree.left[node]
        else:
            node = tree.right[node]
    return tree.value[node]


def reference_gbdt(model, X):
    binned = model._binner.transform(X)
    raw = np.empty(len(binned))
    for i, row in enumerate(binned):
        total = np.float64(model._bias)
        for tree in model._trees:
            total = total + model.params.learning_rate * _leaf(tree, row)
        raw[i] = total
    return _sigmoid(raw)


def reference_forest(model, X):
    binned = model._binner.transform(X)
    votes = np.empty(len(binned))
    for i, row in enumerate(binned):
        total = np.float64(0.0)
        for tree, _features in model._trees:
            total = total + np.clip(_leaf(tree, row), 0.0, 1.0)
        votes[i] = total
    return votes / len(model._trees)


def assert_bits_equal(actual, expected):
    assert actual.shape == expected.shape
    assert actual.dtype == expected.dtype == np.float64
    np.testing.assert_array_equal(actual.view(np.int64), expected.view(np.int64))


def train_data(n=900, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 6))
    y = ((X[:, 0] > 0) ^ (X[:, 1] > 0.5) | (X[:, 2] > 1.5)).astype(int)
    return X, y


def query_data(n, seed=1):
    """Queries with NaN, +-inf and values far past the last bin edge."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 6)) * 1.5
    special = np.array([np.nan, np.inf, -np.inf, 1e6, -1e6])
    mask = rng.random(X.shape) < 0.08
    X[mask] = rng.choice(special, size=int(mask.sum()))
    return X


def early_stopped_gbdt():
    X, y = train_data()
    model = GbdtClassifier(
        GbdtParams(n_estimators=200, learning_rate=0.3, early_stopping_rounds=5)
    )
    model.fit(X[:600], y[:600], eval_set=(X[600:], y[600:]))
    assert model.best_iteration_ < 200
    return model


def goss_gbdt():
    X, y = train_data()
    return GbdtClassifier(
        GbdtParams(n_estimators=25, goss=True, early_stopping_rounds=None)
    ).fit(X, y)


def gbdt_with_root_only_tree():
    """An ensemble mixing deep trees with a single-leaf one."""
    X, y = train_data()
    model = GbdtClassifier(
        GbdtParams(n_estimators=12, early_stopping_rounds=None)
    ).fit(X, y)
    stump = GradientTree(TreeParams(min_samples_leaf=len(X)))
    stump.fit(model._binner.transform(X), g=-y.astype(float), h=np.ones(len(y)))
    assert stump.n_leaves == 1
    model._trees.insert(5, stump)
    return model


def root_only_gbdt():
    """Every tree is a single leaf, so the traversal has depth zero."""
    X, y = train_data(n=60)
    return GbdtClassifier(
        GbdtParams(n_estimators=4, min_samples_leaf=60, early_stopping_rounds=None)
    ).fit(X, y)


def forest():
    X, y = train_data()
    return RandomForestClassifier(RandomForestParams(n_estimators=15)).fit(X, y)


MODELS = {
    "gbdt_early_stopped": (early_stopped_gbdt, reference_gbdt),
    "gbdt_goss": (goss_gbdt, reference_gbdt),
    "gbdt_root_only_tree": (gbdt_with_root_only_tree, reference_gbdt),
    "gbdt_all_root_only": (root_only_gbdt, reference_gbdt),
    "random_forest": (forest, reference_forest),
}


@pytest.fixture(scope="module", params=sorted(MODELS))
def case(request):
    build, reference = MODELS[request.param]
    return build(), reference


@pytest.mark.parametrize("n", [0, 1, 5, 149])
def test_small_batches_match_reference_bitwise(case, n):
    model, reference = case
    X = query_data(n)
    assert_bits_equal(model.predict_proba(X), reference(model, X))


def test_batch_past_one_chunk_matches_reference_bitwise(case):
    model, reference = case
    n = tree_module._CHUNK_CELLS // len(model._trees) + 7
    X = query_data(n, seed=2)
    assert_bits_equal(model.predict_proba(X), reference(model, X))


def test_many_chunks_match_one_chunk(case, monkeypatch):
    model, _ = case
    X = query_data(300, seed=3)
    whole = model.predict_proba(X)
    monkeypatch.setattr(tree_module, "_CHUNK_CELLS", 7)
    assert_bits_equal(model.predict_proba(X), whole)


def test_single_tree_predict_matches_reference():
    X, y = train_data()
    binned = tree_module.Binner().fit_transform(X)
    tree = GradientTree(TreeParams(max_leaves=15, min_samples_leaf=5))
    tree.fit(binned, g=-y.astype(float), h=np.ones(len(y)))
    expected = np.array([_leaf(tree, row) for row in binned])
    assert_bits_equal(tree.predict(binned), expected)
    assert tree.predict(binned[:0]).shape == (0,)


def _depth(tree, node=0):
    if tree.feature[node] < 0:
        return 0
    return 1 + max(_depth(tree, tree.left[node]), _depth(tree, tree.right[node]))


def test_pack_walks_the_deepest_path_only():
    model = gbdt_with_root_only_tree()
    model.predict_proba(query_data(1))
    assert model._pack.depth == max(_depth(tree) for tree in model._trees)
    stumps = root_only_gbdt()
    stumps.predict_proba(query_data(1))
    assert stumps._pack.depth == 0


class TestPackRefresh:
    def test_refit_rebuilds_the_pack(self):
        X, y = train_data()
        X2, y2 = train_data(n=700, seed=5)
        params = GbdtParams(n_estimators=15, early_stopping_rounds=None)
        model = GbdtClassifier(params).fit(X, y)
        model.predict_proba(X)
        model.fit(X2, y2)
        fresh = GbdtClassifier(params).fit(X2, y2)
        assert_bits_equal(model.predict_proba(X), fresh.predict_proba(X))

    def test_forest_refit_rebuilds_the_pack(self):
        X, y = train_data()
        X2, y2 = train_data(n=700, seed=5)
        params = RandomForestParams(n_estimators=8)
        model = RandomForestClassifier(params).fit(X, y)
        model.predict_proba(X)
        model.fit(X2, y2)
        fresh = RandomForestClassifier(params).fit(X2, y2)
        assert_bits_equal(model.predict_proba(X), fresh.predict_proba(X))

    def test_tree_refit_rebuilds_the_pack(self):
        X, y = train_data()
        binned = tree_module.Binner().fit_transform(X)
        tree = GradientTree(TreeParams(max_leaves=8, min_samples_leaf=5))
        tree.fit(binned, g=-y.astype(float), h=np.ones(len(y)))
        tree.predict(binned)
        tree.fit(binned, g=y - 0.5, h=np.ones(len(y)))
        fresh = GradientTree(TreeParams(max_leaves=8, min_samples_leaf=5))
        fresh.fit(binned, g=y - 0.5, h=np.ones(len(y)))
        assert_bits_equal(tree.predict(binned), fresh.predict(binned))

    def test_save_load_round_trip_is_bit_identical(self, tmp_path):
        model = early_stopped_gbdt()
        X = query_data(200)
        before = model.predict_proba(X)
        loaded = load_gbdt(save_gbdt(model, tmp_path / "model.json"))
        assert_bits_equal(loaded.predict_proba(X), before)

    @pytest.mark.parametrize("build", [early_stopped_gbdt, forest])
    def test_empty_matrix_gives_empty_scores(self, build):
        out = build().predict_proba(np.zeros((0, 6)))
        assert out.shape == (0,)
        assert out.dtype == np.float64

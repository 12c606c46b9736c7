import dataclasses
import gc
import logging
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    exhaustive_depth2_sse,
    fitted_leaf_rows,
    greedy_tree_brute,
    partition_sse,
    route_by_regions,
    sse,
    tree_field_bytes,
    tree_leaf_rows,
)
from tvcm import losses
from tvcm.errors import DomainError
from tvcm.tree import (
    RegressionTree,
    TreeConfig,
    _newton_gamma,
    adjust_leaves,
    fit_gradient_tree,
    fit_partition,
    presort_columns,
)


def four_row_tree(config=None):
    g = np.array([-1.0, -1.0, 1.0, 1.0])
    Z = np.array([[1.0], [2.0], [3.0], [4.0]])
    cfg = config or TreeConfig(max_depth=1, min_samples_leaf=1)
    return fit_partition(g, Z, cfg), g, Z


def test_tree_config_validation():
    with pytest.raises(DomainError):
        TreeConfig(max_depth=0)
    with pytest.raises(DomainError):
        TreeConfig(min_samples_leaf=0)


def test_four_row_example_split():
    # brute force over the three candidate thresholds puts the split at 2.5
    tree, g, Z = four_row_tree()
    assert tree.n_nodes == 3
    assert int(tree.feature[0]) == 0
    assert float(tree.threshold[0]) == pytest.approx(2.5)
    left, right = int(tree.left[0]), int(tree.right[0])
    assert int(tree.count[left]) == 2
    assert int(tree.count[right]) == 2
    assert tree.assign(Z).tolist() == [left, left, right, right]
    assert float(tree.gain[0]) == pytest.approx(4.0)
    assert tree.split_gains() == {0: pytest.approx(4.0)}


def test_constant_gradients_single_leaf():
    g = np.full(40, 0.37)
    Z = np.random.default_rng(0).standard_normal((40, 3))
    tree = fit_partition(g, Z, TreeConfig(max_depth=2, min_samples_leaf=2))
    assert tree.n_nodes == 1
    assert tree.split_gains() == {}
    assert int(tree.count[0]) == 40


def test_too_few_rows_single_leaf_not_error():
    g = np.array([1.0, -2.0, 3.0])
    Z = np.arange(3.0)[:, None]
    tree = fit_partition(g, Z, TreeConfig(max_depth=2, min_samples_leaf=2))
    assert tree.n_nodes == 1


def test_depth_and_min_leaf_respected():
    rng = np.random.default_rng(1)
    for rep in range(20):
        n = int(rng.integers(20, 200))
        q = int(rng.integers(1, 4))
        depth = int(rng.integers(1, 4))
        min_leaf = int(rng.integers(1, 8))
        g = rng.standard_normal(n)
        Z = rng.standard_normal((n, q))
        tree = fit_partition(g, Z, TreeConfig(depth, min_leaf))
        rows_per_leaf = fitted_leaf_rows(tree, Z)
        assert all(r.size >= min_leaf for r in rows_per_leaf)
        assert tree.n_leaves <= 2**depth
        total = np.concatenate(rows_per_leaf)
        assert np.array_equal(np.sort(total), np.arange(n))


def test_node_wise_exhaustive_oracle_agreement():
    """The fitted tree must coincide with a brute-force implementation
    of the greedy construction: an exhaustive scan over all (feature,
    threshold) pairs at every node."""
    rng = np.random.default_rng(2024)
    for rep in range(200):
        n = int(rng.integers(4, 65))
        q = int(rng.integers(1, 4))
        min_leaf = int(rng.integers(1, 4))
        depth = int(rng.integers(1, 3))
        g = rng.standard_normal(n)
        Z = rng.standard_normal((n, q))
        tree = fit_partition(g, Z, TreeConfig(depth, min_leaf))
        ref = greedy_tree_brute(g, Z, depth, min_leaf)
        ref_rows = tree_leaf_rows(ref)
        fit_rows = fitted_leaf_rows(tree, Z)
        ref_sets = sorted(tuple(r.tolist()) for r in ref_rows)
        fit_sets = sorted(tuple(np.sort(r).tolist()) for r in fit_rows)
        assert fit_sets == ref_sets, f"partition mismatch at rep {rep}"
        assert partition_sse(g, fit_rows) == partition_sse(g, ref_rows)


def test_eight_row_depth2_matches_global_exhaustive():
    # greedy growth only matches the global depth-2 optimum when the
    # best immediate split also leads to the best total; these seeds are
    # verified instances of that case, with the global enumeration as
    # the oracle (greedy is provably weaker on adversarial data)
    for seed in (0, 8, 13, 21, 30):
        rng = np.random.default_rng(seed)
        g = rng.standard_normal(8)
        Z = rng.standard_normal((8, 2))
        tree = fit_partition(g, Z, TreeConfig(2, 1))
        fitted = partition_sse(g, fitted_leaf_rows(tree, Z))
        assert fitted == pytest.approx(exhaustive_depth2_sse(g, Z, 1), abs=1e-12)


def test_split_determinism():
    rng = np.random.default_rng(9)
    g = rng.standard_normal(300)
    Z = rng.standard_normal((300, 4))
    t1 = fit_partition(g, Z, TreeConfig(2, 5))
    t2 = fit_partition(g.copy(), Z.copy(), TreeConfig(2, 5))
    assert np.array_equal(t1.feature, t2.feature)
    assert np.array_equal(t1.threshold, t2.threshold, equal_nan=True)
    assert np.array_equal(t1.count, t2.count)
    assert np.array_equal(t1.gain, t2.gain)


def test_tie_breaking_prefers_lowest_feature_and_threshold():
    # two identical columns: equal best gains; feature 0 must win
    g = np.array([-1.0, -1.0, 1.0, 1.0])
    col = np.array([1.0, 2.0, 3.0, 4.0])
    Z = np.column_stack([col, col])
    tree = fit_partition(g, Z, TreeConfig(1, 1))
    assert int(tree.feature[0]) == 0


def test_constant_column_is_one_bin_without_candidates():
    rng = np.random.default_rng(3)
    g = rng.standard_normal(40)
    flag = (np.arange(40) % 2).astype(float)
    Z = np.column_stack([np.full(40, 7.0), flag])
    index = presort_columns(Z)
    assert index.binned.tolist() == [0, 1]
    assert index.levels[0].tolist() == [7.0]
    tree = fit_partition(g + 3.0 * flag, Z, TreeConfig(1, 5))
    assert int(tree.feature[0]) == 1
    assert float(tree.threshold[0]) == 0.5
    only = fit_partition(g, Z[:, :1], TreeConfig(2, 1))
    assert only.n_nodes == 1


def test_binned_columns_without_valid_cut_leave_presorted_winner():
    # the indicator separates the gradients perfectly but has 5 rows on
    # one side, below min_samples_leaf; only the continuous column splits
    rng = np.random.default_rng(4)
    n = 40
    flag = np.zeros(n)
    flag[:5] = 1.0
    g = np.where(flag > 0, 10.0, 0.0) + rng.standard_normal(n)
    cont = rng.standard_normal(n)
    index = presort_columns(np.column_stack([flag, cont]))
    assert index.binned.tolist() == [0]
    tree = fit_partition(g, np.column_stack([flag, cont]), TreeConfig(1, 10))
    assert int(tree.feature[0]) == 1
    assert fit_partition(g, flag[:, None], TreeConfig(1, 10)).n_nodes == 1


def test_binned_cut_may_leave_exactly_min_samples_leaf():
    n, min_leaf = 40, 10
    codes = np.repeat([0.0, 1.0, 2.0], [min_leaf, 15, 15])
    g = np.where(codes == 0.0, -3.0, 1.0)
    tree = fit_partition(g, codes[:, None], TreeConfig(1, min_leaf))
    assert presort_columns(codes[:, None]).binned.tolist() == [0]
    assert float(tree.threshold[0]) == 0.5
    assert int(tree.count[tree.left[0]]) == min_leaf
    assert int(tree.count[tree.right[0]]) == n - min_leaf
    # one more row of min_samples_leaf moves the cut to the next bin
    stricter = fit_partition(g, codes[:, None], TreeConfig(1, min_leaf + 1))
    assert float(stricter.threshold[0]) == 1.5


def test_binned_value_equal_to_threshold_routes_left():
    # adjacent floats: the midpoint rounds up, so the threshold is the
    # lower value itself and its rows must route left
    lo = 1.0
    hi = float(np.nextafter(lo, 2.0))
    z = np.repeat([lo, hi], 20)
    g = np.where(z == lo, -1.0, 1.0)
    tree = fit_partition(g, z[:, None], TreeConfig(1, 1))
    assert float(tree.threshold[0]) == lo
    left = int(tree.left[0])
    assert int(tree.count[left]) == 20
    assert tree.assign(np.array([[lo], [hi]])).tolist() == [left, int(tree.right[0])]


def onehot(codes, levels):
    return (np.asarray(codes)[:, None] == np.arange(levels)).astype(float)


def test_two_level_group_tie_records_the_lower_column():
    # the members of a two-level group split every node the same way;
    # their bundle gains are bit-equal, so the lower column wins whichever
    # order the group lists them in
    rng = np.random.default_rng(21)
    n = 200
    gas = onehot(rng.random(n) < 0.4, 2)
    Z = np.column_stack([rng.standard_normal(n), gas])
    for groups in ([[1, 2]], [[2, 1]]):
        index = presort_columns(Z, groups)
        assert [b.tolist() for b in index.bundles] == groups
        for seed in range(20):
            g = np.random.default_rng(seed).standard_normal(n) + 3.0 * gas[:, 1]
            tree = fit_partition(g, Z, TreeConfig(1, 5), presorted=index)
            assert int(tree.feature[0]) == 1
            assert float(tree.threshold[0]) == 0.5


@pytest.mark.parametrize("partial", [False, True], ids=["whole", "partial"])
def test_bundled_scan_records_the_per_column_trees(partial):
    # bundles change how member splits are found, not which: trees and
    # their stored gains are those of scanning every member on its own.
    # A partial group (a level left out) leaves some rows in no member
    rng = np.random.default_rng(30)
    n = 400
    region, brand = rng.integers(0, 5, n), rng.integers(0, 3, n)
    Z = np.column_stack(
        [
            onehot(region, 5),
            rng.integers(0, 6, n).astype(float),
            rng.standard_normal(n),
            onehot(brand, 3),
        ]
    )
    groups = [[0, 1, 2, 3, 4], [7, 8, 9]]
    if partial:
        Z = np.delete(Z, [2, 8], axis=1)
        groups = [[0, 1, 2, 3], [6, 7]]
    index = presort_columns(Z, groups)
    assert [b.tolist() for b in index.bundles] == groups
    assert index.binned.tolist() == [len(groups[0])]
    per_column = presort_columns(Z)
    cfg = TreeConfig(3, 10)
    features = set()
    for _ in range(10):
        g = rng.standard_normal(n) + (region == 1) - 0.7 * (brand == 2)
        bundled = fit_partition(g, Z, cfg, presorted=index)
        plain = fit_partition(g, Z, cfg, presorted=per_column)
        assert tree_field_bytes(bundled) == tree_field_bytes(plain)
        features.update(bundled.feature)
    assert features & set(groups[0]) and features & set(groups[1])


def test_group_that_is_not_one_hot_is_scanned_per_column():
    # a group whose columns are not 0/1 with at most one 1 per row gets
    # no bundle: its columns are scanned one by one
    rng = np.random.default_rng(5)
    n = 80
    members = onehot(rng.integers(0, 3, n), 3)
    overlap = members.copy()
    overlap[0, :2] = 1.0
    scaled = 2.0 * members
    for Z in (overlap, scaled):
        index = presort_columns(Z, [[0, 1, 2]])
        assert index.bundles == ()
        assert index.binned.tolist() == [0, 1, 2]


def test_fit_partition_builds_the_same_index_when_none_is_given():
    rng = np.random.default_rng(12)
    n = 400
    Z = np.column_stack(
        [
            rng.integers(0, 5, n).astype(float),
            rng.standard_normal(n),
            rng.random(n) < 0.3,
            rng.integers(0, 40, n).astype(float),
        ]
    )
    g = rng.standard_normal(n) + Z[:, 0] * Z[:, 2]
    index = presort_columns(Z)
    assert index.binned.tolist() == [0, 2, 3]
    cfg = TreeConfig(3, 5)
    given = fit_partition(g, Z, cfg, presorted=index)
    built = fit_partition(g, Z, cfg)
    assert tree_field_bytes(given) == tree_field_bytes(built)
    assert given.n_nodes > 3


@pytest.mark.parametrize("col0", ["binned", "presorted"])
@pytest.mark.parametrize("max_depth", [1, 2, 3, 4])
def test_assign_out_matches_routing_across_reused_index(col0, max_depth):
    rng = np.random.default_rng(40 + max_depth)
    n = 300
    first = (
        rng.integers(0, 6, n).astype(float)
        if col0 == "binned"
        else rng.standard_normal(n)
    )
    Z = np.column_stack(
        [
            first,
            np.round(rng.standard_normal(n), 1),
            rng.random(n) < 0.4,
            rng.standard_normal(n),
        ]
    )
    index = presort_columns(Z)
    assert (0 in index.sorted_slots) == (col0 == "presorted")
    assert index.sorted_slots and index.binned.size
    cfg = TreeConfig(max_depth, 8)
    depths = set()
    for _ in range(24):
        g = rng.standard_normal(n) + 2.0 * (Z[:, 0] > np.median(Z[:, 0]))
        out = np.full(n, -1, dtype=np.int32)
        tree = fit_partition(g, Z, cfg, presorted=index, assign_out=out)
        assert np.array_equal(out, tree.assign(Z))
        leaves = tree.leaf_ids()
        assert np.array_equal(
            np.bincount(out, minlength=tree.n_nodes)[leaves],
            np.take(tree.count, leaves),
        )
        fresh = fit_partition(g, Z, cfg, presorted=presort_columns(Z))
        assert tree_field_bytes(tree) == tree_field_bytes(fresh)
        depth = np.zeros(tree.n_nodes, dtype=int)  # parents precede children
        for node in np.flatnonzero(np.asarray(tree.feature) >= 0):
            depth[[tree.left[node], tree.right[node]]] = depth[node] + 1
        depths.add(int(depth.max()))
    assert max(depths) == max_depth  # leaf children at max_depth were built


def test_route_single_leaf_and_tie_rule():
    tree, g, Z = four_row_tree()
    # value equal to the threshold goes left
    left_id = int(tree.left[0])
    assert int(tree.assign(np.array([2.5]))[0]) == left_id
    single = fit_partition(np.array([2.0, 2.0]), np.zeros((2, 1)), TreeConfig(1, 1))
    adjust_leaves(
        single,
        np.zeros((2, 1)),
        np.ones(2),
        np.zeros(2),
        np.array([3.0, 5.0]),
        np.ones(2),
        losses.GAUSSIAN,
        losses.IDENTITY,
    )
    queries = np.array([[-10.0], [0.0], [10.0]])
    assert single.assign(queries).tolist() == [0, 0, 0]
    np.testing.assert_allclose(single.predict(queries), 4.0)


def test_route_four_row_example_after_adjust():
    tree, g, Z = four_row_tree()
    # gaussian/identity with eta=0, x=1 makes each leaf value the leaf
    # mean of y; feeding y = g reproduces the gradient means
    adjust_leaves(
        tree, Z, np.ones(4), np.zeros(4), g, np.ones(4), losses.GAUSSIAN, losses.IDENTITY
    )
    np.testing.assert_allclose(tree.predict(np.array([[1.0], [4.0]])), [-1.0, 1.0])


def test_from_dict_of_to_dict_is_the_same_tree():
    rng = np.random.default_rng(23)
    n = 300
    Z = np.column_stack([rng.standard_normal(n), rng.integers(0, 4, n)])
    g = rng.standard_normal(n) + Z[:, 1]
    fitted = fit_partition(g, Z, TreeConfig(3, 10))
    adjust_leaves(fitted, Z, rng.standard_normal(n), np.zeros(n),
                  rng.standard_normal(n), np.ones(n), losses.GAUSSIAN,
                  losses.IDENTITY)
    fitted.value[int(fitted.leaf_ids()[0])] = -0.0
    single = fit_partition(np.ones(4), np.zeros((4, 1)), TreeConfig(1, 1))
    for tree in (fitted, single):
        back = RegressionTree.from_dict(tree.to_dict())
        fields, back_fields = tree_field_bytes(tree), tree_field_bytes(back)
        # the format keeps a row count for leaves alone
        leaves = tree.leaf_ids()
        assert (np.take(back.count, leaves).tolist()
                == np.take(tree.count, leaves).tolist())
        del fields["count"], back_fields["count"]
        assert back_fields == fields
        again = RegressionTree.from_dict(back.to_dict())
        assert tree_field_bytes(again) == tree_field_bytes(back)
        assert again.n_features == tree.n_features


def test_route_arity_mismatch():
    tree, _, _ = four_row_tree()
    with pytest.raises(DomainError):
        tree.assign(np.array([1.0, 2.0]))
    with pytest.raises(DomainError):
        tree.predict(np.zeros((3, 2)))


def test_routing_frees_its_input_on_return():
    tree, _, _ = four_row_tree()
    gc.disable()
    try:
        for route in (tree.predict, tree.assign):
            Q = np.array([[0.5], [3.5]])
            routed = weakref.ref(Q)
            route(Q)
            del Q
            assert routed() is None
    finally:
        gc.enable()


def test_routing_matches_region_scan():
    rng = np.random.default_rng(17)
    g = rng.standard_normal(500)
    Z = rng.standard_normal((500, 3))
    tree = fit_partition(g, Z, TreeConfig(2, 10))
    leaves = tree.leaf_ids()
    queries = rng.standard_normal((10000, 3))
    assigned = tree.assign(queries)
    for i in range(queries.shape[0]):
        k = route_by_regions(tree, queries[i])
        assert int(assigned[i]) == int(leaves[k])


@st.composite
def adjusted_trees(draw):
    """A fitted tree of depth 1-3 whose leaf values ``adjust_leaves`` set
    after it was frozen, some then overwritten with -0.0, plus query
    rows that include one row sitting exactly on each threshold."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, q = draw(st.integers(1, 60)), draw(st.integers(1, 3))
    if draw(st.booleans()):  # tied values
        Z = rng.integers(0, 4, (n, q)).astype(float)
    else:
        Z = rng.standard_normal((n, q))
    constant = draw(st.booleans())  # constant gradients: one leaf
    g = np.ones(n) if constant else rng.standard_normal(n)
    depth, min_leaf = draw(st.integers(1, 3)), draw(st.integers(1, 5))
    tree = fit_partition(g, Z, TreeConfig(depth, min_leaf))
    x = np.where(rng.random(n) < 0.2, 0.0, rng.standard_normal(n))
    adjust_leaves(tree, Z, x, np.zeros(n), rng.standard_normal(n), np.ones(n),
                  losses.GAUSSIAN, losses.IDENTITY)
    for lid in tree.leaf_ids().tolist():
        if draw(st.booleans()):
            tree.value[lid] = -0.0
    feature = np.asarray(tree.feature)
    internal = np.flatnonzero(feature >= 0)
    on_threshold = np.repeat(Z[:1], internal.size, axis=0)
    on_threshold[np.arange(internal.size), feature[internal]] = np.take(
        tree.threshold, internal
    )
    return tree, np.vstack([Z, on_threshold, rng.standard_normal((5, q))])


def descend_one_row(tree, row):
    node = 0
    while tree.feature[node] >= 0:
        go_left = row[tree.feature[node]] <= tree.threshold[node]
        node = tree.left[node] if go_left else tree.right[node]
    return int(node)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(adjusted_trees())
def test_predict_equals_leaf_values_of_assign_bit_for_bit(case):
    tree, queries = case
    for Q in (queries, queries[:0], queries[0]):  # many, zero and one 1-D row
        leaf = tree.assign(Q)
        assert leaf.dtype == np.int32
        rows = np.atleast_2d(Q)
        assert leaf.tolist() == [descend_one_row(tree, r) for r in rows]
        got, expected = tree.predict(Q), np.take(tree.value, leaf)
        assert got.dtype == np.float64 and got.shape == (rows.shape[0],)
        # compared as bit patterns, so -0.0 and 0.0 differ
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))


def test_adjust_zero_direction_leaf():
    tree = fit_partition(
        np.array([1.0, -1.0]), np.array([[0.0], [1.0]]), TreeConfig(1, 1)
    )
    adjust_leaves(
        tree,
        np.array([[0.0], [1.0]]),
        np.zeros(2),
        np.zeros(2),
        np.ones(2),
        np.ones(2),
        losses.GAUSSIAN,
        losses.IDENTITY,
    )
    assert all(float(v) == 0.0 for v in tree.value)


def test_adjust_gaussian_closed_form_single_row():
    tree = fit_partition(np.array([1.0]), np.zeros((1, 1)), TreeConfig(1, 1))
    adjust_leaves(
        tree,
        np.zeros((1, 1)),
        np.array([2.0]),
        np.array([1.0]),
        np.array([3.0]),
        np.array([1.0]),
        losses.GAUSSIAN,
        losses.IDENTITY,
    )
    assert float(tree.value[0]) == pytest.approx(1.0)  # 2*(3-1)/4


def test_adjust_poisson_stationarity_residual():
    # counts observed over exposure w enter as y = count / w; at the
    # minimizer, sum(w*x*exp(eta+gamma*x)) equals sum(count*x)
    rng = np.random.default_rng(23)
    n = 400
    x = rng.standard_normal(n)
    eta = rng.uniform(-1.0, 0.5, size=n)
    w = rng.uniform(0.5, 2.0, size=n)
    counts = rng.poisson(w * np.exp(eta)).astype(float)
    y = counts / w
    g = losses.directional_gradient(losses.POISSON, losses.LOG, x, eta, y, w)
    Z = rng.standard_normal((n, 2))
    tree = fit_partition(g, Z, TreeConfig(2, 20))
    adjust_leaves(tree, Z, x, eta, y, w, losses.POISSON, losses.LOG)
    leaf_of = tree.assign(Z)
    for lid in tree.leaf_ids():
        rows = np.flatnonzero(leaf_of == lid)
        rows = rows[x[rows] != 0.0]
        gamma = float(tree.value[lid])
        lhs = float(np.sum(w[rows] * x[rows] * np.exp(eta[rows] + gamma * x[rows])))
        rhs = float(np.sum(counts[rows] * x[rows]))
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))


@pytest.mark.parametrize("pair", ["gaussian", "poisson"])
def test_adjust_never_increases_leaf_loss(pair):
    rng = np.random.default_rng(31)
    if pair == "gaussian":
        loss, link = losses.GAUSSIAN, losses.IDENTITY
    else:
        loss, link = losses.POISSON, losses.LOG
    for rep in range(20):
        n = int(rng.integers(30, 200))
        x = rng.standard_normal(n)
        eta = rng.uniform(-1.0, 1.0, size=n)
        y = (
            rng.standard_normal(n) + eta
            if pair == "gaussian"
            else rng.poisson(np.exp(eta)).astype(float)
        )
        w = rng.uniform(0.5, 2.0, size=n)
        Z = rng.standard_normal((n, 2))
        g = losses.directional_gradient(loss, link, x, eta, y, w)
        tree = fit_partition(g, Z, TreeConfig(2, 5))
        adjust_leaves(tree, Z, x, eta, y, w, loss, link)
        leaf_of = tree.assign(Z)
        for lid in tree.leaf_ids():
            rows = np.flatnonzero(leaf_of == lid)
            gamma = float(tree.value[lid])
            before = float(np.sum(loss.value(link.inverse(eta[rows]), y[rows], w[rows])))
            after = float(
                np.sum(
                    loss.value(
                        link.inverse(eta[rows] + gamma * x[rows]), y[rows], w[rows]
                    )
                )
            )
            assert after <= before + 1e-12


def poisson_leaf_step(x, eta, y, w):
    """Value adjust_leaves gives a one-leaf tree over these rows."""
    n = len(x)
    tree = fit_partition(np.zeros(n), np.zeros((n, 1)), TreeConfig(1, n))
    adjust_leaves(
        tree, np.zeros((n, 1)), x, eta, y, w, losses.POISSON, losses.LOG
    )
    return float(tree.value[0])


def poisson_leaf_loss(gamma, x, eta, y, w):
    return float(np.sum(losses.POISSON.value(np.exp(eta + gamma * x), y, w)))


@pytest.mark.parametrize("c", [1.0, 0.75, -1.3])
def test_constant_x_leaf_is_intercept_closed_form(c):
    rng = np.random.default_rng(61)
    n = 50
    eta = rng.uniform(-2.0, 0.5, size=n)
    w = rng.uniform(0.1, 1.0, size=n)
    y = rng.poisson(2.0 * np.exp(eta)).astype(float) / w
    x = np.full(n, c)
    expected = losses.intercept_shift(losses.POISSON, losses.LOG, eta, y, w) / c
    assert expected != 0.0
    assert poisson_leaf_step(x, eta, y, w) == expected


def test_leaf_with_finite_optimum_is_not_zeroed():
    # a one-hot leaf from a 4000-row bench/claims.py input under the
    # claims-poisson settings; a Newton line search on the loss stalls
    # next to this optimum, where float64 cannot resolve the decrease
    x = np.ones(4)
    eta = np.array(
        [-1.2903747563422177, 0.3669112393556285, -1.0308170229656957, -0.8358695485802475]
    )
    y = np.array([1.0, 3.0, 1.0, 1.4705882352941175])
    w = np.array([1.0, 1.0, 1.0, 0.68])
    gamma = poisson_leaf_step(x, eta, y, w)
    assert gamma != 0.0
    assert gamma == pytest.approx(0.9288986033028055, rel=1e-12)
    assert poisson_leaf_loss(gamma, x, eta, y, w) < poisson_leaf_loss(0.0, x, eta, y, w)


def test_zero_response_leaf_returns_zero_without_logging(caplog):
    # with y == 0 and x > 0 the deviance falls towards gamma -> -inf
    x = np.array([0.5, 1.0, 2.0, 1.0])
    eta = np.array([-1.0, 0.0, 0.3, -0.2])
    y = np.zeros(4)
    w = np.array([0.3, 1.0, 0.7, 0.2])
    with caplog.at_level(logging.DEBUG, logger="tvcm"):
        assert poisson_leaf_step(x, eta, y, w) == 0.0
    assert caplog.records == []


def test_zero_response_leaf_with_mixed_sign_x_takes_its_minimiser():
    # x of both signs bounds the deviance, so a finite minimiser exists
    x = np.array([1.0, -0.5, 2.0, -1.5])
    eta = np.array([-1.0, 0.0, 0.3, -0.2])
    y = np.zeros(4)
    w = np.array([0.3, 1.0, 0.7, 0.2])
    gamma = poisson_leaf_step(x, eta, y, w)
    d1 = float(np.sum(w * x * np.exp(eta + gamma * x)))
    assert gamma != 0.0
    assert abs(d1) <= 1e-12 * float(np.sum(w * np.abs(x) * np.exp(eta + gamma * x)))
    assert poisson_leaf_loss(gamma, x, eta, y, w) < poisson_leaf_loss(0.0, x, eta, y, w)


@pytest.mark.parametrize("kind", ["gaussian", "poisson"])
def test_adjust_leaves_given_the_row_loss_sets_the_same_values(kind):
    # the fit loop's leaf step reads the per-row loss its EtaRecord already
    # holds; adjust_leaves computes it, and every node field is the same
    loss, link = (
        (losses.GAUSSIAN, losses.IDENTITY) if kind == "gaussian"
        else (losses.POISSON, losses.LOG)
    )
    rng = np.random.default_rng(8)
    n = 500
    Z = np.column_stack([rng.standard_normal(n), rng.integers(0, 5, n)])
    x = np.where(rng.random(n) < 0.3, 0.0, rng.standard_normal(n))
    eta = rng.normal(-1.0, 0.5, size=n)
    w = rng.uniform(0.2, 2.0, size=n)
    y = (rng.poisson(w * np.exp(eta)) / w if kind == "poisson"
         else rng.standard_normal(n))
    record = losses.EtaRecord(loss, link, eta, y, w)
    config = TreeConfig(3, 10)
    fitted = fit_gradient_tree(x, Z, record, config)
    adjusted = fit_partition(x * record.base, Z, config)
    adjust_leaves(adjusted, Z, x, eta, y, w, loss, link)
    assert np.count_nonzero(fitted.value) >= 4
    assert tree_field_bytes(fitted) == tree_field_bytes(adjusted)


def test_root_counts_are_the_histogram_of_every_row():
    rng = np.random.default_rng(2)
    Z = np.column_stack([rng.integers(0, 4, 300), rng.integers(0, 9, 300),
                         rng.standard_normal(300)]).astype(float)
    index = presort_columns(Z)
    assert index.binned.tolist() == [0, 1]
    for c, f in enumerate(index.binned.tolist()):
        levels, counts = np.unique(Z[:, f], return_counts=True)
        assert index.root_counts[c, : levels.size].tolist() == counts.tolist()
        assert not index.root_counts[c, levels.size :].any()


def test_tie_free_columns_are_the_presorted_columns_with_distinct_values():
    rng = np.random.default_rng(6)
    n = 64
    cont = rng.standard_normal(n)
    repeated = cont.copy()
    repeated[9] = repeated[40]
    signed_zero = cont.copy()
    signed_zero[[3, 17]] = [0.0, -0.0]
    Z = np.column_stack(
        [cont, repeated, signed_zero, rng.integers(0, 4, n), -cont]
    ).astype(float)
    index = presort_columns(Z)
    assert index.shape == (n, 5)
    assert index.binned.tolist() == [3]
    assert sorted(index.sorted_slots) == [0, 1, 2, 4]
    assert index.tie_free == {0, 4}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_modifier_or_gradient_is_rejected(bad):
    rng = np.random.default_rng(6)
    g = rng.standard_normal(50)
    Z = rng.standard_normal((50, 2))
    Z[[7, 31], [1, 0]] = bad
    for build in (lambda: presort_columns(Z),
                  lambda: fit_partition(g, Z, TreeConfig(2, 5))):
        with pytest.raises(
            DomainError, match="non-finite modifier at row 7, column 1"
        ):
            build()
    clean = rng.standard_normal((50, 2))
    g[[12, 40]] = bad
    with pytest.raises(DomainError, match="non-finite gradient at row 12"):
        fit_partition(g, clean, TreeConfig(2, 5), presorted=presort_columns(clean))


def test_no_cut_between_tied_values():
    # gradients change sign inside a run of tied values, where the best
    # cut would fall; no tree cuts there (threshold 18.0), whether the
    # tied column is column 0 or another presorted column
    rng = np.random.default_rng(11)
    n = 40
    z = np.arange(n, dtype=float)
    z[18:23] = 18.0
    g = np.where(np.arange(n) < 20, -1.0, 1.0)
    shuffle = rng.permutation(n)
    z, g = z[shuffle], g[shuffle]
    for Z in (z[:, None], np.column_stack([rng.permutation(n) * 0.1, z])):
        f = Z.shape[1] - 1
        index = presort_columns(Z)
        assert f in index.sorted_slots and f not in index.tie_free
        for depth, min_leaf in ((1, 1), (3, 1), (2, 4)):
            tree = fit_partition(g, Z, TreeConfig(depth, min_leaf))
            thr = np.asarray(tree.threshold)[np.asarray(tree.feature) == f]
            assert thr.size and not np.any(thr == 18.0)
            if f == 0:  # the only column: tied rows share a leaf
                assert np.unique(tree.assign(Z)[z == 18.0]).size == 1


@st.composite
def mixed_column_fits(draw):
    """Gradients, a modifier matrix of continuous, rounded and partly
    repeated columns, and a tree config of depth 1-3, min leaf 1-14."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 240))
    kinds = draw(st.lists(st.sampled_from(["continuous", "rounded", "mixed"]),
                          min_size=1, max_size=4))
    cols = []
    for kind in kinds:
        col = rng.standard_normal(n)
        if kind == "rounded":
            col = np.round(col, draw(st.integers(0, 2)))
        elif kind == "mixed":  # a few values repeated
            k = draw(st.integers(1, max(1, n // 4)))
            col[rng.integers(0, n, k)] = col[rng.integers(0, n, k)]
        cols.append(col)
    Z = np.column_stack(cols)
    g = rng.standard_normal(n) + 2.0 * (Z[:, -1] > 0)
    config = TreeConfig(draw(st.integers(1, 3)), draw(st.integers(1, 14)))
    return g, Z, config


@settings(max_examples=200, deadline=None, derandomize=True)
@given(mixed_column_fits())
def test_tie_free_scan_fits_the_trees_of_the_masked_scan(case):
    # the masked scan (every presorted column checked for equal values)
    # is the reference: the tie-free path must give the same bytes
    g, Z, config = case
    index = presort_columns(Z)
    masked = dataclasses.replace(index, tie_free=frozenset())
    outs = [np.full(g.size, -1, dtype=np.int32) for _ in range(2)]
    fast = fit_partition(g, Z, config, presorted=index, assign_out=outs[0])
    slow = fit_partition(g, Z, config, presorted=masked, assign_out=outs[1])
    assert tree_field_bytes(fast) == tree_field_bytes(slow)
    assert outs[0].tobytes() == outs[1].tobytes()


@pytest.mark.parametrize(
    "rows, cols, built",
    [(slice(0, 100), slice(None), "100x3"),
     (slice(None), slice(0, 2), "120x2"),
     (None, None, "150x3")],
    ids=["fewer-rows", "fewer-columns", "more-rows"],
)
def test_split_index_of_another_shape_is_rejected(rows, cols, built):
    rng = np.random.default_rng(13)
    Z = rng.standard_normal((120, 3))
    other = rng.standard_normal((150, 3)) if rows is None else Z[rows, cols]
    index = presort_columns(other)
    assert index.shape == other.shape
    with pytest.raises(
        DomainError, match=f"built for a {built} matrix, modifiers are 120x3"
    ):
        fit_partition(rng.standard_normal(120), Z, TreeConfig(2, 5),
                      presorted=index)


@st.composite
def mixed_sign_leaves(draw):
    """Leaf rows with x of both signs, random weights and sum(w*y) > 0."""
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(2, 60))
    scale = draw(st.sampled_from([0.05, 1.0, 6.0]))
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.05, 2.0, size=n) * scale * rng.choice([-1.0, 1.0], size=n)
    x[0], x[1] = abs(x[0]), -abs(x[1])
    eta = rng.uniform(-4.0, 2.0, size=n)
    w = rng.uniform(0.01, 2.0, size=n)
    counts = rng.poisson(rng.uniform(0.0, 3.0) * w * np.exp(eta))
    counts[rng.integers(n)] += 1
    return x, eta, counts / w, w


@settings(max_examples=200, deadline=None, derandomize=True)
@given(mixed_sign_leaves())
def test_newton_leaf_step_is_stationary_and_descends(leaf):
    x, eta, y, w = leaf
    gamma = _newton_gamma(x, eta, y, w)
    d1 = float(np.sum(w * x * (np.exp(eta + gamma * x) - y)))
    assert abs(d1) <= 1e-9 * float(np.sum(np.abs(w * x * y)))
    f0 = poisson_leaf_loss(0.0, x, eta, y, w)
    assert poisson_leaf_loss(gamma, x, eta, y, w) <= f0 + 1e-12 * f0
    again = _newton_gamma(x, eta, y, w)
    assert np.float64(again).tobytes() == np.float64(gamma).tobytes()


def test_split_gains_recomputed_from_node_statistics():
    rng = np.random.default_rng(41)
    g = rng.standard_normal(600)
    Z = rng.standard_normal((600, 3))
    tree = fit_partition(g, Z, TreeConfig(2, 10))
    # recompute each internal node's gain by routing its rows
    def node_rows(nid, rows):
        if tree.feature[nid] < 0:
            return {}
        f, t = int(tree.feature[nid]), float(tree.threshold[nid])
        left = rows[Z[rows, f] <= t]
        right = rows[Z[rows, f] > t]
        out = {nid: sse(g[rows]) - sse(g[left]) - sse(g[right])}
        out.update(node_rows(int(tree.left[nid]), left))
        out.update(node_rows(int(tree.right[nid]), right))
        return out

    recomputed = node_rows(0, np.arange(600))
    totals = {}
    for nid, gain in recomputed.items():
        f = int(tree.feature[nid])
        totals[f] = totals.get(f, 0.0) + gain
        assert float(tree.gain[nid]) == pytest.approx(gain, rel=1e-9, abs=1e-9)
    got = tree.split_gains()
    assert set(got) == set(totals)
    for f, total in totals.items():
        assert got[f] == pytest.approx(total, rel=1e-9, abs=1e-9)


def test_split_gains_sum_repeated_feature():
    # four plateaus along one feature force every depth-2 split onto it
    rng = np.random.default_rng(55)
    z = np.linspace(-2, 2, 200)
    g = np.select(
        [z < -1.0, z < 0.0, z < 1.0], [-6.0, -2.0, 2.0], default=6.0
    ) + 0.01 * rng.standard_normal(200)
    Z = np.column_stack([z, rng.standard_normal(200) * 0.01])
    tree = fit_partition(g, Z, TreeConfig(2, 10))
    internals = [i for i in range(tree.n_nodes) if tree.feature[i] >= 0]
    assert len(internals) == 3
    assert all(int(tree.feature[i]) == 0 for i in internals)
    gains = tree.split_gains()
    assert set(gains) == {0}
    assert gains[0] == pytest.approx(
        float(sum(tree.gain[i] for i in internals)), rel=1e-12
    )


def test_serialization_round_trip():
    tree, g, Z = four_row_tree()
    adjust_leaves(
        tree, Z, np.ones(4), np.zeros(4), g, np.ones(4), losses.GAUSSIAN, losses.IDENTITY
    )
    clone = RegressionTree.from_dict(tree.to_dict())
    queries = np.linspace(-1, 6, 50)[:, None]
    assert np.array_equal(tree.predict(queries), clone.predict(queries))
    assert clone.split_gains() == tree.split_gains()

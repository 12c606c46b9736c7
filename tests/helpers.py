"""Shared reference implementations used as test oracles.

Everything here is deliberately independent of the package internals:
sums of squares are computed directly, candidate splits are enumerated
by brute force, and trees are represented as plain nested tuples.
"""

from __future__ import annotations

import numpy as np


def sse(values: np.ndarray) -> float:
    if values.size == 0:
        return 0.0
    mean = values.mean()
    return float(np.sum((values - mean) ** 2))


def candidate_thresholds(column: np.ndarray, min_leaf: int) -> list[float]:
    """Midpoints between consecutive distinct sorted values, honoring
    min_leaf on both sides."""
    v = np.sort(column)
    out = []
    m = v.size
    for i in range(min_leaf - 1, m - min_leaf):
        if v[i] < v[i + 1]:
            thr = 0.5 * (v[i] + v[i + 1])
            if thr >= v[i + 1]:
                thr = v[i]
            out.append(float(thr))
    return out


def best_split_brute(g: np.ndarray, Z: np.ndarray, min_leaf: int):
    """Exhaustive best (gain, feature, threshold) at one node.

    Gains are computed from plain sums of squares. Ties resolve to the
    lowest feature index, then the lowest threshold, matching the
    documented determinism rule.
    """
    parent = sse(g)
    best = None
    for f in range(Z.shape[1]):
        for thr in candidate_thresholds(Z[:, f], min_leaf):
            left = Z[:, f] <= thr
            nl = int(left.sum())
            if nl < min_leaf or g.size - nl < min_leaf:
                continue
            gain = parent - sse(g[left]) - sse(g[~left])
            if best is None or gain > best[0]:
                best = (gain, f, thr)
    return best


def greedy_tree_brute(g: np.ndarray, Z: np.ndarray, max_depth: int, min_leaf: int):
    """Reference greedy tree; node-wise exhaustive split search.

    Returns nested tuples: ("leaf", row_index_array) or
    ("split", feature, threshold, left_subtree, right_subtree).
    Row indices refer to the original dataset.
    """

    def build(rows: np.ndarray, depth: int):
        gr = g[rows]
        if depth >= max_depth or rows.size < 2 * min_leaf:
            return ("leaf", rows)
        parent = sse(gr)
        if parent <= 0.0:
            return ("leaf", rows)
        best = best_split_brute(gr, Z[rows], min_leaf)
        if best is None or best[0] <= 1e-12 * parent:
            return ("leaf", rows)
        _, f, thr = best
        left = Z[rows, f] <= thr
        return (
            "split",
            f,
            thr,
            build(rows[left], depth + 1),
            build(rows[~left], depth + 1),
        )

    return build(np.arange(g.size), 0)


def tree_leaf_rows(node) -> list[np.ndarray]:
    if node[0] == "leaf":
        return [node[1]]
    return tree_leaf_rows(node[3]) + tree_leaf_rows(node[4])


def partition_sse(g: np.ndarray, leaf_rows: list[np.ndarray]) -> float:
    return float(sum(sse(g[rows]) for rows in leaf_rows))


def tree_field_bytes(tree) -> dict[str, bytes]:
    """Each node field of a package tree as the bytes of a numpy array,
    so that -0.0, NaN and an int stored where a float belongs all count."""
    fields = ("feature", "threshold", "left", "right", "value", "count", "gain")
    return {f: np.asarray(getattr(tree, f)).tobytes() for f in fields}


def fitted_leaf_rows(tree, Z: np.ndarray) -> list[np.ndarray]:
    """Row groups of a fitted package tree, ordered by leaf node id."""
    leaf_of = tree.assign(Z)
    return [np.flatnonzero(leaf_of == lid) for lid in tree.leaf_ids()]


def exhaustive_depth2_sse(g: np.ndarray, Z: np.ndarray, min_leaf: int) -> float:
    """Global optimum over all depth-2 trees (all split triples)."""

    def best_child(rows: np.ndarray) -> float:
        base = sse(g[rows])
        found = best_split_brute(g[rows], Z[rows], min_leaf)
        if found is None or found[0] <= 0:
            return base
        return base - found[0]

    best = sse(g)
    for f in range(Z.shape[1]):
        for thr in candidate_thresholds(Z[:, f], min_leaf):
            left = Z[:, f] <= thr
            nl = int(left.sum())
            if nl < min_leaf or g.size - nl < min_leaf:
                continue
            rows_l = np.flatnonzero(left)
            rows_r = np.flatnonzero(~left)
            best = min(best, best_child(rows_l) + best_child(rows_r))
    return best


def leaf_regions(tree) -> list[list[tuple[int, str, float]]]:
    """Constraint list per leaf: (feature, "le"/"gt", threshold)."""

    regions = []

    def walk(nid: int, constraints):
        if tree.feature[nid] < 0:
            regions.append(list(constraints))
            return
        f = int(tree.feature[nid])
        t = float(tree.threshold[nid])
        walk(int(tree.left[nid]), constraints + [(f, "le", t)])
        walk(int(tree.right[nid]), constraints + [(f, "gt", t)])

    walk(0, [])
    return regions


def route_by_regions(tree, z: np.ndarray) -> int:
    """Leaf index found by linearly scanning leaf regions; asserts the
    regions partition the space (exactly one match)."""
    matches = []
    for k, region in enumerate(leaf_regions(tree)):
        ok = all(
            (z[f] <= t) if op == "le" else (z[f] > t) for f, op, t in region
        )
        if ok:
            matches.append(k)
    assert len(matches) == 1, f"regions matched {len(matches)} leaves"
    return matches[0]

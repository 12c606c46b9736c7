"""Least-squares regression trees over effect-modifier space.

Trees are fitted greedily to gradient vectors (squared-error splits) and
then get each leaf value set to the exact minimiser of the loss along
the leaf's coefficient direction, in closed form where one exists and by
bracketed Newton on the derivative otherwise (see ``adjust_leaves``).
Candidate thresholds are midpoints between consecutive distinct sorted
feature values; among equal-gain splits the lowest feature index wins,
then the lowest threshold, and values equal to a threshold route left.
Fitted trees are immutable once published; ``assign``/``predict``/
``split_gains`` are read-only and safe to share.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .losses import directional_gradient, intercept_shift

logger = logging.getLogger("tvcm")

# relative floor below which a split gain is numerical noise, not signal
_GAIN_REL_EPS = 1e-12
# Newton iterations before a leaf step settles for its best bracketed point
_LEAF_MAX_ITER = 100


@dataclass(frozen=True)
class TreeConfig:
    max_depth: int = 2
    min_samples_leaf: int = 10

    def __post_init__(self):
        if self.max_depth < 1:
            raise DomainError("max_depth must be >= 1")
        if self.min_samples_leaf < 1:
            raise DomainError("min_samples_leaf must be >= 1")


class RegressionTree:
    """Axis-aligned binary partition stored as flat node arrays.

    Node 0 is the root. Internal nodes carry (feature, threshold,
    left, right, gain); leaves carry (value, count) and have
    feature == -1.
    """

    __slots__ = (
        "feature",
        "threshold",
        "left",
        "right",
        "value",
        "count",
        "gain",
        "n_features",
    )

    def __init__(self, n_features: int):
        self.feature: list | np.ndarray = []
        self.threshold: list | np.ndarray = []
        self.left: list | np.ndarray = []
        self.right: list | np.ndarray = []
        self.value: list | np.ndarray = []
        self.count: list | np.ndarray = []
        self.gain: list | np.ndarray = []
        self.n_features = int(n_features)

    # -- builder ----------------------------------------------------------

    def _add_node(self, count: int) -> int:
        self.feature.append(-1)
        self.threshold.append(np.nan)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(0.0)
        self.count.append(count)
        self.gain.append(0.0)
        return len(self.feature) - 1

    def _freeze(self) -> None:
        self.feature = np.asarray(self.feature, dtype=np.int32)
        self.threshold = np.asarray(self.threshold, dtype=float)
        self.left = np.asarray(self.left, dtype=np.int32)
        self.right = np.asarray(self.right, dtype=np.int32)
        self.value = np.asarray(self.value, dtype=float)
        self.count = np.asarray(self.count, dtype=np.int64)
        self.gain = np.asarray(self.gain, dtype=float)

    # -- read-only interface ----------------------------------------------

    @property
    def n_nodes(self) -> int:
        return len(self.feature)

    @property
    def n_leaves(self) -> int:
        return int(np.sum(np.asarray(self.feature) < 0))

    def leaf_ids(self) -> np.ndarray:
        return np.flatnonzero(np.asarray(self.feature) < 0)

    def assign(self, Z) -> np.ndarray:
        """Leaf node id for every row of Z (deterministic descent)."""
        Z = np.asarray(Z, dtype=float)
        if Z.ndim == 1:
            Z = Z[None, :]
        if Z.ndim != 2 or Z.shape[1] != self.n_features:
            raise DomainError(
                f"modifier row has arity {Z.shape[-1]}, tree expects "
                f"{self.n_features}"
            )

        def descend(node):
            f = self.feature[node]
            if f < 0:
                return node
            left, right = descend(self.left[node]), descend(self.right[node])
            return np.where(Z[:, f] <= self.threshold[node], left, right)

        return np.broadcast_to(descend(0), Z.shape[:1]).astype(np.int32)

    def predict(self, Z) -> np.ndarray:
        return self.value[self.assign(Z)]

    def split_gains(self) -> dict[int, float]:
        """Total split gain per feature index; empty for single-leaf trees."""
        out: dict[int, float] = {}
        for f, g in zip(self.feature, self.gain):
            if f >= 0:
                out[int(f)] = out.get(int(f), 0.0) + float(g)
        return out

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        nodes = []
        gains = []
        for i in range(self.n_nodes):
            if self.feature[i] >= 0:
                nodes.append(
                    {
                        "feature": int(self.feature[i]),
                        "threshold": float(self.threshold[i]),
                        "left": int(self.left[i]),
                        "right": int(self.right[i]),
                    }
                )
                gains.append(float(self.gain[i]))
            else:
                nodes.append(
                    {
                        "leaf_value": float(self.value[i]),
                        "count": int(self.count[i]),
                    }
                )
                gains.append(None)
        return {"n_features": self.n_features, "nodes": nodes, "gains": gains}

    @classmethod
    def from_dict(cls, payload: dict) -> "RegressionTree":
        tree = cls(payload["n_features"])
        gains = payload.get("gains") or [None] * len(payload["nodes"])
        for node, gain in zip(payload["nodes"], gains):
            nid = tree._add_node(node.get("count", 0))
            if "feature" in node:
                tree.feature[nid] = node["feature"]
                tree.threshold[nid] = node["threshold"]
                tree.left[nid] = node["left"]
                tree.right[nid] = node["right"]
                tree.gain[nid] = 0.0 if gain is None else gain
            else:
                tree.value[nid] = node["leaf_value"]
        tree._freeze()
        return tree


def presort_columns(Z) -> list[np.ndarray]:
    """Stable per-column sort orders, reusable across trees on the same Z."""
    Z = np.asarray(Z, dtype=float)
    return [
        np.argsort(Z[:, f], kind="stable").astype(np.int64)
        for f in range(Z.shape[1])
    ]


def _best_split_for_feature(v, gc, min_leaf):
    """Best (gain, threshold) on one presorted feature.

    ``v`` is sorted feature values, ``gc`` the matching centered
    gradients. Gains come from prefix sums of the centered gradients, so
    constant gradient vectors yield exact zeros.
    """
    m = v.size
    if m < 2 * min_leaf:
        return None
    lo, hi = min_leaf - 1, m - min_leaf  # split positions lo..hi-1
    valid = v[lo:hi] < v[lo + 1 : hi + 1]
    if not np.any(valid):
        return None
    cs = np.cumsum(gc)
    total = cs[-1]
    n_left = np.arange(lo + 1, hi + 1, dtype=float)
    s_left = cs[lo:hi]
    s_right = total - s_left
    gain = s_left * s_left / n_left + s_right * s_right / (m - n_left)
    gain -= total * total / m
    gain[~valid] = -np.inf
    k = int(np.argmax(gain))  # first max: lowest threshold wins ties
    pos = lo + k
    thr = 0.5 * (v[pos] + v[pos + 1])
    if thr >= v[pos + 1]:  # midpoint rounded up between adjacent floats
        thr = v[pos]
    return float(gain[k]), float(thr)


def fit_partition(
    gradients,
    modifiers,
    config: TreeConfig,
    presorted: list[np.ndarray] | None = None,
    assign_out: np.ndarray | None = None,
) -> RegressionTree:
    """Greedy top-down least-squares tree on (gradients, modifiers).

    Splits maximize the squared-error reduction subject to
    min_samples_leaf on both children; growth stops at max_depth or when
    no split has positive gain. Fewer than 2*min_samples_leaf rows give
    a single-leaf tree. Leaf values are left at 0 pending adjust_leaves.
    ``assign_out`` (int32, length n) receives each row's leaf id, saving
    a routing pass.
    """
    g = np.ascontiguousarray(gradients, dtype=float)
    Z = np.asarray(modifiers, dtype=float)
    if Z.ndim != 2:
        raise DomainError("modifiers must be a 2-D matrix")
    n, q = Z.shape
    if g.shape != (n,):
        raise DomainError("gradient length must equal modifier row count")
    if presorted is None:
        presorted = presort_columns(Z)
    cols = [np.ascontiguousarray(Z[:, f]) for f in range(q)]

    tree = RegressionTree(q)
    min_leaf = config.min_samples_leaf

    def build(orders: list[np.ndarray], depth: int) -> int:
        rows = orders[0]
        m = rows.size
        gr = g[rows]
        mean = float(gr.mean())
        node = tree._add_node(m)
        best = None
        if depth < config.max_depth and m >= 2 * min_leaf:
            sse = float(np.sum((gr - mean) ** 2))
            if sse > 0.0:
                for f in range(q):
                    ordf = orders[f]
                    found = _best_split_for_feature(
                        cols[f][ordf], g[ordf] - mean, min_leaf
                    )
                    if found is not None and (best is None or found[0] > best[0]):
                        best = (found[0], f, found[1])
                if best is not None and best[0] <= _GAIN_REL_EPS * sse:
                    best = None
        if best is None:
            if assign_out is not None:
                assign_out[rows] = node
            return node
        gain, f, thr = best
        left_mask = np.zeros(n, dtype=bool)
        ordf = orders[f]
        left_mask[ordf[cols[f][ordf] <= thr]] = True
        orders_l = [o[left_mask[o]] for o in orders]
        orders_r = [o[~left_mask[o]] for o in orders]
        tree.feature[node] = f
        tree.threshold[node] = thr
        tree.gain[node] = gain
        tree.left[node] = build(orders_l, depth + 1)
        tree.right[node] = build(orders_r, depth + 1)
        return node

    build(presorted, 0)
    tree._freeze()
    return tree


def _newton_gamma(x, eta, y, w, loss, link) -> float:
    """Exact Poisson/log leaf step, found without evaluating the loss.

    The derivative of the leaf loss in gamma, d1 = 2*sum(w*x*(exp(eta +
    gamma*x) - y)), is strictly increasing; rows have x != 0.

    - sum(w*y) == 0 and x of one sign: d1 never changes sign, so no
      finite minimiser exists; return 0.
    - constant x == c: the closed form ``intercept_shift(...) / c``.
    - otherwise: Newton on d1 inside the sign bracket [lo, hi] that each
      evaluation narrows, bisecting when a step leaves it. A step with
      no bracket on its far side moves eta by at most a reach that
      doubles each time it binds. Without convergence, return the
      evaluated gamma with the smallest |d1|.
    """
    if float(np.sum(w * y)) == 0.0 and float(np.min(x)) * float(np.max(x)) > 0.0:
        return 0.0
    if np.all(x == x[0]):
        return intercept_shift(loss, link, eta, y, w) / float(x[0])
    wx = w * x
    wxy = wx * y
    reach = 1.0 / float(np.max(np.abs(x)))
    lo, hi = -math.inf, math.inf
    gamma, best, best_d1 = 0.0, 0.0, math.inf
    for _ in range(_LEAF_MAX_ITER):
        with np.errstate(over="ignore"):
            m = wx * np.exp(eta + gamma * x)
            d1 = float(np.sum(m - wxy))  # d1 / 2
            d2 = float(np.sum(m * x))  # d1' / 2, > 0
        if d1 == 0.0:
            return gamma
        if abs(d1) < best_d1:
            best, best_d1 = gamma, abs(d1)
        if d1 > 0.0:
            hi = gamma
        else:
            lo = gamma
        step = -d1 / d2 if 0.0 < d2 < math.inf else -math.copysign(math.inf, d1)
        if abs(step) > reach:
            step = math.copysign(reach, step)
            reach *= 2.0
        nxt = gamma + step
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        if abs(nxt - gamma) <= 1e-12 * (1.0 + abs(gamma)):
            return nxt
        gamma = nxt
    return best


def adjust_leaves(
    tree: RegressionTree,
    modifiers,
    x_col,
    eta,
    y,
    w,
    loss,
    link,
    leaf_of: np.ndarray | None = None,
) -> RegressionTree:
    """Set each leaf value to the loss-minimizing unshrunk step.

    Rows with x == 0 contribute a constant and are dropped, so an
    all-zero-x leaf gets value 0. For the Gaussian/identity pair the
    step is the closed form sum(w*x*(y - eta)) / sum(w*x^2). For the
    Poisson/log pair ``_newton_gamma`` takes one of three paths: 0 for a
    leaf with no response and x of one sign, the intercept closed form
    divided by x for a constant-x leaf, and bracketed Newton on the
    derivative otherwise. A final guard compares the leaf-local loss at
    the step and at 0; if the step would increase it, the leaf keeps 0
    and a warning is logged.
    """
    x_col = np.asarray(x_col, dtype=float)
    eta = np.asarray(eta, dtype=float)
    y = np.asarray(y, dtype=float)
    w = np.asarray(w, dtype=float)
    if w.ndim == 0:
        w = np.full_like(eta, float(w))
    if leaf_of is None:
        leaf_of = tree.assign(modifiers)
    gaussian = loss.kind == "gaussian_deviance" and link.kind == "identity"
    for lid in tree.leaf_ids():
        rows = np.flatnonzero(leaf_of == lid)
        rows = rows[x_col[rows] != 0.0]
        if rows.size == 0:
            tree.value[lid] = 0.0
            continue
        xs, es, ys, ws = x_col[rows], eta[rows], y[rows], w[rows]
        if gaussian:
            denom = float(np.sum(ws * xs * xs))
            gamma = float(np.sum(ws * xs * (ys - es))) / denom if denom > 0 else 0.0
        else:
            gamma = _newton_gamma(xs, es, ys, ws, loss, link)
        if gamma != 0.0:
            with np.errstate(over="ignore", invalid="ignore"):
                f_new = float(np.sum(loss.value(link.inverse(es + gamma * xs), ys, ws)))
                f_zero = float(np.sum(loss.value(link.inverse(es), ys, ws)))
            if not np.isfinite(f_new) or f_new > f_zero:
                logger.warning("leaf step would increase loss; using 0")
                gamma = 0.0
        tree.value[lid] = gamma
    return tree


def fit_gradient_tree(
    loss,
    link,
    x_col,
    modifiers,
    eta,
    y,
    w,
    config: TreeConfig,
    presorted: list[np.ndarray] | None = None,
    assign_out: np.ndarray | None = None,
) -> RegressionTree:
    """Fit one boosting tree: gradients, partition, leaf adjustment."""
    g = directional_gradient(loss, link, x_col, eta, y, w)
    tree = fit_partition(
        g, modifiers, config, presorted=presorted, assign_out=assign_out
    )
    return adjust_leaves(
        tree, modifiers, x_col, eta, y, w, loss, link, leaf_of=assign_out
    )

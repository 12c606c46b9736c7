"""Least-squares regression trees over effect-modifier space.

Trees are fitted greedily to gradient vectors (squared-error splits) and
then get each leaf value set to the exact minimiser of the loss along
the leaf's coefficient direction, in closed form where one exists and by
bracketed Newton on the derivative otherwise (see ``adjust_leaves``).
Candidate thresholds are midpoints between consecutive distinct sorted
feature values; among equal-gain splits the lowest feature index wins,
then the lowest threshold, and values equal to a threshold route left.
Split search is exact however a column is scanned. The members of a
one-hot group are never 1 on the same row, so the group is one bundle
with one histogram bin per member (LightGBM's exclusive feature
bundling), and each member's split puts its own bin on the right. Any
other column with at most one distinct value per 8 rows gets one
histogram bin per value (LightGBM's histogram scan with exact bins),
and every other column is scanned along its presorted order (XGBoost's
exact greedy scan). A presorted column whose values are all distinct is
tie-free: a cut between any two neighbours in its order is valid at
every node, so its scan reads the node's centered gradients alone,
without its sorted values. Only nodes that search carry every presorted
column's row order: a leaf gets its rows alone, and the columns of a
searching node share its centered gradients and per-cut row counts
(see ``fit_partition``).
Routing has one descent routine: ``predict`` carries the leaf values
down the tree with ``np.where`` and ``assign`` carries the leaf ids.
It reads the node structure from the builder's Python lists and the
leaf values at call time, because ``adjust_leaves`` sets them after the
tree is frozen. Fitted trees are immutable once published;
``assign``/``predict``/``split_gains`` are read-only and safe to share.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .data import require_fit_response
from .errors import DomainError
from .losses import EtaRecord, log_link_intercept

# fit_gradient_tree takes its gradients from an EtaRecord; the name stays
# importable here, where the benchmark's traced run wraps it
from .losses import directional_gradient  # noqa: F401

logger = logging.getLogger("tvcm")

# relative floor below which a split gain is numerical noise, not signal
_GAIN_REL_EPS = 1e-12
# Newton iterations before a leaf step settles for its best bracketed point
_LEAF_MAX_ITER = 100
# a column whose distinct values times this are at most its row count
# gets one histogram bin per value instead of a presorted order
_BIN_RATIO = 8


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
        "_route",
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
        # routing reads the builder's lists: indexing them is cheaper
        # than indexing numpy scalars
        self._route = (self.feature, self.threshold, self.left, self.right)
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

    def _descend(self, Z, payload) -> np.ndarray:
        """``payload[leaf]`` for the leaf every row of Z descends to; a
        row equal to a threshold goes left."""
        Z = np.asarray(Z, dtype=float)
        if Z.ndim == 1:
            Z = Z[None, :]
        if Z.ndim != 2 or Z.shape[1] != self.n_features:
            raise DomainError(
                f"modifier row has arity {Z.shape[-1]}, tree expects "
                f"{self.n_features}"
            )
        feature, threshold, left, right = self._route

        def descend(node):
            f = feature[node]
            if f < 0:
                return payload[node]
            return np.where(
                Z[:, f] <= threshold[node],
                descend(left[node]),
                descend(right[node]),
            )

        out = descend(0)
        # a recursive closure is a reference cycle: break it, so that Z
        # is freed when this call returns, not at the next collection
        del descend
        return np.full(Z.shape[0], out) if np.ndim(out) == 0 else out

    def assign(self, Z) -> np.ndarray:
        """Leaf node id for every row of Z (deterministic descent)."""
        return self._descend(Z, range(self.n_nodes)).astype(np.int32)

    def predict(self, Z) -> np.ndarray:
        """Leaf value for every row of Z; the values are read at call
        time, so leaves set by ``adjust_leaves`` are seen."""
        return self._descend(Z, self.value)

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


@dataclass(frozen=True)
class SplitIndex:
    """Split-search index over one modifier matrix, reusable across trees.

    A one-hot group's member columns (never 1 on the same row) form one
    bundle: ``bundles[c]`` lists its member columns, and its code is the
    member index plus 1, or 0 for a row in no member. Of the other
    columns, one is binned when its distinct values times ``_BIN_RATIO``
    are at most the row count, with the rank of each row's value among
    the sorted distinct values ``levels[b]`` of column ``binned[b]`` as
    its code. ``codes`` holds the binned columns' codes, then the
    bundles', column c offset by ``c * n_bins``, so one ``bincount`` over
    a node's rows histograms every binned column and bundle at once.
    ``root_counts`` holds the per-bin row counts of all rows, one row
    per code column: every tree on this index starts from them, and a
    node's right child takes its parent's counts less its left sibling's.
    Every other column keeps its stable sort order. ``orders[0]`` is
    column 0's stable sort order, the row order every node keeps;
    ``sorted_slots`` maps each presorted column to its slot in
    ``orders`` (column 0, when presorted, is slot 0). ``tie_free`` holds
    the presorted columns whose n values are n distinct numbers, so a cut
    between neighbours in their order is valid at every node. ``shape``
    is the (rows, columns) shape of the matrix the index was built on.
    """

    shape: tuple
    orders: tuple
    sorted_slots: dict
    tie_free: frozenset
    binned: np.ndarray
    codes: np.ndarray
    levels: tuple
    n_bins: int
    bundles: tuple
    root_counts: np.ndarray


def presort_columns(Z, groups=()) -> SplitIndex:
    """Split-search index of Z, reusable across trees on the same Z.

    ``groups`` lists the columns of each one-hot group. A group whose
    columns hold only 0 and 1, with at most one 1 per row, becomes one
    bundle and its columns are not sorted (bar column 0, whose order
    every node keeps); any other group's columns are treated as
    ungrouped. Every ungrouped column is stably sorted once. One with
    distinct values times ``_BIN_RATIO`` at most the row count keeps the
    rank of each row's value as a bin code; every other column keeps its
    sort order, and is tie-free when its distinct values (counted for
    the bin choice) are as many as its rows.
    """
    Z = np.asarray(Z, dtype=float)
    n, q = Z.shape
    bundles, bundle_codes = [], []
    for members in groups:
        members = np.asarray(members, dtype=np.int64)
        block = Z[:, members]
        if np.all((block == 0.0) | (block == 1.0)) and np.all(block.sum(axis=1) <= 1.0):
            bundles.append(members)
            code = block @ np.arange(1.0, members.size + 1)
            bundle_codes.append(code.astype(np.intp))
    bundled = {f for members in bundles for f in members.tolist()}
    orders, sorted_slots, tie_free = [], {}, set()
    binned, ranks, levels = [], [], []
    for f in range(q):
        if f in bundled and f > 0:
            continue
        order = np.argsort(Z[:, f], kind="stable").astype(np.int64)
        if f == 0:  # every node's row order, whether or not column 0 is binned
            orders.append(order)
        if f in bundled:
            continue
        v = Z[order, f]
        new_value = v[1:] != v[:-1]
        distinct = int(np.count_nonzero(new_value)) + 1
        if distinct * _BIN_RATIO > n:
            if f > 0:
                orders.append(order)
            sorted_slots[f] = len(orders) - 1
            # NaN sorts last and is unequal to itself, but no cut next to
            # it is valid: a column holding one is scanned with its values
            if distinct == n and not math.isnan(v[-1]):
                tie_free.add(f)
            continue
        rank = np.empty(n, dtype=np.intp)
        rank[order] = np.concatenate(([0], np.cumsum(new_value)))
        binned.append(f)
        ranks.append(rank)
        levels.append(v[np.concatenate(([True], new_value))])
    n_bins = max(
        [lv.size for lv in levels] + [b.size + 1 for b in bundles], default=0
    )
    nc = len(ranks) + len(bundle_codes)
    codes = np.empty((n, nc), dtype=np.intp)
    for c, code in enumerate(ranks + bundle_codes):
        codes[:, c] = code + c * n_bins
    root_counts = np.bincount(codes.ravel(), minlength=nc * n_bins)
    return SplitIndex(
        (n, q), tuple(orders), sorted_slots, frozenset(tie_free),
        np.asarray(binned, dtype=np.int64),
        codes, tuple(levels), n_bins, tuple(bundles),
        root_counts.reshape(nc, n_bins),
    )


def _split_gain(s_left, n_left, s_right, n_right, total, m):
    """Squared-error reduction from splitting m rows whose centered
    gradients sum to ``total`` into n_left rows summing to s_left and
    n_right rows summing to s_right."""
    gain = s_left * s_left / n_left + s_right * s_right / n_right
    gain -= total * total / m
    return gain


def _best_split_for_feature(gc, lo, n_left, n_right, v=None):
    """Best (gain, position) on one presorted feature; the cut falls
    between sorted positions ``position`` and ``position + 1``.

    ``gc`` is the node's centered gradients in the feature's sort order
    and ``v`` the matching sorted feature values, or None for a tie-free
    feature, where every cut is valid. Cut positions run from ``lo`` to
    ``lo + n_left.size - 1``; ``n_left``/``n_right`` are the row counts
    on each side of them, the same for every feature of a node. Gains
    come from prefix sums of the centered gradients, so constant
    gradient vectors yield exact zeros.
    """
    hi = lo + n_left.size
    if v is not None:
        valid = v[lo:hi] < v[lo + 1 : hi + 1]
        if not valid.any():
            return None
    cs = gc.cumsum()
    s_left = cs[lo:hi]
    gain = _split_gain(s_left, n_left, cs[-1] - s_left, n_right, cs[-1], gc.size)
    if v is not None and not valid.all():  # no cut between equal values
        gain[~valid] = -math.inf
    k = int(gain.argmax())  # first max: lowest threshold wins ties
    return float(gain[k]), lo + k


def _best_splits_binned(index: SplitIndex, rows, gc, min_leaf, all_counts):
    """Best cut of every binned column and the gain of every bundle
    member at one node.

    Per-bin sums of the centered gradients ``gc`` (aligned with
    ``rows``) come from one bincount. ``all_counts`` holds the node's
    per-bin row counts of every code column, or is None to count them
    with a second bincount. On a binned column, a cut after bin k is
    valid when bin k is non-empty and both sides keep min_leaf rows. A
    bundle member's split puts its own bin on the right and every other
    bin, summed as the bins below plus the bins above it, on the left; so
    the members of a two-member bundle that covers every row get
    bit-equal gains. Returns (gains, bins) of the binned columns, one gain
    row per bundle, indexed by member, and the node's counts; a split
    without enough rows on a side has gain -inf.
    """
    nc, nb, m = index.codes.shape[1], index.n_bins, rows.size
    codes = np.take(index.codes, rows, axis=0).ravel()
    size = nc * nb
    sums = np.bincount(codes, weights=np.repeat(gc, nc), minlength=size)
    sums = sums.reshape(nc, nb)
    if all_counts is None:
        all_counts = np.bincount(codes, minlength=size).reshape(nc, nb)
    cs = sums.cumsum(axis=1)
    n_left = all_counts.cumsum(axis=1)
    k = index.binned.size
    cs, bundle_cs = cs[:k], cs[k:]
    n_left, counts, bundle_counts = n_left[:k], all_counts[:k], all_counts[k:]
    total = cs[:, -1:]
    n_right = m - n_left
    # above[:, j]: the sum of the bins after bin j
    above = np.zeros_like(bundle_cs)
    above[:, :-1] = sums[k:, :0:-1].cumsum(axis=1)[:, ::-1]
    member_n = bundle_counts[:, 1:]
    with np.errstate(divide="ignore", invalid="ignore"):
        gain = _split_gain(cs, n_left, total - cs, n_right, total, m)
        member_gain = _split_gain(
            bundle_cs[:, :-1] + above[:, 1:], m - member_n,
            sums[k:, 1:], member_n, bundle_cs[:, -1:], m,
        )
    valid = (counts > 0) & (n_left >= min_leaf) & (n_right >= min_leaf)
    gain[~valid] = -np.inf
    member_gain[(member_n < min_leaf) | (m - member_n < min_leaf)] = -np.inf
    bins = gain.argmax(axis=1)  # first max: lowest threshold wins ties
    return gain[np.arange(k), bins], bins, member_gain, all_counts


def fit_partition(
    gradients,
    modifiers,
    config: TreeConfig,
    presorted: SplitIndex | None = None,
    assign_out: np.ndarray | None = None,
) -> RegressionTree:
    """Greedy top-down least-squares tree on (gradients, modifiers).

    Splits maximize the squared-error reduction subject to
    min_samples_leaf on both children; growth stops at max_depth or when
    no split has positive gain. Fewer than 2*min_samples_leaf rows give
    a single-leaf tree. Leaf values are left at 0 pending adjust_leaves.
    ``presorted`` is ``presort_columns(modifiers)``, built here when
    None; an index built on a matrix of another shape is a DomainError.
    Presorted columns are scanned along their sort orders, binned
    columns and bundles through one histogram per node; the best gain of
    each column enters one gain vector whose first maximum wins. A split
    on a bundle member has threshold 0.5, so its rows go right.
    ``assign_out`` (int32, length n) receives each row's leaf id, saving
    a routing pass.

    A node carries one row order per presorted column, filtered from its
    parent's at the split. Children at max_depth are leaves, which read
    only their rows, so a split just above max_depth filters column 0's
    order alone, and a leaf never gathers its gradients. At a node that
    searches, the centered gradients, the cut range and the left and
    right row counts of each cut position are computed once and shared
    by every column's scan: the centered gradients are scattered once
    into a buffer indexed by row, from which each presorted column
    gathers them in its own order. A tie-free column's scan reads
    nothing else; a column with ties also gathers its sorted values to
    rule out cuts between equal values. The winning column's threshold
    reads only the two values at its cut. A node's per-bin row counts
    need no pass of their own at the root (``SplitIndex.root_counts``)
    or at a right child whose left sibling counted its rows; gradient
    sums always take one ``bincount`` per node.
    """
    g = np.ascontiguousarray(gradients, dtype=float)
    Z = np.asfortranarray(modifiers, dtype=float)
    if Z.ndim != 2:
        raise DomainError("modifiers must be a 2-D matrix")
    n, q = Z.shape
    if g.shape != (n,):
        raise DomainError("gradient length must equal modifier row count")
    if presorted is not None and presorted.shape != (n, q):
        raise DomainError(
            f"split index was built for a {presorted.shape[0]}x"
            f"{presorted.shape[1]} matrix, modifiers are {n}x{q}"
        )
    index = presort_columns(Z) if presorted is None else presorted
    cols = [Z[:, f] for f in range(q)]  # contiguous: Z is column-major
    bundled = {f for members in index.bundles for f in members.tolist()}
    # left-side row counts of every cut position, sliced per node
    ranks = np.arange(1, n + 1, dtype=float)
    # a searching node's centered gradients by row, when a presorted
    # column other than column 0 reads them in its own order
    by_row = np.empty(n) if len(index.orders) > 1 else None

    tree = RegressionTree(q)
    min_leaf = config.min_samples_leaf

    def best_split(orders, gc, counts):
        """(gain, feature, threshold) of the largest gain, or None, and
        the node's per-bin row counts.

        ``gc`` is the node's gradients less their mean, in the row order
        of ``orders[0]``. ``counts`` is the node's per-bin row counts
        when known, else None; without code columns it is passed back.
        """
        m = gc.size
        lo = min_leaf - 1  # cut positions lo..m-min_leaf-1
        n_left = ranks[lo : m - min_leaf]
        n_right = m - n_left
        gains = np.full(q, -math.inf)
        cuts = {}  # sorted position of each presorted column's best cut
        if by_row is not None:
            by_row[orders[0]] = gc
        for f, slot in index.sorted_slots.items():
            o = orders[slot]
            found = _best_split_for_feature(
                gc if slot == 0 else by_row[o], lo, n_left, n_right,
                None if f in index.tie_free else cols[f][o],
            )
            if found is not None:
                gains[f], cuts[f] = found
        if index.codes.shape[1]:
            b_gains, bins, member_gains, counts = _best_splits_binned(
                index, orders[0], gc, min_leaf, counts
            )
            gains[index.binned] = b_gains
            for members, member_gain in zip(index.bundles, member_gains):
                gains[members] = member_gain[: members.size]
        f = int(gains.argmax())  # first max: lowest feature
        gain = float(gains[f])
        if gain == -math.inf:
            return None, counts
        if f in bundled:
            # the bundle gain only ranks the split; the stored gain is the
            # member column's own two-bin histogram, as a binned column
            # gets it, so fitted models keep their bytes
            right = cols[f][orders[0]] > 0.5
            s = np.bincount(right, weights=gc, minlength=2)
            total, n_right = s[0] + s[1], int(np.count_nonzero(right))
            gain = _split_gain(s[0], m - n_right, total - s[0], n_right, total, m)
            return (float(gain), f, 0.5), counts
        if f in index.sorted_slots:
            o = orders[index.sorted_slots[f]]
            below, above = cols[f][o[cuts[f]]], cols[f][o[cuts[f] + 1]]
        else:  # the next non-empty bin holds the next value up
            b = int(np.searchsorted(index.binned, f))
            k = int(bins[b])
            up = k + 1 + int(np.flatnonzero(counts[b, k + 1 :])[0])
            below, above = index.levels[b][k], index.levels[b][up]
        thr = 0.5 * (below + above)
        if thr >= above:  # midpoint rounded up between adjacent floats
            thr = below
        return (gain, f, float(thr)), counts

    def build(orders: list, depth: int, counts):
        """Grow the subtree over the rows ``orders[0]`` whose per-bin row
        counts are ``counts`` (None: not known); returns its node id and
        those counts if they were known or counted here."""
        rows = orders[0]
        m = rows.size
        node = tree._add_node(m)
        best = None
        if depth < config.max_depth and m >= 2 * min_leaf:
            gr = g[rows]
            gc = gr - float(gr.mean())
            sse = float((gc**2).sum())
            if sse > 0.0:
                best, counts = best_split(orders, gc, counts)
                if best is not None and best[0] <= _GAIN_REL_EPS * sse:
                    best = None
        if best is None:
            if assign_out is not None:
                assign_out[rows] = node
            return node, counts
        gain, f, thr = best
        left_mask = cols[f] <= thr
        if depth + 1 == config.max_depth:  # leaf children read only rows
            orders = orders[:1]
        sel = [left_mask[o] for o in orders]
        tree.feature[node] = f
        tree.threshold[node] = thr
        tree.gain[node] = gain
        # compress, not o[s]: the same rows, and several times faster
        # than boolean indexing on large shuffled masks
        tree.left[node], left_counts = build(
            [o.compress(s) for o, s in zip(orders, sel)], depth + 1, None
        )
        # exact in integers: the right child's counts are the rest
        right_counts = None if left_counts is None else counts - left_counts
        tree.right[node], _ = build(
            [o.compress(~s) for o, s in zip(orders, sel)], depth + 1, right_counts
        )
        return node, counts

    build(list(index.orders), 0, index.root_counts)
    # a recursive closure is a reference cycle: break it, so that the
    # gradients and row orders it holds are freed now, not at the next
    # garbage collection
    del build
    tree._freeze()
    return tree


def _newton_gamma(x, eta, y, w) -> float:
    """Exact Poisson/log leaf step, found without evaluating the loss.

    The derivative of the leaf loss in gamma, d1 = 2*sum(w*x*(exp(eta +
    gamma*x) - y)), is strictly increasing; rows have x != 0.

    - sum(w*y) == 0 and x of one sign: d1 never changes sign, so no
      finite minimiser exists; return 0.
    - constant x == c: the closed form ``intercept_shift(...) / c``,
      without re-checking eta (its caller's eta was checked once).
    - otherwise: Newton on d1 inside the sign bracket [lo, hi] that each
      evaluation narrows, bisecting when a step leaves it. A step with
      no bracket on its far side moves eta by at most a reach that
      doubles each time it binds. Without convergence, return the
      evaluated gamma with the smallest |d1|.
    """
    wy = float((w * y).sum())
    if wy == 0.0 and float(x.min()) * float(x.max()) > 0.0:
        return 0.0
    if (x == x[0]).all():  # one sign, so wy > 0 here
        return log_link_intercept(wy, eta, w) / float(x[0])
    wx = w * x
    wxy = wx * y
    reach = 1.0 / float(np.abs(x).max())
    lo, hi = -math.inf, math.inf
    gamma, best, best_d1 = 0.0, 0.0, math.inf
    for _ in range(_LEAF_MAX_ITER):
        with np.errstate(over="ignore"):
            m = wx * np.exp(eta + gamma * x)
            d1 = float((m - wxy).sum())  # d1 / 2
            d2 = float((m * x).sum())  # d1' / 2, > 0
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
    *,
    row_loss: np.ndarray | None = None,
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
    and a warning is logged. A NaN or an infinity in y or w, a weight
    <= 0 and, under the Poisson loss, a response < 0 are a DataError
    naming the first such row.

    ``leaf_of`` (each row's leaf id) and ``row_loss`` (the per-row loss
    ``loss._value`` at eta, whose leaf sums are the guard's loss at 0)
    are passes a caller may already have made; each is computed here
    when None, with the same leaf values either way.
    """
    y = np.asarray(y, dtype=float)
    w = np.asarray(w, dtype=float)
    if w.ndim == 0:
        w = np.full_like(y, float(w))
    # once per call, so the per-leaf guard runs unchecked
    require_fit_response(y, w, loss, "leaf adjustment")
    return _set_leaf_values(
        tree, modifiers, x_col, eta, y, w, loss, link, leaf_of, row_loss
    )


def _set_leaf_values(tree, modifiers, x_col, eta, y, w, loss, link, leaf_of,
                     row_loss) -> RegressionTree:
    """``adjust_leaves`` on y and w (length-n arrays) that its caller has
    already checked."""
    x_col = np.asarray(x_col, dtype=float)
    eta = np.asarray(eta, dtype=float)
    if leaf_of is None:
        leaf_of = tree.assign(modifiers)
    if row_loss is None:
        with np.errstate(over="ignore", invalid="ignore"):
            row_loss = loss._value(link.inverse(eta), y, w)
    gaussian = loss.kind == "gaussian_deviance" and link.kind == "identity"
    for lid in tree.leaf_ids():
        rows = np.flatnonzero(leaf_of == lid)
        rows = rows[x_col[rows] != 0.0]
        if rows.size == 0:
            tree.value[lid] = 0.0
            continue
        xs, es, ys, ws = x_col[rows], eta[rows], y[rows], w[rows]
        if gaussian:
            denom = float((ws * xs * xs).sum())
            gamma = float((ws * xs * (ys - es)).sum()) / denom if denom > 0 else 0.0
        else:
            gamma = _newton_gamma(xs, es, ys, ws)
        if gamma != 0.0:
            with np.errstate(over="ignore", invalid="ignore"):
                f_new = float(loss._value(link.inverse(es + gamma * xs), ys, ws).sum())
            if not np.isfinite(f_new) or f_new > float(row_loss[rows].sum()):
                logger.warning("leaf step would increase loss; using 0")
                gamma = 0.0
        tree.value[lid] = gamma
    return tree


def fit_gradient_tree(
    x_col,
    modifiers,
    at_eta: EtaRecord,
    config: TreeConfig,
    presorted: SplitIndex | None = None,
    assign_out: np.ndarray | None = None,
) -> RegressionTree:
    """Fit one boosting tree along direction ``x_col`` at the linear
    predictor of ``at_eta``: gradients ``x_col * at_eta.base``,
    partition, leaf adjustment with the record's per-row loss. The
    record's y and w were checked by the fit's entry point, so the leaf
    step does not check them again."""
    g = np.asarray(x_col, dtype=float) * at_eta.base
    tree = fit_partition(
        g, modifiers, config, presorted=presorted, assign_out=assign_out
    )
    return _set_leaf_values(
        tree, modifiers, x_col, at_eta.eta, at_eta.y, at_eta.w, at_eta.loss,
        at_eta.link, assign_out, at_eta.row_loss,
    )

"""Spans around tvcm's public functions, for the traced benchmark run.

Nothing inside ``src/`` is instrumented. Instead, :class:`Hooks` replaces
each traced function at the name its callers look it up under (for
example ``tvcm.tree.fit_partition``, which ``fit_gradient_tree`` reads
from its module globals) with a wrapper that opens and closes a span,
and restores the originals afterwards. Spans are kept in memory as
parallel integer arrays and turned into per-layer numbers (inclusive
time, self time, call counts, work counters) when the run ends.
"""

from __future__ import annotations

import functools
import json
import logging
import os
import time
from array import array
from collections import Counter

import numpy as np

# Layers are tvcm's modules; a span's layer is the part of its name
# before the first dot. "bench" is the benchmark's own per-operation
# root span.
LAYERS = ("data", "losses", "tree", "model", "boosting", "cli", "bench")


class Tracer:
    """In-memory span store: name id, start ns, end ns, parent index."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.nested = array("b")  # 1: a span of the same name is open
        self._open_count: list[int] = []
        self.stack: list[int] = []
        self.counters: Counter = Counter()

    def intern(self, name: str) -> int:
        sid = self._ids.get(name)
        if sid is None:
            sid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._open_count.append(0)
        return sid

    def open(self, sid: int) -> int:
        idx = len(self.start)
        self.name_id.append(sid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.nested.append(self._open_count[sid] > 0)
        self._open_count[sid] += 1
        self.end.append(0)
        self.stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        popped = self.stack.pop()
        if popped != idx:
            raise RuntimeError("span closed out of order")
        self._open_count[self.name_id[idx]] -= 1

    def innermost(self) -> str | None:
        return self.names[self.name_id[self.stack[-1]]] if self.stack else None

    def summary(self) -> dict:
        """Per span name: inclusive seconds, self seconds, call count and
        the per-call durations (ns) of every call.

        Self time is a span's duration minus the durations of its direct
        children. Inclusive time counts only outermost spans of a name,
        so a function reached through itself is not counted twice.
        """
        n = len(self.start)
        start = np.frombuffer(self.start, dtype=np.int64, count=n)
        end = np.frombuffer(self.end, dtype=np.int64, count=n)
        parent = np.frombuffer(self.parent, dtype=np.int64, count=n)
        name_id = np.frombuffer(self.name_id, dtype=np.int64, count=n)
        outer = np.frombuffer(self.nested, dtype=np.int8, count=n) == 0
        if np.any(end < start):
            raise RuntimeError("trace holds an unclosed span")
        dur = end - start
        child = np.zeros(n, dtype=np.int64)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_ns = dur - child
        out: dict = {}
        for sid, name in enumerate(self.names):
            mine = name_id == sid
            rows = np.flatnonzero(mine)
            out[name] = {
                "s": float(dur[mine & outer].sum()) * 1e-9,
                "self_s": float(self_ns[rows].sum()) * 1e-9,
                "calls": int(rows.size),
                "durations_ns": dur[rows],
            }
        return out

    def dump(self, path: str, extra: dict) -> None:
        """Write every span (compact columns) plus run facts as JSON."""
        payload = {
            "format": "spans: name index, start ns, end ns, parent span (-1: root)",
            "names": self.names,
            "name": list(self.name_id),
            "start_ns": list(self.start),
            "end_ns": list(self.end),
            "parent": list(self.parent),
            "counters": dict(self.counters),
            **extra,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


class FallbackCounter(logging.Handler):
    """Counts the leaf-step "using 0" warnings of the ``tvcm`` logger.

    Installed for every run so that the warning spam never reaches
    stderr; the count is reported only by the traced run.
    """

    def __init__(self):
        super().__init__(level=logging.WARNING)
        self.count = 0
        self.other = 0

    def emit(self, record: logging.LogRecord) -> None:
        if "using 0" in record.getMessage():
            self.count += 1
        else:
            self.other += 1


def _span_wrapper(tracer: Tracer, name: str, fn, note=None):
    sid = tracer.intern(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(sid)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if note is not None:
            note(tracer.counters, args, kwargs, out)
        return out

    return wrapper


def _arg(args, kwargs, pos: int, key: str):
    return args[pos] if len(args) > pos else kwargs[key]


# Work counters taken from a traced call's arguments or result.
def _note_fit_partition(c, args, kwargs, out):
    Z = _arg(args, kwargs, 1, "modifiers")
    c["tree.fit_partition.row_features"] += Z.shape[0] * Z.shape[1]


def _note_adjust_leaves(c, args, kwargs, out):
    c["tree.adjust_leaves.leaves"] += out.n_leaves


def _note_assign(c, args, kwargs, out):
    c["tree.assign.rows"] += out.shape[0]


def _note_load_csv(c, args, kwargs, out):
    c["data.load_csv.rows"] += out.n


def _note_tune(c, args, kwargs, out):
    c["boosting.tune_kappa.candidates"] += len(out.trace)
    c["boosting.tune_kappa.accepted"] += sum(1 for r in out.trace if r.accepted)


def _note_train(c, args, kwargs, out):
    c["boosting.train.trees"] += int(out[0].kappa.sum())


def _note_model_file(pos):
    def note(c, args, kwargs, out):
        c["model.json_bytes"] += os.path.getsize(_arg(args, kwargs, pos, "path"))
        c["model.json_files"] += 1

    return note


def _note_read_frame(c, args, kwargs, out):
    c["cli.read_frame.rows"] += out[2]


class Hooks:
    """Installs and removes the span wrappers on tvcm's public names."""

    def __init__(self, tvcm, tracer: Tracer):
        m = tvcm
        TvcmModel = m.model.TvcmModel
        RegressionTree = m.tree.RegressionTree
        # span name -> (places the callers look the function up, counter).
        # Some spans feed no metric of their own (data.split,
        # boosting.fit_tvcm, model.predict_mu, ...): they are there so
        # that their time is counted in their own layer's self time, not
        # in the caller's.
        table = {
            "data.simulate": ([(m.data, "simulate")], None),
            "data.load_csv": ([(m.data, "load_csv")], _note_load_csv),
            "data.onehot_encode": ([(m.data, "onehot_encode")], None),
            "data.split": ([(m.data, "split"), (m.boosting, "split")], None),
            "data.standardize": (
                [(m.data, "standardize"), (m.boosting, "standardize")], None
            ),
            "losses.directional_gradient": (
                [(m.tree, "directional_gradient")], None
            ),
            "losses.loss_total": (
                [(m.boosting, "loss_total"), (m.model, "loss_total")], None
            ),
            "tree.presort_columns": ([(m.boosting, "presort_columns")], None),
            "tree.fit_partition": ([(m.tree, "fit_partition")], _note_fit_partition),
            "tree.adjust_leaves": ([(m.tree, "adjust_leaves")], _note_adjust_leaves),
            "tree.assign": ([(RegressionTree, "assign")], _note_assign),
            "model.fit_glm": ([(m.boosting, "fit_glm"), (m.model, "fit_glm")], None),
            "model.predict_mu": ([(TvcmModel, "predict_mu")], None),
            "model.beta_of": ([(TvcmModel, "beta_of")], None),
            "model.save_model": ([(m.model, "save_model")], _note_model_file(1)),
            "model.load_model": ([(m.model, "load_model")], _note_model_file(0)),
            "boosting.fit_tvcm": ([(m.boosting, "fit_tvcm")], None),
            "boosting.tune_kappa": ([(m.boosting, "tune_kappa")], _note_tune),
            "boosting.train": ([(m.boosting, "train")], _note_train),
            "boosting.importance_report": (
                [(m.boosting, "importance_report")], None
            ),
            "boosting.feature_importance": (
                [(m.boosting, "feature_importance")], None
            ),
            "boosting.fi_star": ([(m.boosting, "fi_star")], None),
            "cli.main": ([(m.cli, "main")], None),
            "cli.write_csv": ([(m.cli, "write_csv")], None),
        }
        # The CLI's input-frame reader is private; trace it while it exists.
        if hasattr(m.cli, "_frame_for_model"):
            table["cli.read_frame"] = (
                [(m.cli, "_frame_for_model")], _note_read_frame
            )
        self._tracer = tracer
        self._swaps: list[tuple[object, str, object, object]] = []
        for name, (places, note) in table.items():
            for owner, attr in places:
                original = owner.__dict__[attr]
                wrapped = _span_wrapper(tracer, name, original, note)
                if name == "cli.write_csv":
                    wrapped = self._counting_rows(wrapped)
                self._swaps.append((owner, attr, original, wrapped))
        # Loss evaluations are counted, not timed: the Newton leaf search
        # makes tens of thousands of them per fit.
        for loss in (m.losses.GAUSSIAN, m.losses.POISSON):
            self._swaps.append(
                (loss, "value", None, self._counting_value(loss.value))
            )

    def _counting_rows(self, write_csv):
        counters = self._tracer.counters

        @functools.wraps(write_csv)
        def wrapper(path, header, rows):
            def counted():
                for row in rows:
                    counters["cli.write_csv.rows"] += 1
                    yield row

            return write_csv(path, header, counted())

        return wrapper

    def _counting_value(self, value):
        tracer = self._tracer

        @functools.wraps(value)
        def wrapper(*args, **kwargs):
            if tracer.innermost() == "tree.adjust_leaves":
                tracer.counters["losses.value.in_adjust_leaves"] += 1
            return value(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        for owner, attr, _, wrapped in self._swaps:
            setattr(owner, attr, wrapped)

    def remove(self) -> None:
        for owner, attr, original, _ in self._swaps:
            if original is None:
                delattr(owner, attr)  # back to the class attribute
            else:
                setattr(owner, attr, original)


def _pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_metrics(tracer: Tracer, ops: int, fallbacks: int, traced_wall_s: float,
                  overhead_pct: float) -> tuple[dict, dict]:
    """Per-layer metrics (name -> (value, unit)) and the span self-time
    totals per layer used by the add-up check.

    Times (unit s) and counts are per traced operation, so that they do
    not grow with the number of operations a run manages to fit in;
    rates and ratios are taken over the whole run.
    """
    summ = tracer.summary()
    c = tracer.counters

    def total_s(name):
        return summ[name]["s"] if name in summ else 0.0

    def s(name):
        return total_s(name) / ops

    def calls(name):
        return (summ[name]["calls"] if name in summ else 0) / ops

    def ratio(num, den):
        return num / den if den else 0.0

    fp_ms = summ["tree.fit_partition"]["durations_ns"] * 1e-6 if (
        "tree.fit_partition" in summ) else []
    leaves = c["tree.adjust_leaves.leaves"]
    candidates = c["boosting.tune_kappa.candidates"]
    m = {
        "tree.fit_partition.s": (s("tree.fit_partition"), "s"),
        "tree.fit_partition.calls": (calls("tree.fit_partition"), "count"),
        "tree.fit_partition.ms_per_tree_p50": (_pct(fp_ms, 50), "ms"),
        "tree.fit_partition.ms_per_tree_p99": (_pct(fp_ms, 99), "ms"),
        "tree.fit_partition.row_features_per_s": (
            ratio(c["tree.fit_partition.row_features"], total_s("tree.fit_partition")),
            "1/s",
        ),
        "tree.adjust_leaves.s": (s("tree.adjust_leaves"), "s"),
        "tree.adjust_leaves.leaves": (leaves / ops, "count"),
        "tree.adjust_leaves.ms_per_leaf": (
            1e3 * ratio(total_s("tree.adjust_leaves"), leaves), "ms"
        ),
        "losses.value.calls_per_leaf": (
            ratio(c["losses.value.in_adjust_leaves"], leaves), "count"
        ),
        "tree.fallbacks": (fallbacks / ops, "count"),
        "tree.assign.s": (s("tree.assign"), "s"),
        "tree.assign.calls": (calls("tree.assign"), "count"),
        "tree.assign.row_trees_per_s": (
            ratio(c["tree.assign.rows"], total_s("tree.assign")), "1/s"
        ),
        "losses.loss_total.s": (s("losses.loss_total"), "s"),
        "losses.loss_total.calls": (calls("losses.loss_total"), "count"),
        "losses.directional_gradient.s": (s("losses.directional_gradient"), "s"),
        "losses.directional_gradient.calls": (
            calls("losses.directional_gradient"), "count"
        ),
        "data.load_csv.s": (s("data.load_csv"), "s"),
        "data.load_csv.rows_per_s": (
            ratio(c["data.load_csv.rows"], total_s("data.load_csv")), "1/s"
        ),
        "cli.read_frame.s": (s("cli.read_frame"), "s"),
        "cli.read_frame.rows_per_s": (
            ratio(c["cli.read_frame.rows"], total_s("cli.read_frame")), "1/s"
        ),
        "cli.write_csv.s": (s("cli.write_csv"), "s"),
        "cli.write_csv.rows_per_s": (
            ratio(c["cli.write_csv.rows"], total_s("cli.write_csv")), "1/s"
        ),
        "data.onehot_encode.s": (s("data.onehot_encode"), "s"),
        "data.simulate.s": (s("data.simulate"), "s"),
        "model.fit_glm.s": (s("model.fit_glm"), "s"),
        "model.save_model.s": (s("model.save_model"), "s"),
        "model.load_model.s": (s("model.load_model"), "s"),
        "model.json_bytes": (
            ratio(c["model.json_bytes"], c["model.json_files"]), "B"
        ),
        "boosting.tune_kappa.s": (s("boosting.tune_kappa"), "s"),
        "boosting.tune_kappa.self_s": (
            summ["boosting.tune_kappa"]["self_s"] / ops
            if "boosting.tune_kappa" in summ else 0.0, "s",
        ),
        "boosting.tune_kappa.candidates": (candidates / ops, "count"),
        "boosting.tune_kappa.accept_ratio": (
            ratio(c["boosting.tune_kappa.accepted"], candidates), "ratio"
        ),
        "boosting.train.s": (s("boosting.train"), "s"),
        "boosting.train.trees": (c["boosting.train.trees"] / ops, "count"),
        "boosting.importance_report.s": (s("boosting.importance_report"), "s"),
    }
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, row in summ.items():
        layer_self[name.split(".", 1)[0]] += row["self_s"]
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = (layer_self[layer] / ops, "s")
    m["trace.wall_s"] = (traced_wall_s / ops, "s")
    m["trace.self_sum_s"] = (sum(layer_self.values()) / ops, "s")
    m["trace.spans"] = (len(tracer.start) / ops, "count")
    m["trace_overhead_pct"] = (overhead_pct, "%")
    return m, layer_self

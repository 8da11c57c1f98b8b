"""Tracing from outside the program: wrappers installed with setattr on the
public functions and classes of quantpred's layers, spans kept in memory,
and the per-layer metrics computed from them when the run ends.

A span records its name, start, end, the innermost enclosing span (its
parent) and a row count. Calls are single-threaded and nest, so a span's
children never overlap and its self time is its duration minus the sum of
its children's durations.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter

import numpy as np

# p50/p99 only for functions called at least this often in a run, so the
# p99 has at least ten samples beyond it
MIN_CALLS_FOR_PERCENTILES = 1000


def _rows_of_array(arg):
    shape = np.shape(arg)
    return shape[0] if len(shape) == 2 else 1


# (span name, module, attribute path, row count from (args, result) or None)
SPANS = (
    ("cli.ingest_csv", "cli", "ingest_csv", lambda a, r: r.targets.shape[0]),
    ("cli.ingest_features", "cli", "ingest_features", None),
    *((f"cli.{c}", "cli", c, None)
      for c in ("cmd_train", "cmd_calibrate", "cmd_predict", "cmd_eval", "cmd_demo")),
    ("qnn.predict_interval", "qnn", "predict_interval", None),
    ("qnn.forward_batch", "qnn", "QuantileNetwork.forward_batch",
     lambda a, r: _rows_of_array(a[1])),
    # rows of a train span: epochs x training rows, the base of
    # qnn.backprop_rows_per_train_row
    ("qnn.train", "qnn", "train", lambda a, r: a[1].targets.shape[0] * a[3].epochs),
    ("qnn.loss_and_gradient", "qnn", "loss_and_gradient",
     lambda a, r: a[1].targets.shape[0]),
    ("qnn.load", "qnn", "load", None),
    ("qnn.save", "qnn", "save", None),
    # rows of an nw_estimate span: training rows scanned, i.e. kernel evaluations
    ("kernel.nw_estimate", "kernel", "nw_estimate",
     lambda a, r: a[0].features.shape[0]),
    ("conformal.calibrate", "conformal", "calibrate", None),
    ("conformal.conformalize", "conformal", "conformalize", None),
    ("conformal.evaluate_coverage", "conformal", "evaluate_coverage", None),
)

# (counter name, module, class) whose constructions are counted
CONSTRUCTIONS = (
    ("qnn.Dataset.constructed", "qnn", "Dataset"),
    ("conformal.PredictionInterval.constructed", "conformal", "PredictionInterval"),
)


def _resolve(module, path):
    """(owner, attribute) for a dotted path below module, or None."""
    *owners, attr = path.split(".")
    owner = module
    for name in owners:
        owner = getattr(owner, name, None)
    if owner is None or not hasattr(owner, attr):
        return None
    return owner, attr


class Tracer:
    """In-memory spans and counts. install() wraps; restore() unwraps."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.rows = array("q")
        self.counts = Counter()
        self.counted = set()  # counters whose class was found and wrapped
        self.unknown_rows = set()  # spans whose row count could not be read
        self._stack = []
        self._originals = []

    def install(self, modules):
        """Wrap every name in SPANS and CONSTRUCTIONS found in modules, a
        dict from short module name to module. A name not found is skipped,
        so its metrics are missing from layer_metrics()."""
        for span, mod, path, rows in SPANS:
            target = _resolve(modules.get(mod), path)
            if target is None:
                continue
            self._patch(*target, self.wrap(getattr(*target), span, rows))
        for counter, mod, cls_name in CONSTRUCTIONS:
            cls = getattr(modules.get(mod), cls_name, None)
            if not isinstance(cls, type):
                continue
            self._patch(cls, "__init__", self._counting_init(cls.__init__, counter))
            self.counted.add(counter)

    def restore(self):
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def _patch(self, owner, attr, wrapper):
        self._originals.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _counting_init(self, init, counter):
        counts = self.counts

        def __init__(obj, *args, **kwargs):
            counts[counter] += 1
            init(obj, *args, **kwargs)
        return __init__

    def wrap(self, fn, span, rows=None):
        """fn with a span recorded around each call."""
        nid = len(self.names)
        self.names.append(span)
        clock, stack, unknown_rows = self.clock, self._stack, self.unknown_rows
        names, parents, starts, ends, row_counts = (
            self.name, self.parent, self.start, self.end, self.rows)

        def wrapper(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            row_counts.append(0)
            stack.append(i)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                starts[i] = t0
                stack.pop()
            if rows is not None:
                try:
                    row_counts[i] = rows(args, result)
                except (AttributeError, IndexError, TypeError):
                    unknown_rows.add(span)  # the signature changed
            return result

        wrapper.__name__ = getattr(fn, "__name__", span)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        wrapper.__wrapped__ = fn
        return wrapper

    def arrays(self):
        """The spans as numpy arrays: name id, parent, start, end, rows."""
        return (np.frombuffer(self.name, dtype=np.int32),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.start), np.frombuffer(self.end),
                np.frombuffer(self.rows, dtype=np.int64))

    def save(self, path):
        name, parent, start, end, rows = self.arrays()
        np.savez(path, names=np.array(self.names), name=name, parent=parent,
                 start=start, end=end, rows=rows)


def self_times(parent, duration):
    """Each span's duration minus the summed durations of its children."""
    child = np.bincount(parent[parent >= 0], weights=duration[parent >= 0],
                        minlength=duration.size)
    return duration - child


def layer_metrics(tracer, reps):
    """Per-layer metrics per repetition (counts, times) and per run (p50/p99).

    Returns (metrics, not_reported): metrics maps metric name to value;
    not_reported lists percentile metrics skipped because the function was
    called fewer than MIN_CALLS_FOR_PERCENTILES times in the run.
    """
    name, parent, start, end, rows = tracer.arrays()
    duration = end - start
    own = self_times(parent, duration)
    metrics, not_reported = {}, []
    for nid, span in enumerate(tracer.names):
        mask = name == nid
        calls = int(mask.sum())
        d = duration[mask]
        metrics[f"{span}.calls"] = calls / reps
        metrics[f"{span}.s"] = float(d.sum()) / reps
        metrics[f"{span}.self_s"] = float(own[mask].sum()) / reps
        if span not in tracer.unknown_rows:
            metrics[f"{span}.rows"] = int(rows[mask].sum()) / reps
        for q in (50, 99):
            key = f"{span}.p{q}_us"
            if calls >= MIN_CALLS_FOR_PERCENTILES:
                metrics[key] = float(np.percentile(d, q)) * 1e6
            else:
                metrics[key] = 0.0
                not_reported.append(key)
    for counter, _, _ in CONSTRUCTIONS:
        if counter in tracer.counted:
            metrics[counter] = tracer.counts[counter] / reps

    def ratio(num, den):
        return metrics[num] / metrics[den] if metrics.get(den) else 0.0

    metrics["qnn.forward_batch.rows_per_call"] = ratio(
        "qnn.forward_batch.rows", "qnn.forward_batch.calls")
    metrics["qnn.backprop_rows_per_train_row"] = ratio(
        "qnn.loss_and_gradient.rows", "qnn.train.rows")
    metrics["kernel.kernel_evals"] = metrics.get("kernel.nw_estimate.rows", 0.0)
    return metrics, not_reported

"""Span tracer that times fednoise's layers from outside the package.

``Tracer.install`` replaces public functions of the fednoise modules with
wrappers that record one span per call: (id, name, start, end, parent,
thread, work). Nothing under ``src/`` changes; a wrapper is put into every
fednoise module namespace that holds the original function, so calls that
go through ``from .model import forward`` style imports are caught too.
Spans stay in memory until the run ends, then ``layer_metrics`` turns them
into per-layer counts and self times.

Rounds have no function of their own. A ``federation.round`` span opens at
each ``select_clients`` call and closes at the next one or when
``run_federation`` returns, so round boundaries cost one timestamp per
round. Spans opened on thread-pool workers, whose own stack is empty, take
the open round span as their parent.

A span's self time is its duration minus the union of its children's
intervals, so overlapping children on pool threads are not counted twice.
"""

from __future__ import annotations

import itertools
import statistics
import sys
import threading
import time
from collections import defaultdict

LAYERS = ("numerics", "model", "losses", "augment", "data", "federation", "harness")

LOSS_FUNCTIONS = (
    "ce_loss", "lsr_total_loss", "self_distill_loss", "symmetric_ce_loss",
    "sharpened_ce_loss", "sharpened_ce_per_sample", "ce_per_sample", "small_loss_select",
)
LOCAL_TRAINERS = (
    "local_train_ce", "local_train_ce_aug", "local_train_symce", "local_train_lsr",
    "local_train_symce_lsr", "local_train_coteaching",
)

# (span name, defining module, function names, namespaces to patch). None
# patches every fednoise namespace that holds the function. The softmax
# pair is wrapped only where losses imports it, so the softmax call inside
# tempered_softmax is not a second span.
WRAPS = (
    ("numerics.softmax", "numerics", ("softmax", "tempered_softmax"), ("losses",)),
    ("model.forward", "model", ("forward",), None),
    ("model.backward", "model", ("backward",), None),
    ("model.sgd_step", "model", ("sgd_step",), None),
    *((f"losses.{fn}", "losses", (fn,), None) for fn in LOSS_FUNCTIONS),
    # Not reported on its own; wrapped so lsr_plus time lands in losses.
    ("losses.lsr_plus_loss", "losses", ("lsr_plus_loss",), None),
    ("augment.apply_batch", "augment", ("apply_batch",), None),
    ("data.generate_synthetic", "data", ("generate_synthetic",), None),
    ("data.load_idx", "data", ("load_idx",), None),
    ("data.inject_noise", "data", ("inject_symmetric_noise", "inject_pairwise_noise"), None),
    ("data.partition", "data", ("partition_iid", "partition_noniid"), None),
    ("data.subset", "data", ("subset",), None),
    ("federation.select_clients", "federation", ("select_clients",), None),
    ("federation.local_train", "federation", LOCAL_TRAINERS, None),
    ("federation.aggregate", "federation", ("aggregate",), None),
    ("federation.evaluate", "federation", ("evaluate",), None),
    ("federation.run", "federation", ("run_federation",), None),
    ("harness.materialize_config", "harness", ("materialize_config",), None),
    ("harness.run_from_config", "harness", ("run_from_config",), None),
    ("harness.run_experiment", "harness", ("run_experiment",), None),
)
GENERATOR = "numerics.generator"  # RngStream.generator, patched on the class

# The only wrappers of an untraced run, one span per call: round starts,
# the end of each SGD step, the end of run_federation and the
# run_experiment time. A step takes about a millisecond, so the wrapper
# adds about 0.2% to it.
CLOCK = ("federation.select_clients", "model.sgd_step", "federation.run",
         "harness.run_experiment")


def _rows(x) -> int:
    return 1 if x.ndim == 1 else x.shape[0]


def _model_work(args, result):
    params, x = args[0], args[1]
    return _rows(x), sum(i * o for i, o in params.shapes)


# Work recorded per call, from the arguments and the result.
WORK = {
    "model.forward": _model_work,
    "model.backward": _model_work,
    "augment.apply_batch": lambda args, result: args[1].shape[0],
    "federation.evaluate": lambda args, result: args[1].n,
    "losses.small_loss_select": lambda args, result: (len(args[0]), len(result)),
}


class Tracer:
    """Records spans for the functions it wraps; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._round = None  # (id, start, parent) of the open round span
        self._patched: list = []  # (owner, attribute, original)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _close_round(self, stack: list) -> None:
        if self._round is None:
            return
        rid, start, parent = self._round
        end = time.monotonic_ns()
        stack.remove(rid)
        self.spans.append((rid, "federation.round", start, end, parent, threading.get_ident(), None))
        self._round = None

    def wrap(self, name: str, fn):
        work = WORK.get(name)
        opens_round = name == "federation.select_clients"
        closes_round = name == "federation.run"
        spans, ids, clock, get_ident = self.spans, self._ids, time.monotonic_ns, threading.get_ident

        def traced(*args, **kwargs):
            stack = self._stack()
            if opens_round:
                self._close_round(stack)
                rid = next(ids)
                self._round = (rid, clock(), stack[-1] if stack else None)
                stack.append(rid)
            if stack:
                parent = stack[-1]
            else:
                parent = self._round[0] if self._round is not None else None
            sid = next(ids)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                if closes_round:
                    self._close_round(stack)
                end = clock()
                stack.pop()
            spans.append((sid, name, start, end, parent, get_ident(),
                          work(args, result) if work else None))
            return result

        return traced

    def install(self, names=None) -> "Tracer":
        """Wrap the spans in ``names`` (all of WRAPS and the generator if None)."""
        import fednoise  # noqa: F401  (loads every submodule)

        modules = [m for key, m in sys.modules.items()
                   if key == "fednoise" or key.startswith("fednoise.")]
        for span, home, functions, where in WRAPS:
            if names is not None and span not in names:
                continue
            targets = modules if where is None else [sys.modules[f"fednoise.{w}"] for w in where]
            for fn_name in functions:
                original = getattr(sys.modules[f"fednoise.{home}"], fn_name)
                traced = self.wrap(span, original)
                for module in targets:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, traced)
        if names is None or GENERATOR in names:
            stream_cls = sys.modules["fednoise.numerics"].RngStream
            self._patch(stream_cls, "generator", self.wrap(GENERATOR, stream_cls.generator))
        return self

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Put every original function back, newest patch first."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()


def self_times(spans: list) -> dict:
    """Span id -> duration minus the union of its children's intervals (ns)."""
    children = defaultdict(list)
    for span in spans:
        children[span[4]].append((span[2], span[3]))
    out = {}
    for sid, _, start, end, *_ in spans:
        covered, lo, hi = 0, None, None
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, start), min(c_end, end)
            if c_end <= c_start:
                continue
            if hi is None or c_start > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = c_start, c_end
            else:
                hi = max(hi, c_end)
        if hi is not None:
            covered += hi - lo
        out[sid] = end - start - covered
    return out


# Per-layer metric names in report order, with unit and better direction.
CALLS = ("numerics.generator", "numerics.softmax", "model.forward", "model.backward",
         "model.sgd_step", *(f"losses.{fn}" for fn in LOSS_FUNCTIONS),
         "augment.apply_batch", "federation.local_train", "federation.aggregate",
         "federation.evaluate")
ROWS = ("model.forward", "model.backward", "augment.apply_batch", "federation.evaluate")
DATA = ("data.generate_synthetic", "data.load_idx", "data.inject_noise",
        "data.partition", "data.subset")
HARNESS = ("harness.materialize_config", "harness.run_from_config", "harness.write_outputs")
SELF = (*CALLS, *DATA, "federation.select_clients", "federation.round", *HARNESS)


def _per_layer() -> list:
    out = []
    for name in SELF:
        if name in CALLS:
            out.append((f"{name}.calls", "count", "lower"))
        if name in ROWS:
            out.append((f"{name}.rows", "count", "lower"))
        out.append((f"{name}.self_ms", "ms", "lower"))
        if name == "model.sgd_step":
            out += [("model.useful_gflop", "GFLOP", "lower"),
                    ("model.gflop_per_s", "GFLOP/s", "higher")]
        elif name == "losses.small_loss_select":
            out.append(("losses.keep_ratio", "ratio", "higher"))
        elif name == "federation.local_train":
            out += [("federation.local_train.client_ms_p50", "ms", "lower"),
                    ("federation.local_train.client_ms_p90", "ms", "lower"),
                    ("federation.local_train.overlap", "ratio", "higher")]
    out += [("setup.import_ms", "ms", "lower"), ("trace.spans", "count", "lower"),
            ("trace.overhead_frac", "ratio", "lower")]
    out += [(f"{layer}.share", "ratio", "lower") for layer in LAYERS]
    return out


PER_LAYER = _per_layer()
# Metrics that must repeat exactly between traced runs of one seed.
COUNTS = frozenset(name for name, unit, _ in PER_LAYER if unit == "count") | {
    "model.useful_gflop", "losses.keep_ratio"}


def segments(spans: list) -> list:
    """Wall time in ns of each stretch between consecutive step boundaries.

    Boundaries are round starts, the end of every ``model.sgd_step`` call
    and the end of the last round, so the segments tile the federation
    from the first round start to the return of ``run_federation``. Runs
    of one seed make the same calls in the same order, so segment i is
    the same work in every run.
    """
    rounds = sorted((s for s in spans if s[1] == "federation.round"), key=lambda s: s[2])
    marks = [s[2] for s in rounds] + [rounds[-1][3]]
    marks += [s[3] for s in spans if s[1] == "model.sgd_step"]
    marks.sort()
    return [b - a for a, b in zip(marks, marks[1:])]


def quantile(values: list, q: float) -> float:
    """Linear-interpolation quantile of a non-empty list (q in [0, 1])."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def layer_metrics(spans: list, import_ns: int) -> dict:
    """Per-layer metrics of one traced run; trace.overhead_frac is left out.

    ``<layer>.share`` divides each layer's self time by the duration of the
    run_experiment span, whose self time is reported as
    harness.write_outputs (config read plus metrics.csv and summary.json
    written), so the seven shares sum to one.
    """
    own = self_times(spans)
    calls, self_ns, rows = defaultdict(int), defaultdict(int), defaultdict(int)
    layer_ns = defaultdict(int)
    flop = scored = kept = round_ns = 0
    client_ns, total_ns = [], None
    for sid, name, start, end, _, _, work in spans:
        if name == "harness.run_experiment":
            name, total_ns = "harness.write_outputs", end - start
        calls[name] += 1
        self_ns[name] += own[sid]
        layer_ns[name.split(".")[0]] += own[sid]
        if name in ("model.forward", "model.backward"):
            n, macs = work
            rows[name] += n
            flop += (2 if name == "model.forward" else 4) * n * macs
        elif name in ROWS:
            rows[name] += work
        elif name == "losses.small_loss_select":
            scored += work[0]
            kept += work[1]
        elif name == "federation.local_train":
            client_ns.append(end - start)
        elif name == "federation.round":
            round_ns += end - start
    if total_ns is None:
        raise ValueError("no harness.run_experiment span: the run was not traced")

    model_s = (self_ns["model.forward"] + self_ns["model.backward"]) / 1e9
    derived = {
        "model.useful_gflop": flop / 1e9,
        "model.gflop_per_s": flop / 1e9 / model_s if model_s else 0.0,
        "losses.keep_ratio": kept / scored if scored else 0.0,
        "federation.local_train.client_ms_p50": quantile(client_ns, 0.5) / 1e6 if client_ns else 0.0,
        "federation.local_train.client_ms_p90": quantile(client_ns, 0.9) / 1e6 if client_ns else 0.0,
        "federation.local_train.overlap": sum(client_ns) / round_ns if round_ns else 0.0,
        "setup.import_ms": import_ns / 1e6,
        "trace.spans": len(spans),
        **{f"{layer}.share": layer_ns[layer] / total_ns for layer in LAYERS},
    }
    out = {}
    for name, _, _ in PER_LAYER:
        if name in derived:
            out[name] = derived[name]
        elif name.endswith(".calls"):
            out[name] = calls[name[:-6]]
        elif name.endswith(".rows"):
            out[name] = rows[name[:-5]]
        elif name.endswith(".self_ms"):
            out[name] = self_ns[name[:-8]] / 1e6
    return out


def median_metrics(runs: list) -> dict:
    """Combine traced runs: counts must agree exactly, times take the median."""
    out = {}
    for name in runs[0]:
        values = [run[name] for run in runs]
        if name in COUNTS:
            if any(v != values[0] for v in values):
                raise ValueError(f"count {name} differs between traced runs: {values}")
            out[name] = values[0]
        else:
            out[name] = statistics.median(values)
    return out

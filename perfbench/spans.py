"""Span tracing from outside the program, by wrapping fusecast's public calls.

Each wrapper is installed on the attribute the caller resolves at call time
(for example `fusecast.network.decouple`, not only `fusecast.decouple.decouple`)
and the original is put back on restore. A span records its name, start, end,
parent span and step; a step begins at every `WindowSet.batch` call, so the
spans of one training step or eval batch share a step id. Spans stay in
memory and are written once, when the run ends.

Counting wrappers (every public op of `fusecast.tensor`, and `matmul` with its
flop count) add to counters without opening a span.
"""

from __future__ import annotations

import inspect
import itertools
import json
import os
import statistics
import time
import weakref
from collections import defaultdict
from contextlib import contextmanager

# span name -> (module path, owner attribute or None, attribute). training.train
# has no span: the operation span around it stands for it, so its own self time
# is the training loop's code that no layer span covers.
SPAN_TARGETS = {
    "training.evaluate": ("fusecast.training", None, "evaluate"),
    "training.masked_mae_loss": ("fusecast.training", None, "masked_mae_loss"),
    "network.forward_batch": ("fusecast.network", "Forecaster", "forward_batch"),
    "network.rgc_forward": ("fusecast.network", None, "rgc_forward"),
    "network.gru_forward": ("fusecast.network", None, "gru_forward"),
    "graphgen.generate_pattern_graph": ("fusecast.network", None, "generate_pattern_graph"),
    "graphgen.build_directed_graph": ("fusecast.graphgen", None, "build_directed_graph"),
    "graphgen.fuse_graphs": ("fusecast.graphgen", None, "fuse_graphs"),
    "graphgen.lookup": ("fusecast.graphgen", "TimeEmbeddingPools", "lookup"),
    "decouple.decouple": ("fusecast.network", None, "decouple"),
    "tensor.backward": ("fusecast.tensor", "Tape", "backward"),
    "optim.adam_step": ("fusecast.optim", "Adam", "step"),
    "data.load_series": ("fusecast.data", None, "load_series"),
    "data.batch": ("fusecast.data", "WindowSet", "batch"),
    "checkpoint.save": ("fusecast.checkpoint", None, "save_checkpoint"),
    "checkpoint.save@training": ("fusecast.training", None, "save_checkpoint"),
    "checkpoint.load": ("fusecast.checkpoint", None, "load_checkpoint"),
}

# layers whose backward is replayed: per-layer metric -> span name
REPLAYED = {
    "graphgen.backward_ms": "graphgen.generate_pattern_graph",
    "decouple.backward_ms": "decouple.decouple",
    "network.rgc_backward_ms": "network.rgc_forward",
    "network.gru_backward_ms": "network.gru_forward",
}

OP_SPAN = "op"  # opened by the benchmark around each measured operation


def resolve(modules, module_path, owner, attr):
    """The object holding `attr`, failing loudly when the program renamed it."""
    holder = modules[module_path]
    if owner is not None:
        holder = getattr(holder, owner)
    if not callable(getattr(holder, attr, None)):
        raise AttributeError(f"{module_path}.{owner + '.' if owner else ''}{attr} is gone")
    return holder


def tensor_ops(tensor_module):
    """Every public op function of fusecast.tensor (looked up, so new ops count too)."""
    return sorted(name for name, fn in vars(tensor_module).items()
                  if inspect.isfunction(fn) and fn.__module__ == tensor_module.__name__
                  and not name.startswith("_") and name != "active_tape")


class Tracer:
    """Installs span and counting wrappers and keeps what they record."""

    def __init__(self, modules):
        self.modules = modules  # "fusecast.x" -> module
        self.spans = []         # [name, start, end, parent index, step, phase]
        self.counts = defaultdict(float)
        self.tape_lengths = []
        self.checkpoint_bytes = 0
        self.captures = []      # (span name, original fn, args, kwargs) of the last taped step
        self._capture_tape = lambda: None  # weak, so a finished step's tape is freed
        self._stack = []
        self._step = 0
        self._phase = ""
        self._saved = []

    # -- installing and restoring ------------------------------------------

    @contextmanager
    def active(self, phase: str):
        """Trace everything inside the block, tagged with `phase`."""
        self._phase = phase
        self._install()
        try:
            yield self
        finally:
            self._restore()

    def _patch(self, holder, attr, wrapper):
        self._saved.append((holder, attr, holder.__dict__[attr]))
        setattr(holder, attr, wrapper)

    def _install(self):
        for name, (module_path, owner, attr) in SPAN_TARGETS.items():
            holder = resolve(self.modules, module_path, owner, attr)
            self._patch(holder, attr, self._span_wrapper(name.split("@")[0], getattr(holder, attr)))
        if self._phase != "op":
            return  # op counts are per step, so only operations are counted
        tensor = self.modules["fusecast.tensor"]
        for attr in tensor_ops(tensor):
            self._patch(tensor, attr, self._count_wrapper(attr, getattr(tensor, attr)))

    def _restore(self):
        while self._saved:
            holder, attr, original = self._saved.pop()
            setattr(holder, attr, original)

    # -- wrappers ----------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._step, self._phase])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def _span_wrapper(self, name, fn):
        tracer = self
        active_tape = self.modules["fusecast.tensor"].active_tape

        def wrapper(*args, **kwargs):
            if name == "data.batch":
                tracer._step += 1
            elif name == "tensor.backward":
                tracer.tape_lengths.append(len(args[0]))
            elif name in REPLAYED.values():
                tracer._capture(name, fn, args, kwargs, active_tape())
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if name == "checkpoint.save":
                tracer.checkpoint_bytes = os.path.getsize(args[0])
            return result

        wrapper.__wrapped__ = fn
        wrapper.__dict__.update(getattr(fn, "__dict__", {}))
        return wrapper

    def _count_wrapper(self, attr, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts["tensor.op_calls"] += 1
            if attr == "matmul":
                a, b = args[0].shape, args[1].shape
                counts["tensor.matmul_calls"] += 1
                counts["tensor.matmul_gflop"] += (2e-9 * _batch_size(a[:-2], b[:-2])
                                                  * a[-2] * a[-1] * b[-1])
            return fn(*args, **kwargs)

        return wrapper

    def _capture(self, name, fn, args, kwargs, tape):
        """Keep the inputs of the replayed layers from the latest taped step."""
        if tape is None:
            return
        if tape is not self._capture_tape():
            self._capture_tape = weakref.ref(tape)
            self.captures = []
        self.captures.append((name, fn, args, kwargs))

    # -- reading the record ------------------------------------------------

    def summary(self, steps: int) -> dict:
        """Per-step layer times over the traced operations, plus the remainder.

        Self time is a span's duration minus its direct children's. Within the
        operation spans every instant belongs to exactly one span's self time,
        so the self times of layer spans plus the operation spans' own self
        time (`unattributed_s`, time no layer span covers: the training loop's
        zero_grad, loss.item, state copies and history writes) add up to
        `wall_s`.
        """
        child_time = defaultdict(float)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        in_op = self._inside_ops()
        total, self_time = defaultdict(float), defaultdict(float)
        wall = unattributed = 0.0
        for i, (name, start, end, parent, _, _) in enumerate(self.spans):
            if not in_op[i]:
                continue
            own = (end - start) - child_time[i]
            if name == OP_SPAN:
                wall += end - start
                unattributed += own
            else:
                total[name] += end - start
                self_time[name] += own
        steps = max(steps, 1)
        return {
            "steps": steps,
            "wall_s": wall,
            "unattributed_s": unattributed,
            "ms_per_step": {name: 1e3 * t / steps for name, t in total.items()},
            "self_ms_per_step": {name: 1e3 * t / steps for name, t in self_time.items()},
        }

    def _inside_ops(self):
        inside = []
        for name, _, _, parent, _, _ in self.spans:
            inside.append(name == OP_SPAN or (parent >= 0 and inside[parent]))
        return inside

    def call_ms(self, name: str) -> float:
        """Median duration of one call, over every span of that name."""
        times = [1e3 * (end - start) for n, start, end, *_ in self.spans if n == name]
        return statistics.median(times) if times else 0.0

    def count_in_ops(self, name: str) -> int:
        in_op = self._inside_ops()
        return sum(1 for i, span in enumerate(self.spans) if in_op[i] and span[0] == name)

    def write(self, path, summary: dict):
        with open(path, "w") as fh:
            for name, start, end, parent, step, phase in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent,
                                     "step": step, "phase": phase}) + "\n")
            fh.write(json.dumps({"summary": summary}) + "\n")


def _batch_size(a, b) -> int:
    """Element count of the broadcast of two batch shapes."""
    size = 1
    for x, y in itertools.zip_longest(reversed(a), reversed(b), fillvalue=1):
        size *= max(x, y)
    return size


def replay_backward(tracer: Tracer, tape_cls, reset_grads, rounds: int = 2) -> dict:
    """Backward ms per step of each replayed layer, median over `rounds`.

    Every captured call of the latest taped step runs again under its own
    Tape, and Tape.backward is timed from a ones seed on the layer's output:
    `final` of an AdjacencySet, the first (gated) stream of PatternFlows, or
    the tensor itself.
    """
    rounds_ms = defaultdict(list)
    for _ in range(rounds):
        spent = defaultdict(float)
        for name, fn, args, kwargs in tracer.captures:
            reset_grads(args)
            with tape_cls() as tape:
                result = fn(*args, **kwargs)
            if hasattr(result, "final"):
                output = result.final
            elif hasattr(result, "flows"):
                output = result.flows[0]
            else:
                output = result
            start = time.perf_counter()
            tape.backward(output)
            spent[name] += time.perf_counter() - start
        for name, seconds in spent.items():
            rounds_ms[name].append(1e3 * seconds)
    reset_grads(())
    return {metric: statistics.median(rounds_ms[span]) if rounds_ms[span] else 0.0
            for metric, span in REPLAYED.items()}

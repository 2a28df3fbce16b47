"""Span tracing of sparsekit from the outside.

A `Tracer` wraps the public functions of each sparsekit module on the name
the caller looks up (`sparsekit.pipeline.make_mlm_batch`, `sparsekit.tensor.
matmul`, the `Adam.step` class attribute, ...), records one span per call in
memory, and puts every original back when `installed()` exits. Nothing under
`src/` is edited, and untraced runs measure the unpatched package.
"""
from __future__ import annotations

import contextlib
import functools
import gzip
import hashlib
import json
from array import array
from time import perf_counter_ns

import numpy as np

PRIMITIVES = ("matmul", "add", "mul", "layer_norm_last_axis", "softmax_last_axis", "gelu",
              "embedding_lookup", "cross_entropy_with_targets", "transpose", "reshape",
              "scale", "take_rows")

# Stage runner name in sparsekit.pipeline -> stage name used in span and metric names.
STAGES = {"run_teacher_prep": "teacher-prep", "run_student_prune": "student-prune",
          "run_transfer": "transfer", "run_qat": "qat",
          "run_finetune_prune_baseline": "finetune-prune-baseline"}

# (module, attribute, span name) for plain module-level functions.
_MODULE_FUNCTIONS = (
    ("tensor", "backward", "tensor.backward"),
    ("pipeline", "make_mlm_batch", "data.make_mlm_batch"),
    ("pipeline", "task_minibatch", "data.task_minibatch"),
    ("pipeline", "build_synthetic_corpus", "data.build_synthetic_corpus"),
    ("pipeline", "make_task_dataset", "data.make_task_dataset"),
    ("pipeline", "sparsity_report", "pruning.sparsity_report"),
    ("pipeline", "kd_loss", "distill.kd_loss"),
    ("pipeline", "model_from_checkpoint", "checkpoint.model_from_checkpoint"),
    ("checkpoint", "model_from_checkpoint", "checkpoint.model_from_checkpoint"),
    ("checkpoint", "serialize", "checkpoint.serialize"),
    ("quant", "fake_quant", "quant.fake_quant"),
    ("report", "compression_report", "report.compression_report"),
)


def self_times(parents, durations):
    """Self time of each span: its duration minus the durations of its direct
    children. Spans of one thread nest, so children never overlap."""
    own = list(durations)
    for parent, dur in zip(parents, durations):
        if parent >= 0:
            own[parent] -= dur
    return own


def zero_pattern_digest(arrays) -> bytes:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.packbits(np.asarray(a).reshape(-1) == 0).tobytes())
    return h.digest()


class Tracer:
    """In-memory span recorder plus the counters that spans cannot give."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack: list[int] = []
        self.nodes = 0
        self.teacher_nodes = 0
        self._teacher_depth = 0
        # Parameter dicts of the current stage's optimizers, held by reference:
        # an id() can be reused by a later stage's model once this one is freed.
        self._owned: list[dict] = []
        self.prune_calls = 0
        self.prune_unchanged = 0
        self.bytes_deserialized = 0
        self._patches: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _begin(self, nid: int) -> int:
        i = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_end.append(0)
        self._stack.append(i)
        self.span_start.append(perf_counter_ns())
        return i

    def _end(self, i: int) -> None:
        self.span_end[i] = perf_counter_ns()
        self._stack.pop()

    def _timed(self, name: str, fn):
        nid = self._id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = self._begin(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._end(i)
        return wrapper

    # -- wrappers ------------------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    @contextlib.contextmanager
    def installed(self, sk):
        """Wrap every traced function of the sparsekit package `sk`, and
        restore the originals on exit, in reverse order."""
        try:
            for mod, attr, name in _MODULE_FUNCTIONS:
                owner = getattr(sk, mod)
                self._patch(owner, attr, self._timed(name, getattr(owner, attr)))
            for prim in PRIMITIVES:
                self._patch(sk.tensor, prim, self._primitive(prim, getattr(sk.tensor, prim)))
            for mod in (sk.tensor, sk.quant, sk.distill):
                self._patch(mod, "_node", self._node_counter(mod._node))
            self._patch(sk.pipeline, "prune_step", self._prune_step(sk.pipeline.prune_step))
            self._patch(sk.checkpoint, "deserialize", self._deserialize(sk.checkpoint.deserialize))
            adam = sk.optim.Adam
            self._patch(adam, "__init__", self._adam_init(adam.__init__))
            self._patch(adam, "step", self._timed("optim.step", adam.step))
            enc = sk.model.EncoderModel
            self._patch(enc, "forward_mlm", self._forward(enc.forward_mlm))
            self._patch(enc, "forward_classify", self._forward(enc.forward_classify))
            for fn, stage in STAGES.items():
                self._patch(sk.pipeline, fn, self._stage(stage, getattr(sk.pipeline, fn)))
            yield self
        finally:
            while self._patches:
                owner, attr, original = self._patches.pop()
                setattr(owner, attr, original)

    def _primitive(self, prim: str, fn):
        nid = self._id(f"tensor.{prim}")
        bwd_nid = self._id(f"tensor.{prim}.bwd")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = self._begin(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._end(i)
            backward_fn = out._backward
            if backward_fn is not None:
                def timed_backward(g):
                    j = self._begin(bwd_nid)
                    try:
                        return backward_fn(g)
                    finally:
                        self._end(j)
                out._backward = timed_backward
            return out
        return wrapper

    def _node_counter(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.nodes += 1
            if self._teacher_depth:
                self.teacher_nodes += 1
            return fn(*args, **kwargs)
        return wrapper

    def _adam_init(self, fn):
        @functools.wraps(fn)
        def wrapper(opt, parameters, *args, **kwargs):
            fn(opt, parameters, *args, **kwargs)
            self._owned.append(parameters)
        return wrapper

    def _forward(self, fn):
        """A forward on a model whose parameters no optimizer of the current
        stage owns is a teacher forward: no backward visits its nodes."""
        student = self._id("model.forward.student")
        teacher = self._id("model.forward.teacher")

        @functools.wraps(fn)
        def wrapper(model, *args, **kwargs):
            is_teacher = not any(model.parameters is p for p in self._owned)
            self._teacher_depth += is_teacher
            i = self._begin(teacher if is_teacher else student)
            try:
                return fn(model, *args, **kwargs)
            finally:
                self._end(i)
                self._teacher_depth -= is_teacher
        return wrapper

    def _stage(self, stage: str, fn):
        nid = self._id(f"pipeline.{stage}")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._owned = []
            i = self._begin(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._end(i)
                self._owned = []
        return wrapper

    def _prune_step(self, fn):
        """Counts calls that return the zero pattern of the previous call's
        masks, which the caller passes back in; a stage's first call has none."""
        timed = self._timed("pruning.prune_step", fn)

        @functools.wraps(fn)
        def wrapper(model, mask_set, ratio):
            out = timed(model, mask_set, ratio)
            self.prune_calls += 1
            if mask_set is not None:
                names = model.prunable_parameters()
                self.prune_unchanged += (zero_pattern_digest(out[n] for n in names)
                                         == zero_pattern_digest(mask_set[n] for n in names))
            return out
        return wrapper

    def _deserialize(self, fn):
        timed = self._timed("checkpoint.deserialize", fn)

        @functools.wraps(fn)
        def wrapper(data):
            self.bytes_deserialized += len(data)
            return timed(data)
        return wrapper

    # -- results -------------------------------------------------------------

    def totals(self):
        """name -> (calls, total ns, self ns) over every recorded span."""
        durations = [e - s for s, e in zip(self.span_start, self.span_end)]
        own = self_times(self.span_parent, durations)
        out = {name: [0, 0, 0] for name in self.names}
        for nid, dur, self_ns in zip(self.span_name, durations, own):
            acc = out[self.names[nid]]
            acc[0] += 1
            acc[1] += dur
            acc[2] += self_ns
        return out

    def write(self, path) -> None:
        """Spans as gzipped JSON columns; times in ns from the first span."""
        t0 = self.span_start[0] if self.span_start else 0
        doc = {"names": self.names, "name": self.span_name.tolist(),
               "parent": self.span_parent.tolist(),
               "start_ns": [s - t0 for s in self.span_start],
               "end_ns": [e - t0 for e in self.span_end]}
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def per_layer_metrics(tracer: Tracer, overhead_s: float) -> dict:
    """The per-module metrics of one traced pass, by name: (value, unit)."""
    tot = tracer.totals()

    def calls(name):
        return tot.get(name, (0, 0, 0))[0]

    def ms(name, index=1):
        return tot.get(name, (0, 0, 0))[index] / 1e6

    m = {"tensor.nodes": (tracer.nodes, "count")}
    for prim in PRIMITIVES:
        m[f"tensor.{prim}.calls"] = (calls(f"tensor.{prim}"), "count")
        m[f"tensor.{prim}.fwd_ms"] = (ms(f"tensor.{prim}"), "ms")
        m[f"tensor.{prim}.bwd_ms"] = (ms(f"tensor.{prim}.bwd"), "ms")
    m["tensor.backward.ms"] = (ms("tensor.backward"), "ms")
    m["model.forward.student_ms"] = (ms("model.forward.student"), "ms")
    m["model.forward.teacher_ms"] = (ms("model.forward.teacher"), "ms")
    m["model.teacher_node_ratio"] = (tracer.teacher_nodes / tracer.nodes if tracer.nodes else 0.0,
                                     "ratio")
    m["pruning.prune_step.ms"] = (ms("pruning.prune_step"), "ms")
    m["pruning.prune_step.calls"] = (tracer.prune_calls, "count")
    m["pruning.prune_step.unchanged_ratio"] = (
        tracer.prune_unchanged / tracer.prune_calls if tracer.prune_calls else 0.0, "ratio")
    m["pruning.sparsity_report.ms"] = (ms("pruning.sparsity_report"), "ms")
    for fn in ("make_mlm_batch", "task_minibatch", "build_synthetic_corpus", "make_task_dataset"):
        m[f"data.{fn}.ms"] = (ms(f"data.{fn}"), "ms")
    m["optim.step.ms"] = (ms("optim.step"), "ms")
    m["optim.step.calls"] = (calls("optim.step"), "count")
    m["distill.kd_loss.ms"] = (ms("distill.kd_loss"), "ms")
    m["quant.fake_quant.ms"] = (ms("quant.fake_quant"), "ms")
    m["quant.fake_quant.calls"] = (calls("quant.fake_quant"), "count")
    for fn in ("serialize", "deserialize", "model_from_checkpoint"):
        m[f"checkpoint.{fn}.ms"] = (ms(f"checkpoint.{fn}"), "ms")
    m["checkpoint.bytes"] = (tracer.bytes_deserialized, "B")
    m["report.compression_report.ms"] = (ms("report.compression_report"), "ms")
    for stage in STAGES.values():
        m[f"pipeline.{stage}.self_ms"] = (ms(f"pipeline.{stage}", 2), "ms")
    m["trace.overhead_s"] = (overhead_s, "s")
    return m

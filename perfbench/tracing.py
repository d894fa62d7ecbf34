"""Spans recorded from outside the program, around its public entry points.

Nothing here edits the program: a :class:`TimingBackend` is handed to it
through its ``backend=`` parameter, and :meth:`Tracer.install` wraps
public methods of the pipeline, sharding and training classes for the
lifetime of a ``with`` block, restoring them afterwards.

Every wrapper records only while ``tracer.enabled`` is true, so a traced
run can alternate traced and untraced operations on the same objects and
report the tracing overhead from the pair.  Spans are totalled per
operation (:meth:`Tracer.begin_op`); a span's time is also charged to the
span open around it on the same thread as ``<parent>.children``, which is
how self time (for example the pipeline epilogue) is derived.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from common import MB


def _nbytes(*arrays) -> int:
    return int(sum(np.asarray(a).nbytes for a in arrays))


def _csr_bytes(matrix) -> int:
    return _nbytes(matrix.indptr, matrix.indices, matrix.data)


@contextmanager
def call_clock(*owners):
    """Time every call of ``owner.advance`` for each owner class, always on,
    with ``perf_counter``; yields the list the durations are appended to."""
    seconds: list[float] = []
    saved = [(owner, owner.advance) for owner in owners]

    def timed(function):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                seconds.append(time.perf_counter() - start)

        return wrapper

    for owner, function in saved:
        owner.advance = timed(function)
    try:
        yield seconds
    finally:
        for owner, function in saved:
            owner.advance = function


class Tracer:
    def __init__(self) -> None:
        self.enabled = False
        self.ops: list[dict] = []
        self._current: dict | None = None
        self._lock = threading.Lock()
        self._local = threading.local()

    # ------------------------------------------------------------------ #
    def begin_op(self) -> None:
        """Start accumulating a new operation's spans and counts."""
        with self._lock:
            self._current = defaultdict(float)
            self.ops.append(self._current)

    def add(self, name: str, value: float) -> None:
        if not self.enabled or self._current is None:
            return
        with self._lock:
            self._current[name] += value

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        stack.append(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            stack.pop()
            self.add(name + ".s", elapsed)
            self.add(name + ".calls", 1)
            if stack:
                self.add(stack[-1] + ".children", elapsed)

    def per_op(self, key: str, scale: float = 1.0) -> float:
        """Median over recorded operations of one accumulated value."""
        if not self.ops:
            return 0.0
        return float(np.median([op.get(key, 0.0) for op in self.ops])) * scale

    # ------------------------------------------------------------------ #
    def wrap(self, function, name: str):
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer.span(name):
                return function(*args, **kwargs)

        return wrapper

    def timed_iter(self, iterator, name: str):
        """Yield from ``iterator``, timing each ``next`` as span ``name``."""
        iterator = iter(iterator)
        while True:
            with self.span(name):
                try:
                    item = next(iterator)
                except StopIteration:
                    return
            yield item

    @contextmanager
    def install(self):
        """Wrap the pipeline and sharding public entry points for the block."""
        from repro.challenge.pipeline import CheckpointStage, ComputeStage, LoadStage
        from repro.parallel import sharding

        tracer = self
        saved = []

        def patch(owner, attr, replacement):
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, replacement)

        load_iter = LoadStage.__iter__
        patch(LoadStage, "__iter__",
              lambda stage: tracer.timed_iter(load_iter(stage), "pipeline.load_wait"))
        for stage in (ComputeStage, sharding.ShardedComputeStage):
            patch(stage, "advance", self.wrap(stage.advance, "pipeline.compute"))
        patch(CheckpointStage, "save", self.wrap(CheckpointStage.save, "pipeline.checkpoint"))
        # the process transport's all-gather: broadcast, shard steps, collect
        patch(sharding.ShardWorkerPool, "step",
              self.wrap(sharding.ShardWorkerPool.step, "sharding.step"))
        # the serial shard transport looks these module functions up per
        # layer: slicing is the broadcast side, hstack the gather
        shard_layer = sharding.shard_layer
        hstack_csr = sharding.hstack_csr

        def slice_layer(weight, weight_t, bias, layout):
            with tracer.span("sharding.slice"):
                sharded = shard_layer(weight, weight_t, bias, layout)
            tracer.add("sharding.payload_bytes", sum(
                _csr_bytes(part) for shard in sharded.shards for part in shard[:2]
                if part is not None
            ))
            return sharded

        def gather(blocks):
            with tracer.span("sharding.gather"):
                merged = hstack_csr(blocks)
            tracer.add("sharding.payload_bytes", sum(_csr_bytes(b) for b in blocks))
            return merged

        patch(sharding, "shard_layer", slice_layer)
        patch(sharding, "hstack_csr", gather)
        try:
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def instrument_training(self, model, optimizer) -> None:
        """Wrap one model's forward/backward and its optimizer's step."""
        model.forward = self.wrap(model.forward, "nn.forward")
        model.backward = self.wrap(model.backward, "nn.backward")
        optimizer.step = self.wrap(optimizer.step, "nn.optimizer")

    # ------------------------------------------------------------------ #
    def kernel_metrics(self) -> dict:
        """The ``backends.*`` per-layer metrics, per operation."""
        return {
            "backends.spmm_ms": self.per_op("backends.spmm.s", 1e3),
            "backends.spmm_calls": self.per_op("backends.spmm.calls"),
            "backends.sparse_layer_step_ms": self.per_op("backends.sparse_layer_step.s", 1e3),
            "backends.sparse_layer_step_calls": self.per_op("backends.sparse_layer_step.calls"),
            "backends.transpose_ms": self.per_op("backends.transpose.s", 1e3),
            "backends.sdmm_ms": self.per_op("backends.sdmm.s", 1e3),
            "backends.sdmm_calls": self.per_op("backends.sdmm.calls"),
            "backends.bytes_moved_mb": self.per_op("backends.bytes", 1.0 / MB),
        }


class TimingBackend:
    """A ``SparseBackend`` that forwards to ``inner`` and times four kernels;
    the other kernels pass straight through ``__getattr__``.

    ``backends.bytes`` is computed, not measured: the bytes of every
    operand and result array of each timed kernel call.
    """

    def __init__(self, inner, tracer: Tracer) -> None:
        self.inner = inner
        self.name = inner.name
        self.tracer = tracer

    def __getattr__(self, attr):
        return getattr(self.inner, attr)

    def _timed(self, kernel: str, call, operand_bytes):
        with self.tracer.span("backends." + kernel):
            result = call()
        if self.tracer.enabled:
            out = _csr_bytes(result) if hasattr(result, "indptr") else _nbytes(result)
            self.tracer.add("backends.bytes", operand_bytes + out)
        return result

    def spmm(self, a, dense):
        return self._timed("spmm", lambda: self.inner.spmm(a, dense),
                           _csr_bytes(a) + _nbytes(dense))

    def sparse_layer_step(self, y, weight, bias, threshold):
        return self._timed(
            "sparse_layer_step",
            lambda: self.inner.sparse_layer_step(y, weight, bias, threshold),
            _csr_bytes(y) + _csr_bytes(weight) + _nbytes(bias),
        )

    def transpose(self, a):
        return self._timed("transpose", lambda: self.inner.transpose(a), _csr_bytes(a))

    def sdmm(self, x, dy, pattern):
        return self._timed("sdmm", lambda: self.inner.sdmm(x, dy, pattern),
                           _nbytes(x, dy) + _csr_bytes(pattern))

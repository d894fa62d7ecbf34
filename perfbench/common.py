"""Shared pieces of the benchmark: metric tables, statistics, run records.

The metric names and units here are the single source the workloads emit
and the benchmark's own tests compare against ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / ".perfbench_work"

# end-to-end metrics: name -> unit (every workload reports every one)
END_TO_END = {
    "setup_s": "s",
    "edges_per_s": "edges/s",
    "samples_per_s": "samples/s",
    "lat_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

# per-layer metrics of the traced run: name -> unit.  A workload that does
# not exercise a layer reports 0 for it.
PER_LAYER = {
    "challenge.generator.layer_ms": "ms",
    "challenge.io.write_s": "s",
    "challenge.io.written_mb": "MB",
    "pipeline.load_wait_ms": "ms",
    "pipeline.compute_ms": "ms",
    "pipeline.epilogue_ms": "ms",
    "pipeline.checkpoint_ms": "ms",
    "pipeline.dense_layers": "count",
    "pipeline.sparse_layers": "count",
    "backends.spmm_ms": "ms",
    "backends.spmm_calls": "count",
    "backends.sparse_layer_step_ms": "ms",
    "backends.sparse_layer_step_calls": "count",
    "backends.transpose_ms": "ms",
    "backends.sdmm_ms": "ms",
    "backends.sdmm_calls": "count",
    "backends.bytes_moved_mb": "MB",
    "sharding.slice_ms": "ms",
    "sharding.gather_ms": "ms",
    "sharding.payload_mb": "MB",
    "sharding.step_ms": "ms",
    "sharding.worker_rss_mb": "MB",
    "serve.queue_wait_ms": "ms",
    "serve.service_ms": "ms",
    "serve.batch_rows": "count",
    "serve.client_overhead_ms": "ms",
    "serve.engine_step_ms": "ms",
    "serve.engine_step_batch_ms": "ms",
    "nn.forward_ms": "ms",
    "nn.backward_ms": "ms",
    "nn.optimizer_ms": "ms",
    "core.generate_radixnet_ms": "ms",
    "datasets.synthetic_mnist_s": "s",
    "trace.overhead_pct": "%",
}

MB = float(1 << 20)


def median(values) -> float:
    """Median of a non-empty series; an empty one is an error, never 0."""
    values = list(values)
    if not values:
        raise ValueError("median of no measurements")
    return float(np.median(values))


def peak_rss_mb() -> float:
    """Peak resident set size of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def dir_size_mb(path: Path) -> float:
    return sum(p.stat().st_size for p in path.iterdir() if p.is_file()) / MB


def rng_for(seed: int, *stream: int) -> np.random.Generator:
    """An independent generator per (seed, stream...) -- inputs depend only on the seed."""
    return np.random.default_rng([seed, *stream])


def bernoulli_rows(rng: np.random.Generator, rows: int, neurons: int, p: float) -> np.ndarray:
    """0/1 rows with ``p`` active fraction; every row keeps at least one active input."""
    batch = (rng.random((rows, neurons)) < p).astype(np.float64)
    empty = np.flatnonzero(batch.sum(axis=1) == 0)
    batch[empty, rng.integers(0, neurons, size=empty.size)] = 1.0
    return batch


class WorkDir:
    """A scratch directory inside the checkout, removed on exit."""

    def __init__(self, name: str) -> None:
        self.path = WORK_ROOT / f"{name}-{os.getpid()}"

    def __enter__(self) -> Path:
        shutil.rmtree(self.path, ignore_errors=True)
        self.path.mkdir(parents=True)
        return self.path

    def __exit__(self, *exc_info: object) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it


@dataclass
class Outcome:
    """What one workload run reports: op accounting plus metric values."""

    attempted: int = 0
    failed_ops: set = field(default_factory=set)
    problems: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)

    def fail(self, ops, reason: str) -> None:
        """Record a failed check on the given op indices (an iterable)."""
        self.failed_ops.update(ops)
        self.problems.append(reason)

    def result_line(self, trace: bool) -> str:
        table = PER_LAYER if trace else END_TO_END
        missing = sorted(set(table) - set(self.metrics))
        if missing:
            raise RuntimeError(f"workload did not measure {missing}")
        return json.dumps(
            {
                "correct": not self.problems,
                "attempted": int(self.attempted),
                "failed": len(self.failed_ops),
                "metrics": {
                    name: {"value": float(self.metrics[name]), "unit": unit}
                    for name, unit in table.items()
                },
            }
        )


def environment(seed: int, workload: str) -> dict:
    import scipy

    from repro import backends

    return {
        "workload": workload,
        "seed": seed,
        "cpu_count": os.cpu_count(),
        "backends_available": list(backends.available_backends()),
        "backend_chosen": backends.resolve_backend(None).name,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def per_layer(measured: dict) -> dict:
    """Every per-layer metric: the measured ones, 0 for layers not exercised."""
    unknown = set(measured) - set(PER_LAYER)
    if unknown:
        raise RuntimeError(f"unknown per-layer metrics {sorted(unknown)}")
    return {name: float(measured.get(name, 0.0)) for name in PER_LAYER}


def overhead_pct(traced, untraced) -> float:
    """Median traced op time over median untraced op time, as a % excess."""
    if not traced or not untraced:
        return 0.0
    return (median(traced) / median(untraced) - 1.0) * 100.0

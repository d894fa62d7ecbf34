"""RadiX-Net training workload: CSR-trainable layers on a 1024-wide
RadiX-Net, Adam, batch 64, whole epochs over synthetic MNIST.

This is the only workload that writes weights and runs the ``sdmm``
backward kernel; it reaches the backend plane through many small calls.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

import reference
from common import (
    Outcome,
    log,
    median,
    overhead_pct,
    peak_rss_mb,
    per_layer,
    rng_for,
)
from tracing import TimingBackend, Tracer


LEARNING_RATE = 1e-3
# CSR and MaskedSparseLayer training agree to round-off after the replayed
# steps (a wrong gradient differs by ~LEARNING_RATE), not bit for bit at
# this width
MASKED_ATOL = 1e-9


@dataclass(frozen=True)
class TrainConfig:
    name: str = "train-radixnet"
    radix_systems: tuple = ((8, 8, 8), (8, 8, 8))
    widths: tuple = (2, 2, 2, 2, 2, 2, 1)
    samples: int = 4096
    held_out: int = 1024
    batch: int = 64
    setups: int = 3
    min_epochs: int = 2
    # steps replayed with MaskedSparseLayer
    check_steps: int = 3
    # held-out accuracy the trained model must reach (chance is 10%)
    min_accuracy: float = 0.5
    image_size: int = 28


TRAIN = TrainConfig()


class _Stop(Exception):
    """Ends a replayed epoch after its first steps."""


def setup(cfg: TrainConfig, seed: int, backend, timings: dict):
    """RadiX-Net generation, dataset synthesis and model build."""
    from repro.core.radixnet import generate_radixnet
    from repro.datasets.synthetic_mnist import synthetic_mnist
    from repro.nn.builder import input_adapter_matrix, model_from_topology

    t0 = time.perf_counter()
    topology = generate_radixnet([list(s) for s in cfg.radix_systems], list(cfg.widths))
    t1 = time.perf_counter()
    features, labels = synthetic_mnist(
        cfg.samples + cfg.held_out, image_size=cfg.image_size, seed=seed
    )
    t2 = time.perf_counter()
    model = model_from_topology(topology, seed=seed, sparse_training=True, backend=backend)
    projected = features @ input_adapter_matrix(features.shape[1], model.input_size, seed=seed)
    targets = np.zeros((labels.size, model.output_size))
    targets[np.arange(labels.size), labels] = 1.0
    t3 = time.perf_counter()
    timings.setdefault("radixnet", []).append(t1 - t0)
    timings.setdefault("dataset", []).append(t2 - t1)
    timings.setdefault("total", []).append(t3 - t0)
    return topology, model, projected, targets, labels


def _epoch_seed(seed: int, epoch: int):
    return rng_for(seed, 3, epoch)


def run(cfg: TrainConfig, seed: int, seconds: float, trace: bool) -> Outcome:
    from repro.backends import resolve_backend
    from repro.nn.builder import model_from_topology
    from repro.nn.optimizers import Adam
    from repro.nn.train import Trainer

    out = Outcome()
    tracer = Tracer()
    backend = TimingBackend(resolve_backend(None), tracer) if trace else None
    timings: dict = {}
    for _ in range(cfg.setups):
        topology, model, x, targets, labels = setup(cfg, seed, backend, timings)
    train_x, train_t = x[:cfg.samples], targets[:cfg.samples]
    optimizer = Adam(LEARNING_RATE)
    trainer = Trainer(model, optimizer, batch_size=cfg.batch, seed=seed)
    if trace:
        tracer.instrument_training(model, optimizer)

    stamps = []  # perf_counter at the end of every step
    traced_steps = []
    snapshot = []
    step_impl = optimizer.step

    def step(parameters, gradients):
        step_impl(parameters, gradients)
        stamps.append(time.perf_counter())
        traced_steps.append(tracer.enabled)
        if len(stamps) == cfg.check_steps:
            snapshot.extend(p.copy() for p in parameters)
        tracer.enabled = trace and len(stamps) % 2 == 0
        if tracer.enabled:
            tracer.begin_op()

    optimizer.step = step
    epoch_s = []
    step_s = []
    tracer.enabled = trace
    if trace:
        tracer.begin_op()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(epoch_s) < cfg.min_epochs:
        t0 = time.perf_counter()
        first = len(stamps)
        trainer.train_epoch(train_x, train_t, epoch_seed=_epoch_seed(seed, len(epoch_s)))
        epoch_s.append(time.perf_counter() - t0)
        step_s.extend(np.diff([t0, *stamps[first:]]))
    tracer.enabled = False
    if tracer.ops and not tracer.ops[-1]:
        tracer.ops.pop()  # opened after the last step
    out.attempted = len(stamps)
    rss = peak_rss_mb()

    # ---- checks, outside the timed section --------------------------------
    all_steps = range(out.attempted)
    if not reference.theorem1_holds(topology.submatrices):
        out.fail(all_steps, "Theorem 1: the layer-matrix product has unequal entries")
    edges = sum(sub.nnz for sub in topology.submatrices)
    expected_edges = reference.radixnet_edges(cfg.radix_systems, cfg.widths)
    if edges != expected_edges:
        out.fail(all_steps, f"topology has {edges} edges, expected {expected_edges}")
    for index, (layer, sub) in enumerate(zip(model.layers, topology.submatrices)):
        mask = reference.csr_to_dense(sub.shape, sub.indptr, sub.indices, sub.data) != 0
        if np.any(layer.effective_weights()[~mask] != 0):
            out.fail(all_steps, f"layer {index}: nonzero weight outside the RadiX-Net pattern")
    # MaskedSparseLayer, same seed, same first steps: the same weights
    masked = model_from_topology(topology, seed=seed, sparse_training=False)
    masked_opt = Adam(LEARNING_RATE)
    masked_step = masked_opt.step
    replayed = []

    def stop_after(parameters, gradients):
        masked_step(parameters, gradients)
        replayed.append(1)
        if len(replayed) == cfg.check_steps:
            raise _Stop

    masked_opt.step = stop_after
    try:
        Trainer(masked, masked_opt, batch_size=cfg.batch, seed=seed).train_epoch(
            train_x, train_t, epoch_seed=_epoch_seed(seed, 0)
        )
    except _Stop:
        pass
    worst = 0.0
    for index, (layer, sub) in enumerate(zip(masked.layers, topology.submatrices)):
        rows = np.repeat(np.arange(sub.shape[0]), np.diff(sub.indptr))
        weights = layer.effective_weights()[rows, sub.indices]
        worst = max(worst, float(np.max(np.abs(weights - snapshot[2 * index]))),
                    float(np.max(np.abs(layer.biases - snapshot[2 * index + 1]))))
    if worst > MASKED_ATOL:
        out.fail(range(cfg.check_steps),
                 f"CSR training differs from MaskedSparseLayer by {worst:g} after "
                 f"{cfg.check_steps} steps")
    elif worst:
        log(f"note: CSR and MaskedSparseLayer weights differ by {worst:g} after "
            f"{cfg.check_steps} steps (dense BLAS and sparse kernels sum in different orders)")
    outputs = model.predict(x[cfg.samples:])
    accuracy = float(np.mean(np.argmax(outputs, axis=1) == labels[cfg.samples:]))
    if accuracy < cfg.min_accuracy:
        out.fail(all_steps, f"held-out accuracy {accuracy:.3f} < {cfg.min_accuracy}")

    if not trace:
        model_edges = float(edges)
        samples_per_s = cfg.samples * len(epoch_s) / sum(epoch_s)
        out.metrics = {
            "setup_s": median(timings["total"]),
            "edges_per_s": samples_per_s * model_edges,
            "samples_per_s": samples_per_s,
            "lat_p50_ms": median(step_s) * 1e3,
            "peak_rss_mb": rss,
        }
        return out
    traced = [s for s, t in zip(step_s, traced_steps) if t]
    untraced = [s for s, t in zip(step_s, traced_steps) if not t]
    out.metrics = per_layer({
        "nn.forward_ms": tracer.per_op("nn.forward.s", 1e3),
        "nn.backward_ms": tracer.per_op("nn.backward.s", 1e3),
        "nn.optimizer_ms": tracer.per_op("nn.optimizer.s", 1e3),
        **tracer.kernel_metrics(),
        "core.generate_radixnet_ms": median(timings["radixnet"]) * 1e3,
        "datasets.synthetic_mnist_s": median(timings["dataset"]),
        "trace.overhead_pct": overhead_pct(traced, untraced),
    })
    return out

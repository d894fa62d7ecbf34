"""Graph Challenge workload: generate + write the network, then time
``run_challenge_pipeline`` calls over seeded input batches.

``challenge-official`` runs 256-row Bernoulli(0.3) batches, which saturate
and keep every layer on the dense SpMM path with load, epilogue and
checkpoint stages in line.  The traced run adds two probes after the timed
calls, for their per-layer figures only: a row-sparse batch, where a few
strong rows carry the activity so the activation policy takes the fused
sparse step, split into two column shards on the serial and then the
process transport; and the serving stack, driven in-process.  Timed as a
workload of its own, the row-sparse sharded run spread more than a
quarter of its median between runs of the same code on two shared vCPUs.
"""

from __future__ import annotations

import os
import shutil
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, replace

import numpy as np

import reference
from common import (
    MB,
    Outcome,
    WorkDir,
    bernoulli_rows,
    dir_size_mb,
    median,
    overhead_pct,
    peak_rss_mb,
    per_layer,
    rng_for,
)
from tracing import TimingBackend, Tracer, call_clock

# active fraction of the strong rows of a row-sparse batch
STRONG_FRACTION = 0.4
# the row-sparse probe: weak rows at this active fraction, this share of
# strong rows, split into this many column shards
ROWSPARSE_ACTIVE = 0.1
ROWSPARSE_STRONG_SHARE = 0.05
ROWSPARSE_SHARDS = 2
# the serving probe drives the in-process server from this many client
# connections in its batched phase (at most the two vCPUs of the machine)
SERVE_CONNECTIONS = 2


@dataclass(frozen=True)
class ChallengeConfig:
    name: str
    neurons: int = 1024
    layers: int = 120
    connections: int = 32
    batch: int = 256
    active_fraction: float = 0.3
    # share of rows drawn at STRONG_FRACTION instead (0 = uniform batch)
    strong_share: float = 0.0
    checkpoint_every: int = 0
    # each set-up writes ~117 MB of TSV in ~12 s, so two is what fits the run
    setups: int = 2
    min_calls: int = 3
    sample_rows: int = 8
    # rows of the untimed first call that pages in the network and imports
    warmup_rows: int = 64
    # traced runs send this many requests per phase to the in-process server
    serve_requests: int = 20
    serve_batch_rows: int = 16
    # rows of the traced run's row-sparse probe batch
    probe_rows: int = 1024


OFFICIAL = ChallengeConfig("challenge-official", checkpoint_every=40)


def make_batch(cfg: ChallengeConfig, seed: int, index: int, stream: int = 1):
    """One input batch plus the row indices whose outputs get checked."""
    rng = rng_for(seed, stream, index)
    strong = np.zeros(cfg.batch, dtype=bool)
    if cfg.strong_share:
        count = max(1, round(cfg.strong_share * cfg.batch))
        strong[rng.choice(cfg.batch, size=count, replace=False)] = True
    x = bernoulli_rows(rng, cfg.batch, cfg.neurons, cfg.active_fraction)
    if strong.any():
        x[strong] = bernoulli_rows(rng, int(strong.sum()), cfg.neurons, STRONG_FRACTION)
        half = cfg.sample_rows // 2
        sample = np.concatenate([
            rng.choice(np.flatnonzero(strong), size=min(half, int(strong.sum())), replace=False),
            rng.choice(np.flatnonzero(~strong), size=cfg.sample_rows - half, replace=False),
        ])
    else:
        sample = rng.choice(cfg.batch, size=cfg.sample_rows, replace=False)
    return x, np.sort(sample)


def generate(cfg: ChallengeConfig, seed: int):
    from repro.challenge.generator import iter_generate_challenge_layers

    return iter_generate_challenge_layers(
        cfg.neurons, cfg.layers, connections=cfg.connections, seed=seed
    )


def _flush(directory) -> None:
    """Write the set-up's files to disk now, so that their writeback does
    not compete with the timed calls."""
    for path in directory.iterdir():
        with open(path, "rb") as handle:
            os.fsync(handle.fileno())


def setup_network(cfg: ChallengeConfig, seed: int, work, tracer: Tracer):
    """``repro challenge generate``: stream the generator into
    ``save_challenge_layers``.  Repeated ``cfg.setups`` times; returns the
    last directory and the per-setup records."""
    from repro.challenge.io import save_challenge_layers

    seconds, write_s, written_mb = [], [], []
    directory = None
    for rep in range(cfg.setups):
        if directory is not None:
            shutil.rmtree(directory)
        directory = work / f"net{rep}"
        tracer.begin_op()
        layers = tracer.timed_iter(generate(cfg, seed), "challenge.generator")
        start = time.perf_counter()
        save_challenge_layers(
            directory, layers, neurons=cfg.neurons, num_layers=cfg.layers, threshold=32.0
        )
        seconds.append(time.perf_counter() - start)
        write_s.append(seconds[-1] - tracer.ops[-1].get("challenge.generator.s", 0.0))
        written_mb.append(dir_size_mb(directory))
        _flush(directory)
    return directory, seconds, write_s, written_mb


def run(cfg: ChallengeConfig, seed: int, seconds: float, trace: bool) -> Outcome:
    from repro.backends import resolve_backend
    from repro.challenge.pipeline import ComputeStage, run_challenge_pipeline

    out = Outcome()
    setup_tracer = Tracer()
    setup_tracer.enabled = trace
    tracer = Tracer()
    with WorkDir(cfg.name) as work:
        net, setup_s, write_s, written_mb = setup_network(cfg, seed, work, setup_tracer)
        file_problems = reference.check_challenge_files(
            net, cfg.neurons, cfg.layers, cfg.connections
        )

        def call(x, backend=None, shards=None, transport="serial"):
            return run_challenge_pipeline(
                net,
                cfg.neurons,
                x,
                backend=backend,
                checkpoint_dir=work / "ckpt" if cfg.checkpoint_every else None,
                checkpoint_every=cfg.checkpoint_every,
                shards=shards,
                shard_transport=transport,
            )

        timing_backend = TimingBackend(resolve_backend(None), tracer) if trace else None
        call(make_batch(cfg, seed, 0, stream=5)[0][:cfg.warmup_rows], backend=timing_backend)

        calls = []  # per call: seconds, traced, layer times, sampled inputs and outputs
        # every layer step is timed here, by the benchmark's own clock
        with call_clock(ComputeStage) as layer_s, \
                tracer.install() if trace else nullcontext():
            start = time.perf_counter()
            while time.perf_counter() - start < seconds or len(calls) < cfg.min_calls:
                index = len(calls)
                x, sample = make_batch(cfg, seed, index)
                traced = trace and index % 2 == 0
                tracer.enabled = traced
                if traced:
                    tracer.begin_op()
                out.attempted += 1
                first_step = len(layer_s)
                t0 = time.perf_counter()
                try:
                    outcome = call(x, backend=timing_backend)
                except Exception as exc:  # noqa: BLE001 - counted, run continues
                    out.fail([index], f"call {index}: {exc!r}")
                    calls.append(None)
                    continue
                finally:
                    elapsed = time.perf_counter() - t0
                    tracer.enabled = False
                result = outcome.result
                steps = layer_s[first_step:]
                if len(steps) != cfg.layers:
                    out.fail([index], f"call {index}: {len(steps)} layer steps, "
                                      f"expected {cfg.layers}")
                if traced:
                    tracer.ops[-1]["pipeline.dense_layers"] = result.layer_modes.count("dense")
                calls.append({
                    "seconds": elapsed,
                    "traced": traced,
                    "layer_seconds": steps,
                    "inputs": x[sample],
                    "outputs": result.activations[sample],
                })
        process_rss = peak_rss_mb()

        # ---- traced-only probes, outside the timed section ----------------
        if trace:
            serve_metrics, served = serve_probe(cfg, seed, net)
            sparse_metrics, sparse_rows = rowsparse_probe(cfg, seed, call, out)

        # ---- checks, outside the timed section --------------------------
        done = [i for i, c in enumerate(calls) if c is not None]
        if file_problems:
            out.fail(range(out.attempted), "; ".join(file_problems[:3]))
        # (inputs, output, compare, failed ops): one dense reference pass
        checked = [(calls[i]["inputs"], calls[i]["outputs"], reference.compare_rows, [i])
                   for i in done]
        if trace:
            # a wrong served answer fails the run but no pipeline call
            checked += [(rows, got, reference.compare_categories, [])
                        for rows, got in served]
            checked.append((*sparse_rows, reference.compare_rows, []))
        if checked:
            expected = reference.dense_recurrence(
                reference.dense_layers(generate(cfg, seed)),
                np.concatenate([rows for rows, *_ in checked]),
            )
            offset = 0
            for rows, got, compare, ops in checked:
                problem = compare(expected[offset:offset + len(rows)], got)
                offset += len(rows)
                if problem:
                    out.fail(ops, f"calls {ops}: {problem}")

    timed = [c for c in calls if c is not None]
    edges_per_row = cfg.layers * cfg.neurons * cfg.connections
    if not trace:
        # whole-run throughput: rows over the summed call times.  Successive
        # calls alternate between a fast and a slow mode, so a median over
        # calls would jump between the two from run to run.
        samples_per_s = cfg.batch * len(timed) / sum(c["seconds"] for c in timed)
        out.metrics = {
            "setup_s": median(setup_s),
            "edges_per_s": samples_per_s * edges_per_row,
            "samples_per_s": samples_per_s,
            "lat_p50_ms": median(s for c in timed for s in c["layer_seconds"]) * 1e3,
            "peak_rss_mb": process_rss,
        }
        return out

    traced_calls = [c for c in timed if c["traced"]]
    untraced_calls = [c for c in timed if not c["traced"]]
    compute = [op.get("pipeline.compute.s", 0.0) for op in tracer.ops]
    children = [op.get("pipeline.compute.children", 0.0) for op in tracer.ops]
    out.metrics = per_layer({
        "challenge.generator.layer_ms": (
            setup_tracer.per_op("challenge.generator.s", 1e3) / cfg.layers
        ),
        "challenge.io.write_s": median(write_s),
        "challenge.io.written_mb": median(written_mb),
        "pipeline.load_wait_ms": tracer.per_op("pipeline.load_wait.s", 1e3),
        "pipeline.compute_ms": median(compute) * 1e3,
        "pipeline.epilogue_ms": median(np.subtract(compute, children)) * 1e3,
        "pipeline.checkpoint_ms": tracer.per_op("pipeline.checkpoint.s", 1e3),
        "pipeline.dense_layers": tracer.per_op("pipeline.dense_layers"),
        **tracer.kernel_metrics(),
        **sparse_metrics,
        **serve_metrics,
        "trace.overhead_pct": overhead_pct(
            [c["seconds"] for c in traced_calls], [c["seconds"] for c in untraced_calls]
        ),
    })
    return out


def rowsparse_probe(cfg: ChallengeConfig, seed: int, call, out: Outcome):
    """One row-sparse batch, ``ROWSPARSE_STRONG_SHARE`` of its rows strong,
    run in ``ROWSPARSE_SHARDS`` column shards: traced on the serial
    transport (fused sparse step, slicing, gather), then on the process
    transport with ``ShardWorkerPool.step`` timed.  Both must be
    bit-identical to the unsharded run.  Returns the per-layer metrics and
    the sampled (inputs, outputs) for the dense reference."""
    from repro.backends import resolve_backend

    probe = replace(cfg, batch=cfg.probe_rows, active_fraction=ROWSPARSE_ACTIVE,
                    strong_share=ROWSPARSE_STRONG_SHARE)
    x, sample = make_batch(probe, seed, 0, stream=7)
    tracer = Tracer()
    with tracer.install():
        tracer.enabled = True
        tracer.begin_op()
        serial = call(x, backend=TimingBackend(resolve_backend(None), tracer),
                      shards=ROWSPARSE_SHARDS).result
        serial_op = tracer.ops[-1]
        tracer.begin_op()
        process = call(x, shards=ROWSPARSE_SHARDS, transport="process")
        tracer.enabled = False
    unsharded = call(x).result.activations
    for name, got in (("serial", serial.activations),
                      ("process", process.result.activations)):
        if not np.array_equal(unsharded, got):
            out.fail([], f"row-sparse batch on the {name} shard transport is not "
                         "bit-identical to the unsharded run")
    return {
        "pipeline.sparse_layers": serial.layer_modes.count("sparse"),
        "backends.sparse_layer_step_ms": serial_op["backends.sparse_layer_step.s"] * 1e3,
        "backends.sparse_layer_step_calls": serial_op["backends.sparse_layer_step.calls"],
        "sharding.slice_ms": serial_op["sharding.slice.s"] * 1e3,
        "sharding.gather_ms": serial_op["sharding.gather.s"] * 1e3,
        "sharding.payload_mb": serial_op["sharding.payload_bytes"] / MB,
        "sharding.step_ms": tracer.ops[-1]["sharding.step.s"] * 1e3,
        "sharding.worker_rss_mb": max(
            [rss for rss in process.shard_worker_rss_mb or [] if rss is not None] or [0.0]
        ),
    }, (x[sample], serial.activations[sample])


def serve_probe(cfg: ChallengeConfig, seed: int, net):
    """Serve the network as ``repro challenge serve`` holds it, in-process
    on a loopback port with the CLI's batching defaults.  Phase 1: one
    connection sends 1-row requests back to back.  Phase 2:
    ``SERVE_CONNECTIONS`` connections send ``serve_batch_rows``-row
    requests, which the ``MicroBatcher`` may merge.  The per-request
    ``stats`` come from the server's responses; ``ServingEngine.step`` is
    timed by a wrapper on the engine.  Returns those metrics, and the rows
    whose served categories the dense reference checks: every 1-row
    request and the first batched one."""
    from repro.serve.app import serve_in_background
    from repro.serve.client import ServeClient
    from repro.serve.engine import ServingEngine

    engine = ServingEngine.from_directory(net, cfg.neurons)
    steps = []  # seconds per engine step
    engine_step = engine.step

    def timed_step(rows):
        t0 = time.perf_counter()
        result = engine_step(rows)
        steps.append(time.perf_counter() - t0)
        return result

    engine.step = timed_step
    x = make_batch(cfg, seed, 0, stream=6)[0]
    n, k = cfg.serve_requests, cfg.serve_batch_rows
    singles = [x[i % cfg.batch][None, :] for i in range(n)]
    blocks = [np.roll(x, -i * k, axis=0)[:k] for i in range(n)]

    with serve_in_background(engine) as server:
        host, port = server.address

        def send(requests):
            records = []
            with ServeClient(host, port) as client:
                for rows in requests:
                    t0 = time.perf_counter()
                    response = client.infer(rows)
                    records.append((time.perf_counter() - t0, response))
            return records

        send(singles[:1])  # untimed first request
        steps.clear()
        one_row = send(singles)
        single_steps = len(steps)
        with ThreadPoolExecutor(SERVE_CONNECTIONS) as pool:
            batched = [r for part in pool.map(send, [blocks[i::SERVE_CONNECTIONS]
                                                       for i in range(SERVE_CONNECTIONS)])
                       for r in part]

    stats = [response["stats"] for _, response in one_row]
    return {
        "serve.queue_wait_ms": median(s["queue_wait_s"] for s in stats) * 1e3,
        "serve.service_ms": median(s["service_s"] for s in stats) * 1e3,
        "serve.client_overhead_ms": median(
            latency - s["queue_wait_s"] - s["service_s"]
            for (latency, _), s in zip(one_row, stats)
        ) * 1e3,
        "serve.batch_rows": median(r["stats"]["batch_rows"] for _, r in batched),
        "serve.engine_step_ms": median(steps[:single_steps]) * 1e3,
        "serve.engine_step_batch_ms": median(steps[single_steps:]) * 1e3,
    }, [(rows, r["categories"]) for rows, (_, r) in
        [*zip(singles, one_row), (blocks[0], batched[0])]]

"""The benchmark's own tests, at toy sizes.

    python -m pytest perfbench/tests -q

They check that every metric ``BENCHMARK.json`` names is emitted with its
unit, that each workload's checks pass on the real program, and that a
wrong answer is caught.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import reference
import steady
import wl_challenge
import wl_train
from common import END_TO_END, PER_LAYER, ROOT

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TOY_CHALLENGE = replace(
    wl_challenge.OFFICIAL, name="toy-challenge", neurons=64, layers=6, connections=8,
    batch=16, checkpoint_every=2, setups=1, min_calls=2, sample_rows=4, warmup_rows=4,
    serve_requests=2, serve_batch_rows=4, probe_rows=32,
)
TOY_TRAIN = wl_train.TrainConfig(
    name="toy-train", radix_systems=((2, 2), (2, 2)), widths=(2, 4, 4, 4, 4),
    samples=128, held_out=64, batch=32, setups=1, min_epochs=2, check_steps=2,
    min_accuracy=0.0, image_size=8,
)
TOYS = [
    (wl_challenge.run, TOY_CHALLENGE),
    (wl_train.run, TOY_TRAIN),
]


def result(run, cfg, trace: bool, seed: int = 3) -> dict:
    return json.loads(run(cfg, seed, 0.0, trace).result_line(trace))


# --------------------------------------------------------------------------- #
# BENCHMARK.json and the metric tables agree
# --------------------------------------------------------------------------- #
def test_benchmark_json_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["perfbench"]
    assert 1 <= SPEC["run_seconds"] <= 60
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(name.match(n) for n in names) and len(set(names)) == len(names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_metric_tables_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == PER_LAYER
    from run import workloads

    sys.path.insert(0, str(ROOT / "src"))
    assert sorted(workloads()) == sorted(w["name"] for w in SPEC["workloads"])


# --------------------------------------------------------------------------- #
# every workload: checks pass, every metric emitted with its unit
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("run,cfg", TOYS, ids=[cfg.name for _, cfg in TOYS])
def test_workload_end_to_end_metrics(run, cfg):
    out = result(run, cfg, trace=False)
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert {k: v["unit"] for k, v in out["metrics"].items()} == END_TO_END
    assert all(v["value"] > 0 for v in out["metrics"].values()), out["metrics"]


@pytest.mark.parametrize("run,cfg", TOYS, ids=[cfg.name for _, cfg in TOYS])
def test_workload_per_layer_metrics(run, cfg):
    out = result(run, cfg, trace=True)
    assert out["correct"] and out["failed"] == 0
    assert {k: v["unit"] for k, v in out["metrics"].items()} == PER_LAYER
    measured = {k for k, v in out["metrics"].items() if v["value"] != 0}
    expected = {
        "toy-challenge": {"pipeline.compute_ms", "pipeline.checkpoint_ms", "backends.spmm_calls",
                          "challenge.io.write_s", "challenge.io.written_mb",
                          "serve.engine_step_ms", "serve.engine_step_batch_ms",
                          "serve.service_ms", "serve.client_overhead_ms", "serve.batch_rows",
                          "sharding.slice_ms", "sharding.payload_mb", "sharding.step_ms",
                          "sharding.worker_rss_mb"},
        "toy-train": {"nn.forward_ms", "nn.backward_ms", "nn.optimizer_ms",
                      "backends.sdmm_calls", "datasets.synthetic_mnist_s"},
    }[cfg.name]
    assert expected <= measured


# --------------------------------------------------------------------------- #
# a wrong answer is caught
# --------------------------------------------------------------------------- #
class DropEdgeBackend:
    """Forwards to a real backend, but every SpMM loses one stored edge."""

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name

    def __getattr__(self, attr):
        return getattr(self.inner, attr)

    def spmm(self, a, dense):
        data = a.data.copy()
        data[0] = 0.0
        return self.inner.spmm(a.with_data(data), dense)


def test_dropped_edge_fails_the_challenge_check():
    from repro import backends

    with backends.use(DropEdgeBackend(backends.resolve_backend(None))):
        out = result(wl_challenge.run, TOY_CHALLENGE, trace=False)
    assert not out["correct"]
    assert out["failed"] >= 1


def test_perturbed_bias_fails_the_file_check(monkeypatch):
    from repro.challenge import generator

    monkeypatch.setattr(generator, "challenge_bias_value", lambda connections, weight: -0.29)
    out = result(wl_challenge.run, TOY_CHALLENGE, trace=False)
    assert not out["correct"]
    assert out["failed"] == out["attempted"]


def test_broken_topology_fails_theorem1():
    from repro.core.radixnet import generate_radixnet

    subs = generate_radixnet([[2, 2], [2, 2]], [1, 2, 2, 2, 1]).submatrices
    assert reference.theorem1_holds(subs)
    broken = subs[1].with_data(np.where(np.arange(subs[1].nnz) == 0, 0.0, subs[1].data))
    assert not reference.theorem1_holds([subs[0], broken, *subs[2:]])


def test_dense_reference_agrees_with_the_program():
    from repro.challenge.generator import generate_challenge_network
    from repro.challenge.pipeline import PipelineState, run_pipeline

    net = generate_challenge_network(32, 5, connections=4, seed=1)
    x = (np.random.default_rng(0).random((8, 32)) < 0.4).astype(float)
    got = run_pipeline(list(zip(net.weights, net.biases)), PipelineState.initial(x),
                       threshold=32.0).batch.to_array()
    expected = reference.dense_recurrence(reference.dense_layers(zip(net.weights, net.biases)), x)
    assert reference.compare_rows(expected, got) is None
    assert reference.compare_categories(expected, reference.categories(got)) is None
    got[np.flatnonzero(got.sum(axis=1))[0], :] = 0.0
    assert reference.compare_rows(expected, got) is not None
    assert reference.compare_categories(expected, reference.categories(got)) is not None


# --------------------------------------------------------------------------- #
# the command line
# --------------------------------------------------------------------------- #
def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "challenge-official", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_steady_summary():
    stats = steady.summarise([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    assert stats["median"] == 3.5 and stats["min"] == 1.0 and stats["max"] == 6.0
    assert stats["half_gap"] == pytest.approx(3.0 / 3.5)

"""Tiny-scale self-test of the campaign benchmark.

Run from the root of a checkout::

    python3 -m pytest campaign_bench/test_bench.py -q

It checks the benchmark, not the program: every metric BENCHMARK.json
names is emitted with its unit on every workload, the layer wrappers
uninstall cleanly, the layers' self times plus ``pipeline.residual_s`` add
up to the traced ``campaign_s``, and the command fails without a result
when the program's sources are missing.
"""

from __future__ import annotations

import dataclasses
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import campaign  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

campaign.import_repro()

SEED = 1
#: (programs, tests) per workload: the smallest scale at which each
#: workload's paper checks hold for SEED.
TINY = {
    "mct-a-refined": (2, 4),
    "straightline-many": (6, 2),
    "mpart-refined": (3, 4),
}


def bindings(config):
    """What each wrapped name's owner holds itself (None if inherited)."""
    return [
        vars(owner).get(name)
        for _layer, owner, name, _observe in layers.targets(config)
    ]


def tiny(name: str):
    programs, tests = TINY[name]
    return dataclasses.replace(WORKLOADS[name], programs=programs, tests=tests)


def test_benchmark_json_lists_known_workloads_with_reasons():
    spec = run.load_spec()
    for workload in spec["workloads"]:
        assert workload["name"] in WORKLOADS
        assert workload["why"].strip()
    assert set(TINY) == set(WORKLOADS)


@pytest.mark.parametrize("trace", [False, True], ids=["e2e", "layers"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(name, trace):
    spec = run.load_spec()
    report = run.measure(tiny(name), SEED, 0.0, trace)
    assert report["failures"] == []
    result = run.result_line(report, spec, trace)
    assert result["correct"] is True
    assert result["attempted"] >= 2 and result["failed"] == 0
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert math.isfinite(emitted["value"])
        if not trace:
            # End-to-end metrics are never 0.
            assert emitted["value"] > 0, metric["name"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_wrappers_uninstall_cleanly(name, tmp_path):
    workload = tiny(name)
    config, database = campaign.setup(workload, SEED, str(tmp_path))
    before = bindings(config)
    installed = layers.Installed(config, layers.LayerClock())
    during = bindings(config)
    assert all(a is not b for a, b in zip(before, during))
    installed.uninstall()
    assert all(a is b for a, b in zip(before, bindings(config)))
    # A traced campaign restores them too, and leaves the result unchanged.
    traced = campaign.run_campaign(workload, config, database, traced=True)
    assert all(a is b for a, b in zip(before, bindings(config)))
    if database is not None:
        database.close()
    (tmp_path / "plain").mkdir()
    config, database = campaign.setup(workload, SEED, str(tmp_path / "plain"))
    plain = campaign.run_campaign(workload, config, database, traced=False)
    if database is not None:
        database.close()
    assert traced["counters"] == plain["counters"]
    assert traced["digest"] == plain["digest"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_self_times_and_residual_sum_to_traced_campaign(name, tmp_path):
    workload = tiny(name)
    config, database = campaign.setup(workload, SEED, str(tmp_path))
    summary = campaign.run_campaign(workload, config, database, traced=True)
    if database is not None:
        database.close()
    values = summary["layers"]
    self_times = [values[f"{layer}.self_s"] for layer in layers.LAYERS]
    assert min(self_times) >= 0.0
    assert values["pipeline.residual_s"] >= 0.0
    total = sum(self_times) + values["pipeline.residual_s"]
    assert total == pytest.approx(summary["campaign_s"], rel=1e-9)
    assert values["trace.campaign_s"] == summary["campaign_s"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        HERE,
        tmp_path / os.path.basename(HERE),
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    spec = run.load_spec()
    proc = subprocess.run(
        spec["command"]
        + ["--workload", spec["workloads"][0]["name"], "--seed", "1",
           "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert proc.stderr.strip()

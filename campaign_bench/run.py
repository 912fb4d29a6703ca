"""Campaign benchmark: Scam-V paper columns end to end, and layer by layer.

Usage, from the root of a checkout::

    python3 campaign_bench/run.py --workload mct-a-refined --seed 1 \\
        --seconds 20 --trace 0

Each run starts one fresh interpreter per campaign (``campaign.py``), so
every campaign pays the cold cost a CLI user pays, and keeps starting them
until ``--seconds`` have passed (at least three campaigns with
``--trace 0``).  Every campaign of a run uses the same inputs, made from
``--seed``; a run fails unless all of them produce identical deterministic
counters and experiment records, and each passes its workload's paper
checks (``workloads.check``).

``--trace 0`` reports the end-to-end metrics, each the median over the
run's campaigns:

* ``setup_s`` — interpreter start to ready: imports, config, database open;
* ``campaign_s`` — host wall time of ``ScamV(config).run()``;
* ``tests_per_s`` — experiments / ``campaign_s``;
* ``findings_per_s`` — experiments whose outcome is the column's paper
  finding / ``campaign_s``: counterexamples on Table 1 columns (the rate
  form of T.T.C.), conclusive passes on the Fig. 7 Mspec' column, whose
  expected result is no counterexample;
* ``test_p50_ms`` / ``test_tail_ms`` — per-test ``gen_time + exe_time``;
  the tail is the highest percentile leaving at least ten tests above it;
* ``delivered_share`` — delivered tests / tests requested;
* ``peak_rss_mb`` — the campaign process's peak resident set.

``--trace 1`` alternates untraced and traced campaigns and reports the
per-layer metrics (``layers.py``) of the traced campaign with the median
time, plus ``trace.overhead_share``: median traced over median untraced
``campaign_s``.

The last line of standard output is the JSON result; the lines before it
give the sample counts, tail percentile, digest, counters and provenance.
The metric names and units are the ones ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_work")

#: Fewest campaigns an untraced run takes its medians over.
MIN_CAMPAIGNS = 3
#: Longest one campaign process may take.
CAMPAIGN_TIMEOUT_S = 150.0
#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0)


class BenchError(Exception):
    """The benchmark could not measure (as opposed to a failed check)."""


def load_spec() -> Dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def git_sha() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_file = os.path.join(git, ref)
        if os.path.isfile(ref_file):
            with open(ref_file) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def provenance(seed: int) -> Dict:
    return {
        "seed": seed,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def spawn(workload, seed: int, traced: bool) -> Tuple[float, Dict]:
    """Run one campaign in a fresh interpreter: ``(setup_s, summary)``."""
    cmd = [
        sys.executable,
        os.path.join(HERE, "campaign.py"),
        "--workload", workload.name,
        "--seed", str(seed),
        "--programs", str(workload.programs),
        "--tests", str(workload.tests),
        "--trace", "1" if traced else "0",
    ]
    db_dir = None
    if workload.database:
        os.makedirs(WORK, exist_ok=True)
        db_dir = tempfile.mkdtemp(dir=WORK)
        cmd += ["--db-dir", db_dir]
    try:
        started = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True
        )
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - started
            rest, _ = proc.communicate(timeout=CAMPAIGN_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    finally:
        if db_dir is not None:
            shutil.rmtree(db_dir, ignore_errors=True)
    lines = rest.strip().splitlines()
    if ready.strip() != "ready" or proc.returncode != 0 or not lines:
        raise BenchError(
            f"campaign process for {workload.name} exited with "
            f"{proc.returncode}"
        )
    return setup_s, json.loads(lines[-1])


def percentile(values: List[float], q: float) -> float:
    """Linearly interpolated ``q``-th percentile of ``values``."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(n: int) -> float:
    """Highest candidate percentile leaving at least ten of ``n`` above."""
    for q in TAIL_PERCENTILES:
        if n * (100.0 - q) / 100.0 >= 10:
            return q
    return 50.0


def measure(workload, seed: int, seconds: float, trace: bool) -> Dict:
    """Run campaigns for ``seconds`` and reduce them to one report."""
    runs: List[Tuple[bool, float, Dict]] = []
    started = time.perf_counter()
    try:
        while True:
            traced = trace and len(runs) % 2 == 1
            setup_s, summary = spawn(workload, seed, traced)
            runs.append((traced, setup_s, summary))
            enough = len(runs) >= (2 if trace else MIN_CAMPAIGNS)
            if enough and time.perf_counter() - started >= seconds:
                break
    finally:
        try:
            os.rmdir(WORK)
        except OSError:
            pass
    return reduce_runs(workload, runs, trace)


def reduce_runs(workload, runs, trace: bool) -> Dict:
    """Checks and metrics over one run's campaigns (see the docstring)."""
    from workloads import check

    plain = [summary for traced, _s, summary in runs if not traced]
    traced_runs = [summary for traced, _s, summary in runs if traced]
    first = runs[0][2]
    failures: List[str] = []
    failed_runs = 0
    for index, (traced, _setup_s, summary) in enumerate(runs):
        problems = check(workload, summary)
        if summary["counters"] != first["counters"]:
            problems.append("deterministic counters differ from campaign 0")
        if summary["digest"] != first["digest"]:
            problems.append("experiment records differ from campaign 0")
        if problems:
            failed_runs += 1
            kind = "traced" if traced else "untraced"
            failures += [f"campaign {index} ({kind}): {p}" for p in problems]

    n_tests = len(first["latencies_ms"])
    tail_q = tail_percentile(n_tests)
    experiments = first["counters"]["experiments"]
    median = statistics.median
    if trace:
        # Per-layer numbers come from one campaign, so that its self times
        # and residual still add up to its campaign_s.
        by_time = sorted(traced_runs, key=lambda s: s["campaign_s"])
        values = dict(by_time[(len(by_time) - 1) // 2]["layers"])
        values["trace.overhead_share"] = median(
            s["campaign_s"] for s in traced_runs
        ) / median(s["campaign_s"] for s in plain)
    else:
        values = {
            "setup_s": median(setup_s for _t, setup_s, _s in runs),
            "campaign_s": median(s["campaign_s"] for s in plain),
            "tests_per_s": median(
                experiments / s["campaign_s"] for s in plain
            ),
            "findings_per_s": median(
                s["findings"] / s["campaign_s"] for s in plain
            ),
            "test_p50_ms": median(
                percentile(s["latencies_ms"], 50.0) for s in plain
            ),
            "test_tail_ms": median(
                percentile(s["latencies_ms"], tail_q) for s in plain
            ),
            "delivered_share": experiments / workload.requested,
            "peak_rss_mb": median(s["peak_rss_mb"] for s in plain),
        }
    return {
        "values": values,
        "failures": failures,
        "failed_runs": failed_runs,
        "campaigns": len(plain),
        "traced_campaigns": len(traced_runs),
        "tests_per_campaign": n_tests,
        "tail_percentile": tail_q,
        "counters": first["counters"],
        "digest": first["digest"],
        "cex_per_s": median(
            first["counters"]["counterexamples"] / s["campaign_s"]
            for s in plain
        ),
    }


def result_line(report: Dict, spec: Dict, trace: bool) -> Dict:
    """The final JSON object, with units from ``BENCHMARK.json``."""
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    values = report["values"]
    if set(values) != set(units):
        raise BenchError(
            f"computed metrics {sorted(values)} do not match "
            f"BENCHMARK.json {sorted(units)}"
        )
    return {
        "correct": not report["failures"],
        "attempted": report["campaigns"] + report["traced_campaigns"],
        "failed": report["failed_runs"],
        "metrics": {
            name: {"value": values[name], "unit": units[name]}
            for name in units
        },
    }


def describe(workload, report: Dict, result: Dict, trace: bool) -> List[str]:
    """Human-readable lines printed before the result."""
    lines = [
        f"workload {workload.name}: {workload.programs} programs x "
        f"{workload.tests} tests, {report['campaigns']} untraced + "
        f"{report['traced_campaigns']} traced campaigns, "
        f"{report['tests_per_campaign']} tests each",
        f"counters {json.dumps(report['counters'], sort_keys=True)}",
        f"digest {report['digest']}",
    ]
    campaign_s = report["values"].get("trace.campaign_s")
    rows = [
        (name, metric["value"], metric["unit"])
        for name, metric in result["metrics"].items()
    ]
    if not trace:
        rows.append(("cex_per_s (not gated)", report["cex_per_s"], "1/s"))
    for name, value, unit in rows:
        line = f"  {name:34s} {value:14.6f} {unit}"
        if name == "test_tail_ms":
            line += (
                f"  (p{report['tail_percentile']:g} of "
                f"n={report['tests_per_campaign']})"
            )
        elif trace and (
            name.endswith("self_s") or name == "pipeline.residual_s"
        ):
            line += f"  ({100.0 * value / campaign_s:5.1f}% of campaign)"
        lines.append(line)
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"campaign_bench: no repro package under {ROOT}/src",
              file=sys.stderr)
        return 2
    spec = load_spec()
    workload = WORKLOADS[args.workload]
    trace = bool(args.trace)
    try:
        report = measure(workload, args.seed, args.seconds, trace)
        result = result_line(report, spec, trace)
    except BenchError as exc:
        print(f"campaign_bench: {exc}", file=sys.stderr)
        return 2
    for line in describe(workload, report, result, trace):
        print(line)
    samples = (
        "campaigns", "traced_campaigns", "tests_per_campaign",
        "tail_percentile",
    )
    print(json.dumps({
        "provenance": provenance(args.seed),
        "samples": {key: report[key] for key in samples},
        "failures": report["failures"],
    }))
    for failure in report["failures"]:
        print(f"campaign_bench: check failed: {failure}", file=sys.stderr)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

"""Smoke check of the benchmark itself, at desk size (about half a minute).

    python3 perfbench/smoke.py

For every workload, untraced and traced, it runs run.py with --size tiny and
checks that the last line is the result object, that every metric named in
BENCHMARK.json prints with its unit and a finite value, and that the run is
correct with no failed operation. For traced runs it recomputes self times
from the written spans and checks that the layer self times plus the
unattributed remainder add up to the traced wall time, and that on training
the unattributed remainder (the training loop's own code) is above 0. It also
checks that the benchmark refuses a BLAS thread count above nproc. A renamed
public fusecast call the benchmark relies on fails its operations, and so
this check.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = tuple(workloads.WORKLOADS["full"])


def run(args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=170)


def check_result(proc, expected: dict, label: str) -> list:
    problems = []
    if proc.returncode != 0:
        return [f"{label}: exit {proc.returncode}: {proc.stderr[-800:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{label}: correct={result['correct']} failed={result['failed']} "
                        f"attempted={result['attempted']}\n{proc.stdout[-1500:]}")
    if set(result["metrics"]) != set(expected):
        problems.append(f"{label}: metrics {sorted(result['metrics'])} != {sorted(expected)}")
    for name, unit in expected.items():
        got = result["metrics"].get(name, {})
        value = got.get("value")
        if got.get("unit") != unit or not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{label}: {name} = {got}")
        if not any(line.split()[:1] == [name] for line in lines[:-1]):
            problems.append(f"{label}: {name} missing from the report lines")
    if not any(line.startswith("fingerprint ") for line in lines):
        problems.append(f"{label}: no fingerprint line")
    return problems


def check_spans(proc, label: str) -> list:
    """Self times plus the unattributed remainder must add up to the traced wall time."""
    lines = proc.stdout.strip().splitlines()
    path = next(line.split("spans: ", 1)[1] for line in lines if "spans: " in line)
    metrics = json.loads(lines[-1])["metrics"]
    records = [json.loads(line) for line in Path(path).read_text().splitlines()]
    summary = records.pop()["summary"]
    children = defaultdict(float)
    for r in records:
        if r["parent"] >= 0:
            children[r["parent"]] += r["end"] - r["start"]
    inside, wall, self_sum, unattributed = [], 0.0, 0.0, 0.0
    for i, r in enumerate(records):
        inside.append(r["name"] == "op" or (r["parent"] >= 0 and inside[r["parent"]]))
        if not inside[i]:
            continue
        own = r["end"] - r["start"] - children[i]
        if r["name"] == "op":
            wall += r["end"] - r["start"]
            unattributed += own
        else:
            self_sum += own
    problems = []
    if wall <= 0 or abs(self_sum + unattributed - wall) > 1e-6 * wall:
        problems.append(f"{label}: self {self_sum} + unattributed {unattributed} != wall {wall}")
    if abs(summary["wall_s"] - wall) > 1e-9 or abs(summary["unattributed_s"] - unattributed) > 1e-9:
        problems.append(f"{label}: written summary {summary['wall_s']}, "
                        f"{summary['unattributed_s']} != recomputed {wall}, {unattributed}")
    share = metrics["trace.unattributed_share"]["value"]
    if abs(share - unattributed / wall) > 1e-9:
        problems.append(f"{label}: trace.unattributed_share {share} != {unattributed / wall}")
    if workloads.WORKLOADS["full"][label.split()[0]].kind == "train" and not share > 0:
        problems.append(f"{label}: trace.unattributed_share {share} is not above 0")
    return problems


def check_refusal() -> list:
    too_many = len(os.sched_getaffinity(0)) + 1
    proc = run(["--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0",
                "--size", "tiny", "--blas-threads", str(too_many)])
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"--blas-threads {too_many} was not refused"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        print(f"BENCHMARK.json workloads differ from {WORKLOADS}")
        return 1
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            label = f"{workload} trace={trace}"
            proc = run(["--workload", workload, "--seed", "7", "--seconds", "1",
                        "--trace", str(trace), "--size", "tiny"])
            found = check_result(proc, expected[trace], label)
            if trace and not found:
                found = check_spans(proc, label)
            problems += found
            print(f"{label}: {'ok' if not found else 'FAILED'}", flush=True)
    problems += check_refusal()
    for problem in problems:
        print(problem)
    print("smoke: " + ("PASS" if not problems else f"FAIL ({len(problems)} problems)"))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())

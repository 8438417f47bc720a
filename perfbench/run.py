"""fusecast benchmark command.

    python3 perfbench/run.py --workload pems08-train --seed 1 --seconds 30 --trace 0

Runs one workload (pems08-train or pems07-eval) in a child
process under an address-space cap and a fixed BLAS thread count, prints a
readable report with the environment fingerprint and every metric that
BENCHMARK.json names, with its unit, and ends with one JSON line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
the per-layer ones from a traced run. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads  # stdlib only at import time; fusecast loads in the child

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_LIMIT_S = 170.0
MEM_CAP_MB = 6144  # address-space cap of the child; 8 GB machine, pems08-train peaks near 2.5 GB
RUNS_DIR = ROOT / ".perfbench"
PR_SET_PDEATHSIG = 1

# figures from the child's report, in print order, with units
REPORT_UNITS = {
    "train_windows_per_s": "windows/s",
    "eval_windows_per_s": "windows/s",
    "train_loss": "flow",
    "val_mae": "flow",
    "eval_mae": "flow",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS["full"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the measured operations run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--blas-threads", type=int, default=1,
                        help="BLAS threads in the child; refused above nproc")
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs every code path at desk size, for smoke.py")
    return parser.parse_args(argv)


def run_child(request: dict, threads: int, cap_bytes: int):
    """Run workloads.py; returns (exit code, peak RSS in MB, timed out)."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads),
               MKL_NUM_THREADS=str(threads))

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (cap_bytes, cap_bytes))
        ctypes.CDLL(None).prctl(PR_SET_PDEATHSIG, signal.SIGKILL)  # die with this process

    proc = subprocess.Popen([sys.executable, str(HERE / "workloads.py"), json.dumps(request)],
                            env=env, preexec_fn=cap_memory, stdout=subprocess.DEVNULL)
    deadline = time.monotonic() + CHILD_LIMIT_S
    timed_out = False
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                timed_out = True
                proc.kill()
                pid, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.05)
    except BaseException:
        proc.kill()
        os.wait4(proc.pid, 0)
        proc.returncode = -signal.SIGKILL
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0, timed_out


def report_lines(args, result: dict, units: dict) -> list:
    lines = [f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
             f"trace={args.trace} size={args.size}",
             "fingerprint " + json.dumps(result.get("fingerprint", {}), sort_keys=True)]
    setups = result.get("setup_s") or []
    if setups:
        lines.append(f"  set-ups: {len(setups)}, from {min(setups):.4f} to {max(setups):.4f} s")
    if "warmup_s" in result:
        lines.append(f"  {'warmup_s':34s} {result['warmup_s']:.4f} s  (one untimed operation)")
    for name, unit in units.items():
        value = result["metrics"].get(name)
        shown = "n/a" if value is None else f"{value:.6g}"
        note = " (replayed)" if name in spans.REPLAYED else ""
        lines.append(f"  {name:34s} {shown} {unit}{note}")
    for name, unit in REPORT_UNITS.items():
        if name in result.get("report", {}):
            lines.append(f"  {name:34s} {result['report'][name]:.6g} {unit}")
    walls = result.get("report", {}).get("operation_walls")
    if walls:
        lines.append(f"  {len(walls)} timed operations, s: " + " ".join(f"{w:.3f}" for w in walls))
    attempted, failed = result["attempted"], result["failed"]
    lines.append(f"  {'failed_share':34s} {failed / attempted:.6g} ratio "
                 f"({failed} of {attempted} operations)")
    if "vm_peak_mb" in result:
        lines.append(f"  {'vm_peak_mb':34s} {result['vm_peak_mb']:.1f} MB "
                     f"(cap {MEM_CAP_MB} MB)")
    lines.extend(f"  violation: {v}" for v in result.get("violations", []))
    if result.get("spans_file"):
        lines.append(f"  spans: {result['spans_file']}")
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = len(os.sched_getaffinity(0))
    if not 1 <= args.blas_threads <= nproc:
        print(f"perfbench: refusing --blas-threads {args.blas_threads} (nproc is {nproc})",
              file=sys.stderr)
        return workloads.EXIT_REFUSED
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    run_dir = RUNS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    request = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "size": args.size, "run_dir": str(run_dir),
               "blas_threads": args.blas_threads}
    code, peak_rss_mb, timed_out = run_child(request, args.blas_threads, MEM_CAP_MB * 2 ** 20)
    if code in (workloads.EXIT_REFUSED, workloads.EXIT_NO_PROGRAM):
        return code  # no result: refused, or no usable fusecast

    rss_name = "memory.peak_rss_mb" if args.trace else "peak_rss_mb"
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    result_path = run_dir / "result.json"
    if code == 0 and result_path.is_file():
        result = json.loads(result_path.read_text())
    else:
        why = "timed out" if timed_out else f"exited with {code}"
        result = {"attempted": 1, "failed": 1, "metrics": {},
                  "violations": [f"workload process {why} (memory cap or crash)"]}
    result["metrics"][rss_name] = peak_rss_mb
    metrics = {name: result["metrics"].get(name) for name in units}
    bad = [name for name, value in metrics.items()
           if not isinstance(value, (int, float)) or value != value or abs(value) == float("inf")]
    result["violations"] = result.get("violations", []) + [f"metric {n} is not finite"
                                                           for n in bad]
    result["failed"] = min(result["attempted"], result["failed"] + len(bad))

    for line in report_lines(args, result, units):
        print(line)
    print(json.dumps({
        "correct": not result["violations"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's own desk-size check, run as part of the test suite.

perfbench wraps fusecast's public functions by name, so a rename that
would break the benchmark fails here first.
"""

import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

REPLAYED_BACKWARD = ("graphgen.backward_ms", "decouple.backward_ms", "network.rgc_backward_ms",
                     "network.gru_backward_ms")


def test_perfbench_smoke_passes():
    proc = subprocess.run([sys.executable, "perfbench/smoke.py"], cwd=REPO,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


def test_replayed_backward_of_every_layer_is_measured():
    """The replay backs from whatever a layer returns; one with no gradient would read 0."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "pems08-train",
                           "--size", "tiny", "--seconds", "1", "--trace", "1", "--seed", "1"],
                          cwd=REPO, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    for name in REPLAYED_BACKWARD:
        assert result["metrics"][name]["value"] > 0, name

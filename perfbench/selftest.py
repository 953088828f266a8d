"""Self-test of the benchmark at reduced size.

    python3 perfbench/selftest.py

For every workload it makes one untraced and one traced smoke run and
asserts that the result line is well formed, that the outputs are correct,
that every end-to-end and per-layer metric in BENCHMARK.json is emitted
with its unit (0 calls where a layer is idle), and that the traced outputs
equal the untraced ones.  It then copies only BENCHMARK.json and the
benchmark's own directories to a scratch directory inside the checkout and
asserts that the benchmark exits non-zero there without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _run(spec, cwd, workload, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", "3", "--seconds", "1",
                             "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _check_result(spec, workload, trace, proc):
    where = f"{workload} --trace {trace}"
    assert proc.returncode == 0, f"{where}: exit {proc.returncode}\n{proc.stderr}"
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    info = json.loads(lines[-2])
    assert set(result) == RESULT_KEYS, f"{where}: keys {sorted(result)}"
    assert result["correct"] is True, f"{where}: {info['detail']}"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    assert not info["detail"]["traced_output_mismatches"], where
    for key in ("git_commit", "seed", "python", "numpy", "scipy", "blas",
                "thread_env", "nproc"):
        assert key in info["environment"], f"{where}: environment lacks {key}"
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in wanted}, \
        f"{where}: metric names differ: {sorted(set(metrics) ^ {m['name'] for m in wanted})}"
    for m in wanted:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"], f"{where}: {m['name']} unit {got['unit']}"
        assert isinstance(got["value"], (int, float)), f"{where}: {m['name']}"
        if not trace:
            assert got["value"] > 0, f"{where}: {m['name']} is {got['value']}"
    return metrics


# layers each smoke workload must leave idle (0 calls), from the layer map
IDLE = {
    "sandwich": ["support_functionals.upper_support_functional", "cli.run"],
    "basis_search": ["quantum.lower_quantum_functional",
                     "quantum.bipartition_projector_apply", "partitions.character",
                     "cli.run"],
    "support_programs": ["quantum.lower_quantum_functional",
                         "support_functionals.upper_support_functional"],
    "power_certificate": ["tensors.restrict", "entropy.max_H_theta", "cli.run"],
}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for w in spec["workloads"]:
        name = w["name"]
        _check_result(spec, name, 0, _run(spec, ROOT, name, 0))
        layer = _check_result(spec, name, 1, _run(spec, ROOT, name, 1))
        for fn in IDLE[name]:
            assert layer[f"{fn}.calls"]["value"] == 0, f"{name}: {fn} not idle"
        print(f"ok {name}")

    scratch_root = os.path.join(ROOT, ".bench_build")
    os.makedirs(scratch_root, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="selftest-bare-", dir=scratch_root)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(spec, bare, spec["workloads"][0]["name"], 0)
        assert proc.returncode != 0, "benchmark succeeded without the sources"
        assert "correct" not in proc.stdout, "a result was printed without the sources"
        print("ok bare checkout fails")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

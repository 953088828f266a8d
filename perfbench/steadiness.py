"""Steadiness report: run every workload of BENCHMARK.json under ten seeds
and report, for each end-to-end metric, the median, the quartiles and the
spread (Q3 - Q1) / median next to the metric's bound.

    python3 perfbench/steadiness.py [--out FILE]

Runs use seeds 1..10 and are sequential, one process at a time, each
untraced.  The quartiles are those of ``statistics.quantiles(values, n=4)``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(1, 11)


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_once(spec, workload: str, seed: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2])["detail"]
    return {"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "fail_ratio": detail["fail_ratio"],
            "gap_bits": detail["gap_bits"], "op_tail_percentile": detail["op_tail_percentile"],
            "speed_factor": detail["speed_factor"], "wall_s_raw": detail["wall_s_raw"],
            "setup_s_raw": statistics.median(detail["setup_s_raw"]),
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def summarise(spec, runs: list[dict]) -> dict:
    out = {}
    for metric in spec["end_to_end"]:
        values = [r["metrics"][metric["name"]] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        out[metric["name"]] = {"median": med, "q1": q1, "q3": q3,
                               "spread": (q3 - q1) / med, "bound": metric["bound"],
                               "values": values}
    return out


def main(argv=None) -> int:
    spec = _spec()
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out")
    args = p.parse_args(argv)

    report = {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run_once(spec, workload, seed) for seed in SEEDS]
        report[workload] = {"runs": runs, "summary": summarise(spec, runs)}
        for name, s in report[workload]["summary"].items():
            flag = "ok" if s["spread"] < s["bound"] / 3 else "WIDE"
            print(f"{workload:18s} {name:12s} median {s['median']:10.4f}  "
                  f"q1 {s['q1']:10.4f}  q3 {s['q3']:10.4f}  spread {s['spread']:.4f}  "
                  f"bound {s['bound']}  {flag}", flush=True)
        print(f"{workload:18s} correct {all(r['correct'] for r in runs)}  "
              f"fail_ratio {[round(r['fail_ratio'], 4) for r in runs]}", flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

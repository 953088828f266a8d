#!/usr/bin/env python3
"""Record the benchmark of this checkout, and of a parent checkout, in BENCH_<label>.json.

Runs the `command` of BENCHMARK.json (the unchanged `perfbench/run.py` of
each checkout) on every workload BENCHMARK.json names, for its
`run_seconds`, in ten rounds that alternate the parent checkout (when given)
and this one, and which of them runs first, so that drift of a shared
machine falls on both sides alike.  The record holds the environment/detail
line and the result line of every run, per side the commit checked out and
whether tracked files differ from it, and per workload and end-to-end
metric the median of each side, the relative change of the medians, and in
how many rounds this checkout did better.

Usage: python scripts/bench_record.py --label L [--parent DIR] [--seed S]

The record is written to BENCH_<L>.json at the root of this checkout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: alternating rounds per workload, each one run of every side
ROUNDS = 10


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def parse_run(stdout: str) -> tuple[dict, dict]:
    """(environment/detail line, result line): the last two stdout lines."""
    lines = stdout.strip().splitlines()
    if len(lines) < 2:
        raise ValueError(f"run.py printed {len(lines)} lines, expected at least 2")
    return json.loads(lines[-2]), json.loads(lines[-1])


def run_once(spec: dict, checkout: str, workload: str, seed: int) -> tuple[dict, dict]:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"])]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} in {checkout} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    return parse_run(proc.stdout)


def _git(checkout: str, *args) -> str | None:
    """stdout of `git -C checkout args`, stripped; None if git fails."""
    try:
        proc = subprocess.run(["git", "-C", checkout, *args], capture_output=True, text=True,
                              check=False)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(checkout: str) -> dict:
    """The commit checked out in `checkout`, and whether its tracked files
    differ from that commit; each None where git cannot tell."""
    status = _git(checkout, "status", "--porcelain", "--untracked-files=no")
    return {"commit": _git(checkout, "rev-parse", "HEAD"),
            "dirty": None if status is None else bool(status)}


def summarise(spec: dict, runs: list[dict]) -> dict:
    """workload -> metric -> the median of each side, the relative change of
    the medians (this / parent - 1), and the rounds in which this side did
    better than the parent run of the same round."""
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        sides = {}
        for r in runs:
            if r["workload"] == workload:
                sides.setdefault(r["side"], {})[r["round"]] = r["result"]["metrics"]
        rows = {}
        for metric in spec["end_to_end"]:
            name, lower = metric["name"], metric["better"] == "lower"
            values = {side: {rnd: m[name]["value"] for rnd, m in by_round.items()}
                      for side, by_round in sides.items()}
            row = {f"{side}_median": statistics.median(v.values()) for side, v in values.items()}
            this, parent = values.get("this"), values.get("parent")
            if this and parent:
                row["change"] = row["this_median"] / row["parent_median"] - 1.0
                paired = sorted(this.keys() & parent.keys())
                row["this_better"] = sum((this[i] < parent[i]) == lower and this[i] != parent[i]
                                         for i in paired)
                row["pairs"] = len(paired)
            rows[name] = row
        out[workload] = rows
    return out


def assemble(spec: dict, label: str, seed: int, checkouts: dict, runs: list[dict]) -> dict:
    return {"label": label, "seed": seed, "seconds": spec["run_seconds"],
            "command": " ".join(spec["command"]) + " --workload W --seed S --seconds T",
            "checkouts": checkouts, "summary": summarise(spec, runs), "runs": runs}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--label", required=True)
    p.add_argument("--parent", help="a checkout of the parent commit to run alternately")
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    spec = load_spec()
    sides = [("parent", os.path.abspath(args.parent))] if args.parent else []
    sides.append(("this", ROOT))
    checkouts = {side: provenance(checkout) for side, checkout in sides}
    runs = []
    for workload in (w["name"] for w in spec["workloads"]):
        for rnd in range(ROUNDS):
            for side, checkout in (sides if rnd % 2 == 0 else sides[::-1]):
                env_detail, result = run_once(spec, checkout, workload, args.seed)
                runs.append({"workload": workload, "side": side, "round": rnd,
                             "environment_detail": env_detail, "result": result})
                print(f"{workload} round {rnd} {side}: wall_s "
                      f"{result['metrics']['wall_s']['value']:.4f}", flush=True)
    path = os.path.join(ROOT, f"BENCH_{args.label}.json")
    with open(path, "w", encoding="ascii") as fh:
        json.dump(assemble(spec, args.label, args.seed, checkouts, runs), fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

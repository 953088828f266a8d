"""Fixed-seed benchmark of tenspect, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports tenspect from
``src/`` there and exits with code 2 when that tree is missing.  One
process calls the library back to back (a closed loop with one client),
with BLAS pinned to one thread.

A run makes ``round(S * PASSES_PER_15S[workload] / 15)`` passes (at least
one) over the workload's items.  The speed of a shared machine drifts with
the load of other tenants, so a fixed yardstick computation is timed before
every op, and each latency is rescaled to the reference machine's speed:
latency * YARDSTICK_S / (median of the nearby yardstick times).  An item's
latency is the median of its rescaled latencies over the passes; wall_s is
their sum.  op_tail_ms is taken over the rescaled latencies of every op of
the run.  setup_s is the median
start-to-first-op time of SETUP_PROBES fresh processes, each rescaled by a
baseline process (interpreter start and the numpy/scipy imports) started
just before it.  The raw times are on the detail line.  perfbench/DESIGN.md
gives the measurements behind this.  Every op output is checked after the
timed region.

--trace 0 prints the end-to-end metrics.  --trace 1 makes one untraced and
one traced pass, fails when any traced output differs from the untraced
one, and prints the per-layer metrics of the traced pass.  The last stdout
line is the result object; the line before it holds the environment and
the run details.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"          # before numpy loads its BLAS

import numpy as np  # noqa: E402  (after the thread variables)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_build", "perfbench")

#: passes over each workload's items per 15 s of --seconds; one pass takes
#: 3.3, 6.5, 5.0 and 4.0 s at the reference speed
PASSES_PER_15S = {"sandwich": 5, "basis_search": 3,
                  "support_programs": 3, "power_certificate": 4}
SETUP_PROBES = 4
#: seconds the baseline process takes on the reference machine, unloaded
#: (about the fastest of 40 starts; see perfbench/DESIGN.md)
BASELINE_S = 0.42
BASELINE_CODE = "import numpy, scipy.optimize"
#: seconds one yardstick() call takes on the reference machine, unloaded
#: (about the 5th percentile of 2000 calls; see perfbench/DESIGN.md)
YARDSTICK_S = 0.0026
#: yardstick times on either side of an op that its rescaling uses
YARDSTICK_WINDOW = 2


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(PASSES_PER_15S))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="reduced item lists and one pass (used by selftest.py)")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _import_tenspect():
    sys.path.insert(0, SRC)
    import tenspect
    if not os.path.abspath(tenspect.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: tenspect imported from {tenspect.__file__}, not {SRC}")
    import scipy.optimize  # noqa: F401  (its first use alone costs ~0.4 s)
    import workloads
    return workloads


def _setup(args, workdir):
    """Everything before the first timed op: inputs, support files, warm-up."""
    workloads = _import_tenspect()
    items, warm = workloads.WORKLOADS[args.workload](args.seed, workdir, args.smoke)
    warm.run()
    return workloads, items


def yardstick():
    """Fixed work in the library's mix: interpreted loops and calls on
    small numpy arrays (tensordot, eigh)."""
    total = 0
    for i in range(20000):
        total += i * i % 7
    a = np.full((3, 3), 0.5) + np.eye(3)
    h = np.eye(8) + 0.1
    for _ in range(60):
        a = np.tensordot(a, a, axes=(1, 0))
        a /= np.abs(a).max()
        np.linalg.eigh(h)
    return total


def _run_ops(seq, tracer=None, yardsticks=None):
    """Run the ops back to back; with a ``yardsticks`` list, time one
    yardstick() before each op and append its duration."""
    outputs, latencies, errors = [], [], []
    clock = time.perf_counter
    begin = clock()
    for op_id, item in enumerate(seq):
        if tracer is not None:
            tracer.op_id = op_id
        if yardsticks is not None:
            t0 = clock()
            yardstick()
            yardsticks.append(clock() - t0)
        t0 = clock()
        try:
            out = item.run()
            err = None
        except Exception as exc:    # an op that raises counts as failed
            out, err = None, f"{type(exc).__name__}: {exc}"
        latencies.append(clock() - t0)
        outputs.append(out)
        errors.append(err)
    return clock() - begin, outputs, latencies, errors


def _judge(workloads, items, passes, outputs, errors):
    """Check every op; returns per-op verdicts (checks run once per item)."""
    n = len(items)
    verdicts = []
    for i, item in enumerate(items):
        first = outputs[i]
        if errors[i] is not None:
            base = workloads.Verdict(False, note=errors[i])
        else:
            try:
                base = item.check(first)
            except Exception as exc:
                base = workloads.Verdict(False, note=f"check raised {type(exc).__name__}: {exc}")
        verdicts.append((item.label, base))
    per_op = []
    for j in range(passes * n):
        label, v = verdicts[j % n]
        if errors[j] is not None:
            v = workloads.Verdict(False, note=errors[j])
        elif v.ok and workloads.fingerprint(outputs[j]) != workloads.fingerprint(outputs[j % n]):
            v = workloads.Verdict(False, note="output differs between passes")
        per_op.append((label, v))
    return per_op


def _tail(lat_sorted):
    """Latency at the highest percentile with at least ten ops beyond it."""
    n = len(lat_sorted)
    if n < 11:
        return lat_sorted[-1], 100.0
    return lat_sorted[n - 11], 100.0 * (n - 10) / n


def _rescaled(latencies, yardsticks):
    """Each latency at the reference machine's speed, judged by the median
    yardstick time in a window around it."""
    out = []
    for j, lat in enumerate(latencies):
        near = yardsticks[max(0, j - YARDSTICK_WINDOW):j + YARDSTICK_WINDOW + 1]
        out.append(lat * YARDSTICK_S / statistics.median(near))
    return out


def _setup_seconds(args) -> tuple[list[float], list[float]]:
    """Start-to-first-op times of fresh processes doing this run's setup,
    and of the baseline process started just before each of them."""
    samples, baselines = [], []
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"]
    if args.smoke:
        cmd.append("--smoke")
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        subprocess.run([sys.executable, "-c", BASELINE_CODE], cwd=ROOT, timeout=120, check=True)
        baselines.append(time.monotonic() - t0)
        t0 = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        ready = float(proc.stdout.strip().splitlines()[-1].split()[1])
        samples.append(ready - t0)
    return samples, baselines


def _git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="ascii") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="ascii") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return None


def _source_digest():
    h = hashlib.sha256()
    base = os.path.join(SRC, "tenspect")
    for name in sorted(os.listdir(base)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(base, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _environment(args):
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    return {"git_commit": _git_commit(), "source_sha256": _source_digest(),
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
            "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
            "platform": platform.platform()}


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "tenspect", "__init__.py")):
        print(f"error: no tenspect sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        t_setup = time.monotonic()
        workloads, items = _setup(args, workdir)
        if args.setup_probe:
            print(f"ready {time.monotonic()!r}")
            return 0
        own_setup = time.monotonic() - t_setup
        passes = 1 if args.smoke or args.trace else \
            max(1, round(args.seconds * PASSES_PER_15S[args.workload] / 15))
        seq = items * passes
        pass_walls, outputs, latencies, errors, sticks = [], [], [], [], []
        for _ in range(passes):
            pass_wall, outs, lats, errs = _run_ops(items, yardsticks=sticks)
            pass_walls.append(pass_wall)
            outputs += outs
            latencies += lats
            errors += errs
        rescaled = _rescaled(latencies, sticks)
        n = len(items)
        item_lat = [statistics.median(rescaled[i::n]) for i in range(n)]
        wall = sum(item_lat)
        traced = None
        if args.trace:
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
            try:
                traced = _run_ops(items, tracer)
            finally:
                tracer.uninstall()

        per_op = _judge(workloads, items, passes, outputs, errors)
        failed = sum(1 for _, v in per_op if not v.ok)
        uncertified = sum(1 for _, v in per_op if v.ok and v.uncertified)
        mismatched = []
        if traced is not None:
            for j, (a, b) in enumerate(zip(outputs, traced[1])):
                if a is None or b is None or workloads.fingerprint(a) != workloads.fingerprint(b):
                    mismatched.append(seq[j].label)
        correct = failed == 0 and not mismatched
        gaps = [v.gap_bits for _, v in per_op if v.gap_bits is not None]
        tail, tail_pct = _tail(sorted(rescaled))
        detail = {
            "ops": len(seq), "items": len(items), "passes": passes,
            "pass_walls_s": pass_walls, "setup_s_this_process": own_setup,
            "wall_s_raw": sum(statistics.median(latencies[i::n]) for i in range(n)),
            "speed_factor": statistics.median(sticks) / YARDSTICK_S,
            "op_tail_percentile": tail_pct, "op_tail_samples": len(rescaled),
            "gap_bits": statistics.median(gaps) if gaps else None,
            "uncertified_ops": uncertified,
            "fail_ratio": (failed + uncertified) / len(seq),
            "failures": sorted({f"{label}: {v.note}" for label, v in per_op if not v.ok})[:20],
            "uncertified_items": sorted({label for label, v in per_op
                                         if v.ok and v.uncertified}),
            "traced_output_mismatches": mismatched[:20],
        }
        if args.trace:
            metrics = {}
            summary = tracer.summarise()
            for name, (value, unit) in summary.items():
                metrics[name] = _metric(value, unit)
            # op time only: the untraced pass also timed its yardsticks
            metrics["trace.overhead_ratio"] = _metric(sum(traced[2]) / sum(latencies) - 1.0,
                                                      "ratio")
            tracer.write(os.path.join(WORK, f"trace-{args.workload}.npz"))
            detail["wall_s_traced"] = traced[0]
            detail["spans"] = len(tracer.start)
        else:
            setups, baselines = _setup_seconds(args)
            detail["setup_s_raw"] = setups
            detail["setup_baseline_s"] = baselines
            setup = statistics.median(s * BASELINE_S / b for s, b in zip(setups, baselines))
            metrics = {
                "setup_s": _metric(setup, "s"),
                "wall_s": _metric(wall, "s"),
                "ops_per_s": _metric(len(items) / wall, "1/s"),
                "op_p50_ms": _metric(statistics.median(item_lat) * 1e3, "ms"),
                "op_tail_ms": _metric(tail * 1e3, "ms"),
                "peak_rss_mb": _metric(
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            }
        print(json.dumps({"environment": _environment(args), "detail": detail}))
        print(json.dumps({"correct": correct, "attempted": len(seq), "failed": failed,
                          "metrics": metrics}))
        return 0 if correct else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

"""The command-line scripts under scripts/ run to completion on small inputs,
and the benchmark recorder assembles its record from canned runs."""

import importlib.util
import json
import os
import shutil
import subprocess
import sys

import pytest

import tenspect as ts

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.dirname(os.path.dirname(os.path.abspath(ts.__file__)))


def _run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", name), *args],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_zn_table_agrees_with_minimax():
    rows = _run_script("zn_table.py", "6").splitlines()[1:]
    assert [int(row.split()[0]) for row in rows] == [2, 3, 4, 5, 6]
    for row in rows:
        # columns: n, gamma, z(n), 2^minimax, diff
        assert float(row.split()[4]) <= 1e-6, row


@pytest.mark.parametrize("name,args", [("search_cases.py", ()),
                                       ("sandwich_sweep.py", ("2",)),
                                       ("ascent_cases.py", ("random", "1/4,1/4")),
                                       ("certificate_cases.py", ("random", "4")),
                                       ("entropy_cases.py", ("2",))])
def test_script_runs(name, args):
    assert _run_script(name, *args)


def _canned_run(wall_s, rss_mb):
    """The last two stdout lines of a `perfbench/run.py --trace 0` run."""
    metrics = {name: {"value": 1.0, "unit": "s"} for name in
               ("setup_s", "ops_per_s", "op_p50_ms", "op_tail_ms")}
    metrics["wall_s"] = {"value": wall_s, "unit": "s"}
    metrics["peak_rss_mb"] = {"value": rss_mb, "unit": "MB"}
    return ("progress\n" + json.dumps({"environment": {"seed": 1}, "detail": {"ops": 3}}) + "\n"
            + json.dumps({"correct": True, "attempted": 3, "failed": 0, "metrics": metrics}) + "\n")


def test_bench_record_assembles_canned_runs(tmp_path, monkeypatch):
    """The record keeps both lines of every run and compares the sides'
    medians round by round; no benchmark is started."""
    spec = importlib.util.spec_from_file_location(
        "bench_record", os.path.join(ROOT, "scripts", "bench_record.py"))
    bench_record = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_record)
    walls = {"parent": [0.20, 0.21, 0.19], "this": [0.15, 0.22, 0.14]}
    runs = []
    for rnd in range(3):
        for side in ("parent", "this"):
            env_detail, result = bench_record.parse_run(_canned_run(walls[side][rnd], 80.0))
            runs.append({"workload": "basis_search", "side": side, "round": rnd,
                         "environment_detail": env_detail, "result": result})
    bench = bench_record.load_spec()
    checkouts = {"parent": {"commit": None, "dirty": None},
                 "this": {"commit": "ab" * 20, "dirty": True}}
    record = json.loads(json.dumps(bench_record.assemble(bench, "t", 1, checkouts, runs)))
    assert record["label"] == "t" and len(record["runs"]) == 6
    assert record["checkouts"] == checkouts
    assert record["seconds"] == bench["run_seconds"]
    assert set(record["summary"]["basis_search"]) == {m["name"] for m in bench["end_to_end"]}
    assert record["runs"][0]["environment_detail"]["detail"] == {"ops": 3}
    wall = record["summary"]["basis_search"]["wall_s"]
    assert wall["parent_median"] == 0.20 and wall["this_median"] == 0.15
    assert wall["change"] == pytest.approx(-0.25)
    assert (wall["this_better"], wall["pairs"]) == (2, 3)
    rss = record["summary"]["basis_search"]["peak_rss_mb"]
    assert rss["change"] == 0.0 and rss["this_better"] == 0
    with pytest.raises(ValueError):
        bench_record.parse_run("one line\n")
    _check_provenance(bench_record, tmp_path, monkeypatch)


def _check_provenance(bench_record, tmp_path, monkeypatch):
    """A side's commit is its HEAD, and it is dirty only when a tracked file
    changed; both are None outside a git checkout."""
    if shutil.which("git") is None:
        pytest.skip("git is not installed")
    # git looks for no repository above tmp_path
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path.parent))
    assert bench_record.provenance(str(tmp_path)) == {"commit": None, "dirty": None}
    repo = tmp_path / "checkout"
    repo.mkdir()

    def git(*args):
        return subprocess.run(["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t",
                               "-c", "commit.gpgsign=false", *args], capture_output=True, text=True, check=True).stdout.strip()

    git("init", "-q")
    (repo / "a.txt").write_text("a\n")
    git("add", "a.txt")
    git("commit", "-q", "-m", "a")
    head = git("rev-parse", "HEAD")
    (repo / "untracked.txt").write_text("u\n")
    assert bench_record.provenance(str(repo)) == {"commit": head, "dirty": False}
    (repo / "a.txt").write_text("b\n")
    assert bench_record.provenance(str(repo)) == {"commit": head, "dirty": True}

"""The command-line scripts under scripts/ run to completion on small inputs."""

import os
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


@pytest.mark.parametrize("name,args", [("capset_report.py", ("3", "3")),
                                       ("sandwich_sweep.py", ("2",))])
def test_script_runs(name, args):
    assert _run_script(name, *args)

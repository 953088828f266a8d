"""Golden records of the CLI's default machine output.

`cli_golden.json` holds, for every verb on a small fixed input, the argument
list and the full `--format json` text that `tenspect.cli.run` returns.  The
test compares that text byte for byte, so a change that keeps the certified
values but moves a digit, a key or a record shows here.  The support files
`@phi` (`reduced_polymult_support(3)`) and `@psi` (`modular_sum_support(3)`)
are written to a temporary directory first.  Regenerate with
`PYTHONPATH=src python tests/test_cli_golden.py` only when a change to the
output is intended.
"""

import json
import os
import tempfile

import pytest

from tenspect.asymptotics import modular_sum_support, reduced_polymult_support
from tenspect.cli import EXIT_OK, run
from tenspect.supports import save_support

GOLDEN = os.path.join(os.path.dirname(__file__), "cli_golden.json")
CALLS = {
    "zn": ["zn", "--n", "3"],
    "capset": ["capset", "--m", "3", "--p", "3"],
    "family": ["family", "--spec", "W"],
    "support-upper": ["support-upper", "--family", "W"],
    "support-lower": ["support-lower", "--family", "W"],
    "quantum-lower": ["quantum-lower", "--family", "W", "--starts", "1", "--iters", "50"],
    "quantum-cert": ["quantum-cert", "--family", "W", "--power", "3"],
    "tight": ["tight", "--support", "@phi"],
    "subrank-exact": ["subrank-exact", "--support", "@phi"],
    "subrank-asymptotic": ["subrank-asymptotic", "--support", "@phi"],
    "degeneration": ["degeneration", "--support", "@psi", "--sub", "@phi", "--bound"],
    "slicerank": ["slicerank", "--family", "W"],
    "slicerank exact": ["slicerank", "--family", "W", "--exact"],
    "kron": ["kron", "--lam", "2,1", "--mu", "2,1", "--nu", "2,1"],
    "lr": ["lr", "--lam", "3,2,1", "--mu", "2,1", "--nu", "2,1"],
}


def _outputs(directory):
    paths = {"@phi": os.path.join(directory, "phi.txt"),
             "@psi": os.path.join(directory, "psi.txt")}
    save_support(reduced_polymult_support(3), paths["@phi"])
    save_support(modular_sum_support(3), paths["@psi"])
    outputs = {}
    for name, argv in CALLS.items():
        code, text = run([paths.get(a, a) for a in argv] + ["--format", "json"])
        assert code == EXIT_OK, (name, text)
        outputs[name] = text
    return outputs


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return _outputs(str(tmp_path_factory.mktemp("cli_golden")))


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN, encoding="ascii") as fh:
        return json.load(fh)


def test_golden_covers_every_call(golden):
    assert sorted(golden) == sorted(CALLS)
    assert all(golden[name]["argv"] == CALLS[name] for name in CALLS)


@pytest.mark.parametrize("name", sorted(CALLS))
def test_cli_output_matches_golden(golden, outputs, name):
    assert outputs[name] == golden[name]["output"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as directory:
        captured = _outputs(directory)
    records = {name: {"argv": CALLS[name], "output": captured[name]} for name in CALLS}
    with open(GOLDEN, "w", encoding="ascii") as fh:
        json.dump(records, fh, indent=1, sort_keys=True)
        fh.write("\n")

import argparse
import dataclasses
import json
import math

import pytest

import tenspect as ts
import tenspect.asymptotics as tasy
import tenspect.cli as tcli
from tenspect.cli import (EXIT_BUDGET, EXIT_OK, EXIT_VALIDATION, build_parser,
                          parse_theta, run)


def run_ok(argv):
    code, out = run(argv)
    assert code == EXIT_OK, out
    return out


def test_zn_table_reference_values():
    out = run_ok(["zn", "--from", "2", "--to", "10", "--format", "json"])
    rows = json.loads(out)["table"]
    expected = [1.88988, 2.75510, 3.61072, 4.46158, 5.30973,
                6.15620, 7.00155, 7.84612, 8.69012]
    assert [round(r["z"], 5) for r in rows] == expected


def test_zn_single_value():
    out = run_ok(["zn", "--n", "2", "--format", "json", "--digits", "12"])
    rows = json.loads(out)["table"]
    assert rows[0]["gamma"] == pytest.approx(2.0, abs=1e-10)


def test_zn_past_the_overflow_of_four_to_the_n():
    # n ln 4 > 709 from n = 513 on, where the root function's n / (g^n - 1)
    # at the bracket end g = 4 reads 0
    z = {n: tasy.z_of_n(n).z for n in (512, 513, 600)}
    assert z[600] == pytest.approx(505.16, abs=0.01)
    assert z[512] < z[513] < z[600]
    rows = json.loads(run_ok(["zn", "--n", "600", "--format", "json"]))["table"]
    assert rows[0]["n"] == 600 and rows[0]["z"] == pytest.approx(505.16, abs=0.01)


@pytest.mark.parametrize("n", [3 * 10**9, 10**12])
def test_zn_beyond_a_million(n):
    # the bracket's low end 1 + 1e-3 / n keeps f > 0 there; z / n tends to
    # 0.8414344 (z(n) ~ 0.84 n) and gamma - 1 to about 2.15 / n
    res = tasy.z_of_n(n)
    assert res.z / n == pytest.approx(0.8414344, abs=1e-6)
    assert 1.0 < res.gamma < 1.0 + 3.0 / n
    rows = json.loads(run_ok(["zn", "--n", str(n), "--format", "json", "--digits", "12"]))["table"]
    assert rows[0]["z"] / n == pytest.approx(0.8414344, abs=1e-6)


def test_zn_above_the_limit_is_a_validation_error():
    code, out = run(["zn", "--n", "10000000000000"])
    assert code == EXIT_VALIDATION
    assert out == f"error: n must be <= {tasy.Z_MAX_N}, got 10000000000000\n"
    with pytest.raises(ValueError, match="n must be <= 1000000000000"):
        tasy.z_of_n(10**12 + 1)


def test_capset_report():
    out = run_ok(["capset", "--m", "3", "--p", "3", "--format", "json"])
    rep = json.loads(out)
    assert abs(rep["value"] - 2.75510) < 1e-4
    assert rep["support_transform_verified"]
    assert rep["degeneration_verified"]


def test_quantum_lower_w():
    out = run_ok(["quantum-lower", "--family", "W", "--theta", "uniform",
                  "--seed", "7", "--starts", "3", "--iters", "300",
                  "--format", "json"])
    rep = json.loads(out)
    assert abs(rep["log2_value"] - 0.918296) < 1e-3


def test_quantum_lower_reports_bound_and_stop():
    # unit:3 reaches its certified bound log2 3 at the first start
    rep = json.loads(run_ok(["quantum-lower", "--family", "unit:3", "--theta", "uniform",
                             "--starts", "4", "--format", "json", "--digits", "17"]))
    assert rep["stop"] == "bound" and rep["starts"] == 1
    assert rep["log2_upper"] == pytest.approx(math.log2(3), rel=0, abs=1e-12)
    # W at (1/2, 1/2, 0) tends to 1 bit from below (the supremum lies on the
    # boundary of the orbit), so no start stops at the bound and every start
    # runs; bounded Newton steps take each within 1e-9 of it in 20 iterations
    rep = json.loads(run_ok(["quantum-lower", "--family", "W", "--theta", "0.5,0.5,0",
                             "--starts", "2", "--iters", "20", "--format", "json",
                             "--digits", "17"]))
    assert rep["stop"] == "gradient" and rep["starts"] == 2
    assert 0 < rep["log2_upper"] - rep["log2_value"] < 1e-9


def test_support_upper_and_lower():
    out = run_ok(["support-upper", "--family", "unit:3", "--format", "json",
                  "--restarts", "1", "--steps", "5"])
    rep = json.loads(out)
    assert rep["zeta_exact"] == 3
    out = run_ok(["support-lower", "--family", "unit:3", "--format", "json",
                  "--restarts", "1", "--steps", "5"])
    rep = json.loads(out)
    assert abs(rep["zeta_lower"] - 3.0) < 1e-6


def test_tight_and_degeneration_and_subrank(tmp_path):
    phi = ts.reduced_polymult_support(3)
    psi = ts.modular_sum_support(3)
    phi_path = tmp_path / "phi.txt"
    psi_path = tmp_path / "psi.txt"
    ts.save_support(phi, phi_path)
    ts.save_support(psi, psi_path)

    rep = json.loads(run_ok(["tight", "--support", str(phi_path), "--format", "json"]))
    assert rep["tight"] is True
    rep = json.loads(run_ok(["degeneration", "--support", str(psi_path),
                             "--sub", str(phi_path), "--bound", "--format", "json"]))
    assert rep["feasible"] and abs(rep["lower_bound"] - 2.75510) < 1e-4
    rep = json.loads(run_ok(["subrank-exact", "--support", str(phi_path),
                             "--format", "json"]))
    assert rep["value"] == 2
    rep = json.loads(run_ok(["subrank-asymptotic", "--support", str(phi_path),
                             "--format", "json"]))
    assert abs(rep["value"] - 2.75510) < 1e-4


def test_tight_one_point_support_is_linear(tmp_path):
    path = tmp_path / "one.txt"
    ts.save_support(ts.SupportSet((3, 4, 2), ((2, 1, 0),)), path)
    rep = json.loads(run_ok(["tight", "--support", str(path), "--format", "json"]))
    assert rep["tight"] is True and rep["method"] == "linear"
    maps = rep["maps"]
    assert maps[0][2] + maps[1][1] + maps[2][0] == 0
    assert all(len(set(m)) == len(m) for m in maps)


def test_tight_reports_the_forced_equal_values(tmp_path):
    # the parity support: its weights force equal values 0 and 1 on leg 1
    path = tmp_path / "parity.txt"
    ts.save_support(ts.SupportSet((2, 2, 2), ((0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0))), path)
    rep = json.loads(run_ok(["tight", "--support", str(path), "--format", "json"]))
    assert rep["tight"] is False
    assert rep["forced_equal"] == {"leg": 1, "values": [0, 1]}


def test_quantum_cert_crossing_theta_is_an_error():
    code, out = run(["quantum-cert", "--family", "unit:2,4",
                     "--theta", "bip:{1,2}|{3,4}=0.5,{1,3}|{2,4}=0.5"])
    assert code == EXIT_VALIDATION
    assert out == "error: crossing theta weights are not supported\n"


def test_family_output_roundtrip(tmp_path):
    path = tmp_path / "cw2.txt"
    run_ok(["family", "--spec", "cw:2", "--out", str(path)])
    t = ts.load_tensor(path)
    assert t.dims == (3, 3, 3)
    assert len(t.nonzero_indices()) == 6
    # the written file feeds straight back into the pipelines
    rep = json.loads(run_ok(["support-upper", "--tensor", str(path),
                             "--restarts", "1", "--steps", "5",
                             "--format", "json"]))
    assert abs(rep["rho_upper"] - 1.584963) < 1e-5


def test_quantum_cert_and_slicerank_and_lr():
    rep = json.loads(run_ok(["quantum-cert", "--family", "unit:2",
                             "--theta", "bip:{1}|{2,3}=1.0", "--power", "2",
                             "--format", "json"]))
    assert abs(rep["log2_value"] - 1.0) < 1e-9
    rep = json.loads(run_ok(["slicerank", "--family", "W", "--exact",
                             "--format", "json"]))
    assert rep["value"] == 2
    rep = json.loads(run_ok(["kron", "--lam", "2,1", "--mu", "2,1",
                             "--nu", "2,1", "--format", "json"]))
    assert rep["coefficient"] == 1
    rep = json.loads(run_ok(["lr", "--lam", "3,2,1", "--mu", "2,1",
                             "--nu", "2,1", "--format", "json"]))
    assert rep["coefficient"] == 2


def test_theta_parsing():
    th = parse_theta("uniform", 3)
    assert th.mode == "legs"
    th = parse_theta("0.2,0.3,0.5", 3)
    assert [w for _, w in sorted(th.items)] == [0.2, 0.3, 0.5]
    th = parse_theta("bip:{1}|{2,3}=0.4,{1,2}|{3}=0.6", 3)
    assert th.mode == "bipartitions"
    assert sum(w for _, w in th.items) == pytest.approx(1.0)
    # the body is the items joined by commas and nothing else
    for text in ("bip:{1}|{2,3}=1 garbage", "bip:xx{1}|{2,3}=1"):
        with pytest.raises(ValueError, match="cannot parse"):
            parse_theta(text, 3)
    code, out = run(["quantum-cert", "--family", "W",
                     "--theta", "bip:{1}|{2,3}=0.5,{2,3}|{1}=0.5"])
    assert (code, out) == (EXIT_VALIDATION, "error: theta 'bip:{1}|{2,3}=0.5,{2,3}|{1}=0.5': "
                                            "bipartition side {1} is given twice\n")
    # a side is a comma-separated list of leg numbers; spaces may surround each
    assert parse_theta("bip:{1, 2}|{3}=1", 3).items == ((frozenset({0, 1}), 1.0),)
    # every error names the theta, and a bad weight is quoted
    bad = {"0.5,0.5": r"theta '0.5,0.5' needs 3 weights, got 2",
           "bip:{1}|{2}=1.0": r"theta 'bip:\{1\}\|\{2\}=1.0': '\{1\}\|\{2\}=1.0' is not a bipartition",
           "bip:{1}|{2,3}=0.5,{2,3}|{1}=0.5": r"theta 'bip:.*=0.5': bipartition side \{1\} is given",
           "bip:{1 2}|{3}=1": r"cannot parse bipartition theta 'bip:\{1 2\}\|\{3\}=1'",
           "bip:{1,}|{2,3}=1": r"cannot parse bipartition theta",
           "bip:{1}|{2,3}=1e": r"theta 'bip:\{1\}\|\{2,3\}=1e' has a weight '1e' that is not",
           "0.5,0.5,x": r"theta '0.5,0.5,x' has a weight 'x' that is not a number",
           "nan,0.5,0.5": r"theta 'nan,0.5,0.5': theta weight nan is not finite"}
    for text, message in bad.items():
        with pytest.raises(ValueError, match=message):
            parse_theta(text, 3)
        code, out = run(["support-upper", "--family", "W", "--theta", text])
        assert code == EXIT_VALIDATION and out.startswith("error: ") and repr(text) in out


def test_exit_codes():
    code, _ = run(["zn", "--from", "5", "--to", "2"])
    assert code == EXIT_VALIDATION
    code, _ = run(["capset", "--m", "6", "--p", "3"])
    assert code == EXIT_VALIDATION
    code, _ = run(["quantum-cert", "--family", "unit:2", "--power", "9"])
    assert code == EXIT_BUDGET
    code, _ = run(["no-such-verb"])
    assert code == EXIT_VALIDATION
    code, _ = run(["support-upper", "--format", "json"])   # missing input
    assert code == EXIT_VALIDATION


@pytest.mark.parametrize("argv", [
    ["support-upper", "--family", "W", "--theta", "uniform", "--restarts", "-1"],
    ["support-lower", "--family", "W", "--steps", "-1"],
    ["quantum-lower", "--family", "W", "--starts", "-1"],
    ["quantum-lower", "--family", "W", "--starts", "0"],
    ["quantum-lower", "--family", "W", "--iters", "-1"],
    ["slicerank", "--family", "W", "--starts", "0"],
    ["quantum-cert", "--family", "W", "--power", "0"],
    ["quantum-cert", "--family", "W", "--power", "-1"],
    ["subrank-exact", "--family", "W", "--budget", "-1"],
], ids=lambda argv: " ".join(argv[argv.index("W") + 1:]))
def test_invalid_budgets_are_validation_errors(argv):
    code, out = run(argv)
    assert code == EXIT_VALIDATION
    assert out.startswith("error: ")


def test_subrank_exact_over_budget_exits_3(tmp_path):
    path = tmp_path / "two.txt"
    ts.save_support(ts.SupportSet((2, 2, 2), ((0, 0, 0), (1, 1, 1))), path)
    code, text = run(["subrank-exact", "--support", str(path), "--budget", "1"])
    assert code == EXIT_BUDGET
    assert text == "budget exhausted: support size 2 beyond budget 1\n"


def test_repeated_index_is_a_validation_error(tmp_path):
    path = tmp_path / "dup.txt"
    path.write_text("3 1 1 1 Q\n0 0 0 1/1\n0 0 0 5/1\n")
    code, text = run(["support-upper", "--tensor", str(path)])
    assert code == EXIT_VALIDATION
    assert "repeated index" in text


def test_formats_and_digits():
    table = run_ok(["zn", "--n", "3", "--digits", "4"])
    assert "2.755" in table
    csv_out = run_ok(["zn", "--n", "3", "--format", "csv"])
    assert csv_out.splitlines()[0] == "key,value"
    js = run_ok(["zn", "--n", "3", "--format", "json", "--digits", "9"])
    assert json.loads(js)["table"][0]["z"] == pytest.approx(2.75510461, abs=1e-7)


def test_negative_digits_is_a_validation_error():
    code, out = run(["zn", "--n", "3", "--digits", "-1"])
    assert (code, out) == (EXIT_VALIDATION, "error: --digits -1 is negative\n")
    assert tcli.main(["zn", "--n", "3", "--digits", "-1"]) == EXIT_VALIDATION


def test_family_with_a_wrong_parameter_count_is_a_validation_error():
    code, out = run(["family", "--spec", "unit:2,3,4"])
    assert (code, out) == (EXIT_VALIDATION,
                           "error: family 'unit' takes 1 or 2 parameter(s), got 3\n")


def test_machine_output_deterministic():
    args = ["quantum-lower", "--family", "W", "--theta", "uniform",
            "--seed", "7", "--starts", "4", "--iters", "200", "--format", "json"]
    assert run_ok(args) == run_ok(args)
    args = ["support-upper", "--family", "cw:2", "--seed", "3",
            "--restarts", "2", "--steps", "15", "--format", "json"]
    assert run_ok(args) == run_ok(args)


def test_duality_gap_of_an_ulp_prints_zero(monkeypatch):
    """A minimax gap of 0 and one of an ulp (or an ulp below 0) print the same
    duality_gap, 0.0, at every --digits; a gap of 3.4e-9 still shows."""
    solve = tcli.asympt_subrank_tight3

    def with_gap(gap):
        def shifted(support):
            res = solve(support)
            return dataclasses.replace(res, minimax=dataclasses.replace(res.minimax, gap=gap))
        monkeypatch.setattr(tcli, "asympt_subrank_tight3", shifted)

    for digits in ("6", "17"):
        argv = ["subrank-asymptotic", "--family", "W", "--format", "json", "--digits", digits]
        outs = []
        for gap in (0.0, 4.440892098500626e-16, -2.220446049250313e-16):
            with_gap(gap)
            outs.append(run_ok(argv))
        assert len(set(outs)) == 1
        assert json.loads(outs[0])["duality_gap"] == 0.0
        with_gap(3.4e-9)
        assert json.loads(run_ok(argv))["duality_gap"] == 3.4e-9


def test_parser_is_built_once(monkeypatch):
    add_argument, calls = argparse.ArgumentParser.add_argument, []

    def counting(self, *args, **kwargs):
        calls.append(args)
        return add_argument(self, *args, **kwargs)

    run_ok(["zn", "--n", "3"])
    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counting)
    run_ok(["zn", "--n", "4"])
    assert calls == []


# verbs that draw no random number, with arguments that parse
DETERMINISTIC = {
    "family": ["--spec", "W"],
    "quantum-cert": ["--family", "W"],
    "tight": ["--family", "W"],
    "degeneration": ["--family", "W", "--sub", "sub.txt"],
    "subrank-exact": ["--family", "W"],
    "subrank-asymptotic": ["--family", "W"],
    "zn": ["--n", "2"],
    "capset": ["--m", "3", "--p", "3"],
    "kron": ["--lam", "1", "--mu", "1", "--nu", "1"],
    "lr": ["--lam", "2", "--mu", "1", "--nu", "1"],
}


@pytest.mark.parametrize("verb", sorted(DETERMINISTIC))
def test_seed_only_where_there_is_randomness(verb):
    argv = [verb] + DETERMINISTIC[verb]
    assert not hasattr(build_parser().parse_args(argv), "seed")
    assert run(argv + ["--seed", "1"])[0] == EXIT_VALIDATION


@pytest.mark.parametrize("argv", [
    ["support-upper", "--family", "W", "--restarts", "1", "--steps", "5"],
    ["support-lower", "--family", "W", "--restarts", "1", "--steps", "5"],
    ["quantum-lower", "--family", "W", "--starts", "1", "--iters", "50"],
    ["slicerank", "--family", "W", "--exact"],
], ids=lambda argv: argv[0])
def test_seeded_verbs_take_a_seed(argv):
    assert json.loads(run_ok(argv + ["--seed", "1", "--format", "json"]))["seed"] == 1


def test_degeneration_bound_checks_the_certificate_once(tmp_path, monkeypatch):
    phi_path, psi_path = tmp_path / "phi.txt", tmp_path / "psi.txt"
    ts.save_support(ts.reduced_polymult_support(3), phi_path)
    ts.save_support(ts.modular_sum_support(3), psi_path)
    calls = []
    original = ts.check_comb_degeneration

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(tcli, "check_comb_degeneration", counting)
    monkeypatch.setattr(tasy, "check_comb_degeneration", counting)
    rep = json.loads(run_ok(["degeneration", "--support", str(psi_path),
                             "--sub", str(phi_path), "--bound", "--format", "json"]))
    assert rep["lower_bound"] == pytest.approx(2.75510, abs=1e-4)
    assert len(calls) == 1

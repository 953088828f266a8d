"""Acceptance suite: one test per headline criterion, each printing a
pass/fail line with its tolerance so a -s run reads as a checklist."""

import math
import time

import numpy as np

import tenspect as ts
from tenspect.entropy import ThetaWeights, binary_entropy, max_H_theta
from tenspect.partitions import (kronecker_coefficient, lr_coefficient,
                                 partition_entropy, partitions)
from tenspect.quantum import (AscentOptions, bipartition_projector_apply,
                              isotypic_projector_apply,
                              lower_quantum_functional, tensor_power_array,
                              upper_quantum_certificate)
from tenspect.support_functionals import (BasisSearchOptions,
                                          rho_lower_at_basis,
                                          rho_upper_at_basis,
                                          upper_support_functional)
from tenspect.supports import SupportSet
from tenspect.tensors import BasisTuple
from tenspect.asymptotics import (asympt_slicerank, asympt_subrank_tight3,
                                  capset_bound, reduced_polymult_support,
                                  slicerank_exact_combinatorial, z_of_n)
from tenspect.cli import run as cli_run

H13 = binary_entropy(1 / 3)
U3 = ThetaWeights.uniform(3)

Z_TABLE = [1.88988, 2.75510, 3.61072, 4.46158, 5.30973,
           6.15620, 7.00155, 7.84612, 8.69012]

THETA_GRID = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0),
              (1 / 3, 1 / 3, 1 / 3), (0.5, 0.5, 0.0), (0.5, 0.0, 0.5),
              (0.0, 0.5, 0.5), (0.5, 0.25, 0.25), (0.25, 0.5, 0.25),
              (0.25, 0.25, 0.5)]


def _report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def test_criterion_01_z_table():
    start = time.perf_counter()
    values = [z_of_n(n).z for n in range(2, 11)]
    elapsed = time.perf_counter() - start
    ok = all(round(v, 5) == t for v, t in zip(values, Z_TABLE)) and elapsed < 1.0
    _report("criterion 1: z(n) table to 5 decimals, under 1s",
            ok, f"{elapsed:.3f}s")


def test_criterion_02_closed_forms():
    d2 = abs(z_of_n(2).z - 3 * 2 ** (-2 / 3))
    d3 = abs(z_of_n(3).z - 3 * (207 + 33 * math.sqrt(33)) ** (1 / 3) / 8)
    _report("criterion 2: closed forms within 1e-12 / 1e-10",
            d2 <= 1e-12 and d3 <= 1e-10, f"d2={d2:.2e} d3={d3:.2e}")


def test_criterion_03_cw_formula_crosscheck():
    start = time.perf_counter()
    worst = 0.0
    for n in range(2, 7):
        phi = reduced_polymult_support(n)
        res = asympt_subrank_tight3(phi)
        worst = max(worst, abs(res.value - z_of_n(n).z))
    elapsed = time.perf_counter() - start
    _report("criterion 3: minimax vs root equation within 1e-4, under 30s",
            worst <= 1e-4 and elapsed < 30.0,
            f"worst={worst:.2e} {elapsed:.2f}s")


def test_criterion_04_capset():
    rep = capset_bound(3, 3)
    value_ok = abs(rep.value - 2.75510) <= 1e-4
    transform_ok = set(rep.transformed_support.points) \
        == set(rep.target_support.points)
    degen_ok = rep.degeneration.verify(rep.modular_support, rep.target_support)
    _report("criterion 4: cap-set bound 2.75510 with verified certificates",
            value_ok and transform_ok and degen_ok,
            f"value={rep.value:.6f}")


def test_criterion_05_normalisation():
    opts = AscentOptions(starts=2, max_iter=200, seed=0)
    search = BasisSearchOptions(restarts=1, steps=5, seed=0)
    worst_f = 0.0
    for r in range(1, 6):
        t = ts.unit(r)
        for weights in THETA_GRID:
            theta = ThetaWeights.from_legs(weights)
            rep = upper_support_functional(t, theta, search)
            assert rep.zeta_exact == r, (r, weights)
            res = lower_quantum_functional(t, theta, opts)
            worst_f = max(worst_f, abs(res.functional - r))
    _report("criterion 5: unit normalisation, zeta exact and F within 1e-6",
            worst_f <= 1e-6, f"worst F gap={worst_f:.2e}")


def test_criterion_06_free_tensor_agreement():
    opts = AscentOptions(starts=4, max_iter=600, seed=0)
    targets = [(ts.w_tensor(), H13), (ts.cw(2), 2 / 3 + H13)]
    worst = 0.0
    for t, target in targets:
        supp_val = max_H_theta(SupportSet.from_tensor(t), U3).value
        quantum_val = lower_quantum_functional(t, U3, opts).value
        worst = max(worst, abs(quantum_val - supp_val))
        assert abs(supp_val - target) <= 1e-6
    _report("criterion 6: optimizer matches support optimum within 1e-3 "
            "(targets 0.918296, 1.584963)", worst <= 1e-3, f"worst={worst:.2e}")


def test_criterion_07_sandwich_suite():
    rng = np.random.default_rng(2024)
    opts = AscentOptions(starts=2, max_iter=150, seed=0)
    checked = 0
    for case in range(50):
        dims = tuple(int(d) for d in rng.integers(2, 4, size=3))
        arr = rng.standard_normal(dims) + 1j * rng.standard_normal(dims)
        arr *= rng.random(dims) < 0.8
        if np.abs(arr).max() < 1e-9:
            arr[0, 0, 0] = 1.0
        t = ts.Tensor(dims, ts.COMPLEXFLOAT, arr)
        bases = [BasisTuple.standard(t)]
        mats = [np.linalg.qr(rng.standard_normal((d, d))
                             + 1j * rng.standard_normal((d, d)))[0]
                for d in dims]
        bases.append(BasisTuple.make(mats, ts.COMPLEXFLOAT))
        cert = upper_quantum_certificate(t, U3, 3)
        low = lower_quantum_functional(t, U3, opts)
        assert low.value <= low.upper + 1e-12, f"case {case}"
        for basis in bases:
            up = rho_upper_at_basis(t, basis, U3)
            lo = rho_lower_at_basis(t, basis, U3)
            assert lo <= up + 1e-9, f"case {case}"
            assert cert.value <= up + 1e-6, f"case {case}"
            assert low.value <= up + 1e-3, f"case {case}"
        checked += 1
    _report("criterion 7: sandwich inequalities on 50 random tensors",
            checked == 50, f"{checked} tensors")


def test_criterion_08_schur_weyl_suite():
    rng = np.random.default_rng(7)
    # projector algebra on (C^d)^(x n)
    for d in (2, 3):
        for n in (2, 3):
            v = rng.standard_normal((d,) * n) + 1j * rng.standard_normal((d,) * n)
            total = np.zeros_like(v)
            parts = {}
            for lam in partitions(n):
                pv = isotypic_projector_apply(v, (d,), n, lam, [0])
                assert np.abs(isotypic_projector_apply(pv, (d,), n, lam, [0])
                              - pv).max() < 1e-8
                parts[lam] = pv
                total += pv
            assert np.abs(total - v).max() < 1e-8
            lams = list(parts)
            for i in range(len(lams)):
                for j in range(i + 1, len(lams)):
                    assert np.abs(isotypic_projector_apply(
                        parts[lams[i]], (d,), n, lams[j], [0])).max() < 1e-8
    # side symmetry of the block projectors on 20 random power vectors
    worst = 0.0
    for case in range(20):
        dims = tuple(int(d) for d in rng.integers(2, 4, size=3))
        n = 2 if case % 2 == 0 else 3
        psi = rng.standard_normal(dims) + 1j * rng.standard_normal(dims)
        power = tensor_power_array(psi, n)
        side = [[0], [1], [2], [0, 1], [0, 2], [1, 2]][case % 6]
        comp = [i for i in range(3) if i not in side]
        for lam in partitions(n):
            a = bipartition_projector_apply(power, dims, n, lam, side)
            b = bipartition_projector_apply(power, dims, n, lam, comp)
            worst = max(worst, float(np.abs(a - b).max()))
    _report("criterion 8: projector algebra and side symmetry within 1e-8",
            worst <= 1e-8, f"worst side diff={worst:.2e}")


def test_criterion_09_coefficient_inequalities():
    # kronecker: all triples of partitions of n for n <= 6
    for n in range(1, 7):
        lams = list(partitions(n))
        for lam in lams:
            for mu in lams:
                for nu in lams:
                    if kronecker_coefficient(lam, mu, nu) > 0:
                        assert partition_entropy(lam) <= (
                            partition_entropy(mu) + partition_entropy(nu) + 1e-12)
    # littlewood-richardson with the binary entropy correction
    for total in range(2, 7):
        for a in range(1, total):
            b = total - a
            frac = a / total
            for mu in partitions(a):
                for nu in partitions(b):
                    for lam in partitions(total):
                        if lr_coefficient(lam, mu, nu) > 0:
                            bound = (frac * partition_entropy(mu)
                                     + (1 - frac) * partition_entropy(nu)
                                     + binary_entropy(frac))
                            assert partition_entropy(lam) <= bound + 1e-12
    _report("criterion 9: entropy inequalities for nonzero coefficients, n<=6",
            True)


def test_criterion_10_subrank_oracle():
    rng = np.random.default_rng(11)
    checked = 0
    for _ in range(200):
        bounds = tuple(int(b) for b in rng.integers(2, 5, size=3))
        npts = int(rng.integers(1, 13))
        pts = set()
        tries = 0
        while len(pts) < npts and tries < 200:
            pts.add(tuple(int(rng.integers(b)) for b in bounds))
            tries += 1
        supp = SupportSet(bounds, tuple(pts))
        assert ts.subrank_set(supp).value == ts.subrank_set_bruteforce(supp)
        checked += 1
    _report("criterion 10: exact subrank equals exhaustive enumeration",
            checked == 200, f"{checked} supports")


def test_criterion_11_asymptotic_slice_rank():
    w = ts.convert(ts.w_tensor(), ts.COMPLEXFLOAT)
    res_w = asympt_slicerank(w, AscentOptions(starts=3, max_iter=400, seed=0))
    u3 = ts.convert(ts.unit(3), ts.COMPLEXFLOAT)
    res_u = asympt_slicerank(u3, AscentOptions(starts=2, max_iter=300, seed=0))
    cover = slicerank_exact_combinatorial(SupportSet.from_tensor(ts.w_tensor()))
    ok = (abs(res_w.value - 1.88988) <= 2e-3
          and abs(res_u.value - 3.0) <= 1e-6
          and cover.size == 2)
    _report("criterion 11: asymptotic slice rank of W and unit(3), exact W cover",
            ok, f"W={res_w.value:.5f} unit3={res_u.value:.7f} cover={cover.size}")


def test_criterion_12_cli_determinism():
    cases = [
        ["zn", "--from", "2", "--to", "6", "--format", "json"],
        ["quantum-lower", "--family", "W", "--theta", "uniform", "--seed", "7",
         "--starts", "4", "--iters", "250", "--format", "json"],
        ["support-upper", "--family", "cw:2", "--seed", "11",
         "--restarts", "3", "--steps", "20", "--format", "json"],
        ["capset", "--m", "3", "--p", "3", "--format", "csv"],
        ["slicerank", "--family", "W", "--seed", "5", "--starts", "2",
         "--iters", "200", "--format", "json"],
    ]
    for argv in cases:
        code1, out1 = cli_run(argv)
        code2, out2 = cli_run(argv)
        assert code1 == code2 == 0
        assert out1.encode() == out2.encode(), argv
    # separate processes as well, importing the package this test imports
    import os
    import subprocess
    import sys
    src = os.path.dirname(os.path.dirname(os.path.abspath(ts.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, "-m", "tenspect.cli", "zn", "--from", "2",
            "--to", "5", "--format", "json"]
    runs = [subprocess.run(argv, capture_output=True, check=True, env=env).stdout
            for _ in range(2)]
    assert runs[0] == runs[1]
    _report("criterion 12: byte-identical machine output for repeated runs",
            True, f"{len(cases)} in-process + 1 subprocess pair")

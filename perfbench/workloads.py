"""The benchmark's four workloads: inputs from a seed, one callable per op,
and the check written next to each op.

An op returns a dict.  Keys that start with ``_`` carry library objects
that only the check reads; every other value is plain data and forms the
op's fingerprint, which must be identical between the untraced and the
traced run.  Checks run after the timed region, outside every span.

Library functions are looked up through their modules at call time
(``tq.lower_quantum_functional``), so the tracer's wrappers see the calls.
"""

from __future__ import annotations

import importlib
import itertools
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import tenspect.asymptotics as tasy
import tenspect.cli as tcli
import tenspect.entropy as ten
import tenspect.quantum as tq
import tenspect.support_functionals as tsf
import tenspect.supports as tsup
import tenspect.tensors as tt

# the package re-exports a function named ``partitions``, which shadows the
# submodule as an attribute of ``tenspect``
tpart = importlib.import_module("tenspect.partitions")

# leg weights of acceptance criterion 7
THETA_GRID = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0),
              (1 / 3, 1 / 3, 1 / 3), (0.5, 0.5, 0.0), (0.5, 0.0, 0.5),
              (0.0, 0.5, 0.5), (0.5, 0.25, 0.25), (0.25, 0.5, 0.25),
              (0.25, 0.25, 0.5)]

# the paper's z(n) for n = 2..10 to five decimals (acceptance criterion 1)
Z_TABLE = {2: 1.88988, 3: 2.75510, 4: 3.61072, 5: 4.46158, 6: 5.30973,
           7: 6.15620, 8: 7.00155, 9: 7.84612, 10: 8.69012}

H13 = 0.918296      # h(1/3): support functional of W at uniform theta, bits
LOG2_3 = 1.584963   # log2 3: support functional of cw:2 at uniform theta


@dataclass(frozen=True)
class Verdict:
    ok: bool                      # the output passed every check
    uncertified: bool = False     # a certificate's own gap exceeds its tolerance
    gap_bits: float | None = None
    note: str = ""


@dataclass(frozen=True)
class Item:
    label: str
    run: Callable[[], dict]
    check: Callable[[dict], Verdict]


def fingerprint(out: dict) -> dict:
    return {k: v for k, v in out.items() if not k.startswith("_")}


def _fail(note: str) -> Verdict:
    return Verdict(False, note=note)


#: The instances whose cost depends on their values (the sandwich tensors,
#: the ascent and search seeds, the 12-point supports) come from this fixed
#: suite seed, so every run does the same work on the hot paths.  Drawn
#: from --seed, they moved the work of a run by more than the bounds absorb
#: (DESIGN.md); --seed draws everything else and the op order.
SUITE_SEED = 1709


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _shuffled(items: list, rng) -> list:
    return [items[i] for i in rng.permutation(len(items))]


def _random_complex(rng, dims, density=1.0) -> tt.Tensor:
    arr = rng.standard_normal(dims) + 1j * rng.standard_normal(dims)
    if density < 1.0:
        arr *= rng.random(dims) < density
    if np.abs(arr).max() < 1e-9:
        arr[(0,) * len(dims)] = 1.0
    return tt.Tensor(tuple(dims), tt.COMPLEXFLOAT, arr)


def _random_unitary_basis(rng, dims) -> tt.BasisTuple:
    mats = [np.linalg.qr(rng.standard_normal((d, d))
                         + 1j * rng.standard_normal((d, d)))[0] for d in dims]
    return tt.BasisTuple.make(mats, tt.COMPLEXFLOAT)


def _relabel(supp: tsup.SupportSet, perms) -> tsup.SupportSet:
    pts = [tuple(perm[x] for perm, x in zip(perms, p)) for p in supp.points]
    return tsup.SupportSet(supp.bounds, tuple(pts))


def _leg_perms(rng, bounds):
    return [list(rng.permutation(b)) for b in bounds]


def _cli(argv: list[str]) -> dict:
    code, text = tcli.run(argv + ["--format", "json", "--digits", "17"])
    if code != 0:
        raise RuntimeError(f"tenspect {' '.join(argv)} exited {code}: {text.strip()}")
    return {"json": text}


# ---------------------------------------------------------------------------
# sandwich: zeta_theta <= F <= zeta^theta on random complex tensors


SANDWICH_DIMS = [(2, 2, 2), (2, 2, 3), (2, 3, 3), (3, 3, 3),
                 (2, 2, 4), (2, 3, 4), (3, 2, 4), (3, 3, 4)]
SANDWICH_ASCENT = dict(starts=2, max_iter=150)       # acceptance criterion 7
# options, target and tolerance of acceptance criterion 11
SLICERANK_CASES = [("W", dict(starts=3, max_iter=400), 1.88988, 2e-3),
                   ("unit:3", dict(starts=2, max_iter=300), 3.0, 1e-6)]


def _sandwich_op(t, theta, bases, seed, unit_r=None) -> Item:
    def run():
        low = tq.lower_quantum_functional(
            t, theta, tq.AscentOptions(seed=seed, **SANDWICH_ASCENT))
        cert = tq.upper_quantum_certificate(t, theta, 3)
        ups = tuple(tsf.rho_upper_at_basis(t, b, theta) for b in bases)
        los = tuple(tsf.rho_lower_at_basis(t, b, theta) for b in bases)
        return {"ascent": low.value, "cert": cert.value, "up": ups, "lo": los}

    def check(out):
        asc, cert, ups, los = out["ascent"], out["cert"], out["up"], out["lo"]
        for up, lo in zip(ups, los):
            # the slacks of acceptance criterion 7
            if not (lo <= up + 1e-9 and cert <= up + 1e-6 and asc <= up + 1e-3):
                return _fail(f"sandwich order broken: lo={lo} up={up} "
                             f"cert={cert} ascent={asc}")
        if unit_r is not None and abs(2.0 ** asc - unit_r) > 1e-6:
            return _fail(f"unit:{unit_r} ascent gives {2.0 ** asc}")
        return Verdict(True, gap_bits=min(ups) - max(asc, cert))

    label = f"sandwich {'x'.join(map(str, t.dims))} theta={theta.leg_array(t.k).round(3).tolist()}"
    return Item(label, run, check)


def _slicerank_op(spec, opts, target, tol, seed) -> Item:
    t = tt.convert(tt.build_family(tt.parse_family(spec)), tt.COMPLEXFLOAT)

    def run():
        res = tasy.asympt_slicerank(t, tq.AscentOptions(seed=seed, **opts))
        return {"value": res.value, "route": res.route}

    def check(out):
        if abs(out["value"] - target) > tol:
            return _fail(f"slice rank of {spec} is {out['value']}, want {target}")
        return Verdict(True)

    return Item(f"asympt_slicerank {spec}", run, check)


def sandwich(seed: int, workdir: str, smoke: bool) -> tuple[list[Item], Item]:
    suite, rng = _rng(SUITE_SEED, 1), _rng(seed, 1)
    dims_list = SANDWICH_DIMS[:3] if smoke else SANDWICH_DIMS
    order = suite.permutation(len(THETA_GRID))      # no grid theta twice
    items = []
    for i, dims in enumerate(dims_list):
        t = _random_complex(suite, dims, density=0.8)
        theta = ten.ThetaWeights.from_legs(THETA_GRID[order[i]])
        bases = [tt.BasisTuple.standard(t), _random_unitary_basis(rng, dims)]
        items.append(_sandwich_op(t, theta, bases, int(suite.integers(2 ** 31))))
    for spec, r in (("W", None), ("unit:3", 3)):
        t = tt.convert(tt.build_family(tt.parse_family(spec)), tt.COMPLEXFLOAT)
        theta = ten.ThetaWeights.from_legs(THETA_GRID[int(suite.integers(len(THETA_GRID)))])
        bases = [tt.BasisTuple.standard(t), _random_unitary_basis(rng, t.dims)]
        items.append(_sandwich_op(t, theta, bases, int(suite.integers(2 ** 31)), r))
    for spec, opts, target, tol in SLICERANK_CASES[:1] if smoke else SLICERANK_CASES:
        items.append(_slicerank_op(spec, opts, target, tol, int(suite.integers(2 ** 31))))
    # the warm-up is part of setup_s, so its work must not depend on --seed
    warm_t = _random_complex(suite, (2, 2, 2))
    warm = _sandwich_op(warm_t, ten.ThetaWeights.uniform(3),
                        [tt.BasisTuple.standard(warm_t)], 0)
    return _shuffled(items, rng), warm


# ---------------------------------------------------------------------------
# basis_search: both support-functional searches over Q and F_5


BASIS_FAMILIES = ["W", "cw:2", "cw:3", "unit:3", "matmul:2,2,2", "polymul:4"]
BASIS_SEARCH = dict(restarts=4, steps=40)
# every tensor runs at both, on each of its domains
BASIS_THETAS = [(1 / 3, 1 / 3, 1 / 3), (0.5, 0.25, 0.25)]


def _basis_op(spec, t, theta, seed) -> Item:
    uniform = theta == ten.ThetaWeights.uniform(t.k)

    def run():
        opts = tsf.BasisSearchOptions(seed=seed, **BASIS_SEARCH)
        up = tsf.upper_support_functional(t, theta, opts)
        lo = tsf.lower_support_functional(t, theta, opts)
        return {"rho_upper": up.rho_upper, "rho_lower": lo.rho_lower,
                "upper_support": up.support.points, "lower_support": lo.support.points,
                "zeta_exact": up.zeta_exact,
                "evaluations": (up.evaluations, lo.evaluations),
                "_up": up, "_lo": lo}

    def check(out):
        up, lo = out["_up"], out["_lo"]
        for rep in (up, lo):
            if tsf.support_at_basis(t, rep.basis).points != rep.support.points:
                return _fail("returned basis does not reproduce the returned support")
            if rep.rho_lower > rep.rho_upper + 1e-9:
                return _fail(f"report has rho_lower {rep.rho_lower} > rho_upper {rep.rho_upper}")
        if lo.rho_lower > up.rho_upper + 1e-9:
            return _fail(f"lower search {lo.rho_lower} above upper search {up.rho_upper}")
        if uniform and spec == "W" and abs(up.rho_upper - H13) > 1e-6:
            return _fail(f"W gives {up.rho_upper}, want {H13}")
        if uniform and spec == "cw:2" and abs(up.rho_upper - LOG2_3) > 1e-6:
            return _fail(f"cw:2 gives {up.rho_upper}, want {LOG2_3}")
        if spec == "unit:3" and up.zeta_exact != 3:
            return _fail(f"unit:3 gives zeta_exact {up.zeta_exact}")
        return Verdict(True, gap_bits=up.rho_upper - lo.rho_lower)

    label = f"basis_search {spec} {t.domain.label} theta={theta.leg_array(t.k).round(3).tolist()}"
    return Item(label, run, check)


def basis_search(seed: int, workdir: str, smoke: bool) -> tuple[list[Item], Item]:
    suite, rng = _rng(SUITE_SEED, 2), _rng(seed, 2)
    cases = [(spec, dom, w) for spec in BASIS_FAMILIES
             for dom in (tt.RATIONAL, tt.prime_field(5)) for w in BASIS_THETAS]
    cases += [("capset:3,3", None, w) for w in BASIS_THETAS]
    if smoke:
        cases = [("W", tt.RATIONAL, BASIS_THETAS[0]), ("unit:3", tt.prime_field(5), BASIS_THETAS[1])]
    items = []
    for spec, dom, w in cases:
        t = tt.build_family(tt.parse_family(spec), dom)
        items.append(_basis_op(spec, t, ten.ThetaWeights.from_legs(w),
                               int(suite.integers(2 ** 31))))
    warm = _basis_op("W", tt.build_family(tt.parse_family("W")),
                     ten.ThetaWeights.uniform(3), 0)
    return _shuffled(items, rng), warm


# ---------------------------------------------------------------------------
# support_programs: entropy programs and the paper's combinatorial pipelines


SUITE_SUPPORTS = 40
SUITE_THETAS = [(1 / 3, 1 / 3, 1 / 3), (0.5, 0.25, 0.25)]


def _random_support(rng, bounds, npts) -> tsup.SupportSet:
    pts = set()
    tries = 0
    while len(pts) < npts and tries < 200:
        pts.add(tuple(int(rng.integers(b)) for b in bounds))
        tries += 1
    return tsup.SupportSet(tuple(bounds), tuple(pts))


def _max_h_op(index, supp, theta) -> Item:
    def run():
        res = ten.max_H_theta(supp, theta)
        return {"value": res.value, "gap": res.gap, "iterations": res.iterations}

    def check(out):
        if not (0.0 <= out["value"] <= math.log2(len(supp)) + 1e-9):
            return _fail(f"H_theta {out['value']} outside [0, log2 |support|]")
        return Verdict(True, uncertified=out["gap"] > ten.INNER_TOL, gap_bits=out["gap"])

    label = f"max_H_theta suite support {index} theta={theta.leg_array(3).round(3).tolist()}"
    return Item(label, run, check)


def _cli_op(label: str, argv: list[str], check_json: Callable[[dict], Verdict]) -> Item:
    def run():
        return _cli(argv)

    def check(out):
        return check_json(json.loads(out["json"]))

    return Item(f"cli {label}", run, check)


def _check_zn(rep):
    z = {row["n"]: row["z"] for row in rep["table"]}
    for n, want in Z_TABLE.items():
        if round(z[n], 5) != want:
            return _fail(f"z({n}) = {z[n]}, table says {want}")
    d2 = abs(z[2] - 3 * 2 ** (-2 / 3))
    d3 = abs(z[3] - 3 * (207 + 33 * math.sqrt(33)) ** (1 / 3) / 8)
    if d2 > 1e-12 or d3 > 1e-10:
        return _fail(f"closed forms missed: d2={d2:.2e} d3={d3:.2e}")
    return Verdict(True)


def _check_subrank_asymptotic(n):
    def check(rep):
        gap = rep["duality_gap"]
        if abs(rep["value"] - tasy.z_of_n(n).z) > 1e-4:
            return _fail(f"asymptotic subrank {rep['value']} vs z({n})")
        return Verdict(True, uncertified=gap > ten.MINIMAX_TOL, gap_bits=gap)
    return check


def _check_capset(m, p):
    def check(rep):
        target = tasy.reduced_polymult_support(m)
        pts = {tuple(x) for x in rep["transformed_support"]}
        if pts != set(target.points) or {tuple(x) for x in rep["tight_support"]} != pts:
            return _fail("binomial basis transform certificate does not verify")
        cert = tsup.CombDegenerationCertificate(
            tuple(tuple(r) for r in rep["degeneration_maps"]))
        if not cert.verify(tasy.modular_sum_support(m), target):
            return _fail("degeneration certificate does not verify")
        if abs(rep["value"] - Z_TABLE[m]) > 1e-4:
            return _fail(f"capset({m},{p}) = {rep['value']}, want {Z_TABLE[m]}")
        return Verdict(True)
    return check


def _check_tight(supp, expect_tight):
    def check(rep):
        if expect_tight and not rep["tight"]:
            return _fail("a relabeled tight support was reported not tight")
        if rep["tight"]:
            cert = tsup.TightnessCertificate(tuple(tuple(m) for m in rep["maps"]))
            if not cert.verify(supp):
                return _fail("tightness certificate does not verify")
        return Verdict(True)
    return check


def _check_degeneration(big, small, m):
    def check(rep):
        if not rep["feasible"]:
            return _fail("no degeneration found onto the tight subset")
        cert = tsup.CombDegenerationCertificate(tuple(tuple(r) for r in rep["maps"]))
        if not cert.verify(big, small):
            return _fail("degeneration certificate does not verify")
        if abs(rep["lower_bound"] - tasy.z_of_n(m).z) > 1e-4:
            return _fail(f"degeneration bound {rep['lower_bound']} vs z({m})")
        return Verdict(True)
    return check


def _check_subrank_exact(supp):
    def check(rep):
        want = tsup.subrank_set_bruteforce(supp)
        if rep["value"] != want:
            return _fail(f"subrank_set gives {rep['value']}, brute force {want}")
        return Verdict(True)
    return check


def _min_slice_cover(supp) -> int:
    slices = [(leg, v) for leg in range(supp.k) for v in supp.values(leg)]
    for size in range(1, len(slices) + 1):
        for combo in itertools.combinations(slices, size):
            if all(any(p[leg] == v for leg, v in combo) for p in supp.points):
                return size
    return 0


def _check_slicerank_exact(supp):
    def check(rep):
        chosen = [(s["leg"] - 1, s["value"]) for s in rep["slices"]]
        if not all(any(p[leg] == v for leg, v in chosen) for p in supp.points):
            return _fail("returned slices do not cover the support")
        want = _min_slice_cover(supp)
        if rep["value"] != want:
            return _fail(f"slice cover {rep['value']}, exhaustive minimum {want}")
        return Verdict(True)
    return check


def _check_symmetric(fn, lam, mu, nu):
    def check(rep):
        if rep["coefficient"] != fn(lam, nu, mu):
            return _fail("coefficient not symmetric in its last two partitions")
        return Verdict(True)
    return check


def _random_partition(rng, n):
    parts = list(tpart.partitions(n))
    return list(parts[int(rng.integers(len(parts)))])


def _arg(parts) -> str:
    return ",".join(str(x) for x in parts)


def support_programs(seed: int, workdir: str, smoke: bool) -> tuple[list[Item], Item]:
    suite = _rng(SUITE_SEED, 3)
    items = []
    n_supports = 3 if smoke else SUITE_SUPPORTS
    for index in range(n_supports):
        supp = _random_support(suite, (4, 4, 4), 12)
        for w in SUITE_THETAS:
            items.append(_max_h_op(index, supp, ten.ThetaWeights.from_legs(w)))

    rng = _rng(seed, 3)

    def path(name):
        return os.path.join(workdir, name)

    items.append(_cli_op("zn", ["zn", "--from", "2", "--to", "10"], _check_zn))
    for n in range(2, 4 if smoke else 9):
        supp = tasy.reduced_polymult_support(n)
        supp = _relabel(supp, _leg_perms(rng, supp.bounds))
        tsup.save_support(supp, path(f"polymult{n}.txt"))
        items.append(_cli_op(f"subrank-asymptotic n={n}",
                             ["subrank-asymptotic", "--support", path(f"polymult{n}.txt")],
                             _check_subrank_asymptotic(n)))
    for m, p in ((3, 3),) if smoke else ((3, 3), (9, 3)):
        items.append(_cli_op(f"capset {m} {p}", ["capset", "--m", str(m), "--p", str(p)],
                             _check_capset(m, p)))
    for m in (3,) if smoke else (3, 4, 5):
        perms = _leg_perms(rng, (m, m, m))
        big = _relabel(tasy.modular_sum_support(m), perms)
        small = _relabel(tasy.reduced_polymult_support(m), perms)
        tsup.save_support(big, path(f"modsum{m}.txt"))
        tsup.save_support(small, path(f"tight{m}.txt"))
        items.append(_cli_op(f"tight modsum m={m}", ["tight", "--support", path(f"modsum{m}.txt")],
                             _check_tight(big, False)))
        items.append(_cli_op(f"tight polymult m={m}", ["tight", "--support", path(f"tight{m}.txt")],
                             _check_tight(small, True)))
        items.append(_cli_op(f"degeneration --bound m={m}",
                             ["degeneration", "--support", path(f"modsum{m}.txt"),
                              "--sub", path(f"tight{m}.txt"), "--bound"],
                             _check_degeneration(big, small, m)))
        tensor = tt.from_nonzeros(small.bounds, tt.RATIONAL, {q: 1 for q in small.points})
        tt.save_tensor(tensor, path(f"tight{m}.tensor"))
        items.append(_cli_op(f"slicerank --exact m={m}",
                             ["slicerank", "--tensor", path(f"tight{m}.tensor"), "--exact"],
                             _check_slicerank_exact(small)))
    for i in range(2 if smoke else 10):
        bounds = tuple(int(b) for b in rng.integers(2, 5, size=3))
        supp = _random_support(rng, bounds, int(rng.integers(4, 13)))
        tsup.save_support(supp, path(f"random{i}.txt"))
        items.append(_cli_op(f"subrank-exact {len(supp)} points",
                             ["subrank-exact", "--support", path(f"random{i}.txt")],
                             _check_subrank_exact(supp)))
    for i in range(1 if smoke else 3):
        n = 3 + i
        lam, mu, nu = (_random_partition(rng, n) for _ in range(3))
        items.append(_cli_op(f"kron n={n}",
                             ["kron", "--lam", _arg(lam), "--mu", _arg(mu), "--nu", _arg(nu)],
                             _check_symmetric(tpart.kronecker_coefficient, lam, mu, nu)))
        a = int(rng.integers(1, n))
        mu, nu = _random_partition(rng, a), _random_partition(rng, n - a)
        items.append(_cli_op(f"lr n={n}",
                             ["lr", "--lam", _arg(lam), "--mu", _arg(mu), "--nu", _arg(nu)],
                             _check_symmetric(tpart.lr_coefficient, lam, mu, nu)))
    warm = _cli_op("zn", ["zn", "--from", "2", "--to", "10"], _check_zn)
    return _shuffled(items, rng), warm


# ---------------------------------------------------------------------------
# power_certificate: the isotypic-projector certificate at tensor power 4


BIP_THETAS = {
    "bip": {(0,): 0.5, (0, 1): 0.5},
    # one side only: with two, this single op would take a quarter of a pass
    "bip1": {(0,): 1.0},
}

# (dims, random tensors, theta modes)
POWER_CASES = [((2, 2, 3), 2, ("legs", "bip")), ((2, 3, 3), 1, ("legs", "bip")),
               ((2, 2, 2, 2), 1, ("legs", "bip")), ((2, 2, 2, 2), 2, ("bip",)),
               ((3, 3, 3), 1, ("bip1",))]


def _dimension_bound(dims, theta) -> float:
    """sum_S w_S log2 min(d_S, d_complement): no marginal entropy exceeds it."""
    total = 0.0
    full = math.prod(dims)
    for side, w in theta.bipartition_sides(len(dims)):
        d_side = math.prod(dims[i] for i in side)
        total += w * math.log2(min(d_side, full // d_side))
    return total


def _power_op(t, theta, mode) -> Item:
    def run():
        cert = tq.upper_quantum_certificate(t, theta, 4)
        return {"value": cert.value, "surviving": cert.surviving,
                "witness": cert.witness}

    def check(out):
        bound = _dimension_bound(t.dims, theta)
        if out["surviving"] < 1 or not (0.0 <= out["value"] <= bound + 1e-9):
            return _fail(f"certificate {out['value']} outside [0, {bound}]")
        if mode == "legs":
            up = tsf.rho_upper_at_basis(t, tt.BasisTuple.standard(t), theta)
            if out["value"] > up + 1e-6:
                return _fail(f"certificate {out['value']} above zeta^theta {up}")
        return Verdict(True)

    return Item(f"upper_quantum_certificate n=4 {'x'.join(map(str, t.dims))} {mode}",
                run, check)


def power_certificate(seed: int, workdir: str, smoke: bool) -> tuple[list[Item], Item]:
    rng = _rng(seed, 4)
    cases = [((2, 2, 3), 1, ("legs", "bip")), ((2, 2, 2, 2), 1, ("bip",))] \
        if smoke else POWER_CASES
    items = []
    for dims, count, modes in cases:
        for _ in range(count):
            t = _random_complex(rng, dims)
            for mode in modes:
                theta = ten.ThetaWeights.uniform(len(dims)) if mode == "legs" \
                    else ten.ThetaWeights.from_bipartitions(BIP_THETAS[mode], len(dims))
                items.append(_power_op(t, theta, mode))
    warm = _power_op(_random_complex(_rng(SUITE_SEED, 4), (2, 2, 3)),
                     ten.ThetaWeights.from_bipartitions(BIP_THETAS["bip"], 3), "bip")
    return _shuffled(items, rng), warm


WORKLOADS = {
    "sandwich": sandwich,
    "basis_search": basis_search,
    "support_programs": support_programs,
    "power_certificate": power_certificate,
}

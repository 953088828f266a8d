"""Command line front end.

One verb per pipeline; output as a human table, canonical JSON, or CSV.
Numeric fields are printed to a configurable number of significant digits
and every report embeds the library version, the seed and the solver
tolerances, so identical invocations produce byte-identical machine output.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import re
import sys

import numpy as np

from . import __version__
from .asymptotics import (ROOT_XTOL, SLICERANK_TOL, asympt_slicerank, asympt_subrank_tight3,
                          capset_bound, slicerank_exact_combinatorial, z_of_n)
from .entropy import INNER_TOL, MINIMAX_TOL, ThetaWeights
from .errors import BudgetExceededError
from .partitions import kronecker_coefficient, lr_coefficient
from .quantum import (GRAD_TOL, ZERO_TOL, AscentOptions, lower_quantum_functional,
                      upper_quantum_certificate)
from .support_functionals import (BasisSearchOptions, lower_support_functional,
                                  upper_support_functional)
from .supports import (SupportSet, check_comb_degeneration, check_tight,
                       load_support, subrank_set)
from .tensors import Tensor, build_family, dumps_tensor, load_tensor, parse_family

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_BUDGET = 3


def _theta_weight(text: str, weight: str) -> float:
    try:
        return float(weight)
    except ValueError:
        raise ValueError(f"theta {text!r} has a weight {weight!r} that is not a number") from None


def parse_theta(text: str, k: int) -> ThetaWeights:
    text = text.strip()
    if text == "uniform":
        return ThetaWeights.uniform(k)
    if text.startswith("bip:"):
        body = text[4:]
        # a side is a comma-separated list of leg numbers, spaces around each
        side = r"\s*(?:\d+\s*(?:,\s*\d+\s*)*)?"
        item = rf"\{{({side})\}}\|\{{({side})\}}=([0-9.eE+-]+)"
        if not re.fullmatch(rf"{item}(?:,{item})*", body):
            raise ValueError(f"cannot parse bipartition theta {text!r}")
        mapping = {}
        for m in re.finditer(item, body):
            left = frozenset(int(x) - 1 for x in m.group(1).split(",") if x.strip())
            right = frozenset(int(x) - 1 for x in m.group(2).split(",") if x.strip())
            if left | right != frozenset(range(k)) or left & right:
                raise ValueError(f"theta {text!r}: {m.group(0)!r} is not a bipartition of 1..{k}")
            side = left if 0 in left else right
            if side in mapping:
                named = ",".join(str(x + 1) for x in sorted(side))
                raise ValueError(f"theta {text!r}: bipartition side {{{named}}} is given twice")
            mapping[side] = _theta_weight(text, m.group(3))
        make, args = ThetaWeights.from_bipartitions, (mapping, k)
    else:
        parts = [_theta_weight(text, x) for x in text.split(",")]
        if len(parts) != k:
            raise ValueError(f"theta {text!r} needs {k} weights, got {len(parts)}")
        make, args = ThetaWeights.from_legs, (parts,)
    try:
        return make(*args)
    except ValueError as err:
        raise ValueError(f"theta {text!r}: {err}") from None


def _load_input_tensor(args) -> Tensor:
    if getattr(args, "family", None):
        return build_family(parse_family(args.family))
    if getattr(args, "tensor", None):
        return load_tensor(args.tensor)
    raise ValueError("provide --family or --tensor")


def _load_input_support(args, attr="support") -> SupportSet:
    path = getattr(args, attr, None)
    if path:
        return load_support(path)
    if getattr(args, "family", None):
        t = build_family(parse_family(args.family))
        return SupportSet.from_tensor(t)
    raise ValueError(f"provide --{attr} or --family")


def _round_floats(obj, digits: int):
    if isinstance(obj, float):
        if obj != obj or obj in (float("inf"), float("-inf")):
            return str(obj)
        return float(f"%.{digits}g" % obj)
    if isinstance(obj, dict):
        return {k: _round_floats(v, digits) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v, digits) for v in obj]
    if isinstance(obj, (np.floating,)):
        return _round_floats(float(obj), digits)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def _flatten(obj, prefix="") -> list[tuple[str, str]]:
    rows = []
    if isinstance(obj, dict):
        for key in obj:
            rows.extend(_flatten(obj[key], f"{prefix}{key}."))
    elif isinstance(obj, list):
        if all(not isinstance(v, (dict, list)) for v in obj):
            rows.append((prefix.rstrip("."), " ".join(str(v) for v in obj)))
        else:
            for i, v in enumerate(obj):
                rows.extend(_flatten(v, f"{prefix}{i}."))
    else:
        rows.append((prefix.rstrip("."), str(obj)))
    return rows


def emit(report: dict, args) -> str:
    report = dict(report)
    report["version"] = __version__
    report["seed"] = getattr(args, "seed", 0)
    report.setdefault("tolerances", {"exact": True})
    rounded = _round_floats(report, args.digits)
    if args.format == "json":
        return json.dumps(rounded, sort_keys=True, indent=2) + "\n"
    rows = _flatten(rounded)
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["key", "value"])
        for key, val in sorted(rows):
            writer.writerow([key, val])
        return buf.getvalue()
    width = max((len(k) for k, _ in rows), default=0)
    return "".join(f"{k.ljust(width)}  {v}\n" for k, v in sorted(rows))


# ---------------------------------------------------------------------------
# verbs


def cmd_family(args) -> dict:
    t = build_family(parse_family(args.spec))
    text = dumps_tensor(t)
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(text)
    return {"command": "family", "spec": args.spec, "dims": list(t.dims),
            "domain": t.domain.label, "nonzeros": len(t.nonzero_indices()),
            "tensor": text.splitlines()}


def cmd_support(args) -> dict:
    """support-upper and support-lower: the two basis searches."""
    search = (upper_support_functional if args.verb == "support-upper"
              else lower_support_functional)
    t = _load_input_tensor(args)
    theta = parse_theta(args.theta, t.k)
    opts = BasisSearchOptions(restarts=args.restarts, steps=args.steps, seed=args.seed)
    rep = search(t, theta, opts)
    return {"command": args.verb, "tolerances": {"inner": INNER_TOL},
            **rep.to_records()}


def cmd_quantum_lower(args) -> dict:
    t = _load_input_tensor(args)
    theta = parse_theta(args.theta, t.k)
    opts = AscentOptions(starts=args.starts, max_iter=args.iters, seed=args.seed)
    res = lower_quantum_functional(t, theta, opts)
    return {"command": "quantum-lower", "theta": theta.to_records(),
            "tolerances": {"grad": GRAD_TOL},
            "log2_value": res.value, "value": res.functional,
            "log2_upper": res.upper, "stop": res.stop,
            "starts": len(res.start_values), "trace_length": len(res.trace)}


def cmd_quantum_cert(args) -> dict:
    t = _load_input_tensor(args)
    theta = parse_theta(args.theta, t.k)
    res = upper_quantum_certificate(t, theta, args.power)
    witness = [{"side": [x + 1 for x in side], "partition": list(lam)}
               for side, lam in res.witness]
    return {"command": "quantum-cert", "theta": theta.to_records(),
            "tolerances": {"zero": ZERO_TOL},
            "log2_value": res.value, "value": res.functional,
            "power": res.power, "surviving_tuples": res.surviving,
            "witness": witness}


def cmd_tight(args) -> dict:
    supp = _load_input_support(args)
    rep = check_tight(supp)
    out = {"command": "tight", "tight": rep.tight, "method": rep.method,
           "support_size": len(supp)}
    if rep.certificate:
        out["maps"] = [list(m) for m in rep.certificate.maps]
    if rep.forced_pair:
        leg, x, y = rep.forced_pair
        out["forced_equal"] = {"leg": leg + 1, "values": [x, y]}
    return out


def cmd_degeneration(args) -> dict:
    big = _load_input_support(args)
    small = _load_input_support(args, attr="sub")
    cert = check_comb_degeneration(big, small)
    out = {"command": "degeneration", "feasible": cert is not None,
           "big_size": len(big), "small_size": len(small)}
    if cert is not None:
        out["maps"] = [list(m) for m in cert.maps]
        if args.bound:
            out["lower_bound"] = asympt_subrank_tight3(small).value
    return out


def cmd_subrank_exact(args) -> dict:
    supp = _load_input_support(args)
    res = subrank_set(supp, budget=args.budget)
    return {"command": "subrank-exact", "value": res.value,
            "diagonal": [list(p) for p in res.diagonal]}


def cmd_subrank_asymptotic(args) -> dict:
    supp = _load_input_support(args)
    res = asympt_subrank_tight3(supp)
    return {"command": "subrank-asymptotic", "value": res.value,
            "log2_value": res.log2_value,
            "tolerances": {"minimax_gap": MINIMAX_TOL},
            # on an absolute 1e-12 grid, so that a gap of an ulp prints 0.0
            "duality_gap": round(max(res.minimax.gap, 0.0), 12),
            "theta": res.minimax.theta.to_records()}


def cmd_zn(args) -> dict:
    if args.n is not None:
        lo = hi = args.n
    else:
        lo, hi = args.start, args.end
    if lo < 2 or hi < lo:
        raise ValueError("need 2 <= from <= to")
    rows = []
    for n in range(lo, hi + 1):
        res = z_of_n(n)
        rows.append({"n": n, "z": res.z, "gamma": res.gamma})
    return {"command": "zn", "table": rows,
            "tolerances": {"root_xtol": ROOT_XTOL}}


def cmd_capset(args) -> dict:
    rep = capset_bound(args.m, args.p)
    return {"command": "capset", "m": rep.m, "p": rep.p, "value": rep.value,
            "gamma": rep.z.gamma,
            "relabeling_leg3": list(rep.relabeling),
            "transformed_support": [list(x) for x in rep.transformed_support.points],
            "tight_support": [list(x) for x in rep.target_support.points],
            "support_transform_verified": True,
            "degeneration_maps": [list(m) for m in rep.degeneration.maps],
            "degeneration_verified": True,
            "tolerances": {"root_xtol": ROOT_XTOL}}


def cmd_slicerank(args) -> dict:
    t = _load_input_tensor(args)
    if args.exact:
        cover = slicerank_exact_combinatorial(SupportSet.from_tensor(t))
        return {"command": "slicerank", "mode": "exact",
                "value": cover.size,
                "slices": [{"leg": leg + 1, "value": val} for leg, val in cover.slices]}
    opts = AscentOptions(starts=args.starts, max_iter=args.iters, seed=args.seed)
    res = asympt_slicerank(t, opts)
    out = {"command": "slicerank", "mode": "asymptotic",
           "value": res.value, "log2_value": res.log2_value,
           "route": res.route, "tolerances": {"theta_min": SLICERANK_TOL},
           "theta": res.theta.to_records()}
    if res.route == "support":
        out["support_route_log2"] = res.log2_value
    return out


def cmd_coefficient(args) -> dict:
    """kron and lr: one symmetric group coefficient of three partitions."""
    coefficient = kronecker_coefficient if args.verb == "kron" else lr_coefficient
    return {"command": args.verb, "lam": args.lam, "mu": args.mu, "nu": args.nu,
            "coefficient": coefficient(args.lam, args.mu, args.nu)}


# ---------------------------------------------------------------------------


def _partition_arg(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x.strip()]


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tenspect",
        description="tensor functionals, subrank pipelines and related bounds")
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p, tensor_input=False, support_input=False, theta=False, search=False,
               ascent=False):
        p.add_argument("--format", choices=("table", "json", "csv"), default="table")
        p.add_argument("--digits", type=int, default=6)
        if search or ascent:     # the verbs that draw random numbers
            p.add_argument("--seed", type=int, default=0)
        if tensor_input:
            p.add_argument("--family", help="family spec, e.g. unit:3, cw:2, W")
            p.add_argument("--tensor", help="tensor file path")
        if support_input:
            p.add_argument("--support", help="support file path")
            if not tensor_input:
                p.add_argument("--family", help="family spec; its support is used")
        if theta:
            p.add_argument("--theta", default="uniform")
        if search:
            p.add_argument("--restarts", type=int, default=BasisSearchOptions.restarts)
            p.add_argument("--steps", type=int, default=BasisSearchOptions.steps)
        if ascent:
            p.add_argument("--starts", type=int, default=AscentOptions.starts)
            p.add_argument("--iters", type=int, default=AscentOptions.max_iter)

    p = sub.add_parser("family", help="build a named tensor family")
    p.add_argument("--spec", required=True)
    p.add_argument("--out")
    common(p)
    p.set_defaults(func=cmd_family)

    for verb, text in (("support-upper", "minimise support entropy over bases"),
                       ("support-lower", "maximise maximal-point entropy over bases")):
        p = sub.add_parser(verb, help=text)
        common(p, tensor_input=True, theta=True, search=True)
        p.set_defaults(func=cmd_support)

    p = sub.add_parser("quantum-lower", help="entropy ascent over local transforms")
    common(p, tensor_input=True, theta=True, ascent=True)
    p.set_defaults(func=cmd_quantum_lower)

    p = sub.add_parser("quantum-cert", help="surviving isotypic projections of a power")
    common(p, tensor_input=True, theta=True)
    p.add_argument("--power", type=int, default=2)
    p.set_defaults(func=cmd_quantum_cert)

    p = sub.add_parser("tight", help="tightness certificate for a support")
    common(p, support_input=True)
    p.set_defaults(func=cmd_tight)

    p = sub.add_parser("degeneration", help="combinatorial degeneration certificate")
    common(p, support_input=True)
    p.add_argument("--sub", required=True, help="subset support file")
    p.add_argument("--bound", action="store_true",
                   help="also compute the asymptotic subrank lower bound")
    p.set_defaults(func=cmd_degeneration)

    p = sub.add_parser("subrank-exact", help="largest free diagonal of a support")
    common(p, support_input=True)
    p.add_argument("--budget", type=int, default=5000)
    p.set_defaults(func=cmd_subrank_exact)

    p = sub.add_parser("subrank-asymptotic", help="asymptotic subrank of a tight 3-support")
    common(p, support_input=True)
    p.set_defaults(func=cmd_subrank_asymptotic)

    p = sub.add_parser("zn", help="z(n) table from the gamma root equation")
    p.add_argument("--n", type=int)
    p.add_argument("--from", dest="start", type=int, default=2)
    p.add_argument("--to", dest="end", type=int, default=10)
    common(p)
    p.set_defaults(func=cmd_zn)

    p = sub.add_parser("capset", help="certified progression-free set bound")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_capset)

    p = sub.add_parser("slicerank", help="asymptotic or exact combinatorial slice rank")
    common(p, tensor_input=True, ascent=True)
    p.add_argument("--exact", action="store_true")
    p.set_defaults(func=cmd_slicerank)

    for verb, text in (("kron", "Kronecker coefficient"),
                       ("lr", "Littlewood-Richardson coefficient")):
        p = sub.add_parser(verb, help=text)
        for name in ("--lam", "--mu", "--nu"):
            p.add_argument(name, type=_partition_arg, required=True)
        common(p)
        p.set_defaults(func=cmd_coefficient)

    return parser


def run(argv=None) -> tuple[int, str]:
    """Run one command; returns (exit code, output text)."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return (int(exc.code) if exc.code else 0), ""
    try:
        if args.digits < 0:
            raise ValueError(f"--digits {args.digits} is negative")
        report = args.func(args)
    except BudgetExceededError as exc:
        return EXIT_BUDGET, f"budget exhausted: {exc}\n"
    except (ValueError, OSError) as exc:
        return EXIT_VALIDATION, f"error: {exc}\n"
    return EXIT_OK, emit(report, args)


def main(argv=None) -> int:
    code, text = run(argv)
    stream = sys.stdout if code == EXIT_OK else sys.stderr
    stream.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())

"""Span tracer for the benchmark's traced run.

Wrappers are installed from here, around the calls into each tenspect
layer and around the numpy/scipy kernels those layers call; nothing under
``src/`` is touched.  A function is replaced under every name its callers
look it up by: every tenspect module attribute that *is* the original
object gets the wrapper, so ``support_functionals.max_H_theta`` (imported
by name) and ``entropy.max_H_theta`` (a module global) are both covered.

Each call records one span (name, start, end, parent span, op id) in
memory.  ``summarise`` turns the spans into calls and self time per name,
where self time is a span's duration minus the time covered by its direct
child spans.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from array import array

import numpy as np

# (layer, function) pairs; the function is "module:attr" or "module:Class.attr"
LAYER_FUNCTIONS = [
    ("quantum", "tenspect.quantum:lower_quantum_functional"),
    ("quantum", "tenspect.quantum:upper_quantum_certificate"),
    ("quantum", "tenspect.quantum:bipartition_projector_apply"),
    ("partitions", "tenspect.partitions:character"),
    ("support_functionals", "tenspect.support_functionals:upper_support_functional"),
    ("support_functionals", "tenspect.support_functionals:lower_support_functional"),
    ("support_functionals", "tenspect.support_functionals:rho_upper_at_basis"),
    ("support_functionals", "tenspect.support_functionals:rho_lower_at_basis"),
    ("tensors", "tenspect.tensors:restrict"),
    ("tensors", "tenspect.tensors:invert_matrix"),
    ("tensors", "tenspect.tensors:coefficients_in_basis"),
    ("entropy", "tenspect.entropy:max_H_theta"),
    ("entropy", "tenspect.entropy:max_min_entropy"),
    ("supports", "tenspect.supports:SupportSet.from_tensor"),
    ("supports", "tenspect.supports:check_tight"),
    ("supports", "tenspect.supports:subrank_set"),
    ("supports", "tenspect.supports:check_comb_degeneration"),
    ("supports", "tenspect.supports:max_points"),
    ("linalg", "tenspect.linalg:nullspace_fraction"),
    ("linalg", "tenspect.linalg:invert_fraction"),
    ("linalg", "tenspect.linalg:invert_mod_p"),
    ("asymptotics", "tenspect.asymptotics:asympt_subrank_tight3"),
    ("asymptotics", "tenspect.asymptotics:capset_bound"),
    ("asymptotics", "tenspect.asymptotics:asympt_slicerank"),
    ("asymptotics", "tenspect.asymptotics:slicerank_exact_combinatorial"),
    ("asymptotics", "tenspect.asymptotics:z_of_n"),
    ("cli", "tenspect.cli:run"),
]

# numpy/scipy entry points, patched on the module the tenspect code reads
# them from at call time (np.tensordot, np.linalg.eigh, and the function
# level ``from scipy.optimize import ...``)
KERNELS = [
    ("kernel.tensordot", "numpy:tensordot"),
    ("kernel.eigh", "numpy.linalg:eigh"),
    ("kernel.linprog", "scipy.optimize:linprog"),
    ("kernel.minimize", "scipy.optimize:minimize"),
]

TENSPECT_MODULES = ["tenspect", "tenspect.asymptotics", "tenspect.cli",
                    "tenspect.entropy", "tenspect.linalg", "tenspect.partitions",
                    "tenspect.quantum", "tenspect.support_functionals",
                    "tenspect.supports", "tenspect.tensors"]

SEARCH_SPANS = ("support_functionals.upper_support_functional",
                "support_functionals.lower_support_functional")


def span_names() -> list[str]:
    """Every span name, in the order the metrics are listed."""
    names = []
    for layer, target in LAYER_FUNCTIONS:
        names.append(f"{layer}.{target.split(':')[1]}")
    names += [name for name, _ in KERNELS]
    return names


def _observe_max_h(counters, args, kwargs, result):
    from tenspect.entropy import INNER_TOL
    tol = kwargs.get("tol", args[2] if len(args) > 2 else INNER_TOL)
    counters["entropy.max_H_theta.iterations"] += result.iterations
    counters["entropy.max_H_theta.unconverged"] += int(result.gap > tol)


def _observe_ascent(counters, args, kwargs, result):
    counters["quantum.ascent.trace_len"] += len(result.trace)
    counters["quantum.ascent.starts"] += len(result.start_values)


def _observe_certificate(counters, args, kwargs, result):
    counters["quantum.certificate.surviving"] += result.surviving


def _observe_search(counters, args, kwargs, result):
    counters["support_functionals.search.evaluations"] += result.evaluations


OBSERVERS = {
    "entropy.max_H_theta": _observe_max_h,
    "quantum.lower_quantum_functional": _observe_ascent,
    "quantum.upper_quantum_certificate": _observe_certificate,
    "support_functionals.upper_support_functional": _observe_search,
    "support_functionals.lower_support_functional": _observe_search,
}

COUNTERS = ["quantum.ascent.trace_len", "quantum.ascent.starts",
            "quantum.certificate.surviving",
            "support_functionals.search.evaluations",
            "entropy.max_H_theta.iterations", "entropy.max_H_theta.unconverged"]


class Tracer:
    """In-memory span recorder; ``install`` wraps, ``uninstall`` restores."""

    def __init__(self):
        self.names = span_names()
        self.name_id = {n: i for i, n in enumerate(self.names)}
        self.span_name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.stack: list[int] = []
        self.op_id = -1
        self.counters = {c: 0 for c in COUNTERS}
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        nid = self.name_id[name]
        observe = OBSERVERS.get(name)
        clock = time.perf_counter_ns
        span_name, start, end = self.span_name, self.start, self.end
        parent, op, stack = self.parent, self.op, self.stack
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            span_name.append(nid)
            parent.append(stack[-1] if stack else -1)
            op.append(tracer.op_id)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(tracer.counters, args, kwargs, result)
            return result

        return wrapper

    def _patch(self, owner, attr, new):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        modules = [importlib.import_module(m) for m in TENSPECT_MODULES]
        for layer, target in LAYER_FUNCTIONS:
            modname, attr = target.split(":")
            name = f"{layer}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(importlib.import_module(modname), cls_name)
                raw = cls.__dict__[meth]
                self._patch(cls, meth, classmethod(self._wrap(name, raw.__func__)))
                continue
            orig = getattr(importlib.import_module(modname), attr)
            wrapper = self._wrap(name, orig)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._patch(mod, key, wrapper)
        for name, target in KERNELS:
            modname, attr = target.split(":")
            mod = importlib.import_module(modname)
            self._patch(mod, attr, self._wrap(name, getattr(mod, attr)))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, orig = self._restore.pop()
            setattr(owner, attr, orig)

    def arrays(self) -> dict[str, np.ndarray]:
        return {"name": np.frombuffer(self.span_name, dtype=np.int64),
                "start_ns": np.frombuffer(self.start, dtype=np.int64),
                "end_ns": np.frombuffer(self.end, dtype=np.int64),
                "parent": np.frombuffer(self.parent, dtype=np.int64),
                "op": np.frombuffer(self.op, dtype=np.int64)}

    def write(self, path: str) -> None:
        """Write every span, plus the name table, to one .npz file."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def summarise(self) -> dict[str, tuple[float, str]]:
        """(value, unit) of calls and self time per span name, of the
        counters, and of the two ratios."""
        spans = self.arrays()
        name, parent = spans["name"], spans["parent"]
        dur = (spans["end_ns"] - spans["start_ns"]).astype(np.float64) * 1e-9
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        self_s = dur - child
        size = len(self.names)
        calls = np.bincount(name, minlength=size)
        self_by_name = np.bincount(name, weights=self_s, minlength=size)
        out: dict[str, tuple[float, str]] = {}
        for i, n in enumerate(self.names):
            out[f"{n}.calls"] = (int(calls[i]), "count")
            out[f"{n}.self_s"] = (float(self_by_name[i]), "s")
        for n, v in self.counters.items():
            out[n] = (v, "count")

        # candidates built inside the basis searches: restrict spans that
        # have a search span among their ancestors
        search_ids = {self.name_id[n] for n in SEARCH_SPANS}
        restrict_id = self.name_id["tensors.restrict"]
        under = np.zeros(len(name), dtype=bool)
        restricts = 0
        for i, (nid, par) in enumerate(zip(name.tolist(), parent.tolist())):
            under[i] = nid in search_ids or (par >= 0 and under[par])
            if nid == restrict_id and under[i]:
                restricts += 1
        evals = self.counters["support_functionals.search.evaluations"]
        out["support_functionals.evaluations_per_restrict"] = (
            evals / restricts if restricts else 0.0, "ratio")
        steps = self.counters["quantum.ascent.trace_len"]
        eigh = int(calls[self.name_id["kernel.eigh"]])
        out["kernel.eigh.per_ascent_step"] = (eigh / steps if steps else 0.0, "ratio")
        return out

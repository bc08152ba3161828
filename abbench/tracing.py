"""Outside-in tracing of abcoulomb's public functions.

``Tracer.install`` rebinds each name in ``TARGETS`` to a wrapper in every
abcoulomb module namespace that holds it (``secular.reciprocal_gamma_array``
and ``wavefunction.kummer_1f1`` are the same objects as the ``specfun``
ones), and ``uninstall`` puts the originals back; no source file changes.
A wrapper records a span (name, start, end, parent span, operation id) in
flat in-memory arrays and feeds the counters of its hook.  Self time is a
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

__all__ = ["TARGETS", "Tracer", "PassStats", "per_layer_metrics", "layer_shares"]

# (module, public name) pairs that get a span; the module is the layer.
TARGETS = (
    ("cli", "main"),
    ("model", "decompose_flux"),
    ("model", "is_singular_sector"),
    ("spectrum", "closed_form_energy"),
    ("secular", "solve_secular"),
    ("secular", "secular_function"),
    ("specfun", "gamma"),
    ("specfun", "reciprocal_gamma"),
    ("specfun", "reciprocal_gamma_array"),
    ("specfun", "kummer_1f1"),
    ("wavefunction", "build_profile"),
    ("wavefunction", "normalize_and_count_nodes"),
    ("oracle", "oracle_regular_spectrum"),
    ("oracle", "discretize_h0"),
    ("oracle", "bound_eigenvalues"),
    ("oracle", "eigsh"),  # scipy's ARPACK entry point as bound in the oracle module
)
OP = "op"  # the benchmark's own span around each operation
LAYERS = ("cli", "model", "spectrum", "secular", "specfun", "wavefunction", "oracle")


def _sparse_bytes(matrix) -> int:
    return sum(getattr(matrix, part).nbytes for part in ("data", "indices", "indptr"))


class PassStats:
    """Self time and call count per span name, and the counters, of one
    traced pass over the workload's items."""

    def __init__(self, names: list[str], self_s: np.ndarray, calls: np.ndarray,
                 counters: Counter, ops: int, op_s: float) -> None:
        self.self_s = dict(zip(names, self_s.tolist()))
        self.calls = dict(zip(names, calls.tolist()))
        self.counters = counters
        self.ops = ops
        self.op_s = op_s


class Tracer:
    def __init__(self) -> None:
        self.names = [OP] + [f"{layer}.{attr}" for layer, attr in TARGETS]
        self._ids = {name: i for i, name in enumerate(self.names)}
        self._solve_id = self._ids["secular.solve_secular"]
        self._reset()
        self._installed: list[tuple[object, str, object]] = []

    def _reset(self) -> None:
        self.name_id = array("q")
        self.parent = array("q")
        self.op_id = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.active = [0] * len(self.names)
        self.counters: Counter = Counter()
        self.current_op = -1
        self.op_s = 0.0
        self.ops = 0

    # -------------------------------------------------------------- spans

    def _open(self, nid: int) -> int:
        idx = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1])
        self.op_id.append(self.current_op)
        self.start.append(0.0)
        self.end.append(0.0)
        self.stack.append(idx)
        self.active[nid] += 1
        return idx

    def _close(self, idx: int, nid: int, t0: float, t1: float) -> None:
        self.start[idx] = t0
        self.end[idx] = t1
        self.stack.pop()
        self.active[nid] -= 1

    def _wrap(self, nid: int, fn, hook):
        def traced(*args, **kwargs):
            idx = self._open(nid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, nid, t0, perf_counter())
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    def run_op(self, op_index: int, fn, item):
        """Run one operation under an ``op`` span; returns its output."""
        self.current_op = op_index
        idx = self._open(0)
        t0 = perf_counter()
        try:
            return fn(item)
        finally:
            t1 = perf_counter()
            self._close(idx, 0, t0, t1)
            self.op_s += t1 - t0
            self.ops += 1

    # -------------------------------------------------------------- hooks

    def _hooks(self, modules: dict) -> dict:
        x_switch = modules["specfun"].X_SWITCH

        def rows_out(args, kwargs, code):
            argv = args[0]
            text = Path(argv[argv.index("--out") + 1]).read_text(encoding="utf-8")
            fmt = argv[argv.index("--format") + 1]
            self.counters["cli.rows_out"] += text.count('"scan_var"') if fmt == "json" else text.count("\n") - 1

        def solve(args, kwargs, roots):
            self.counters["secular.roots_requested"] += kwargs.get("count", args[3] if len(args) > 3 else 0)
            self.counters["secular.roots_returned"] += len(roots)

        def secular_eval(args, kwargs, value):
            if self.active[self._solve_id]:
                self.counters["secular.evals_in_solve"] += 1

        def rgamma_array(args, kwargs, values):
            size = int(np.size(values))
            self.counters["specfun.reciprocal_gamma_array.elements"] += size
            if self.active[self._solve_id]:
                self.counters["secular.scan_elements"] += size

        def profile(args, kwargs, prof):
            self.counters["wavefunction.samples"] += prof.r.size
            self.counters["wavefunction.large_x_samples"] += int(np.count_nonzero(2.0 * prof.kappa * prof.r > x_switch))

        def pencil(args, kwargs, op):
            self.counters["oracle.unknowns"] += op.diagonal.size
            self.counters["oracle.computed_bytes"] += op.diagonal.nbytes + op.off_diagonal.nbytes + op.mass.nbytes

        def arpack(args, kwargs, values):
            self.counters["oracle.computed_bytes"] += _sparse_bytes(args[0]) + _sparse_bytes(kwargs["M"])

        return {
            "cli.main": rows_out,
            "secular.solve_secular": solve,
            "secular.secular_function": secular_eval,
            "specfun.reciprocal_gamma_array": rgamma_array,
            "wavefunction.build_profile": profile,
            "oracle.discretize_h0": pencil,
            "oracle.eigsh": arpack,
        }

    # ------------------------------------------------------ (un)installing

    def install(self, modules: dict) -> None:
        """Rebind every target in every loaded abcoulomb module namespace."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        hooks = self._hooks(modules)
        namespaces = [m for name, m in sys.modules.items()
                      if m is not None and (name == "abcoulomb" or name.startswith("abcoulomb."))]
        for layer, attr in TARGETS:
            original = getattr(modules[layer], attr)
            name = f"{layer}.{attr}"
            wrapper = self._wrap(self._ids[name], original, hooks.get(name))
            for namespace in namespaces:
                if namespace.__dict__.get(attr) is original:
                    setattr(namespace, attr, wrapper)
                    self._installed.append((namespace, attr, original))

    def uninstall(self) -> None:
        for namespace, attr, original in reversed(self._installed):
            setattr(namespace, attr, original)
        self._installed.clear()

    # ----------------------------------------------------------- results

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.array(self.name_id, dtype=np.int64),
            "parent": np.array(self.parent, dtype=np.int64),
            "op_id": np.array(self.op_id, dtype=np.int64),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
        }

    def collect(self) -> tuple[PassStats, dict[str, np.ndarray]]:
        """Statistics and spans of the pass since the last collect; resets."""
        spans = self.spans()
        duration = spans["end"] - spans["start"]
        child = np.zeros_like(duration)
        has_parent = spans["parent"] >= 0
        np.add.at(child, spans["parent"][has_parent], duration[has_parent])
        self_s = np.bincount(spans["name_id"], weights=duration - child, minlength=len(self.names))
        calls = np.bincount(spans["name_id"], minlength=len(self.names))
        stats = PassStats(self.names, self_s, calls, self.counters, self.ops, self.op_s)
        self._reset()
        return stats, spans


def per_layer_metrics(first: PassStats, passes: list[PassStats]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics: counts from the first traced pass (they repeat
    exactly for a seed), self times as milliseconds per operation over
    every traced pass."""
    ops = sum(p.ops for p in passes)

    def self_ms(*names: str) -> float:
        return 1e3 * sum(p.self_s[n] for p in passes for n in names) / ops

    def layer_names(layer: str) -> list[str]:
        return [f"{lay}.{attr}" for lay, attr in TARGETS if lay == layer]

    c, calls = first.counters, first.calls
    returned = c["secular.roots_returned"]
    requested = c["secular.roots_requested"]

    def per_root(value: int) -> float:
        return value / returned if returned else 0.0

    count, ms, ratio = "count", "ms/op", "ratio"
    return {
        "cli.main.calls": (calls["cli.main"], count),
        "cli.main.self_ms": (self_ms("cli.main"), ms),
        "cli.rows_out": (c["cli.rows_out"], count),
        "model.decompose_flux.calls": (calls["model.decompose_flux"], count),
        "model.self_ms": (self_ms(*layer_names("model")), ms),
        "spectrum.closed_form_energy.calls": (calls["spectrum.closed_form_energy"], count),
        "spectrum.closed_form_energy.self_ms": (self_ms("spectrum.closed_form_energy"), ms),
        "secular.solve_secular.calls": (calls["secular.solve_secular"], count),
        "secular.solve_secular.self_ms": (self_ms("secular.solve_secular"), ms),
        "secular.secular_function.calls": (calls["secular.secular_function"], count),
        "secular.roots_requested": (requested, count),
        "secular.roots_returned": (returned, count),
        "secular.root_yield": (returned / requested if requested else 0.0, ratio),
        "secular.scan_samples_per_root": (per_root(c["secular.scan_elements"]), count),
        "secular.evals_per_root": (per_root(c["secular.evals_in_solve"]), count),
        "specfun.gamma.calls": (calls["specfun.gamma"], count),
        "specfun.reciprocal_gamma.calls": (calls["specfun.reciprocal_gamma"], count),
        "specfun.reciprocal_gamma_array.calls": (calls["specfun.reciprocal_gamma_array"], count),
        "specfun.reciprocal_gamma_array.elements": (c["specfun.reciprocal_gamma_array.elements"], count),
        "specfun.kummer_1f1.calls": (calls["specfun.kummer_1f1"], count),
        "specfun.self_ms": (self_ms(*layer_names("specfun")), ms),
        "wavefunction.build_profile.calls": (calls["wavefunction.build_profile"], count),
        "wavefunction.build_profile.self_ms": (self_ms("wavefunction.build_profile"), ms),
        "wavefunction.normalize_and_count_nodes.self_ms": (
            self_ms("wavefunction.normalize_and_count_nodes"), ms),
        "wavefunction.samples": (c["wavefunction.samples"], count),
        "wavefunction.large_x_samples": (c["wavefunction.large_x_samples"], count),
        "oracle.discretize_h0.calls": (calls["oracle.discretize_h0"], count),
        "oracle.discretize_h0.self_ms": (self_ms("oracle.discretize_h0"), ms),
        "oracle.bound_eigenvalues.calls": (calls["oracle.bound_eigenvalues"], count),
        "oracle.bound_eigenvalues.self_ms": (self_ms("oracle.bound_eigenvalues"), ms),
        "oracle.eigsh.calls": (calls["oracle.eigsh"], count),
        "oracle.eigsh.self_ms": (self_ms("oracle.eigsh"), ms),
        "oracle.unknowns": (c["oracle.unknowns"], count),
        "oracle.computed_bytes": (c["oracle.computed_bytes"], "bytes"),
    }


def layer_shares(passes: list[PassStats]) -> dict[str, float]:
    """Share of traced operation time spent as self time in each layer,
    and in the benchmark's own ``op`` span (code outside every target)."""
    total = sum(p.op_s for p in passes)
    shares = {layer: 0.0 for layer in LAYERS + (OP,)}
    for p in passes:
        for name, seconds in p.self_s.items():
            shares[name.split(".")[0]] += seconds / total
    return shares

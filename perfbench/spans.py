"""Spans around every call into zetalab's public functions, from outside.

``Tracer.install`` replaces each public function of the layer modules with a
wrapper in every zetalab namespace that holds it, so calls between modules
(and the recursive calls inside one) are seen too.  Each registered check's
``run`` is wrapped as well, as a span named after its id family.  Spans stay
in memory until the run ends; ``summary`` turns them into the per-layer
metrics.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
import time

LAYERS = ("exact", "kernels", "calculus", "reduction", "quadrature", "checks", "cli")
KERNEL_FNS = ("hurwitz_zeta", "hurwitz_zeta_deriv", "riemann_zeta_deriv", "stieltjes",
              "hurwitz_taylor", "digamma", "gamma_complex")
CHECK_FAMILIES = ("prop1", "prop2", "prop3", "prop4", "cor1", "cor2", "cor3", "cor4",
                  "cor5", "cor6", "cor7", "cor8", "cor9", "note_fwd", "pair", "pole",
                  "kernel")
DEGREE_BUCKETS = (4, 8, 12, 16, 20)


def family(check_id: str) -> str:
    return max((f for f in CHECK_FAMILIES if check_id.startswith(f + "_")), key=len)


def metrics() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric a traced run prints."""
    out = [("import_ms.numpy", "ms"), ("import_ms.zetalab", "ms"),
           ("trace.overhead_pct", "%")]
    for layer in LAYERS:
        if layer != "cli":
            out.append((f"{layer}.calls", "count"))
        out.append((f"{layer}.ms", "ms"))
    out += [(f"kernels.us_per_call.{fn}", "us") for fn in KERNEL_FNS]
    out.append(("quadrature.evals", "count"))
    out += [(f"reduction.reduce_ms.n{b}", "ms") for b in DEGREE_BUCKETS]
    out += [("reduction.eval_ms", "ms"), ("reduction.kernel_calls_per_integral", "calls")]
    out += [(f"checks.ms.{f}", "ms") for f in CHECK_FAMILIES]
    return out


class Tracer:
    def __init__(self):
        # one span: [layer, name, parent index, start, end, detail]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, layer: str, name: str, fn, detail=None, post=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [layer, name, stack[-1] if stack else -1, clock(), 0.0,
                    detail(args) if detail else None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            return post(result, span) if post else result

        return traced

    def install(self, package) -> None:
        """Wrap the public functions of every layer module of ``package``."""
        modules = [m for name, m in sys.modules.items()
                   if name == package.__name__ or name.startswith(package.__name__ + ".")]
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"{package.__name__}.{layer}"]
            for name, obj in vars(module).items():
                if (name.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != module.__name__):
                    continue
                wrappers[id(obj)] = self.wrap(layer, name, obj, **self._hooks(name))
        for module in modules:
            for name, obj in list(vars(module).items()):
                if id(obj) in wrappers and callable(obj):
                    self._patched.append((module, name, obj))
                    setattr(module, name, wrappers[id(obj)])

    def uninstall(self) -> None:
        for module, name, obj in reversed(self._patched):
            setattr(module, name, obj)
        self._patched.clear()

    def _hooks(self, name: str) -> dict:
        if name == "integral_poly_zeta":
            return {"detail": lambda args: sum(m + 1 for m in args[0])}
        if name in ("tanh_sinh_01", "integrate_1_to_A"):
            def evals(result, span):
                span[5] = result.evaluations
                return result
            return {"post": evals}
        if name == "build_registry":
            def wrap_checks(specs, span):
                return [dataclasses.replace(
                    spec, run=self.wrap("checks", "check." + family(spec.id), spec.run))
                    for spec in specs]
            return {"post": wrap_checks}
        return {}

    def summary(self) -> dict[str, float]:
        """Per-layer metrics over every span recorded (see metrics)."""
        spans = self.spans
        child = [0.0] * len(spans)
        for layer, name, parent, start, end, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        out = {f"{layer}.{key}": 0.0 for layer in LAYERS for key in ("calls", "ms")}
        per_fn: dict[str, list] = {}
        for i, (layer, name, parent, start, end, _) in enumerate(spans):
            out[f"{layer}.calls"] += 1
            out[f"{layer}.ms"] += (end - start - child[i]) * 1e3
            acc = per_fn.setdefault(name, [0, 0.0, 0.0])
            acc[0] += 1
            acc[1] += end - start
            acc[2] += end - start - child[i]
        del out["cli.calls"]
        for fn in KERNEL_FNS:
            calls, total, _ = per_fn.get(fn, (0, 0.0, 0.0))
            out[f"kernels.us_per_call.{fn}"] = total / calls * 1e6 if calls else 0.0
        out["quadrature.evals"] = sum(s[5] for s in spans if s[0] == "quadrature" and s[5])
        integrals = [s for s in spans if s[1] == "integral_poly_zeta"]
        lo = 0
        for b in DEGREE_BUCKETS:
            times = [s[4] - s[3] for s in integrals if lo < s[5] <= b]
            out[f"reduction.reduce_ms.n{b}"] = sum(times) / len(times) * 1e3 if times else 0.0
            lo = b
        out["reduction.eval_ms"] = per_fn.get("eval_combination", (0, 0.0, 0.0))[2] * 1e3
        from_reduction = sum(1 for s in spans
                             if s[0] == "kernels" and s[2] >= 0 and spans[s[2]][0] == "reduction")
        out["reduction.kernel_calls_per_integral"] = (
            from_reduction / len(integrals) if integrals else 0.0)
        for f in CHECK_FAMILIES:
            out[f"checks.ms.{f}"] = per_fn.get("check." + f, (0, 0.0, 0.0))[1] * 1e3
        return out

    def write(self, path) -> None:
        """One JSON line per span: layer, name, parent, start and end in us."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][3] if self.spans else 0.0
        with open(path, "w") as fh:
            for layer, name, parent, start, end, _ in self.spans:
                fh.write(json.dumps([layer, name, parent, round((start - t0) * 1e6, 1),
                                     round((end - t0) * 1e6, 1)]) + "\n")

"""In-memory span recorder for the bubblespec benchmark's traced run.

Spans are recorded from outside the package: ``install`` replaces each public
function of a layer with a timing wrapper in every ``bubblespec`` namespace
that binds it (a module-local name such as ``special_functions.bessel_jn_half``
is reached by ``diagonal_kernel_term`` as well as by ``kernel`` and
``matching``), and ``restore`` puts the originals back.  Each span keeps its
name, start, end and the span that was open when it began, so a layer's self
time is its duration minus that of its child spans.  Work counts are taken
from the call arguments and results at the same boundaries.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from pathlib import Path

import numpy as np

# Layer -> public functions recorded under the layer's span name.
LAYERS = {
    "spectrum.totals": ("bubblespec.spectrum", ("totals",)),
    "spectrum.dn_dx": ("bubblespec.spectrum", ("dn_dx",)),
    "quadrature.adaptive_quad": ("bubblespec.quadrature", ("adaptive_quad",)),
    "kernel.f_factorized": ("bubblespec.kernel", ("f_factorized",)),
    "kernel.f_exact": ("bubblespec.kernel", ("f_exact",)),
    "special_functions.bessel": ("bubblespec.special_functions", ("bessel_jn_half", "half_integer_j_array")),
    "matching": (
        "bubblespec.matching",
        ("coefficient_a_sq", "coefficients_bc", "matching_coefficients", "normalization_xi"),
    ),
    "oracles": (
        "bubblespec.oracles",
        ("hankel_finite_integral", "spectral_delta_checks", "large_r_beta_sq", "kernel_concentration_ratio"),
    ),
}
CLI = "cli"
INTEGRAND = "spectrum.integrand"
SPAN_NAMES = (CLI, INTEGRAND, *LAYERS)
_ID = {n: i for i, n in enumerate(SPAN_NAMES)}

# Recurrence lengths of the seed's Bessel code, used to compute
# special_functions.recurrence_steps from call arguments.
_MILLER_MARGIN = 40


def _j_steps(l_max: int, z: float) -> int:
    if l_max == 0:
        return 0
    return l_max - 1 if z >= l_max else l_max + _MILLER_MARGIN + 1


class Recorder:
    """Spans and counts of one traced pass, kept in flat arrays."""

    def __init__(self) -> None:
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.quad_calls: list[list] = []  # [initial panels, first-round points, points, subdivisions, converged]
        self.f_factorized_points = 0
        self.l_terms = 0
        self.l_used_max = 0
        self.convergence_errors = 0
        self.recurrence_steps = 0

    def open(self, name: str) -> int:
        idx = len(self.name)
        self.name.append(_ID[name])
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str, fn, *args, **kwargs):
        idx = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(name index, parent index, duration, self time) per span."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=name.size)
        return name, parent, dur, dur - child

    def save(self, path: Path) -> None:
        """Write the spans out as .npz: names, name index, parent index, start, end."""
        np.savez_compressed(
            path,
            names=np.array(SPAN_NAMES),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
        )


def _initial_panels(a: float, b: float, breakpoints) -> int:
    return len({a, b, *(p for p in breakpoints if a < p < b)}) - 1


def _wrappers(rec: Recorder, layer: str, fn):
    """Timing wrapper for one public function, with the layer's work counts."""
    if layer == "quadrature.adaptive_quad":

        @functools.wraps(fn)
        def adaptive_quad(f, a, b, *args, **kwargs):
            call = [_initial_panels(a, b, kwargs.get("breakpoints", ())), 0, 0, 0, False]
            rec.quad_calls.append(call)

            def integrand(xs):
                call[2] += np.size(xs)
                if not call[1]:
                    call[1] = call[2]
                return rec.span(INTEGRAND, f, xs)

            res = None
            idx = rec.open(layer)
            try:
                res = fn(integrand, a, b, *args, **kwargs)
            except ArithmeticError as exc:  # QuadratureError carries its result
                res = getattr(exc, "result", None)
                raise
            finally:
                rec.close(idx)
                if res is not None:
                    call[3], call[4] = res.subdivisions, bool(res.converged)
            return res

        return adaptive_quad

    if layer == "kernel.f_exact":

        @functools.wraps(fn)
        def f_exact(*args, **kwargs):
            idx = rec.open(layer)
            try:
                kv = fn(*args, **kwargs)
            except ArithmeticError as exc:  # KernelConvergenceError
                rec.convergence_errors += 1
                rec.l_terms += getattr(exc, "l_reached", 0)
                raise
            finally:
                rec.close(idx)
            rec.l_terms += kv.l_used
            rec.l_used_max = max(rec.l_used_max, kv.l_used)
            return kv

        return f_exact

    if layer == "kernel.f_factorized":

        @functools.wraps(fn)
        def f_factorized(x, y):
            rec.f_factorized_points += np.broadcast(np.asarray(x), np.asarray(y)).size
            return rec.span(layer, fn, x, y)

        return f_factorized

    if layer == "special_functions.bessel":
        if fn.__name__ == "bessel_jn_half":

            @functools.wraps(fn)
            def bessel_jn_half(order, z):
                l = order.l
                rec.recurrence_steps += _j_steps(l, z) + max(l - 1, 0)  # J downward or upward, N upward
                return rec.span(layer, fn, order, z)

            return bessel_jn_half

        @functools.wraps(fn)
        def half_integer_j_array(l_max, z):
            rec.recurrence_steps += _j_steps(l_max, z)
            return rec.span(layer, fn, l_max, z)

        return half_integer_j_array

    @functools.wraps(fn)
    def plain(*args, **kwargs):
        return rec.span(layer, fn, *args, **kwargs)

    return plain


def install(rec: Recorder) -> list[tuple[object, str, object]]:
    """Wrap every layer function in every bubblespec namespace; returns what to restore."""
    wrapped = {}
    for layer, (module, names) in LAYERS.items():
        for name in names:
            fn = getattr(sys.modules[module], name, None)
            if fn is not None:
                wrapped[id(fn)] = (fn, _wrappers(rec, layer, fn))
    undo = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "bubblespec" or mod_name.startswith("bubblespec.")):
            continue
        for attr, val in list(vars(mod).items()):
            if id(val) in wrapped and wrapped[id(val)][0] is val:
                undo.append((mod, attr, val))
                setattr(mod, attr, wrapped[id(val)][1])
    return undo


def restore(undo: list[tuple[object, str, object]]) -> None:
    for mod, attr, val in undo:
        setattr(mod, attr, val)


def traced(rec: Recorder, fn, *args, **kwargs):
    """Call fn with every layer wrapped, recording into rec."""
    undo = install(rec)
    try:
        return fn(*args, **kwargs)
    finally:
        restore(undo)


def layer_metrics(rec: Recorder) -> dict[str, float]:
    """Per-layer times and work counts of one traced pass (cli.self_s excluded)."""
    name, parent, dur, self_t = rec.arrays()
    is_ = {n: name == i for n, i in _ID.items()}
    parent_name = np.where(parent >= 0, name[np.maximum(parent, 0)], -1)

    def outer_total(n: str) -> float:
        """Time of the spans of n not nested inside another span of n."""
        return float(dur[is_[n] & (parent_name != _ID[n])].sum())

    def count(n: str) -> int:
        return int(is_[n].sum())

    # The outer x-quadrature of totals is its first adaptive_quad child; the
    # ones after it are the dN/dx grid pass.
    quad_under_totals = np.flatnonzero(is_["quadrature.adaptive_quad"] & (parent_name == _ID["spectrum.totals"]))
    first_child = {}
    for i in quad_under_totals:
        first_child.setdefault(int(parent[i]), int(i))
    outer = set(first_child.values())
    grid = [i for i in quad_under_totals if int(i) not in outer]

    calls = rec.quad_calls
    rounds = count(INTEGRAND)
    points = sum(c[2] for c in calls)
    # adaptive_quad reports its final panel count as `subdivisions`; the panels
    # it evaluated are its points over the points per panel of its first round.
    final = sum(c[3] for c in calls)
    evaluated = sum(c[2] * c[0] / c[1] for c in calls if c[1])
    f_exact_calls = count("kernel.f_exact")
    f_exact_s = outer_total("kernel.f_exact")
    return {
        "spectrum.totals.s": outer_total("spectrum.totals"),
        "spectrum.inner_quads": count("quadrature.adaptive_quad") - len(outer),
        "spectrum.grid.s": float(dur[grid].sum()),
        "spectrum.integrand.self_s": float(self_t[is_[INTEGRAND]].sum()),
        "quadrature.calls": len(calls),
        "quadrature.rounds": rounds,
        "quadrature.points": points,
        "quadrature.points_per_round": points / rounds if rounds else 0.0,
        "quadrature.subdivisions": final,
        "quadrature.useful_ratio": final / evaluated if evaluated else 0.0,
        "quadrature.unconverged": sum(1 for c in calls if not c[4]),
        "quadrature.self_s": float(self_t[is_["quadrature.adaptive_quad"]].sum()),
        "kernel.f_factorized.calls": count("kernel.f_factorized"),
        "kernel.f_factorized.points": rec.f_factorized_points,
        "kernel.f_factorized.s": outer_total("kernel.f_factorized"),
        "kernel.f_exact.calls": f_exact_calls,
        "kernel.f_exact.s": f_exact_s,
        "kernel.f_exact.us_per_call": 1e6 * f_exact_s / f_exact_calls if f_exact_calls else 0.0,
        "kernel.l_terms": rec.l_terms,
        "kernel.l_used_max": rec.l_used_max,
        "kernel.convergence_errors": rec.convergence_errors,
        "special_functions.bessel.calls": count("special_functions.bessel"),
        "special_functions.bessel.s": outer_total("special_functions.bessel"),
        "special_functions.recurrence_steps": rec.recurrence_steps,
        "matching.calls": count("matching"),
        "matching.s": outer_total("matching"),
        "oracles.calls": count("oracles"),
        "oracles.s": outer_total("oracles"),
    }


def cli_self_time(rec: Recorder) -> float:
    """CLI span time not covered by the layer spans it called."""
    name, _, _, self_t = rec.arrays()
    return float(self_t[name == _ID[CLI]].sum())

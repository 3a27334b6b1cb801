"""Benchmark of bubblespec: one workload per invocation, in one process, one operation at a time.

Usage, from the root of a source checkout (the package is imported from ./src)::

    python3 perfbench/run.py --workload {table,spectrum,exact} --seed N --seconds S --trace {0,1}

Workloads (closed loop: the next operation starts when the previous one ends):

* ``table``: ``bubblespec table --json``, the five reference cases with the
  factorized kernel and no grid.  Bound by the nested adaptive quadrature.
* ``spectrum``: ``bubblespec spectrum`` with its 200-point CSV, on the
  default config (start-up bound) and on 68/34 (largest cutoff, x* = 392).
  Many one-off dN/dx quadratures plus CSV output.
* ``exact``: ``spectrum`` with the exact kernel at rel_tol 1e-4 on the
  default case (20-point grid), a seeded ``f_exact`` sweep over [0.5, 140]^2,
  ``f_exact`` on and near the diagonal, and ``bubblespec check``.  Bound by
  the kernel and Bessel layers; the only workload reaching matching and
  oracles.

With ``--trace 0`` the run times ``import bubblespec.cli`` in fresh
interpreters (``setup_s``, a median of five), makes one warm-up call, and
then repeats rounds for ``--seconds`` (at least two rounds).  A round runs
each CLI command once as a subprocess and each library call once
in-process.  ``wall_s`` sums the per-command medians of the subprocess wall
times, start-up included, and ``solve_s`` the per-call medians of the
library times; ``peak_rss_mb`` is the largest peak RSS of any CLI process.
All times are in seconds at a reference CPU speed: ``speed.py`` measures
how fast the CPU ran during each timed interval and scales the interval by
it, so that the drift of a shared host does not swamp the program's own
changes.  The unscaled round times go to stderr.  Every later round must
reproduce the first byte for byte.  Metric names and units come from
``BENCHMARK.json``.

With ``--trace 1`` the library calls run once untraced and once traced
(``tracer.py``), the two must give identical outputs, and the CLI commands
then run traced in-process for ``cli.self_s``.  The per-layer metrics are
printed; ``trace.overhead_s`` is the traced minus the untraced library time.

Correctness: outputs are compared with ``refs.json``, which ``make_refs.py``
computes by routes independent of the package.  An accuracy check fails when
an output misses its reference by more than the tolerance it claims (its
``rel_tol``; twice that for the ratio <x>/x*, a quotient of two such
integrals; the kernel's 1e-8 tail budget), or when a probe ends in a typed
numerical error.  ``ok_ratio`` is the share of checks that pass; the seeded
off-grid dN/dx nodes of ``spectrum`` count in it.  ``max_rel_err`` is the
worst relative error of the workload's own outputs (totals, CSV samples,
kernel sweep and probes), read no lower than 1e-9.  Accuracy misses are
listed on stderr.  ``failed`` counts operations that broke: a non-zero exit,
an unexpected exception, output that does not parse or is off the reference
grid, a repeat that is not byte-identical, a traced run that differs from
the untraced one, or an output more than 1e-2 off its reference.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import SpeedProbe

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFS = BENCH / "refs.json"
SPEC = ROOT / "BENCHMARK.json"

SETUP_IMPORTS = 5  # timed fresh-interpreter imports, after one untimed one
NODE_DRAWS = 100  # seeded off-grid dN/dx accuracy nodes per factorized spectrum
GROSS_REL_ERR = 1e-2  # an output this far off its reference is a broken operation
# Relative errors below this are rounding-level against every claimed
# tolerance (the tightest is the kernel's 1e-8); max_rel_err reads no lower.
ERR_FLOOR = 1e-9
# One thread per process, here and in every child: the runs measure a single
# caller, and BLAS worker threads would compete for the machine's two cores.
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class Tally:
    """Operations attempted and broken, and accuracy checks made."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.checks = 0
        self.checks_ok = 0
        self.misses: list[str] = []
        self.max_rel_err = 0.0

    def op(self, ok: bool = True, what: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok

    def check(self, value: float | None, ref: float, tol: float, what: str, worst: bool = True) -> None:
        """Accuracy check of value against ref; None means the probe raised."""
        self.checks += 1
        if value is None:
            self.misses.append(f"{what}: raised")
            return
        err = abs(value - ref)
        rel = err / abs(ref) if ref else err
        if err <= tol:
            self.checks_ok += 1
        else:
            self.misses.append(f"{what}: relative error {rel:.3g}, claimed {tol / abs(ref) if ref else tol:.3g}")
        if worst:
            self.max_rel_err = max(self.max_rel_err, rel)
        if not (rel <= GROSS_REL_ERR):
            self.op(False, f"{what}: {value!r} is {rel:.3g} off its reference {ref!r}")


# -- the workloads ------------------------------------------------------------


def _claimed(rel_tol: float, abs_tol: float, ref: float) -> float:
    """The quadrature's own acceptance test: max(abs_tol, rel_tol * |value|)."""
    return max(abs_tol, rel_tol * abs(ref))


class Workload:
    """CLI commands, library calls and accuracy checks of one workload."""

    def __init__(self, name: str, seed: int, refs: dict) -> None:
        # Import every module now: one first imported while traced would bind the wrappers for good.
        import bubblespec.cli  # noqa: F401
        from bubblespec import kernel, spectrum
        from bubblespec.matching import MediumConfig

        # Module attributes are looked up at call time, so the traced run sees its wrappers.
        self.sp, self.kernel, self.MediumConfig = spectrum, kernel, MediumConfig
        self.name, self.refs = name, refs
        WORK.mkdir(exist_ok=True)
        rng = random.Random(f"{name}:{seed}")
        spectra = refs["spectra"]
        if name == "table":
            self.cli = [(["table", "--json"], None)]
            self.cases = refs["table"]
        elif name == "spectrum":
            _write_config("68-34.cfg", spectra["68-34"])
            self.cli = [
                (["spectrum", "--output", "default.csv"], "default.csv"),
                (["spectrum", "--config", "68-34.cfg", "--output", "68-34.csv"], "68-34.csv"),
            ]
            self.spectra = ["default", "68-34"]
            self.nodes = {
                s: sorted(rng.sample(range(len(spectra[s]["node_x"])), NODE_DRAWS)) for s in self.spectra
            }
        elif name == "exact":
            _write_config("exact.cfg", spectra["exact-default"])
            self.cli = [
                (["spectrum", "--config", "exact.cfg", "--output", "exact.csv"], "exact.csv"),
                (["check", "--json"], None),
            ]
            self.spectra = ["exact-default"]
            self.sweep = [rng.choice(cell) for cell in refs["kernel"]["sweep_cells"]]
        else:
            raise ValueError(f"unknown workload {name!r}")

    def _medium(self, entry: dict):
        cfg = self.MediumConfig(n_gas_in=entry["n_gas_in"], n_gas_out=entry["n_gas_out"])
        return cfg, self.kernel.CutoffProfile.rounded(cfg)

    def _totals(self, entry: dict, grid_points: int) -> tuple:
        cfg, cut = self._medium(entry)
        quad = self.sp.QuadratureSpec(rel_tol=entry["rel_tol"])
        kernel = entry.get("kernel_mode", "factorized")
        res = self.sp.totals(cfg, cut, quad, kernel, grid_points=grid_points)
        return res.total_photons, res.mean_x_over_xstar, res.x_grid, res.dn_dx

    def _kernel(self, x: float, y: float) -> float | None:
        try:
            return self.kernel.f_exact(x, y).value
        except self.kernel.KernelConvergenceError:
            return None

    def warm_up(self) -> None:
        """One cheap call through the same code paths, so lazy set-up is done."""
        if self.name == "table":
            self._totals(self.cases[0], 0)
            return
        for s in self.spectra[:1]:
            entry = self.refs["spectra"][s]
            cfg, cut = self._medium(entry)
            self.sp.dn_dx(1.0, cfg, cut, self.sp.QuadratureSpec(rel_tol=entry["rel_tol"]), entry["kernel_mode"])
        if self.name == "exact":
            self.kernel.f_exact(5.0, 6.0)

    def ops(self) -> list:
        """The workload's library calls, each a function of no arguments."""
        if self.name == "table":
            return [lambda case=case: self._totals(case, 0) for case in self.cases]
        spectra = self.refs["spectra"]
        ops = [lambda e=spectra[s]: self._totals(e, e["grid_points"]) for s in self.spectra]
        if self.name == "exact":
            probes = self.refs["kernel"]["probes"]
            ops.append(lambda: [self._kernel(x, y) for x, y, _ in self.sweep])
            ops.append(lambda: [self._kernel(x, y) for x, y, _ in probes])
            # `check` has no library entry point; its click command runs in-process.
            ops.append(lambda: cli_inprocess(["check", "--json"]))
        return ops

    def solve(self) -> list:
        """Outputs of the workload's library calls."""
        return [op() for op in self.ops()]

    def check_solve(self, out: list, tally: Tally) -> None:
        """Accuracy checks of the library outputs."""
        if self.name == "table":
            for case, (photons, ratio, _, _) in zip(self.cases, out):
                _check_totals(tally, case, photons, ratio, f"table {case['n_gas_in']:g}/{case['n_gas_out']:g}")
            return
        for s, (photons, ratio, xs, values) in zip(self.spectra, out):
            entry = self.refs["spectra"][s]
            _check_totals(tally, entry, photons, ratio, f"spectrum {s}")
            same_grid = len(xs) == len(entry["x"]) and all(
                abs(x - xr) <= 1e-12 * max(xr, 1.0) for x, xr in zip(xs, entry["x"])
            )
            if not tally.op(same_grid, f"spectrum {s}: the x grid differs from the reference grid"):
                continue
            for x, v, ref in zip(xs, values, entry["dn_dx"]):
                if x > 0.0:
                    tally.check(v, ref, _claimed(entry["rel_tol"], entry["abs_tol"], ref), f"spectrum {s} x={x}")
        if self.name == "exact":
            tol = self.refs["kernel"]["rel_tol"]
            sweep, probes, (code, text) = out[len(self.spectra) :]
            for (x, y, ref), v in zip(self.sweep, sweep):
                tally.op(v is not None, f"f_exact({x}, {y}) raised")
                tally.check(v, ref, tol * abs(ref), f"f_exact({x}, {y})")
            for (x, y, ref), v in zip(self.refs["kernel"]["probes"], probes):
                tally.check(v, ref, tol * abs(ref), f"f_exact({x}, {y})")
            _check_check_output(tally, code, text.encode())

    def check_nodes(self, tally: Tally) -> None:
        """Seeded off-grid dN/dx nodes; they count in ok_ratio, not in max_rel_err."""
        if self.name != "spectrum":
            return
        for s in self.spectra:
            entry = self.refs["spectra"][s]
            cfg, cut = self._medium(entry)
            quad = self.sp.QuadratureSpec(rel_tol=entry["rel_tol"])
            for i in self.nodes[s]:
                x, ref = entry["node_x"][i], entry["node_dn_dx"][i]
                v = self.sp.dn_dx(x, cfg, cut, quad)
                tally.op(True)
                tally.check(v, ref, _claimed(entry["rel_tol"], entry["abs_tol"], ref), f"dn_dx {s} x={x}", False)

    def check_cli(self, outputs: list[bytes], solved: list, tally: Tally) -> None:
        """The CLI outputs must carry exactly the in-process library results."""
        if self.name == "table":
            try:
                cli_totals = [[r["photons"], r["mean_ratio"]] for r in json.loads(outputs[0])]
            except (ValueError, KeyError, TypeError):
                cli_totals = None
            tally.op(cli_totals == [[p, r] for p, r, _, _ in solved], "table --json differs from in-process totals")
            return
        for k, s in enumerate(self.spectra):
            rows = _parse_csv(outputs[k])
            tally.op(rows == list(zip(solved[k][2], solved[k][3])), f"spectrum {s}: CSV differs from in-process dN/dx")
        if self.name == "exact":
            _check_check_output(tally, 0, outputs[len(self.spectra)])


def _write_config(name: str, entry: dict) -> None:
    lines = [f"n_gas_in = {entry['n_gas_in']!r}", f"n_gas_out = {entry['n_gas_out']!r}"]
    if entry["kernel_mode"] != "factorized":
        lines.append(f"kernel_mode = {entry['kernel_mode']}")
    lines += [f"rel_tol = {entry['rel_tol']!r}", f"grid_points = {entry['grid_points']}"]
    (WORK / name).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _check_totals(tally: Tally, ref: dict, photons: float, ratio: float, what: str) -> None:
    # <x>/x* is a ratio of two integrals that each claim rel_tol.
    tally.check(photons, ref["photons"], ref["rel_tol"] * abs(ref["photons"]), f"{what} photons")
    tally.check(ratio, ref["mean_ratio"], 2.0 * ref["rel_tol"] * abs(ref["mean_ratio"]), f"{what} mean ratio")


def _check_check_output(tally: Tally, code: int, out: bytes) -> None:
    try:
        passed = [bool(r["passed"]) for r in json.loads(out)]
    except (ValueError, KeyError, TypeError):
        passed = []
    tally.op(code == 0 and bool(passed) and all(passed), f"check exited {code}: {out[:200]!r}")


def _parse_csv(data: bytes) -> list[tuple[float, float]] | None:
    lines = data.decode("utf-8", "replace").splitlines()
    if not lines or lines[0] != "x,dn_dx,dn_dx_infinite_volume,frequency_phz":
        return None
    try:
        return [(float(f[0]), float(f[1])) for f in (line.split(",") for line in lines[1:])]
    except (ValueError, IndexError):
        return None


# -- processes ------------------------------------------------------------------


def _child_env() -> dict:
    env = dict(os.environ, **SINGLE_THREAD)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_cli(args: list[str], out_file: str | None) -> tuple[float, float, int, bytes, float]:
    """Run one CLI command as a subprocess: (start, end, exit code, output bytes, peak RSS MB)."""
    stdout_path = WORK / "stdout.txt"
    if out_file:
        (WORK / out_file).unlink(missing_ok=True)
    with open(stdout_path, "wb") as out, open(WORK / "stderr.txt", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "bubblespec.cli", *args], cwd=WORK, env=_child_env(), stdout=out, stderr=err
        )
        _, status, usage = os.wait4(proc.pid, 0)
        t1 = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    path = WORK / out_file if out_file else stdout_path
    data = path.read_bytes() if path.exists() else b""
    return t0, t1, proc.returncode, data, usage.ru_maxrss / 1024.0


def cli_inprocess(args: list[str]) -> tuple[int, str]:
    """Run one CLI command through its click entry point in this process: (exit code, stdout)."""
    from bubblespec.cli import main as cli_main

    buf = io.StringIO()
    cwd = os.getcwd()
    os.chdir(WORK)
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            try:
                cli_main.main(args, standalone_mode=False)
                code = 0
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
    finally:
        os.chdir(cwd)
    return code, buf.getvalue()


def measure_setup(probe: SpeedProbe) -> float:
    """Median time of `import bubblespec.cli` in fresh interpreters."""
    code = "import time; t = time.perf_counter(); import bubblespec.cli; print(t, time.perf_counter())"
    times = []
    for i in range(SETUP_IMPORTS + 1):
        out = subprocess.run(
            [sys.executable, "-c", code], cwd=WORK, env=_child_env(), capture_output=True, text=True, check=True
        )
        if i:
            t0, t1 = map(float, out.stdout.split())
            times.append(probe.scaled(t0, t1))
    return statistics.median(times)


# -- the runs -------------------------------------------------------------------


def measure(wl: Workload, seconds: float, tally: Tally) -> dict[str, float]:
    """Rounds of every CLI command and every library call, until `seconds` have passed.

    Each command and each call is timed on its own, in seconds at the
    reference CPU speed of ``speed.py``, and the metric sums their medians.
    """
    with SpeedProbe(WORK, _child_env()) as probe:
        setup_s = measure_setup(probe)
        wl.warm_up()
        ops = wl.ops()
        walls: list[list[float]] = [[] for _ in wl.cli]
        solves: list[list[float]] = [[] for _ in ops]
        unscaled: list[float] = []
        rss = 0.0
        first_cli: list[bytes] | None = None
        first_solve: list | None = None
        start = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            outputs = []
            for k, (args, out_file) in enumerate(wl.cli):
                t0, t1, code, data, peak = run_cli(args, out_file)
                tally.op(code == 0, f"bubblespec {' '.join(args)} exited {code}")
                walls[k].append(probe.scaled(t0, t1))
                rss = max(rss, peak)
                outputs.append(data)
            solved = []
            for j, op in enumerate(ops):
                t0 = time.perf_counter()
                solved.append(op())
                t1 = time.perf_counter()
                solves[j].append(probe.scaled(t0, t1))
                tally.op(True)
            unscaled.append(time.perf_counter() - round_start)
            if first_cli is None:
                first_cli, first_solve = outputs, solved
                wl.check_solve(solved, tally)
                wl.check_cli(outputs, solved, tally)
                wl.check_nodes(tally)
            else:
                tally.op(outputs == first_cli, f"{wl.name}: a second run of the CLI is not byte-identical")
                tally.op(repr(solved) == repr(first_solve), f"{wl.name}: a second library run differs")
            now = time.perf_counter()
            if len(walls[0]) >= 2 and now - start + (now - round_start) > seconds:
                break
    print(
        f"{len(unscaled)} rounds of {[round(t, 3) for t in unscaled]} s wall; median scaled s per command"
        f" {[round(statistics.median(w), 3) for w in walls]}, per library call"
        f" {[round(statistics.median(t), 3) for t in solves]}",
        file=sys.stderr,
    )
    return {
        "wall_s": sum(statistics.median(w) for w in walls),
        "setup_s": setup_s,
        "solve_s": sum(statistics.median(t) for t in solves),
        "peak_rss_mb": rss,
        "ok_ratio": tally.checks_ok / tally.checks,
        "max_rel_err": max(tally.max_rel_err, ERR_FLOOR),
    }


def trace(wl: Workload, tally: Tally) -> dict[str, float]:
    import tracer

    wl.warm_up()
    t0 = time.perf_counter()
    plain = wl.solve()
    untraced = time.perf_counter() - t0
    rec = tracer.Recorder()
    t0 = time.perf_counter()
    traced_out = tracer.traced(rec, wl.solve)
    traced_s = time.perf_counter() - t0
    tally.op(repr(traced_out) == repr(plain), f"{wl.name}: traced outputs differ from untraced ones")
    wl.check_solve(traced_out, tally)

    cli_rec = tracer.Recorder()
    for args, _ in wl.cli:
        code, _ = tracer.traced(cli_rec, cli_rec.span, tracer.CLI, cli_inprocess, args)
        tally.op(code == 0, f"in-process {' '.join(args)} exited {code}")
    rec.save(WORK / f"trace-{wl.name}-solve.npz")
    cli_rec.save(WORK / f"trace-{wl.name}-cli.npz")
    return {
        "cli.self_s": tracer.cli_self_time(cli_rec),
        **tracer.layer_metrics(rec),
        "trace.overhead_s": traced_s - untraced,
    }


def metric_units(traced: bool) -> dict[str, str]:
    """Metric name -> unit, from BENCHMARK.json: per_layer when traced, else end_to_end."""
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("table", "spectrum", "exact"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = ap.parse_args(argv)

    if not (SRC / "bubblespec" / "__init__.py").is_file():
        print(f"error: no bubblespec sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(SINGLE_THREAD)
    sys.path.insert(0, str(SRC))
    import bubblespec

    if Path(bubblespec.__file__).resolve().parent != SRC / "bubblespec":
        print(f"error: bubblespec imported from {bubblespec.__file__}, not {SRC}", file=sys.stderr)
        return 2
    refs = json.loads(REFS.read_text(encoding="utf-8"))
    tally = Tally()
    wl = Workload(opts.workload, opts.seed, refs)
    values = trace(wl, tally) if opts.trace else measure(wl, opts.seconds, tally)
    units = metric_units(opts.trace)
    if set(values) != set(units):
        print(f"error: measured {sorted(values)}, BENCHMARK.json names {sorted(units)}", file=sys.stderr)
        return 2
    for miss in tally.misses:
        print(f"accuracy miss: {miss}", file=sys.stderr)
    for problem in tally.problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

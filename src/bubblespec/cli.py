"""Command-line front end: spectra, reference-table reproduction, kernel
dumps and self-checks, all emitted as deterministic CSV/JSON.

Exit codes: 0 success, 1 check failure, 2 usage/config error,
3 numerical (quadrature/summation) failure.
"""

from __future__ import annotations

import json
import math
import random
import sys
from dataclasses import dataclass, replace

import click
import numpy as np

from . import spectrum as sp
from .kernel import CutoffProfile, KernelConvergenceError, d_approx, d_exact, f_exact, f_factorized
from .matching import MediumConfig, coefficients_bc
from .oracles import hankel_finite_integral, spectral_delta_checks
from .quadrature import QuadratureError
from .special_functions import ModeOrder, _reduced_det, bessel_jn_half

EXIT_CHECK_FAILURE = 1
EXIT_CONFIG_ERROR = 2
EXIT_NUMERICAL_FAILURE = 3

# Reference cases: (n_gas_in, n_gas_out, N, <E>/hbar Omega_max).
REFERENCE_TABLE = (
    (2.0e4, 1.0, 1.06e6, 0.803),
    (71.0, 25.0, 1.00e6, 0.750),
    (68.0, 34.0, 1.06e6, 0.751),
    (9.0, 25.0, 0.955e6, 0.750),
    (1.0, 12.0, 0.98e6, 0.765),
)
_TABLE_N_TOL = 0.05
_TABLE_RATIO_TOL = 0.02


@dataclass(frozen=True)
class RunConfig:
    """Everything one run needs, assembled from a key=value config file."""

    medium: MediumConfig = MediumConfig(n_gas_in=2.0e4, n_gas_out=1.0)
    quad: sp.QuadratureSpec = sp.QuadratureSpec()
    kernel_mode: str = "factorized"
    x_star_override: float | None = None
    y_star_override: float | None = None
    output_path: str = ""
    grid_points: int = 200

    def cutoffs(self) -> CutoffProfile:
        base = CutoffProfile.rounded(self.medium)
        return CutoffProfile(
            x_star=self.x_star_override or base.x_star,
            y_star=self.y_star_override or base.y_star,
        )


def _parse_bool(value: str) -> bool:
    if value.lower() not in ("true", "false", "0", "1"):
        raise ValueError(value)
    return value.lower() in ("true", "1")


# Config key -> (the RunConfig part it sets, value converter).
_CONFIG_KEYS = {
    "n_gas_in": ("medium", float),
    "n_gas_out": ("medium", float),
    "n_liquid": ("medium", float),
    "radius": ("medium", float),
    "k_observed": ("medium", float),
    "rel_tol": ("quad", float),
    "abs_tol": ("quad", float),
    "tail_upper_bound": ("quad", float),
    "include_tails": ("quad", _parse_bool),
    "max_subdivisions": ("quad", int),
    "grid_points": ("run", int),
    "x_star_override": ("run", float),
    "y_star_override": ("run", float),
    "kernel_mode": ("run", str),
    "output_path": ("run", str),
}


def parse_config(path: str | None) -> RunConfig:
    """Read a flat key=value file; unknown keys are hard errors."""
    cfg = RunConfig()
    if path is None:
        return cfg
    updates: dict[str, dict[str, object]] = {"medium": {}, "quad": {}, "run": {}}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise click.UsageError(f"{path}:{lineno}: expected key = value, got {raw.strip()!r}")
                key, _, value = (s.strip() for s in line.partition("="))
                if key not in _CONFIG_KEYS:
                    raise click.UsageError(f"{path}:{lineno}: unknown config key {key!r}")
                target, convert = _CONFIG_KEYS[key]
                try:
                    updates[target][key] = convert(value)
                except ValueError as exc:
                    raise click.UsageError(f"{path}:{lineno}: bad value for {key}: {value!r}") from exc
    except OSError as exc:
        raise click.UsageError(f"cannot read config file {path}: {exc}") from exc

    try:
        medium = replace(cfg.medium, **updates["medium"])
        quad = replace(cfg.quad, **updates["quad"])
        run = replace(cfg, medium=medium, quad=quad, **updates["run"])
    except ValueError as exc:
        raise click.UsageError(f"invalid configuration: {exc}") from exc
    if run.kernel_mode not in ("exact", "factorized"):
        raise click.UsageError(f"kernel_mode must be 'exact' or 'factorized', got {run.kernel_mode!r}")
    if run.grid_points < 2:
        raise click.UsageError("grid_points must be >= 2")
    for name in ("x_star_override", "y_star_override"):
        v = getattr(run, name)
        if v is not None and not 0 < v < math.inf:
            raise click.UsageError(f"{name} must be positive and finite")
    return run


def _write_text(path: str, text: str) -> None:
    if path:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


def _numerical_exit(exc: Exception) -> None:
    click.echo(f"numerical failure: {exc}", err=True)
    sys.exit(EXIT_NUMERICAL_FAILURE)


@click.group()
def main() -> None:
    """Photon spectra from a sudden refractive-index change in a sphere."""


@main.command()
@click.option("--config", "config_path", type=click.Path(), default=None, help="key=value config file")
@click.option("--output", "output_path", type=click.Path(), default=None, help="CSV destination")
@click.option("--kernel", type=click.Choice(["exact", "factorized"]), default=None)
@click.option("--include-tails", "tail_bound", type=float, default=None, help="integrate tails up to this bound")
def spectrum(config_path, output_path, kernel, tail_bound) -> None:
    """Spectrum CSV plus a summary line with N and the mean energy ratio."""
    run = parse_config(config_path)
    if kernel:
        run = replace(run, kernel_mode=kernel)
    if output_path:
        run = replace(run, output_path=output_path)
    if tail_bound is not None:
        try:
            run = replace(run, quad=replace(run.quad, include_tails=True, tail_upper_bound=tail_bound))
        except ValueError as exc:
            raise click.UsageError(f"--include-tails: {exc}") from exc
    cut = run.cutoffs()
    try:
        res = sp.totals(run.medium, cut, run.quad, run.kernel_mode, grid_points=run.grid_points)
    except (QuadratureError, KernelConvergenceError) as exc:
        _numerical_exit(exc)
    freq_scale = sp.LIGHT_SPEED_NM_S / (2.0 * math.pi * run.medium.radius * run.medium.n_gas_out)
    lines = ["x,dn_dx,dn_dx_infinite_volume,frequency_phz"]
    for x, v in zip(res.x_grid, res.dn_dx):
        iv = sp.infinite_volume_dn_dx(x, run.medium, cut) if x > 0 else 0.0
        lines.append(f"{x!r},{v!r},{iv!r},{x * freq_scale / 1e15!r}")
    _write_text(run.output_path, "\n".join(lines) + "\n")
    # Keep stdout clean CSV when no output file was given.
    click.echo(
        f"total_photons={res.total_photons:.6e} mean_x_over_xstar={res.mean_x_over_xstar:.6f} "
        f"energy_ev={res.energy_ev:.6e} quadrature_error={res.quadrature_error:.3e}",
        err=not run.output_path,
    )


@main.command()
@click.option("--json", "as_json", is_flag=True, default=False)
def table(as_json) -> None:
    """Reproduce the five reference cases; nonzero exit on deviation."""
    rows = []
    failed = False
    for n_in, n_out, n_ref, ratio_ref in REFERENCE_TABLE:
        cfg = MediumConfig(n_gas_in=n_in, n_gas_out=n_out)
        cut = CutoffProfile.rounded(cfg)
        try:
            res = sp.totals(cfg, cut, sp.QuadratureSpec(), "factorized", grid_points=0)
        except (QuadratureError, KernelConvergenceError) as exc:
            _numerical_exit(exc)
        n_dev = res.total_photons / n_ref - 1.0
        r_dev = res.mean_x_over_xstar - ratio_ref
        ok = abs(n_dev) <= _TABLE_N_TOL and abs(r_dev) <= _TABLE_RATIO_TOL
        failed = failed or not ok
        rows.append(
            {
                "n_gas_in": n_in,
                "n_gas_out": n_out,
                "photons": res.total_photons,
                "photons_reference": n_ref,
                "photons_rel_dev": n_dev,
                "mean_ratio": res.mean_x_over_xstar,
                "mean_ratio_reference": ratio_ref,
                "mean_ratio_dev": r_dev,
                "passed": ok,
            }
        )
    if as_json:
        click.echo(json.dumps(rows, indent=2))
    else:
        click.echo(
            f"{'n_in':>8} {'n_out':>6} {'N':>12} {'N_ref':>10} {'dev':>8} "
            f"{'ratio':>7} {'ref':>6} {'dev':>8} {'ok':>4}"
        )
        for r in rows:
            click.echo(
                f"{r['n_gas_in']:>8g} {r['n_gas_out']:>6g} {r['photons']:>12.5e} "
                f"{r['photons_reference']:>10.3e} {r['photons_rel_dev']:>+8.2%} "
                f"{r['mean_ratio']:>7.4f} {r['mean_ratio_reference']:>6.3f} "
                f"{r['mean_ratio_dev']:>+8.4f} {'yes' if r['passed'] else 'NO':>4}"
            )
    sys.exit(EXIT_CHECK_FAILURE if failed else 0)


@main.command("kernel-dump")
@click.option("--config", "config_path", type=click.Path(), default=None)
@click.option("--output", "output_path", type=click.Path(), default=None)
@click.option("--x-range", nargs=2, type=float, default=(0.5, 12.0), show_default=True)
@click.option("--y-range", nargs=2, type=float, default=(0.5, 12.0), show_default=True)
@click.option("--points", type=int, default=60, show_default=True)
def kernel_dump(config_path, output_path, x_range, y_range, points) -> None:
    """Exact and factorized kernel on a rectangular grid as CSV."""
    run = parse_config(config_path)
    if output_path:
        run = replace(run, output_path=output_path)
    x0, x1 = x_range
    y0, y1 = y_range
    if not (0 < x0 < x1 < math.inf and 0 < y0 < y1 < math.inf) or points < 2:
        raise click.UsageError("ranges must be positive, finite and increasing, points >= 2")
    xs = np.linspace(x0, x1, points)
    ys = np.linspace(y0, y1, points)
    lines = ["x,y,f_exact,f_factorized"]
    try:
        for x in xs:
            for y in ys:
                fe = f_exact(float(x), float(y))
                lines.append(f"{float(x)!r},{float(y)!r},{fe.value!r},{f_factorized(float(x), float(y))!r}")
    except KernelConvergenceError as exc:
        _numerical_exit(exc)
    _write_text(run.output_path, "\n".join(lines) + "\n")
    if run.output_path:
        click.echo(f"wrote {points * points} kernel samples to {run.output_path}")


@main.command()
@click.option("--output", "output_path", type=click.Path(), default=None)
@click.option("--x-max", type=float, default=14.0, show_default=True)
@click.option("--points", type=int, default=60, show_default=True)
def diagonal(output_path, x_max, points) -> None:
    """Diagonal kernel D(x) against its fitted form, as CSV."""
    if not 0 < x_max < math.inf or points < 2:
        raise click.UsageError("x-max must be positive and finite, points >= 2")
    xs = np.linspace(x_max / points, x_max, points)
    lines = ["x,d_exact,d_approx"]
    try:
        for x in xs:
            lines.append(f"{float(x)!r},{d_exact(float(x))!r},{d_approx(float(x))!r}")
    except KernelConvergenceError as exc:
        _numerical_exit(exc)
    _write_text(output_path or "", "\n".join(lines) + "\n")


@main.command("infinite-volume")
@click.option("--config", "config_path", type=click.Path(), default=None)
@click.option("--json", "as_json", is_flag=True, default=False)
def infinite_volume(config_path, as_json) -> None:
    """Closed-form homogeneous-medium totals for the configured medium."""
    run = parse_config(config_path)
    cut = run.cutoffs()
    n, ratio = sp.infinite_volume_totals(run.medium, cut)
    if as_json:
        click.echo(json.dumps({"total_photons": n, "mean_x_over_xstar": ratio, "x_star": cut.x_star}))
    else:
        click.echo(f"total_photons={n:.6e} mean_x_over_xstar={ratio:.6f} x_star={cut.x_star:.6f}")


def _run_checks() -> list[dict]:
    rng = random.Random(20260823)
    reports = []

    worst = 0.0
    for _ in range(2000):
        l = rng.randint(0, 60)
        z = 10 ** rng.uniform(-1, 2)
        p = bessel_jn_half(ModeOrder(l), z)
        if p.saturated or math.isinf(p.n):
            continue
        # the J/N cross determinant at equal arguments is the Wronskian 2/pi
        w = _reduced_det(p.j, p.j_prev, z, p.n, p.n_prev, z)
        worst = max(worst, abs(w - 2 / math.pi) / (2 / math.pi))
    reports.append(
        {"name": "wronskian", "max_rel_error": worst, "samples": 2000, "passed": worst < 1e-10}
    )

    worst = 0.0
    for _ in range(500):
        l = rng.randint(0, 20)
        y = rng.uniform(0.05, 30.0)
        ratio = rng.uniform(0.5, 3.0)
        b, c = coefficients_bc(ModeOrder(l), y, ratio)
        worst = max(worst, abs(b * b + c * c - 1.0))
    reports.append(
        {"name": "matching-unit-circle", "max_rel_error": worst, "samples": 500, "passed": worst < 1e-12}
    )

    from scipy import integrate, special

    worst = 0.0
    for _ in range(25):
        l = rng.randint(0, 10)
        k1, k2 = rng.uniform(0.5, 5.0), rng.uniform(0.5, 5.0)
        radius = rng.uniform(1.0, 20.0)
        cf = hankel_finite_integral(ModeOrder(l), k1, k2, radius)
        ref, _ = integrate.quad(
            lambda r: r * special.jv(l + 0.5, k1 * r) * special.jv(l + 0.5, k2 * r), 0, radius, limit=400
        )
        worst = max(worst, abs(cf - ref) / max(abs(ref), 1e-12))
    reports.append(
        {"name": "finite-overlap-closed-form", "max_rel_error": worst, "samples": 25, "passed": worst < 1e-8}
    )

    rep = spectral_delta_checks()
    reports.append(
        {
            "name": rep.name,
            "max_rel_error": rep.max_rel_error,
            "samples": rep.samples,
            "passed": rep.passed,
        }
    )
    return reports


@main.command()
@click.option("--json", "as_json", is_flag=True, default=False)
def check(as_json) -> None:
    """Run the identity self-check suites; exit 0 iff all pass."""
    reports = _run_checks()
    if as_json:
        click.echo(json.dumps(reports, indent=2))
    else:
        for r in reports:
            click.echo(
                f"{r['name']:<28} samples={r['samples']:<6} "
                f"max_rel_error={r['max_rel_error']:.3e} {'PASS' if r['passed'] else 'FAIL'}"
            )
    if not all(r["passed"] for r in reports):
        sys.exit(EXIT_CHECK_FAILURE)


if __name__ == "__main__":
    main()

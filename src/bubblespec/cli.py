"""Command-line front end: spectra, reference-table reproduction, kernel
dumps and self-checks, all emitted as deterministic CSV/JSON.

Exit codes: 0 success, 1 check failure, 2 usage/config error,
3 numerical (quadrature/summation) failure.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import sys
from collections.abc import Iterable
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields, replace

import click
import numpy as np

from . import spectrum as sp
from .kernel import CutoffProfile, d_approx, f_exact_array, f_factorized
from .matching import MediumConfig, _require_positive_finite
from .oracles import finite_overlap_checks, matching_checks, spectral_delta_checks, wronskian_checks
from .quadrature import _CHUNK_POINTS, QuadratureError
from .special_functions import BesselDomainError, _require_domain, _require_int

EXIT_CHECK_FAILURE = 1
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
    """Everything one run needs, assembled from a key=value config file and command-line flags."""

    medium: MediumConfig = MediumConfig(n_gas_in=2.0e4, n_gas_out=1.0)
    quad: sp.QuadratureSpec = sp.QuadratureSpec()
    kernel_mode: str = "factorized"
    x_star_override: float | None = None
    y_star_override: float | None = None
    output_path: str = ""
    grid_points: int = 200

    def __post_init__(self) -> None:
        sp._check_mode(self.kernel_mode)
        # totals evaluates the whole output grid in one batch: 10^4 points already cost seconds and hundreds of MB.
        _require_int(self, "grid_points", 2, "grid_points must be an integer in [2, 10000]", 10_000)
        overrides = [n for n in ("x_star_override", "y_star_override") if getattr(self, n) is not None]
        _require_positive_finite(self, *overrides)
        self.cutoffs()  # the medium's rounded cutoffs must be positive and finite too

    def cutoffs(self) -> CutoffProfile:
        base = CutoffProfile.rounded(self.medium)
        return CutoffProfile(self.x_star_override or base.x_star, self.y_star_override or base.y_star)


# Config key -> (the RunConfig part it sets, value converter): every scalar
# field of the three config classes, converted by its annotation.
_CONFIG_KEYS = {
    f.name: (part, {"float": float, "float | None": float, "int": int, "str": str}[f.type])
    for part, cls in (("medium", MediumConfig), ("quad", sp.QuadratureSpec), ("run", RunConfig))
    for f in fields(cls)
    if f.name not in ("medium", "quad")
}


def parse_config(path: str | None, **flags: object) -> RunConfig:
    """Read a flat key=value file, then apply ``flags`` (config key -> value; None leaves it).

    Unknown keys, unparsable values and values the config classes reject
    are usage errors.
    """
    updates: dict[str, dict[str, object]] = {"medium": {}, "quad": {}, "run": {}}
    if path is not None:
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
    for key, value in flags.items():
        if value is not None:
            updates[_CONFIG_KEYS[key][0]][key] = value

    cfg = RunConfig()
    try:
        medium = replace(cfg.medium, **updates["medium"])
        quad = replace(cfg.quad, **updates["quad"])
        return replace(cfg, medium=medium, quad=quad, **updates["run"])
    except ValueError as exc:
        raise click.UsageError(f"invalid configuration: {exc}") from exc


def _write_text(path: str, chunks: Iterable[str]) -> None:
    """Write the text chunks, in order, to the file at path, or to stdout when path is empty."""
    if path:
        try:
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.writelines(chunks)
        except OSError as exc:
            raise click.UsageError(f"cannot write output file {path}: {exc}") from exc
    else:
        for chunk in chunks:
            click.echo(chunk, nl=False)


@contextmanager
def _numerical_failures():
    """Exit 3 with a one-line message, no traceback, on a typed numerical failure."""
    try:
        yield
    except (QuadratureError, BesselDomainError) as exc:
        click.echo(f"numerical failure: {exc}", err=True)
        sys.exit(EXIT_NUMERICAL_FAILURE)


@click.group()
def main() -> None:
    """Photon spectra from a sudden refractive-index change in a sphere."""


@main.command()
@click.option("--config", "config_path", type=click.Path(), default=None, help="key=value config file")
@click.option("--output", "output_path", type=click.Path(), default=None, help="CSV destination")
@click.option("--kernel", type=click.Choice(sp._KERNEL_MODES), default=None)
@click.option("--include-tails", "tail_bound", type=float, default=None, help="integrate tails up to this bound")
@_numerical_failures()
def spectrum(config_path, output_path, kernel, tail_bound) -> None:
    """Spectrum CSV plus a summary line with N and the mean energy ratio."""
    run = parse_config(config_path, kernel_mode=kernel, output_path=output_path, tail_upper_bound=tail_bound)
    cut = run.cutoffs()
    res = sp.totals(run.medium, cut, run.quad, run.kernel_mode, grid_points=run.grid_points)
    freq_scale = sp.LIGHT_SPEED_NM_S / (2.0 * math.pi * run.medium.radius * run.medium.n_gas_out)
    lines = ["x,dn_dx,dn_dx_infinite_volume,frequency_phz"]
    for x, v in zip(res.x_grid, res.dn_dx):
        iv = sp.infinite_volume_dn_dx(x, run.medium, cut) if x > 0 else 0.0
        lines.append(f"{x!r},{v!r},{iv!r},{x * freq_scale / 1e15!r}")
    _write_text(run.output_path, ["\n".join(lines) + "\n"])
    # Keep stdout clean CSV when no output file was given.
    click.echo(
        f"total_photons={res.total_photons:.6e} mean_x_over_xstar={res.mean_x_over_xstar:.6f} "
        f"energy_ev={res.energy_ev:.6e} quadrature_error={res.quadrature_error:.3e}",
        err=not run.output_path,
    )


@main.command()
@click.option("--json", "as_json", is_flag=True, default=False)
@_numerical_failures()
def table(as_json) -> None:
    """Reproduce the five reference cases; nonzero exit on deviation."""
    rows = []
    failed = False
    for n_in, n_out, n_ref, ratio_ref in REFERENCE_TABLE:
        cfg = MediumConfig(n_gas_in=n_in, n_gas_out=n_out)
        res = sp.totals(cfg, CutoffProfile.rounded(cfg), grid_points=0)
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
@click.option("--output", "output_path", type=click.Path(), default=None)
@click.option("--x-range", nargs=2, type=float, default=(0.5, 12.0), show_default=True)
@click.option("--y-range", nargs=2, type=float, default=(0.5, 12.0), show_default=True)
@click.option("--points", type=int, default=60, show_default=True)
@_numerical_failures()
def kernel_dump(output_path, x_range, y_range, points) -> None:
    """Exact and factorized kernel on a rectangular grid as CSV."""
    x0, x1 = x_range
    y0, y1 = y_range
    # A ceiling on points^2 samples: 10^6 already take seconds.
    if not (0 < x0 < x1 < math.inf and 0 < y0 < y1 < math.inf) or not 2 <= points <= 1000:
        raise click.UsageError("ranges must be positive, finite and increasing, points in [2, 1000]")
    xs = np.linspace(x0, x1, points)
    ys = np.linspace(y0, y1, points)
    # A point outside the kernel's domain shows first (row-major) on row 0 or column 0: checked before any line.
    _require_domain(x=np.append(np.full(points, x0), xs[1:]), y=np.append(ys, np.full(points - 1, y0)))

    def grid_rows(block: int):
        """The CSV lines one grid row (one x) at a time, both columns evaluated a block of rows at a time."""
        for start in range(0, points, block):
            gx, gy = np.meshgrid(xs[start : start + block], ys, indexing="ij")
            # The factorized values the spectrum integrand uses: one array call, as for the exact column.
            for row in zip(gx, gy, f_exact_array(gx, gy), f_factorized(gx, gy)):
                yield "".join(f"{x!r},{y!r},{fe!r},{ff!r}\n" for x, y, fe, ff in zip(*(c.tolist() for c in row)))

    _write_text(output_path or "", itertools.chain(["x,y,f_exact,f_factorized\n"], grid_rows(_CHUNK_POINTS // points)))
    if output_path:
        click.echo(f"wrote {points * points} kernel samples to {output_path}")


@main.command()
@click.option("--output", "output_path", type=click.Path(), default=None)
@click.option("--x-max", type=float, default=14.0, show_default=True)
@click.option("--points", type=int, default=60, show_default=True)
@_numerical_failures()
def diagonal(output_path, x_max, points) -> None:
    """Diagonal kernel D(x) against its fitted form, as CSV."""
    if not 0 < x_max < math.inf or not 2 <= points <= 10_000:
        raise click.UsageError("x-max must be positive and finite, points in [2, 10000]")
    xs = np.linspace(x_max / points, x_max, points)
    lines = ["x,d_exact,d_approx"]
    for x, d, fit in zip(xs.tolist(), f_exact_array(xs, xs).tolist(), d_approx(xs).tolist()):
        lines.append(f"{x!r},{d!r},{fit!r}")
    _write_text(output_path or "", ["\n".join(lines) + "\n"])


@main.command("infinite-volume")
@click.option("--config", "config_path", type=click.Path(), default=None)
@click.option("--json", "as_json", is_flag=True, default=False)
@_numerical_failures()
def infinite_volume(config_path, as_json) -> None:
    """Closed-form homogeneous-medium totals for the configured medium."""
    run = parse_config(config_path)
    cut = run.cutoffs()
    try:
        n, ratio = sp.infinite_volume_totals(run.medium, cut)
    except ValueError as exc:
        raise click.UsageError(f"invalid configuration: {exc}") from exc
    if as_json:
        click.echo(json.dumps({"total_photons": n, "mean_x_over_xstar": ratio, "x_star": cut.x_star}))
    else:
        click.echo(f"total_photons={n:.6e} mean_x_over_xstar={ratio:.6f} x_star={cut.x_star:.6f}")


def _run_checks() -> list[dict]:
    rng = random.Random(20260823)
    reports = [wronskian_checks(rng), matching_checks(rng), finite_overlap_checks(rng), spectral_delta_checks()]
    return [asdict(r) for r in reports]


@main.command()
@click.option("--json", "as_json", is_flag=True, default=False)
@_numerical_failures()
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

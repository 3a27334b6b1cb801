import hashlib
import json
import math
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import click
import pytest
from click.testing import CliRunner

import bubblespec
from bubblespec.cli import _CONFIG_KEYS, REFERENCE_TABLE, main


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_spectrum_grid_rows_and_header(tmp_path):
    cfg = _write(tmp_path, "cfg.txt", "n_gas_in = 2e4\nn_gas_out = 1\ngrid_points = 3\n")
    out = str(tmp_path / "spec.csv")
    runner = CliRunner()
    res = runner.invoke(main, ["spectrum", "--config", cfg, "--output", out])
    assert res.exit_code == 0, res.output
    lines = open(out).read().splitlines()
    assert lines[0] == "x,dn_dx,dn_dx_infinite_volume,frequency_phz"
    assert len(lines) == 4  # header + 3 data rows
    assert "total_photons=" in res.output


def test_spectrum_csv_deterministic(tmp_path):
    cfg = _write(tmp_path, "cfg.txt", "n_gas_in = 9\nn_gas_out = 25\ngrid_points = 20\nrel_tol = 1e-5\n")
    runner = CliRunner()
    outputs = []
    for name in ("a.csv", "b.csv"):
        out = str(tmp_path / name)
        res = runner.invoke(main, ["spectrum", "--config", cfg, "--output", out])
        assert res.exit_code == 0, res.output
        outputs.append(open(out, "rb").read())
    assert outputs[0] == outputs[1]


def test_spectrum_null_production(tmp_path):
    cfg = _write(tmp_path, "cfg.txt", "n_gas_in = 5\nn_gas_out = 5\ngrid_points = 5\n")
    out = str(tmp_path / "null.csv")
    runner = CliRunner()
    res = runner.invoke(main, ["spectrum", "--config", cfg, "--output", out])
    assert res.exit_code == 0
    rows = [line.split(",") for line in open(out).read().splitlines()[1:]]
    assert all(float(r[1]) == 0.0 for r in rows)
    assert "total_photons=0.000000e+00" in res.output


def test_unknown_config_key_exits_2(tmp_path):
    cfg = _write(tmp_path, "cfg.txt", "n_gas_in = 5\nbogus = 1\n")
    res = CliRunner().invoke(main, ["spectrum", "--config", cfg])
    assert res.exit_code == 2
    assert "unknown config key" in res.output


def test_removed_l_max_override_key_exits_2(tmp_path):
    # and the other removed keys: k_observed never reached an output, include_tails is implied by the bound
    for line in ("l_max_override = 50", "k_observed = 0.0628", "include_tails = true"):
        cfg = _write(tmp_path, "cfg.txt", f"n_gas_in = 5\n{line}\n")
        res = CliRunner().invoke(main, ["spectrum", "--config", cfg])
        assert res.exit_code == 2
        assert f"unknown config key {line.split()[0]!r}" in res.output


def test_tail_upper_bound_key_alone_integrates_the_tails(tmp_path):
    # the config key and --include-tails set the same bound and give the same bytes
    base = "grid_points = 20\nrel_tol = 1e-5\n"
    keyed = _write(tmp_path, "keyed.txt", base + "tail_upper_bound = 40\n")
    plain = _write(tmp_path, "plain.txt", base)
    runner = CliRunner()
    outputs = []
    for args in (["--config", keyed], ["--config", plain, "--include-tails", "40"], ["--config", plain]):
        out = str(tmp_path / "spec.csv")
        res = runner.invoke(main, ["spectrum", *args, "--output", out])
        assert res.exit_code == 0, res.output
        outputs.append((open(out, "rb").read(), res.output))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] != outputs[2][0]


def test_readme_lists_exactly_the_config_keys():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    sentence = re.search(r"Recognized keys:(.*?)\.\s", readme, re.S).group(1)
    # parenthesized notes such as (`exact`/`factorized`) name values, not keys
    names = re.findall(r"`([^`]+)`", re.sub(r"\([^)]*\)", "", sentence))
    assert sorted(names) == sorted(_CONFIG_KEYS)


def test_bad_value_exits_2(tmp_path):
    cfg = _write(tmp_path, "cfg.txt", "n_gas_in = not_a_number\n")
    res = CliRunner().invoke(main, ["spectrum", "--config", cfg])
    assert res.exit_code == 2


@pytest.mark.parametrize(
    "args, config",
    [
        (["spectrum", "--include-tails", "-5"], None),
        (["spectrum", "--include-tails", "nan"], None),
        (["diagonal", "--x-max", "nan"], None),
        (["diagonal", "--x-max", "inf"], None),
        (["kernel-dump", "--x-range", "1", "inf"], None),
        (["spectrum"], "x_star_override = nan"),
        (["spectrum"], "x_star_override = inf"),
        (["spectrum"], "y_star_override = nan"),
        (["spectrum"], "rel_tol = nan"),
        (["spectrum"], "abs_tol = nan"),
        (["spectrum"], "abs_tol = inf"),
    ],
)
def test_non_finite_or_invalid_numbers_exit_2(tmp_path, args, config):
    # a real process, so an escaped exception would print its traceback
    if config is not None:
        args = [*args, "--config", _write(tmp_path, "cfg.txt", config + "\n")]
    src = str(Path(bubblespec.__file__).resolve().parents[1])
    code = f"import sys; sys.path.insert(0, {src!r}); from bubblespec.cli import main; main()"
    out = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True, timeout=60)
    assert out.returncode == 2, out.stderr
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("y_star", ["1e9", "1e300"])
def test_sinc_lattice_above_the_cap_exits_3(tmp_path, y_star):
    # a real process, so an escaped exception would print its traceback; the
    # row must be refused before its ~y*/(64 * 4pi/3) starting panels are allocated
    cfg = _write(tmp_path, "cfg.txt", f"y_star_override = {y_star}\ngrid_points = 3\n")
    src = str(Path(bubblespec.__file__).resolve().parents[1])
    code = f"import sys; sys.path.insert(0, {src!r}); from bubblespec.cli import main; main()"
    args = [sys.executable, "-c", code, "spectrum", "--config", cfg]
    out = subprocess.run(args, capture_output=True, text=True, timeout=60)
    assert out.returncode == 3, out.stderr
    assert "numerical failure" in out.stderr and "panel edges" in out.stderr
    assert "Traceback" not in out.stderr


def test_missing_config_file_exits_2():
    res = CliRunner().invoke(main, ["spectrum", "--config", "/nonexistent/cfg.txt"])
    assert res.exit_code == 2


def test_quadrature_failure_exits_3(tmp_path):
    cfg = _write(
        tmp_path,
        "cfg.txt",
        "n_gas_in = 2e4\nn_gas_out = 1\nrel_tol = 1e-14\nmax_subdivisions = 1\ngrid_points = 3\n",
    )
    res = CliRunner().invoke(main, ["spectrum", "--config", cfg])
    assert res.exit_code == 3
    assert "numerical failure" in res.output


def test_table_passes_and_json():
    runner = CliRunner()
    res = runner.invoke(main, ["table", "--json"])
    assert res.exit_code == 0, res.output
    rows = json.loads(res.output)
    assert len(rows) == 5
    assert all(r["passed"] for r in rows)


def test_kernel_dump(tmp_path):
    out = str(tmp_path / "kern.csv")
    res = CliRunner().invoke(
        main,
        ["kernel-dump", "--x-range", "1", "3", "--y-range", "1", "3", "--points", "3", "--output", out],
    )
    assert res.exit_code == 0, res.output
    lines = open(out).read().splitlines()
    assert lines[0] == "x,y,f_exact,f_factorized"
    assert len(lines) == 10
    # diagonal entries agree between columns to the factorization quality
    x, y, fe, ff = (float(v) for v in lines[5].split(","))
    assert x == y == 2.0
    assert abs(fe - ff) / fe < 0.25


def test_kernel_dump_bad_range_exits_2():
    res = CliRunner().invoke(main, ["kernel-dump", "--x-range", "3", "1", "--y-range", "1", "3"])
    assert res.exit_code == 2


def test_kernel_dump_tiny_arguments_exit_3():
    # 5e-310 is subnormal: the kernel rejects it with a domain error
    res = CliRunner().invoke(
        main, ["kernel-dump", "--x-range", "5e-310", "1", "--y-range", "3e-200", "4e-200", "--points", "2"]
    )
    assert res.exit_code == 3, res.output
    assert "numerical failure" in res.output
    # normal tiny arguments have values: F ~ 12 (xy)^3/(2025 pi^2) underflows to an honest 0.0 here
    res = CliRunner().invoke(
        main, ["kernel-dump", "--x-range", "1e-200", "2e-200", "--y-range", "3e-200", "4e-200", "--points", "2"]
    )
    assert res.exit_code == 0, res.output
    assert [line.split(",")[2:] for line in res.output.splitlines()[1:]] == [["0.0", "0.0"]] * 4


def test_grid_commands_report_their_first_failing_point():
    # the grid goes in blocks of rows; the error still names the first failing point in row-major order
    res = CliRunner().invoke(main, ["kernel-dump", "--x-range", "1", "2", "--y-range", "5e-310", "1", "--points", "2"])
    assert res.exit_code == 3
    assert "got x=1.0, y=5e-310" in res.output
    # x_max/points = 1e-309 is subnormal; the grid's later subnormal points are not named
    res = CliRunner().invoke(main, ["diagonal", "--x-max", "1e-306", "--points", "1000"])
    assert res.exit_code == 3
    assert "got x=1e-309, y=1e-309" in res.output
    # tiny normal arguments print D(x), here underflowed to 0.0
    res = CliRunner().invoke(main, ["diagonal", "--x-max", "1e-200", "--points", "2"])
    assert res.exit_code == 0, res.output
    assert res.output.splitlines()[1:] == ["5e-201,0.0,0.0", "1e-200,0.0,0.0"]


def test_diagonal_command():
    res = CliRunner().invoke(main, ["diagonal", "--points", "4", "--x-max", "8"])
    assert res.exit_code == 0
    lines = res.output.splitlines()
    assert lines[0] == "x,d_exact,d_approx"
    assert len(lines) == 5


def test_diagonal_at_tiny_arguments_prints_the_small_x_limit():
    # the overlap series resolves D(x) down to about x = 3e-50, so this grid exits 0 with values
    res = CliRunner().invoke(main, ["diagonal", "--x-max", "1e-30", "--points", "5"])
    assert res.exit_code == 0, res.output
    for line in res.output.splitlines()[1:]:
        x, d, _ = (float(v) for v in line.split(","))
        assert d == pytest.approx(12.0 * x**6 / (2025.0 * math.pi**2), rel=1e-13)


def test_kernel_dump_at_large_arguments():
    res = CliRunner().invoke(
        main, ["kernel-dump", "--x-range", "150", "400", "--y-range", "150", "400", "--points", "2"]
    )
    assert res.exit_code == 0, res.output
    assert len(res.output.splitlines()) == 5


def test_diagonal_reaches_the_homogeneous_limit_at_x_400():
    res = CliRunner().invoke(main, ["diagonal", "--points", "4", "--x-max", "400"])
    assert res.exit_code == 0, res.output
    x, d, _ = (float(v) for v in res.output.splitlines()[-1].split(","))
    assert x == 400.0
    assert d == pytest.approx(1.0 / (2.0 * math.pi**2), rel=1e-4)


def test_infinite_volume_json():
    res = CliRunner().invoke(main, ["infinite-volume", "--json"])
    assert res.exit_code == 0
    rec = json.loads(res.output)
    assert rec["mean_x_over_xstar"] == 0.75
    assert rec["total_photons"] > 0


def test_infinite_volume_json_reports_an_n_whose_factors_leave_the_double_range(tmp_path):
    # (dn)^2 overflows and x*^3 underflows on the way to N ~ 5.4e-299: exit 0 with the value, not a refusal
    cfg = _write(tmp_path, "cfg.txt", "n_gas_in = 1e300\nn_gas_out = 1e-300\n")
    res = CliRunner().invoke(main, ["infinite-volume", "--json", "--config", cfg])
    assert res.exit_code == 0, res.output
    rec = json.loads(res.output)
    assert rec["total_photons"] == pytest.approx(5.4331455311297913e-299, rel=1e-15)
    assert rec["mean_x_over_xstar"] == 0.75


def test_check_passes():
    res = CliRunner().invoke(main, ["check"])
    assert res.exit_code == 0, res.output
    assert "FAIL" not in res.output
    assert res.output.count("PASS") == 4


def test_check_json():
    res = CliRunner().invoke(main, ["check", "--json"])
    assert res.exit_code == 0
    reports = json.loads(res.output)
    assert all(r["passed"] for r in reports)


def test_cli_import_leaves_scipy_integrate_unloaded():
    src = str(Path(bubblespec.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import bubblespec.cli; "
        "print('scipy.integrate' in sys.modules, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    # no scipy module at all: the Gauss rules are literals
    assert out.stdout.strip() == "False []"


def test_cli_import_leaves_numpy_polynomial_unloaded():
    # the overlap reference's Gauss-Legendre rule is built on first use: numpy.polynomial costs milliseconds to load
    src = str(Path(bubblespec.__file__).resolve().parents[1])
    code = f"import sys; sys.path.insert(0, {src!r}); import bubblespec.cli; print('numpy.polynomial' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_check_json_leaves_scipy_integrate_unloaded():
    # no scipy module at all: the overlap reference's Bessel functions are numpy closed forms (oracles._jv)
    src = str(Path(bubblespec.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); from bubblespec.cli import main; "
        "main.main(['check', '--json'], standalone_mode=False); "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "[]"


def test_overflowing_integrand_exits_3_without_warnings(tmp_path):
    # past x ~ 1e154 the integrand's squares overflow: a typed failure at the first panel, not NaN refined to the cap
    cfg = _write(tmp_path, "cfg.txt", "x_star_override = 1e300\n")
    src = str(Path(bubblespec.__file__).resolve().parents[1])
    code = f"import sys; sys.path.insert(0, {src!r}); from bubblespec.cli import main; main()"
    args = ["spectrum", "--config", cfg, "--output", str(tmp_path / "s.csv")]
    out = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True, timeout=60)
    assert out.returncode == 3, out.stderr
    assert "numerical failure: integrand is not finite on the panel" in out.stderr
    assert "RuntimeWarning" not in out.stderr
    assert "Traceback" not in out.stderr


def _cli_process(*args):
    # a real process, so an escaped exception would print its traceback
    src = str(Path(bubblespec.__file__).resolve().parents[1])
    code = f"import sys; sys.path.insert(0, {src!r}); from bubblespec.cli import main; main()"
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True, timeout=60)


def test_subnormal_cutoff_in_exact_mode_exits_3(tmp_path):
    # y* = 1e-310 puts subnormal arguments into the exact kernel, which raises BesselDomainError
    text = "kernel_mode = exact\ny_star_override = 1e-310\ngrid_points = 3\nrel_tol = 1e-4\n"
    out = _cli_process("spectrum", "--config", _write(tmp_path, "cfg.txt", text))
    assert out.returncode == 3, out.stderr
    assert "numerical failure" in out.stderr
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize(
    "args, code, message",
    [
        (["kernel-dump", "--x-range", "1", "1e300", "--y-range", "1", "2", "--points", "2"], 3, "in (0, 100000]"),
        (["diagonal", "--x-max", "1e300", "--points", "2"], 3, "in (0, 100000]"),
        (["spectrum", "--config", "{tmp}/tails.cfg"], 3, "in (0, 100000]"),
        (["spectrum", "--config", "{tmp}/subnormal.cfg"], 3, "numerical failure"),
        (["diagonal", "--points", "3", "--output", "{tmp}/missing/d.csv"], 2, "cannot write output file"),
        (["kernel-dump", "--points", "2", "--output", "{tmp}"], 2, "cannot write output file"),
        (["spectrum", "--config", "{tmp}/grid.cfg", "--output", "{tmp}"], 2, "cannot write output file"),
        (["kernel-dump", "--points", "1001"], 2, "points in [2, 1000]"),
        (["kernel-dump", "--points", "100000"], 2, "points in [2, 1000]"),
        (["diagonal", "--points", "10001"], 2, "points in [2, 10000]"),
        (["diagonal", "--points", "1000000000"], 2, "points in [2, 10000]"),
    ],
    ids=[
        "dump-large", "diagonal-large", "tail-bound-large", "subnormal-x-star", "no-dir", "dump-to-dir", "csv-to-dir",
        "dump-points-1001", "dump-points-1e5", "diagonal-points-10001", "diagonal-points-1e9",
    ],
)
def test_out_of_domain_arguments_and_unwritable_outputs_exit_cleanly(tmp_path, args, code, message):
    # README: exit 3 for a numerical failure, 2 for a usage error; either way one message and no traceback
    exact = "kernel_mode = exact\ngrid_points = 3\nrel_tol = 1e-4\n"
    _write(tmp_path, "tails.cfg", exact + "tail_upper_bound = 1e300\n")
    _write(tmp_path, "subnormal.cfg", exact + "x_star_override = 1e-310\n")
    _write(tmp_path, "grid.cfg", "grid_points = 3\n")
    out = _cli_process(*(a.format(tmp=tmp_path) for a in args))
    assert out.returncode == code, out.stderr
    assert message in out.stderr
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("args", [["kernel-dump", "--points", "100000"], ["diagonal", "--points", "1000000000"]])
def test_grid_commands_refuse_points_past_their_ceiling_without_allocating(args):
    # without the ceiling these allocate a 74.5 GiB meshgrid and a 7.45 GiB linspace
    tracemalloc.start()
    try:
        with pytest.raises(click.UsageError, match="points in \\[2, "):
            main.main(args, standalone_mode=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_kernel_dump_writes_its_csv_without_holding_every_line(tmp_path):
    # 10^4 samples, one block: their four value arrays and f_exact_array's temporaries peak at about 90 bytes a
    # sample, while every CSV line and two columns of Python floats, held before one write, took about 380.
    out = str(tmp_path / "k.csv")
    args = ["kernel-dump", "--points", "100", "--x-range", "0.5", "392", "--y-range", "0.001", "392", "--output", out]
    tracemalloc.start()
    try:
        main.main(args, standalone_mode=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 200 * 100 * 100
    assert len(open(out).read().splitlines()) == 1 + 100 * 100
    # 9 x 10^4 samples, evaluated in blocks of at most _CHUNK_POINTS = 2^13: the peak stays below the same bound
    # (measured 1.0 MB), while the whole grid's values, held at once, took 7.2 MB
    args[2] = "300"
    tracemalloc.start()
    try:
        main.main(args, standalone_mode=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 200 * 100 * 100
    assert len(open(out).read().splitlines()) == 1 + 300 * 300


@pytest.mark.parametrize(
    "line",
    ["kernel_mode = bogus", "grid_points = 1", "grid_points = 10001", "x_star_override = 0", "y_star_override = -1"],
)
def test_invalid_run_config_values_exit_2_naming_the_key(tmp_path, line):
    out = _cli_process("spectrum", "--config", _write(tmp_path, "cfg.txt", line + "\n"))
    assert out.returncode == 2, out.stderr
    assert line.split()[0] in out.stderr
    assert "Traceback" not in out.stderr


def test_kernel_flag_and_kernel_mode_key_give_the_same_bytes(tmp_path):
    base = "grid_points = 3\nrel_tol = 1e-4\n"
    keyed = _write(tmp_path, "keyed.txt", base + "kernel_mode = exact\n")
    plain = _write(tmp_path, "plain.txt", base)
    outputs = []
    for args in (["--config", keyed], ["--config", plain, "--kernel", "exact"], ["--config", plain]):
        out = str(tmp_path / "spec.csv")
        res = CliRunner().invoke(main, ["spectrum", *args, "--output", out])
        assert res.exit_code == 0, res.output
        outputs.append((open(out, "rb").read(), res.output))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] != outputs[2][0]


def test_check_json_lists_the_four_suites_in_order():
    # Frozen to the byte: a change of draw order or a last-bit change of any suite's worst error shows here.
    res = CliRunner().invoke(main, ["check", "--json"])
    assert res.exit_code == 0, res.output
    suites = [
        ("wronskian", 3.6622619229090635e-15, 2000),
        ("matching-unit-circle", 3.3306690738754696e-16, 500),
        ("finite-overlap-closed-form", 9.077491654983743e-14, 25),
        ("spectral-delta", 0.007978845608028654, 7),
    ]
    expected = [{"name": n, "max_rel_error": e, "samples": k, "passed": True} for n, e, k in suites]
    assert res.output == json.dumps(expected, indent=2) + "\n"


def test_table_json_is_frozen_to_the_byte():
    # The five totals to the last bit: any change of the integrand's or the quadrature's arithmetic shows here.
    frozen = [
        (1087854.7696801051, 0.8122716717089135),
        (1005258.4393687126, 0.748870398708164),
        (1061995.4158613742, 0.7489671219197207),
        (959307.3582355609, 0.7483443386403706),
        (935288.0765988328, 0.7470644132455218),
    ]
    res = CliRunner().invoke(main, ["table", "--json"])
    assert res.exit_code == 0, res.output
    rows = json.loads(res.output)
    assert [(r["photons"], r["mean_ratio"]) for r in rows] == frozen
    expected = []
    for (n_in, n_out, n_ref, ratio_ref), (photons, ratio) in zip(REFERENCE_TABLE, frozen):
        expected.append(
            {
                "n_gas_in": n_in,
                "n_gas_out": n_out,
                "photons": photons,
                "photons_reference": n_ref,
                "photons_rel_dev": photons / n_ref - 1.0,
                "mean_ratio": ratio,
                "mean_ratio_reference": ratio_ref,
                "mean_ratio_dev": ratio - ratio_ref,
                "passed": True,
            }
        )
    assert res.output == json.dumps(expected, indent=2) + "\n"


@pytest.mark.parametrize(
    "config, digest",
    [
        ("", "03b7b1edfe5bb4261e7f20d2395e3f982458edb7228b77ec3b68cfc5171d5be5"),
        ("n_gas_in = 68.0\nn_gas_out = 34.0\n", "61cb5581361d180bc0a37b8eb50af5e0eeb7dda50ed790246e2d494ca0bc07fe"),
        (
            "n_gas_in = 68.0\nn_gas_out = 34.0\ntail_upper_bound = 600\n",
            "62b42cbc4e8e0494961334f649763f6318a3cb617de311929a51fc75aa97a762",
        ),
        (
            "n_gas_in = 20000.0\nn_gas_out = 1.0\nkernel_mode = exact\nrel_tol = 1e-4\ngrid_points = 20\n",
            "0b3b804b29051e0c1ae8f98835366927b3a1d6d63b8556fadbf32c35e960044e",
        ),
    ],
    ids=["default", "68-34", "68-34-tails", "exact"],
)
def test_spectrum_csv_is_frozen_to_the_byte(tmp_path, config, digest):
    out = tmp_path / "spec.csv"
    res = CliRunner().invoke(main, ["spectrum", "--config", _write(tmp_path, "cfg.txt", config), "--output", str(out)])
    assert res.exit_code == 0, res.output
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize(
    "command, digest",
    [
        ("diagonal", "3be88caaa5db5e59db0f844a99a53c40da33628b70bc0a74ceb405437f2bea9a"),
        ("kernel-dump", "33390b69577159a71646cc40b6998b52ee5d2659e1468a65e04b3d888f3b84ad"),
    ],
)
def test_kernel_csv_is_frozen_to_the_byte(tmp_path, command, digest):
    # The default diagonal and kernel-dump CSVs to the last bit: any change of the exact kernel's arithmetic on
    # [0.5, 12]^2 or its diagonal up to 14 shows here.
    out = tmp_path / "kernel.csv"
    res = CliRunner().invoke(main, [command, "--output", str(out)])
    assert res.exit_code == 0, res.output
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

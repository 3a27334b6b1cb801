import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import bubblespec
from bubblespec.cli import _CONFIG_KEYS, main


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
    cfg = _write(tmp_path, "cfg.txt", "n_gas_in = 5\nl_max_override = 50\n")
    res = CliRunner().invoke(main, ["spectrum", "--config", cfg])
    assert res.exit_code == 2
    assert "unknown config key 'l_max_override'" in res.output


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
    res = CliRunner().invoke(
        main, ["kernel-dump", "--x-range", "1e-200", "2e-200", "--y-range", "3e-200", "4e-200", "--points", "2"]
    )
    assert res.exit_code == 3, res.output
    assert "numerical failure" in res.output


def test_diagonal_command():
    res = CliRunner().invoke(main, ["diagonal", "--points", "4", "--x-max", "8"])
    assert res.exit_code == 0
    lines = res.output.splitlines()
    assert lines[0] == "x,d_exact,d_approx"
    assert len(lines) == 5


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
    # no scipy module at all: the Gauss rules are literals, QUADPACK loads only for the checks
    assert out.stdout.strip() == "False []"

"""Command line interface: outputs, exit codes, and determinism."""

import gc
import hashlib
import importlib.metadata
import importlib.util
import json
import os
import shutil
import subprocess
import sys
from datetime import date, timedelta
from pathlib import Path

import pytest

import hydrospline
from hydrospline.cli import MAX_RESOLUTION, build_parser, main

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"
# The console scripts pyproject.toml declares; an install must create these.
CONSOLE_SCRIPTS = {"hydrospline": "hydrospline.cli:main"}


def _bench_workloads():
    """bench/workloads.py, loaded by path: its CLI_COMMANDS and GOLDEN_DIR."""
    path = ROOT / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _bench_workloads()


@pytest.fixture()
def csv_path(tmp_path, gropeni_text):
    path = tmp_path / "gropeni.csv"
    path.write_text(gropeni_text)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_trend_output(capsys):
    code, out, err = run(capsys, "trend", "--fixture", "gropeni", "--param", "OD")
    assert code == 0
    assert err == ""
    assert out == "0.003014566131 0.9284863682 308 up\n"


def test_correlate_output(capsys):
    code, out, _ = run(
        capsys, "correlate", "--fixture", "gropeni", "--param-a", "temp", "--param-b", "OD"
    )
    assert code == 0
    assert out == "0.1329713236 9\n"


def test_extrema_output(capsys):
    code, out, _ = run(capsys, "extrema", "--fixture", "gropeni", "--param", "OD")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 6
    assert lines[3] == "max 223.3686774 4/21/2004 9.97328532"
    kinds = [line.split()[0] for line in lines]
    assert kinds == ["min", "max", "min", "max", "min", "max"]


def test_harmonic_output(capsys):
    code, out, _ = run(capsys, "harmonic", "--fixture", "gropeni", "--param", "OD")
    assert code == 0
    assert out == "0.7864555646 1.65714106 224.7567568\n"


def test_interp_writes_grid(capsys, tmp_path):
    out_path = tmp_path / "grid.csv"
    code, _, _ = run(
        capsys,
        "interp",
        "--fixture",
        "gropeni",
        "--param",
        "OD",
        "--resolution",
        "5",
        "--out",
        str(out_path),
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "t_days,date,value"
    assert len(lines) == 6
    first = lines[1].split(",")
    last = lines[-1].split(",")
    assert first == ["0.000000", "9/11/2003", "8.100000"]
    assert last[0] == "308.000000"
    assert last[1] == "7/15/2004"
    assert last[2] == "7.600000"


def test_interp_methods_differ(capsys, tmp_path):
    results = {}
    for method in ("spline", "lagrange", "smooth"):
        out_path = tmp_path / f"{method}.csv"
        argv = [
            "interp",
            "--fixture",
            "gropeni",
            "--param",
            "OD",
            "--method",
            method,
            "--out",
            str(out_path),
        ]
        if method == "smooth":
            argv += ["--lambda", "50"]
        assert main(argv) == 0
        capsys.readouterr()
        results[method] = out_path.read_text()
    assert results["spline"] != results["lagrange"]
    assert results["spline"] != results["smooth"]
    # all share the same grid column
    for text in results.values():
        assert text.splitlines()[1].split(",")[0] == "0.000000"


@pytest.mark.parametrize(
    "name, args", WORKLOADS.CLI_COMMANDS, ids=[name for name, _ in WORKLOADS.CLI_COMMANDS]
)
def test_fixture_commands_match_goldens(capsys, tmp_path, name, args):
    # the goldens the benchmark checks, pinned here in-process
    goldens = WORKLOADS.GOLDEN_DIR
    argv = [a.replace("{out}", str(tmp_path)) for a in args]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == json.loads((goldens / "exit_codes.json").read_text())[name]
    assert captured.err == ""
    assert captured.out.encode() == (goldens / f"{name}.stdout").read_bytes()
    for written, raw in zip(argv, args):
        if "{out}" in raw:
            assert Path(written).read_bytes() == (goldens / f"{name}.file").read_bytes()


def test_file_input_matches_fixture(capsys, csv_path):
    code_file, out_file, _ = run(capsys, "trend", "--input", csv_path, "--param", "OD")
    code_fix, out_fix, _ = run(capsys, "trend", "--fixture", "gropeni", "--param", "OD")
    assert code_file == code_fix == 0
    assert out_file == out_fix


def test_reruns_are_byte_identical(capsys, tmp_path):
    svg_a = tmp_path / "a.svg"
    svg_b = tmp_path / "b.svg"
    for target in (svg_a, svg_b):
        code, _, _ = run(
            capsys,
            "plot",
            "--fixture",
            "gropeni",
            "--param",
            "OD",
            "--harmonic",
            "--out",
            str(target),
        )
        assert code == 0
    assert svg_a.read_bytes() == svg_b.read_bytes()
    assert svg_a.read_text().startswith("<svg")


def test_extrema_rerun_stdout_identical(capsys):
    _, first, _ = run(capsys, "extrema", "--fixture", "gropeni", "--param", "OD")
    _, second, _ = run(capsys, "extrema", "--fixture", "gropeni", "--param", "OD")
    assert first == second


def test_missing_required_flag_is_usage_error(capsys):
    code, _, err = run(capsys, "trend", "--fixture", "gropeni")
    assert code == 1
    assert "usage" in err.lower()


def test_unknown_method_is_usage_error(capsys):
    code, _, _ = run(
        capsys, "interp", "--fixture", "gropeni", "--param", "OD", "--method", "sinc",
        "--out", "/tmp/x.csv",
    )
    assert code == 1


def test_bad_resolution_is_usage_error(capsys):
    code, _, _ = run(
        capsys, "interp", "--fixture", "gropeni", "--param", "OD",
        "--resolution", "1", "--out", "/tmp/x.csv",
    )
    assert code == 1
    code, _, _ = run(
        capsys, "interp", "--fixture", "gropeni", "--param", "OD",
        "--resolution", "many", "--out", "/tmp/x.csv",
    )
    assert code == 1


@pytest.mark.parametrize("command", ["interp", "plot"])
def test_resolution_cap_is_usage_error(capsys, command):
    # through the parser alone: no grid of this size is ever allocated
    parser = build_parser()
    argv = [command, "--fixture", "gropeni", "--param", "OD", "--out", "x", "--resolution"]
    assert parser.parse_args([*argv, str(MAX_RESOLUTION)]).resolution == MAX_RESOLUTION
    for too_many in (MAX_RESOLUTION + 1, 10**9, 10**20):
        with pytest.raises(SystemExit) as info:
            parser.parse_args([*argv, str(too_many)])
        assert info.value.code == 1
        assert capsys.readouterr().err.endswith(
            f"argument --resolution: resolution must be at most {MAX_RESOLUTION}\n"
        )


def test_resolution_cap_is_in_the_help(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")  # one line per option
    with pytest.raises(SystemExit):
        build_parser().parse_args(["interp", "--help"])
    assert f"2 to {MAX_RESOLUTION}" in capsys.readouterr().out


# sha256 of each --help text and usage error at 80 columns, as Python 3.11's argparse
# lays them out; a rewiring of the parser must leave every one of them byte-identical
HELP_DIGESTS = {
    "": "15e128d41a2a359a0861b0eba6fc22556c7c65d9035813c05c52a698b3111e18",
    "interp": "29fda45e05d1d9b17ac42e464df10a482a74c25aa04e1fd2b1c66faf06509d53",
    "extrema": "1c45cfbfdfee26e411508ab53eea2855a82217fbfed804af7fe129e102768033",
    "trend": "e3fcd347c884c912254c53cf5ac6d64916ddbda52779b7359348be3f102596c8",
    "correlate": "c6600a02019728ec71a690d4184db6817ce50c0a51133a32536273ca25c791b1",
    "harmonic": "68635c2fb60f27fdbb3893d52bb1e847d0a9763d0751b8bf4251233f75a11ef3",
    "plot": "a0c9ca2dc8ef22dba6febb6dd912a05e34def3aa09e38d4e54132569d02df679",
}
USAGE_ERROR_DIGESTS = {
    ("harmonic", "--fixture", "gropeni", "--param", "OD", "--exponent", "0"):
        "42d60ccce7deae523ac4a7d9ce913d26f1fbffe35cf4bf42585ae5fafb5ae5d2",
    ("interp", "--fixture", "gropeni", "--param", "OD", "--lambda", "-1", "--out", "x.csv"):
        "e526f960c0280dc618da90692b7bb73c69627d6e9ed3d18b38e2b5cdc0a74fd0",
    ("trend", "--fixture", "gropeni"):
        "bc96067d3933d8629958e26492497b8156a81b13bc083b449665c9d6c7147bbe",
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("command", HELP_DIGESTS, ids=lambda c: c or "top")
def test_help_text_is_pinned(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as info:
        build_parser().parse_args([command, "--help"] if command else ["--help"])
    assert info.value.code == 0
    assert _sha256(capsys.readouterr().out) == HELP_DIGESTS[command]


@pytest.mark.parametrize("argv", USAGE_ERROR_DIGESTS, ids=["exponent", "lambda", "param"])
def test_usage_errors_are_pinned(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert _sha256(err) == USAGE_ERROR_DIGESTS[argv]


@pytest.mark.parametrize("value", ["nan", "inf", "Infinity"])
@pytest.mark.parametrize(
    "argv",
    [["harmonic", "--exponent"], ["harmonic", "--angular-coeff"],
     ["interp", "--out", "x.csv", "--method", "smooth", "--lambda"]],
    ids=["exponent", "angular-coeff", "lambda"],
)
def test_non_finite_flag_is_usage_error(capsys, argv, value):
    command, *flags = argv
    code, out, err = run(capsys, command, "--fixture", "gropeni", "--param", "OD", *flags, value)
    assert (code, out) == (1, "")
    assert err.endswith(f"{argv[-1]}: not a finite number: {value!r}\n")


@pytest.mark.parametrize(
    "argv, message",
    [(["interp", "--out", "x.csv", "--lambda", "abc"], "--lambda: not a number: 'abc'"),
     (["harmonic", "--angular-coeff", "0"], "--angular-coeff: must be positive")],
    ids=["not-a-number", "not-positive"],
)
def test_unreadable_flag_number_is_usage_error(capsys, argv, message):
    command, *flags = argv
    code, out, err = run(capsys, command, "--fixture", "gropeni", "--param", "OD", *flags)
    assert (code, out) == (1, "")
    assert err.endswith(f"argument {message}\n") and "Traceback" not in err


def test_negative_lambda_is_usage_error(capsys):
    code, _, _ = run(
        capsys, "interp", "--fixture", "gropeni", "--param", "OD",
        "--lambda", "-1", "--out", "/tmp/x.csv",
    )
    assert code == 1


def test_missing_file_is_data_error(capsys):
    code, _, err = run(capsys, "trend", "--input", "/nonexistent/file.csv", "--param", "OD")
    assert code == 2
    assert err.startswith("error:")


def test_unknown_parameter_is_data_error(capsys):
    code, _, err = run(capsys, "trend", "--fixture", "gropeni", "--param", "NOPE")
    assert code == 2
    assert "unknown parameter" in err


def test_malformed_file_is_data_error(capsys, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("Data,temp\n1/2/2003,oops\n")
    code, _, err = run(capsys, "trend", "--input", str(bad), "--param", "temp")
    assert code == 2
    assert err.startswith("error:")


def test_overflowing_cell_is_data_error(capsys, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("Data,temp\n1/2/2003,5.0\n1/3/2003,1e400\n1/4/2003,6.0\n")
    code, _, err = run(capsys, "trend", "--input", str(bad), "--param", "temp")
    assert code == 2
    assert err == "error: row 3, column temp: out of range: '1e400'\n"


def test_byte_order_mark_file_matches_fixture(capsys, tmp_path, gropeni_text):
    path = tmp_path / "gropeni.csv"
    path.write_text("\ufeff" + gropeni_text, encoding="utf-8")
    code, out, err = run(capsys, "trend", "--input", str(path), "--param", "OD")
    assert code == 0
    assert err == ""
    assert out == "0.003014566131 0.9284863682 308 up\n"


def test_lagrange_overflow_is_data_error(capsys, tmp_path):
    days = tmp_path / "daily.csv"
    dates = [date(2003, 1, 1) + timedelta(days=i) for i in range(400)]
    days.write_text("Data,OD\n" + "".join(
        f"{d.month}/{d.day}/{d.year},{8 + i % 3 / 10}\n" for i, d in enumerate(dates)))
    code, _, err = run(
        capsys, "interp", "--input", str(days), "--param", "OD", "--method", "lagrange",
        "--out", str(tmp_path / "grid.csv"),
    )
    assert code == 2
    assert err == "error: barycentric weights overflow for this knot layout\n"


BIG_ROWS = ["1/1/2003", "1/2/2003", "1/3/2003", "1/4/2003"]


def _alternating(tmp_path, size):
    path = tmp_path / "big.csv"
    path.write_text("Data,OD\n" + "".join(
        f"{day},{size * (-1) ** i}\n" for i, day in enumerate(BIG_ROWS)))
    return str(path)


def _zero_and_huge(tmp_path):
    """Two rows whose values are finite but whose plot range, padded by 5%, is not."""
    path = tmp_path / "big.csv"
    path.write_text("Data,OD\n1/1/2004,0\n1/2/2004,1.7e308\n")
    return str(path)


@pytest.mark.parametrize(
    "size, argv",
    [
        ("1e300", ["interp", "--param", "OD", "--method", "smooth", "--lambda", "1e308",
                   "--out", "{out}/grid.csv"]),
        ("1e308", ["interp", "--param", "OD", "--out", "{out}/grid.csv"]),
        ("1e308", ["extrema", "--param", "OD"]),
        ("1e308", ["plot", "--param", "OD", "--out", "{out}/plot.svg"]),
        ("1e300", ["correlate", "--param-a", "OD", "--param-b", "OD"]),
        ("1e308", ["correlate", "--param-a", "OD", "--param-b", "OD"]),
        ("0,1.7e308", ["plot", "--param", "OD", "--resolution", "5", "--out", "{out}/plot.svg"]),
        ("1.7e308", ["trend", "--param", "OD"]),
    ],
    ids=["smooth", "interp", "extrema", "plot", "correlate-square", "correlate-sum",
         "plot-range", "trend"],
)
def test_values_outside_float_range_are_data_errors(capsys, tmp_path, size, argv):
    if size == "0,1.7e308":
        path = _zero_and_huge(tmp_path)
    else:
        path = _alternating(tmp_path, float(size))
    argv = [arg.replace("{out}", str(tmp_path)) for arg in argv]
    code, out, err = run(capsys, argv[0], "--input", path, *argv[1:])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "overflow" in err or "float range" in err
    assert [p.name for p in tmp_path.iterdir()] == ["big.csv"]  # no output file is left


def test_constant_series_of_large_magnitude_plots_a_flat_line(capsys, tmp_path):
    # at 1e16 the 0.5 pad of a zero span is lost to rounding; the range is widened instead
    path = tmp_path / "flat.csv"
    path.write_text("Data,OD\n1/1/2004,1e16\n1/2/2004,1e16\n")
    svg_path = tmp_path / "flat.svg"
    argv = ["--input", str(path), "--param", "OD", "--resolution", "5", "--out", str(svg_path)]
    assert run(capsys, "plot", *argv) == (0, "", "")
    svg = svg_path.read_text(encoding="utf-8")
    polyline = svg.split('points="')[1].split('"')[0]
    circles = [line.split('cy="')[1].split('"')[0] for line in svg.splitlines()
               if line.startswith("<circle")]
    assert {pair.split(",")[1] for pair in polyline.split()} == {"250.0000"}
    assert circles == ["250.0000", "250.0000"]


@pytest.mark.parametrize("flag", ["--exponent", "--angular-coeff"])
def test_huge_harmonic_coefficients_are_data_errors(capsys, flag):
    # 1e308 overflows the signed power, or makes every angle infinite
    argv = ["harmonic", "--fixture", "gropeni", "--param", "OD", flag, "1e308"]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: harmonic reference leaves the float range for these coefficients\n"


def _fresh_cli(*argv):
    """Run the CLI in a new interpreter with the default warning filters, so a
    numpy warning reaches stderr instead of pytest's warning capture."""
    env = dict(os.environ, PYTHONPATH=str(Path(hydrospline.__file__).parents[1]))
    env.pop("PYTHONWARNINGS", None)
    return subprocess.run(
        [sys.executable, "-m", "hydrospline.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )


def test_least_squares_overflow_is_silent_in_a_fresh_process(tmp_path):
    done = _fresh_cli("trend", "--input", _alternating(tmp_path, 1e300), "--param", "OD")
    assert (done.returncode, done.stdout, done.stderr) == (0, "-4e+299 -1.2e+300 3 down\n", "")
    constant = tmp_path / "constant.csv"
    constant.write_text("Data,OD\n" + "".join(f"{day},1e308\n" for day in BIG_ROWS))
    for command in ("harmonic", "trend"):
        done = _fresh_cli(command, "--input", str(constant), "--param", "OD")
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr == (
            "error: least-squares solution overflows the float range for these values\n"
        )


def test_non_utf8_file_is_data_error(capsys, tmp_path):
    path = tmp_path / "latin.csv"
    path.write_bytes(b"Data,temp\n1/2/2003,5.0\n1/3/2003,caf\xe9\n")
    code, _, err = run(capsys, "trend", "--input", str(path), "--param", "temp")
    assert code == 2
    assert err == f"error: {path}: not UTF-8 text (invalid continuation byte at byte 35)\n"


def test_cell_over_the_csv_field_limit_is_data_error(tmp_path):
    path = tmp_path / "long.csv"
    path.write_text("Data,OD\n1/2/2003," + "9" * 140_000 + "\n1/3/2003,5.0\n")
    done = _fresh_cli("trend", "--input", str(path), "--param", "OD")
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == "error: row 2: field larger than field limit (131072)\n"
    assert "Traceback" not in done.stderr


def test_cli_import_leaves_network_modules_unloaded():
    # the CLI's start-up cost: none of these may ride in with an import;
    # scipy is the tests' oracle and never a run-time dependency
    script = (
        "import sys, hydrospline.cli\n"
        "print([m for m in ('urllib.request', 'http.client', 'ssl', 'email', 'scipy') "
        "if m in sys.modules])\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(hydrospline.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    )
    assert result.stdout == "[]\n"


def _installed():
    try:
        importlib.metadata.distribution("hydrospline")
    except importlib.metadata.PackageNotFoundError:
        return False
    return True


def _run_wrapper(entry_point, *argv):
    """Run ``entry_point`` in a fresh interpreter the way an installer's
    console-script wrapper does: import the callable, pass its return value
    to ``sys.exit``."""
    code = (
        f"import sys; from {entry_point.module} import {entry_point.attr}; "
        f"sys.exit({entry_point.attr}())"
    )
    package_parent = str(Path(hydrospline.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_parent, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )


def test_entry_point_installed():
    # Checks from the source tree alone what an install wires up: the
    # declared console script resolves to the CLI, and the wrapper an
    # installer generates for it runs the CLI and exits with its code.
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    assert scripts == CONSOLE_SCRIPTS
    [(name, value)] = scripts.items()
    entry_point = importlib.metadata.EntryPoint(name, value, "console_scripts")
    assert entry_point.load() is main

    done = _run_wrapper(entry_point, "trend", "--fixture", "gropeni", "--param", "OD")
    assert done.returncode == 0
    assert done.stderr == ""
    assert done.stdout == "0.003014566131 0.9284863682 308 up\n"

    done = _run_wrapper(entry_point, "trend", "--no-such-flag")
    assert done.returncode == 1


@pytest.mark.skipif(not _installed(), reason="hydrospline distribution is not installed")
def test_installed_console_script_on_path():
    installed = {
        ep.name: ep.value
        for ep in importlib.metadata.distribution("hydrospline").entry_points
        if ep.group == "console_scripts"
    }
    assert installed == CONSOLE_SCRIPTS
    assert shutil.which("hydrospline") is not None


def test_cli_import_leaves_html_unloaded():
    # svgplot escapes with two translate tables; html would bring html.entities
    script = "import sys, hydrospline.cli\nprint([m for m in sys.modules if m.startswith('html')])\n"
    env = dict(os.environ, PYTHONPATH=str(Path(hydrospline.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    )
    assert result.stdout == "[]\n"


# a success, a usage error (exit 1) and a data error (exit 2)
EXIT_CASES = [
    ("trend", "--fixture", "gropeni", "--param", "OD"),
    ("trend", "--no-such-flag"),
    ("trend", "--fixture", "gropeni", "--param", "nope"),
]


@pytest.mark.parametrize("argv", EXIT_CASES)
def test_in_process_main_leaves_the_collector_alone(capsys, argv):
    frozen = gc.get_freeze_count()
    code, _, _ = run(capsys, *argv)
    assert code == EXIT_CASES.index(argv)
    assert gc.get_freeze_count() == frozen


def test_main_on_the_process_command_line_freezes_the_collector():
    script = (
        "import gc, sys\n"
        "from hydrospline.cli import main\n"
        "sys.argv = ['hydrospline', 'trend', '--fixture', 'gropeni', '--param', 'OD']\n"
        "before = gc.get_freeze_count()\n"
        "code = main()\n"
        "print(code, before, gc.get_freeze_count() > 0)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(hydrospline.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    )
    assert result.stdout.splitlines()[-1] == "0 0 True"


@pytest.mark.parametrize("argv", EXIT_CASES)
def test_both_fresh_routes_match_in_process_main(capsys, argv):
    code, out, err = run(capsys, *argv)
    entry_point = importlib.metadata.EntryPoint(
        "hydrospline", CONSOLE_SCRIPTS["hydrospline"], "console_scripts"
    )
    for done in (_fresh_cli(*argv), _run_wrapper(entry_point, *argv)):
        assert (done.returncode, done.stdout, done.stderr) == (code, out, err)

"""Config parsing, initial-condition presets, and the CLI exit contract."""

from __future__ import annotations

import ast
import importlib
import math
import os
import pkgutil
import platform
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import llbar
from llbar import cli, config, diagnostics, fields, galerkin, inequalities, operators, stepping
from llbar.config import ConfigError, InitialSpec, build_initial, parse_config
from llbar.fields import GridSpec
from llbar.galerkin import LLBarParams

import spectral_reference as ref

GOOD = textwrap.dedent(
    """\
    [grid]
    extents = 1.0
    points = 8

    [params]
    beta1 = 0.4
    beta2 = 0.01
    beta3 = 1.2
    beta4 = 0.7
    beta5 = 0.25

    [integrator]
    dt = 1e-3
    t_end = 0.01

    [initial]
    kind = constant
    value = 1.0, 0.0, 0.0

    [output]
    directory = out
    """
)


@pytest.mark.parametrize("modes", ["4, 4", "0", "9"])
def test_grid_modes_are_checked_against_the_grid(tmp_path, capsys, modes):
    text = GOOD.replace("points = 8", f"points = 8\nmodes = {modes}")
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert any(p.startswith("[grid] modes") for p in err.value.problems), err.value.problems
    assert cli.main(["run", write_config(tmp_path, text)]) == 2
    line = capsys.readouterr().err
    assert line.startswith("llbar: config-error: [grid] modes") and line.count("\n") == 1, line


def test_parse_config_defaults():
    cfg = parse_config(GOOD)
    assert cfg.grid.dealias_pad == 2
    assert cfg.modes == (8,)  # band defaults to the grid
    assert cfg.policy.scheme == "ETDRK2"
    assert cfg.cadence == 1
    assert cfg.prefix == "state"
    assert cfg.initial.seed == 0
    assert cfg.params == LLBarParams(0.4, 0.01, 1.2, 0.7, 0.25)
    # the benchmark's run files name the default scheme explicitly
    explicit = parse_config(GOOD.replace("t_end = 0.01", "t_end = 0.01\nscheme = ETDRK2"))
    assert explicit.policy == cfg.policy


def test_parse_config_reports_every_problem_at_once():
    bad = GOOD.replace("dt = 1e-3", "dt = -1e-3")
    bad = bad.replace("points = 8", "points = 8.5")
    bad = bad.replace("kind = constant", "kind = swirl")
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    text = str(err.value)
    assert "[grid] points" in text
    assert "[integrator]" in text and "dt" in text
    assert "[initial] kind" in text
    assert len(err.value.problems) >= 3


def test_parse_config_structural_errors_stop_early():
    bad = GOOD.replace("dt = 1e-3", "dt = -1e-3") + "\n[extra]\nstuff = 1\n"
    bad = bad.replace("value = 1.0, 0.0, 0.0", "value = 1.0, 0.0, 0.0\ncolour = red")
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    assert any("[extra]: unknown section" in p for p in err.value.problems)
    assert any("colour: unknown key" in p for p in err.value.problems)
    # the typed pass never ran, so the bad dt is not in this batch
    assert not any("dt" in p for p in err.value.problems)


def test_params_require_exactly_one_family():
    both = GOOD.replace("beta1 = 0.4", "beta1 = 0.4\nlambda_r = 1.0")
    with pytest.raises(ConfigError, match="exactly one"):
        parse_config(both)
    neither = GOOD
    for line in ("beta1 = 0.4", "beta2 = 0.01", "beta3 = 1.2",
                 "beta4 = 0.7", "beta5 = 0.25"):
        neither = neither.replace(line + "\n", "")
    with pytest.raises(ConfigError, match="provide either"):
        parse_config(neither)


def test_physical_parameter_family():
    phys = GOOD
    for line in ("beta1 = 0.4", "beta2 = 0.01", "beta3 = 1.2",
                 "beta4 = 0.7", "beta5 = 0.25"):
        phys = phys.replace(line + "\n", "")
    phys = phys.replace(
        "[params]\n",
        "[params]\nlambda_r = 0.6\nlambda_e = 0.1\nchi = 0.25\ngamma = 1.1\n",
    )
    cfg = parse_config(phys)
    assert cfg.params == LLBarParams.from_physical(0.6, 0.1, 0.25, 1.1)


def test_overrides_change_and_complain():
    cfg = parse_config(GOOD, overrides=["integrator.dt=5e-4", "output.prefix=alt"])
    assert cfg.policy.dt == 5e-4
    assert cfg.prefix == "alt"
    with pytest.raises(ConfigError) as err:
        parse_config(
            GOOD,
            overrides=["nodotvalue", "grid.bogus=1", "nowhere.dt=1"],
        )
    probs = err.value.problems
    assert any("section.key=value" in p for p in probs)
    assert any("unknown key" in p for p in probs)
    assert any("unknown section" in p for p in probs)


def test_build_initial_constant_and_eigenmode():
    grid = GridSpec(extents=(1.0, 2.0), points=(8, 8))
    band = (8, 8)
    u = build_initial(
        InitialSpec(kind="constant", value=(0.3, -0.2, 0.1)), grid, band
    )
    weight = math.sqrt(2.0)  # sqrt of the domain volume
    assert u.coeffs[0, 0, 0] == pytest.approx(0.3 * weight)
    assert u.coeffs[1, 0, 0] == pytest.approx(-0.2 * weight)
    assert abs(u.coeffs).sum() == pytest.approx(0.6 * weight)

    e = build_initial(
        InitialSpec(
            kind="eigenmode", mode=(2, 3), amplitude=2.0, direction=(3.0, 0.0, 4.0)
        ),
        grid, band,
    )
    assert e.coeffs[0, 2, 3] == pytest.approx(1.2)  # 2 * 3/5
    assert e.coeffs[2, 2, 3] == pytest.approx(1.6)  # 2 * 4/5
    with pytest.raises(ValueError, match="band"):
        build_initial(InitialSpec(kind="eigenmode", mode=(9, 0)), grid, band)
    with pytest.raises(ValueError, match="nonzero"):
        build_initial(
            InitialSpec(kind="eigenmode", mode=(1, 1), direction=(0.0, 0.0, 0.0)),
            grid, band,
        )


def test_build_initial_file_round_trip(tmp_path):
    grid = GridSpec(extents=(1.0,), points=(16,))
    u = fields.random_field(grid, (16,), seed=5, decay=2.0)
    path = tmp_path / "u.snap"
    fields.write_snapshot(path, fields.inverse(u))

    got = build_initial(InitialSpec(kind="file", path=str(path)), grid, (16,))
    assert np.allclose(got.coeffs, u.coeffs, atol=1e-13)
    # narrower band keeps the leading block only
    cut = build_initial(InitialSpec(kind="file", path=str(path)), grid, (8,))
    assert np.allclose(cut.coeffs, u.coeffs[:, :8], atol=1e-13)

    other = GridSpec(extents=(2.0,), points=(16,))
    with pytest.raises(ValueError, match="does not"):
        build_initial(InitialSpec(kind="file", path=str(path)), other, (16,))


def test_build_initial_normalize_linf():
    grid = GridSpec(extents=(1.0,), points=(16,))
    spec = InitialSpec(kind="random_band", seed=3, decay=2.0, normalize_linf=0.5)
    u = build_initial(spec, grid, (16,))
    assert diagnostics.norms(u).Linf == pytest.approx(0.5, rel=1e-12)
    zero = InitialSpec(kind="constant", value=(0.0, 0.0, 0.0), normalize_linf=1.0)
    with pytest.raises(ValueError, match="vanishing"):
        build_initial(zero, grid, (16,))


def write_config(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_run_writes_ledger_and_snapshots(tmp_path, capsys):
    text = GOOD.replace("directory = out", f"directory = {tmp_path}/out")
    code = cli.main(["run", write_config(tmp_path, text)])
    assert code == 0
    out = capsys.readouterr().out
    assert "L2 = " in out and "absUabsDeltaU = " in out
    lines = (tmp_path / "out" / "state_ledger.csv").read_text().splitlines()
    assert lines[0] == diagnostics.LEDGER_HEADER
    assert len(lines) == 12  # header + 11 records for 10 steps at cadence 1
    snaps = sorted(p.name for p in (tmp_path / "out").glob("*.snap"))
    assert snaps[0] == "state_000000.snap"
    assert len(snaps) == 11


def test_run_cadence_row_contract(tmp_path):
    text = GOOD.replace("t_end = 0.01", "t_end = 1.0")
    text = text.replace("directory = out", f"directory = {tmp_path}/out")
    text += "cadence = 10\nprefix = walk\n"
    code = cli.main(["run", write_config(tmp_path, text)])
    assert code == 0
    lines = (tmp_path / "out" / "walk_ledger.csv").read_text().splitlines()
    assert len(lines) == 102, "1000 steps at cadence 10 must give 101 rows"
    assert len(list((tmp_path / "out").glob("walk_*.snap"))) == 101


def test_run_off_cadence_final_record(tmp_path):
    # 100 steps at cadence 7 end on a short final interval (98 -> 100)
    text = textwrap.dedent(
        f"""\
        [grid]
        extents = 1.0, 0.8
        points = 16, 16

        [params]
        beta1 = 0.4
        beta2 = 0.01
        beta3 = 1.2
        beta4 = 0.7
        beta5 = 0.25

        [integrator]
        dt = 1e-3
        t_end = 0.1

        [initial]
        kind = random_band
        decay = 4.0
        amplitude = 0.8

        [output]
        directory = {tmp_path}/out
        cadence = 7
        """
    )
    assert cli.main(["run", write_config(tmp_path, text)]) == 0
    lines = (tmp_path / "out" / "state_ledger.csv").read_text().splitlines()
    assert len(lines) == 17, "records at steps 0, 7, ..., 98 and the final step 100"
    rows = np.array([[float(c) for c in line.split(",")] for line in lines[1:]])
    assert rows[-1, 0] == pytest.approx(0.1)
    assert np.all(np.isfinite(rows[:, -1]))


@pytest.mark.parametrize(
    "argv, code, detail",
    [
        (["verify-inequalities", "--count", "0"], 2, "--count"),
        (["converge", "--dt", "0"], 2, "dt must be positive"),
        (["holder", "--tend", "0.005"], 2, "at least 10 snapshots"),
        (["holder", "--amplitude", "0"], 2, "--amplitude"),
        (["depend", "--amplitude", "1e7", "--tend", "0.002"], 3, "blow-up threshold"),
        (["run", "{overflow}"], 2, "[grid] points"),
        (["verify-identities", "--count", "0"], 2, "--count"),
        (["holder", "--tend", "1001"], 2, "max_steps"),
        (["run", "{long}"], 2, "max_steps"),
        (["verify-identities", "--points", "3", "--modes", "2"], 2, "--points"),
        (["verify-inequalities", "--points", "3", "--modes", "2"], 2, "--points"),
        (["converge", "--bands", "1,3"], 2, "--bands"),
        (["converge", "--dim", "4"], 2, "--dim"),
        (["converge", "--decay", "-1"], 2, "--decay"),
        (["depend", "--delta", "inf"], 2, "--delta"),
        (["run", "{good}", "--override", "initial.amplitude=nan"], 2, "[initial]: must be finite: amplitude"),
        (["run", "{good}", "--override", "initial.amplitude=inf"], 2, "[initial]: must be finite: amplitude"),
        (["run", "{good}", "--override", "initial.normalize_linf=nan"], 2, "normalize_linf = nan"),
        (["run", "{good}", "--override", "initial.normalize_linf=inf"], 2, "normalize_linf = inf"),
        (["run", "{good}", "--override", "initial.value=nan, 0, 0"], 2, "[initial]: must be finite: value"),
        (["run", "{good}", "--override", "initial.direction=nan, 0, 0"], 2, "direction"),
        (["run", "{good}", "--override", "initial.decay=nan"], 2, "decay = nan"),
        (["run", "{good}", "--override", "initial.decay=inf"], 2, "decay = inf"),
        (["holder", "--amplitude", "nan"], 2, "--amplitude"),
        (["holder", "--amplitude", "inf"], 2, "--amplitude"),
        (["depend", "--amplitude", "nan"], 2, "--amplitude"),
        (["converge", "--amplitude", "nan"], 2, "--amplitude"),
        (["converge", "--amplitude", "inf"], 2, "--amplitude"),
        (["converge", "--decay", "inf"], 2, "--decay"),
        (["bogus"], 2, "invalid choice"),
        (["run"], 2, "config"),
        (["holder", "--dim", "x"], 2, "--dim"),
        ([], 2, "command"),
        (["converge", "--bands", "4,x"], 2, "--bands"),
        # below the float resolution the initial or the terminal gap is 0
        (["depend", "--delta", "1e-30"], 2, "--delta: 1e-30 vanished"),
        (["depend", "--delta", "1e-3,1e-21"], 2, "--delta: 1e-21 vanished"),
        # every squared difference underflows, so no quotient survives
        (["holder", "--amplitude", "1e-200"], 2, "--amplitude"),
        (["holder", "--amplitude", "1e-300"], 2, "--amplitude"),
        (["holder", "--amplitude", "1e-320"], 2, "--amplitude"),
        (["tstar", "--y0", "1e-300"], 2, "float range"),
        # below the smallest normal double the comparison time has no digit to trust
        (["tstar", "--y0", "1e300"], 2, "--y0/--c: (y0+c)^-4 / 4 underflows"),
        (["tstar", "--y0", "1e80"], 2, "--y0/--c: (y0+c)^-4 / 4 underflows"),
        # a perturbation rounded on the way into u0 (initial gap off by more
        # than 1e-4 relative) would read rounding noise as its amplification
        (["depend", "--delta", "1e-3,3e-21"], 2, "--delta: 3e-21 (initial gap"),
        (["depend", "--delta", "1e-3,1e-19"], 2, "--delta: 1e-19 (initial gap"),
    ],
)
def test_error_paths_print_one_line(tmp_path, capsys, argv, code, detail):
    overflow = write_config(tmp_path, GOOD.replace("points = 8", "points = 1e400"))
    long = write_config(tmp_path, GOOD.replace("t_end = 0.01", "t_end = 1001"), "long.ini")
    good = write_config(
        tmp_path, GOOD.replace("directory = out", f"directory = {tmp_path}/out"), "good.ini"
    )
    argv = [arg.format(overflow=overflow, long=long, good=good) for arg in argv]
    assert cli.main(argv) == code
    err = capsys.readouterr().err
    label = {2: "config-error", 3: "blowup"}[code]
    assert err.startswith(f"llbar: {label}: ") and detail in err, err
    assert err.count("\n") == 1, "diagnostics must land on a single line"


@pytest.mark.parametrize(
    "argv, detail",
    [
        (["holder", "--exponent", "1.5"], "--exponent"),
        (["holder", "--tend", "0.017"], "at least 10 snapshots"),
    ],
)
def test_holder_rejects_bad_input_before_integrating(monkeypatch, capsys, argv, detail):
    # 18 snapshots at --tend 0.017 leave 9 after halving the density
    def refuse(*args, **kwargs):
        raise AssertionError("holder integrated before checking its input")

    monkeypatch.setattr(stepping, "integrate", refuse)
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("llbar: config-error: ") and detail in err, err
    assert err.count("\n") == 1, "diagnostics must land on a single line"


@pytest.mark.parametrize("where", ["missing/report.csv", "."])
def test_verify_inequalities_checks_output_before_sampling(
    tmp_path, monkeypatch, capsys, where
):
    def refuse(*args, **kwargs):
        raise AssertionError("verify-inequalities sampled before checking --output")

    monkeypatch.setattr(inequalities, "check_catalogue", refuse)
    argv = ["verify-inequalities", "--count", "2", "--output", str(tmp_path / where)]
    assert cli.main(argv) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("llbar: io-error: "), captured.err
    assert captured.err.count("\n") == 1, "diagnostics must land on a single line"


def _fresh_python(*args: str) -> subprocess.CompletedProcess:
    """Run this interpreter in a new process with this checkout's llbar."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=300
    )


def test_exports_resolve_and_cli_names_no_private_attribute():
    # a deleted name cannot stay in an __all__, and cli reaches the other
    # llbar modules only through their public names
    modules = {"llbar": llbar} | {
        f"llbar.{info.name}": importlib.import_module(f"llbar.{info.name}")
        for info in pkgutil.iter_modules(llbar.__path__)
    }
    missing = [
        f"{name}.{attr}"
        for name, module in modules.items()
        for attr in getattr(module, "__all__", ())
        if not hasattr(module, attr)
    ]
    assert not missing, missing
    siblings = {name.rpartition(".")[2] for name in modules}
    tree = ast.parse(Path(cli.__file__).read_text())
    private = [
        f"{node.value.id}.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in siblings and node.attr.startswith("_")
    ] + [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("llbar"))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not private, private


def test_python_dash_m_runs_the_cli():
    run = _fresh_python("-m", "llbar", "verify-identities", "--count", "1")
    assert run.returncode == 0, run.stderr
    assert run.stdout.count(" ok") == 5, run.stdout


_COLD_START = {
    "import": "import llbar.cli\n",
    "python -m llbar verify-identities": (
        "sys.argv = ['llbar', 'verify-identities', '--count', '1']\n"
        "try:\n"
        "    runpy.run_module('llbar', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as stop:\n"
        "    assert stop.code == 0, stop.code\n"
    ),
    "short runs of the other checks": (
        "from llbar import cli\n"
        "for argv in (['verify-inequalities', '--count', '2'], ['depend', '--tend', '0.01'],\n"
        "             ['holder', '--tend', '0.02'], ['converge', '--tend', '0.01']):\n"
        "    assert cli.main(argv) == 0, argv\n"
    ),
}


@pytest.mark.parametrize("body", list(_COLD_START.values()), ids=list(_COLD_START))
def test_cold_start_loads_no_scipy(body):
    # importing scipy.fft and scipy.integrate costs about 0.4 s per process;
    # only axes longer than fields._MATRIX_MAX_POINTS and bihari_general
    # need them, so no command at its usual sizes may load any of scipy
    probe = (
        "import runpy, sys\n" + body
        + "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n"
    )
    run = _fresh_python("-c", probe)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "[]", run.stdout


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc malloc thresholds")
def test_verify_passes_reuse_their_temporaries():
    # at glibc's 128 KiB defaults every ensemble block mapped its larger
    # temporaries afresh and faulted them in (about 8,400 minor faults per
    # 128-draw pass of both commands); the entry point's thresholds keep
    # them for reuse
    probe = (
        "import resource\n"
        "from llbar import cli\n"
        "def verify():\n"
        "    for command in ('verify-identities', 'verify-inequalities'):\n"
        "        assert cli.main([command, '--count', '128']) == 0\n"
        "verify()\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "verify()\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
    )
    run = _fresh_python("-c", probe)
    assert run.returncode == 0, run.stderr
    faults = int(run.stdout.splitlines()[-1])
    assert faults < 1000, f"{faults} minor page faults in a repeated pass of both verify commands"


def test_run_config_error_exit(tmp_path, capsys):
    bad = GOOD.replace("dt = 1e-3", "dt = -2")
    code = cli.main(["run", write_config(tmp_path, bad)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("llbar: config-error: ")
    assert err.count("\n") == 1, "diagnostics must land on a single line"


@pytest.mark.parametrize("where", ["file", "override"])
def test_removed_scheme_is_one_config_error(tmp_path, capsys, where):
    out = tmp_path / "out"
    text = GOOD.replace("directory = out", f"directory = {out}")
    if where == "file":
        argv = ["run", write_config(tmp_path, text.replace("t_end = 0.01", "t_end = 0.01\nscheme = IMEX-CNAB2"))]
    else:
        argv = ["run", write_config(tmp_path, text), "--override", "integrator.scheme=IMEX-CNAB2"]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("llbar: config-error: [integrator]") and err.count("\n") == 1, err
    assert "ETDRK2, IMEX-Euler" in err, err
    assert not out.exists()


def test_run_blowup_flushes_partial_output(tmp_path, capsys):
    text = textwrap.dedent(
        f"""\
        [grid]
        extents = 1.0
        points = 16

        [params]
        beta1 = -5.0
        beta2 = 0.0
        beta3 = 0.0
        beta4 = 0.0
        beta5 = 0.0

        [integrator]
        dt = 1e-3
        t_end = 0.05

        [initial]
        kind = eigenmode
        mode = 8

        [output]
        directory = {tmp_path}/boom
        """
    )
    code = cli.main(["run", write_config(tmp_path, text)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("llbar: blowup: ")
    lines = (tmp_path / "boom" / "state_ledger.csv").read_text().splitlines()
    assert 2 < len(lines) < 52, "partial ledger expected, not the full horizon"


def test_run_missing_files_exit_io(tmp_path, capsys):
    assert cli.main(["run", str(tmp_path / "absent.ini")]) == 5
    assert capsys.readouterr().err.startswith("llbar: io-error: ")
    text = GOOD.replace("kind = constant", "kind = file")
    text = text.replace("value = 1.0, 0.0, 0.0", f"path = {tmp_path}/ghost.snap")
    text = text.replace("directory = out", f"directory = {tmp_path}/out")
    assert cli.main(["run", write_config(tmp_path, text)]) == 5


def test_run_truncated_snapshot_exits_io(tmp_path, capsys):
    snap = tmp_path / "cut.snap"
    snap.write_bytes(b"LLBR\x01\x00")
    text = GOOD.replace("kind = constant", "kind = file")
    text = text.replace("value = 1.0, 0.0, 0.0", f"path = {snap}")
    text = text.replace("directory = out", f"directory = {tmp_path}/out")
    assert cli.main(["run", write_config(tmp_path, text)]) == 5
    err = capsys.readouterr().err
    assert err.startswith("llbar: io-error: ") and "truncated" in err, err
    assert err.count("\n") == 1


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "argv",
    [
        ["run", "{huge}"],
        ["run", "{late}"],
        ["holder", "--amplitude", "1e200"],
        ["depend", "--amplitude", "1e200"],
        ["converge", "--amplitude", "1e200", "--bands", "4,8"],
        ["depend", "--delta", "1e300"],
        ["run", "{last}"],
    ],
)
def test_overflow_is_one_blowup_line(tmp_path, capsys, argv):
    # overflowing fields exit 3 with one line and no numpy warning; run
    # writes nothing when the t = 0 record overflows (1e100) and keeps the
    # finite records before an overflow (1e9 under a 1e10 threshold), also
    # when the overflow is the state after the last step
    out = tmp_path / "out"
    text = GOOD.replace("directory = out", f"directory = {out}")
    huge = text.replace("value = 1.0, 0.0, 0.0", "value = 1e100, 0.0, 0.0")
    late = text.replace("value = 1.0, 0.0, 0.0", "value = 1e9, 0.0, 0.0")
    late = late.replace("t_end = 0.01", "t_end = 0.01\nblowup_threshold = 1e10")
    last = late.replace("t_end = 0.01", "t_end = 0.001")
    paths = {
        "huge": write_config(tmp_path, huge, "huge.ini"),
        "late": write_config(tmp_path, late, "late.ini"),
        "last": write_config(tmp_path, last, "last.ini"),
    }
    assert cli.main([arg.format(**paths) for arg in argv]) == 3
    err = capsys.readouterr().err
    assert err.startswith("llbar: blowup: ") and err.count("\n") == 1, err
    if argv in (["run", "{late}"], ["run", "{last}"]):
        names = sorted(p.name for p in out.iterdir())
        assert names == ["state_000000.snap", "state_ledger.csv"], names
        assert len((out / "state_ledger.csv").read_text().splitlines()) == 2
    else:
        assert not out.exists()


def test_run_ledger_evaluates_each_record_once(tmp_path, capsys, monkeypatch):
    # the late run aborts after one step and its second record overflows: the
    # ledger keeps the first, and each record's norms run once
    out = tmp_path / "out"
    text = GOOD.replace("directory = out", f"directory = {out}")
    late = text.replace("value = 1.0, 0.0, 0.0", "value = 1e9, 0.0, 0.0")
    late = late.replace("t_end = 0.01", "t_end = 0.01\nblowup_threshold = 1e10")
    trajs, times = [], []
    integrate, norms = stepping.integrate, diagnostics.norms

    def recorded(*args, **kwargs):
        trajs.append(integrate(*args, **kwargs))
        return trajs[-1]

    def counted(u, t=0.0):
        times.append(t)
        return norms(u, t)

    monkeypatch.setattr(stepping, "integrate", recorded)
    monkeypatch.setattr(diagnostics, "norms", counted)
    assert cli.main(["run", write_config(tmp_path, late)]) == 3
    assert capsys.readouterr().err.startswith("llbar: blowup: ")
    (traj,) = trajs
    assert traj.aborted and len(traj) == 2
    assert times == traj.times
    assert len((out / "state_ledger.csv").read_text().splitlines()) == 2


def test_depend_accepts_a_delta_resolved_to_1e_4(capsys):
    # at the defaults 1e-14 is 3.6e-5 off its requested size and passes;
    # 1e-16, 4.3e-3 off, is the first size rejected
    assert cli.main(["depend", "--delta", "1e-3,1e-14"]) == 0
    assert capsys.readouterr().out.count("delta0 ") == 2
    assert cli.main(["depend", "--delta", "1e-3,1e-16"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("llbar: config-error: --delta: 1e-16 (initial gap"), err
    assert err.count("\n") == 1


def test_tstar_subcommand(capsys):
    assert cli.main(["tstar", "--y0", "1.0"]) == 0
    assert capsys.readouterr().out == "0.25\n"
    assert cli.main(["tstar", "--y0", "0.0"]) == 2
    assert capsys.readouterr().err.startswith("llbar: config-error: ")


def test_verify_identities_smoke(capsys):
    code = cli.main(
        ["verify-identities", "--dim", "1", "--points", "8", "--modes", "4",
         "--count", "2"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert out.count(" ok") == 5, f"expected five identity lines, got:\n{out}"
    assert cli.main(["verify-identities", "--dim", "4"]) == 2


def per_draw_identities(grid, modes, seed, count):
    """The identity residuals of each draw alone.

    Parseval, the precession pairing and the completed square come from
    explicit basis matrices, the L2 law from ``galerkin.rhs`` and the norm
    suite.  The cubic-Laplacian residual is rounding noise that the
    ensemble must report to 1e-12, so its two routes repeat the ensemble's
    arithmetic one draw at a time: the pointwise product-rule form and the
    projected cube, each projected by ``fields._transform_series``.
    """
    params = cli._DEFAULT_PARAMS
    dim, pad = grid.dim, grid.padded(modes)
    vol, lam = ref.cell(grid, pad), ref.lam_of(grid, modes)
    alpha = params.beta5 / (2.0 * params.beta2)

    def inner(a, b):
        return vol * float((a * b).sum())

    rows = {}
    for index in range(count):
        v = fields.random_field(grid, modes, seed=seed, index=index, decay=4.0)
        c = v.coeffs
        coeff_sq = float((c**2).sum())
        u, lap = ref.values(grid, c, (0,) * dim, pad), ref.values(grid, -lam * c, (0,) * dim, pad)
        x, y = ref.jacobian(grid, -lam * c, pad), ref.cubic_gradient(u, ref.jacobian(grid, c, pad))
        square_lhs = (
            2.0 * params.beta2 * inner(x, x)
            - (4.0 * alpha * params.beta2 + 2.0 * params.beta5) * inner(x, y)
            + 4.0 * alpha * params.beta5 * inner(y, y)
        )
        z = math.sqrt(2.0 * params.beta2) * x - math.sqrt(4.0 * alpha * params.beta5) * y
        direct = fields._transform_series(
            operators.cubic_laplacian_values(v), grid.extents, ("cos",) * dim, modes
        )
        composed = operators.laplacian(operators.cubic_band(v)).coeffs
        pairing = float((galerkin.rhs(v, params).coeffs * c).sum())
        suite = diagnostics.norms(v)
        dissipation = (
            -params.beta1 * suite.gradL2**2
            - params.beta2 * suite.deltaL2**2
            - params.beta3 * suite.L4**4
            + params.beta3 * suite.L2**2
            - 2.0 * params.beta5 * suite.uDotGradU**2
            - params.beta5 * suite.absUabsGradU**2
        )
        precession = float((ref.project(grid, np.cross(u, lap, axis=0), modes, pad) * c).sum())
        residuals = {
            "parseval": abs(inner(u, u) - coeff_sq) / max(1.0, coeff_sq),
            "cubic_laplacian_routes": np.linalg.norm(direct - composed)
            / max(1.0, np.linalg.norm(direct)),
            "l2_balance": abs(pairing - dissipation)
            / max(1.0, abs(pairing), abs(dissipation)),
            "precession_orthogonality": abs(precession) / max(1.0, coeff_sq),
            "completed_square": abs(square_lhs - inner(z, z))
            / max(1.0, abs(square_lhs), inner(z, z)),
        }
        for name, value in residuals.items():
            rows.setdefault(name, []).append(value)
    return {name: np.array(values) for name, values in rows.items()}


@pytest.mark.parametrize(
    "dim,points,modes", [(1, 8, 4), (1, 8, 8), (2, 8, 4), (2, 8, 8), (3, 4, 2), (3, 4, 4)]
)
def test_identity_ensemble_matches_per_draw_routes(dim, points, modes):
    grid, band = cli._ensemble_space(dim, points, modes)
    block = diagnostics._IDENTITY_BLOCK
    reference = per_draw_identities(grid, band, 3, 2 * block + 1)
    for count in (1, block - 1, block + 1, 2 * block + 1):
        worst = diagnostics.identity_ensemble(grid, band, cli._DEFAULT_PARAMS, 3, count)
        assert list(worst) == list(reference)
        for name, (value, index) in worst.items():
            per_draw = reference[name][:count]
            top = float(per_draw.max())
            assert abs(value - top) <= 1e-12 * top or max(value, top) < 1e-14, (name, count)
            runner_up = np.sort(per_draw)[-2] if count > 1 else -math.inf
            if top - runner_up > 1e-15:  # a maximum tied within rounding has no fixed witness
                assert index == int(np.argmax(per_draw)), (name, count)


def test_identity_ensemble_rejects_an_empty_ensemble():
    grid, modes = cli._ensemble_space(1, 8, 4)
    with pytest.raises(ValueError, match="count must be at least 1, got 0"):
        diagnostics.identity_ensemble(grid, modes, cli._DEFAULT_PARAMS, 0, 0)


def test_identity_ensemble_memory_is_flat_in_count():
    grid, modes = cli._ensemble_space(2, 16, 8)
    block = diagnostics._IDENTITY_BLOCK
    diagnostics.identity_ensemble(grid, modes, cli._DEFAULT_PARAMS, 0, block)  # warm caches
    peaks = []
    for count in (block, 8 * block):
        tracemalloc.start()
        try:
            diagnostics.identity_ensemble(grid, modes, cli._DEFAULT_PARAMS, 0, count)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.25 * peaks[0], f"peak {peaks[1]} B at 8 blocks vs {peaks[0]} B at one"


def test_identity_ensemble_evaluates_one_rhs_per_block(monkeypatch):
    # the l2_balance pairing evaluates each block of draws as one stack
    grid, modes = cli._ensemble_space(2, 16, 8)
    calls, nonlinear_term = [], galerkin.nonlinear_term

    def counting(v, params):
        calls.append(v.coeffs.shape[0])
        return nonlinear_term(v, params)

    monkeypatch.setattr(galerkin, "nonlinear_term", counting)
    block = diagnostics._IDENTITY_BLOCK
    diagnostics.identity_ensemble(grid, modes, cli._DEFAULT_PARAMS, 0, 2 * block + 2)
    assert calls == [block, block, 2]


def test_verify_identities_failure_names_the_per_draw_witness(capsys, monkeypatch):
    grid, modes = cli._ensemble_space(2, 16, 8)
    reference = per_draw_identities(grid, modes, 0, 128)
    maxima = sorted((float(r.max()), name) for name, r in reference.items())
    (runner_up, _), (top, name) = maxima[-2:]
    assert top > 10.0 * runner_up  # so exactly one row fails
    monkeypatch.setattr(cli, "_IDENTITY_TOL", 0.5 * top)
    assert cli.main(["verify-identities", "--count", "128", "--seed", "0"]) == 4
    out, err = capsys.readouterr()
    assert f"{name:<26s} max residual" in out and out.count(" FAIL") == 1, out
    assert err.startswith("llbar: assertion-failure: ") and err.count("\n") == 1, err
    index = int(np.argmax(reference[name]))
    assert f"{name}: residual " in err and f"(witness seed 0, index {index})" in err, err


def test_converge_rejects_bad_bands(capsys):
    assert cli.main(["converge", "--bands", "8"]) == 2
    assert cli.main(["converge", "--bands", "16,8"]) == 2
    assert cli.main(["converge", "--initial", "mystery"]) == 2
    capsys.readouterr()


def test_converge_flags_slow_decay(tmp_path, capsys):
    # non-doubling band steps cannot earn a 10x gap drop on a rough draw
    code = cli.main(
        ["converge", "--bands", "4,6,8", "--dim", "1", "--tend", "0.02",
         "--decay", "1.0", "--amplitude", "0.4"]
    )
    captured = capsys.readouterr()
    assert code == 4, f"stdout:\n{captured.out}\nstderr:\n{captured.err}"
    assert captured.err.startswith("llbar: assertion-failure: ")
    assert "seed 0" in captured.err

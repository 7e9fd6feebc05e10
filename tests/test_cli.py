"""CLI contract: subcommands, exit codes, config file, byte determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from nillab.cli import (COMMANDS, SYSTEMS, ConfigError, UsageError, build_parser,
                        build_system, main, parse_descriptor, resolved_config)


def run(argv):
    return main(argv)


def test_parse_descriptor():
    name, params = parse_descriptor("rotation:alpha=golden")
    assert name == "rotation" and params == {"alpha": "golden"}
    assert parse_descriptor("fullshift") == ("fullshift", {})


@pytest.mark.parametrize("descriptor", [
    "skew:alpah=0.3", "heisenberg:tau=0.1/0.2/0.3", "fullshift:K=3",
    "sturmian:alpha=0.3,alpha=0.4", "rotation:alpha=0.1,alpha=0.1",
    "furstenberg:alpha=0.3", "furstenberg:K=5,coeffs=table.csv",
])
def test_unknown_or_repeated_descriptor_key_is_a_config_error(tmp_path, descriptor, capsys):
    with pytest.raises(ConfigError):
        build_system(descriptor)
    out = tmp_path / "o.csv"
    assert run(["simulate", "--system", descriptor, "--steps", "3", "--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err and not out.exists()


def test_descriptor_keys_are_declared_once():
    # a descriptor that spells out every key its constructor takes builds
    for descriptor in ("rotation:alpha=0.3", "skew:alpha=0.3", "sturmian:alpha=0.3,L=4",
                       "fullshift:k=3,L=4,reserve=10", "heisenberg:a=0.3,b=0.2,c=0.1",
                       "nilsystem:group=heisenberg3,tau=0.3/0.2/0.1",
                       "furstenberg:K=5,lam=0.5"):
        name, params = parse_descriptor(descriptor)
        assert set(params) <= set(SYSTEMS[name][0])
        build_system(descriptor)


def test_unknown_subcommand_usage_exit():
    assert run(["frobnicate"]) == 64
    assert run([]) == 64


def test_validate_group_ok(capsys):
    assert run(["validate-group", "--spec", "heisenberg3"]) == 0
    out = capsys.readouterr().out
    assert "ok" in out
    assert run(["validate-group", "--spec", "abelian2"]) == 0


def test_search_commands_require_seed(tmp_path):
    code = run(["rp-test", "--system", "rotation:alpha=golden", "--x", "0.1",
                "--y", "0.2", "--out-json", str(tmp_path / "o.json")])
    assert code == 2


def test_config_error_exit(tmp_path):
    code = run(["simulate", "--system", "nosuch:alpha=1", "--steps", "3",
                "--out", str(tmp_path / "o.csv")])
    assert code == 2


def test_budget_exhaustion_exit(tmp_path):
    code = run(["complexity", "--system", "rotation:alpha=golden", "--eps",
                "0.001", "--n-max", "10", "--max-cells", "50",
                "--out", str(tmp_path / "c.csv")])
    assert code == 3


@pytest.mark.parametrize("argv", [
    ["complexity", "--system", "sturmian:alpha=golden", "--eps", "0.1", "--n-max", "20",
     "--max-cells", "10"],
    ["complexity", "--system", "fullshift:k=2", "--eps", "0.25", "--n-max", "20"],
    ["ind-check", "--system", "skew:alpha=golden", "--targets",
     "ball:0.2/0.1@0.05 ball:0.2/0.7@0.05", "--F", "0,1,2,3,4,5", "--max-cells", "10",
     "--seed", "0"],
], ids=["sturmian-grid", "fullshift-grid", "pattern-count"])
def test_a_cap_past_max_cells_is_a_budget_exit(tmp_path, argv, capsys):
    out = tmp_path / "o.json"
    assert run(argv + ["--out-json", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("budget exceeded: ") and "max_points" not in err
    assert not out.exists()


def test_a_system_without_a_grid_is_a_precondition_exit(tmp_path, capsys):
    assert run(["complexity", "--system", "furstenberg:K=5", "--eps", "0.1", "--n-max",
                "10", "--out", str(tmp_path / "c.csv")]) == 2
    assert capsys.readouterr().err == (
        "config error: system offers no grid for covering estimates\n")


def test_complexity_writes_a_curve_that_admits_no_fit(tmp_path, capsys):
    csv, js = tmp_path / "curve.csv", tmp_path / "fit.json"
    assert run(["complexity", "--system", "rotation:alpha=golden", "--eps", "0.1",
                "--n-grid", "10,11,12,13,14,15,16,17",
                "--out", str(csv), "--out-json", str(js)]) == 0
    report = json.loads(js.read_text())["report"]
    assert report["fit"] is None
    assert [rec["n"] for rec in report["records"]] == list(range(10, 18))
    assert len([l for l in csv.read_text().splitlines() if not l.startswith("#")]) == 9
    assert "growth class" not in capsys.readouterr().out
    for horizons in ("--n-max=0", "--n-max=-5", "--n-grid=-1,5"):
        assert run(["complexity", "--system", "rotation:alpha=golden", "--eps", "0.1",
                    horizons, "--out", str(tmp_path / "e.csv")]) == 2
        assert "the n-grid needs at least one horizon" in capsys.readouterr().err
        assert not (tmp_path / "e.csv").exists()


@pytest.mark.parametrize("system", ["rotation:alpha=golden", "heisenberg"])
def test_simulate_negative_steps_is_a_precondition_exit(tmp_path, system, capsys):
    out = tmp_path / "o.csv"
    assert run(["simulate", "--system", system, "--steps", "-3", "--out", str(out)]) == 2
    assert "config error: orbit span 0..-4 has negative length" in capsys.readouterr().err
    assert not out.exists()
    # zero steps is the empty orbit: a header-only file
    assert run(["simulate", "--system", system, "--steps", "0", "--out", str(out)]) == 0
    assert [l for l in out.read_text().splitlines() if not l.startswith("#")][1:] == []


def test_simulate_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        assert run(["simulate", "--system", "skew:alpha=golden", "--start",
                    "0.1/0.2", "--steps", "50", "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()
    header = a.read_text().splitlines()
    assert any(line.startswith("# artifact_version=") for line in header)
    assert any(line.startswith("# system=") for line in header)


def test_complexity_command(tmp_path):
    csv, js = tmp_path / "curve.csv", tmp_path / "fit.json"
    code = run(["complexity", "--system", "rotation:alpha=golden", "--eps", "0.1",
                "--n-grid", "1,2,3,5,8,10,16,26,42,65,100",
                "--out", str(csv), "--out-json", str(js)])
    assert code == 0
    fit = json.loads(js.read_text())
    assert fit["report"]["fit"]["class"] == "bounded"
    rows = [l for l in csv.read_text().splitlines() if not l.startswith("#")]
    assert rows[0] == "n,r,net_size,grid,epsilon"
    rs = {int(r.split(",")[0]): int(r.split(",")[1]) for r in rows[1:]}
    assert rs[100] == rs[10]


def test_rp_test_command(tmp_path):
    js = tmp_path / "rp.json"
    code = run(["rp-test", "--system", "skew:alpha=golden", "--x", "0.2/0.1",
                "--y", "0.2/0.7", "--d", "1", "--delta", "0.05",
                "--n-range", "5000", "--seed", "1", "--out-json", str(js)])
    assert code == 0
    rep = json.loads(js.read_text())["report"]
    assert rep["found"] is True
    assert rep["achieved_delta"] < 0.05


def test_ip_search_command_deterministic(tmp_path):
    outs = []
    for name in ("l1.csv", "l2.csv"):
        path = tmp_path / name
        code = run(["ip-search", "--system", "sturmian:alpha=golden",
                    "--targets", "cyl:0@0 cyl:1@0", "--m", "2", "--bound", "12",
                    "--ladder", "--seed", "0", "--out", str(path)])
        assert code == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]
    text = outs[0].decode()
    assert "witness" in text and "exhausted" in text


def test_ind_check_command(tmp_path):
    js = tmp_path / "ind.json"
    code = run(["ind-check", "--system", "fullshift:k=2", "--targets",
                "cyl:0@0 cyl:1@0", "--F", "0,1,2", "--seed", "0",
                "--out-json", str(js)])
    assert code == 0
    rep = json.loads(js.read_text())["report"]
    assert rep["verified"] is True and rep["method"] == "exact-language"


def test_cube_criterion_command(tmp_path):
    js = tmp_path / "cube.json"
    code = run(["cube-criterion", "--system", "fullshift:k=2", "--x1",
                "00000000000", "--x2", "11111111111", "--d", "2", "--delta",
                "0.05", "--seed", "0", "--out-json", str(js)])
    assert code == 0
    rep = json.loads(js.read_text())["report"]
    assert rep["all_realized"] is True


def test_averages_command(tmp_path):
    csv = tmp_path / "avg.csv"
    code = run(["averages", "--system", "rotation:alpha=golden", "--observable",
                "cos:0", "--start", "0", "--n-max", "4096", "--out", str(csv)])
    assert code == 0
    rows = [l for l in csv.read_text().splitlines() if not l.startswith("#")]
    assert rows[0] == "N,A_N"


def test_config_file_defaults_with_flag_override(tmp_path):
    cfg = tmp_path / "exp.ini"
    cfg.write_text("[simulate]\nsystem = rotation:alpha=golden\nsteps = 7\n")
    out = tmp_path / "o.csv"
    code = run(["--config", str(cfg), "simulate", "--start", "0",
                "--out", str(out)])
    assert code == 0
    rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert len(rows) == 1 + 7
    # explicit flag wins over the config value
    code = run(["--config", str(cfg), "simulate", "--start", "0", "--steps",
                "3", "--out", str(out)])
    assert code == 0
    rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert len(rows) == 1 + 3


def test_averages_probe_command(tmp_path):
    js = tmp_path / "probe.json"
    code = run(["averages", "--system", "rotation:alpha=golden", "--probe",
                "--starts", "3", "--n-max", "20000", "--seed", "3",
                "--out-json", str(js)])
    assert code == 0
    rep = json.loads(js.read_text())["report"]
    assert "unique ergodicity" in rep["verdict"]


def test_validate_group_json_report(tmp_path):
    js = tmp_path / "vg.json"
    assert run(["validate-group", "--spec", "heisenberg3",
                "--out-json", str(js)]) == 0
    rep = json.loads(js.read_text())["report"]
    assert rep["ok"] is True


def test_furstenberg_coeffs_csv(tmp_path):
    table = tmp_path / "coeffs.csv"
    table.write_text("k,n_k\n1,1\n2,2\n3,5\n")
    out = tmp_path / "f.csv"
    code = run(["simulate", "--system",
                "furstenberg:alpha=golden,coeffs=%s,lam=0.5" % table,
                "--start", "0.1/0.2", "--steps", "5", "--out", str(out)])
    assert code == 0


def _data_rows(path):
    return [l for l in path.read_text().splitlines() if not l.startswith("#")]


def test_threads_flag_before_subcommand(tmp_path):
    # the value of --threads must not be taken for the subcommand
    ladder = ["ip-search", "--system", "sturmian:alpha=golden", "--targets",
              "cyl:0@0 cyl:1@0", "--m", "2", "--bound", "15", "--ladder",
              "--seed", "7", "--out"]
    one, two = tmp_path / "one.csv", tmp_path / "two.csv"
    assert run(["--threads", "1"] + ladder + [str(one)]) == 0
    assert run(["--threads", "2"] + ladder + [str(two)]) == 0
    assert two.read_bytes() == one.read_bytes()      # the header holds no thread count

    cfg = tmp_path / "exp.ini"
    cfg.write_text("[simulate]\nsystem = rotation:alpha=golden\nsteps = 7\n")
    out = tmp_path / "o.csv"
    assert run(["--config", str(cfg), "--threads", "2", "simulate", "--start", "0",
                "--out", str(out)]) == 0
    assert len(_data_rows(out)) == 1 + 7


# -- one front-end path: every argv gives an exit code, never an exception ------


def _ini(tmp_path, text):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(text)
    return str(cfg)


def test_config_boolean_flag(tmp_path):
    # `ladder = true` is read as a boolean, not injected as `--ladder true`
    out = tmp_path / "l.csv"
    cfg = _ini(tmp_path, "[ip-search]\nladder = true\n")
    assert run(["--config", cfg, "ip-search", "--system", "sturmian:alpha=golden",
                "--m", "2", "--bound", "12", "--seed", "0", "--out", str(out)]) == 0
    assert [r.split(",")[0] for r in _data_rows(out)[1:]] == ["1", "2"]


def test_common_key_skipped_by_subcommand_without_the_flag(tmp_path):
    cfg = _ini(tmp_path, "[common]\nsystem = rotation:alpha=golden\n")
    assert run(["--config", cfg, "validate-group", "--spec", "heisenberg3"]) == 0


@pytest.mark.parametrize("text", [
    "[simulate]\nbogus = 1\n",
    "[common]\nbogus = 1\n",
    "[complexity]\nbogus = 1\n",
    "[simulat]\nsteps = 3\n",
    "[common]\nthreads = 2\n",
], ids=["command-section", "common-section", "other-command-section",
        "unknown-section", "global-option"])
def test_config_key_without_a_flag_is_config_error(tmp_path, text):
    assert run(["--config", _ini(tmp_path, text), "simulate", "--system",
                "rotation:alpha=golden", "--out", str(tmp_path / "o.csv")]) == 2


@pytest.mark.parametrize("text", [
    "[simulate]\nsteps = abc\n", "[common]\nsteps = 1.5\n", "[averages]\nprobe = maybe\n",
    "no section header\n",
], ids=["int", "common-int", "boolean", "malformed-file"])
def test_config_value_that_does_not_convert_is_config_error(tmp_path, text):
    command = "averages" if "averages" in text else "simulate"
    assert run(["--config", _ini(tmp_path, text), command, "--system",
                "rotation:alpha=golden", "--out", str(tmp_path / "o.csv")]) == 2


def test_config_value_fills_required_flag(tmp_path):
    out = tmp_path / "cfg.csv"
    cfg = _ini(tmp_path, "[simulate]\nout = %s\n" % out)
    assert run(["--config", cfg, "simulate", "--system", "rotation:alpha=golden",
                "--steps", "3"]) == 0
    assert len(_data_rows(out)) == 1 + 3


@pytest.mark.parametrize("text", [
    "[common]\nsteps = 5\n[simulate]\nsteps = 7\n",
    "[simulate]\nsteps = 7\n[common]\nsteps = 5\n",
], ids=["common-first", "command-first"])
def test_config_section_precedence(tmp_path, text):
    out = tmp_path / "o.csv"
    argv = ["--config", _ini(tmp_path, text), "simulate", "--system",
            "rotation:alpha=golden", "--start", "0", "--out", str(out)]
    assert run(argv) == 0
    assert len(_data_rows(out)) == 1 + 7
    assert run(argv + ["--steps", "3"]) == 0
    assert len(_data_rows(out)) == 1 + 3


@pytest.mark.parametrize("argv", [
    ["simulate", "--system", "rotation:alpha=golden", "--bogus", "--out", "o.csv"],
    ["simulate", "--system", "rotation:alpha=golden"],
    ["simulate", "--system", "rotation:alpha=golden", "--steps", "abc", "--out", "o.csv"],
    ["--threads", "x", "simulate"],
    ["simulate", "--config", "exp.ini", "--out", "o.csv"],
], ids=["unknown-flag", "missing-required-flag", "bad-value", "bad-global-value",
        "global-option-after-subcommand"])
def test_usage_errors_exit_64(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 64
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("argv", [["--help"], ["-h", "simulate"]]
                         + [[name, "--help"] for name in COMMANDS])
def test_help_is_the_full_parsers(capsys, argv):
    # main builds only the named subcommand's options; its help cannot tell
    with pytest.raises(SystemExit) as full:
        build_parser({}).parse_args(argv)
    want = capsys.readouterr().out
    with pytest.raises(SystemExit) as lazy:
        main(argv)
    assert lazy.value.code == full.value.code == 0
    assert capsys.readouterr().out == want and want.startswith("usage: nillab ")


@pytest.mark.parametrize("name", list(COMMANDS))
def test_usage_errors_are_the_full_parsers(capsys, name):
    for argv in ([name, "--bogus"], [name, "--seed", "x"], [name, "--out-json"]):
        with pytest.raises(UsageError) as full:
            build_parser({}).parse_args(argv)
        assert run(argv) == 64
        assert capsys.readouterr().err == "usage error: %s\n" % full.value


def test_missing_system_is_config_error(tmp_path):
    assert run(["simulate", "--out", str(tmp_path / "x.csv")]) == 2
    assert run(["averages", "--out", str(tmp_path / "x.csv")]) == 2


@pytest.mark.parametrize("argv", [
    ["simulate", "--system", "skew:alpha=golden", "--start", "0.1", "--out"],
    ["rp-test", "--system", "skew:alpha=golden", "--x", "0.2/0.1", "--y", "0.1",
     "--seed", "0", "--out-json"],
    ["ind-check", "--system", "rotation:alpha=golden", "--targets",
     "ball:0.1/0.2@0.1 ball:0.5@0.1", "--F", "0,1", "--seed", "0", "--out-json"],
    ["cube-criterion", "--system", "heisenberg", "--x1", "0.1/0.2/0.3/0.4",
     "--x2", "0.1/0.2/0.3", "--seed", "0", "--out-json"],
    # furstenberg points are theta1/theta2, whatever the width of their rows
    ["simulate", "--system", "furstenberg:K=5", "--start", "0.1/0.2/0.3", "--out"],
    ["ind-check", "--system", "furstenberg:K=5", "--targets",
     "ball:0.1/0.2@0.05 ball:0.5@0.05", "--F", "0,1", "--seed", "0", "--out-json"],
], ids=["short-start", "short-point", "wide-ball-centre", "wide-point",
        "furstenberg-wide-start", "furstenberg-short-ball-centre"])
def test_point_width_is_checked(tmp_path, argv):
    out = tmp_path / "out"
    assert run(argv + [str(out)]) == 2
    assert not out.exists()


def test_fullshift_ball_centre_reads_its_own_reach(tmp_path):
    # a full-shift ball centre is the centre row's symbols, shorter than the window
    js = tmp_path / "ind.json"
    assert run(["ind-check", "--system", "fullshift:k=2", "--targets",
                "ball:0/1/0@0.3 ball:1/1/1@0.3", "--F", "0,1", "--seed", "0",
                "--out-json", str(js)]) == 0
    rep = json.loads(js.read_text())["report"]
    assert rep["method"] == "exact-language" and rep["verified"] is False


def test_averages_probe_with_several_observables(tmp_path):
    js = tmp_path / "probe.json"
    assert run(["averages", "--system", "skew:alpha=golden", "--probe",
                "--observable", "cos:0 coord:0 cos:1", "--n-max", "2000",
                "--out-json", str(js)]) == 0
    spreads = json.loads(js.read_text())["report"]["spreads"]
    assert sorted(spreads) == ["coord[0]", "cos2pi[0]", "cos2pi[1]"]


def test_averages_probe_single_observable_keeps_its_trio(tmp_path):
    js = tmp_path / "probe.json"
    assert run(["averages", "--system", "skew:alpha=golden", "--probe",
                "--observable", "cos:1", "--n-max", "2000",
                "--out-json", str(js)]) == 0
    spreads = json.loads(js.read_text())["report"]["spreads"]
    assert sorted(spreads) == ["coord[0]", "cos2pi[0]", "cos2pi[1]"]


@pytest.mark.parametrize("argv", [
    ["--observable", "cos:2", "--out", "avg.csv"],
    ["--observable", "coord:-1", "--out", "avg.csv"],
    ["--observable", "cos:0 coord:0", "--out", "avg.csv"],
    ["--out-json", "avg.json"],
    ["--probe", "--out", "avg.csv"],
    # the probe samples its own --starts: a --start would be ignored
    ["--probe", "--start", "0.1/0.2", "--out-json", "avg.json"],
], ids=["index-past-width", "negative-index", "two-without-probe", "no-out",
        "probe-without-out-json", "probe-with-start"])
def test_averages_bad_observable_or_output_is_config_error(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    assert run(["averages", "--system", "skew:alpha=golden", "--n-max", "100"]
               + argv) == 2
    assert list(tmp_path.iterdir()) == []


def test_entry_point_exit_codes(tmp_path):
    # the console script `nillab = nillab.cli:main` as a process
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    for argv, code in [(["simulate", "--system", "rotation:alpha=golden", "--bogus",
                         "--out", "o.csv"], 64),
                       (["simulate", "--out", "o.csv"], 2)]:
        proc = subprocess.run([sys.executable, "-m", "nillab.cli"] + argv, cwd=tmp_path,
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == code, proc.stderr
        assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [
    ["ip-search", "--system", "fullshift:k=2", "--targets", "cyl:0@0 cyl:5@0",
     "--m", "1", "--bound", "3", "--seed", "0", "--out"],
    ["ind-check", "--system", "fullshift:k=3", "--targets", "cyl:0@0 cyl:13@1",
     "--F", "0,1", "--seed", "0", "--out-json"],
    ["simulate", "--system", "fullshift:k=2", "--start", "0157", "--steps", "3", "--out"],
    # the same on rotation codings: no arc of the partition has the symbol
    ["ind-check", "--system", "sturmian:alpha=golden", "--targets", "cyl:0@0 cyl:5@0",
     "--F", "0,2", "--seed", "0", "--out-json"],
    ["ip-search", "--system", "rotation:alpha=golden", "--targets", "cyl:0@0 cyl:1@0",
     "--m", "1", "--bound", "3", "--seed", "0", "--out"],
])
def test_fullshift_symbol_outside_the_alphabet_is_a_config_error(tmp_path, argv, capsys):
    out = tmp_path / "o.out"
    assert run(argv + [str(out)]) == 2
    assert "config error" in capsys.readouterr().err and not out.exists()


def test_furstenberg_points_and_ball_centres_are_theta1_theta2(tmp_path, capsys):
    # the handle's make_point reads the literal, for points and ball centres alike
    js = tmp_path / "ind.json"
    assert run(["ind-check", "--system", "furstenberg:K=5", "--targets",
                "ball:0.1/0.2@0.05 ball:0.5/0.5@0.05", "--F", "0,1", "--seed", "0",
                "--out-json", str(js)]) == 0
    assert json.loads(js.read_text())["report"]["patterns_checked"] == 4
    out = tmp_path / "sim.csv"
    assert run(["simulate", "--system", "furstenberg:K=5", "--start", "0.1/0.2/0.3",
                "--out", str(out)]) == 2
    assert "furstenberg points are theta1/theta2" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("system", ["skew:alpha=golden", "heisenberg"])
def test_cylinder_on_a_system_without_symbols_is_a_config_error(tmp_path, system, capsys):
    js = tmp_path / "k.json"
    assert run(["ind-check", "--system", system, "--targets", "cyl:0@0 cyl:1@0",
                "--F", "0,1", "--seed", "0", "--out-json", str(js)]) == 2
    assert "config error" in capsys.readouterr().err and not js.exists()


def test_rotation_cylinders_keep_their_exact_arcs_route(tmp_path):
    js = tmp_path / "k.json"
    assert run(["ind-check", "--system", "rotation:alpha=golden", "--targets",
                "cyl:0@0 cyl:0@1", "--F", "0,1", "--seed", "0", "--out-json", str(js)]) == 0
    rep = json.loads(js.read_text())["report"]
    assert rep["exact"] and rep["verified"] and rep["note"].startswith("arc-intersection")


@pytest.mark.parametrize("argv", [
    ["complexity", "--system", "rotation:alpha=golden", "--eps", "0", "--n-grid", "1",
     "--out"],
    ["complexity", "--system", "rotation:alpha=golden", "--eps", "-0.1", "--n-grid", "1",
     "--out"],
    ["cube-criterion", "--system", "skew:alpha=golden", "--x1", "0.1/0.1", "--x2",
     "0.2/0.2", "--delta", "0", "--seed", "0", "--out-json"],
    ["cube-criterion", "--system", "skew:alpha=golden", "--x1", "0.1/0.1", "--x2",
     "0.2/0.2", "--delta", "-1", "--seed", "0", "--out-json"],
    ["cube-criterion", "--system", "skew:alpha=golden", "--x1", "0.1/0.1", "--x2",
     "0.2/0.2", "--delta", "nan", "--seed", "0", "--out-json"],
    ["rp-test", "--system", "skew:alpha=golden", "--x", "0.2/0.1", "--y", "0.2/0.7",
     "--delta", "nan", "--seed", "0", "--out-json"],
    ["ind-check", "--system", "rotation:alpha=golden", "--targets",
     "ball:0.1@0.1 ball:0.5@0", "--F", "0,1", "--seed", "0", "--out-json"],
], ids=["eps-zero", "eps-negative", "cube-delta-zero", "cube-delta-negative",
        "cube-delta-nan", "rp-delta-nan", "ball-radius-zero"])
def test_a_scale_that_is_not_positive_is_a_config_error(tmp_path, argv, capsys):
    out = tmp_path / "o.out"
    assert run(argv + [str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error: ") and not out.exists()


def _every_option(options):
    """argv tail setting each option, output paths included, to a typed value."""
    argv = []
    for flag, kw in options:
        if kw.get("action") == "store_true":
            argv.append(flag)
        else:
            argv += [flag, {int: "1", float: "0.5"}.get(kw.get("type"), "x")]
    return argv


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_header_holds_every_option_but_the_outputs(name):
    options = COMMANDS[name][3]
    args = build_parser({}, name).parse_args(
        ["--threads", "2", name] + _every_option(options))
    header = resolved_config(args)
    # keys are argparse dests: --F stays F, --n-grid is n_grid
    want = {flag.lstrip("-").replace("-", "_") for flag, _ in options} - {"out", "out_json"}
    assert set(header) == want | {"command"}
    assert "threads" not in header and "config" not in header


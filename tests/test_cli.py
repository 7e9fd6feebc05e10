"""CLI contract: subcommands, exit codes, config file, byte determinism."""

import json

import pytest

from nillab.cli import main, parse_descriptor


def run(argv):
    return main(argv)


def test_parse_descriptor():
    name, params = parse_descriptor("rotation:alpha=golden")
    assert name == "rotation" and params == {"alpha": "golden"}
    assert parse_descriptor("fullshift") == ("fullshift", {})


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
    assert _data_rows(two) == _data_rows(one)

    cfg = tmp_path / "exp.ini"
    cfg.write_text("[simulate]\nsystem = rotation:alpha=golden\nsteps = 7\n")
    out = tmp_path / "o.csv"
    assert run(["--config", str(cfg), "--threads", "2", "simulate", "--start", "0",
                "--out", str(out)]) == 0
    assert len(_data_rows(out)) == 1 + 7

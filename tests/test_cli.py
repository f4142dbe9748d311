"""CLI contract: exit codes, determinism, config handling, output formats."""

import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from greenwell import cli, model, resolvent, specfun


def run(argv):
    out = io.StringIO()
    code = cli.main(argv, stream=out)
    return code, out.getvalue()


# ----------------------------------------------------------------------
# levels
# ----------------------------------------------------------------------


def test_levels_ho_rows():
    code, out = run(["levels", "--family", "HO", "--window", "0:6"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "index,parity,eps,residual,bracket_lo,bracket_hi"
    eps = [float(l.split(",")[2]) for l in lines[1:]]
    assert eps == [0.5, 1.5, 2.5, 3.5, 4.5, 5.5]


def test_levels_parity_column():
    code, out = run(["levels", "--family", "LINEAR_ABS", "--window", "0:5"])
    assert code == 0
    parities = [l.split(",")[1] for l in out.strip().split("\n")[1:]]
    assert parities[:4] == ["even", "odd", "even", "odd"]


def test_levels_deterministic_bytes():
    args = ["levels", "--family", "HALF_HO_HALF_LINEAR", "--window", "0:5.5"]
    _, a = run(args)
    _, b = run(args)
    assert a == b


def test_invalid_family_exits_one_naming_field():
    code, out = run(["levels", "--family", "NOT_A_WELL"])
    assert code == 1


def test_family_json_inline():
    fam = {"tag": "HO", "scales": {"hbar": 1.0, "mass": 1.0, "omega1": 2.0}}
    code, out = run(["levels", "--family", json.dumps(fam), "--window", "0:3"])
    assert code == 0
    eps = [float(l.split(",")[2]) for l in out.strip().split("\n")[1:]]
    # dimensionless eps is still n + 1/2 regardless of omega
    assert eps == [0.5, 1.5, 2.5]


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------


def test_sweep_rows_and_ordering():
    code, out = run(["sweep", "--family", "HO_ASYM", "--param", "lam",
                     "--range", "0.8:1.2:0.2", "--window", "0:3", "--step", "0.01"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "param_value,root_index,eps"
    rows = [l.split(",") for l in lines[1:]]
    keys = [(float(r[0]), int(r[1])) for r in rows]
    assert keys == sorted(keys)


def test_sweep_break_exit_two_without_flag():
    args = ["sweep", "--family", "HO_ASYM", "--param", "lam",
            "--range", "0.4:0.8:0.2", "--window", "0:4", "--step", "0.01"]
    code, out = run(args)
    assert code == 2
    assert "break" in out
    code2, out2 = run(args + ["--allow-breaks"])
    assert code2 == 0


def test_sweep_requires_param():
    code, _ = run(["sweep", "--family", "HO_ASYM", "--range", "0.5:1:0.5"])
    assert code == 1


# ----------------------------------------------------------------------
# green-grid
# ----------------------------------------------------------------------


def test_green_grid_symmetric_output():
    code, out = run(["green-grid", "--family", "HO", "--energy", "2",
                     "--grid=-1:1:3"])
    assert code == 0
    vals = {}
    for line in out.strip().split("\n")[1:]:
        x, xp, v = line.split(",")
        vals[(x, xp)] = v
    assert vals[("-1", "0")] == vals[("0", "-1")]
    assert vals[("-1", "1")] == vals[("1", "-1")]


def test_green_grid_pole_exits_two():
    code, _ = run(["green-grid", "--family", "HO", "--energy", "2.5",
                   "--grid=-1:1:5"])
    assert code == 2


def test_green_grid_fixed_xp():
    code, out = run(["green-grid", "--family", "LINEAR_ABS", "--energy", "1.7",
                     "--grid=-2:2:5", "--xp", "0.3"])
    assert code == 0
    lines = out.strip().split("\n")[1:]
    assert len(lines) == 5
    assert all(l.split(",")[1] == "0.3" for l in lines)


# sha256 of the green-grid bytes on -2:2:9 (x = 0 and q = +-0.5 on the grid),
# recorded before the per-request solution memo existed
GRID_SHA256 = [
    ("HO", "2.3",
     "4c7fc06ed176885f5a5be49734055e9163635f326e46e9126dc2255040cafcef",
     "fafb29321df963915e1e5088d3bfeebb26ef81cbed7e1681c53e1d6543ab9bbd"),
    ("HO_STARK", "2.3",
     "0ee166d0b07745b7947e2b5902fe1c9ff9b6ce97c7054d168de3753f960547ca",
     "a8bd65817ab84cdb02c92a864803c89f1776c43cfb700f6ef1061a30b198ca45"),
    ("LINEAR_ABS", "1.7",
     "ac1cb88dd48ef644200acce8867afc620fe83ab464734f982233d1fd851d8bb7",
     "14ad5ae10fc2ac804882f6ee2f23112935ff64d7032db29df4091d896ab3b45e"),
    ("HO_PLUS_ABS", "2.3",
     "5dd2b97827e3508c982d6e27737c000810e51a12296acd5e1ddeb954b2775c7a",
     "1b48b754c594a226ae94eb95bcb0190d7f1fecd4d61786e1bb5f8e8cfab65348"),
    ('{"tag": "DELTA_DECORATED", "base": "HO", "scales": {"delta_position": -0.5}}', "2.3",
     "1abf2d461b0184b5922505efb73cb0c8716f4eaf07c694ef58b908f5b5d7b57d",
     "6edc13205cc27d9715c6cbe522a02f74717d25ad5c8095edb822a3aa403ae7ad"),
    ("DELTA_DECORATED(LINEAR_ABS)", "1.7",
     "146e0cf4b304593eeb1eeb8e4cafd5b0baf2a14fbde6bb55e02714b02873adf3",
     "c2898a38612f2adcbaf8cc39230396b16b7781df5029a0a2aa812004e4ab8e36"),
]


@pytest.mark.parametrize("family,energy,csv_sha,json_sha", GRID_SHA256)
def test_green_grid_bytes_pinned(family, energy, csv_sha, json_sha):
    for fmt, sha in (("csv", csv_sha), ("json", json_sha)):
        code, out = run(["green-grid", "--family", family, "--energy", energy,
                         "--grid=-2:2:9", "--format", fmt])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == sha, fmt


def _count_calls(monkeypatch, name):
    """A one-element list counting the calls made to specfun.<name>."""
    calls = [0]
    original = getattr(specfun, name)

    def counted(*args):
        calls[0] += 1
        return original(*args)
    monkeypatch.setattr(specfun, name, counted)
    return calls


@pytest.mark.parametrize("family,name,per_abscissa,per_energy", [
    ("HO", "pcf_d", 2, 0),
    ("LINEAR_ABS", "airy_all", 1, 1),
])
def test_green_grid_evaluates_each_solution_once_per_abscissa(
        monkeypatch, family, name, per_abscissa, per_energy):
    n = 9
    calls = _count_calls(monkeypatch, name)
    code, _ = run(["green-grid", "--family", family, "--energy", "1.7", f"--grid=-2:2:{n}"])
    assert code == 0
    assert 0 < calls[0] <= per_abscissa * n + per_energy


DEC_HO_SCALES = model.default_family(model.DELTA_DECORATED, base=model.HO).scales


def _on_resonance_family():
    """DELTA_DECORATED(HO) with the spike strength that makes E = 2.3 a
    decorated bound state: 1 + a G0(q, q; 2.3) = 0."""
    q = DEC_HO_SCALES.delta_position
    strength = -1.0 / resolvent.green_ho(q, q, 2.3, DEC_HO_SCALES).value
    return json.dumps({"tag": "DELTA_DECORATED", "base": "HO",
                       "scales": {"delta_strength": strength}})


def test_green_grid_poles_exit_two_for_every_family():
    for family, energy in (("LINEAR_ABS", "2.338107410459767"),     # Ai(-rho) = 0
                           ("LINEAR_ABS", "1.018792971647471"),     # Ai'(-rho) = 0
                           ("HO_PLUS_ABS", "2.537195530803947"),    # odd level
                           (_on_resonance_family(), "2.3")):
        code, _ = run(["green-grid", "--family", family, "--energy", energy,
                       "--grid=-1:1:5"])
        assert code == 2, family


def test_green_grid_failure_releases_the_memo(monkeypatch):
    argv = ["green-grid", "--family", _on_resonance_family(), "--energy", "2.3",
            "--grid=-1:1:5"]
    calls = _count_calls(monkeypatch, "pcf_d")
    made = []
    for _ in range(2):
        before = calls[0]
        assert run(argv)[0] == 2
        made.append(calls[0] - before)
    assert made[0] == made[1] > 0
    # a library call after the request finds no memo left behind
    scales = model.family_from_dict(json.loads(argv[2])).scales
    q = scales.delta_position
    before = calls[0]
    resolvent.green_ho(q, q, 2.3, scales)
    assert calls[0] - before == 2


def test_module_entry_point_runs_without_runtime_warning():
    src = str(Path(model.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "greenwell.cli",
         "levels", "--family", "HO", "--window", "0:3"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("index,parity,eps")


# ----------------------------------------------------------------------
# table1 / verify
# ----------------------------------------------------------------------


def test_table1_passes():
    code, out = run(["table1"])
    assert code == 0
    assert "PASS" in out
    assert out.count("\n") == 12  # header + 10 rows + verdict


def test_verify_single_family_small_grid():
    code, out = run(["verify", "--family", "HO", "--n-oracle", "1000", "--k", "3"])
    assert code == 0
    assert "HO: max level error" in out and "ok" in out


def test_verify_delta_family_small_grid():
    code, out = run(["verify", "--family", "DELTA_DECORATED(HO)",
                     "--n-oracle", "2000", "--k", "3"])
    assert code == 0


# ----------------------------------------------------------------------
# config plumbing
# ----------------------------------------------------------------------


def test_dump_config_round_trip(tmp_path):
    args = ["levels", "--family", "LINEAR_ABS", "--window", "0:5",
            "--step", "0.01", "--format", "json", "--dump-config"]
    code, out = run(args)
    assert code == 0
    cfg = cli.RunConfig.from_dict(json.loads(out))
    assert cfg.command == "levels"
    assert cfg.window == (0.0, 5.0)
    assert cfg.step == 0.01
    assert cfg.format == "json"
    # the echoed config reproduces the same output when fed back
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(out)
    _, direct = run(args[:-1])
    _, via_config = run(["levels", "--config", str(cfg_path)])
    assert direct == via_config


def test_set_overrides():
    code, out = run(["levels", "--family", "HO", "--window", "0:2",
                     "--set", "family.scales.omega1=2.0", "--dump-config"])
    assert code == 0
    cfg = json.loads(out)
    assert cfg["family"]["scales"]["omega1"] == 2.0


def test_config_file_errors_exit_one(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    code, _ = run(["levels", "--config", str(p)])
    assert code == 1
    code, _ = run(["levels", "--config", str(tmp_path / "absent.json")])
    assert code == 1


def test_out_file_written(tmp_path):
    path = tmp_path / "rows.csv"
    code, out = run(["levels", "--family", "HO", "--window", "0:2",
                     "--out", str(path)])
    assert code == 0
    assert out == ""
    text = path.read_text()
    assert text.startswith("index,parity,eps")
    assert text.endswith("\n")
    assert "\r" not in text


def test_json_format():
    code, out = run(["levels", "--family", "HO", "--window", "0:2",
                     "--format", "json"])
    assert code == 0
    rows = json.loads(out)
    assert [float(r["eps"]) for r in rows] == [0.5, 1.5]


def test_usage_error_paths():
    assert run(["levels", "--window", "5"])[0] == 1
    assert run(["levels", "--step", "-1"])[0] == 1
    assert run(["sweep", "--family", "HO_ASYM", "--param", "lam",
                "--range", "1:0.5:0.1"])[0] == 1
    assert run(["green-grid", "--grid", "0:1:1"])[0] == 1

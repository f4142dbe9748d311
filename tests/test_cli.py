"""CLI contract: exit codes, determinism, config handling, output formats."""

import hashlib
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from greenwell import cli, model, oracle, resolvent, specfun, spectrum

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import pinned  # noqa: E402


def run(argv):
    out = io.StringIO()
    code = cli.main(argv, stream=out)
    return code, out.getvalue()


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _row(label, command=None):
    """(argv, exit code, stdout sha256) of the row of tools/pinned.py with
    this label and, where two rows share a label, this command."""
    (row,) = [(argv, code, sha) for name, argv, code, sha in pinned.PINNED
              if name == label and command in (None, argv[0])]
    return row


def run_pinned(label, command=None, config=None):
    """The stdout of a pinned request, whose exit code and sha256 are
    asserted to be its row's; "CFG" in its argv becomes `config`."""
    argv, code, sha = _row(label, command)
    got, out = run(pinned.with_config(argv, config))
    assert (got, _sha256(out)) == (code, sha), argv
    _CHECKED.add(tuple(argv))
    return out


# the argvs of the rows whose exit code and stdout a test has checked in
# this pytest run; test_pinned_request_keeps_its_exit_code_and_stdout, the
# last test of this file, runs the others
_CHECKED = set()


@pytest.fixture
def config(tmp_path):
    """The config file that "CFG" stands for in a pinned argv."""
    return pinned.write_config(tmp_path)


# ----------------------------------------------------------------------
# levels
# ----------------------------------------------------------------------


def test_levels_ho_rows():
    lines = run_pinned("README-HO").strip().split("\n")
    assert lines[0] == "index,parity,eps,residual,bracket_lo,bracket_hi"
    eps = [float(l.split(",")[2]) for l in lines[1:]]
    assert eps == [0.5, 1.5, 2.5, 3.5, 4.5, 5.5]


def test_level_index_counts_from_the_lowest_level_in_the_window():
    # index is the position in the window, not the quantum number n = 3
    assert run_pinned("HO-index").split("\n")[1] == "0,,3.5,0,3.5,3.5"


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


# every well's default window: each level once, in increasing order
@pytest.mark.parametrize("family", [label for label, argv, _, _ in pinned.PINNED
                                    if argv == ["levels", "--family", label]])
def test_levels_bytes_pinned(family):
    out = run_pinned(family)
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [int(row[0]) for row in rows] == list(range(len(rows))) and rows
    eps = [float(row[2]) for row in rows]
    assert eps == sorted(set(eps))


# the 18 levels of the |x| well in its default window (1e-6, 12]: rho with
# Ai'(-rho) = 0 (even) and Ai(-rho) = 0 (odd), alternating, to 30 digits
# from 40-digit mpmath airyaizero (offline)
LINEAR_ABS_ZEROS = (
    "1.0187929716474710890173247834", "2.33810741045976703848919725245",
    "3.24819758217983653787542377078", "4.08794944413097061663698870146",
    "4.82009921117873563940061626042", "5.52055982809555105912985551293",
    "6.16330735563948654763784353309", "6.7867080900717589987802463845",
    "7.37217725504777017709218227113", "7.9441335871208531231382805558",
    "8.48848673401972213288099541573", "9.02265085334098038015819083988",
    "9.535449052433547470702633427", "10.0401743415580859305945567374",
    "10.5276603969574072819781424914", "11.0085243037332628932354396496",
    "11.4750566334802452949372165224", "11.9360155632362625170063649029",
)


def test_linear_abs_level_brackets_contain_their_zeros():
    # the bracket of the fourth even level (index 6) missed its zero by
    # 2e-13 while airy_all's Maclaurin series lost up to 4e4 eps on [-7, -4)
    code, out = run(["levels", "--family", "LINEAR_ABS"])
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert code == 0 and len(rows) == len(LINEAR_ABS_ZEROS)
    # the roots cmd_levels prints, with their full-precision brackets
    fam = model.default_family(model.LINEAR_ABS)
    roots = spectrum.checked_roots(fam, None, cli.RunConfig("levels").step, "levels").roots
    assert [row[2] for row in rows] == [cli._fmt(r.value) for r in roots]
    for r, parity, zero in zip(roots, ("even", "odd") * 9, LINEAR_ABS_ZEROS):
        lo, hi = r.bracket
        assert r.parity == parity
        assert Fraction(lo) <= Fraction(zero) <= Fraction(hi), (r.index, zero)


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


def test_sweep_break_exit_two_without_flag(tmp_path, capsys):
    args = ["sweep", "--family", "HO_ASYM", "--param", "lam",
            "--range", "0.4:0.8:0.2", "--window", "0:4", "--step", "0.01"]
    path = tmp_path / "rows.csv"
    for out_flag in ([], ["--out", str(path)]):
        code, out = run(args + out_flag)
        assert (code, out) == (2, "")
        assert capsys.readouterr().err.startswith(
            "numerical failure: curve break at lam = 0.8")
    assert not path.exists()
    code2, out2 = run(args + ["--allow-breaks"])
    assert code2 == 0


def test_sweep_requires_param():
    code, _ = run(["sweep", "--family", "HO_ASYM", "--range", "0.5:1:0.5"])
    assert code == 1


def test_sweep_bytes_pinned():
    # rows come ordered by (param_value, root_index), for each of five values
    rows = [tuple(map(float, line.split(","))) for line in run_pinned("muphi").splitlines()[1:]]
    assert rows == sorted(rows) and sorted({row[0] for row in rows}) == [0.5, 0.75, 1, 1.25, 1.5]


# the README sweeps' bytes were pinned before sweeps found levels by
# certified continuation
def test_readme_tau_sweep_keeps_its_bytes_with_a_fifth_of_the_chi_calls(monkeypatch):
    calls = []
    chi = spectrum.chi_delta_ho
    monkeypatch.setattr(spectrum, "chi_delta_ho", lambda *a: calls.append(a) or chi(*a))
    run_pinned("README-tau")
    # each of the 49 values was a full rescan: 142,679 calls
    assert 0 < len(calls) <= 142679 / 5


def test_readme_lam_sweep_bytes_pinned(monkeypatch):
    calls = []
    chi = spectrum.chi_asym_ho
    monkeypatch.setattr(spectrum, "chi_asym_ho", lambda *a: calls.append(a) or chi(*a))
    run_pinned("README-lam")
    # each of the 57 values was a full rescan: 168,825 calls
    assert 0 < len(calls) <= 168825 / 4


def test_sweep_that_loses_levels_in_one_cell_exits_two(capsys):
    # HO levels 0.5, 1.5 and 2.5 share the one lattice cell of --step 5;
    # the FD count certifies three, so the sweep stops instead of
    # printing one level per value
    run_pinned("step5")
    assert capsys.readouterr().err.startswith(
        "numerical failure: sweep at lam = 1: the scan found 1 level(s) where the FD count "
        "certifies 3")
    # levels checks its scan against the same count, also where the
    # energy unit is below 1 and the count's walls follow V >= E + 10
    for fd in ("HO", json.dumps({"tag": "HO", "scales": {"omega1": 0.8}})):
        code, out = run(["levels", "--family", fd, "--window", "0:3", "--step", "5"])
        assert (code, out) == (2, "")
        assert capsys.readouterr().err.startswith(
            "numerical failure: levels of HO: the scan found 1 level(s) where the FD count "
            "certifies 3")


def test_levels_without_a_level_count_print_their_scan():
    # at omega1 = 1e200 the count's FD potential overflows, and a window
    # below the smooth well leaves the count no walls: no count, so
    # nothing checks the scan, and it prints as before
    fd = json.dumps({"tag": "HO", "scales": {"omega1": 1e200}})
    code, out = run(["levels", "--family", fd, "--window", "0:3"])
    assert code == 0
    assert [line.split(",")[2] for line in out.splitlines()[1:]] == ["0.5", "1.5", "2.5"]
    assert run(["levels", "--family", "HO", "--window=-30:-20"]) == (
        0, "index,parity,eps,residual,bracket_lo,bracket_hi\n")
    # the deep bound state of an attractive delta lies below the smooth well
    for base, a, window, eps in (("HO", -8.0, "-40:-20", "-31.9336144459"),
                                 ("LINEAR_ABS", -8.0, "-24:-12", "-15.4987525552")):
        fd = json.dumps({"tag": "DELTA_DECORATED", "base": base,
                         "scales": {"delta_strength": a}})
        code, out = run(["levels", "--family", fd, f"--window={window}"])
        assert code == 0
        assert [line.split(",")[2] for line in out.splitlines()[1:]] == [eps]


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


def _grid_formats(label):
    """The csv and json stdout of the pinned green-grid rows `label`-csv
    and `label`-json, asserted to carry the same cells."""
    csv, js = (run_pinned(f"{label}-{fmt}") for fmt in ("csv", "json"))
    assert [[row["x"], row["xp"], row["value"]] for row in json.loads(js)] == [
        line.split(",") for line in csv.splitlines()[1:]]
    return csv, js


# -2:2:9 holds x = 0 and q = +-0.5
GRID_9 = ["HO", "HO_STARK", "LINEAR_ABS", "HO_PLUS_ABS", "DEC_HO", "DEC_LINEAR_ABS"]


@pytest.mark.parametrize("label", GRID_9)
def test_green_grid_bytes_pinned(label):
    _grid_formats(label)


@pytest.mark.parametrize("label", ["LINEAR_ABS-81", "DEC_HO-81", "HO-xp-0", "DEC_HO-81-CI"])
def test_green_grid_readme_size_and_negative_zero_bytes_pinned(label):
    _, js = _grid_formats(label)
    if label == "HO-xp-0":
        # -0.0 == 0.0, so an abscissa keyed by value would print as 0
        assert {row["xp"] for row in json.loads(js)} == {"-0"}


def _row_tuple_grid(argv):
    """green-grid's text as it was built from row tuples: one
    (x cell, xp cell, value) per point by resolvent.green, then _table."""
    cfg, _ = cli.build_config(argv)
    fam = model.family_from_dict(cfg.family)
    xmin, xmax, n = cfg.grid
    n = int(n)
    xs = [(x, _fmt(x)) for x in (xmin + (xmax - xmin) * i / (n - 1) for i in range(n))]
    xps = xs if cfg.xp is None else [(cfg.xp, cfg.xp)]
    rows = [(x_cell, xp_cell, resolvent.green(x, xp, cfg.energy, fam).value)
            for x, x_cell in xs for xp, xp_cell in xps]
    return cli._table(cfg, ("x", "xp", "value"), rows)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv", [
    ["--family", "HO", "--energy", "2.3", "--grid=-2:2:9"],
    ["--family", "HO_PLUS_ABS", "--energy", "2.3", "--grid=-2:2:9", "--xp", "0.3"],
    ["--family", "HO", "--energy", "2.3", "--grid=-2:2:9", "--xp=-0"],
    ["--family", "LINEAR_ABS", "--energy", "1.7", "--grid=-1:0:2"],
    ["--family", "DELTA_DECORATED(LINEAR_ABS)", "--energy", "1.7", "--grid=0:1:2",
     "--set", "xp=0"],
    ["--family", "HO_STARK", "--energy", "2.3", "--grid=-2:2:5"],
], ids=["HO", "xp", "xp-0", "n2", "n2-int-xp", "HO_STARK"])
def test_green_grid_columns_give_the_row_tuple_bytes(tmp_path, argv, fmt):
    argv = ["green-grid", *argv, "--format", fmt]
    want = _row_tuple_grid(argv)
    assert run(argv) == (0, want)
    path = tmp_path / "grid.txt"
    assert run(argv + ["--out", str(path)]) == (0, "")
    with open(path, encoding="utf-8", newline="") as fh:
        assert fh.read() == want


@pytest.mark.parametrize("family,energy", [
    ("HO", "2.3"), ("HO_STARK", "2.3"), ("LINEAR_ABS", "1.7"), ("HO_PLUS_ABS", "2.3"),
    ("DELTA_DECORATED(HO)", "2.3"), ("DELTA_DECORATED(LINEAR_ABS)", "1.7")])
def test_green_grid_values_are_those_of_green(monkeypatch, family, energy):
    # one closed-form call per point, looked up once per request, gives
    # resolvent.green's value bit for bit
    tables = []
    columns_table = cli._columns_table
    monkeypatch.setattr(cli, "_columns_table",
                        lambda cfg, header, columns: tables.append(columns)
                        or columns_table(cfg, header, columns))
    assert run(["green-grid", "--family", family, "--energy", energy, "--grid=-2:2:9"])[0] == 0
    ((x_cells, xp_cells, values),) = tables
    fam = model.family_from_dict(cli._parse_family(family))
    want = [resolvent.green(float(x), float(xp), float(energy), fam).value.hex()
            for x, xp in zip(x_cells, xp_cells)]
    assert [v.hex() for v in values] == want


def test_closed_form_is_the_dispatch_of_green(monkeypatch):
    # one plain call of the family's _BASE_GREEN entry or of green_decorated
    for tag in resolvent._BASE_GREEN:
        monkeypatch.setitem(resolvent._BASE_GREEN, tag, lambda *args: args)
        fam = model.default_family(tag)
        assert resolvent._closed_form(fam)(0.3, -0.7, 2.0) == (0.3, -0.7, 2.0, fam.scales)
    monkeypatch.setattr(resolvent, "green_decorated", lambda *args: args)
    fam = model.default_family(model.DELTA_DECORATED, base=model.HO)
    assert resolvent._closed_form(fam)(0.3, -0.7, 2.0) == (0.3, -0.7, 2.0, model.HO, fam.scales)
    for tag in (model.HO_ASYM, model.LINEAR_ASYM, model.HALF_HO_HALF_LINEAR):
        with pytest.raises(model.FamilyError, match="no closed-form Green function"):
            resolvent._closed_form(model.default_family(tag))


def test_green_grid_integer_xp_stays_a_json_number():
    code, out = run(["green-grid", "--family", "HO", "--energy", "2.3", "--grid=-1:1:3",
                     "--set", "xp=0", "--format", "json"])
    assert code == 0
    assert [row["xp"] for row in json.loads(out)] == [0, 0, 0]


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
    ("HO", "pcf_d_pair", 1, 0),  # one pair gives D(mu x) and D(-mu x)
    ("LINEAR_ABS", "_airy", 1, 1),
    ("HO_PLUS_ABS", "pcf_d", 1, 2),
])
def test_green_grid_evaluates_each_solution_once_per_abscissa(
        monkeypatch, family, name, per_abscissa, per_energy):
    n = 9
    calls = _count_calls(monkeypatch, name)
    code, _ = run(["green-grid", "--family", family, "--energy", "1.7", f"--grid=-2:2:{n}"])
    assert code == 0
    assert 0 < calls[0] <= per_abscissa * n + per_energy


@pytest.mark.parametrize("family,energy", [
    ("HO", "2.3"), ("HO_STARK", "2.3"), ("LINEAR_ABS", "1.7"), ("HO_PLUS_ABS", "2.3"),
    ('{"tag": "DELTA_DECORATED", "base": "HO"}', "2.3"),
    ('{"tag": "DELTA_DECORATED", "base": "LINEAR_ABS"}', "1.7"),
], ids=["HO", "HO_STARK", "LINEAR_ABS", "HO_PLUS_ABS", "DEC_HO", "DEC_LINEAR_ABS"])
def test_green_grid_builds_one_solution_object_per_request(monkeypatch, family, energy):
    # every point of a request shares one (kind, energy, scales) build: the
    # four base calls of a decorated well and the shifted Stark call too
    built = []
    for kind in (resolvent._HoSolutions, resolvent._Mirror):
        def counted(self, *args, _init=kind.__init__):
            built.append(type(self))
            _init(self, *args)
        monkeypatch.setattr(kind, "__init__", counted)
    for column in ([], ["--xp", "0.3"]):
        for _ in range(2):
            built.clear()
            code, _ = run(["green-grid", "--family", family, "--energy", energy,
                           "--grid=-2:2:9", *column])
            assert code == 0
            assert len(built) == 1, (column, built)


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


def test_green_grid_failure_repeats_and_leaves_no_solutions_behind(monkeypatch):
    # two identical failing requests make the same special-function calls
    argv = ["green-grid", "--family", _on_resonance_family(), "--energy", "2.3",
            "--grid=-1:1:5"]
    calls = _count_calls(monkeypatch, "pcf_d_pair")
    made = []
    for _ in range(2):
        before = calls[0]
        assert run(argv)[0] == 2
        made.append(calls[0] - before)
    assert made[0] == made[1] > 0
    # a library call after the request builds its solutions afresh
    scales = model.family_from_dict(json.loads(argv[2])).scales
    q = scales.delta_position
    before = calls[0]
    resolvent.green_ho(q, q, 2.3, scales)
    assert calls[0] - before == 1


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
    out = run_pinned("table1")
    assert "PASS" in out
    assert out.count("\n") == 12  # header + 10 rows + verdict


def test_table1_levels_hold_where_hbar_squared_is_not_2m():
    # xi = sqrt(2) from hbar = m = omega1 = 1 and alpha1 = 2^(-1/3); the
    # matching condition has no other scale, so the table's levels follow
    fam = model.default_family(model.HALF_HO_HALF_LINEAR, hbar=1.0, mass=1.0, omega1=1.0,
                               alpha1=2.0 ** (-1.0 / 3.0))
    assert fam.scales.natural.xi == pytest.approx(math.sqrt(2.0), rel=1e-14)
    got = spectrum.find_roots(spectrum.build_chi(fam), limit=10).values()
    assert got == pytest.approx(cli.TABLE1_REFERENCE, abs=5e-5)


def test_verify_single_family_small_grid():
    code, out = run(["verify", "--family", "HO", "--n-oracle", "1000", "--k", "3"])
    assert code == 0
    assert out.count("\n") == 1
    assert out.startswith("HO: max level error") and "ok" in out


def test_verify_delta_family_small_grid():
    code, out = run(["verify", "--family", "DELTA_DECORATED(HO)",
                     "--n-oracle", "2000", "--k", "3"])
    assert code == 0


@pytest.mark.parametrize("argv,code,sha", [
    _row("HO-stiff-n200000"),
    # at the default 4000 points: the box scales with the well, where walls
    # at L >= 1 physical length left it a MISMATCH of 0.0162 (exit 3)
    _row("HO-stiff"),
    # the scan would start at this well's floor near eps = -2e6: 4e8 lattice
    # points, above the scan bound verify checks first.  It used to start
    # at -50 and report a MISMATCH (exit 3), then to exit 1 on pcf_d's
    # |nu| <= 60
    (["verify", "--family",
      '{"tag":"DELTA_DECORATED","base":"HO","scales":{"delta_strength":-2000}}', "--k", "1"],
     1, pinned.EMPTY),
], ids=["HO omega1=2e6", "HO omega1=2e6 n=4000", "DELTA_DECORATED(HO) a=-2000"])
def test_verify_of_a_stiff_or_deep_well_returns(argv, code, sha):
    # the lowest FD level lies past 2^19, where its bisection stops at
    # adjacent floats 1.2e-10 or more apart instead of at width 1e-10
    src = str(Path(model.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-m", "greenwell.cli", *argv], capture_output=True, text=True,
        timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert (done.returncode, _sha256(done.stdout)) == (code, sha), done.stderr
    _CHECKED.add(tuple(argv))
    if code:
        assert done.stderr == (
            "error: request too large: 400002401 lattice points per scan, above 5,000,000\n")
    else:
        assert done.stdout.endswith(" ok\n")


@pytest.mark.parametrize("tag,argv,rows", [
    ("LINEAR_ABS", ["levels", "--window", "0:3"], 2),
    ("LINEAR_ASYM", ["sweep", "--param", "beta", "--range", "1:1.5:0.5", "--window", "0:3",
                     "--allow-breaks"], 7)], ids=["levels", "sweep"])
def test_walls_past_the_float_range_leave_the_scan_uncounted(capsys, tag, argv, rows):
    # alpha1^3 = 1e-330 underflows to 0, so V = 0 at every finite x: the
    # wall search ran to x = inf and exited 1 ("x must be finite, got
    # -inf").  Now it raises WallError, and the scan prints what it prints
    # at alpha1 = 1, uncounted
    tiny = json.dumps({"tag": tag, "scales": {"alpha1": 1e-110}})
    code, out = run([argv[0], "--family", tiny, *argv[1:]])
    assert (code, out) == run([argv[0], "--family", tag, *argv[1:]])
    assert code == 0 and out.count("\n") == rows + 1
    # verify has no scan to fall back on: exit 2, naming the wall rule
    code, out = run(["verify", "--family", tiny, "--k", "1"])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == "numerical failure: no finite L with V(+-L) >= 10\n"


def _deep_delta(base, strength):
    return json.dumps({"tag": "DELTA_DECORATED", "base": base,
                       "scales": {"delta_strength": strength}})


def test_a_ground_state_below_the_default_low_edge_is_found_without_a_window():
    # the free-delta floor eps = -55.125 lies below the default window's
    # low edge -50; the scan used to start at -50, print index 0 at
    # eps 1.18875326896 and exit 0
    out = run_pinned("DEC_HO-deep")
    family = _row("DEC_HO-deep")[0][1:]
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert rows[0][:3] == ["0", "", "-55.060239175"]
    assert rows[1][:3] == ["1", "", "1.18875326896"]
    code, windowed = run(["levels", *family, "--window=-56:-50"])
    assert (code, windowed.splitlines()[1]) == (0, out.splitlines()[1])
    code, out = run(["verify", *family, "--k", "2"])
    assert code == 0 and out.endswith(" ok\n"), out
    # a ground state alone, below the smooth well's bottom V = 0: the box
    # rule reads the bottom, not the level, so the walls stay 10 natural
    # units above it (errors 0.0020 and 0.0013; the level alone put them
    # below the bottom or too near it)
    for base, strength in (("HO", -10.5), ("LINEAR_ABS", -6)):
        code, out = run(["verify", "--family", _deep_delta(base, strength), "--k", "1"])
        assert code == 0 and out.endswith(" ok\n"), out


@pytest.mark.parametrize("command", ["levels", "verify"])
@pytest.mark.parametrize("base,strength,domain", [
    ("HO", -20, "pcf_d_pair restricted to |nu| <= 60, got nu = -200.5"),
    ("LINEAR_ABS", -10, "airy functions restricted to |x| <= 25.0, got 25.5")])
def test_a_floor_outside_the_special_function_domain_exits_one(
        capsys, command, base, strength, domain):
    # the scan starts at the floor, eps = -200 or rho = -25, where the
    # ground state may lie; it used to start at -50 or -24 and print the
    # levels above the edge with exit 0
    extra = ["--k", "1"] if command == "verify" else []
    code, out = run([command, "--family", _deep_delta(base, strength), *extra])
    assert (code, out) == (1, "")
    assert capsys.readouterr().err == f"error: {domain}\n"


def test_ho_plus_abs_levels_read_the_slope_up_to_the_order_limit():
    # the scan reads D' at orders nu = sigma - 1/2 up to 59.95, whose
    # slope takes D_(nu+1) from the integral; when it read
    # pcf_d(nu + 1, mu phi), it raised past |nu| <= 60 and exited 1.  The
    # 40-digit root of D'_nu(mu phi), from mpmath (offline), is
    # 50.13921342986287815631489260005541860589
    rows = [line.split(",") for line in run_pinned("HO_PLUS_ABS-nu60").splitlines()[1:]]
    assert [row[:3] for row in rows] == [["0", "even", "50.1392134299"]]
    assert abs(Fraction(rows[0][2]) - Fraction("50.13921342986287815631489260005541860589")) \
        <= Fraction("5e-11")


VERIFY_NAMES = ["HO", "HO_STARK", "HO_ASYM", "LINEAR_ABS", "LINEAR_ASYM",
                "HALF_HO_HALF_LINEAR", "HO_PLUS_ABS", "DELTA_DECORATED(HO)",
                "DELTA_DECORATED(LINEAR_ABS)"]


@pytest.mark.parametrize("name", VERIFY_NAMES)
def test_verify_passes_every_well_at_other_hbar_and_mass(name):
    tag, _, base = name.rstrip(")").partition("(")
    fd = {"tag": tag, "scales": {"mass": 1.7, "hbar": 0.8}}
    if base:
        fd["base"] = base
    code, out = run(["verify", "--family", json.dumps(fd)])
    assert code == 0 and out.endswith(" ok\n"), out


# delta wells whose ground state lies near the free-delta energy floor:
# window-less levels, then verify --k 6 --n-oracle 1000.  The LINEAR_ABS
# verify went from 3 (MISMATCH) to 0 when verify's walls came from
# oracle.auto_grid's one rule
@pytest.mark.parametrize("label", ["floor-HO-p0", "floor-HO-q0.7", "floor-LINEAR_ABS"],
                         ids=["HO p=0", "HO q=0.7", "LINEAR_ABS"])
def test_floor_wells_bytes_pinned(label):
    # the window holds the six levels verify compares, and a header
    assert run_pinned(label, "levels").count("\n") > 6
    assert run_pinned(label, "verify").endswith(" ok\n")


# a Stark well whose bottom lies at x = -phi = -12.17, far outside
# [-1, 1]: verify used to put its walls at +-1 and report a false
# MISMATCH (exit 3), and levels at a wide step printed no level with
# exit 0, where four lie in the window
def test_verify_boxes_the_bottom_of_a_shifted_stark_well():
    assert run_pinned("STARK-shifted", "verify").endswith(" ok\n")


def test_levels_counts_a_shifted_stark_window_from_the_bottom(capsys):
    run_pinned("STARK-shifted", "levels")
    err = capsys.readouterr().err
    assert "the scan found 0 level(s) where the FD count certifies 4" in err
    # at the default step the scan finds the four levels the count certifies
    code, out = run(_row("STARK-shifted", "levels")[0][:-2])
    assert code == 0
    assert [line.split(",")[2] for line in out.splitlines()[1:]] == [
        "-73.5179445", "-72.5179445", "-71.5179445", "-70.5179445"]


def test_levels_with_a_non_finite_chi_exit_two():
    # the default window of this Stark well starts at -(mu phi/2)^2 - 1,
    # where chi_ho overflows: a numerical failure, not a traceback
    src = str(Path(model.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-m", "greenwell.cli", "levels", "--family",
         json.dumps({"tag": "HO_STARK", "scales": {"alpha1": 6}})],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src})
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("numerical failure: characteristic function not finite")
    assert "Traceback" not in done.stderr


def test_levels_of_a_stark_window_past_gamma_order_141():
    # n + 1/2 - (mu phi/2)^2 for n = 152 .. 161: chi_ho takes 1/Gamma at
    # orders past 141.5, where t ** (x - 1/2) alone overflows
    out = run_pinned("HO_STARK-gamma141")
    eps = [float(line.split(",")[2]) for line in out.splitlines()[1:]]
    assert eps == [n - 23175.5 for n in range(10)]


def test_levels_where_rgamma_underflows_exit_two(capsys):
    # 1/Gamma(1/2 - eps) lies below the float range here: a 0.0 would be
    # a root at every lattice point
    run_pinned("HO-rgamma-underflow")
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: rgamma(")
    assert "Numerical result out of range" not in err


def test_readme_library_example_runs():
    # the ```python block under "## Library", run as a script
    root = Path(__file__).resolve().parent.parent
    code = (root / "README.md").read_text().split("## Library\n\n```python\n", 1)[1]
    done = subprocess.run(
        [sys.executable, "-c", code.split("```", 1)[0]], capture_output=True, text=True,
        timeout=120, env={**os.environ, "PYTHONPATH": str(root / "src")})
    assert done.returncode == 0, done.stderr
    levels, g = done.stdout.splitlines()
    fam = model.default_family(model.DELTA_DECORATED, base=model.HO)
    want = spectrum.find_roots(spectrum.build_chi(fam), window=(-3, 6)).values()
    assert (levels, g) == (str(want), str(resolvent.green(0.3, -0.7, 2.0, fam).value))


# (label, G at each grid point) for the pinned green grids whose tails
# reach the integral routes: pcf_d at z >= 6 and airy_all above x = 7.
# G is to 30 digits from 50-digit mpmath (offline): sqrt(1/pi)
# Gamma(1/2 - eps) D_nu(sqrt(2) x) D_nu(0) with nu = eps - 1/2 for HO,
# and -Ai(x - rho) / (2 Ai'(-rho)) with rho = 1.5 for LINEAR_ABS.  The
# HO grid printed -4.49e-05, -0.092 and 924 at x = 8, 9 and 10 with
# exit 0 while pcf_d took the Kummer form there.  The LINEAR_ABS grid
# prints G(5, 0) to its reference's 12 digits, -0.00417886111173 (it
# printed ...172 before airy_all became one anchor-table route)
GREEN_TAIL = [
    ("HO-tail",
     ("1.4196372722271097060257489596", "-1.17133048437073000971364177823",
      "-1.27963253835540143946483698327", "-0.229781163034721665819134030193",
      "-0.0118571478538161813139521774238", "-1.98456969763641833261510291923e-4",
      "-1.13110676996753545726660719569e-6", "-2.2503720707015498411474214711e-9",
      "-1.5855616260922310650954913945e-12", "-3.9927254277832953272046678582e-16",
      "-3.61579103986051118328583206441e-20")),
    ("LINEAR_ABS-tail",
     ("-0.750769966065455271178991872259", "-4.17886111172652515832993506331e-3",
      "-1.77837537181770543001946450942e-8", "-1.03362601835631918988791890285e-15",
      "-2.01129720671202391121966743308e-24")),
    # z = sqrt(2) x in [6.08, 6.93]: the Kummer form, which pcf_d took
    # below z = 7, printed -0.000759207275165 at x = 4.7 with exit 0
    ("HO-cut",
     ("-0.00390084269460483422773770014106", "-0.00175899745816663749394931196091",
      "-0.000759207274865202973001157470753", "-0.000313753063544818304267115405674")),
]


@pytest.mark.parametrize("label,refs", GREEN_TAIL, ids=["HO", "LINEAR_ABS", "HO-cut"])
def test_green_grid_tail_matches_its_references(label, refs):
    values = [float(line.split(",")[2]) for line in run_pinned(label).splitlines()[1:]]
    assert len(values) == len(refs)
    for value, ref in zip(values, refs):
        # the CLI prints 12 significant digits
        assert value == pytest.approx(float(ref), rel=1e-11, abs=0.0)


def test_verify_short_window_fails_before_the_oracle(monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(oracle, "lowest_eigenvalues", lambda *args: calls.append(args))
    code, out = run(["verify", "--family", "DELTA_DECORATED(HO)", "--k", "20"])
    err = capsys.readouterr().err
    assert (code, out) == (2, "")
    assert "only 12 closed-form roots in window for DELTA_DECORATED(HO)" in err
    assert calls == []


def test_default_window_decorated_linear_well_beyond_unit_zeta_q():
    # zeta q = 1.5: scanning from the old window edge rho = -24 needed
    # Ai(zeta q - rho) at 25.5, outside |x| <= 25, and exited 1; the scan
    # now starts at the energy floor rho = -eta^2 = -0.64.  Re-pinned when
    # chi_delta_linear began to read the continuation of resolvent's |x|
    # mirror pair, and when airy_all became one anchor-table route: only
    # the residual column moved (tools/drift.py)
    out = run_pinned("DEC_LINEAR_ABS-q1.5")
    fd = _row("DEC_LINEAR_ABS-q1.5")[0][2]
    assert out.splitlines()[1].startswith("0,,0.610718391829,")
    code, out = run(["verify", "--family", fd, "--k", "4", "--n-oracle", "2000"])
    assert code == 0 and out.endswith(" ok\n")


def test_decorated_linear_well_levels_depend_only_on_abs_q():
    # the |x| well is even, so q and -q give the same levels; a negative
    # q used to end in an uncaught ValueError from chi_delta_linear
    def family(q):
        return json.dumps({"tag": "DELTA_DECORATED", "base": "LINEAR_ABS",
                           "scales": {"delta_position": q}})
    code, out = run(["levels", "--family", family(-0.5)])
    assert code == 0 and out.count("\n") > 1
    assert (code, out) == run(["levels", "--family", family(0.5)])
    code, out = run(["verify", "--family", family(-0.5), "--k", "3", "--n-oracle", "1000"])
    assert code == 0 and out.endswith(" ok\n")


# alpha1 = 0 stays valid for HO_STARK and HO_PLUS_ABS, the plain
# oscillator where the muphi sweep starts (tests/test_spectrum.py)
@pytest.mark.parametrize("fd", [
    {"tag": "LINEAR_ABS", "scales": {"alpha1": 0}},
    {"tag": "LINEAR_ASYM", "scales": {"alpha1": 0}},
    {"tag": "HALF_HO_HALF_LINEAR", "scales": {"alpha1": 0}},
    {"tag": "DELTA_DECORATED", "base": "LINEAR_ABS", "scales": {"alpha1": 0}},
    {"tag": "LINEAR_ASYM", "scales": {"alpha2": 0}},
    {"tag": "HO", "scales": {"omega1": 0}},
    {"tag": "HO_STARK", "scales": {"omega1": 0}},
    {"tag": "HO_ASYM", "scales": {"omega1": 0}},
    {"tag": "HALF_HO_HALF_LINEAR", "scales": {"omega1": 0}},
    {"tag": "HO_PLUS_ABS", "scales": {"omega1": 0}},
    {"tag": "DELTA_DECORATED", "base": "HO", "scales": {"omega1": 0}},
    {"tag": "HO_ASYM", "scales": {"omega2": 0}},
], ids=json.dumps)
def test_zero_scale_the_family_divides_by_exits_one(capsys, fd):
    code, out = run(["levels", "--family", json.dumps(fd)])
    err = capsys.readouterr().err
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "must be > 0" in err
    with pytest.raises(model.FamilyError):
        model.family_from_dict(fd)


def test_verify_dump_config_omits_family_only_without_family():
    code, out = run(["verify", "--dump-config"])
    assert code == 0
    assert json.loads(out) == {"allow_breaks": False, "command": "verify", "energy": 2.0,
                               "format": "csv", "grid": [-3.0, 3.0, 61], "k_levels": 5,
                               "n_oracle": 0, "step": 0.005}
    code, out = run(["verify", "--family", "HO", "--dump-config"])
    assert code == 0
    assert json.loads(out)["family"] == {"tag": "HO"}


def test_verify_without_family_checks_every_family():
    out = run_pinned("all")
    assert [line.split(":")[0] for line in out.splitlines()] == VERIFY_NAMES


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


# --dump-config for every flag, --config and --set: each echoed config
# reads back as itself
DUMP_CONFIG = [f"{k:02d}" for k in range(10)]


@pytest.mark.parametrize("label", DUMP_CONFIG,
                         ids=[" ".join(_row(k)[0][:-1])[:40] for k in DUMP_CONFIG])
def test_dump_config_bytes_pinned(config, label):
    dumped = json.loads(run_pinned(label, config=config))
    assert cli.RunConfig.from_dict(dumped).to_dict() == dumped


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


def test_out_path_that_cannot_be_opened_exits_one(tmp_path, capsys):
    missing = tmp_path / "missing"
    code, out = run(["levels", "--family", "HO", "--window", "0:2",
                     "--out", str(missing / "rows.csv")])
    err = capsys.readouterr().err
    assert code == 1
    assert out == ""
    assert err.startswith("error: cannot write --out:") and str(missing) in err
    assert not missing.exists()


def test_out_is_checked_before_the_command_runs(monkeypatch, tmp_path, capsys):
    calls = []
    monkeypatch.setitem(cli._COMMANDS, "levels", lambda cfg: calls.append(cfg))
    for out_path, reason in ((tmp_path / "missing" / "rows.csv", "no directory"),
                             (tmp_path, "is a directory")):
        code, out = run(["levels", "--out", str(out_path)])
        err = capsys.readouterr().err
        assert (code, out) == (1, "")
        assert err.startswith("error: cannot write --out:") and reason in err
    assert calls == []
    assert list(tmp_path.iterdir()) == []


def _fmt(x):
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _reference_emit(cfg, header, rows, stream):
    """cli._emit as it was before the row templates, verbatim: a dict per
    row and the json indent encoder."""
    if cfg.format == "csv":
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(_fmt(v) for v in row))
        text = "\n".join(lines) + "\n"
    else:
        payload = [dict(zip(header, [(_fmt(v) if isinstance(v, float) else v)
                                     for v in row])) for row in rows]
        text = json.dumps(payload, indent=1, sort_keys=True) + "\n"
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        stream.write(text)


EMIT_TABLES = {
    # ints, strings that need JSON escapes, and a column that mixes types
    "mixed": (("index", "parity", "note", "eps", "mixed"), [
        (0, "", "plain", 0.5, 1),
        (-7, "even", 'say "hi"', -0.0, 2.5),
        (12345678901234567890, "odd", "back\\slash", 1e22, "text"),
        (3, "even", "tab\tbell\x07", float("nan"), 1.0 / 3.0),
        (4, "", "psi \u03c8 caf\u00e9 \U0001d6d9", float("inf"), ""),
    ]),
    "floats": (("value",), [(v,) for v in (
        -0.0, 0.0, float("nan"), float("inf"), float("-inf"), 5e-324, 1e22,
        123456789012.5, -1.2345678901234e-300, 2.0 / 3.0)]),
    # a key with '%' and a repeated key, which keeps its last column
    "keys": (("b", "50%", "a", "b"), [(1, 2.0, "x", 3), (4, -5.0, "y", 6)]),
    "empty": (("x", "xp", "value"), []),
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("table", EMIT_TABLES)
def test_emit_matches_the_dict_and_json_encoder_reference(fmt, table):
    header, rows = EMIT_TABLES[table]
    cfg = cli.RunConfig("levels", format=fmt)
    want = io.StringIO()
    _reference_emit(cfg, header, rows, want)
    got = cli._table(cfg, header, rows)
    assert got == want.getvalue()
    if not rows:
        assert got == ("x,xp,value\n" if fmt == "csv" else "[]\n")


_DEC_LINEAR_ABS = _row("floor-LINEAR_ABS", "levels")[0][2]


@pytest.mark.parametrize("argv,exit_code", [
    (["levels", "--family", "HO", "--window", "0:4", "--format", "json"], 0),
    (["sweep", "--family", "HO_ASYM", "--param", "lam", "--range", "0.8:1.2:0.2",
      "--window", "0:3", "--step", "0.01"], 0),
    (["green-grid", "--family", "LINEAR_ABS", "--energy", "1.7", "--grid=-2:2:9"], 0),
    (["table1"], 0),
    (["verify", "--family", "HO", "--k", "1", "--n-oracle", "1000"], 0),
    # max level error 0.00628 against a tolerance of 0.005
    (["verify", "--family", _DEC_LINEAR_ABS, "--k", "3", "--n-oracle", "1000"], 3),
], ids=["levels", "sweep", "green-grid", "table1", "verify", "verify-mismatch"])
def test_out_gets_exactly_the_bytes_stdout_would(tmp_path, argv, exit_code):
    code, want = run(argv)
    assert code == exit_code and want
    path = tmp_path / "result.txt"
    code, out = run(argv + ["--out", str(path)])
    assert (code, out) == (exit_code, "")
    with open(path, encoding="utf-8", newline="") as fh:
        assert fh.read() == want


def test_verify_failing_on_a_later_well_leaves_stdout_empty(monkeypatch, capsys):
    # the first four wells pass; the fifth raises
    original = cli.verify_family
    passed = []

    def verify_family(fam, k, n_points):
        if len(passed) == 4:
            raise ArithmeticError(f"no levels for {fam.name}")
        closed, orc, worst = original(fam, k=k, n_points=n_points)
        passed.append(worst)
        return closed, orc, worst
    monkeypatch.setattr(cli, "verify_family", verify_family)
    code, out = run(["verify", "--k", "1", "--n-oracle", "1000"])
    err = capsys.readouterr().err
    assert (code, out) == (2, "")
    assert err == f"numerical failure: no levels for {VERIFY_NAMES[4]}\n"
    assert len(passed) == 4 and max(passed) <= 2e-3


def test_table1_short_of_ten_levels_leaves_stdout_empty(monkeypatch, capsys):
    original = cli.spectrum.checked_roots
    monkeypatch.setattr(cli.spectrum, "checked_roots",
                        lambda fam, window, *args, **kw: original(fam, (1e-6, 2.0), *args, **kw))
    code, out = run(["table1"])
    err = capsys.readouterr().err
    assert (code, out) == (2, "")
    assert err.startswith("numerical failure: found only 3 levels in the scan window")


def test_table1_exits_two_when_its_scan_loses_a_level(monkeypatch, capsys):
    # a step wider than the level spacing puts two levels in one cell; the
    # FD count sees it, where a scan alone would shift the table
    original = cli.spectrum.checked_roots
    monkeypatch.setattr(cli.spectrum, "checked_roots",
                        lambda fam, window, step, *args, **kw: original(fam, window, 1.0,
                                                                        *args, **kw))
    code, out = run(["table1"])
    err = capsys.readouterr().err
    assert (code, out) == (2, "")
    assert err.startswith("numerical failure: table1: the scan found ")


def test_a_request_after_one_with_flags_gets_the_defaults():
    # one argument parser serves every request of a process: a request
    # without --set, --window or --format reads the defaults, not the
    # values an earlier request gave
    code, out = run(["levels", "--family", "HO", "--set", "step=0.01",
                     "--window", "0:3", "--format", "json"])
    assert code == 0 and [row["eps"] for row in json.loads(out)] == ["0.5", "1.5", "2.5"]
    code, out = run(["levels", "--family", "HO"])
    assert code == 0 and out.splitlines()[0] == "index,parity,eps,residual,bracket_lo,bracket_hi"
    assert len(out.splitlines()) == 13  # the default window (1e-6, 12]
    code, out = run(["levels", "--dump-config"])
    assert code == 0 and json.loads(out) == cli.RunConfig("levels").validate().to_dict()


def test_null_means_the_field_default():
    code, out = run(["levels", "--set", "step=null", "--set", "grid=null",
                     "--set", "family=null", "--dump-config"])
    assert code == 0
    assert out == run(["levels", "--dump-config"])[1]


@pytest.mark.parametrize("argv", [
    ["levels", "--set", "k_levels=x"],
    ["levels", "--set", "k_levels=true"],
    ["levels", "--set", "step=[1]"],
    ["levels", "--set", "allow_breaks=1"],
    ["levels", "--set", "window=[0]"],
    ["levels", "--set", 'grid=[0, 1, "a"]'],
    ["levels", "--set", "command=null"],
    ["levels", "--set", "windw=[0,3]"],
    ["verify", "--family", "HO", "--n-oracle", "99"],
    ["verify", "--family", "HO", "--n-oracle", "-1"],
    # an FD grid too large to build: the bound keeps it from being tried
    ["verify", "--family", "HO", "--k", "3", "--set", "n_oracle=1" + "0" * 400],
    ["verify", "--family", "HO", "--n-oracle", "1000000000", "--dump-config"],
    ["sweep", "--family", "HO", "--param", "lam", "--range", "0.5:1:0.5"],
    ["sweep", "--family", "HO_ASYM", "--param", "nope", "--range", "0.5:1:0.5"],
    ["sweep", "--family", "HO_ASYM", "--param", "lam", "--range", "0:0.1:0.05"],
    ["sweep", "--family", "LINEAR_ASYM", "--param", "beta", "--range=-1:1:0.5"],
    ["sweep", "--family", "HALF_HO_HALF_LINEAR", "--param", "xi", "--range", "0:1:0.5"],
    ["sweep", "--family", "HO_PLUS_ABS", "--param", "muphi", "--range=-1:0:0.5"],
    ["green-grid", "--family", "HO", "--energy", "2.3", "--grid=0:1:3", "--xp", "nan"],
    # a grid count that is not a whole number, from a config and from the flag
    ["green-grid", "--set", "grid=[-1,1,3.7]", "--xp", "0"],
    ["green-grid", "--grid=-1:1:3.7", "--xp", "0"],
    # text reports that have no JSON form
    ["table1", "--format", "json"],
    ["verify", "--family", "HO", "--format", "json"],
    # values outside a documented special-function domain
    _row("LINEAR_ABS-30")[0],
    ["levels", "--family", "DELTA_DECORATED(HO)", "--window=-60:0"],
    ["green-grid", "--family", "HO", "--energy", "2.3", "--grid=0:20:3", "--xp", "0"],
    # families without a closed-form Green function
    ["green-grid", "--family", "HO_ASYM", "--grid=-1:1:3"],
    ["green-grid", "--family", "LINEAR_ASYM", "--grid=-1:1:3"],
    ["green-grid", "--family", "HALF_HO_HALF_LINEAR", "--grid=-1:1:3"],
], ids=lambda argv: " ".join(argv))
def test_config_and_usage_errors_exit_one(capsys, argv):
    code, out = run(argv)
    err = capsys.readouterr().err
    assert code == 1
    assert out == ""
    assert "error:" in err and "Traceback" not in err


def test_the_largest_oracle_grid_is_accepted():
    # checked at dump time only: no grid of that size is built
    code, out = run(["verify", "--family", "HO", "--n-oracle", "1000000", "--dump-config"])
    assert code == 0 and json.loads(out)["n_oracle"] == 1_000_000


# ----------------------------------------------------------------------
# request-size bounds
# ----------------------------------------------------------------------


def _stub_work(monkeypatch):
    """Scans, sweeps and Green calls replaced by stubs that do no work;
    returns the list of the calls they receive."""
    calls = []

    def stub(name, result):
        return lambda *args, **kwargs: calls.append(name) or result
    monkeypatch.setattr(spectrum, "checked_roots", stub("levels", spectrum.SpectrumResult([])))
    monkeypatch.setattr(spectrum, "sweep", stub("sweep", spectrum.SweepResult([], [])))
    monkeypatch.setattr(resolvent, "green", stub("green", resolvent.GreenEval(0.0, "G")))
    return calls


def _rejected(monkeypatch, capsys, argv):
    """The error line of a request that exits 1 with an empty stdout
    before any scan, sweep or Green call."""
    calls = _stub_work(monkeypatch)
    code, out = run(argv)
    assert (code, out, calls) == (1, "", [])
    return capsys.readouterr().err


@pytest.mark.parametrize("argv,size", [
    (_row("HO-step-1e-9")[0], "1000000001"),
    # a default window counts too: (12 + 50) / 1e-5 cells
    (["levels", "--family", "DELTA_DECORATED(HO)", "--step", "1e-5"], "6200001"),
    (["levels", "--family", "HO", "--window", "0:5", "--step", "1e-6"], "5000001"),
    (["levels", "--family", "HO", "--window=-1e308:1e308", "--step", "1"], "inf"),
    # each value of a sweep is one scan
    (["sweep", "--family", "HO_ASYM", "--param", "lam", "--range", "1:2:1",
      "--window", "0:1", "--step", "1e-7"], "10000001"),
], ids=["step", "default-window", "one-above", "overflow", "sweep"])
def test_a_scan_above_five_million_lattice_points_exits_one(monkeypatch, capsys, argv, size):
    err = _rejected(monkeypatch, capsys, argv)
    assert err == f"error: request too large: {size} lattice points per scan, above 5,000,000\n"


@pytest.mark.parametrize("base", ["HO", "LINEAR_ABS"])
def test_verify_bounds_its_own_scan_before_any_chi_call(monkeypatch, capsys, base):
    # a delta strength of -1e160 puts the floor, and the low edge of the
    # default window verify scans, at -inf; verify used to exit 2 with a
    # bare "cannot convert float infinity to integer"
    calls = []
    monkeypatch.setattr(spectrum, "find_roots", lambda *args, **kwargs: calls.append(args))
    family = '{"tag":"DELTA_DECORATED","base":"%s","scales":{"delta_strength":-1e160}}' % base
    code, out = run(["verify", "--family", family, "--k", "1"])
    assert (code, out, calls) == (1, "", [])
    assert capsys.readouterr().err == (
        "error: request too large: inf lattice points per scan, above 5,000,000\n")


def test_a_scan_of_five_million_lattice_points_runs(monkeypatch):
    calls = _stub_work(monkeypatch)
    assert run(["levels", "--family", "HO", "--window", "0:4999999", "--step", "1"])[0] == 0
    assert calls == ["levels"]


@pytest.mark.parametrize("argv,size", [
    # 10^6 + 1 values of 201 points; no list of the values is built
    (["sweep", "--family", "HO_ASYM", "--param", "lam", "--range", "1:2:1e-6",
      "--window", "0:1"], "201000201"),
    # 2001 values of the default window's 12401 points
    (["sweep", "--family", "DELTA_DECORATED(HO)", "--param", "tau", "--range=-1:1:0.001"],
     "24814401"),
    (["sweep", "--family", "HO_ASYM", "--param", "lam", "--range", "1:2:1e-320",
      "--window", "0:1"], "inf"),
    # a window-less sweep counts the wider of its end values' default
    # windows: 30,001 values of the 2,401 points at xi = 0.5, where the
    # unswept family's window holds 308 (a bound of 9,240,308 let it run)
    (_row("xi-ends")[0], "72032401"),
    # 50,001 values of 2,401 points at beta = 0.5, not 197 (9,850,197)
    (["sweep", "--family", '{"tag":"LINEAR_ASYM","scales":{"alpha2":0.2}}',
      "--param", "beta", "--range", "0.5:0.55:0.000001"], "120052401"),
], ids=["values", "default-window", "overflow", "xi-ends", "beta-ends"])
def test_a_sweep_above_ten_million_lattice_points_exits_one(monkeypatch, capsys, argv, size):
    err = _rejected(monkeypatch, capsys, argv)
    assert err == (f"error: request too large: {size} sweep values times lattice points, "
                   "above 10,000,000\n")


def test_a_sweep_of_ten_million_lattice_points_runs(monkeypatch):
    # 1000 values of 10000 points
    calls = _stub_work(monkeypatch)
    argv = ["sweep", "--family", "HO_ASYM", "--param", "lam", "--range", "1:1000:1",
            "--window", "0:9999", "--step", "1"]
    assert run(argv)[0] == 0
    assert calls == ["sweep"]


@pytest.mark.parametrize("argv,size", [
    (["green-grid", "--grid=0:1:100000"], "10000000000"),
    (["green-grid", "--grid=0:1:1001"], "1002001"),
    (["green-grid", "--grid=0:1:1000001", "--xp", "0"], "1000001"),
], ids=["full", "one-above", "column"])
def test_a_green_grid_above_a_million_rows_exits_one(monkeypatch, capsys, argv, size):
    err = _rejected(monkeypatch, capsys, argv)
    assert err == f"error: request too large: {size} green-grid rows, above 1,000,000\n"


@pytest.mark.parametrize("argv,field", [
    # omega2 = omega1 / lam and alpha1 = (2 m hbar w1^3)^(1/6) / xi overflow to inf
    (["sweep", "--family", "HO_ASYM", "--param", "lam", "--range", "1e-310:1e-310:1",
      "--window", "0:1"], "omega2"),
    (["sweep", "--family", "HALF_HO_HALF_LINEAR", "--param", "xi",
      "--range", "1e-310:1e-310:1", "--window", "0:1"], "alpha1"),
], ids=["lam", "xi"])
def test_sweep_to_an_infinite_scale_is_a_usage_error(capsys, argv, field):
    code, out = run(argv)
    assert (code, out) == (1, "")
    assert capsys.readouterr().err == f"error: {field} must be finite, got inf\n"


def test_a_json_boolean_is_not_a_family_scale(capsys):
    # the config layer already refused --set step=true; a scale now does too
    code, out = run(["levels", "--family", '{"tag":"HO","scales":{"omega1":true}}',
                     "--window", "0:2"])
    assert (code, out) == (1, "")
    assert capsys.readouterr().err == (
        "error: scale field 'omega1' must be a finite number, got True\n")


HUGE = "1" + "0" * 400  # valid JSON, an integer beyond the float range


@pytest.mark.parametrize("argv", [
    ["levels", "--set", f"step={HUGE}"],
    ["green-grid", "--set", f"energy={HUGE}", "--xp", "0"],
    ["green-grid", "--set", f"grid=[0,1,{HUGE}]", "--xp", "0"],
    ["levels", "--family", f'{{"tag":"HO","scales":{{"omega1":{HUGE}}}}}', "--window", "0:2"],
], ids=["step", "energy", "grid", "scale"])
def test_an_integer_beyond_the_float_range_is_a_usage_error(capsys, argv):
    code, out = run(argv)
    err = capsys.readouterr().err
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "Traceback" not in err


def test_whole_number_grid_count_from_a_config_is_the_flag_grid():
    flag = run(["green-grid", "--grid=-1:1:3", "--xp", "0"])
    assert flag[0] == 0
    assert run(["green-grid", "--set", "grid=[-1,1,3.0]", "--xp", "0"]) == flag


def test_usage_error_paths():
    assert run(["levels", "--window", "5"])[0] == 1
    assert run(["levels", "--step", "-1"])[0] == 1
    assert run(["sweep", "--family", "HO_ASYM", "--param", "lam",
                "--range", "1:0.5:0.1"])[0] == 1
    assert run(["green-grid", "--grid", "0:1:1"])[0] == 1


# ----------------------------------------------------------------------
# the pinned requests
# ----------------------------------------------------------------------


@pytest.mark.parametrize("argv,code,sha", [row[1:] for row in pinned.PINNED],
                         ids=pinned.request_ids())
def test_pinned_request_keeps_its_exit_code_and_stdout(config, argv, code, sha):
    if tuple(argv) not in _CHECKED:
        got, out = run(pinned.with_config(argv, config))
        assert (got, _sha256(out)) == (code, sha)


def test_a_pinned_request_that_fails_prints_nothing():
    # a run's output holds its complete result or nothing (cli's contract)
    failing = [sha for _, _, code, sha in pinned.PINNED if code != 0]
    assert failing and set(failing) == {hashlib.sha256(b"").hexdigest()}

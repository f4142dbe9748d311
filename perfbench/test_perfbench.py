"""The benchmark's own tests: traced counts are complete and add up,
and tracing leaves no wrapper behind.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import io
import json
import math
import sys
import types
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import pytest  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from greenwell import cli, model, oracle, resolvent, specfun, spectrum  # noqa: E402

GW = types.SimpleNamespace(cli=cli, model=model, oracle=oracle, resolvent=resolvent,
                           specfun=specfun, spectrum=spectrum)
BRACKET_WIDTH = 2.5e-13     # find_roots' documented bracket contract
EIG_TOL = 1e-10             # lowest_eigenvalues' default bisection width


def traced(*argvs):
    """Run CLI requests under a fresh tracer; returns (tracer, outputs)."""
    tr = tracing.Tracer()
    tr.install(GW)
    outputs = []
    try:
        for i, argv in enumerate(argvs):
            stream = io.StringIO()
            code = tr.run_request(i, cli.main, argv, stream)
            assert code == 0, (argv, code)
            outputs.append(stream.getvalue())
    finally:
        tr.uninstall()
    return tr, outputs


def count(tr, name, parent=None):
    ids = tr.names
    return sum(1 for i in range(len(tr))
               if ids[tr.name[i]] == name
               and (parent is None or (tr.parent[i] >= 0
                                       and ids[tr.name[tr.parent[i]]] == parent)))


@pytest.mark.parametrize("base,green", [("HO", "resolvent.green_ho"),
                                        ("LINEAR_ABS", "resolvent.green_linear")])
def test_decorated_grid_makes_four_base_calls_per_point(base, green):
    n = 5
    tr, _ = traced(["green-grid", "--family", f"DELTA_DECORATED({base})",
                    "--energy", "2.3", f"--grid=-2:2:{n}"])
    # the base Green function is reached only through resolvent._BASE_GREEN
    assert count(tr, green, parent="resolvent.green_decorated") == 4 * n * n
    assert count(tr, green) == 4 * n * n
    assert tracing.layer_metrics(tr)["resolvent.green.calls.DELTA_DECORATED"][0] == n * n


def _bisection_steps(lo, hi, final, width):
    """Halvings find_roots/lowest_eigenvalues make from [lo, hi] to end
    in a bracket around `final` no wider than `width`."""
    steps = 0
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        steps += 1
        if final < mid:
            hi = mid
        else:
            lo = mid
    return steps


@pytest.mark.parametrize("family,window", [("DELTA_DECORATED(HO)", (-2.0, 3.0)),
                                           ("LINEAR_ABS", (0.0, 5.0))])
def test_chi_evals_equal_scan_points_plus_bisection_steps(family, window):
    step = 0.005
    tr, (text,) = traced(["levels", "--family", family,
                          f"--window={window[0]}:{window[1]}", "--step", str(step)])
    fam = model.family_from_dict(cli._parse_family(family))
    factors = max(1, len(spectrum.build_chi(fam).factors))
    lo, hi = window
    n_steps = math.ceil((hi - lo) / step)
    grid = [lo] + [min(lo + i * step, hi) for i in range(1, n_steps + 1)]
    expected = factors * len(grid)
    rows = [line.split(",") for line in text.strip().splitlines()[1:]]
    assert rows
    for row in rows:
        b_lo, b_hi = float(row[4]), float(row[5])
        root = 0.5 * (b_lo + b_hi)
        k = next(i for i in range(1, len(grid)) if grid[i - 1] < root < grid[i])
        # bisection steps plus one residual evaluation per root
        expected += _bisection_steps(grid[k - 1], grid[k], root, BRACKET_WIDTH) + 1
    metrics = tracing.layer_metrics(tr)
    assert metrics["spectrum.chi_evals"][0] == expected
    assert metrics["spectrum.roots"][0] == len(rows)


def test_sturm_counts_equal_bisection_steps_of_verify():
    k, n = 4, 1000
    fd = {"tag": "HO_ASYM", "scales": {"omega2": 1.7}}
    tr, _ = traced(["verify", "--family", json.dumps(fd), "--k", str(k), "--n-oracle", str(n)])
    # the same operator verify builds, from the public functions
    fam = model.family_from_dict(fd)
    res = spectrum.find_roots(spectrum.build_chi(fam), step=0.005)
    e_top = res.values()[k - 1] * fam.scales.hbar * fam.scales.omega1
    op = oracle.discretize(fam, oracle.auto_grid(fam, e_max=e_top, n_points=n), e_max=e_top)
    eigs = oracle.lowest_eigenvalues(op, k)
    lo0 = min(op.diag) - 2.0 * abs(op.off)
    hi0 = max(op.diag) + 2.0 * abs(op.off)
    steps = sum(_bisection_steps(lo0 if j == 0 else eigs[j - 1] - EIG_TOL, hi0, e, EIG_TOL)
                for j, e in enumerate(eigs))
    metrics = tracing.layer_metrics(tr)
    assert metrics["oracle.sturm_counts"][0] == steps
    assert count(tr, "oracle.eigenvalue_count_below", parent="oracle.lowest_eigenvalues") == steps
    assert metrics["oracle.sturm_counts_per_eigenvalue"][0] == steps / k


def test_uninstall_restores_every_original():
    originals = {m: dict(vars(getattr(GW, m))) for m in tracing.MODULES}
    base_green = dict(resolvent._BASE_GREEN)
    tr = tracing.Tracer()
    patched = tr.install(GW)
    assert patched > 50
    assert resolvent._BASE_GREEN["HO"] is not base_green["HO"]
    assert oracle.potential_value is not originals["oracle"]["potential_value"]
    tr.uninstall()
    for m in tracing.MODULES:
        space = vars(getattr(GW, m))
        for key, value in originals[m].items():
            assert space[key] is value, (m, key)
    assert resolvent._BASE_GREEN == base_green
    assert not any(hasattr(v, "__wrapped__") for m in tracing.MODULES
                   for v in vars(getattr(GW, m)).values())


def test_counts_repeat_for_the_same_seed():
    n = 9

    def counts():
        # the seed's green_grid requests, on n x n instead of 81 x 81 grids
        reqs = workloads.make_round(GW, "green_grid", 7, 0)
        argvs = [[a if not a.startswith("--grid=") else a.rsplit(":", 1)[0] + f":{n}"
                  for a in r.argv] for r in reqs]
        tr, outputs = traced(*argvs)
        return ({k: v for k, (v, unit) in tracing.layer_metrics(tr).items() if unit != "s"},
                outputs)
    first, second = counts(), counts()
    assert first == second
    assert first[0]["resolvent.green.calls"] == len(workloads.GREEN_VARIANTS) * n * n


def test_cold_start_builds_round_zero():
    import subprocess
    done = subprocess.run([sys.executable, str(Path(__file__).resolve().parent / "cold_start.py"),
                           "spectrum_mix", "3"], capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stdout) == (0, "ready\n")


def test_tail_and_verdict():
    import run
    lat = list(range(1, 101))
    value, pct = run.tail(lat)
    assert value == 90 and pct == 90.0
    assert sum(1 for x in lat if x > value) == run.TAIL_BEYOND
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    old = [1.0, 1.01, 0.99, 1.0]
    assert run.verdict(old, [0.5, 0.51, 0.49, 0.5], "lower", 0.1) == "improved"
    assert run.verdict(old, [1.5, 1.51, 1.49, 1.5], "lower", 0.1) == "worse"
    assert run.verdict(old, [1.02, 1.0, 0.98, 1.01], "lower", 0.1) == "unchanged"
    assert run.verdict(old, [0.5, 2.0, 0.6, 1.9], "lower", 0.1) == "unresolved"


def test_speed_probe_scales_by_the_adjacent_probes(monkeypatch):
    import run
    samples = iter([[2e-3] * run.PROBES, [4e-3] * run.PROBES, [1e-3] * run.PROBES])
    monkeypatch.setattr(run.SpeedProbe, "sample", staticmethod(lambda: next(samples)))
    probe = run.SpeedProbe()
    # probes before and after: median 3 ms, twice the reference time
    assert probe.scale(0.6) == pytest.approx(0.6 * run.REF_PROBE_S / 3e-3)
    assert probe.scale(0.6) == pytest.approx(0.6 * run.REF_PROBE_S / 2.5e-3)

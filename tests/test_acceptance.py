"""Acceptance suite: every exit criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL
line per criterion.
"""

import io
import math
import time

import pytest

from greenwell import cli, model, resolvent as rv, specfun as sf, spectrum as sp
from greenwell.model import (
    DELTA_DECORATED,
    HALF_HO_HALF_LINEAR,
    HO,
    HO_ASYM,
    HO_PLUS_ABS,
    HO_STARK,
    LINEAR_ABS,
    LINEAR_ASYM,
    default_family,
)

TABLE_REF = (0.50501, 1.27615, 1.88901, 2.43392, 2.94119,
             3.41789, 3.86844, 4.29867, 4.71332, 5.11461)


def _report(num, desc, fn):
    try:
        fn()
    except BaseException:
        print(f"[FAIL] criterion {num}: {desc}")
        raise
    print(f"[PASS] criterion {num}: {desc}")


# ----------------------------------------------------------------------


def test_criterion_1_table_reproduction():
    def body():
        t0 = time.perf_counter()
        fam = default_family(HALF_HO_HALF_LINEAR)  # xi = sqrt 2, hbar^2 = 2m
        res = sp.find_roots(sp.build_chi(fam), window=(1e-6, 5.5), step=0.005)
        vals = res.values()
        assert len(vals) >= 10
        for got, ref in zip(vals[:10], TABLE_REF):
            assert abs(got - ref) <= 5e-5, (got, ref)
        elapsed = time.perf_counter() - t0
        assert elapsed <= 5.0, f"took {elapsed:.2f} s"

    _report(1, "ten composite-well levels at xi=sqrt(2) within 5e-5, under 5 s", body)


def test_criterion_2_stark_analytic():
    def body():
        for alpha3 in (0.5, 1.3, 2.0):
            fam = default_family(HO_STARK, alpha1=alpha3 ** (1.0 / 3.0))
            roots = sp.find_roots(sp.build_chi(fam), step=0.01).values()
            for n in range(6):
                assert abs(roots[n] - sp.levels_ho_stark(n, fam.scales)) <= 1e-9

    _report(2, "Stark levels equal n + 1/2 - (mu phi/2)^2 within 1e-9", body)


def test_criterion_3_asym_reciprocity():
    def body():
        for lam in (0.2, 0.5, 0.8):
            fam_a = default_family(HO_ASYM, omega2=1.0 / lam)
            fam_b = default_family(HO_ASYM, omega2=lam)
            ra = sp.find_roots(sp.build_chi(fam_a), window=(1e-6, 12.0)).values()
            rb = sp.find_roots(sp.build_chi(fam_b), window=(1e-6, 12.0)).values()
            for k in range(5):
                assert abs(ra[k] - rb[k] / lam) <= 1e-8
        fam_1 = default_family(HO_ASYM, omega2=1.0)
        for n, v in enumerate(sp.find_roots(sp.build_chi(fam_1), window=(1e-6, 8.0)).values()):
            assert abs(v - (n + 0.5)) <= 1e-9

    _report(3, "asym-oscillator reciprocity eps(lam) = eps(1/lam)/lam within 1e-8", body)


def test_criterion_4_oracle_equivalence():
    def body():
        t0 = time.perf_counter()
        plan = [
            (default_family(HO), 4000, 2e-3),
            (default_family(HO_STARK), 4000, 2e-3),
            (default_family(HO_ASYM), 4000, 2e-3),
            (default_family(LINEAR_ABS), 4000, 2e-3),
            (default_family(LINEAR_ASYM), 4000, 2e-3),
            (default_family(HALF_HO_HALF_LINEAR), 4000, 2e-3),
            (default_family(HO_PLUS_ABS), 4000, 2e-3),
            (default_family(DELTA_DECORATED, base=HO), 8000, 5e-3),
            (default_family(DELTA_DECORATED, base=LINEAR_ABS), 8000, 5e-3),
        ]
        for fam, n, tol in plan:
            closed, orc, worst = cli.verify_family(fam, k=5, n_points=n)
            assert worst <= tol, (fam.tag, fam.base, worst, tol)
        elapsed = time.perf_counter() - t0
        assert elapsed <= 180.0, f"took {elapsed:.1f} s"

    _report(4, "first 5 levels of every family match the FD oracle "
               "(2e-3 smooth at n=4000, 5e-3 delta at n=8000) in under 3 min", body)


def test_criterion_5_resolvent_identities():
    def body():
        fam = default_family(HO)
        s = fam.scales
        # series vs closed form: 25 points, 500 terms, <= 1e-6 relative
        pts = [-2.0, -1.1, 0.1, 0.9, 2.0]
        for eps in (-0.3, 0.2, 0.7, 1.9):
            for i, x in enumerate(pts):
                xp = pts[(i + 2) % 5]
                closed = rv.green_ho(x, xp, eps, s).value
                series = rv.green_ho_series(x, xp, eps, s, 500, tail=True).value
                assert abs(closed - series) <= 1e-6 * abs(closed)
        # derivative jump of G~ equals 1 within 5e-6
        h = 1e-5
        for green, fam2, xd, e in (
                (rv.green_ho, fam, 0.4, 0.2),
                (rv.green_linear, default_family(LINEAR_ABS), 0.5, 0.4)):
            s2 = fam2.scales
            g = lambda x: rv.to_tilde(green(x, xd, e, s2), s2).value
            jump = (g(xd + h) + g(xd - h) - 2.0 * g(xd)) / h
            assert abs(jump - 1.0) <= 5e-6
        # defining-equation residual off the diagonal <= 1e-4 relative
        hh = 1e-4
        for (x, xp) in ((-1.2, 0.7), (0.3, 0.7), (1.5, -0.4), (-0.6, -1.8)):
            g = lambda t: rv.to_tilde(rv.green_ho(t, xp, 1.7, s), s).value
            second = (g(x + hh) - 2.0 * g(x) + g(x - hh)) / (hh * hh)
            mu2 = 2.0 * s.mass * s.omega1 / s.hbar
            res = second + mu2 * (1.7 - model.potential_value(fam, x)) * g(x)
            assert abs(res) <= 1e-4 * max(abs(g(x)), 1e-3)
        # symmetry and parity bit-exact
        for (x, xp) in ((0.3, 1.1), (-0.8, 0.4)):
            assert rv.green_ho(x, xp, 2.0, s).value == rv.green_ho(xp, x, 2.0, s).value
            assert rv.green_ho(x, xp, 2.0, s).value == rv.green_ho(-xp, -x, 2.0, s).value

    _report(5, "series/closed-form 1e-6, jump=1 within 5e-6, PDE residual 1e-4, "
               "symmetry exact", body)


def test_criterion_6_delta_decoration_structure():
    def body():
        taus = (-1.2, -1.0, -0.5, 0.5, 1.0, 1.2)
        # p = 0: odd oscillator states satisfy the condition to 1e-10
        for tau in taus:
            for k in range(5):
                assert abs(sp.chi_delta_ho(2.0 * k + 1.5, tau, 0.0)) <= 1e-10
        # interlacing across the figure parameter grid
        s = default_family(HO).scales
        mu = math.sqrt(2.0)
        for tau in taus:
            for p in (0.5, 2.0):
                a = tau * math.sqrt(math.pi)
                fam = default_family(DELTA_DECORATED, base=HO,
                                     delta_strength=a, delta_position=p / mu)
                vals = sp.find_roots(sp.build_chi(fam), window=(-3.0, 6.5),
                                     step=0.005).values()[:6]
                if tau > 0:
                    for n, v in enumerate(vals):
                        assert n + 0.5 < v < n + 1.5, (tau, p, n, v)
                else:
                    assert vals[0] < 0.5
                    for n, v in enumerate(vals[1:], start=1):
                        assert n - 0.5 < v < n + 0.5, (tau, p, n, v)

    _report(6, "delta decoration: odd states fixed at p=0 (|chi| <= 1e-10), "
               "interlacing holds on the figure grid", body)


def test_criterion_7_special_function_identities():
    def body():
        # Gamma recurrence on 200 non-pole points in [-20, 20]
        for i in range(200):
            x = -20.0 + 40.0 * i / 199.0 + 0.0137
            g1 = sf.gamma(x + 1.0)
            assert abs(g1 - x * sf.gamma(x)) / abs(g1) <= 1e-11
            assert abs(sf.rgamma(x) * sf.gamma(x) - 1.0) <= 1e-11
        # D three-term recurrence, mixed tolerance
        nu = -5.0
        while nu <= 8.0 + 1e-9:
            z = -6.0
            while z <= 6.0 + 1e-9:
                d0 = sf.pcf_d(nu, z).value
                dp = sf.pcf_d(nu + 1.0, z).value
                dm = sf.pcf_d(nu - 1.0, z).value
                r = abs(dp - z * d0 + nu * dm)
                scale = max(abs(dp), abs(z * d0), abs(nu * dm), 1e-300)
                assert r <= 1e-9 or r / scale <= 1e-8
                z += 0.5
            nu += 0.5
        # integer-order Hermite reduction
        for n in range(11):
            z = -6.0
            while z <= 6.0 + 1e-9:
                href = (2.0 ** (-n / 2.0) * math.exp(-z * z / 4.0)
                        * sf.hermite_h(n, z / math.sqrt(2.0)))
                if href != 0.0:
                    assert abs(sf.pcf_d(float(n), z).value - href) <= 1e-9 * abs(href)
                z += 0.61
        # Airy ODE residual and Wronskian
        h = 1e-3
        x = -10.0
        while x <= 10.0 + 1e-9:
            for fn in (sf.airy_ai, sf.airy_bi):
                second = (fn(x + h).value - 2.0 * fn(x).value + fn(x - h).value) / (h * h)
                assert abs(second - x * fn(x).value) <= 1e-5 * max(1.0, abs(fn(x).value))
            x += 0.5
        x = -12.0
        while x <= 8.0 + 1e-9:
            ai, aip, bi, bip = sf.airy_all(x)
            assert abs(ai.value * bip.value - aip.value * bi.value - 1.0 / math.pi) <= 1e-9
            x += 0.25

    _report(7, "Gamma recurrence, rgamma*Gamma, D recurrence, Hermite reduction, "
               "Airy ODE and Wronskian identities", body)


def _run_cli(argv):
    out = io.StringIO()
    code = cli.main(argv, stream=out)
    return code, out.getvalue()


def test_criterion_8_figure_data_regeneration():
    def body():
        # Green-function grids (oscillator at two energies; Stark fields;
        # linear well at two energies): deterministic byte output
        grids = [
            ["green-grid", "--family", "HO", "--energy", "2", "--grid=-3:3:13"],
            ["green-grid", "--family", "HO", "--energy", "4.3", "--grid=-3:3:13"],
            ["green-grid", "--family", "LINEAR_ABS", "--energy", "2.3", "--grid=-3:3:13"],
            ["green-grid", "--family", "LINEAR_ABS", "--energy", "3.2", "--grid=-3:3:13"],
        ]
        for a3 in (0.0, 0.5, 1.3, 2.0):
            fam = ('{"tag": "HO_STARK", "scales": {"alpha1": %.17g}}' % (a3 ** (1 / 3)))
            grids.append(["green-grid", "--family", fam, "--energy", "2", "--grid=-3:3:13"])
        for argv in grids:
            c1, o1 = _run_cli(argv)
            c2, o2 = _run_cli(argv)
            assert c1 == 0 and c2 == 0 and o1 == o2
        # sweeps: two-frequency ratio, two-slope ratio, composite xi,
        # oscillator+|x| slope, delta strength and position
        sweeps = [
            ["sweep", "--family", "HO_ASYM", "--param", "lam",
             "--range", "0.2:3.0:0.2", "--window", "0.000001:12", "--step", "0.01",
             "--allow-breaks"],
            # window capped so rho beta^2 stays inside the Airy domain
            ["sweep", "--family", "LINEAR_ASYM", "--param", "beta",
             "--range", "0.3:2.1:0.3", "--window", "0.000001:5.5", "--step", "0.01",
             "--allow-breaks"],
            # xi^2 eps <= 25 keeps the Airy argument inside its domain
            ["sweep", "--family", "HALF_HO_HALF_LINEAR", "--param", "xi",
             "--range", "0.6:1.8:0.3", "--window", "0.000001:7.5", "--step", "0.01",
             "--allow-breaks"],
            ["sweep", "--family", "HO_PLUS_ABS", "--param", "muphi",
             "--range", "0.2:2.2:0.4", "--window", "0.000001:9", "--step", "0.01",
             "--allow-breaks"],
            ["sweep", "--family", "DELTA_DECORATED(HO)", "--param", "tau",
             "--range=-1.2:1.2:0.2", "--window=-3:6", "--step", "0.01",
             "--allow-breaks", "--set", "family.scales.delta_position=0.35355339059327373"],
            ["sweep", "--family", "DELTA_DECORATED(HO)", "--param", "p",
             "--range", "0:4:0.5", "--window", "0:6", "--step", "0.01",
             "--allow-breaks", "--set", "family.scales.delta_strength=1.7724538509055159"],
        ]
        outputs = []
        for argv in sweeps:
            c1, o1 = _run_cli(argv)
            c2, o2 = _run_cli(argv)
            assert c1 == 0 and c2 == 0 and o1 == o2, argv
            outputs.append(o1)

        def curves(text):
            out = {}
            for line in text.strip().split("\n")[1:]:
                p, i, v = line.split(",")
                out.setdefault(int(i), []).append((float(p), float(v)))
            return out

        # asym-oscillator curves pass through n + 1/2 at lam = 1 and fall
        for i, pts in curves(outputs[0]).items():
            at1 = [v for (p, v) in pts if abs(p - 1.0) < 1e-9]
            if at1:
                assert abs(at1[0] - (i + 0.5)) <= 1e-9
            pts.sort()
            for (p1, v1), (p2, v2) in zip(pts, pts[1:]):
                assert v2 <= v1 + 1e-9
        # delta-strength curves monotone nondecreasing in tau
        for i, pts in curves(outputs[4]).items():
            pts.sort()
            for (p1, v1), (p2, v2) in zip(pts, pts[1:]):
                assert v2 >= v1 - 1e-10
        # levels approach n + 1/2 as the delta moves out
        far = {i: v for i, pts in curves(outputs[5]).items()
               for (p, v) in pts if p == 4.0}
        for n in range(3):
            assert abs(far[n] - (n + 0.5)) < 0.05
        # oscillator+|x| curves rise with the slope parameter
        for i, pts in curves(outputs[3]).items():
            pts.sort()
            for (p1, v1), (p2, v2) in zip(pts, pts[1:]):
                assert v2 >= v1 - 1e-10

    _report(8, "figure sweeps and grids regenerate deterministically with the "
               "documented trends", body)

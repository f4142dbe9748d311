"""Closed-form Green functions: identities, limits, and oracle spot checks.

All finite-difference comparisons evaluate the closed form at the
grid-snapped coordinates, so only discretization error enters.
"""

import dataclasses
import math

import pytest

from conftest import fd_green_probe, rel_err
from greenwell import model, resolvent as rv, specfun as sf, spectrum
from greenwell.model import (
    DELTA_DECORATED,
    HO,
    HO_PLUS_ABS,
    HO_STARK,
    LINEAR_ABS,
    default_family,
)
from greenwell.resolvent import NearPoleError, OnResonanceError


HO_FAM = default_family(HO)
LIN_FAM = default_family(LINEAR_ABS)
HOABS_FAM = default_family(HO_PLUS_ABS)
STARK_FAM = default_family(HO_STARK)


def tilde(geval, scales):
    return rv.to_tilde(geval, scales).value


# ----------------------------------------------------------------------
# symmetry and parity (bit-exact by ordered-argument construction)
# ----------------------------------------------------------------------


@pytest.mark.parametrize("fn,fam,energy", [
    (rv.green_ho, HO_FAM, 2.0),
    (rv.green_linear, LIN_FAM, 1.7),
    (rv.green_ho_plus_abs, HOABS_FAM, 1.7),
    (rv.green_ho_stark, STARK_FAM, 1.3),
])
def test_symmetry_exact(fn, fam, energy):
    for (x, xp) in ((1.0, 2.0), (-0.4, 0.9), (-1.7, -0.3)):
        assert fn(x, xp, energy, fam.scales).value == fn(xp, x, energy, fam.scales).value


@pytest.mark.parametrize("fn,fam,energy", [
    (rv.green_ho, HO_FAM, 2.0),
    (rv.green_linear, LIN_FAM, 1.7),
    (rv.green_ho_plus_abs, HOABS_FAM, 1.7),
])
def test_parity(fn, fam, energy):
    for (x, xp) in ((0.3, 1.1), (-0.8, 0.4)):
        a = fn(x, xp, energy, fam.scales).value
        b = fn(-xp, -x, energy, fam.scales).value
        assert a == pytest.approx(b, rel=1e-11)


def test_stark_shifted_symmetry_center():
    # value at (x, x') equals value at (-x' - 2 phi, -x - 2 phi)
    s = STARK_FAM.scales
    phi = s.alpha1 ** 3 / (s.mass * s.omega1 ** 2)
    for (x, xp) in ((0.2, 0.9), (-1.0, 0.5)):
        a = rv.green_ho_stark(x, xp, 1.3, s).value
        b = rv.green_ho_stark(-xp - 2.0 * phi, -x - 2.0 * phi, 1.3, s).value
        assert a == pytest.approx(b, rel=1e-11)


# ----------------------------------------------------------------------
# series oracle
# ----------------------------------------------------------------------


def test_series_single_term_origin():
    g = rv.green_ho_series(0.0, 0.0, 0.0, HO_FAM.scales, n_terms=1)
    assert g.value == pytest.approx(2.0 / math.sqrt(math.pi), rel=1e-14)


def test_series_tail_stability_250_vs_500():
    a = rv.green_ho_series(0.5, 0.5, 0.2, HO_FAM.scales, 250, tail=True).value
    b = rv.green_ho_series(0.5, 0.5, 0.2, HO_FAM.scales, 500, tail=True).value
    assert abs(a - b) < 1e-8 * abs(b)


def test_plain_truncation_tail_is_slow():
    # documents why the tail completion exists: the raw 250 -> 500 move
    # still changes the value at the percent level
    a = rv.green_ho_series(0.5, 0.5, 0.2, HO_FAM.scales, 250).value
    b = rv.green_ho_series(0.5, 0.5, 0.2, HO_FAM.scales, 500).value
    assert abs(a - b) > 1e-3 * abs(b)


def test_series_vs_closed_form_25_points():
    # |closed - series(500, tail)| / |closed| <= 1e-6 on a 5 x 5 grid of
    # (x, x') in [-2, 2] for eps in {-0.3, 0.2, 0.7, 1.9}
    pts = [-2.0, -1.1, 0.1, 0.9, 2.0]
    worst = 0.0
    for eps in (-0.3, 0.2, 0.7, 1.9):
        for x in pts:
            for xp in pts:
                closed = rv.green_ho(x, xp, eps, HO_FAM.scales).value
                series = rv.green_ho_series(x, xp, eps, HO_FAM.scales, 500, tail=True).value
                worst = max(worst, abs(closed - series) / abs(closed))
    assert worst <= 1e-6, worst


# G(x, 0; 2.3) of the default HO, the closed form in 50-digit mpmath at
# the float E = 2.3 (the GREEN_TAIL references of tests/test_cli.py)
SERIES_REF = (
    (0.0, 1.4196372722271097060257489596),
    (4.0, -0.0118571478538161813139521774238),
    (8.0, -1.5855616260922310650954913945e-12),
    (9.0, -3.9927254277832953272046678582e-16),
    (10.0, -3.61579103986051118328583206441e-20),
)


@pytest.mark.parametrize("x,ref", SERIES_REF)
def test_series_tail_error_is_absolute_against_the_peak(x, ref):
    # the completed series is accurate to 1e-12 of G's peak G(0, 0), not
    # relative to G: at x = 10 it has the wrong sign
    series = rv.green_ho_series(x, 0.0, 2.3, HO_FAM.scales, tail=True).value
    assert abs(series - ref) <= 1e-12 * SERIES_REF[0][1]


def test_green_ho_spot_value_vs_series_oracle():
    closed = rv.green_ho(0.3, -0.7, 2.0, HO_FAM.scales).value
    series = rv.green_ho_series(0.3, -0.7, 2.0, HO_FAM.scales, 500, tail=True).value
    assert closed == pytest.approx(series, rel=1e-6)


def test_series_near_pole_error():
    with pytest.raises(NearPoleError):
        rv.green_ho_series(0.1, 0.2, 0.5 + 1e-8, HO_FAM.scales)


# ----------------------------------------------------------------------
# pole reporting
# ----------------------------------------------------------------------


def test_ho_near_pole_reports_index():
    with pytest.raises(NearPoleError) as exc:
        rv.green_ho(0.1, 0.2, 2.5 + 1e-10, HO_FAM.scales)
    assert exc.value.index == 2


def test_linear_near_pole_reports_parity():
    # rho at the first Ai' zero: even state
    with pytest.raises(NearPoleError) as exc:
        rv.green_linear(0.1, 0.4, 1.018792971647471, LIN_FAM.scales)
    assert exc.value.parity == "even"


@pytest.mark.parametrize("green,fam,pole,regular,attr,expected", [
    (rv.green_ho, HO_FAM, 2.5, 2.3, "index", 2),
    (rv.green_linear, LIN_FAM, 1.018792971647471, 1.7, "parity", "even"),   # Ai'(-rho) = 0
    (rv.green_ho_plus_abs, HOABS_FAM, 2.537195530803947, 2.3, "parity", "odd"),
], ids=["HO", "LINEAR_ABS", "HO_PLUS_ABS"])
def test_pole_raises_on_every_call_inside_a_memo_scope(green, fam, pole, regular, attr, expected):
    # the pole check runs when a solution object is built, and a failed
    # build is never kept, so no later call with the same scales object
    # can return a value; a cold call passes a fresh copy of the scales
    cold = green(0.3, -0.8, regular, dataclasses.replace(fam.scales)).value.hex()
    for x, xp in ((0.1, 0.4), (0.1, 0.4), (-0.6, 0.2)):
        with pytest.raises(NearPoleError) as exc:
            green(x, xp, pole, fam.scales)
        assert getattr(exc.value, attr) == expected
    assert green(0.3, -0.8, regular, fam.scales).value.hex() == cold


def _pole_parity(fam, natural):
    """The parity NearPoleError names at natural energy `natural` (eps
    or rho), or None where the mirror well's Green function has a value."""
    try:
        rv.green(0.1, 0.4, fam.energy(natural), fam)
    except NearPoleError as exc:
        return exc.parity
    return None


def _lowest_levels(fam, k):
    return spectrum.find_roots(spectrum.build_chi(fam), window=(1e-6, 20.0), limit=k).roots


@pytest.mark.parametrize("fam", [LIN_FAM, HOABS_FAM], ids=[LINEAR_ABS, HO_PLUS_ABS])
def test_mirror_pole_check_names_the_parity_at_each_of_the_first_12_levels(fam):
    # the parity factors fall by orders of magnitude from level to level:
    # an absolute test on u0 u1 let HO+|x| levels 5 to 11 through
    roots = _lowest_levels(fam, 12)
    assert [root.index for root in roots] == list(range(12))
    for root in roots:
        # the root and both ends of its 2.5e-13 bracket
        assert {_pole_parity(fam, e) for e in (root.value, *root.bracket)} == {root.parity}


@pytest.mark.parametrize("fam", [LIN_FAM, HOABS_FAM], ids=[LINEAR_ABS, HO_PLUS_ABS])
def test_mirror_pole_exclusion_half_width(fam):
    # 1.6e-11 to 2.3e-10 in eps or rho on each side of each of the first 8 levels
    for root in _lowest_levels(fam, 8):
        for sign in (-1.0, 1.0):
            assert _pole_parity(fam, root.value + sign * 1.5e-11) == root.parity
            assert _pole_parity(fam, root.value + sign * 2.5e-10) is None


# below the spectrum both parity factors are far from zero, but small:
# an absolute test on u0 u1 called each of these energies a pole
@pytest.mark.parametrize("fam,energy", [
    (LIN_FAM, -8.0), (LIN_FAM, -12.0), (default_family(DELTA_DECORATED, base=LINEAR_ABS), -8.0),
    (HOABS_FAM, -12.0), (HOABS_FAM, -20.0)],
    ids=["LINEAR_ABS-8", "LINEAR_ABS-12", "DEC_LINEAR_ABS-8", "HO_PLUS_ABS-12", "HO_PLUS_ABS-20"])
def test_mirror_wells_below_the_spectrum_match_richardson_fd_columns(fam, energy):
    coarse, fine = (fd_green_probe(fam, energy, 0.3, (-1.0, 0.0, 1.0), n, 8.0, energy)
                    for n in (1599, 3199))  # h = 0.01 and 0.005
    for (x, x_src, g_h), (_, _, g_half) in zip(coarse, fine):
        assert rel_err(rv.green(x, x_src, energy, fam).value, (4.0 * g_half - g_h) / 3.0) < 1e-7


def test_airy_solutions_have_no_pole_check():
    # the scan's Airy branch, not a Green function's mirror pair: u and
    # its continuation v(t) = u(-t) finite at an Airy-zero rho
    br = rv._Airy(1.018792971647471)
    values = (br.value(0.3), br.continued(0.3), br.value0, br.slope0)
    assert len(values) == 4 and all(math.isfinite(v) for v in values)


# ----------------------------------------------------------------------
# jump conditions:  d/dx G~ jumps by exactly 1 across x = x'
# ----------------------------------------------------------------------


def _jump_probe(green, xdiag, energy, scales, h=1e-5):
    gp = tilde(green(xdiag + h, xdiag, energy, scales), scales)
    gm = tilde(green(xdiag - h, xdiag, energy, scales), scales)
    g0 = tilde(green(xdiag, xdiag, energy, scales), scales)
    return (gp + gm - 2.0 * g0) / h


@pytest.mark.parametrize("green,fam,xdiag,energy", [
    (rv.green_ho, HO_FAM, 0.4, 0.2),
    (rv.green_ho, HO_FAM, -0.9, 0.2),
    (rv.green_linear, LIN_FAM, 0.5, 0.4),
    (rv.green_linear, LIN_FAM, -0.7, 0.4),
    (rv.green_ho_plus_abs, HOABS_FAM, 0.6, 0.3),
    # E = V(0.2) kills the local curvature so the O(h) probe bias vanishes
    (rv.green_ho_stark, STARK_FAM, 0.2, 0.28),
    # hbar^2 != 2m checks the mirror pairs' shared -(2m/hbar^2) / (2 k u0 u1);
    # each at E = V(xdiag) again
    (rv.green_linear, default_family(LINEAR_ABS, hbar=0.8, mass=1.7), 0.5, 0.5),
    (rv.green_ho_plus_abs, default_family(HO_PLUS_ABS, hbar=0.8, mass=1.7), 0.6, 0.906),
    (rv.green_ho_stark, default_family(HO_STARK, hbar=0.8, mass=1.7), 0.2, 0.294),
])
def test_derivative_jump_is_one(green, fam, xdiag, energy):
    assert _jump_probe(green, xdiag, energy, fam.scales) == pytest.approx(1.0, abs=5e-6)


def test_linear_jump_bracket_independent_of_diagonal_point():
    # u v' - u' v is a Wronskian of exact solutions: constant in x'
    rho = 1.7
    w_at = []
    br = rv._Airy(rho)
    for t in (0.7, 0.0):  # v(0.7) forms the continuation's A and B
        u, v = br.value(t), br.continued(t)
        # u' from the branch; v(t) = u(-t) = A Ai(t - rho) + B Bi(t - rho)
        a, b = br.coef
        _, aip, _, bip = br[t]
        up, vp = aip, a * aip + b * bip
        w_at.append(u * vp - up * v)
    assert w_at[0] == pytest.approx(w_at[1], rel=1e-9)


def test_decorated_jump_at_delta_position():
    # d/dx G~ jump across x = q equals (2 m a / hbar^2) G~(q, x')
    fam = default_family(DELTA_DECORATED, base=LINEAR_ABS,
                         delta_strength=-1.0, delta_position=0.5)
    s = fam.scales
    q, xp, e, h = 0.5, 1.2, 0.4, 1e-5
    gfun = lambda x: tilde(rv.green_decorated(x, xp, e, LINEAR_ABS, s), s)
    jump = (gfun(q + h) + gfun(q - h) - 2.0 * gfun(q)) / h
    expect = (2.0 * s.mass * s.delta_strength / s.hbar ** 2) * gfun(q)
    assert jump == pytest.approx(expect, abs=5e-5)


# ----------------------------------------------------------------------
# defining-equation residuals off the diagonal
# ----------------------------------------------------------------------


def _pde_residual_quadratic(green, fam, x, xp, energy, h=1e-4):
    s = fam.scales
    g = lambda t: tilde(green(t, xp, energy, s), s)
    second = (g(x + h) - 2.0 * g(x) + g(x - h)) / (h * h)
    mu2 = 2.0 * s.mass * s.omega1 / s.hbar
    eps = energy / (s.hbar * s.omega1)
    v = model.potential_value(fam, x)
    return second + (mu2 * eps - mu2 * v / (s.hbar * s.omega1)) * g(x), g(x)


def _pde_residual_linear(green, fam, x, xp, energy, h=1e-4):
    s = fam.scales
    g = lambda t: tilde(green(t, xp, energy, s), s)
    second = (g(x + h) - 2.0 * g(x) + g(x - h)) / (h * h)
    k = (2.0 * s.mass / s.hbar ** 2) ** (1.0 / 3.0)
    rho = energy / s.alpha1 ** 2 * k
    zeta = s.alpha1 * k
    return second + (zeta ** 2 * rho - zeta ** 3 * abs(x)) * g(x), g(x)


def test_pde_residual_all_families():
    probes = [(-1.6, 0.7), (-0.8, 0.7), (-0.1, 0.7), (0.3, 0.7), (1.4, 0.7),
              (-1.2, -0.4), (0.2, -0.4), (0.9, -0.4), (1.8, -0.4), (-1.9, -0.4),
              (-1.5, 1.3), (-0.6, 1.3), (0.05, 1.3), (0.8, 1.3), (1.9, 1.3),
              (-1.3, 0.0), (-0.5, 0.0), (0.45, 0.0), (1.1, 0.0), (1.7, 0.0)]
    cases = [
        (rv.green_ho, HO_FAM, 1.7, _pde_residual_quadratic),
        (rv.green_ho_plus_abs, HOABS_FAM, 1.7, _pde_residual_quadratic),
        (rv.green_linear, LIN_FAM, 1.7, _pde_residual_linear),
    ]
    for green, fam, energy, resfun in cases:
        for (x, xp) in probes:
            if abs(x - xp) < 0.2:
                continue
            res, gval = resfun(green, fam, x, xp, energy)
            assert abs(res) <= 1e-4 * max(abs(gval), 1e-3), (fam.tag, x, xp, res)


def test_stark_pde_residual():
    # shifted-HO form: residual of [d^2 + mu^2 eps - mu^2 V/(hbar w)] G~
    s = STARK_FAM.scales
    fam = STARK_FAM
    for (x, xp) in ((-1.2, 0.5), (0.3, 0.5), (1.1, -0.7)):
        res, gval = _pde_residual_quadratic(rv.green_ho_stark, fam, x, xp, 1.3)
        assert abs(res) <= 1e-4 * max(abs(gval), 1e-3)


# ----------------------------------------------------------------------
# limits
# ----------------------------------------------------------------------


def test_stark_spot_value_vs_shifted_series_oracle():
    # the shift identity lets the series oracle check the Stark kernel:
    # evaluate the tail-completed series at (x + phi, x' + phi, E + shift)
    s = STARK_FAM.scales
    phi = s.alpha1 ** 3 / (s.mass * s.omega1 ** 2)
    mu = math.sqrt(2.0 * s.mass * s.omega1 / s.hbar)
    shift = s.hbar * s.omega1 * (0.5 * mu * phi) ** 2
    closed = rv.green_ho_stark(0.5, 0.5, 2.0, s).value
    oracle_val = rv.green_ho_series(0.5 + phi, 0.5 + phi, 2.0 + shift, s,
                                    500, tail=True).value
    assert closed == pytest.approx(oracle_val, rel=1e-6)


def test_stark_zero_field_reduces_to_ho():
    fam = default_family(HO_STARK, alpha1=0.0)
    for (x, xp, e) in ((0.3, -0.7, 2.0), (1.2, 0.4, 0.2), (-1.5, -0.2, 1.1)):
        assert rv.green_ho_stark(x, xp, e, fam.scales).value == \
            pytest.approx(rv.green_ho(x, xp, e, fam.scales).value, rel=1e-12)


@pytest.mark.parametrize("scales", [{}, {"hbar": 0.8, "mass": 1.7}], ids=["default", "other"])
def test_stark_is_the_shifted_oscillator_bit_for_bit(scales):
    # G_{ho,a}(x, x'; E) = G_ho(x + phi, x' + phi; E + hbar w (mu phi/2)^2)
    s = default_family(HO_STARK, **scales).scales
    n = s.natural
    grid = [-2.0 + 0.5 * i for i in range(9)]
    for e in (0.3, 1.7, 2.9):
        for x in grid:
            for xp in grid:
                a = rv.green_ho_stark(x, xp, e, s).value
                b = rv.green_ho(x + n.phi, xp + n.phi, e + n.hbar_omega * n.shift, s).value
                assert a.hex() == b.hex(), (x, xp, e)


def test_hoabs_zero_slope_reduces_to_ho():
    fam = default_family(HO_PLUS_ABS, alpha1=0.0)
    pts = [(0.3, -0.7), (1.2, 0.4), (-1.5, -0.2), (0.0, 0.9), (2.0, -1.0),
           (0.6, 0.6), (-0.3, -0.9), (1.7, 1.1), (-2.0, 0.2), (0.9, -1.6)]
    for (x, xp) in pts:
        a = rv.green_ho_plus_abs(x, xp, 1.7, fam.scales).value
        b = rv.green_ho(x, xp, 1.7, fam.scales).value
        assert a == pytest.approx(b, rel=1e-8), (x, xp)


def test_decorated_zero_coupling_reduces_to_base():
    fam = default_family(DELTA_DECORATED, base=HO, delta_strength=0.0)
    g1 = rv.green_decorated(0.4, 1.0, 1.3, HO, fam.scales).value
    g2 = rv.green_ho(0.4, 1.0, 1.3, fam.scales).value
    assert g1 == g2


def test_decorated_and_series_symmetry_exact():
    fam = default_family(DELTA_DECORATED, base=LINEAR_ABS,
                         delta_strength=-1.0, delta_position=0.5)
    for (x, xp) in ((0.3, 0.9), (-1.1, 0.2)):
        a = rv.green_decorated(x, xp, 0.4, LINEAR_ABS, fam.scales).value
        b = rv.green_decorated(xp, x, 0.4, LINEAR_ABS, fam.scales).value
        assert a == b
        c = rv.green_ho_series(x, xp, 0.4, HO_FAM.scales, 64).value
        d = rv.green_ho_series(xp, x, 0.4, HO_FAM.scales, 64).value
        assert c == d


def test_decorated_pde_residual_off_diagonal_and_spike():
    # away from both x' and q the decorated kernel obeys the base equation
    fam = default_family(DELTA_DECORATED, base=LINEAR_ABS,
                         delta_strength=-1.0, delta_position=0.5)
    s = fam.scales
    h = 1e-4
    xp, e = 1.2, 0.4
    g = lambda t: tilde(rv.green_decorated(t, xp, e, LINEAR_ABS, s), s)
    k = (2.0 * s.mass / s.hbar ** 2) ** (1.0 / 3.0)
    rho = e / s.alpha1 ** 2 * k
    zeta = s.alpha1 * k
    for x in (-1.5, -0.4, 0.2, 0.8, 1.8):
        res = (g(x + h) - 2.0 * g(x) + g(x - h)) / (h * h) \
            + (zeta ** 2 * rho - zeta ** 3 * abs(x)) * g(x)
        assert abs(res) <= 1e-4 * max(abs(g(x)), 1e-3), (x, res)


# ----------------------------------------------------------------------
# finite-difference oracle spot checks (closed form at snapped nodes)
# ----------------------------------------------------------------------


def test_fd_spot_green_ho():
    # relative to the column scale: near the kernel's zero crossings a
    # pointwise relative error is not meaningful
    probes = [-1.5, -0.3, 0.4, 1.2]
    rows = fd_green_probe(HO_FAM, 2.0, -0.7, probes, n_points=4000,
                          half_width=12.0, e_max=4.0)
    closed = [rv.green_ho(x, xs, 2.0, HO_FAM.scales).value for (x, xs, _) in rows]
    scale = max(abs(c) for c in closed)
    for c, (x, xs, g_fd) in zip(closed, rows):
        assert abs(c - g_fd) <= 1e-4 * scale, (x, c, g_fd)


def test_fd_spot_green_linear_both_sides():
    probes = [-1.4, -0.5, 0.3, 1.0]  # source at -0.5 -> same and opposite side
    rows = fd_green_probe(LIN_FAM, 1.7, -0.5, probes, n_points=6000,
                          half_width=20.0, e_max=4.0)
    for (x, xs, g_fd) in rows:
        closed = rv.green_linear(x, xs, 1.7, LIN_FAM.scales).value
        assert rel_err(closed, g_fd) <= 5e-4, (x, closed, g_fd)


def test_fd_spot_green_hoabs():
    probes = [-1.2, -0.4, 0.4, 1.0]
    rows = fd_green_probe(HOABS_FAM, 1.7, -0.9, probes, n_points=6000,
                          half_width=12.0, e_max=4.0)
    for (x, xs, g_fd) in rows:
        closed = rv.green_ho_plus_abs(x, xs, 1.7, HOABS_FAM.scales).value
        assert rel_err(closed, g_fd) <= 5e-4, (x, closed, g_fd)


def test_fd_spot_green_stark():
    probes = [-1.1, 0.2, 0.8]
    rows = fd_green_probe(STARK_FAM, 1.3, 0.5, probes, n_points=6000,
                          half_width=14.0, e_max=4.0)
    for (x, xs, g_fd) in rows:
        closed = rv.green_ho_stark(x, xs, 1.3, STARK_FAM.scales).value
        assert rel_err(closed, g_fd) <= 5e-4, (x, closed, g_fd)


def test_fd_spot_green_decorated_linear_richardson():
    # delta rep is O(h): check agreement at two grids and that the finer
    # grid is closer (Richardson-style guard on the systematic error)
    fam = default_family(DELTA_DECORATED, base=LINEAR_ABS,
                         delta_strength=-1.0, delta_position=0.5)
    errs = []
    for n in (8000, 16000):
        rows = fd_green_probe(fam, 1.1, 0.6, [0.3], n_points=n,
                              half_width=20.0, e_max=4.0)
        x, xs, g_fd = rows[0]
        closed = rv.green_decorated(x, xs, 1.1, LINEAR_ABS, fam.scales).value
        errs.append(rel_err(closed, g_fd))
    assert errs[0] <= 2e-3
    assert errs[1] <= errs[0]


def test_fd_spot_green_decorated_ho():
    # first-order delta representation: 5e-3 at n = 8000, improving with h
    fam = default_family(DELTA_DECORATED, base=HO)  # tau = -1, p = 0.5
    errs = []
    for n in (8000, 16000):
        rows = fd_green_probe(fam, 1.1, 0.8, [-0.6, 0.2, 1.3], n_points=n,
                              half_width=12.0, e_max=4.0)
        worst = 0.0
        for (x, xs, g_fd) in rows:
            closed = rv.green_decorated(x, xs, 1.1, HO, fam.scales).value
            worst = max(worst, rel_err(closed, g_fd))
        errs.append(worst)
    assert errs[0] <= 5e-3
    assert errs[1] <= errs[0]


def test_decorated_on_resonance_error():
    # tau = -1, p = 0.5: a decorated bound state sits at the chi root;
    # evaluating the resolvent exactly there must raise
    from greenwell import spectrum
    fam = default_family(DELTA_DECORATED, base=HO)
    chi = spectrum.build_chi(fam)
    root = spectrum.find_roots(chi, window=(-3.0, 2.0), step=0.01).roots[0].value
    with pytest.raises((OnResonanceError, NearPoleError)):
        rv.green_decorated(0.2, 0.4, root, HO, fam.scales)


# ----------------------------------------------------------------------
# the latest solution object
# ----------------------------------------------------------------------

DEC_HO_FAM = default_family(DELTA_DECORATED, base=HO, delta_position=-0.5)
DEC_LIN_FAM = default_family(DELTA_DECORATED, base=LINEAR_ABS)   # q = 0.5


@pytest.mark.parametrize("green,fam,energy", [
    (rv.green_ho, HO_FAM, 2.3),
    (rv.green_ho_stark, STARK_FAM, 2.3),
    (rv.green_linear, LIN_FAM, 1.7),
    (rv.green_ho_plus_abs, HOABS_FAM, 2.3),
    (lambda x, xp, e, s: rv.green_decorated(x, xp, e, HO, s), DEC_HO_FAM, 2.3),
    (lambda x, xp, e, s: rv.green_decorated(x, xp, e, LINEAR_ABS, s), DEC_LIN_FAM, 1.7),
], ids=["HO", "HO_STARK", "LINEAR_ABS", "HO_PLUS_ABS", "DEC_HO", "DEC_LINEAR_ABS"])
def test_solution_memo_never_changes_a_value(green, fam, energy):
    # the CLI's grid: x = 0, both signs and the delta position q on it
    n = 9
    xs = [-2.0 + 4.0 * i / (n - 1) for i in range(n)]
    assert 0.0 in xs and -0.5 in xs and 0.5 in xs
    energies = (energy, energy + 0.25)

    def points(xps, alternate):
        # energy by energy (each build serves a whole grid), or both
        # energies at every point (each call must rebuild)
        if alternate:
            return [(x, xp, e) for x in xs for xp in xps for e in energies]
        return [(x, xp, e) for e in energies for x in xs for xp in xps]

    # the full grid, an off-grid column and a -0.0 column (one build with +0.0)
    for xps in (xs, [0.3], [-0.0]):
        for alternate in (False, True):
            pts = points(xps, alternate)
            # a fresh scales object per call: every value built afresh
            cold = [green(x, xp, e, dataclasses.replace(fam.scales)).value.hex()
                    for x, xp, e in pts]
            assert [green(x, xp, e, fam.scales).value.hex() for x, xp, e in pts] == cold
            # the family dispatch gives the per-family function's bits
            assert [rv.green(x, xp, e, fam).value.hex() for x, xp, e in pts] == cold


def test_solution_memo_hashes_the_scales_once_per_request(monkeypatch):
    # a grid passes one scales object to every call; the cache matches
    # it by identity instead of hashing the dataclass per point
    fam = DEC_HO_FAM
    hashes = []
    original = type(fam.scales).__hash__
    monkeypatch.setattr(type(fam.scales), "__hash__",
                        lambda self: hashes.append(1) or original(self))
    xs = [-2.0 + 0.5 * i for i in range(9)]
    cold = [rv.green(x, xp, 2.3, model.with_scales(fam)).value.hex() for x in xs for xp in xs]
    hashes.clear()
    warm = [rv.green(x, xp, 2.3, fam).value.hex() for x in xs for xp in xs]
    # an equal but distinct scales object gives the same bits
    twin = model.with_scales(fam)
    assert twin.scales == fam.scales and twin.scales is not fam.scales
    warm_twin = [rv.green(x, xp, 2.3, twin).value.hex() for x in xs for xp in xs]
    assert warm == cold == warm_twin
    assert len(hashes) <= 4


def test_non_finite_arguments_raise_domain_error():
    nan, inf = math.nan, math.inf
    for x, xp, e in ((nan, 0.0, 2.3), (0.0, inf, 2.3), (0.1, 0.2, nan), (0.1, 0.2, -inf)):
        with pytest.raises(sf.DomainError, match="series resolvent arguments must be finite"):
            rv.green_ho_series(x, xp, e, HO_FAM.scales)
    # a non-finite energy fails the HO build, not round() in its pole check
    ho_calls = (rv.green_ho, rv.green_ho_stark,
                lambda x, xp, e, s: rv.green_decorated(x, xp, e, HO, s))
    for e in (nan, inf, -inf):
        for green, fam in zip(ho_calls, (HO_FAM, STARK_FAM, DEC_HO_FAM)):
            with pytest.raises(sf.DomainError, match="HO resolvent needs a finite eps"):
                green(0.1, 0.2, e, fam.scales)
        with pytest.raises(sf.DomainError, match="airy functions restricted to"):
            rv.green_linear(0.1, 0.2, e, LIN_FAM.scales)
        with pytest.raises(sf.DomainError, match="pcf_d arguments must be finite"):
            rv.green_ho_plus_abs(0.1, 0.2, e, HOABS_FAM.scales)


# ----------------------------------------------------------------------
# the kernel's argument order and the result records
# ----------------------------------------------------------------------


def _independent_uv(sol):
    """(u, v) of one build, computed apart from its map: D_nu(mu x) and
    D_nu(-mu x) by pcf_d for the oscillator; for a mirror pair, its
    branch's value on the side where each decays and the branch's
    continuation on the other."""
    if isinstance(sol, rv._HoSolutions):
        return (lambda x: sf.pcf_d(sol.nu, sol.mu * x).value,
                lambda x: sf.pcf_d(sol.nu, -sol.mu * x).value)
    br = sol.br
    return (lambda x: br.value(x) if x >= 0.0 else br.continued(-x),
            lambda x: br.value(-x) if x <= 0.0 else br.continued(x))


def _green_before(kind, x, xp, energy, scales):
    """resolvent._green before it picked u(x>) and v(x<) by one branch
    and read both from one map: the same product grouping, with u and v
    computed independently (_independent_uv) and without the
    latest-build cache (which never changes a value, see
    test_solution_memo_never_changes_a_value)."""
    sol = kind(energy, scales.natural)
    u, v = _independent_uv(sol)
    lo, hi = (x, xp) if x <= xp else (xp, x)
    return rv.GreenEval(sol.num * (u(hi) * v(lo)) / sol.den, "G")


# each solution kind, at an energy between levels
@pytest.mark.parametrize("kind,fam,energy", [
    (rv._HoSolutions, HO_FAM, 2.3),
    (rv._HoSolutions, HO_FAM, 60.3),
    (rv._linear, LIN_FAM, 1.7),
    (rv._ho_plus_abs, HOABS_FAM, 2.3),
], ids=["HO", "HO_eps60", "LINEAR_ABS", "HO_PLUS_ABS"])
def test_one_map_gives_v_at_minus_x(kind, fam, energy):
    # v(x) = u(-x) for every kind, so the kernel reads v from the u map
    xs = (-4.0, -1.5, -0.5, -0.0, 0.0, 0.3, 0.5, 1.25, 4.0)
    u, v = _independent_uv(kind(energy, fam.scales.natural))
    want_u = [u(x).hex() for x in xs]
    want_v = [v(x).hex() for x in xs]
    # each map read in both orders: -x first (each read a miss), and x
    # first (its pair filled -x already)
    for first_v in (True, False):
        sol = kind(energy, fam.scales.natural)
        if first_v:
            assert [sol[-x].hex() for x in xs] == want_v
        assert [sol[x].hex() for x in xs] == want_u
        assert [sol[-x].hex() for x in xs] == want_v


def _green_decorated_before(x, xp, energy, base_family, scales):
    """resolvent.green_decorated before it ordered its arguments by one
    branch, verbatim."""
    if base_family not in (HO, LINEAR_ABS):
        raise ValueError(f"green_decorated base must be HO or LINEAR_ABS, got {base_family!r}")
    g0 = rv._BASE_GREEN[base_family]
    a = scales.delta_strength
    q = scales.delta_position
    if a is None or q is None:
        raise ValueError("decorated resolvent requires delta_strength and delta_position")
    gqq = g0(q, q, energy, scales).value
    den = 1.0 + a * gqq
    if abs(den) < rv._RESONANCE_RADIUS:
        raise OnResonanceError(
            f"1 + a G(q,q) = {den:g}: E = {energy} is a decorated bound state")
    lo, hi = (x, xp) if x <= xp else (xp, x)
    base = g0(lo, hi, energy, scales).value
    val = base - a * g0(lo, q, energy, scales).value * g0(q, hi, energy, scales).value / den
    return rv.GreenEval(val, "G")


# the decorated wells with q on the grid below (-0.5, 0.5) and off it
@pytest.mark.parametrize("fam,energy", [
    (HO_FAM, 2.3),
    (STARK_FAM, 2.3),
    (LIN_FAM, 1.7),
    (HOABS_FAM, 2.3),
    (DEC_HO_FAM, 2.3),
    (DEC_LIN_FAM, 1.7),
    (default_family(DELTA_DECORATED, base=HO, delta_position=2.75), 2.3),
    (default_family(DELTA_DECORATED, base=LINEAR_ABS, delta_position=-2.75), 1.7),
], ids=["HO", "HO_STARK", "LINEAR_ABS", "HO_PLUS_ABS", "DEC_HO_q_on", "DEC_LINEAR_ABS_q_on",
        "DEC_HO_q_off", "DEC_LINEAR_ABS_q_off"])
def test_branch_ordered_kernel_keeps_every_bit(monkeypatch, fam, energy):
    # x < x', x > x' and x = x', with both zeros, as a full grid
    xs = (-1.5, -0.5, -0.0, 0.0, 0.3, 0.5, 1.25)
    pts = [(x, xp) for x in xs for xp in xs]
    after = [rv.green(x, xp, energy, fam).value.hex() for x, xp in pts]
    monkeypatch.setattr(rv, "_green", _green_before)
    monkeypatch.setattr(rv, "green_decorated", _green_decorated_before)
    before = [rv.green(x, xp, energy, fam).value.hex() for x, xp in pts]
    assert after == before


@pytest.mark.parametrize("cls,args,names,text", [
    (sf.EvalResult, (1.5, 2e-16), ["value", "est_abs_error"],
     "EvalResult(value=1.5, est_abs_error=2e-16)"),
    (rv.GreenEval, (-0.25, "G"), ["value", "convention"],
     "GreenEval(value=-0.25, convention='G')"),
])
def test_result_records_are_slotted_value_records(cls, args, names, text):
    record = cls(*args)
    # slotted (no per-instance dict) and not frozen, so not hashable
    assert not hasattr(record, "__dict__")
    assert not cls.__dataclass_params__.frozen and cls.__hash__ is None
    assert [f.name for f in dataclasses.fields(cls)] == names
    assert record == cls(*args) and record != cls(args[0] + 1.0, args[1])
    assert repr(record) == text

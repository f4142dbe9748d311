"""Characteristic functions, root scanning, sweeps, and their oracle checks."""

import dataclasses
import math

import pytest

from greenwell import model, oracle, specfun as sf, spectrum as sp
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
    dimensionless,
)

AIRY_EVEN = (1.018792971647471, 3.2481975821798366, 4.820099211178736)
AIRY_ODD = (2.338107410459767, 4.08794944413097, 5.520559828095551)

TABLE_REF = (0.50501, 1.27615, 1.88901, 2.43392, 2.94119,
             3.41789, 3.86844, 4.29867, 4.71332, 5.11461)


def roots_of(family, window=None, step=0.005):
    return sp.find_roots(sp.build_chi(family), window=window, step=step)


def oracle_eps(family, k, n_points, e_max):
    grid = oracle.auto_grid(family, e_max=e_max, n_points=n_points)
    op = oracle.discretize(family, grid, e_max=e_max)
    eigs = oracle.lowest_eigenvalues(op, k)
    out = []
    for e in eigs:
        d = dimensionless(family, e)
        out.append(d.eps if d.eps is not None else d.rho)
    return out


# ----------------------------------------------------------------------
# plain harmonic oscillator
# ----------------------------------------------------------------------


def test_chi_ho_values():
    assert sp.chi_ho(0.5) == 0.0
    assert sp.chi_ho(1.5) == 0.0
    assert sp.chi_ho(1.0) == pytest.approx(-1.0 / (2.0 * math.sqrt(math.pi)), rel=1e-12)


def test_find_roots_ho():
    res = roots_of(default_family(HO), window=(0.0, 6.0), step=0.01)
    assert [round(v, 9) for v in res.values()] == [0.5, 1.5, 2.5, 3.5, 4.5, 5.5]


def test_find_roots_empty_window():
    res = roots_of(default_family(HO), window=(2.6, 2.9), step=0.01)
    assert res.values() == []


def test_root_invariants():
    res = roots_of(default_family(DELTA_DECORATED, base=HO), window=(-3.0, 6.0))
    vals = res.values()
    assert vals == sorted(vals)
    for r in res.roots:
        assert r.residual <= 1e-10
        assert r.bracket[1] - r.bracket[0] <= 1e-12


# ----------------------------------------------------------------------
# Stark
# ----------------------------------------------------------------------


@pytest.mark.parametrize("alpha3", [0.5, 1.3, 2.0])
def test_stark_root_finding_matches_analytic(alpha3):
    fam = default_family(HO_STARK, alpha1=alpha3 ** (1.0 / 3.0))
    dmap = dimensionless(fam, 0.0)
    res = roots_of(fam, window=None, step=0.01)
    for n in range(6):
        assert res.values()[n] == pytest.approx(sp.levels_ho_stark(n, dmap), abs=1e-9)


def test_stark_zero_field():
    fam = default_family(HO_STARK, alpha1=0.0)
    dmap = dimensionless(fam, 0.0)
    assert sp.levels_ho_stark(2, dmap) == 2.5


def test_stark_unit_shift():
    # alpha^3 = 1: phi = 1, mu = sqrt 2, (mu phi / 2)^2 = 1/2 -> eps_0 = 0
    fam = default_family(HO_STARK, alpha1=1.0)
    dmap = dimensionless(fam, 0.0)
    assert sp.levels_ho_stark(0, dmap) == pytest.approx(0.0, abs=1e-14)


# ----------------------------------------------------------------------
# asymmetric oscillator
# ----------------------------------------------------------------------


def test_asym_ho_lambda_one_recovers_ho():
    fam = default_family(HO_ASYM, omega2=1.0)
    res = roots_of(fam, window=(0.0, 6.0))
    for n, v in enumerate(res.values()):
        assert v == pytest.approx(n + 0.5, abs=1e-9)


def test_asym_ho_small_lambda_limit():
    # lambda -> 0: the lowest level climbs monotonically toward 3/2.
    # Convergence is O(sqrt(lambda)) (oracle-confirmed: the gap is still
    # 0.33 at lambda = 0.05), so the trend plus a far-limit pin is the
    # honest assertion here.
    gaps = []
    for lam in (0.05, 0.01, 0.002):
        fam = default_family(HO_ASYM, omega2=1.0 / lam)
        gaps.append(1.5 - roots_of(fam, window=(0.0, 4.0)).values()[0])
    assert gaps[0] > gaps[1] > gaps[2] > 0.0
    assert gaps[2] < 0.08


@pytest.mark.parametrize("lam", [0.2, 0.5, 0.8])
def test_asym_ho_reciprocity(lam, k_max=5):
    fam_a = default_family(HO_ASYM, omega2=1.0 / lam)
    fam_b = default_family(HO_ASYM, omega2=lam)
    ra = roots_of(fam_a, window=(1e-6, 12.0)).values()
    rb = roots_of(fam_b, window=(1e-6, 12.0)).values()
    for k in range(k_max):
        assert ra[k] == pytest.approx(rb[k] / lam, abs=1e-8)


def test_asym_ho_vs_oracle():
    fam = default_family(HO_ASYM)  # lambda = 0.5
    closed = roots_of(fam, window=(0.0, 8.0)).values()[:5]
    orc = oracle_eps(fam, 5, 4000, e_max=8.0)
    for c, o in zip(closed, orc):
        assert c == pytest.approx(o, abs=2e-3)


# ----------------------------------------------------------------------
# |x| well
# ----------------------------------------------------------------------


def test_linear_lowest_roots_and_alternation():
    res = roots_of(default_family(LINEAR_ABS), window=(0.0, 8.0))
    vals = res.values()
    assert vals[0] == pytest.approx(1.018793, abs=5e-7)
    assert vals[1] == pytest.approx(2.338107, abs=5e-7)
    parities = [r.parity for r in res.roots]
    assert parities[:6] == ["even", "odd"] * 3


def test_linear_roots_vs_frozen_airy_zeros():
    res = roots_of(default_family(LINEAR_ABS), window=(0.0, 6.0))
    expect = sorted(AIRY_EVEN + AIRY_ODD)
    for v, ref in zip(res.values(), expect):
        assert v == pytest.approx(ref, abs=1e-9)


# ----------------------------------------------------------------------
# asymmetric linear well
# ----------------------------------------------------------------------


def test_asym_linear_beta_one_is_symmetric_well():
    fam = default_family(LINEAR_ASYM, alpha2=1.0)
    res = roots_of(fam, window=(0.0, 6.0))
    expect = sorted(AIRY_EVEN + AIRY_ODD)
    for v, ref in zip(res.values(), expect):
        assert v == pytest.approx(ref, abs=1e-9)


def test_asym_linear_beta_to_zero_keeps_odd_zeros():
    # alpha2 >> alpha1: hard wall on the right, only Ai(-rho) = 0 survives
    fam = default_family(LINEAR_ASYM, alpha2=20.0)  # beta = 0.05
    res = roots_of(fam, window=(0.0, 6.0))
    for v, ref in zip(res.values(), AIRY_ODD):
        assert abs(v - ref) < 0.1


def test_asym_linear_beta_half_vs_oracle():
    fam = default_family(LINEAR_ASYM)  # beta = 0.5
    closed = roots_of(fam, window=(0.0, 8.0)).values()[:4]
    orc = oracle_eps(fam, 4, 4000, e_max=8.0)
    for c, o in zip(closed, orc):
        assert c == pytest.approx(o, abs=2e-3)


# ----------------------------------------------------------------------
# composite half/half well
# ----------------------------------------------------------------------


def test_half_half_table_endpoints():
    res = roots_of(default_family(HALF_HO_HALF_LINEAR), window=(1e-6, 5.5))
    vals = res.values()
    assert vals[0] == pytest.approx(0.50501, abs=5e-5)
    assert vals[9] == pytest.approx(5.11461, abs=5e-5)


def test_half_half_full_table():
    res = roots_of(default_family(HALF_HO_HALF_LINEAR), window=(1e-6, 5.5))
    for v, ref in zip(res.values(), TABLE_REF):
        assert v == pytest.approx(ref, abs=5e-5)


def test_half_half_xi_to_zero_limit():
    # alpha -> inf (xi -> 0): only the odd oscillator states survive.
    # The gap to 2n + 3/2 closes roughly linearly in xi (0.085 at
    # xi = 0.08, 0.022 at xi = 0.02), so assert the trend plus a pin.
    def lowest(xi):
        s = default_family(HALF_HO_HALF_LINEAR).scales
        a1 = (2.0 * s.mass * s.hbar * s.omega1 ** 3) ** (1.0 / 6.0) / xi
        fam = default_family(HALF_HO_HALF_LINEAR, alpha1=a1)
        return roots_of(fam, window=(1e-6, 6.0)).values()[:2]
    g_coarse = lowest(0.08)
    g_fine = lowest(0.02)
    assert 1.5 - g_fine[0] < 1.5 - g_coarse[0]
    assert 3.5 - g_fine[1] < 3.5 - g_coarse[1]
    assert abs(g_fine[0] - 1.5) < 0.03
    assert abs(g_fine[1] - 3.5) < 0.05


# ----------------------------------------------------------------------
# oscillator + |x|
# ----------------------------------------------------------------------


def test_hoabs_zero_slope_factor_roots():
    fam = default_family(HO_PLUS_ABS, alpha1=0.0)
    res = roots_of(fam, window=(0.0, 6.0))
    for n, r in enumerate(res.roots):
        assert r.value == pytest.approx(n + 0.5, abs=1e-9)
        assert r.parity == ("even" if n % 2 == 0 else "odd")


def test_hoabs_muphi_one_lowest_even_vs_oracle():
    s = default_family(HO_PLUS_ABS).scales
    mu = math.sqrt(2.0 * s.mass * s.omega1 / s.hbar)
    fam = default_family(HO_PLUS_ABS, alpha1=(1.0 / mu * s.mass * s.omega1 ** 2) ** (1 / 3))
    res = roots_of(fam, window=(0.0, 4.0))
    assert res.roots[0].parity == "even"
    orc = oracle_eps(fam, 1, 4000, e_max=5.0)
    assert res.values()[0] == pytest.approx(orc[0], abs=2e-3)


def test_hoabs_roots_increase_with_muphi():
    s = default_family(HO_PLUS_ABS).scales
    mu = math.sqrt(2.0 * s.mass * s.omega1 / s.hbar)
    prev = None
    for t in (0.5, 1.0, 2.0):
        fam = default_family(HO_PLUS_ABS, alpha1=(t / mu * s.mass * s.omega1 ** 2) ** (1 / 3))
        vals = roots_of(fam, window=(0.0, 8.0)).values()[:4]
        orc = oracle_eps(fam, 4, 3000, e_max=9.0)
        for c, o in zip(vals, orc):
            assert c == pytest.approx(o, abs=2e-3)
        if prev is not None:
            for a, b in zip(prev, vals):
                assert b > a
        prev = vals


def _plain_factors(fam):
    """The parity factors as they read without a shared memo."""
    if fam.tag == LINEAR_ABS:
        return {"even": lambda r: sf.airy_ai_prime(-r).value,
                "odd": lambda r: sf.airy_ai(-r).value}
    d = dimensionless(fam, 0.0)

    def odd(e):
        sigma = e + (0.5 * d.mu * d.phi) ** 2
        return sf.pcf_d(sigma - 0.5, d.mu * d.phi).value

    def even(e):
        mu_phi = d.mu * d.phi
        sigma = e + (0.5 * mu_phi) ** 2
        return mu_phi * sf.pcf_d(sigma - 0.5, mu_phi).value - 2.0 * sf.pcf_d(sigma + 0.5, mu_phi).value
    return {"even": even, "odd": odd}


PARITY_FAMILIES = [default_family(LINEAR_ABS), default_family(HO_PLUS_ABS),
                   default_family(HO_PLUS_ABS, alpha1=2.0)]


@pytest.mark.parametrize("first", ["even", "odd"])
@pytest.mark.parametrize("fam", PARITY_FAMILIES, ids=["LINEAR_ABS", "HO_PLUS_ABS", "HO_PLUS_ABS.a2"])
def test_parity_memo_keeps_every_bit(fam, first):
    chi = sp.build_chi(fam)
    shared = dict(chi.factors)
    plain = _plain_factors(fam)
    order = (first, "odd" if first == "even" else "even")
    energies = [0.013 + 0.37 * i for i in range(32)] + [1.018792971647471, 2.338107410459767]
    for e in energies:
        for parity in order:
            assert shared[parity](e).hex() == plain[parity](e).hex(), (e, parity)
    # one factor alone, twice at one energy, then the other
    for parity in order + order[:1]:
        assert shared[parity](5.55).hex() == plain[parity](5.55).hex()
    # the roots a memo-sharing scan finds are those of the plain factors
    plain_chi = sp.CharacteristicFunction(chi.window, tuple(plain.items()))
    for w in ((0.0, 6.0), None):
        assert sp.find_roots(chi, window=w) == sp.find_roots(plain_chi, window=w)


@pytest.mark.parametrize("fam,shared_fn,latest", [
    (default_family(LINEAR_ABS), "airy_all", "_ai_latest"),
    (default_family(HO_PLUS_ABS), "pcf_d", "_d_latest"),
], ids=["LINEAR_ABS", "HO_PLUS_ABS"])
def test_parity_factors_share_one_call_per_lattice_point(monkeypatch, fam, shared_fn, latest):
    calls = []
    fn = getattr(sf, shared_fn)
    monkeypatch.setattr(sf, shared_fn, lambda *a: calls.append(a) or fn(*a))
    chi, evals = _counted(sp.build_chi(fam))
    lo, hi, step = 0.0, 6.0, 0.01
    assert sp.find_roots(chi, window=(lo, hi), step=step).roots
    points = math.ceil((hi - lo) / step) + 1
    # the second factor at a lattice point reuses the first one's value;
    # every bisection and residual energy is computed once; the even
    # HO+|x| factor also calls pcf_d for D_{sigma+1/2}
    upper = sum(p == "even" for p, _ in evals) if fam.tag == HO_PLUS_ABS else 0
    assert len(calls) == len(evals) - points + upper
    # one cached value, that of the energy evaluated last
    assert getattr(sp, latest)[0] == evals[-1][1]


def test_failed_factor_call_leaves_the_cache_as_it_was():
    d = dimensionless(default_family(HO_PLUS_ABS), 0.0)
    sp.chi_linear_odd(2.0)
    sp.chi_ho_plus_abs_odd(2.0, d)
    before = (sp._ai_latest, sp._d_latest)
    # -rho beyond the Airy domain, and an order beyond pcf_d's
    for call in (lambda: sp.chi_linear_even(30.0), lambda: sp.chi_linear_odd(30.0),
                 lambda: sp.chi_ho_plus_abs_odd(70.0, d),
                 lambda: sp.chi_ho_plus_abs_even(70.0, d)):
        with pytest.raises(sf.DomainError):
            call()
        assert sp._ai_latest is before[0] and sp._d_latest is before[1]


# ----------------------------------------------------------------------
# delta-decorated oscillator
# ----------------------------------------------------------------------


def test_delta_ho_origin_odd_states_exact():
    for tau in (-1.2, -1.0, -0.5, 0.5, 1.0, 1.2):
        for k in range(4):
            assert sp.chi_delta_ho(2.0 * k + 1.5, tau, 0.0) == 0.0


def test_delta_ho_zero_coupling():
    fam = default_family(DELTA_DECORATED, base=HO, delta_strength=0.0)
    res = roots_of(fam, window=(0.0, 6.0))
    for n, v in enumerate(res.values()):
        assert v == pytest.approx(n + 0.5, abs=1e-9)


def test_delta_ho_attractive_lowest_vs_oracle():
    fam = default_family(DELTA_DECORATED, base=HO)  # tau = -1, p = 0.5
    closed = roots_of(fam, window=(-3.0, 6.0)).values()[:5]
    orc = oracle_eps(fam, 5, 8000, e_max=7.0)
    for c, o in zip(closed, orc):
        assert c == pytest.approx(o, abs=5e-3)


def _delta_fam(tau, p):
    s = default_family(HO).scales
    a = tau / math.sqrt(s.mass / (math.pi * s.omega1 * s.hbar ** 3))
    mu = math.sqrt(2.0 * s.mass * s.omega1 / s.hbar)
    return default_family(DELTA_DECORATED, base=HO,
                          delta_strength=a, delta_position=p / mu)


@pytest.mark.parametrize("tau", [-1.2, -1.0, -0.5, 0.5, 1.0, 1.2])
@pytest.mark.parametrize("p", [0.5, 2.0])
def test_delta_ho_interlacing(tau, p):
    fam = _delta_fam(tau, p)
    vals = roots_of(fam, window=(-3.0, 6.5), step=0.005).values()[:6]
    if tau > 0.0:
        for n, v in enumerate(vals):
            assert n + 0.5 < v < n + 1.5, (tau, p, n, v)
    else:
        assert vals[0] < 0.5
        for n, v in enumerate(vals[1:], start=1):
            assert n - 0.5 < v < n + 0.5, (tau, p, n, v)


@pytest.mark.parametrize("p", [0.5, 2.0])
def test_delta_ho_monotone_in_tau(p):
    taus = [-1.2 + 0.3 * i for i in range(9)]
    prev = None
    for tau in taus:
        vals = roots_of(_delta_fam(tau, p), window=(-3.0, 6.0)).values()[:5]
        if prev is not None:
            for a, b in zip(prev, vals):
                assert b >= a - 1e-12
        prev = vals


# ----------------------------------------------------------------------
# delta-decorated |x| well
# ----------------------------------------------------------------------


def test_delta_linear_zero_coupling():
    fam = default_family(DELTA_DECORATED, base=LINEAR_ABS, delta_strength=0.0)
    res = roots_of(fam, window=(0.0, 6.0))
    expect = sorted(AIRY_EVEN + AIRY_ODD)
    for v, ref in zip(res.values(), expect):
        assert v == pytest.approx(ref, abs=1e-9)


def test_delta_linear_origin_keeps_odd_zeros():
    # q = 0: the condition factors through Ai(-rho); odd zeros persist
    for eta in (-2.0, -0.5, 1.0, 3.0):
        for rho in AIRY_ODD:
            assert abs(sp.chi_delta_linear(rho, eta, 0.0)) < 1e-12


def test_delta_linear_vs_oracle():
    fam = default_family(DELTA_DECORATED, base=LINEAR_ABS)  # eta = 1, zq = 0.5
    closed = roots_of(fam, window=(0.0, 8.0)).values()[:5]
    orc = oracle_eps(fam, 5, 8000, e_max=9.0)
    for c, o in zip(closed, orc):
        assert c == pytest.approx(o, abs=5e-3)


def test_delta_linear_attractive_vs_oracle_richardson():
    fam = default_family(DELTA_DECORATED, base=LINEAR_ABS,
                         delta_strength=-1.0, delta_position=0.5)
    closed = roots_of(fam, window=(-2.0, 6.0)).values()[:3]
    errs = []
    for n in (6000, 12000):
        orc = oracle_eps(fam, 3, n, e_max=7.0)
        errs.append(max(abs(c - o) for c, o in zip(closed, orc)))
    assert errs[0] <= 5e-3
    assert errs[1] <= errs[0]


# ----------------------------------------------------------------------
# scan hygiene
# ----------------------------------------------------------------------


ALL_FAMILIES = [
    default_family(HO),
    default_family(HO_STARK),
    default_family(HO_ASYM),
    default_family(LINEAR_ABS),
    default_family(LINEAR_ASYM),
    default_family(HALF_HO_HALF_LINEAR),
    default_family(HO_PLUS_ABS),
    default_family(DELTA_DECORATED, base=HO),
    default_family(DELTA_DECORATED, base=LINEAR_ABS),
]


@pytest.mark.parametrize("fam", ALL_FAMILIES, ids=lambda f: f.tag + (f".{f.base}" if f.base else ""))
def test_chi_pole_free_dense_sampling(fam):
    chi = sp.build_chi(fam)
    lo, hi = chi.window
    n = 10000
    # every scan target find_roots reads, one parity factor at a time
    for parity, fn in chi.factors:
        prev = None
        for i in range(n + 1):
            x = lo + (hi - lo) * i / n
            v = fn(x)
            assert math.isfinite(v), (fam.tag, parity, x)
            # heuristic continuity: values above 1e6 may not jump by 10x
            # between adjacent samples
            if prev is not None and abs(v) > 1e6 and abs(prev) > 1e6:
                ratio = abs(v) / abs(prev)
                assert 0.1 < ratio < 10.0, (fam.tag, parity, x)
            prev = v


def _bits(roots):
    """Every field of every root, floats as float.hex."""
    return [(r.index, r.value.hex(), r.bracket[0].hex(), r.bracket[1].hex(),
             r.residual.hex(), r.parity) for r in roots]


def _counted(chi):
    """`chi` with every factor call recorded in `calls` as (parity, x)."""
    calls = []

    def wrap(parity, fn):
        def counted(x):
            calls.append((parity, x))
            return fn(x)
        return counted
    return dataclasses.replace(
        chi, factors=tuple((parity, wrap(parity, fn)) for parity, fn in chi.factors)), calls


@pytest.mark.parametrize("fam", ALL_FAMILIES, ids=lambda f: f.tag + (f".{f.base}" if f.base else ""))
def test_limit_keeps_the_lowest_roots(fam):
    step = 0.02  # the order and the cut do not depend on the scan step
    chi, calls = _counted(sp.build_chi(fam))
    full = _bits(sp.find_roots(chi, step=step).roots)
    all_calls = len(calls)
    assert len(full) >= 3
    for k in range(1, len(full) + 2):
        calls.clear()
        roots = sp.find_roots(chi, step=step, limit=k).roots
        assert _bits(roots) == full[:k], k
        if k == 1:
            assert len(calls) < all_calls
        if k <= len(full):
            # every factor stops at the lattice cell that holds the k-th root
            assert max(x for _, x in calls) <= roots[k - 1].value + step, k


# delta-decorated wells whose energy floor is checked: tau x p for the
# oscillator, a x zeta q for the |x| well, and one off-default set of
# scales each, where eps, rho and E differ
FLOOR_FAMILIES = (
    [default_family(DELTA_DECORATED, base=HO, delta_strength=tau * math.sqrt(math.pi),
                    delta_position=p / math.sqrt(2.0))
     for tau in (-3.0, -2.0, -1.2, 0.0, 2.0) for p in (0.0, 0.7, 2.0)]
    + [default_family(DELTA_DECORATED, base=HO, hbar=0.8, mass=1.5, omega1=2.0,
                      delta_strength=-1.5, delta_position=0.3)]
    + [default_family(DELTA_DECORATED, base=LINEAR_ABS, delta_strength=a, delta_position=zq)
       for a in (-6.0, -1.6, 0.0, 2.0) for zq in (0.0, 0.5, 1.0)]
    + [default_family(DELTA_DECORATED, base=LINEAR_ABS, hbar=1.2, mass=0.7, alpha1=1.3,
                      delta_strength=-2.0, delta_position=0.4)])


def _floor_id(fam):
    d = dimensionless(fam, 0.0)
    if fam.base == HO:
        return f"HO-tau{d.tau:.3g}-p{d.p:.3g}"
    return f"LINEAR_ABS-eta{d.eta:.3g}-zq{d.zeta * fam.scales.delta_position:.3g}"


@pytest.mark.parametrize("fam", FLOOR_FAMILIES, ids=_floor_id)
def test_energy_floor_bounds_the_spectrum_and_keeps_every_bit(fam):
    step = 0.05  # the start point lies on the scan lattice at any step
    d = dimensionless(fam, 0.0)
    chi, calls = _counted(sp.build_chi(fam))
    # E >= -m a^2 / (2 hbar^2) for a < 0, E > 0 otherwise, in the natural
    # variable: eps >= -pi tau^2 / 2, rho >= -eta^2
    if fam.base == HO:
        expected = -0.5 * math.pi * d.tau ** 2 if d.tau < 0.0 else 0.0
    else:
        expected = -d.eta ** 2 if d.eta < 0.0 else 0.0
    assert chi.floor == pytest.approx(expected, rel=1e-12, abs=0.0)
    whole = sp.find_roots(chi, window=chi.window, step=step)
    whole_calls = len(calls)
    calls.clear()
    from_floor = sp.find_roots(chi, step=step)
    assert whole.roots and chi.floor < whole.roots[0].value
    assert _bits(from_floor.roots) == _bits(whole.roots)
    assert from_floor.scan_window == chi.window
    assert len(calls) < whole_calls


def test_flag_missing_reports_reference_gaps():
    res = roots_of(default_family(HO), window=(0.0, 4.0))
    missing = sp.flag_missing(res, [0.5, 1.5, 2.0, 3.5])
    assert missing == [2.0]
    assert res.suspected_missing == [2.0]


def test_validator_rejects_bad_windows():
    chi = sp.build_chi(default_family(HO))
    with pytest.raises(ValueError):
        sp.find_roots(chi, window=(3.0, 1.0))
    with pytest.raises(ValueError):
        sp.find_roots(chi, step=-0.1)


# ----------------------------------------------------------------------
# sweeps
# ----------------------------------------------------------------------


def test_sweep_asym_lambda_passes_through_ho():
    fam = default_family(HO_ASYM)
    values = [0.6, 0.8, 1.0, 1.2]
    result = sp.sweep(fam, "lam", values, window=(1e-6, 5.0), step=0.01)
    at_one = dict((i, v) for (p, i, v) in result.rows if p == 1.0)
    for idx, v in at_one.items():
        assert v == pytest.approx(idx + 0.5, abs=1e-9)
    # curves nonincreasing in lambda at fixed index on unbroken stretches
    by_index = {}
    for (p, i, v) in result.rows:
        by_index.setdefault(i, []).append((p, v))
    for i, pts in by_index.items():
        pts.sort()
        for (p1, v1), (p2, v2) in zip(pts, pts[1:]):
            assert v2 <= v1 + 1e-9


def test_sweep_delta_tau_monotone():
    fam = default_family(DELTA_DECORATED, base=HO)
    values = [-1.2 + 0.2 * i for i in range(13)]
    result = sp.sweep(fam, "tau", values, window=(-3.0, 5.0), step=0.01)
    by_index = {}
    for (p, i, v) in result.rows:
        by_index.setdefault(i, []).append((p, v))
    for i, pts in by_index.items():
        pts.sort()
        for (p1, v1), (p2, v2) in zip(pts, pts[1:]):
            assert v2 >= v1 - 1e-10, (i, p1, p2)


def test_sweep_delta_p_approaches_unperturbed():
    fam = _delta_fam(1.0, 0.5)
    values = [0.0, 1.0, 2.0, 3.0, 4.0]
    result = sp.sweep(fam, "p", values, window=(0.0, 4.0), step=0.01)
    last = [v for (p, i, v) in result.rows if p == 4.0]
    for n, v in enumerate(last[:3]):
        assert abs(v - (n + 0.5)) < 0.05, (n, v)


def test_sweep_detects_curve_breaks():
    fam = default_family(HO_ASYM)
    result = sp.sweep(fam, "lam", [0.4, 0.6, 0.8], window=(1e-6, 4.0), step=0.01)
    assert result.breaks  # root count changes in this window


def test_sweep_rejects_mismatched_parameter():
    with pytest.raises(ValueError):
        sp.sweep(default_family(HO), "lam", [0.5])
    with pytest.raises(ValueError):
        sp.sweep(default_family(HO_ASYM), "nope", [0.5])

"""Characteristic functions, root scanning, sweeps, and their oracle checks."""

import bisect
import dataclasses
import math

import pytest

from greenwell import model, oracle, resolvent as rv, specfun as sf, spectrum as sp
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

AIRY_EVEN = (1.018792971647471, 3.2481975821798366, 4.820099211178736)
AIRY_ODD = (2.338107410459767, 4.08794944413097, 5.520559828095551)

TABLE_REF = (0.50501, 1.27615, 1.88901, 2.43392, 2.94119,
             3.41789, 3.86844, 4.29867, 4.71332, 5.11461)


def roots_of(family, window=None, step=0.005):
    return sp.find_roots(sp.build_chi(family), window=window, step=step)


def oracle_eps(family, k, n_points, e_max):
    eigs = oracle.lowest_eigenvalues(oracle.operator_for(family, e_max, n_points), k)
    return [family.natural_energy(e) for e in eigs]


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
    units = fam.scales.natural
    res = roots_of(fam, window=None, step=0.01)
    for n in range(6):
        assert res.values()[n] == pytest.approx(sp.levels_ho_stark(n, units), abs=1e-9)


def test_stark_zero_field():
    fam = default_family(HO_STARK, alpha1=0.0)
    units = fam.scales.natural
    assert sp.levels_ho_stark(2, units) == 2.5


def test_stark_unit_shift():
    # alpha^3 = 1: phi = 1, mu = sqrt 2, (mu phi / 2)^2 = 1/2 -> eps_0 = 0
    fam = default_family(HO_STARK, alpha1=1.0)
    units = fam.scales.natural
    assert sp.levels_ho_stark(0, units) == pytest.approx(0.0, abs=1e-14)


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
    d = fam.scales.natural

    def odd(e):
        sigma = e + (0.5 * d.mu * d.phi) ** 2
        return sf.pcf_d(sigma - 0.5, d.mu * d.phi).value

    def even(e):
        # 2 D'(mu phi), with D' from the Kummer pass that also gives D
        # (test_ho_plus_abs_even_factor_matches_the_two_call_form checks it
        # against mu phi D_{sigma-1/2} - 2 D_{sigma+1/2})
        mu_phi = d.mu * d.phi
        sigma = e + (0.5 * mu_phi) ** 2
        return 2.0 * sf.pcf_d_slope(sigma - 0.5, mu_phi)[1]
    return {"even": even, "odd": odd}


@pytest.mark.parametrize("alpha1", [0.5, 1.0, 1.15, 1.5, 2.0])
def test_ho_plus_abs_even_factor_matches_the_two_call_form(alpha1):
    # the even factor 2 D'(mu phi) from one Kummer pass, against the
    # two-call form mu phi D_{sigma-1/2}(mu phi) - 2 D_{sigma+1/2}(mu phi)
    # (DLMF 12.8.3): within both forms' estimates everywhere, and
    # within 64 eps of |D| + |D'| up to mu phi = 2.2, where each lies
    # within 31 eps of 40-digit references (mu phi = 2.15 at alpha1 =
    # 1.15, 4.77 at 1.5, where both lose 800 eps as the Kummer terms
    # cancel; 11.3 at 2, the integral route, which is the two-call form)
    fam = default_family(HO_PLUS_ABS, alpha1=alpha1)
    d = fam.scales.natural
    even = dict(sp.build_chi(fam).factors)["even"]
    mu_phi = d.mu * d.phi
    for e in [0.013 + 0.37 * i for i in range(33)]:
        sigma = e + (0.5 * mu_phi) ** 2
        d0, d1 = sf.pcf_d(sigma - 0.5, mu_phi), sf.pcf_d(sigma + 0.5, mu_phi)
        two_call = mu_phi * d0.value - 2.0 * d1.value
        value, slope, est = sf.pcf_d_slope(sigma - 0.5, mu_phi)
        gap = abs(even(e) - two_call)
        assert gap <= 2.0 * (est + 0.5 * mu_phi * d0.est_abs_error + d1.est_abs_error), e
        if mu_phi <= 2.2:
            assert gap <= 64 * math.ulp(1.0) * (abs(2.0 * value) + abs(2.0 * slope)), e


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


@pytest.mark.parametrize("fam,shared_fn,kind", [
    (default_family(LINEAR_ABS), "_airy", "_Airy"),
    (default_family(HO_PLUS_ABS), "pcf_d_slope", "_Weber"),
], ids=["LINEAR_ABS", "HO_PLUS_ABS"])
def test_parity_factors_share_one_call_per_lattice_point(monkeypatch, fam, shared_fn, kind):
    calls = []
    fn = getattr(sf, shared_fn)
    monkeypatch.setattr(sf, shared_fn, lambda *a: calls.append(a) or fn(*a))
    chi, evals = _counted(sp.build_chi(fam))
    lo, hi, step = 0.0, 6.0, 0.01
    assert sp.find_roots(chi, window=(lo, hi), step=step).roots
    points = math.ceil((hi - lo) / step) + 1
    # the second factor at a lattice point reuses the first one's value;
    # every bisection and residual energy is computed once, the HO+|x|
    # value and slope by one pcf_d_slope call
    assert len(calls) == len(evals) - points
    # resolvent's one kept build, that of the energy evaluated last
    last_kind, last_energy, _, _ = rv._latest
    assert last_kind is getattr(rv, kind) and last_energy == evals[-1][1]


def test_failed_factor_call_leaves_the_cache_as_it_was():
    d = default_family(HO_PLUS_ABS).scales.natural
    sp.chi_linear_odd(2.0)
    sp.chi_ho_plus_abs_odd(2.0, d)
    before = rv._latest
    # -rho beyond the Airy domain, and an order beyond pcf_d's
    for call in (lambda: sp.chi_linear_even(30.0), lambda: sp.chi_linear_odd(30.0),
                 lambda: sp.chi_ho_plus_abs_odd(70.0, d),
                 lambda: sp.chi_ho_plus_abs_even(70.0, d)):
        with pytest.raises(sf.DomainError):
            call()
        assert rv._latest is before


def test_scans_and_sweeps_leave_the_spectrum_module_as_it_was():
    # the parity factors keep their builds in resolvent: spectrum holds no
    # module-level state that a scan or a sweep replaces
    before = dict(vars(sp))
    for tag in (LINEAR_ABS, HO_PLUS_ABS):
        assert roots_of(default_family(tag), window=(0.0, 4.0)).roots
    assert sp.sweep(default_family(HO_PLUS_ABS), "muphi", [0.5, 0.6, 0.7],
                    window=(0.0, 4.0)).rows
    after = vars(sp)
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())


# ----------------------------------------------------------------------
# delta-decorated oscillator
# ----------------------------------------------------------------------


@pytest.mark.parametrize("tau,p", [(-1.0, 0.5), (-1.2, 0.0), (-1.2, 0.7), (2.0, 1.5), (-0.5, 3.0)])
def test_delta_ho_duplication_matches_the_rgamma_call(tau, p):
    # 1/Gamma(1/2 - eps) by Legendre's duplication from the Kummer pair's
    # two rgamma values, against rgamma(1/2 - eps) called directly: within
    # 32 eps of |tau D D| + |1/Gamma| over the default window and beyond
    for i in range(621):
        e = -50.0 + 0.1 * i + 0.0137
        plus, minus, _, _ = sf.pcf_d_pair(e - 0.5, p)
        rg = sf.rgamma(0.5 - e)
        scale = abs(tau * plus * minus) + abs(rg)
        direct = tau * plus * minus + rg
        assert abs(sp.chi_delta_ho(e, tau, p) - direct) <= 32 * math.ulp(1.0) * scale, e


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
# scales each, where eps, rho and E differ; at step 0.05 the oscillator's
# floors -49.95 and -24.3 (a^2 = 99.9, 48.6) make _lattice move its first
# guess of the start point up and down a lattice point
FLOOR_FAMILIES = (
    [default_family(DELTA_DECORATED, base=HO, delta_strength=tau * math.sqrt(math.pi),
                    delta_position=p / math.sqrt(2.0))
     for tau in (-3.0, -2.0, -1.2, 0.0, 2.0) for p in (0.0, 0.7, 2.0)]
    + [default_family(DELTA_DECORATED, base=HO, delta_strength=-math.sqrt(a2))
       for a2 in (99.9, 48.6)]
    + [default_family(DELTA_DECORATED, base=HO, hbar=0.8, mass=1.5, omega1=2.0,
                      delta_strength=-1.5, delta_position=0.3)]
    + [default_family(DELTA_DECORATED, base=LINEAR_ABS, delta_strength=a, delta_position=zq)
       for a in (-6.0, -1.6, 0.0, 2.0) for zq in (0.0, 0.5, 1.0)]
    + [default_family(DELTA_DECORATED, base=LINEAR_ABS, hbar=1.2, mass=0.7, alpha1=1.3,
                      delta_strength=-2.0, delta_position=0.4)])


def _floor_id(fam):
    d = fam.scales.natural
    if fam.base == HO:
        return f"HO-tau{d.tau:.3g}-p{d.p:.3g}"
    return f"LINEAR_ABS-eta{d.eta:.3g}-zq{d.zeta * fam.scales.delta_position:.3g}"


@pytest.mark.parametrize("fam", FLOOR_FAMILIES, ids=_floor_id)
def test_energy_floor_bounds_the_spectrum_and_keeps_every_bit(fam):
    step = 0.05  # the start point lies on the scan lattice at any step
    d = fam.scales.natural
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
    assert len(calls) < whole_calls


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


# ----------------------------------------------------------------------
# sweeps by the certified walk
# ----------------------------------------------------------------------


def _per_value_scans(family, param, values, window, step):
    """sweep's rows and breaks, rebuilt from one find_roots scan per value."""
    apply = sp.SWEEP_PARAMS[param][2]
    rows, breaks, before = [], [], None
    for v in values:
        roots = sp.find_roots(sp.build_chi(apply(family, v)), window=window, step=step).roots
        if before is not None and len(roots) != before:
            breaks.append(v)
        before = len(roots)
        rows += [(v, r.index, r.value) for r in roots]
    return rows, breaks


def _hex_rows(rows):
    return [(float(v).hex(), i, e.hex()) for v, i, e in rows]


def _steps(a, b, n):
    return [a + (b - a) * i / (n - 1) for i in range(n)]


# (family, param, values, window, step, full scans at most): every range
# moves levels through an edge of its window, ascending or descending
SWEEP_CASES = {
    "lam-default": (default_family(HO_ASYM), "lam", _steps(0.2, 3.0, 15), None, 0.005, 0),
    "lam-down": (default_family(HO_ASYM), "lam", _steps(3.0, 0.4, 14), (0.0, 6.0), 0.005, 3),
    "beta": (default_family(LINEAR_ASYM), "beta", _steps(0.3, 2.1, 7), (1e-6, 5.5), 0.01, 2),
    "beta-default": (default_family(LINEAR_ASYM), "beta", _steps(0.4, 1.2, 9), None, 0.01, 0),
    "xi": (default_family(HALF_HO_HALF_LINEAR), "xi", _steps(1.8, 0.6, 9), (1e-6, 7.5), 0.01,
           1),
    "xi-default": (default_family(HALF_HO_HALF_LINEAR), "xi", _steps(1.2, 1.7, 6), None,
                   0.005, 2),
    "muphi": (default_family(HO_PLUS_ABS), "muphi", _steps(0.0, 2.2, 12), (0.0, 9.0), 0.01, 2),
    "muphi-down": (default_family(HO_PLUS_ABS), "muphi", _steps(1.95, 0.8, 6), (0.0, 6.0),
                   0.005, 0),
    # the ground state crosses eps = 0 as tau crosses 0, entering from below
    "tau-through-0": (_delta_fam(-1.0, 0.5), "tau", _steps(-1.2, 1.2, 13), (0.0, 3.0), 0.005,
                      1),
    "tau-down": (_delta_fam(1.0, 0.5), "tau", _steps(1.2, -1.2, 13), (0.0, 3.0), 0.005, 1),
    # default window: scanned from the energy floor, which moves with tau
    "tau-default": (_delta_fam(-1.0, 0.5), "tau", _steps(-1.2, 1.2, 9), None, 0.01, 1),
    "tau-workload": (_delta_fam(-1.0, 0.7), "tau", _steps(0.3, 0.45, 4), (-3.0, 6.0), 0.005, 0),
    "p": (_delta_fam(-1.0, 0.5), "p", _steps(0.0, 4.0, 9), None, 0.01, 2),
    # p = 0: odd base levels are exact zeros on the lattice, so those
    # values are scanned in full
    "p-zero": (_delta_fam(1.0, 0.0), "p", _steps(0.0, 0.3, 4) + _steps(0.2, 0.0, 3),
               (0.0, 4.0), 0.01, 2),
}


@pytest.mark.parametrize("case", SWEEP_CASES)
def test_sweep_gives_the_rows_and_breaks_of_per_value_scans(case, monkeypatch):
    family, param, values, window, step, most = SWEEP_CASES[case]
    want_rows, want_breaks = _per_value_scans(family, param, values, window, step)
    scans = []
    find_roots = sp.find_roots
    monkeypatch.setattr(sp, "find_roots", lambda *a, **k: scans.append(a) or find_roots(*a, **k))
    got = sp.sweep(family, param, values, window=window, step=step)
    assert _hex_rows(got.rows) == _hex_rows(want_rows)
    assert got.breaks == want_breaks
    # the certified walk finds most values, the first one included.
    # Values without a certificate (dense levels at both ends: beta, xi),
    # exact lattice zeros in the counted part (lam = 1, tau = 0, p = 0)
    # and values whose walk comes up short are scanned
    assert len(scans) <= most
    if case == "p-zero":
        assert len(scans) == 2  # p = 0 is scanned on the way back as well
    # no value depends on the values before it
    monkeypatch.undo()
    alone = [row for v in values for row in sp.sweep(family, param, [v], window=window,
                                                      step=step).rows]
    assert _hex_rows(alone) == _hex_rows(got.rows)


def test_levels_that_share_a_coarse_cell_are_scanned(monkeypatch):
    # a strong spike next to the centre pushes each even level up towards
    # the odd one above it: 3.23 and 3.55 lie in one coarse cell of the
    # walk (45 lattice cells), though in two lattice cells
    family, window, step = _delta_fam(4.0, 0.1), (0.0, 5.5), 0.01
    chi = sp.build_chi(family)
    lat = sp._lattice(chi, window, step)
    cert = sp._LevelCount.build(family, lat)
    inner = cert.inner(lat, sp.find_roots(chi, window=window, step=step).roots)
    assert cert.count == len(inner) == 5
    stride = (cert.i_hi - cert.i_lo) // (2 * cert.count + 2)
    cells = [math.ceil((r.value - lat.lo) / step) for r in inner]
    coarse = [(i - cert.i_lo - 1) // stride for i in cells]
    assert len(set(cells)) == 5 and coarse[2] == coarse[3] and len(set(coarse)) == 4
    # no sign change there, so the walk counts four of five levels
    assert sp._walked(chi, lat, cert) is None
    want_rows, _ = _per_value_scans(family, "tau", [4.0], window, step)
    scans = []
    find_roots = sp.find_roots
    monkeypatch.setattr(sp, "find_roots", lambda *a, **k: scans.append(a) or find_roots(*a, **k))
    got = sp.sweep(family, "tau", [4.0], window=window, step=step)
    assert len(scans) == 1 and _hex_rows(got.rows) == _hex_rows(want_rows)


def test_an_exact_lattice_zero_outside_the_counted_part_is_walked(monkeypatch):
    # at lam = 1 the condition is exactly 0 at eps = 0.5, lattice point
    # 10, in the low strip; the count covers points 40..171 and holds no
    # level.  The walk takes that zero as the scan does: no scan
    family, window, step = default_family(HO_ASYM), (0.45, 1.3), 0.005
    fam = sp._sweep_lam(family, 1.0)
    chi = sp.build_chi(fam)
    lat = sp._lattice(chi, window, step)
    cert = sp._LevelCount.build(fam, lat)
    assert (cert.i_lo, cert.i_hi, cert.count) == (40, 171, 0)
    assert chi.factors[0][1](lat.point(10)) == 0.0 and lat.point(10) == 0.5
    want_rows, _ = _per_value_scans(family, "lam", [1.0], window, step)
    assert [e for _, _, e in want_rows] == [0.5]
    scans = []
    find_roots = sp.find_roots
    monkeypatch.setattr(sp, "find_roots", lambda *a, **k: scans.append(a) or find_roots(*a, **k))
    got = sp.sweep(family, "lam", [1.0], window=window, step=step)
    assert len(scans) == 0 and _hex_rows(got.rows) == _hex_rows(want_rows)


def test_a_value_that_is_not_finite_in_a_strip_fails_as_the_scan_does(monkeypatch):
    # nan at lattice point 10, in the low strip of the count above: the
    # walk gives up and the scan reports the point
    family, window, step = default_family(HO_ASYM), (0.45, 1.3), 0.005
    build_chi = sp.build_chi

    def with_nan(fam):
        chi = build_chi(fam)
        (parity, fn), = chi.factors
        return dataclasses.replace(
            chi, factors=((parity, lambda e: math.nan if e == 0.5 else fn(e)),))
    monkeypatch.setattr(sp, "build_chi", with_nan)
    with pytest.raises(ArithmeticError, match=r"characteristic function not finite at 0\.5$"):
        sp.sweep(family, "lam", [1.0], window=window, step=step)


def _cert_operator(family, top):
    """The level-count certificate's FD operator for levels up to `top`
    (natural units)."""
    return oracle.operator_for(family, family.energy(top), sp._CERT_POINTS)


def _node_centred_delta(family, top):
    """`family` with its delta moved halfway between two nodes of the
    certificate's FD grid, nearest to where it was."""
    op = _cert_operator(family, top)
    h, wall = op.grid.h, op.grid.half_width
    i = int((family.scales.delta_position + wall) / h) - 1
    return model.with_scales(family, delta_position=op.node(i) + 0.5 * h)


def _workload_families():
    """Every sweep family over its README, acceptance and benchmark ranges."""
    out = []
    for lam in (0.2, 0.5, 1.0, 2.0, 3.0):
        out.append(("lam", sp._sweep_lam(default_family(HO_ASYM), lam)))
    for beta in (0.3, 0.6, 1.0, 1.5, 2.1):
        out.append(("beta", sp._sweep_beta(default_family(LINEAR_ASYM), beta)))
    for xi in (0.6, 1.2, 1.5, 1.8):
        out.append(("xi", sp._sweep_xi(default_family(HALF_HO_HALF_LINEAR), xi)))
    for muphi in (0.0, 0.8, 1.5, 2.2):
        out.append(("muphi", sp._sweep_muphi(default_family(HO_PLUS_ABS), muphi)))
    for tau in (-1.2, -0.5, 0.5, 1.2):
        out.append(("tau", _delta_fam(tau, 0.5)))
    for p in (0.0, 0.3, 0.8, 2.0, 4.0):
        out.append(("p", _delta_fam(-1.2, p)))
    return out


def _level_families():
    """The wells `levels` checks against the count and no sweep covers:
    HO_STARK at mu phi 0.87, 1.84 (the default) and 3.4, and the decorated
    |x| well over the benchmark's eta in [-0.8, 1.5], zeta q in [0, 1].
    Energy units below 1 widen the walls to V >= E + 10: the benchmark's
    lowest (HO at omega1 0.7, HO_STARK at omega1 0.8 with its largest
    alpha1, LINEAR_ABS at alpha1 0.8) and the lam sweep at omega1 0.5."""
    out = [("HO", default_family(HO)), ("LINEAR_ABS", default_family(LINEAR_ABS))]
    out += [("HO", default_family(HO, omega1=0.7)),
            ("HO_STARK", default_family(HO_STARK, omega1=0.8, alpha1=1.2)),
            ("LINEAR_ABS", default_family(LINEAR_ABS, alpha1=0.8)),
            ("lam", sp._sweep_lam(default_family(HO_ASYM, omega1=0.5), 0.7))]
    for alpha1 in (0.85, 1.3 ** (1.0 / 3.0), 1.34):
        out.append(("HO_STARK", default_family(HO_STARK, alpha1=alpha1)))
    for a in (-1.6, 0.5, 3.0):
        for q in (0.0, 0.5, 1.0):
            out.append(("eta", default_family(DELTA_DECORATED, base=LINEAR_ABS,
                                              delta_strength=a, delta_position=q)))
    return out


_CERT_FAMILIES = _workload_families() + _level_families()


# the workload ranges, widened: tau = -20 puts the floor at eps = -628,
# below the default low edge -50, and beta and xi cross the Airy cap
@pytest.mark.parametrize("param,family,lo,hi", [
    ("lam", default_family(HO_ASYM), 0.05, 20.0),
    ("beta", default_family(LINEAR_ASYM), 0.1, 10.0),
    ("xi", default_family(HALF_HO_HALF_LINEAR), 0.1, 10.0),
    ("muphi", default_family(HO_PLUS_ABS), 0.0, 5.0),
    ("tau", default_family(DELTA_DECORATED, base=HO), -20.0, 5.0),
    ("p", default_family(DELTA_DECORATED, base=HO), 0.0, 5.0)],
    ids=["lam", "beta", "xi", "muphi", "tau", "p"])
def test_no_sweep_value_has_a_wider_default_window_than_both_range_ends(param, family, lo, hi):
    # the CLI bounds a window-less sweep by its value count times the
    # larger of its first and last values' default-window point counts
    def points(families):
        return [sp._lattice_points(sp.build_chi(f).window, 0.005) for f in families]
    workload = points(f for p, f in _workload_families() if p == param)
    assert max(workload) == max(workload[0], workload[-1])
    walked = points(f for _, f in sp._swept(family, param, [lo + (hi - lo) * i / 200
                                                            for i in range(201)]))
    assert max(walked) == max(walked[0], walked[-1])
    # beta, xi and tau move the window over these ranges; the rest leave it fixed
    assert (len(set(walked)) > 1) == (param in ("beta", "xi", "tau"))


# the default windows, the sweep windows (top 6) and the widest level
# windows of the benchmark (top 8.5)
@pytest.mark.parametrize("window_top", ["default", 6.0, 8.5])
@pytest.mark.parametrize("param,family", _CERT_FAMILIES,
                         ids=[f"{p}{i}" for i, (p, _) in enumerate(_CERT_FAMILIES)])
def test_certificate_fd_levels_lie_within_a_fifth_of_the_margin(param, family, window_top):
    chi = sp.build_chi(family)
    # a benchmark window, or the default one where that is lower (beta = 2.1)
    top = chi.window[1] if window_top == "default" else min(window_top, chi.window[1])
    if family.tag == DELTA_DECORATED:
        family = _node_centred_delta(family, top + sp._CERT_MARGIN)
        chi = sp.build_chi(family)
    op = _cert_operator(family, top + sp._CERT_MARGIN)
    assert op.n == sp._CERT_POINTS
    low = max(chi.window[0], chi.floor - 1.0)
    levels = sp.find_roots(chi, window=(low, top + sp._CERT_MARGIN)).values()
    assert len(levels) >= 3
    tol = sp._CERT_MARGIN / 5
    # the k-th FD level lies within tol of the k-th closed-form level
    for k, e in enumerate(levels):
        assert oracle.eigenvalue_count_below(op, family.energy(e - tol)) == k, (k, e)
        assert oracle.eigenvalue_count_below(op, family.energy(e + tol)) == k + 1, (k, e)


def test_certificate_grid_is_the_same_in_natural_units_at_any_scale():
    lam = 0.7
    one = sp._sweep_lam(default_family(HO_ASYM), lam)
    scaled = sp._sweep_lam(default_family(HO_ASYM, hbar=1.5, mass=2.0, omega1=3.0), lam)
    ops = [_cert_operator(f, 6.1) for f in (one, scaled)]
    xs = [0.25 * i for i in range(30)]
    assert ([oracle.eigenvalue_count_below(ops[0], one.energy(x)) for x in xs]
            == [oracle.eigenvalue_count_below(ops[1], scaled.energy(x)) for x in xs])
    # an energy unit below 1 puts the walls where the oracle's own rule,
    # V >= E + 10 in energy units, holds: wider than the natural ones
    small = sp._sweep_lam(default_family(HO_ASYM, omega1=0.5), lam)
    op = _cert_operator(small, 6.1)
    wall = op.grid.half_width
    assert wall * small.scales.natural.mu > ops[0].grid.half_width * one.scales.natural.mu
    assert min(small.potential(-wall), small.potential(wall)) >= small.energy(6.1) + 10.0
    want_rows, want_breaks = _per_value_scans(small, "lam", [0.7, 0.75], (0.0, 3.0), 0.005)
    got = sp.sweep(small, "lam", [0.7, 0.75], window=(0.0, 3.0))
    assert (_hex_rows(got.rows), got.breaks) == (_hex_rows(want_rows), want_breaks)
    # and the count guards the scan there too
    fam = default_family(HO_ASYM, omega1=0.5)
    with pytest.raises(ArithmeticError, match=r"lam = 1: the scan found 1 level"):
        sp.sweep(fam, "lam", [1.0, 1.05], window=(0.0, 3.0), step=5.0)


def test_bisect_closes_on_adjacent_floats_where_they_lie_wider_than_the_bracket():
    # above |x| = 2048 adjacent floats lie more than _BRACKET_WIDTH / 2 apart
    root = 3000.123456789
    calls = []

    def fn(x):
        calls.append(x)
        assert len(calls) < 200, "the bisection does not stop"
        return -1.0 if x < root else 1.0

    assert (oracle._bisect(fn, 2999.0, 3001.0, fn(2999.0), sp._BRACKET_WIDTH)
            == (math.nextafter(root, 0.0), root))


@pytest.mark.parametrize("alpha1", [0.01, 0.007])
def test_certificate_wall_of_a_shallow_linear_well_is_the_first_float_past_the_target(alpha1):
    # these put the wall near 1.0e7 and 2.9e7, where floats lie 1.9e-9
    # and 3.7e-9 apart
    fam = default_family(LINEAR_ABS, alpha1=alpha1)
    top = 3.0 + sp._CERT_MARGIN
    wall = _cert_operator(fam, top).grid.half_width
    # the certificate's box is oracle.auto_grid's, whose rule puts the
    # walls 10 natural units above the top (V(bottom) = 0 lies below it),
    # or 10 energy units where that is more
    assert wall == oracle.auto_grid(fam, fam.energy(top), sp._CERT_POINTS).half_width
    target = fam.energy(top) + max(fam.energy(10.0), 10.0)

    def v(x):
        return min(fam.potential(-x), fam.potential(x))

    assert 0.9e7 < wall < 3e7
    assert v(wall) >= target > v(math.nextafter(wall, 0.0))


def test_sweep_raises_where_the_scan_finds_fewer_levels_than_the_count():
    # HO levels 0.5, 1.5 and 2.5 share the one lattice cell of --step 5
    fam = default_family(HO_ASYM)
    with pytest.raises(ArithmeticError, match=r"lam = 1: the scan found 1 level"):
        sp.sweep(fam, "lam", [1.0, 1.05], window=(0.0, 3.0), step=5.0)
    # levels keeps its scan as it is
    assert len(roots_of(sp._sweep_lam(fam, 1.0), window=(0.0, 3.0), step=5.0).roots) == 1


@pytest.mark.parametrize("case", ["lam-default", "beta-default", "xi"])
def test_an_fd_grid_too_coarse_for_the_margin_is_not_trusted(case, monkeypatch):
    # 100 points put some FD levels more than the margin off, so some
    # counts are wrong.  Checking the roots against the FD levels rejects
    # those counts: the rows stay those of per-value scans, and no count
    # contradicts a scan
    family, param, values, window, step, _ = SWEEP_CASES[case]
    monkeypatch.setattr(sp, "_CERT_POINTS", 100)
    want_rows, want_breaks = _per_value_scans(family, param, values, window, step)
    got = sp.sweep(family, param, values, window=window, step=step)
    assert (_hex_rows(got.rows), got.breaks) == (_hex_rows(want_rows), want_breaks)


def test_roots_that_do_not_pair_with_the_counted_fd_levels_are_rejected():
    fam = default_family(HO_ASYM)
    chi = sp.build_chi(fam)
    lat = sp._lattice(chi, (0.0, 6.0), 0.005)
    cert = sp._LevelCount.build(fam, lat)
    roots = cert.inner(lat, sp.find_roots(chi, window=(0.0, 6.0)).roots)
    assert cert.count == len(roots) > 3 and cert.agrees_at_ends(lat, roots)
    # continuation that missed the top or the bottom level is not trusted,
    # though each root left still lies next to an FD level
    for fewer in (roots[:-1], roots[1:]):
        assert not cert.agrees_at_ends(lat, fewer)
        assert cert.agrees_with_each(fewer)
    shifted = [dataclasses.replace(r, value=r.value + 0.05) for r in roots]
    assert not cert.agrees_with_each(shifted)


# ----------------------------------------------------------------------
# the lean walk of the plain cells against the point-by-point walk
# ----------------------------------------------------------------------


def _walked_point_by_point(chi, lat, cert=None, limit=None):
    """spectrum._walked as it read before its plain cells got a loop of
    their own (_scan): the factors' values at each point as one list,
    the point from _Lattice.point, and the limit and counted-part tests
    at every point.  Verbatim."""
    fns = [fn for _, fn in chi.factors]
    factors = range(len(fns))
    known = [{} for _ in fns]  # lattice index -> value in the counted part, per factor

    def at(x, fns=fns):
        """The values of `fns` at x, in factor order."""
        fs = []
        for fn in fns:
            f = fn(x)
            if not math.isfinite(f):
                raise ArithmeticError(f"characteristic function not finite at {x}")
            fs.append(f)
        return fs

    def value(j, i):
        f = known[j].get(i)
        if f is None:
            f = known[j][i] = at(lat.point(i), fns[j:j + 1])[0]
        return f

    def changes(j, a, b):
        return (value(j, a) < 0.0) != (value(j, b) < 0.0)

    i_lo, i_hi, count = (cert.i_lo, cert.i_hi, cert.count) if cert else (None, None, 0)
    found = []  # (value, bracket, residual, parity), cell by cell in factor order
    i, x_prev = lat.start, lat.point(lat.start)
    f_prevs = at(x_prev)
    while i < lat.n_steps and (limit is None or len(found) < limit):
        if i == i_lo:  # the counted part, in coarse cells
            for values, f in zip(known, f_prevs):
                values[i] = f
            stride = max(1, (i_hi - i_lo) // (2 * count + 2))
            cells = []  # (index of the cell's upper end, factor)
            for a in range(i_lo, i_hi, stride):
                b = min(a + stride, i_hi)
                for j in [j for j in factors if changes(j, a, b)]:
                    # a lattice cell (c - 1, c] of (a, b] where the factor changes sign
                    cells.append((bisect.bisect_left(range(b + 1), True, a + 1,
                                                     key=lambda i: changes(j, a, i)), j))
            if len(cells) != count or any(0.0 in values.values() for values in known):
                return None
            found += [sp._cell_root(chi.factors[j], lat.point(c - 1), lat.point(c),
                                    known[j][c - 1], known[j][c]) for c, j in sorted(cells)]
            i, x_prev = i_hi, lat.point(i_hi)
            f_prevs = [values[i] for values in known]
            continue
        i += 1
        x = lat.point(i)
        fs = at(x)
        for j, f in enumerate(fs):
            if f == 0.0:
                found.append((x, (x - 0.5 * sp._BRACKET_WIDTH, x + 0.5 * sp._BRACKET_WIDTH), 0.0,
                              chi.factors[j][0]))
            elif f_prevs[j] != 0.0 and (f_prevs[j] < 0.0) != (f < 0.0):
                found.append(sp._cell_root(chi.factors[j], x_prev, x, f_prevs[j], f))
        x_prev, f_prevs = x, fs
    found.sort(key=lambda t: t[0])  # stable, so ties keep factor order
    return sp.SpectrumResult([sp.Root(n, *t) for n, t in enumerate(found[:limit])])


def _each_walk(monkeypatch, calls, scan):
    """[(outcome, factor calls)] of scan() with spectrum's walk, then with
    _walked_point_by_point: the outcome is the roots' _bits, or the text
    of the ArithmeticError raised; `calls` is the list a _counted chi
    records its calls in."""
    lean = sp._walked
    out = []
    for walk in (lean, _walked_point_by_point):
        monkeypatch.setattr(sp, "_walked", walk)
        calls.clear()
        try:
            outcome = _bits(scan().roots)
        except ArithmeticError as exc:
            outcome = str(exc)
        out.append((outcome, list(calls)))
    monkeypatch.setattr(sp, "_walked", lean)
    return out


@pytest.mark.parametrize("fam", ALL_FAMILIES, ids=lambda f: f.tag + (f".{f.base}" if f.base else ""))
def test_lean_walk_gives_the_roots_and_calls_of_the_point_by_point_walk(fam, monkeypatch):
    # every family's default window, scanned (find_roots) and walked with
    # its level count (checked_roots, as a sweep value): the same roots,
    # bit for bit, from the same factor calls in the same order
    chi, calls = _counted(sp.build_chi(fam))
    lean, before = _each_walk(monkeypatch, calls, lambda: sp.find_roots(chi))
    assert lean == before and lean[0]
    monkeypatch.setattr(sp, "build_chi", lambda family: chi)
    lean, before = _each_walk(monkeypatch, calls,
                              lambda: sp.checked_roots(fam, None, sp._STEP, "here", walk=True))
    assert lean == before and lean[0]


def _lattice_root_then_sign_change(x):
    # 0 at x = 1, on the lattice of step 1/64, then negative up to the
    # root 1 + 1.5/64 inside the next cell but one
    return (x - 1.0) * (x - 1.0 - 1.5 / 64)


def _nan_from_1(x):
    return math.nan if x >= 1.0 else x - 0.5


# (factors, window, floor): built factors whose zeros, sign changes and
# values hit each branch of the walk
WALK_CASES = {
    "zero on the lattice": (((None, lambda x: x - 1.0),), (0.0, 3.0), -math.inf),
    "zero then a sign change": (((None, _lattice_root_then_sign_change),), (0.0, 3.0),
                                -math.inf),
    # the second factor's root lies below the first's, in the same cell
    "two roots in one cell": ((("even", lambda x: x - 0.51), ("odd", lambda x: 0.505 - x)),
                              (0.0, 3.0), -math.inf),
    # values near 1e-200, whose products with their neighbours underflow to 0
    "underflowing products": ((("even", lambda x: 1e-200 * (x - 1.3)),
                               ("odd", lambda x: 1e-200 * (x + 1.0))), (0.0, 3.0), -math.inf),
    "many sign changes": ((("even", lambda x: math.sin(8.0 * x)),
                           ("odd", lambda x: math.cos(8.0 * x))), (0.0, 3.0), -math.inf),
    "floor start": (((None, lambda x: math.sin(5.0 * x)),), (0.0, 3.0), 1.3),
    "nan in the first of two factors": ((("even", _nan_from_1), ("odd", lambda x: 0.7 - x)),
                                        (0.0, 3.0), -math.inf),
    "nan at the start": ((("even", lambda x: math.nan if x <= 0.0 else x),
                          ("odd", lambda x: 1.0)), (0.0, 3.0), -math.inf),
}


@pytest.mark.parametrize("case", WALK_CASES)
def test_lean_walk_takes_each_branch_as_the_point_by_point_walk(case, monkeypatch):
    factors, window, floor = WALK_CASES[case]
    chi, calls = _counted(sp.CharacteristicFunction(window, factors, floor))
    for limit in (None, 1, 2, 5):
        lean, before = _each_walk(monkeypatch, calls,
                                  lambda: sp.find_roots(chi, step=1 / 64, limit=limit))
        assert lean == before, limit
    outcome, seen = lean
    if case.startswith("nan"):
        # raised at the first factor's value, before the second's call there
        x = 0.0 if case == "nan at the start" else 1.0
        assert outcome == f"characteristic function not finite at {x}"
        assert seen[-1] == ("even", x)
    elif case == "floor start":
        assert min(x for _, x in seen) == 1.296875  # the last lattice point below 1.3
    else:
        assert outcome

"""Closed-form energy-dependent Green functions for the confining wells.

Every operation returns the resolvent kernel G(x, x'; E) in the
convention (H - E) G = delta(x - x'), i.e. G = sum psi psi* / (E_n - E).
The dimensionless companion is G~ = -(hbar^2 / 2m) G and satisfies
[d^2/dx^2 + (2m/hbar^2)(E - V)] G~ = delta.

The harmonic-oscillator kernel (and its Stark shift) is globally exact:
both D_nu(mu x) and D_nu(-mu x) solve Weber's equation on the whole
line.  The |x|-type wells are piecewise problems: the decaying solution
of one side continued through x = 0 acquires a component of the second
solution of the other side.  The product forms that drop that component
are exact only when x and x' straddle the origin; here the continuation
is carried out properly, so the kernels satisfy the defining equation
for every argument pair (the straddling case reproduces the plain
product forms identically).

The truncated Hermite-series resolvent is retained as an internal test
oracle.  Its plain truncation tail decays like 1/sqrt(n_terms), far too
slow for tight cross-checks, so `tail=True` completes the sum with a
quadrature of the Mehler-kernel generating function minus the summed
polynomial part.  The completed value is accurate to about 1e-12 of
G's peak, absolutely: where G is exponentially small its relative
error grows without bound (wrong in sign at x = 10, x' = 0, E = 2.3).

One kernel builds every closed form, G = num u(x>) v(x<) / den: u and
v decay at +inf and -inf, num and den depend on the energy alone, and
den carries the Wronskian, whose zeros are the bound states.  Every
closed form here has v(x) = u(-x), so a build is one dict from
abscissa x to u(x), made once per energy from the energy and the
scales' natural units, pole check included: the oscillator's
D(mu x) (the Stark well reads it at x + phi and a shifted energy) or a
piecewise well's mirror pair, its branch continued through 0.  The
piecewise wells are one Weber or Airy branch per side of x = 0 and one
match there: W = u v' - u' v at 0 for two branches, W = -2 k u0 u1 for
a mirror pair from the branch's value and slope at 0 (its parity
factors), and the branch's own continuation of u through 0.  Each is
written once, here, and spectrum's characteristic functions read them.
Scans build branches only, with no pole check; the continuation's
coefficients are computed when first read.  green(x, x', E, family) is
one call of the closed form that _closed_form(family) looks up by
family tag; the CLI's green-grid looks it up once per request.

The module keeps the latest object it built through _kept, with the
kind, energy and context it was built for: the PhysicalScales of a
Green build or of a scan's HO+|x| branch, None for the Airy branch.
A call reuses it when kind and context are the
same objects and the energy compares equal (so +0.0 and -0.0 share one
build); any other call builds afresh and replaces it.  A green-grid
request, or a library loop over abscissae at one energy with one
family, so evaluates each decaying solution once per abscissa; the four
base calls of a decorated well share that one build, and so do the two
parity factors of a scan at one lattice point.  A build that fails (a
pole check, a domain error) is never kept, so every call at a pole
raises.  The slot is one tuple, read and replaced whole, so racing
threads at worst build twice.  Values are bit-identical with or
without it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import specfun as sf
from .model import DELTA_DECORATED, HO, HO_PLUS_ABS, HO_STARK, LINEAR_ABS
from .model import _DELTA_DEFAULTS, FamilyError, PhysicalScales

__all__ = [
    "GreenEval",
    "NearPoleError",
    "OnResonanceError",
    "green",
    "green_ho",
    "green_ho_series",
    "green_ho_stark",
    "green_linear",
    "green_ho_plus_abs",
    "green_decorated",
    "to_tilde",
]

_HO_POLE_RADIUS = 1e-9
_MIRROR_POLE_RADIUS = 1e-10
_RESONANCE_RADIUS = 1e-12


@dataclass(slots=True)
class GreenEval:
    """One Green-function value; slotted like specfun.EvalResult, so it
    compares by value and is neither frozen nor hashable."""

    value: float
    convention: str  # "G" or "G_TILDE"


class NearPoleError(ArithmeticError):
    """Energy within the exclusion radius of a bound-state pole."""

    def __init__(self, message, index=None, parity=None):
        super().__init__(message)
        self.index = index
        self.parity = parity


class OnResonanceError(ArithmeticError):
    """Decorated resolvent evaluated at one of its own bound states."""


def to_tilde(g: GreenEval, scales: PhysicalScales) -> GreenEval:
    """Convert a G-convention evaluation to G~ = -(hbar^2/2m) G."""
    if g.convention != "G":
        return g
    return GreenEval(-g.value / scales.two_m, "G_TILDE")


# (kind, energy, context, object) of the latest successful build.
# Holding the context keeps that object alive, so no other object can
# take its identity.
_latest = (None, None, None, None)


def _kept(kind, energy, context):
    """kind(energy, context): the latest build when kind and context are
    the same objects and energy compares equal, else a fresh build that
    replaces it."""
    global _latest
    last_kind, last_energy, last_context, obj = _latest
    if not (kind is last_kind and context is last_context and energy == last_energy):
        obj = kind(energy, context)
        _latest = (kind, energy, context, obj)
    return obj


def _green(kind, x, xp, energy, scales) -> GreenEval:
    """G = num u(x>) u(-x<) / den from the `kind` map x -> u(x) at this energy."""
    sol = _kept(kind, energy, scales)
    # u(x>) v(x<), the solution product grouped first: IEEE multiplication
    # commutes, so the parity map (x, x') -> (-x', -x), which swaps the
    # two factors, reproduces the value bit-exactly
    if x <= xp:
        uv = sol[xp] * sol[-x]
    else:
        uv = sol[x] * sol[-xp]
    return GreenEval(sol.num * uv / sol.den, "G")


# ----------------------------------------------------------------------
# Harmonic oscillator and Stark shift
# ----------------------------------------------------------------------


class _HoSolutions(dict):
    """u(x) = D_{eps-1/2}(mu x) at one energy, by abscissa x; v(x) = D(-mu x) = u(-x)."""

    den = 1.0

    def __init__(self, energy, scales):
        eps = scales.eps(energy)
        if not math.isfinite(eps):
            raise sf.DomainError(f"HO resolvent needs a finite eps, got eps = {eps}")
        k = round(eps - 0.5)
        if k >= 0 and abs(eps - (k + 0.5)) < _HO_POLE_RADIUS:
            raise NearPoleError(
                f"eps = {eps} within {_HO_POLE_RADIUS:g} of bound state n = {k}", index=k)
        self.mu = scales.mu
        self.nu = eps - 0.5
        self.num = scales.ho_norm / sf.rgamma(0.5 - eps)

    def __missing__(self, x):
        # u(x) and u(-x) from one pcf_d_pair call, bit for bit two pcf_d
        # calls: mu (-x) is exactly -(mu x); its 1/Gamma(-nu) goes unread
        u, self[-x], _, _ = sf.pcf_d_pair(self.nu, self.mu * x)
        self[x] = u
        return u


def green_ho(x: float, xp: float, energy: float, scales: PhysicalScales) -> GreenEval:
    """G_ho = sqrt(m/(pi w hbar^3)) Gamma(1/2 - eps) D_{eps-1/2}(mu x>) D_{eps-1/2}(-mu x<)."""
    return _green(_HoSolutions, x, xp, energy, scales)


def _series_terms(y, yp, n_terms):
    """a_n = H_n(y) H_n(yp) / (2^n n!) by the normalized pair recurrence."""
    out = [1.0]
    if n_terms == 1:
        return out
    hy0, hp0 = 1.0, 1.0
    hy1, hp1 = math.sqrt(2.0) * y, math.sqrt(2.0) * yp
    out.append(hy1 * hp1)
    for n in range(1, n_terms - 1):
        c1 = math.sqrt(2.0 / (n + 1.0))
        c2 = math.sqrt(n / (n + 1.0))
        hy2 = c1 * y * hy1 - c2 * hy0
        hp2 = c1 * yp * hp1 - c2 * hp0
        out.append(hy2 * hp2)
        hy0, hy1 = hy1, hy2
        hp0, hp1 = hp1, hp2
    return out


# 32-point Gauss-Legendre nodes/weights on [-1, 1]
_GL32_X = (
    -0.9972638618494816, -0.9856115115452684, -0.9647622555875064,
    -0.9349060759377397, -0.8963211557660522, -0.84936761373257,
    -0.7944837959679424, -0.7321821187402897, -0.6630442669302152,
    -0.5877157572407623, -0.5068999089322294, -0.42135127613063533,
    -0.33186860228212767, -0.23928736225213706, -0.1444719615827965,
    -0.04830766568773831, 0.04830766568773831, 0.1444719615827965,
    0.23928736225213706, 0.33186860228212767, 0.42135127613063533,
    0.5068999089322294, 0.5877157572407623, 0.6630442669302152,
    0.7321821187402897, 0.7944837959679424, 0.84936761373257,
    0.8963211557660522, 0.9349060759377397, 0.9647622555875064,
    0.9856115115452684, 0.9972638618494816,
)
_GL32_W = (
    0.007018610009469298, 0.016274394730905965, 0.025392065309262427,
    0.034273862913021626, 0.042835898022226426, 0.050998059262376244,
    0.058684093478535704, 0.06582222277636175, 0.07234579410884845,
    0.07819389578707031, 0.08331192422694685, 0.08765209300440391,
    0.09117387869576386, 0.09384439908080457, 0.09563872007927483,
    0.09654008851472781, 0.09654008851472781, 0.09563872007927483,
    0.09384439908080457, 0.09117387869576386, 0.08765209300440391,
    0.08331192422694685, 0.07819389578707031, 0.07234579410884845,
    0.06582222277636175, 0.058684093478535704, 0.050998059262376244,
    0.042835898022226426, 0.034273862913021626, 0.025392065309262427,
    0.016274394730905965, 0.007018610009469298,
)
# panel edges in v (u = 1 - v^2); graded toward v = 0 where u^n peaks
_TAIL_PANELS = (0.0, 0.02, 0.05, 0.12, 0.25, 0.45, 0.7, 1.0)


def _series_tail(y, yp, eps, a_terms):
    """integral_0^1 u^(-eps-1/2) [K(u) - P(u)] du over u = 1 - v^2.

    K is the Mehler generating kernel sum a_n u^n; P is the partial sum
    of the first len(a_terms) terms.  Together with the analytically
    integrated partial sum this completes the truncated series.
    """
    dyp2 = (y - yp) ** 2

    def integrand(v):
        u = 1.0 - v * v
        acc = 0.0
        for a_n in reversed(a_terms):
            acc = acc * u + a_n
        one_minus_u2 = v * v * (2.0 - v * v)
        if one_minus_u2 <= 0.0:
            return 0.0
        expo = 2.0 * y * yp * u / (1.0 + u) - dyp2 * u * u / one_minus_u2
        kern = math.exp(expo) / math.sqrt(one_minus_u2)
        val = kern - acc
        if u > 0.0:
            val *= u ** (-eps - 0.5)
        return val * 2.0 * v

    total = 0.0
    for i in range(len(_TAIL_PANELS) - 1):
        lo, hi = _TAIL_PANELS[i], _TAIL_PANELS[i + 1]
        half = 0.5 * (hi - lo)
        mid = 0.5 * (hi + lo)
        acc = 0.0
        for r, wgt in zip(_GL32_X, _GL32_W):
            acc += wgt * integrand(mid + half * r)
        total += acc * half
    return total


def green_ho_series(x, xp, energy, scales, n_terms=500, tail=False) -> GreenEval:
    """Truncated Hermite resolvent series (optionally tail-completed).

    With tail=False this is the plain truncation of
      G = sqrt(m/(w hbar^3)) e^{-(y^2+y'^2)/2}/sqrt(pi)
          sum_n a_n / (n + 1/2 - eps),      a_n = H_n(y)H_n(y')/(2^n n!),
    whose remainder decays only like 1/sqrt(n_terms).  With tail=True
    the remainder is completed by Mehler-kernel quadrature, giving an
    independent oracle whose absolute error is about 1e-12 of G's peak
    (2.3e-13 of G(0, 0) at x' = 0, E = 2.3 for the default oscillator,
    against 50-digit references).  It is no relative bound: at x = 10
    there it returns +1.04e-19 for -3.62e-20.
    """
    if not (1 <= n_terms <= 2000):
        raise ValueError(f"n_terms must be in 1..2000, got {n_terms}")
    if not (math.isfinite(x) and math.isfinite(xp) and math.isfinite(energy)):
        raise sf.DomainError(
            f"series resolvent arguments must be finite, got x = {x}, x' = {xp}, E = {energy}")
    s = scales
    w = s.omega1
    eps = energy / (s.hbar * w)
    k = round(eps - 0.5)
    if k >= 0 and abs(eps - (k + 0.5)) < 1e-6:
        raise NearPoleError(
            f"series resolvent needs eps at least 1e-6 from poles, eps = {eps}",
            index=int(k))
    if tail and n_terms <= eps - 0.5:
        raise ValueError("tail completion requires n_terms > eps - 1/2")
    lo, hi = (x, xp) if x <= xp else (xp, x)
    gam = math.sqrt(s.mass * w / s.hbar)
    y, yp = gam * lo, gam * hi
    a_terms = _series_terms(y, yp, n_terms)
    acc = 0.0
    for n in range(n_terms - 1, -1, -1):
        acc += a_terms[n] / (n + 0.5 - eps)
    if tail:
        acc += _series_tail(y, yp, eps, a_terms)
    pref = math.sqrt(s.mass / (w * s.hbar ** 3)) / math.sqrt(math.pi)
    val = pref * math.exp(-0.5 * (y * y + yp * yp)) * acc
    return GreenEval(val, "G")


def green_ho_stark(x, xp, energy, scales) -> GreenEval:
    """Uniform-field shift: G_{ho,a}(x,x';E) = G_ho(x+phi, x'+phi; E + hbar w (mu phi/2)^2)."""
    return _green(_HoSolutions, x + scales.phi, xp + scales.phi,
                  energy + scales.hbar_omega * scales.shift, scales)


# ----------------------------------------------------------------------
# Piecewise wells: one branch per side of x = 0, matched there
# ----------------------------------------------------------------------
# Each side's solution that decays away from 0 is a branch of the
# outward distance y = |x|, with the side's scale k (mu or zeta): the
# Weber branch D_{sigma-1/2}(mu y + mu phi), partnered by the even/odd
# Weber pair about y = -phi, or the Airy branch Ai(zeta y - rho),
# partnered by Bi.  Slopes are per unit k y, outward, so they do not
# depend on the side.  u (right) and v (left) join at 0 with the
# Wronskian W = u v' - u' v, zero on the bound states.  A mirror pair
# (one branch on both sides, v(x) = u(-x)) has W = -2 k u0 u1: its
# parity factors are the branch's value u0 (odd) and slope u1 (even).

_SQRT2 = math.sqrt(2.0)


def _weber0(eps):
    """(value, slope) at 0 of the Weber branch D_{eps-1/2}(mu y), from
    rgamma: D_nu(0) and D_nu'(0) over their common factor 2^(nu/2)
    sqrt(pi) are 1/Gamma((1-nu)/2) and -sqrt(2)/Gamma(-nu/2) (DLMF 12.2.6-7).
    Both are finite up to eps = 342.64, where the slope leaves the float
    range.  HO_ASYM's Wronskian multiplies two of them and overflows first,
    at eps = 260.67 for lam = 1/2 (the default), 197.70 for 1, 130.10 for 2;
    HALF_HO_HALF_LINEAR reaches 342.64 only at xi <= 0.27, where xi^2 eps
    stays inside the Airy domain."""
    return sf.rgamma(0.75 - 0.5 * eps), -_SQRT2 * sf.rgamma(0.25 - 0.5 * eps)


def _airy0(rho):
    """(value, slope) at 0 of the Airy branch Ai(zeta y - rho), then of
    its partner Bi: (Ai, Ai', Bi, Bi') at -rho, as floats."""
    return sf._airy(-rho)


def _wronskian(right, left, ratio):
    """W / k_R at 0 of the branches u (right) and v (left), given as their
    (value, slope, ...) at 0; ratio = k_L / k_R, and v'(0) = -k_L v[1]."""
    return -(ratio * right[0] * left[1] + right[1] * left[0])


class _Branch:
    """The continuation shared by both branch kinds, which supply value0,
    slope0 and partners(y) = (f, f', g, g'), the partner basis at y."""

    coef = None

    def continued(self, y):
        """u(-y), y >= 0, of the branch's mirror pair: A f(y) + B g(y), with
        A and B solved (Cramer) from the value and slope at 0 when first
        needed."""
        if self.coef is None:
            # A f + B g has u's value and, mirrored, the opposite slope at 0
            u0, u1 = self.value0, self.slope0
            f0, f1, g0, g1 = self.partners(0.0)
            det = f0 * g1 - g0 * f1
            self.coef = (u0 * g1 + g0 * u1) / det, -(f0 * u1 + u0 * f1) / det
        a, b = self.coef
        f, _, g, _ = self.partners(y)
        return a * f + b * g


class _Weber(_Branch):
    """The Weber branch of V = m w^2 x^2/2 + alpha^3 |x| at one eps:
    D_{sigma-1/2}(mu y + mu phi), sigma = eps + (mu phi/2)^2.  value0 and
    slope0 = D'(mu phi) = (mu phi/2) D(mu phi) - D_{sigma+1/2}(mu phi) are
    computed together when built, by one specfun.pcf_d_slope call;
    partners(y) is (E, E', O, O') at mu (y + phi)."""

    def __init__(self, eps, scales):
        self.mu, self.phi, self.mu_phi = scales.mu, scales.phi, scales.mu * scales.phi
        self.nu = eps + scales.shift - 0.5
        self.value0, self.slope0, _ = sf.pcf_d_slope(self.nu, self.mu_phi)

    def value(self, y):
        return sf.pcf_d(self.nu, self.mu * y + self.mu_phi).value

    def partners(self, y):
        return sf.weber_even_odd(self.nu, self.mu * (y + self.phi))[:4]


class _Airy(_Branch, dict):
    """The Airy branch Ai(zeta y - rho), by y: (Ai, Ai', Bi, Bi') at
    zeta y - rho, so a mirror pair reads u at y and at -y from one call.
    Without zeta (a scan's, whose _kept context is None) it is read in
    t = zeta x and depends on rho alone."""

    def __init__(self, rho, zeta=None):
        at0 = self[0.0] = _airy0(rho)
        self.rho, self.zeta = rho, 1.0 if zeta is None else zeta
        self.value0, self.slope0 = at0[0], at0[1]

    def __missing__(self, y):
        vals = self[y] = sf._airy(self.zeta * y - self.rho)
        return vals

    def value(self, y):
        return self[y][0]

    def partners(self, y):
        return self[y]


class _Mirror(dict):
    """A Green build's mirror pair of branch `br`, whose scale is k: u by
    x, the branch for x >= 0 and its continuation for x < 0, and
    v(x) = u(-x).  W = -2 k u0 u1 from the branch's value and slope at 0,
    so G = -(2m/hbar^2) u v / (2 k u0 u1).  NearPoleError when
    |u0 u1| < 1e-10 (u0^2 + u1^2), when the smaller factor, which names
    the parity, is below 1e-10 of the larger.  The test is relative
    because the factors' scale falls by orders of magnitude from level
    to level and below the spectrum; the exclusion half-width is 1.6e-11
    to 2.3e-10 in rho or eps at each of the first 8 levels of both wells."""

    def __init__(self, br, k, scales):
        u0, u1 = br.value0, br.slope0
        if abs(u0 * u1) < _MIRROR_POLE_RADIUS * (u0 * u0 + u1 * u1):
            parity = "odd" if abs(u0) < abs(u1) else "even"
            raise NearPoleError(
                f"energy within the exclusion radius of a pole ({parity} state)", parity=parity)
        self.br, self.num, self.den = br, -scales.two_m, 2.0 * k * u0 * u1

    def __missing__(self, x):
        u = self[x] = self.br.value(x) if x >= 0.0 else self.br.continued(-x)
        return u


def _linear(energy, scales):
    """The |x| well's mirror pair: the Airy branch, k = zeta."""
    return _Mirror(_Airy(scales.rho(energy), scales.zeta), scales.zeta, scales)


def green_linear(x, xp, energy, scales) -> GreenEval:
    """Green function of V = alpha^3 |x| built from Airy solutions.

    Reduces to
      -(2m/hbar^2)^(2/3) (1/2 alpha) Ai(zeta x> - rho) Ai(-zeta x< - rho)
        / (Ai(-rho) Ai'(-rho))
    when x and x' straddle the origin; same-side pairs use the properly
    continued left/right-decaying solutions.
    """
    return _green(_linear, x, xp, energy, scales)


def _ho_plus_abs(energy, scales):
    """The HO+|x| mirror pair: the Weber branch, k = mu."""
    return _Mirror(_Weber(scales.eps(energy), scales), scales.mu, scales)


def green_ho_plus_abs(x, xp, energy, scales) -> GreenEval:
    """Green function of V = m w^2 x^2 / 2 + alpha^3 |x|.

    The denominator D_{s-1/2}(mu phi) [mu phi D_{s-1/2}(mu phi)
    - 2 D_{s+1/2}(mu phi)] carries the bound states (odd/even factor).
    Straddling argument pairs reduce to the plain product of
    D_{s-1/2}(-mu x< + mu phi) D_{s-1/2}(mu x> + mu phi); same-side
    pairs use the continued solutions.  Overall sign fixed by the
    defining equation (H - E) G = delta.
    """
    return _green(_ho_plus_abs, x, xp, energy, scales)


# the closed forms by family tag, (x, x', E, scales) -> GreenEval
_BASE_GREEN = {HO: green_ho, HO_STARK: green_ho_stark, LINEAR_ABS: green_linear,
               HO_PLUS_ABS: green_ho_plus_abs}


# ----------------------------------------------------------------------
# Dirac-delta decoration
# ----------------------------------------------------------------------


def green_decorated(x, xp, energy, base_family, scales) -> GreenEval:
    """Resolvent of base potential + a delta(x - q), resummed exactly.

    From (H0 + V - E) G = 1 with V = a delta(. - q):
        G = G0 - a G0(x,q) G0(q,x') / (1 + a G0(q,q)),
    whose denominator vanishes exactly on the decorated bound states
    G0(q,q) = -1/a.
    """
    if base_family not in _DELTA_DEFAULTS:
        raise ValueError(f"green_decorated base must be HO or LINEAR_ABS, got {base_family!r}")
    g0 = _BASE_GREEN[base_family]
    a = scales.delta_strength
    q = scales.delta_position
    if a is None or q is None:
        raise ValueError("decorated resolvent requires delta_strength and delta_position")
    gqq = g0(q, q, energy, scales).value
    den = 1.0 + a * gqq
    if abs(den) < _RESONANCE_RADIUS:
        raise OnResonanceError(
            f"1 + a G(q,q) = {den:g}: E = {energy} is a decorated bound state")
    if x <= xp:
        lo, hi = x, xp
    else:
        lo, hi = xp, x
    base = g0(lo, hi, energy, scales).value
    val = base - a * g0(lo, q, energy, scales).value * g0(q, hi, energy, scales).value / den
    return GreenEval(val, "G")


def _closed_form(family):
    """G(x, x', E) -> GreenEval of a model.PotentialFamily, one plain call:
    green_decorated with the family's base and scales for a decorated
    well, its _BASE_GREEN entry with its scales otherwise.

    Raises model.FamilyError for a family without one (HO_ASYM,
    LINEAR_ASYM, HALF_HO_HALF_LINEAR).
    """
    scales = family.scales
    if family.tag == DELTA_DECORATED:
        base = family.base
        return lambda x, xp, energy: green_decorated(x, xp, energy, base, scales)
    closed_form = _BASE_GREEN.get(family.tag)
    if closed_form is None:
        raise FamilyError(f"no closed-form Green function for family {family.tag!r}")
    return lambda x, xp, energy: closed_form(x, xp, energy, scales)


def green(x, xp, energy, family) -> GreenEval:
    """G(x, x'; E) of a model.PotentialFamily by its closed form
    (_closed_form; model.FamilyError for a family without one)."""
    return _closed_form(family)(x, xp, energy)

"""Scalar special functions from the standard library alone (no external
libraries).

Everything the closed-form resolvents need: Gamma and its reciprocal,
the Kummer confluent hypergeometric series M(a,b,z), the parabolic
cylinder function D_nu(z), Airy Ai/Bi with derivatives, and physicists'
Hermite polynomials.

Design notes:
  * rgamma is the primary primitive.  It is entire, exactly zero at
    non-positive integers, and lets characteristic functions stay
    pole-free by construction.  gamma() is derived from it.  Gamma
    itself is the standard library's math.gamma; rgamma adds the
    reflection, with an exact argument, and the range past -170.
  * D_nu is evaluated through the even/odd Kummer fundamental system of
    Weber's equation.  This representation is entire in z and avoids the
    connection formulas an asymptotic approach would need for z < 0.
    Its z-odd term changes sign exactly with z, so pcf_d_pair(nu, z)
    returns D_nu(z), D_nu(-z) and 1/Gamma(-nu) from one pair of Kummer
    series and one pair of rgamma values, the two values bit for bit
    what two pcf_d calls give.
  * One Kummer loop (_kummer_sums) sums a pair of series at one
    argument in one pass, each with, alongside, its term-by-term
    derivative when the caller reads it; each series stops on its own
    and does the operations of a loop over it alone, in the same order.
    The Weber pair M(-nu/2, 1/2, w) and M((1-nu)/2, 3/2, w) is its one
    program use, with its denominators (b+n)(n+1) from a table (the
    same products of the same floats): weber_even_odd and pcf_d_slope
    take E' and O' from the derivative sums, so their values cost one
    pass, while pcf_d and pcf_d_pair (the decorated oscillator's
    condition, the oscillator Green builds) skip those sums.  kummer_m,
    which no program path calls, runs its series as both members of a
    pair, without the derivative sums, and reads the first.  The loop
    checks no argument: kummer_m and weber_even_odd check theirs, and
    the D_nu evaluator's domain implies the loop's.
  * One evaluator (_pcf) is behind the three entry points pcf_d,
    pcf_d_pair and pcf_d_slope, one tuple shape each.  It checks the
    domain and chooses the route (_pcf_takes_integral), both once and in
    that one place, and sums the Kummer pair once: D_nu(z), D_nu(-z),
    1/Gamma(-nu) by Legendre's duplication of the pair's two rgamma
    values, and D_nu' from the derivative sums only when pcf_d_slope
    asks for it.  pcf_d_pair and pcf_d_slope return plain tuples with
    one joint estimate, as weber_even_odd does.
  * Where a series cancels, D_nu(z) comes from the trapezoid rule on an
    integral whose terms are all positive (Trefethen and Weideman, SIAM
    Rev. 56, 2014): for z >= 6, or z > 0 and strongly negative nu.  The
    evaluator's one fallback takes D at +|z| from the integral and D at
    -|z| from the Kummer form; there D_nu' is (z/2) D_nu - D_(nu+1),
    with D_(nu+1) from the integral too, and 1/Gamma(-nu) is the Kummer
    side's duplication, as on the Kummer route.
  * Ai, Ai', Bi and Bi' come from one route on their whole domain
    |x| <= 25: a table of correctly rounded values at the anchors m/16,
    and a short Taylor step of Airy's equation w'' = x w from the
    nearest one, within 1 eps of 40-digit references.  _airy returns
    the four values as floats, which is all the scans and Green
    functions read; airy_all is its projection that adds the estimates,
    as pcf_d is of _pcf.
  * Functions returning EvalResult report est_abs_error, an upper bound
    on the absolute error built from truncation plus rounding terms.
  * The hot loop (the Kummer series) is written for the interpreter:
    constants bound to locals, abs() spelled as a comparison.  It does
    the same floating-point operations in the same order as the plain
    series, so every value and estimate is bit-identical to it;
    tests/test_specfun.py pins it against a verbatim copy of the plain
    loop, and rgamma against its plain formula.  Reordering a sum,
    fusing a product or changing a stopping test changes the last bits
    and fails those tests.
  * A non-finite argument raises DomainError at once in rgamma, gamma,
    kummer_m, _airy (so airy_all) and hermite_h.  The D_nu evaluator and
    weber_even_odd share one check, _pcf_check, which also bounds
    |z| <= 20 and |nu| <= 60 and names the public function called: no
    public entry point reaches the Kummer loop's ConvergenceError.

All functions are pure and hold no mutable state.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

__all__ = [
    "EvalResult",
    "ConvergenceError",
    "DomainError",
    "PoleError",
    "gamma",
    "rgamma",
    "kummer_m",
    "pcf_d",
    "pcf_d_pair",
    "pcf_d_slope",
    "weber_even_odd",
    "airy_ai",
    "airy_ai_prime",
    "airy_bi",
    "airy_all",
    "hermite_h",
]

_EPS = 2.220446049250313e-16
_SQRT_PI = 1.7724538509055160273
_SQRT2 = math.sqrt(2.0)


@dataclass(slots=True)
class EvalResult:
    """A value together with a claimed upper bound on its absolute error.

    Slotted, not frozen: a frozen __init__ sets each field through
    object.__setattr__, which costs more than the arithmetic behind most
    values.  Instances compare by value and are not hashable."""

    value: float
    est_abs_error: float


class ConvergenceError(ArithmeticError):
    """A series failed to converge within its term budget."""


class DomainError(ValueError):
    """Argument outside the documented validity window."""


class PoleError(ValueError):
    """Evaluation requested at (or too close to) a pole."""


# ----------------------------------------------------------------------
# Gamma / reciprocal Gamma
# ----------------------------------------------------------------------

def _sinpi(x):
    # sin(pi x) with exact zeros at integers (r below is computed exactly)
    n = round(x)
    r = x - n
    s = math.sin(math.pi * r)
    return -s if (n & 1) else s


def rgamma(x: float) -> float:
    """Reciprocal Gamma 1/Gamma(x), entire; exactly 0 at 0, -1, -2, ....

    Gamma is the standard library's math.gamma.  Below x = 0.5 the
    reflection 1/Gamma(x) = Gamma(1 - x) sin(pi x)/pi takes Gamma(1 - x)
    as (-x) Gamma(-x) from x = -1 on, so its argument is exact and no
    rounding of 1 - x enters: within 4 eps of 40-digit references on
    [-171.09, 171.6].  Below x = -170, where Gamma(1 - x) may exceed the
    float range, sin(pi x)/pi comes first and multiplies Gamma(-x - 7)
    and then the eight factors -x, -x - 1, ..., -x - 7: the float 1/Gamma
    where one exists (to about x = -171.1, and next to the integers down
    to -176), +-inf elsewhere.  Above x = 171.6, where Gamma(x)
    overflows, OverflowError: 1/Gamma there is not 0.0, and a 0.0 would
    read as a zero of every characteristic function built on it."""
    if not math.isfinite(x):
        raise DomainError(f"rgamma argument must be finite, got {x}")
    if x >= 0.5:
        try:
            return 1.0 / math.gamma(x)
        except OverflowError:
            raise OverflowError(
                f"rgamma({x!r}) underflows: Gamma(x) exceeds the float range") from None
    if x > -1.0:
        return math.gamma(1.0 - x) * _sinpi(x) / math.pi
    if x > -170.0:
        return -x * math.gamma(-x) * _sinpi(x) / math.pi
    s = _sinpi(x) / math.pi
    if not s:  # an integer
        return 0.0
    try:
        r = s * math.gamma(-x - 7.0)
    except OverflowError:  # x < -178.6, off the integers by an ulp or more: |1/Gamma| > 1e312
        return math.copysign(math.inf, s)
    for k in range(8):
        r *= -x - k
    return r


def gamma(x: float) -> float:
    """Gamma(x).  Raises PoleError at non-positive integers (tol 1e-12)."""
    if not math.isfinite(x):
        raise DomainError(f"gamma argument must be finite, got {x}")
    if x <= 0.5 and abs(x - round(x)) <= 1e-12 and round(x) <= 0:
        raise PoleError(f"gamma pole at x = {round(x)}")
    return 1.0 / rgamma(x)


# ----------------------------------------------------------------------
# Kummer confluent hypergeometric M(a, b, z)
# ----------------------------------------------------------------------

_KUMMER_MAX_TERMS = 10000


def _kummer_rows(b1, b2, start):
    """(n, n + 1, (b1 + n)(n + 1), (b2 + n)(n + 1)) for the terms start,
    start + 1, ... below _KUMMER_MAX_TERMS: the values of the counter and
    the denominators of two Kummer series' term ratios, with n a float
    (a + n, b + n and n + 1.0 round as with an int n)."""
    for k in range(start, _KUMMER_MAX_TERMS):
        n = float(k)
        n1 = n + 1.0
        yield n, n1, (b1 + n) * n1, (b2 + n) * n1


# the rows of the Weber pair, b = 1/2 and 3/2: at most 352 terms on the
# D_nu domain (nu = -60, z = 20), so a pass of the pair reads only these
_WEBER_ROWS = tuple(itertools.islice(_kummer_rows(0.5, 1.5, 0), 400))


def _kummer_sums(a1, b1, a2, b2, z, slope=True):
    """(M1, S1, est1, est_S1, M2, S2, est2, est_S2): the two series
    M(a1,b1,z) and M(a2,b2,z) at one argument, summed in one pass, each
    with compensated (Kahan) summation, and with slope S = z M'(a,b,z) =
    sum n t_n, the term-by-term derivative of the same series times z,
    alongside; without it S and est_S are 0.0, and the loop does not sum
    them.

    Each series stops on its own, when two of its consecutive terms are
    below eps * |its partial sum|, and does the operations of a loop over
    it alone, in the same order.  est combines the last-term magnitude
    with a rounding bound eps * sum(|terms|), which also tracks
    cancellation for z < 0; est_S does the same for the terms n t_n,
    with n times both parts, and n eps more for their plain sum.  The
    denominators (b + n)(n + 1) of the Weber pair come from _WEBER_ROWS,
    the same products of the same floats, while it lasts.  The one
    Kummer loop of the module: kummer_m reads it without slope, and the
    D_nu evaluator _pcf and weber_even_odd read it through _weber_sums,
    with slope only for pcf_d_slope and weber_even_odd.  It checks no
    argument; its callers do.
    """
    eps = _EPS
    term1 = total1 = abs1 = term2 = total2 = abs2 = 1.0
    comp1 = comp2 = 0.0  # Kahan compensations
    d1 = d2 = 0.0  # sums n t_n
    small1 = small2 = False  # the previous term was already below eps * |partial sum|
    k1 = k2 = 0.0  # the terms a series had summed when it stopped; 0.0 while it runs
    # the rows from the table while it lasts, then from the generator: a
    # generator made for every pass, even one the table covers, cost
    # about 0.5 us of a 6-7 us pass
    table = _WEBER_ROWS if b1 == 0.5 and b2 == 1.5 else ()
    for rows in (table, None):
        if rows is None:
            rows = _kummer_rows(b1, b2, len(table))
        for n, n1, q1, q2 in rows:
            if not k1:
                term1 *= (a1 + n) * z / q1
                y = term1 - comp1
                t = total1 + y
                comp1 = (t - total1) - y
                total1 = t
                mag = term1 if term1 >= 0.0 else -term1
                abs1 += mag
                if slope:
                    d1 += n1 * term1
                if mag <= eps * (t if t >= 0.0 else -t):
                    if small1:
                        k1 = n1
                        if k2:
                            break
                    small1 = True
                else:
                    small1 = False
            if not k2:
                term2 *= (a2 + n) * z / q2
                y = term2 - comp2
                t = total2 + y
                comp2 = (t - total2) - y
                total2 = t
                mag = term2 if term2 >= 0.0 else -term2
                abs2 += mag
                if slope:
                    d2 += n1 * term2
                if mag <= eps * (t if t >= 0.0 else -t):
                    if small2:
                        k2 = n1
                        if k1:
                            break
                    small2 = True
                else:
                    small2 = False
        else:
            continue
        break
    else:
        a, b = (a2, b2) if k1 else (a1, b1)
        raise ConvergenceError(
            f"kummer_m({a}, {b}, {z}) did not converge in {_KUMMER_MAX_TERMS} terms"
        )
    mag1, mag2 = abs(term1), abs(term2)  # and sum n |t_n| <= n abs_sum
    est1, est2 = 2.0 * mag1 + 16.0 * _EPS * abs1, 2.0 * mag2 + 16.0 * _EPS * abs2
    if not slope:
        return total1, 0.0, est1, 0.0, total2, 0.0, est2, 0.0
    return (total1, d1, est1, k1 * (2.0 * mag1 + (16.0 + k1) * _EPS * abs1),
            total2, d2, est2, k2 * (2.0 * mag2 + (16.0 + k2) * _EPS * abs2))


def kummer_m(a: float, b: float, z: float) -> EvalResult:
    """M(a,b,z) by direct series with compensated (Kahan) summation.

    Stops when two consecutive terms are below eps * |partial sum|.
    est_abs_error combines the last-term magnitude with a rounding bound
    eps * sum(|terms|), which also tracks cancellation for z < 0.
    The domain is |z| <= 200 and b not a non-positive integer;
    non-finite arguments raise DomainError.  No program path calls it:
    it runs its series as both members of _kummer_sums' pair and reads
    the first.
    """
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(z)):
        raise DomainError(f"kummer_m arguments must be finite, got a = {a}, b = {b}, z = {z}")
    if b <= 0.5 and abs(b - round(b)) <= 1e-12 and round(b) <= 0:
        raise PoleError(f"kummer_m requires b not a non-positive integer, got b = {b}")
    if abs(z) > 200.0:
        raise DomainError(f"kummer_m series restricted to |z| <= 200, got z = {z}")
    m, _, est, _, _, _, _, _ = _kummer_sums(a, b, a, b, z, False)
    return EvalResult(m, est)


# ----------------------------------------------------------------------
# Weber / parabolic cylinder functions
# ----------------------------------------------------------------------


def weber_even_odd(nu: float, z: float):
    """Even/odd fundamental pair of Weber's equation y'' + (nu + 1/2 - z^2/4) y = 0.

    Returns (E, E', O, O', est) where
        E(z) = exp(-z^2/4) M(-nu/2, 1/2, z^2/2)
        O(z) = z exp(-z^2/4) M((1-nu)/2, 3/2, z^2/2)
    and est bounds the absolute error of the four values jointly.  E'
    and O' come from the term-by-term derivatives of the same two series
    (DLMF 13.3.15), so the four values cost two Kummer series, summed in
    one pass.
    These two solutions are independent for every nu, which makes them
    the safe basis for continuing piecewise-parabolic problems.
    The domain is the D_nu evaluator's, on which the series converge:
    _pcf_check checks it, under this function's name.
    """
    _pcf_check(nu, z, "weber_even_odd")
    g = math.exp(-0.25 * z * z)
    m1, e1, m2, e2, ep, op, est_p = _weber_sums(nu, z)
    est = g * (e1 + abs(z) * e2 + est_p)
    return g * m1, g * ep, z * g * m2, g * op, est


def _weber_sums(nu, z, slope=True):
    """(M1, e1, M2, e2, E'/g, O'/g, est') at w = z^2/2, g = exp(-z^2/4):
    the two Kummer series of weber_even_odd with their estimates, and the
    slopes of E and O over g with a joint estimate est', from the series'
    term-by-term derivatives S = w dM/dw (dw/dz = z):
        E'/g = 2 S1 / z - z M1 / 2,    O'/g = (1 - w) M2 + 2 S2.
    est' counts the series' estimates and, since the two parts of each
    slope may cancel, 4 eps of their magnitudes.  Without slope the last
    three are 0.0, and the derivative sums go unread.  Both series come
    from one pass of the Kummer loop; the callers have checked that
    |z| <= 20."""
    w = 0.5 * z * z
    m1, s1, e1, es1, m2, s2, e2, es2 = _kummer_sums(-0.5 * nu, 0.5, 0.5 * (1.0 - nu), 1.5, w,
                                                    slope)
    if not slope:
        return m1, e1, m2, e2, 0.0, 0.0, 0.0
    # z = 0: S1 = 0, and E' = 0 exactly
    zm1p, ezm1p = (2.0 * s1 / z, 2.0 * es1 / abs(z)) if z else (0.0, 0.0)
    hz = 0.5 * z * m1
    w2 = (1.0 - w) * m2
    est = (ezm1p + 0.5 * abs(z) * e1 + abs(1.0 - w) * e2 + 2.0 * es2
           + 4.0 * _EPS * (abs(zm1p) + abs(hz) + abs(w2) + abs(2.0 * s2)))
    return m1, e1, m2, e2, zm1p - hz, w2 + 2.0 * s2, est


# relative error bound of 1/Gamma(-nu) for |nu| <= 60, Legendre's
# duplication of two rgamma values on [-30, 30.5]: within 25 eps there
# against 40-digit references, most of it from rounding (1 - nu)/2 where
# 1 - nu crosses 32
_RGAMMA_REL = 64.0 * _EPS

_PCF_CUT = 6.0    # D_nu(z) from the integral for every nu at z >= this
_PCF_LOW = -4.0   # one integral below this order, two and a recurrence above


def _pcf_laplace(nu, z):
    """D_nu(z) / rgamma(-nu), D_(nu+1)(z) / rgamma(-nu-1) and a bound on
    their relative error, for nu < -3 and z > 0, from DLMF 12.5.1,
        D_nu(z) = e^(-z^2/4) / Gamma(-nu) int_0^inf t^(-nu-1) e^(-t^2/2 - z t) dt,
    by the trapezoid rule in s = ln t.  e^(2s) limits the strip of
    analyticity to |Im s| < pi/4, where a step of at most 0.1 keeps the
    rule's error below 1e-21.  The nodes are centred on the peak t0, at
    most 0.45 peak widths apart, and stop below 1e-18 of the peak; a
    weight 1/t more gives order nu + 1.  exp's argument is summed
    exactly, so the bound counts one rounding for it, rgamma (at most
    6 eps here), the sums and each node's exponent, about |nu| h.
    """
    # imported here, as only this route needs it: at import, fractions
    # (with decimal) added about 3 ms to every cold start
    from fractions import Fraction

    t0 = -2.0 * nu / (z + math.sqrt(z * z - 4.0 * nu))  # root of t^2 + z t + nu
    a, b = t0 * t0, z * t0
    h = min(0.1, 0.45 / math.sqrt(2.0 * a + b))  # 2a + b: the peak's curvature in s
    w0, w1 = [1.0], [1.0]
    for step in (h, -h):
        k = 1
        while True:
            x = k * step
            e = math.expm1(x)  # t / t0 - 1
            w = math.exp(-nu * x - (0.5 * a) * (e * (e + 2.0)) - b * e)
            w0.append(w)
            w1.append(w / (1.0 + e))
            if max(w, w1[-1]) < 1e-18:
                break
            k += 1
    q = Fraction(t0) * (Fraction(t0) / 2 + Fraction(z)) + Fraction(z) ** 2 / 4
    hi = float(q)
    pref = h * t0 ** -nu * math.exp(-hi) * (1.0 - float(q - Fraction(hi)))
    return pref * math.fsum(w0), pref * math.fsum(w1) / t0, (12.0 + abs(nu) * h) * _EPS


def _pcf_integral(nu, z):
    """D_nu(z) for z > 0 from _pcf_laplace: one integral below _PCF_LOW;
    above it, the integrals at nu0 = nu - m in [_PCF_LOW - 1, _PCF_LOW)
    and nu0 + 1, recurred upward by D_(v+1) = z D_v - v D_(v-1), which is
    stable for z > 0, where D dominates.  The estimate carries every
    rounding to the result through the recurrence's sensitivities
    (y_m = al y_j + be y_(j-1), run backward), so it holds where the
    terms cancel, beyond the turning point nu = z^2/4 - 1/2.
    """
    if nu < _PCF_LOW:
        i0, _, rel = _pcf_laplace(nu, z)
        d = rgamma(-nu) * i0
        return EvalResult(d, abs(d) * rel)
    m = int(nu - _PCF_LOW) + 1
    nu0 = nu - m  # may round, by up to 2 eps of an order: 8 eps of the value
    i0, i1, rel = _pcf_laplace(nu0, z)
    ys = [rgamma(-nu0) * i0, rgamma(-nu0 - 1.0) * i1]
    for j in range(1, m):
        ys.append(z * ys[j] - (nu0 + j) * ys[j - 1])
    al, be, est = 1.0, 0.0, 0.0
    for j in range(m - 1, 0, -1):  # step j formed ys[j + 1] with three roundings
        v = nu0 + j
        est += abs(al) * (0.5 * _EPS) * (abs(z * ys[j]) + abs(v * ys[j - 1]) + abs(ys[j + 1]))
        al, be = z * al + be, -v * al
    est += (rel + 8.0 * _EPS) * (abs(al * ys[1]) + abs(be * ys[0]))
    return EvalResult(ys[-1], est)


def _pcf_check(nu, z, name):
    """DomainError unless D_nu(z)'s arguments are finite and in its domain."""
    if not (math.isfinite(nu) and math.isfinite(z)):
        raise DomainError(f"{name} arguments must be finite, got nu = {nu}, z = {z}")
    if abs(z) > 20.0:
        raise DomainError(f"{name} restricted to |z| <= 20, got z = {z}")
    if abs(nu) > 60.0:
        raise DomainError(f"{name} restricted to |nu| <= 60, got nu = {nu}")


def _pcf_takes_integral(nu, z):
    """True when D_nu(z) takes the integral route: z >= 6, or z > 0
    with the two Kummer terms cancelling for negative non-integer nu.
    Only the evaluator _pcf reads it."""
    if z >= _PCF_CUT:
        return True
    if z > 0.0 and nu < 1.0 and not (nu >= 0.0 and nu == math.floor(nu)):
        return 0.5 * z * z + z * math.sqrt(max(0.0, -2.0 * nu)) > 10.0
    return False


def _pcf(nu, z, pair=False, slope=False):
    """The one evaluator of D_nu; pcf_d, pcf_d_pair and pcf_d_slope
    return its tuple, which is
        (D(z), est)                         by default,
        (D(z), D(-z), 1/Gamma(-nu), est)    with pair,
        (D(z), D'(z), est)                  with slope,
    where an est that follows several values bounds their errors jointly.

    It checks the domain, with pcf_d_pair's DomainError messages for a
    pair and pcf_d's otherwise, and chooses the route, both once: at |z|
    with pair, else at z.  The Kummer form
        D_nu(z) = 2^(nu/2) e^(-z^2/4) sqrt(pi) [ rgamma((1-nu)/2) M(-nu/2, 1/2, z^2/2)
                  - sqrt(2) z rgamma(-nu/2) M((1-nu)/2, 3/2, z^2/2) ]
                = pref (t1 - t2)
    sums the two series once (_weber_sums).  Negating z leaves pref, t1
    and est unchanged bit for bit and negates t2 exactly, so D(-z) =
    pref (t1 + t2).  D'(z) comes from the series' term-by-term
    derivatives, weber_even_odd's E' and O', and 1/Gamma(-nu) from
    Legendre's duplication (DLMF 5.5.5) as 2^(nu+1) sqrt(pi)
    rgamma((1-nu)/2) rgamma(-nu/2), exactly 0.0 at nu = 0, 1, 2, ....
    On the integral route D at +|z| is _pcf_integral's and D at -|z| the
    Kummer form's, whose two rgamma values give 1/Gamma(-nu) as above.
    The slope there is (z/2) D_nu(z) - D_(nu+1)(z) (DLMF 12.8.3), with
    D_(nu+1) from _pcf_integral too: the evaluator never calls itself,
    so nu + 1 meets no second domain check and no second choice of
    route.
    """
    _pcf_check(nu, z, "pcf_d_pair" if pair else "pcf_d")
    far = _pcf_takes_integral(nu, abs(z) if pair else z)
    if far:  # D at +|z| from the integral
        i = _pcf_integral(nu, abs(z))
        hi = i.value, i.est_abs_error
        if not pair:  # z > 0, and D(z) is all there is to sum
            if not slope:
                return hi
            i1 = _pcf_integral(nu + 1.0, z)
            return (i.value, 0.5 * z * i.value - i1.value,
                    (1.0 + 0.5 * abs(z)) * i.est_abs_error + i1.est_abs_error)
    m1, e1, m2, e2, ep, op, est_p = _weber_sums(nu, z, slope)
    r1 = rgamma(0.5 * (1.0 - nu))
    r2 = rgamma(-0.5 * nu)
    pref = 2.0 ** (0.5 * nu) * math.exp(-0.25 * z * z) * _SQRT_PI
    t1 = r1 * m1
    t2 = _SQRT2 * z * r2 * m2
    # 0.5 z^2 eps: the rounding of z^2 in exp's argument and in the
    # series argument w, as airy_all counts (4 + 2 zeta) eps
    rnd = (16.0 + 0.5 * z * z) * _EPS
    est = pref * (abs(r1) * e1 + _SQRT2 * abs(z) * abs(r2) * e2 + rnd * (abs(t1) + abs(t2)))
    d = pref * (t1 - t2)
    if slope:
        u1, u2 = r1 * ep, _SQRT2 * r2 * op
        est += pref * ((abs(r1) + _SQRT2 * abs(r2)) * est_p + rnd * (abs(u1) + abs(u2)))
        return d, pref * (u1 - u2), est
    if not pair:
        return d, est
    plus, minus = (d, est), (pref * (t1 + t2), est)
    if far:  # the Kummer form keeps only the -|z| side
        plus, minus = (hi, minus) if z > 0.0 else (plus, hi)
    g = 2.0 ** (nu + 1.0) * _SQRT_PI * r1 * r2
    return plus[0], minus[0], g, plus[1] + minus[1] + _RGAMMA_REL * abs(g)


def pcf_d(nu: float, z: float) -> EvalResult:
    """Parabolic cylinder D_nu(z).

    Two routes, chosen from (nu, z) alone by the one evaluator _pcf: the
    two-term Kummer form, which is entire in z, and, where its terms
    cancel (z >= 6, or z > 0 with strongly negative nu), the integral
    route (_pcf_integral).
    Against 40-digit references, in eps = 2.2e-16 of the value: Kummer
    with |nu| <= 10, 50 eps for z < -6 and up to 1e5 eps on [0, 6), as
    the terms cancel.  Kummer with larger orders, in eps of the local
    amplitude sqrt(D^2 + D'^2 / (nu + 1/2 - z^2/4)) where D oscillates:
    up to 2.6e5 eps for nu in [10, 30] and 5.2e12 eps for nu in [30, 60],
    within est_abs_error.  The integral, at most 10 eps
    below the turning point nu = z^2/4 - 1/2 (its estimate, about 1 eps
    more per recurrence step, stays below 100 eps up to 0.8 of it for
    nu <= 50), and hundreds of eps beyond, where the recurrence cancels,
    more near a zero of D.
    est_abs_error bounds the error on every route.  The domain is
    _pcf_check's: finite nu and z, |z| <= 20 and |nu| <= 60.
    """
    return EvalResult(*_pcf(nu, z))


def pcf_d_pair(nu: float, z: float):
    """(D_nu(z), D_nu(-z), 1/Gamma(-nu), est), with est bounding the three
    errors jointly.

    The two values are pcf_d(nu, z).value and pcf_d(nu, -z).value bit
    for bit, and est is the sum of their two estimates plus 64 eps of
    |1/Gamma(-nu)|.  When neither sign takes the integral route, all
    three come from one Kummer pair: the two series, the two rgamma
    values and the prefactor are shared, only the sign of the z-odd term
    differs.  Otherwise the Kummer pair gives the negative side and the
    integral the positive.  On both routes 1/Gamma(-nu) is Legendre's
    duplication of the Kummer pair's two rgamma values, so it is exactly
    0.0 at nu = 0, 1, 2, ....  The domain is pcf_d's, with pcf_d_pair's DomainError messages.
    """
    return _pcf(nu, z, pair=True)


def pcf_d_slope(nu: float, z: float):
    """(D_nu(z), D_nu'(z), est), with est bounding both errors jointly.

    The value is pcf_d(nu, z).value bit for bit.  On the Kummer route
    the slope comes from the term-by-term derivatives of the two series
    the value sums, so both cost one Kummer pair and one pair of rgamma
    values; on the integral route it is (z/2) D_nu(z) - D_(nu+1)(z) with
    both values from the integral, for every nu up to 60.  Against
    30-digit references at 1,500 random points with nu in [-1/2, 12] and
    z in [0.5, 2.2] the slope is within 39 eps of |D| + |D'|, as the
    two-call form is.  The domain is pcf_d's, with pcf_d's DomainError
    messages.
    """
    return _pcf(nu, z, slope=True)


# ----------------------------------------------------------------------
# Airy functions
# ----------------------------------------------------------------------

_AIRY_DOMAIN = 25.0
# est_abs_error per unit of the scale: |value| for x >= 0, |Ai| + |Bi| (or
# |Ai'| + |Bi'|) for x < 0.  Three parts: the anchors' rounding, half an
# eps of |w(x0)| + |h w'(x0)|, which is at most 1.36 scales on the domain
# (0.7 eps); the omitted Taylor terms, below 1e-18 of the scale (0.01 eps);
# and the rounding of the step, half an eps of the value plus at most
# 6 eps of the correction to the anchor, itself at most 0.17 scales
# (1.6 eps).  Their sum, 2.3 eps, is rounded up; the largest error seen
# against 40-digit references is 1 eps.
_AIRY_REL = 3.0 * _EPS


def _airy(x):
    """(Ai, Ai', Bi, Bi') at x as four floats, |x| <= 25: airy_all's
    values without their estimates, for the scans and Green functions
    that read only the values.

    One route: (Ai, Ai', Bi, Bi') at the anchor x0 = m/16 nearest x, from
    _AIRY_ANCHORS (40-digit values rounded to double), and a Taylor step of
    w'' = x w (DLMF 9.2.1) over h = x - x0, |h| <= 1/32.  The step is the
    same for Ai and Bi: w(x) = p w(x0) + q w'(x0) and w'(x) = p' w(x0) +
    q' w'(x0), where p and q are the solutions with (w, w') = (1, 0) and
    (0, 1) at x0.  Their Taylor series in h, up to h^11, are grouped below
    in powers of c = x0 h^2 and d = h^3, |c| <= 0.025 and |d| <= 3.1e-5,
    keeping every term above 1e-18 of the value.
    """
    if not -_AIRY_DOMAIN <= x <= _AIRY_DOMAIN:
        raise DomainError(f"airy functions restricted to |x| <= {_AIRY_DOMAIN}, got {x}")
    m = round(16.0 * x)
    a0, a1, b0, b1 = _AIRY_ANCHORS[m + 400]
    x0 = 0.0625 * m
    h = x - x0  # exact: x0 = 0, or x lies within [x0/2, 2 x0] (Sterbenz)
    e = x0 * h
    f = h * h
    c = e * h
    d = f * h
    # the pure-c parts, cosh(sqrt(c)) - 1 and sinh(sqrt(c)) / sqrt(c) - 1
    ch = c * (1 / 2 + c * (1 / 24 + c * (1 / 720 + c * (1 / 40320 + c * (1 / 3628800)))))
    sh = c * (1 / 6 + c * (1 / 120 + c * (1 / 5040 + c * (1 / 362880 + c * (1 / 39916800)))))
    # pm = p - 1, q, pd = p' and qdm = q' - 1, so that each value is its
    # anchor plus a small correction
    pm = ch + d * (1 / 6 + c * (1 / 30 + c * (1 / 560 + c * (1 / 22680 + c * (1 / 1596672))))
                  + d * (1 / 180 + c * (1 / 1440 + c * (1 / 36288)) + d * (1 / 12960)))
    q = h + h * (sh + d * (1 / 12 + c * (1 / 120 + c * (1 / 3360 + c * (1 / 181440)))
                           + d * (1 / 504 + c * (13 / 90720))))
    pd = (e + e * (sh + d * (1 / 6 + c * (1 / 80 + c * (1 / 2520 + c * (1 / 145152)))
                             + d * (1 / 180 + c * (5 / 18144))))
          + f * (1 / 2 + d * (1 / 30 + d * (1 / 1440))))
    qdm = ch + d * (1 / 3 + c * (1 / 20 + c * (1 / 420 + c * (1 / 18144 + c * (1 / 1330560))))
                   + d * (1 / 72 + c * (13 / 10080 + c * (1 / 22680)) + d * (1 / 4536)))
    return (a0 + (pm * a0 + q * a1), a1 + (pd * a0 + qdm * a1),
            b0 + (pm * b0 + q * b1), b1 + (pd * b0 + qdm * b1))


def airy_all(x: float):
    """(Ai, Ai', Bi, Bi') at x, each an EvalResult; the domain is |x| <= 25.

    The values are _airy's, one Taylor step from the nearest of the
    anchors m/16, and this adds their estimates.  Against 40-digit
    references the error is at most 1 eps = 2.2e-16 of the value (x >= 0)
    or of the amplitude sqrt(Ai^2 + Bi^2) (x < 0, sqrt(Ai'^2 + Bi'^2) for
    the derivatives).  est_abs_error is 3 eps of the value for x >= 0 and
    of |Ai| + |Bi| (at most 4.3 eps of the amplitude) for x < 0.  A call
    takes 1.9-2.2 us, and one of _airy 1.3 us, on a shared 2-CPU VM with
    Python 3.11.
    """
    ai, aip, bi, bip = _airy(x)
    r = _AIRY_REL
    if x >= 0.0:  # Ai > 0, Ai' < 0, Bi > 0 and Bi' > 0
        return (EvalResult(ai, r * ai), EvalResult(aip, -r * aip),
                EvalResult(bi, r * bi), EvalResult(bip, r * bip))
    est = r * ((ai if ai >= 0.0 else -ai) + (bi if bi >= 0.0 else -bi))
    estp = r * ((aip if aip >= 0.0 else -aip) + (bip if bip >= 0.0 else -bip))
    return EvalResult(ai, est), EvalResult(aip, estp), EvalResult(bi, est), EvalResult(bip, estp)


def airy_ai(x: float) -> EvalResult:
    return airy_all(x)[0]


def airy_ai_prime(x: float) -> EvalResult:
    return airy_all(x)[1]


def airy_bi(x: float) -> EvalResult:
    return airy_all(x)[2]


# ----------------------------------------------------------------------
# Hermite polynomials
# ----------------------------------------------------------------------


def hermite_h(n: int, x: float) -> float:
    """Physicists' Hermite H_n(x) by the three-term recurrence."""
    if n < 0 or n != int(n):
        raise ValueError(f"hermite_h order must be a non-negative integer, got {n}")
    if n > 2000:
        raise ValueError(f"hermite_h order limited to 2000, got {n}")
    if not math.isfinite(x):
        raise DomainError(f"hermite_h argument must be finite, got {x}")
    if n == 0:
        return 1.0
    hm, h = 1.0, 2.0 * x
    for k in range(1, n):
        hm, h = h, 2.0 * x * h - 2.0 * k * hm
    return h


# ----------------------------------------------------------------------
# Airy anchor table
# ----------------------------------------------------------------------

# Ai, Ai', Bi and Bi' at x0 = m/16 for m = -400..400, one line per anchor:
# mpmath 1.3 airyai and airybi at 40 digits, each rounded to the nearest
# double and written by repr.  Compiling and parsing this string takes
# 2.8 ms on a shared 2-CPU VM, compiling the same 3,204 floats as a tuple
# literal 18.6 ms, paid on every import that does not reuse bytecode.
_AIRY_TEXT = """\
0.16352657883042948 0.9623788513876974 -0.19214681569037803 0.8157197157546059
0.21478885248806628 0.6647832760045833 -0.1326906590613726 1.0712816447052276
0.2452990611859102 0.3037657143674258 -0.06041071390595759 1.2228305361974647
0.25216720112333285 -0.085602524260096 0.017694919739605523 1.2562900923524896
0.23479088817356328 -0.46578720215822395 0.09410246592148884 1.1690324271150152
0.19489618597887715 -0.8004135515128358 0.16148822140107297 0.9700165470921849
0.1363551044826573 -1.0577328840606774 0.21342796448380277 0.6788166099268444
0.06479997184635876 -1.2136046940144816 0.24500352163321087 0.3236492498696334
-0.012926044703241093 -1.253717418758719 0.2532598321256829 -0.06139721733392834
-0.08942799082705387 -1.1748482254476658 0.23747091758531266 -0.43965652923248716
-0.1574638842515178 -0.9850568159768399 0.1991919181509697 -0.7753811618583916
-0.2106279452892475 -0.7028109291002568 0.1420949487674848 -1.0371083614763477
-0.2439481045874334 -0.3551420764423215 0.07160697355535509 -1.200580088141741
-0.2543426329733181 0.024980393359997223 -0.005613732418920694 -1.2509489629020472
-0.2408948039540123 0.40179872316315446 -0.08231135371848983 -1.1840740633505882
-0.20492217078447555 0.7401370153019026 -0.1513158027680813 -1.0067991119028377
-0.14983659008188654 1.008674407677197 -0.20621104602689683 -0.7362025618430733
-0.08081068915486483 1.1828179095733595 -0.2419264209124988 -0.3979050675818721
-0.004284231752419081 1.2469142454541566 -0.2551969825918229 -0.023605910925154346
0.07264182642857382 1.1956059729800126 -0.24485189055732148 0.35191162715525104
0.14286614454870405 1.0342197410078398 -0.21190637940197052 0.6940211459753786
0.19994103858821913 0.7781658190581106 -0.15945135550904904 0.9714378443546303
0.23865970295622432 0.4514193499721281 -0.09235337606203305 1.1590552647460333
0.2555236165538766 0.08423675474215674 -0.01679497347031445 1.2401794260604249
0.24904892692121108 -0.289672064320504 0.06030056022881532 1.2079654473588683
0.21988594772496844 -0.6362494027184172 0.1319059499189319 1.0659380772528102
0.17074332621804528 -0.9241865341391723 0.1915295299098569 0.8275630847828798
0.10612631002251655 -1.1277308369060295 0.233799568362848 0.5149232388659639
0.03191523509369011 -1.2289538610066593 0.2549411549353975 0.15663270164741164
-0.04517561756098869 -1.2192841745604464 0.25310400795124016 -0.2148100080296884
-0.1182085006765732 -1.1001786481923999 0.22851364572868219 -0.5659834271610156
-0.18064628151524006 -0.8828855549397387 0.18343467524745738 -0.8655481852227193
-0.22693405337408287 -0.5873350900449398 0.12195196890032856 -1.0870259966754336
-0.25298689196895097 -0.24027022551668856 0.049591687461584245 -1.211108124492262
-0.256541555058069 0.12720358088512548 -0.02718196398774458 -1.2272952931847285
-0.23734269338518557 0.48242297047873545 -0.10154788388283005 -1.1347341287566957
-0.19714928563329476 0.7940715345527182 -0.1669345957653037 -0.9421889354446047
-0.1395631370606575 1.0349267872059538 -0.21759821181724798 -0.6671651976806531
-0.06969694461368435 1.1842098715452014 -0.24912129196657118 -0.3342756723988215
0.0062867401046043285 1.229338036489198 -0.2587898243372388 0.02699517823884431
0.08172350090403664 1.1669360550027303 -0.245816934556388 0.3849228431443899
0.1500329278555025 1.0030302722450777 -0.21139584749941676 0.7083341852618129
0.20529078953443314 0.7524216959208585 -0.15857980426524457 0.9693128531046984
0.24273795947225643 0.437306004279382 -0.09200172880722955 1.1455850513734274
0.2591828462141316 0.0852723666775369 -0.017460132367712867 1.2223842125436866
0.2532639988301794 -0.2731358224150973 0.05859111740637941 1.1936420278489115
0.22555217110960943 -0.6070809174597335 0.12960385967126345 1.0624143184673087
0.17848528175945444 -0.8880795172492515 0.18949860582122813 0.8405177969175691
0.11614415376051412 -1.0924127512708337 0.23318112230442142 0.5474219128919457
0.043890408336506315 -1.2030963800973196 0.256969114502121 0.20850283869115
-0.03210070513033193 -1.2112501896434733 0.2588938886365439 -0.14718101848723514
-0.10537136914810179 -1.116760369607326 0.2388530909345918 -0.4893949892341569
-0.16973024150251542 -0.928190603171932 0.19860365753542233 -0.7892985735358761
-0.21977282318328994 -0.6619620016404898 0.14159780929783092 -1.0218620922287245
-0.25132969529500226 -0.3408832877898279 0.0726781192706568 -1.167928563283723
-0.2618059696815432 0.007834323354594594 -0.0023407341696274017 -1.215753592259885
-0.25038504298749525 0.3549025322392533 -0.07716687687531382 -1.1619031340872723
-0.21808155035851592 0.6714216384897639 -0.14556036829548408 -1.0114450527385013
-0.1676412493544878 0.9312787537332884 -0.20185197508993108 -0.7774305601114152
-0.10329833362151337 1.1132805338301173 -0.24140863456222345 -0.47972073594843034
-0.030412319317302046 1.2028483758724788 -0.2610078087188674 -0.14326652731768402
0.044983774504560446 1.1931436329821477 -0.25909111151073533 0.20400636059472557
0.1166854621341713 1.0855400367524202 -0.23587805486640878 0.5335267367192318
0.17882709017100595 0.8894158341642718 -0.1933325889959247 0.8184264483132069
0.22635849367898897 0.6212944499089271 -0.13498730557827748 1.0357155970136587
0.2554495805883994 0.3034151359937503 -0.06564172129253994 1.168109940535567
0.26379095722278323 -0.03814014017816834 0.009038965122345336 1.2053678493551356
0.2507677111164243 -0.3756038363491388 0.08299062291673036 1.1450369290245341
0.217494143657597 -0.6817845239425816 0.1502437155967424 0.9925602705429929
0.1667086909328839 -0.9322488719249772 0.20540338955862686 0.7607450293593415
0.10253954418046082 -1.1072498707603267 0.24407770140999174 0.4686473226127009
0.030161677807461058 -1.1932511941879078 0.2632204029761847 0.13997318135901415
-0.04462568039701191 -1.1839330197051474 0.2613621378692303 -0.198868028021686
-0.11586626798106779 -1.080608383183809 0.23871327453077132 -0.5208963885713734
-0.17792089166946154 -0.8920275156857123 0.1971321143367525 -0.8007076326639043
-0.22591074186041185 -0.6335966286860141 0.13996300609147033 -1.0164624997130998
-0.25609535403377043 -0.3260833705967098 0.07175910722225484 -1.1515649541649173
-0.2661564284664144 0.0060798603378321185 -0.002086636367419766 -1.1959027311875203
-0.255366640257441 0.3367542854152394 -0.07577192908911573 -1.1465607412686307
-0.2246319637039466 0.6401567875951886 -0.143542355617476 -1.0079610630403042
-0.1764061270779847 0.8928628567364713 -0.20013930932265134 -0.7914290338395364
-0.11448580037569639 1.075595722844399 -0.2412039080381506 -0.5142296614200881
-0.04370422419327217 1.1746668563744438 -0.2636062378891062 -0.19815877210408622
0.03045147333492435 1.1829628809028339 -0.2656756087649584 0.13219401929444682
0.10226859828262423 1.1004111965636265 -0.247315592091771 0.45137060971222964
0.1662492316449474 0.9338981738026179 -0.20999677609203207 0.7350065878678506
0.21752866882225913 0.6966563284543308 -0.15662968413631198 0.9616793346782062
0.2522403413653863 0.4071771379166363 -0.09132942001184034 1.1145030680423915
0.26780027210258395 0.08774108834375714 -0.019091642257576626 1.1823541560575812
0.26309073216297785 -0.23731636273751028 0.054594158063568425 1.1606406529602464
0.2385307843813475 -0.5434668077727194 0.12416383874687972 1.0515664120661468
0.19603017006597936 -0.8078361065037463 0.18439812635520592 0.8638793798190201
0.13883184372969787 -1.0108982583019708 0.2308109336068407 0.6121327292104852
0.07125671510787997 -1.1378919435220956 0.2599778704160741 0.31552341290599617
-0.001628785067691639 -1.1798592280460376 0.26978136010624865 -0.0035971029807862387
-0.07439633738408868 -1.1342363211695603 0.25955543832377603 -0.32142282161584584
-0.14166127688042265 -1.0049611250051396 0.2301210900945883 -0.6144737539560741
-0.19847969726187187 -0.8020988951926692 0.18371126394273973 -0.8613237862576635
-0.24070797236257 -0.5410228861858372 0.12379286437481683 -1.0441495183713236
-0.2652988784803921 -0.24121878134049923 0.054800465486994895 -1.1499897264159546
-0.2705136510354112 0.07519223977744811 -0.018197320515210794 -1.1716288168200988
-0.2560358565651782 0.3850985113462602 -0.08987336780977168 -1.1080470908899909
-0.22298039146009274 0.6660879985795554 -0.15503144438594677 -0.964413508594745
-0.1737986674995243 0.8980600702394518 -0.20898103057955986 -0.7516304299810336
-0.11208853977554048 1.0646439622797084 -0.2478706907204329 -0.48547203836493563
-0.04232423856659806 1.1543255502690974 -0.2689566585315995 -0.18538652062028124
0.030472980494741782 1.1612072891531564 -0.27078841669671133 0.12694534090601
0.10109891371193062 1.0853542100263318 -0.2532993616447524 0.4291871794914823
0.16453866596149277 0.9327095318847866 -0.21779766221377045 0.6999444777420092
0.2163204847479363 0.7145944797675119 -0.16685962514526897 0.9202684590452513
0.2528264086237015 0.4468360754038776 -0.10413475305332498 1.0749617624826429
0.2715385177955879 0.14859196402738659 -0.03407774229287588 1.1535976924006135
0.2712045408044142 -0.15903891520496802 0.038372488508384 1.1511870941086417
0.2519125643783131 -0.4545180457477244 0.10814333279586523 1.068453217349486
0.21507116508789917 -0.7173741962575261 0.1703835910807935 0.9117033164189977
0.16329795528451752 -0.9296103657959194 0.2207983141768601 0.6923141467248742
0.10022584316251074 -1.0769151914817956 0.2559404963870955 0.4258749656007053
0.030241818574613548 -1.1495990296401577 0.27344017895154965 0.13105434736603797
-0.0418225682958514 -1.1431958474089916 0.27215624541994543 -0.17172538335000084
-0.11102693876706848 -1.0586964791645583 0.25224181402196894 -0.4617110617468963
-0.17266059066222628 -0.9024049204808416 0.21512024557869533 -0.7192395068395728
-0.22256063583960448 -0.6854353045868844 0.16337495592234766 -0.9270593729700866
-0.2573884983956791 -0.4228912582318079 0.1005620254612356 -1.071466232660454
-0.27484677183633266 -0.13278988333851202 0.03095964987425442 -1.1431779088745788
-0.2738228440779012 0.16519163120307423 -0.04072754743677224 -1.1378964280247055
-0.25445091985612195 0.4510587157286817 -0.10968865797261648 -1.056525404351733
-0.21808972619212252 0.7058395553534439 -0.1713291972796754 -0.9050355796355322
-0.1672188855577094 0.9128332039191409 -0.22157478410566814 -0.693994973796615
-0.10526230029095239 1.05868457664466 -0.25713592100234317 -0.4378020657909875
-0.03635156245795677 1.134218741913227 -0.2757170158616793 -0.15367920802712937
0.034953905521945536 1.134984557457097 -0.27615683577667877 0.1395020690315502
0.10397077947533327 1.0614781255788623 -0.25849238220196263 0.42248290403610717
0.16619946375590444 0.9190383354869608 -0.22394338156260235 0.6768814471892582
0.2176152542513578 0.7174284385123922 -0.17481984401631864 0.8863770103514224
0.25492437769916054 0.47013774418303944 -0.11436010864363151 1.037738662222956
0.27576894077697334 0.1934548634446835 -0.04651114989132592 1.1216349352520578
0.27886848056055086 -0.09462257996353214 0.024333598432695693 1.1331771080227104
0.26409016897374393 -0.3755679497310714 0.09362123941772492 1.0721669433766194
0.23244448549495014 -0.6315176111234788 0.15693236128310475 0.9430395210777321
0.1860080163098794 -0.8463984916904401 0.21026110570709172 0.7545115863089279
0.12777965111007092 -1.0069208125942979 0.25026476454497215 0.5189643697440041
0.061480542726352415 -1.103376017126569 0.2744676425229915 0.25160597582075295
-0.00868847568216131 -1.130193830557153 0.2814071614371965 -0.0305287673665187
-0.07831594473410465 -1.0862287979767855 0.2707140956210404 -0.30967435283219036
-0.1430579316690997 -0.9747644416212727 0.2431231514282272 -0.5684556059761354
-0.19890773289199404 -0.8032411875106087 0.2004145507450636 -0.7909630367882649
-0.24244050303719686 -0.5827312940618159 0.1452915673252206 -0.9637166241329246
-0.27101812456747043 -0.32719913407625023 0.08120283169092703 -1.0764608102708295
-0.28294242931812935 -0.052597459312517254 0.012121437368142165 -1.1227454650070607
-0.2775483414050037 0.2241409530380034 -0.057704731596554336 -1.1002619979750723
-0.25523239573657386 0.4861520339216192 -0.12401559688195997 -1.0109196788166532
-0.21741614579955304 0.7176645548216791 -0.1827981274262516 -0.8606635388280254
-0.16644795409041976 0.9049379354302122 -0.23052653075471222 -0.6590509566800734
-0.10545031783137196 1.0370589244159465 -0.26436922153762904 -0.41861823231189127
-0.03812300859981223 1.106552387561807 -0.2823507360068609 -0.1540803137345825
0.03148527580114004 1.109773871323532 -0.2834597530273257 0.11858427811859845
0.09922245968139584 1.0470656050576836 -0.2676978248138535 0.3831058148982243
0.16108086140973818 0.922672263523789 -0.2360670913763699 0.6238936628507672
0.2134324365751087 0.744427229253097 -0.19049892560284462 0.8269469329675307
0.25323783534126104 0.5232334179791698 -0.13372891115950636 0.9806530314891956
0.2782174908708289 0.272374204308642 -0.06912659453101005 1.0764297530843747
0.2869754724698564 0.006698993766169584 -0.0004909087439894136 1.1091770138042356
0.27906982784081585 -0.25826591355372275 0.06817608672275816 1.0775164380555797
0.2550264126744897 -0.5072275883826078 0.13290354762148618 0.983810020323234
0.2162965620970072 -0.7260045767491228 0.189980528250653 0.8339621833642471
0.1651621989427006 -0.9023229333421765 0.23616593029973545 0.6370219812630998
0.10459491408036176 -1.026486435308276 0.26886804212962506 0.4046132493337205
0.038078033827974776 -1.091885713505261 0.28628402662413405 0.1502295925777627
-0.030597418939551424 -1.0953212728805393 0.2874922435175278 -0.11156222286703331
-0.09755074928585314 -1.0371267049565933 0.2724931532666271 -0.36596295030528203
-0.15903099006564492 -0.9210901341913798 0.2421975697259996 -0.5987769688457387
-0.21162530584838368 -0.7541834016942179 0.1983640310634243 -0.7971968465031676
-0.2524449594250075 -0.5461190336351003 0.14348987305059396 -0.950493667702868
-0.2792789446169609 -0.3087641053578444 0.08066306352735282 -1.0505769704220154
-0.29070744236240487 -0.055447240339104004 0.01338386379338205 -1.0923964838694544
-0.2861696864493858 0.19980015163331996 -0.05463317467187659 -1.0741674752979409
-0.2659834827840778 0.44302487700284365 -0.11966555279762452 -0.9974118189493335
-0.23131635656994218 0.6611117573124166 -0.17818601334815126 -0.8668172918851659
-0.1841109519000852 0.8424812482432097 -0.22705155463512183 -0.6899275013697496
-0.12696973497383562 0.9776885360618123 -0.2636683053359542 -0.4766837289725366
-0.06300613014882547 1.0598942297551086 -0.2861238678500409 -0.23884738863936766
0.004329154032642147 1.085184631993097 -0.2932807162226541 0.01066260952830203
0.07143674673329575 1.0527283579681337 -0.28482649969402046 0.2584797558605385
0.13476178213129494 0.9647652656573428 -0.26127952195496057 0.49150788692863334
0.1909812432962203 0.8264327514252542 -0.2239501035800228 0.6976087473340818
0.23717569956386467 0.6454429660972612 -0.17486085953090488 0.866223541162259
0.2709767416137181 0.43163198636938904 -0.11663101495067632 0.9888974527206676
0.2906829317234308 0.1964080759359097 -0.05233163776035136 1.0596822045051497
0.29533893076636697 -0.0478693793274135 0.014679995167144154 1.0753989089838574
0.28477452949359217 -0.2885460471525839 0.08093781592136814 1.0357513358341037
0.25960248319121537 -0.513328975240845 0.14304672088232506 0.9432878165550228
0.22117620872326682 -0.7109092110621256 0.19785535470408028 0.8032179097932408
0.17151043937053703 -0.8715196778799533 0.2426132290926272 0.6230972488192877
0.11316974481532338 -0.9874015903817993 0.27510452529126916 0.4124003324927726
0.04913132588840485 -1.0531582300405267 0.2937523305392592 0.18200611363706565
-0.01737037946942287 -1.0659813183932318 0.2976887337067319 -0.05637512744040449
-0.08300903494603806 -1.0257421605284418 0.2867880582495154 -0.2908030880839461
-0.1445331773065443 -0.9349468059404089 0.2616624408045243 -0.509705967113571
-0.19892607766088666 -0.7985613241040215 0.2236208706133202 -0.702446402666887
-0.24355093099061217 -0.6237195803372367 0.17459459331746963 -0.859827629723739
-0.27627456138116024 -0.41933133041950515 0.11703336725739277 -0.974516536167174
-0.2955640859137745 -0.19561279340875257 0.05377836977328476 -1.0413651851370802
-0.30055246823813847 0.03643505960787021 -0.012081469531515085 -1.0576179892470547
-0.2910705310652406 0.26557354707954406 -0.07736231799449801 -1.0229977589760029
-0.2676446988271423 0.48087136842700445 -0.13893984952273794 -0.9396699868028352
-0.23146142170933465 0.6722214843464823 -0.19389774000173504 -0.8120906637497572
-0.184300809086593 0.8308057829195956 -0.23966327836725396 -0.6467483737784536
-0.12844340152333567 0.949486861423619 -0.27412394660902084 -0.45181612903946927
-0.06655517505437313 1.0231104533679707 -0.2957199120780731 -0.23673219783112331
-0.0015567526610190691 1.0487068559400483 -0.3035086694846895 -0.01173189448265443
0.06351663537913861 1.0255849052345403 -0.29719949799641165 0.2126461377364456
0.12565766289141767 0.9553173406584021 -0.27715688759536244 0.42605523729413486
0.182025201205215 0.8416215389424537 -0.24437356536846733 0.6188144788508536
0.230072104547912 0.6901443453293268 -0.20041514752272635 0.7823395441890905
0.26765687613304223 0.50816387804821 -0.14733969439838873 0.9095121306237761
0.29313451844141547 0.30422456393875885 -0.08759650089184441 0.9949728215160653
0.30542297004359265 0.08772415432178444 -0.023909272355945758 1.0353264046930835
0.3040427559341719 -0.13152700485050742 0.04085061199389458 1.0292530291682966
0.28912876725663844 -0.34375364274261744 0.10379477447589802 0.977523118995566
0.26141437782708193 -0.5396498081130379 0.1621464890698276 0.8829184010059613
0.22218934004342605 -0.7107806717487215 0.21336162112130938 0.7500655511430827
0.17323402790314218 -0.8499350229497675 0.2552366959126656 0.5851926461140584
0.11673356373967578 -0.951414418539629 0.2859996715162079 0.39582167737733737
0.05517614093763359 -1.011248276122704 0.3043798972772646 0.19041273269956407
-0.008759589255702381 -1.0273278736645794 0.3096547674267819 -0.022022995314464465
-0.07232287809169109 -0.99945604485042 0.30167167885271534 -0.23232348653171273
-0.13280971697775165 -0.9293131662266486 0.2808450213221621 -0.4315716613529363
-0.18767703426082816 -0.8203436501435671 0.24812901735938084 -0.6114697135354938
-0.23464750093159514 -0.6775704364209276 0.20496824118248996 -0.7646766526000572
-0.271800753951313 -0.5073477878015221 0.15322854080189832 -0.8850958707163298
-0.29764756329340547 -0.31706493929762836 0.09511183090017851 -0.9681021947721871
-0.3111843068669215 -0.11481475933638201 0.03305879096468486 -1.0107008679898861
-0.3119260350510506 0.09095748739068167 -0.030356123264021012 -1.0116140816303776
-0.29991736099761873 0.2918099363895797 -0.09253277409032987 -0.9712939000715369
-0.27572136203261394 0.4796495511791449 -0.15095198729841214 -0.8918635517164613
-0.24038758158175175 0.6470532756244967 -0.2032764097037254 -0.7769919652204974
-0.19540104411200782 0.7875525617336525 -0.24744162717013837 -0.6317090033339253
-0.14261490687943626 0.8958709259767106 -0.28173412671940035 -0.4621709935004385
-0.08416994729082596 0.9681065275134574 -0.3048533406525686 -0.27538780657264145
-0.022404505834880926 1.0018543256876211 -0.3159557514912916 -0.07892384859496186
0.04024123848644319 0.99626504413279 -0.3146798296438386 0.11941411339990923
0.10132269348577748 0.9520408293029129 -0.30115138620193166 0.3118893668457179
0.15848608645287116 0.8713700334948772 -0.2759697174310532 0.4911355059894717
0.20955783666105318 0.7578058787587224 -0.2401756639763604 0.6504331131657343
0.25262476259634337 0.6160957851685245 -0.19520337877088728 0.783952868424224
0.28610229672273507 0.4519698083976883 -0.1428181697996314 0.8869568271577518
0.30878844965638774 0.2718978797161256 -0.08504323913109711 0.9559515911567631
0.3199018989901822 0.08282634818684902 -0.02407846549669808 0.9887892376233248
0.3191032477191282 -0.10809531881187123 0.0377854324894665 0.9847140700021197
0.3064991753340058 -0.29378690480710073 0.09825396254429176 0.9443554238847468
0.2826298643946763 -0.46749860922494063 0.1551138440532301 0.869668817001354
0.24844070213531397 -0.6230516042843365 0.20631280480826877 0.7638296001121461
0.2052398087603554 -0.7550497682678933 0.250031393210197 0.6310848829135725
0.15464341360591513 -0.8590558230479031 0.2847444137261112 0.4765708268689861
0.09851147347120924 -0.9317267327798924 0.309270069187772 0.3061033807566544
0.03887619482366323 -0.9709049628475656 0.3228054198253257 0.12595116532108788
-0.022133721547341403 -0.9756639809263316 0.3249473234552449 -0.05740051384366925
-0.082370248847655 -0.9463081357080488 0.3156985818413546 -0.23748562168366477
-0.13974181198134736 -0.8843287090116182 0.2954595637821759 -0.40808481563681925
-0.19228503138482728 -0.792319446782347 0.2650060865495465 -0.5634365270902105
-0.2382300384596355 -0.6738561861206686 0.22545479688945758 -0.6984248404822483
-0.27605729157814385 -0.5333462716349202 0.17821768674395405 -0.8087384547721853
-0.30454420433149104 -0.3758542688656525 0.12494769623549155 -0.8909963063141897
-0.3228003226932906 -0.2069110204373603 0.06747758977821469 -0.9428368183984239
-0.33029023763020887 -0.03231334828463914 0.007754436447658404 -0.9629691651201748
-0.3268438770501258 0.14207831034610097 -0.052227917619092665 -0.9511863422422188
-0.31265426922423056 0.3105373179407039 -0.1104960263459127 -0.9083411757782452
-0.2882632936309054 0.4676567922518399 -0.1651614216165099 -0.8362876261850015
-0.25453632099656065 0.6085182968874139 -0.21448052514923605 -0.737790825172636
-0.21262698074819175 0.7288383303262403 -0.25690807152500106 -0.6164101838110176
-0.16393357215918072 0.8250886689394814 -0.2911425137589935 -0.47636061366893556
-0.11004884876167582 0.8945876931153042 -0.3161622144023711 -0.32235739447100364
-0.0527050503563862 0.9355609381983065 -0.33125158075113786 -0.1594504978129814
0.006283867982788337 0.9471702228365889 -0.3360166689155274 0.007145759647597804
0.06508085382051565 0.9295117784036155 -0.33039014530277616 0.17222199769058671
0.12188332420476551 0.8835848002682173 -0.31462584340018634 0.33073657489103386
0.17497790079676515 0.8112327355065283 -0.28928347775979935 0.47796698213339683
0.22279070197542383 0.7150603883947443 -0.2552043664546195 0.6096455174403935
0.2639317934127417 0.5983305468642598 -0.2134792604188344 0.7220756585970718
0.297232645440834 0.46484429836489827 -0.16540957730773473 0.8122263519179912
0.3217757163806479 0.3188095066985546 -0.1124634850764908 0.8778022815457609
0.33691556572232406 0.16470206263662046 -0.05622837458567936 0.9172890431709345
0.34229118967198247 0.007124506212073179 0.0016386987270722866 0.9299729899799608
0.33782955465366543 -0.1493335420122044 0.05946103489794627 0.9159363204560048
0.32374057321118616 -0.30022899504735406 0.11559126100955656 0.8760287141075456
0.30050401374594793 -0.4413892181087358 0.16845784656269436 0.8118174727990339
0.2688490542067818 -0.5690230085326955 0.2166078950656714 0.7255186767797362
0.22972737509603253 -0.6798159622084358 0.25874511543693135 0.6199123047776463
0.18428083525050565 -0.7710081684101265 0.293762071854414 0.4982445900581135
0.1338048824933951 -0.8404528171567178 0.32076602213082983 0.3641210868234619
0.0797089195219056 -0.8866549492606484 0.33909787507703965 0.22139400544897161
0.023474873702617787 -0.9087902087159824 0.34834401938805687 0.07404734616145779
-0.03338479058876496 -0.9067040516921281 0.34834099353641845 -0.07391677258832668
-0.0893684241350734 -0.880892410254558 0.3391731717945487 -0.21858742141947166
-0.14302479434826643 -0.8324652889042011 0.32116383040920377 -0.356246939901512
-0.19298992631145898 -0.7630951779517217 0.29486012557689 -0.48346329763993895
-0.2380203019971158 -0.6749524925132022 0.26101265763648396 -0.597170666291622
-0.277021682250584 -0.5706304854550104 0.22055041121791064 -0.6947365866803246
-0.30907297438308345 -0.4530622357717545 0.17455194737862184 -0.7740145870845583
-0.33344473337999414 -0.3254323822157584 0.12421378041164244 -0.8333815829195439
-0.3496120516108905 -0.19108625952341715 0.07081689932751649 -0.8717598503139108
-0.3572617556585408 -0.053439007443546835 0.01569239314397319 -0.8886238038117676
-0.3562939850370929 0.08411293113115002 -0.03981288805197012 -0.8839922106463663
-0.3468183722560251 0.21827571801716522 -0.09436975526142685 -0.8584068316750674
-0.3291451736298231 0.3459354872813429 -0.14669837667055705 -0.812898785105067
-0.3037718128188937 0.4642275211726891 -0.19559752751526469 -0.7489441786144622
-0.2713653923862619 0.5705959034756677 -0.23997077639372438 -0.6684107454699842
-0.2327418014267231 0.6628426540586047 -0.2788491035449649 -0.5734973498097958
-0.18884209899944737 0.7391656870866844 -0.31140956567771105 -0.4666682962707235
-0.14070688373316667 0.7981852682817351 -0.33698974357583406 -0.35058439211167564
-0.08944937021646834 0.8389589649551079 -0.35509782947666974 -0.22803266986538362
-0.036227883790474126 0.8609853786570729 -0.36541832795286067 -0.10185659047611191
0.017781541276574976 0.8641972177713984 -0.367813453915712 0.025111583073630928
0.07141181757847483 0.8489445011630632 -0.3623204119890205 0.1501147167245243
0.1235301274524322 0.8159688803475933 -0.3491448309043951 0.2705297089930565
0.1730613929021522 0.7663702242282208 -0.3286507032253423 0.3839202490285539
0.21900944784501322 0.701566726175189 -0.30134724356074716 0.48808253766570997
0.26047554925585775 0.6232498682460575 -0.2678731268722662 0.5810833131416747
0.296673948516936 0.5333356129133667 -0.22897860233721623 0.6612897557839521
0.32694433006584955 0.4339131909899922 -0.18550599771922552 0.727391072106254
0.35076100902411433 0.32719281855444315 -0.13836913490160058 0.7784117730018992
0.3677388608622706 0.2154536092692279 -0.08853217004319348 0.813716858506342
0.37763603253447076 0.10099285574363498 -0.036988352874753626 0.8330092991563286
0.3803535543904368 -0.013922260957269759 0.015260829675655304 0.8363203584107737
0.37593203432914213 -0.12709960620642027 0.0672256985438391 0.8239934298887289
0.3645456691760933 -0.23646288766926862 0.1179472347588494 0.7966621661326639
0.346493852518331 -0.3400876803965253 0.16651440838727224 0.7552237518237631
0.32219069287633395 -0.43623220442688254 0.2120797087393766 0.7008082241930788
0.2921527810559595 -0.5233625323157477 0.2538726576969326 0.6347447677736637
0.25698556097839464 -0.6001720535672334 0.2912111461052603 0.5585259111744263
0.21736866462324328 -0.6655951646455248 0.3235104905940391 0.47377053224664634
0.1740405695203333 -0.7188152842960839 0.3502901636603399 0.3821865372509633
0.12778292722826728 -0.759267412057374 0.3711782022295195 0.2855340220818127
0.0794048943054211 -0.7866355513617085 0.38591334824398776 0.1855896521108048
0.02972777436684795 -0.8008454063061511 0.39434501833619123 0.08411291469991429
-0.020429748057538777 -0.8020528323228943 0.39643123772383004 -0.01718519215867782
-0.07026553294928951 -0.7906285753685813 0.3922347057069993 -0.1166705674383409
-0.1190068552792467 -0.7671398720919559 0.38191718630791605 -0.21281114159675485
-0.16592204284741868 -0.7323295053221746 0.3657324375975422 -0.304198467012153
-0.21033074123132928 -0.6870929160710089 0.3440179071736193 -0.38956558933582147
-0.2516127030142227 -0.6324539662611763 0.3171854292996667 -0.46780111644962985
-0.28921503505734775 -0.5695399269980653 0.2857111617091935 -0.5379594873778032
-0.3226578726140411 -0.4995562369713892 0.25012499744615113 -0.5992675217269708
-0.3515384819324382 -0.42376153619008433 0.2109996798520212 -0.6511273999245224
-0.37553382314043193 -0.34344343345404815 0.16893983748105862 -0.6931162849072888
-0.3944016322419396 -0.2598954134908422 0.12457114092701296 -0.7249828464912048
-0.40798010467638945 -0.17439523323668546 0.07852976589784318 -0.7466409902160177
-0.4161862829065894 -0.08818509794560782 0.03145232700542121 -0.7581611230493644
-0.4190132668052308 -0.0024538481879481863 -0.016033574738987262 -0.759759309220364
-0.41652637819960175 0.08167867026378907 -0.06331807022264145 -0.7517846810995451
-0.4088584198820103 0.1631749389325967 -0.10981690876701031 -0.734705473079544
-0.39620417484641046 0.2410907411943225 -0.15497843823116733 -0.7090940416021851
-0.37881429367765806 0.3145837692165988 -0.19828962637492653 -0.6756112226852585
-0.3569887171570996 0.3829198997673754 -0.23928109260473612 -0.6349903604589282
-0.3310697775547283 0.44547721652192496 -0.2775311393772879 -0.588021317299664
-0.301435116080671 0.5017478922351978 -0.31266879112208035 -0.5355347491343956
-0.2684905459125971 0.5513380742629775 -0.3443758653395255 -0.4783868993534789
-0.23266298045508213 0.5939659413386043 -0.3723881153703379 -0.417445132459695
-0.19439353537659892 0.6294581183027284 -0.3964954971069448 -0.35357439498279913
-0.15413090085670905 0.657744648818899 -0.41654162257429606 -0.28762475713043373
-0.11232506769296609 0.6788527342647943 -0.4324224718407053 -0.2204201548746296
-0.06942147777681427 0.6928994503271011 -0.44408444116834933 -0.15274841935106603
-0.025855656238569637 0.7000836517722074 -0.4515218097554538 -0.0853526491470231
0.017951630456546463 0.7006772708881709 -0.4547737099684771 -0.0189239517509422
0.06159865877700528 0.6950162067015286 -0.4539206867501173 0.0459044464849105
0.1047064550539225 0.6834909907885968 -0.44908093107613717 0.10856174676568157
0.14692191656424264 0.6665374018521594 -0.44040627009468414 0.16854282692842434
0.1879203485468008 0.6446271857399564 -0.42807799309991573 0.22541025781481117
0.22740742820168558 0.618259020741691 -0.4123025879563985 0.2787951669211695
0.26512061491299604 0.5879498502895947 -0.3933074571916185 0.3283970416211099
0.3008300330020466 0.5542266870425884 -0.37133667689733707 0.3739825736375532
0.33433885924792706 0.5176189741544946 -0.3466468550058926 0.415383653022438
0.36548325221423156 0.4786515716673063 -0.31950313860456897 0.4524946238607341
0.3941318641246153 0.4378384187395713 -0.2901754128773309 0.48526891546126283
0.4201849786833088 0.39567690607822986 -0.25893472716208976 0.5137151621661694
0.44357331990229226 0.35264297770299563 -0.22604997661139392 0.5378929223570356
0.4642565777488694 0.3091869672024104 -0.19178486115704121 0.5579081030218973
0.48222169634925677 0.2657301610624045 -0.15639513699999688 0.573908190640521
0.49748096966523303 0.2226620705422448 -0.12012616975496308 0.5860773824093025
0.5100699880954032 0.18033838398142144 -0.08321079273648474 0.5946317042185009
0.5200454774352992 0.13907956335191776 -0.045867468727426905 0.5998141935575834
0.5274830691559304 0.09917004230038284 -0.00829874895304465 0.6018902168881254
0.5324750381207861 0.0608579778044662 0.029309981087030788 0.6011429821985849
0.5351280407451554 0.024355503825234097 0.06679148279500732 0.5978692986317667
0.5355608832923521 -0.01016056711664521 0.1039973894969446 0.5923756264227924
0.5339023465763499 -0.04254764978322204 0.14079869458803357 0.5849744520496529
0.5302890898699325 -0.07269595502209968 0.1770860240107179 0.5759810156044913
0.5248636533648963 -0.10052677632198848 0.21276971573050527 0.5657104100443996
0.5177725751515836 -0.1259905473379542 0.24777972988945587 0.5544750652575957
0.5091646354267586 -0.14906472132729337 0.28206541393353834 0.5425826238465449
0.4991892375415308 -0.1697515205827155 0.31559514727181076 0.530334210227939
0.48799493259708004 -0.18807560063545997 0.34835588997945466 0.5180230901080408
0.4757280916105396 -0.20408167033954738 0.38035265975105387 0.5059337136238472
0.46253172682493465 -0.2178321050445599 0.4116079607935825 0.4943411324463974
0.44854446153764316 -0.22940458601462507 0.44216118766846035 0.48351077891254196
0.4338996458777838 -0.238889795142801 0.47206802629597394 0.4736985937674001
0.41872461427545293 -0.24638918992017597 0.5013998734692334 0.4651514883371537
0.40314007893150605 -0.2520128796150274 0.5302432953328557 0.4581081268820556
0.38725965240839577 -0.2558776197566349 0.5586995444060677 0.4528000154716043
0.3711894915099578 -0.25810493834829706 0.5868841539112953 0.449452884946361
0.3550280538878172 -0.2588194037928068 0.6149266274460007 0.4482883573538264
0.33886595828902116 -0.2581470413302257 0.6429702414442033 0.44952588764217566
0.32278593902677793 -0.25621390188308174 0.6711719774498976 0.45338497534314204
0.306862885095932 -0.2531447845913245 0.699702601001357 0.4600876444578026
0.2911639543485452 -0.24906211200489714 0.728746903936215 0.4698611937679594
0.27574875327400356 -0.24408495488595364 0.7585041272051257 0.48294122433181164
0.2606695731738953 -0.2383282018506552 0.7891885818599332 0.49957495599676466
0.2459716738664114 -0.23190186764274676 0.8210304867949386 0.520024850397531
0.23169360648083348 -0.2249105326646839 0.8542770431031554 0.5445725641405923
0.21786756739332008 -0.2174529054809479 0.8891937666022844 0.5735232627580491
0.2045197758952865 -0.20962149933407936 0.926066102230106 0.6072103336130787
0.19167086876099904 -0.2015024132569932 0.9652013466535374 0.6460005443424895
0.17933630547864524 -0.19317520810437647 1.0069309086332163 0.6902997027368862
0.1675267785175096 -0.18471286773996695 1.0516129404971293 0.740558884316753
0.15624862361272526 -0.17618183568374288 1.0996353785724138 0.7972813054205341
0.1455042256494758 -0.1676421177223375 1.1514194356847303 0.8610299325653643
0.13529241631288141 -0.1591474412967932 1.2074235949528713 0.9324359333927756
0.12560886023176526 -0.15074546288448962 1.2681481611908778 1.0122080909289581
0.11644642687889935 -0.1424780150682703 1.3341404344066539 1.1011433214740025
0.10779554599312605 -0.13438138551830886 1.4060005793011017 1.200138457538992
0.09964454475691667 -0.12648662068538938 1.484388275495106 1.310203481283301
0.09197996539437946 -0.11881984760381299 1.5700302456408144 1.4324764213427648
0.08478686224821742 -0.11140260781540812 1.6637287728382513 1.5682401573349445
0.07804907774916074 -0.1042521980419742 1.7663713351452321 1.7189414123218925
0.07174949700810541 -0.09738201284230132 1.878941503747895 1.8862122548481655
0.06587028104028317 -0.09080188508350874 2.002531272911263 2.071894479716994
0.06039307887343547 -0.08451842062805838 2.1383550145726677 2.278067291424942
0.055299218999719825 -0.07853532418194946 2.2877652788619334 2.507078777312626
0.05056988080579487 -0.07285371376202839 2.4522706944960597 2.76158173036392
0.046186246759297965 -0.0674724217178971 2.6335562605594682 3.0445744657787293
0.04212963624499835 -0.062388280684420545 2.833506364407095 3.359447372795003
0.03838162203263807 -0.05759639324305435 3.054230910204398 3.7100360558883607
0.03492413042327438 -0.05309038443365363 3.2980949999782148 4.10068204993289
0.03173952616423258 -0.0488626365832761 3.5677526751968007 4.536302245081721
0.028810683246957205 -0.04490450620551885 3.866185303225041 5.022468332427292
0.026121042709440493 -0.04120652297436821 4.196745281140742 5.565497784908574
0.023654658557747447 -0.037758570992018514 4.563205831248325 6.172558124098831
0.021396232901572738 -0.034550052752551054 4.969817780400258 6.851786497875498
0.019331141368756133 -0.031570036354907176 5.4213743515155945 7.612426912914914
0.017445449825108237 -0.02880738664154174 5.9232851534819755 8.464987836931014
0.01572592338047049 -0.026250881035903232 6.481660738460579 9.421423317334302
0.014160028611212905 -0.023889310924894252 7.103409307593595 10.495341265780793
0.012735929874768289 -0.02171156948415664 7.796347392046592 11.70224314394313
0.011442480534570075 -0.01970672687679245 8.569326621825072 13.05979996889479
0.010269209855011988 -0.017864093772294476 9.432379026465085 14.588170353347971
0.009206306266749575 -0.016173274134236897 10.396883697216929 16.310367226131667
0.008244597643648861 -0.014624208214767233 11.47575808874714 18.252680964677342
0.007375529174661955 -0.013207206673109153 12.683677760262734 20.445167940887977
0.006591139357460719 -0.011912976705951319 14.037328963730232 22.92221496638217
0.005884034586266228 -0.010732641041427944 15.555699195097043 25.723191860167
0.005247362754352638 -0.009657750606906436 17.26041165024268 28.893206395430322
0.004674786242468701 -0.008680291635346296 19.176110490910077 32.4839782643996
0.004160454618117256 -0.007792687926790721 21.330904950747563 36.554851492504234
0.0036989773274008005 -0.0069877989316613435 23.756881625660334 41.173968007913075
0.0032853966210555307 -0.006258914271870555 26.49069582868779 46.41962891556075
0.0029151609193795096 -0.005599745265136625 29.574254686179 52.381874537278584
0.002584098786989635 -0.005004413967952583 33.05550675461148 59.164319581360985
0.0022883936576555877 -0.004467440203974828 36.989355399617956 66.88628603753125
0.002024559421764238 -0.003983726997611719 41.438716063929895 75.68528372460406
0.0017894169641472883 -0.0035485447876611375 46.47574093371968 85.71989704693824
0.0015800717179210132 -0.003157514753239784 52.183238481470354 97.17314667763289
0.0013938922804879919 -0.0028065915441606998 58.65632002232298 110.25640686075886
0.0012284901207749034 -0.0024920456704780876 66.0043108931915 125.21397314330406
0.0010817003919596935 -0.002210445771201223 74.35297029574814 142.32839200361573
0.0009515638512048018 -0.001958640950204179 83.84707140846814 161.9266835046134
0.0008363098770896709 -0.00173374333810562 94.65340227399122 184.38761132279782
0.0007343405663568322 -0.001533111012308941 106.96425844874582 210.15018194918898
0.0006442158840871146 -0.0013543313833951898 121.00151074986059 239.72358731244918
0.0005646398353425014 -0.0011952051345449142 137.0213459913343 273.69884347417764
0.0004944476215084953 -0.0010537307815085396 155.31979577269985 312.7624235074207
0.0004325937408881984 -0.0009280899037137931 176.23918865067262 357.7122365216646
0.0003781409904130065 -0.0008166330822502579 200.17568496007135 409.4763686268833
0.00033025032351430896 -0.0007178665675575089 227.58808183559972 469.13507732796637
0.0002881715181305989 -0.0006304396885145973 259.0081094312358 537.9466206682938
0.0002512346083980899 -0.0005531330051355015 295.0524789038716 617.3776090961211
0.00021884203369266039 -0.0004848471990706926 336.4369895719905 709.138694735316
0.0001904614592681605 -0.0004245926894565621 383.99305814882416 815.226563360096
0.00016561922369100174 -0.0003714799562050829 438.68709871688196 937.9733735169573
0.0001438943695320532 -0.0003247105484552747 501.64326010732503 1080.105000431086
0.00012491321528066695 -0.00028356875249273717 574.1701199020941 1244.8096961972483
0.00010834442813607442 -0.0002474138908684625 657.7920441711711 1435.8190802179824
9.389455915930529e-05 -0.0002156732226062671 754.2860526175689 1657.5037344256564
8.130400419149274e-05 -0.00018783541318072308 865.7251840062854 1914.9861079204238
7.0343355925156e-05 -0.0001634445422839088 994.5295413606572 2214.273948971065
6.081011452242365e-05 -0.00014209461719726815 1143.5264161199163 2562.418095312227
5.252572618169495e-05 -0.00012342455976989387 1316.0211520936932 2967.69918610058
4.5332921039872516e-05 -0.00010711363550973738 1515.8807218078844 3439.848734535944
3.90933237429291e-05 -9.287729405991743e-05 1747.6323595287924 3990.3110476100865
3.368531190859981e-05 -8.046339130556515e-05 2016.5800386595313 4632.553733139042
2.9002099529931275e-05 -6.964876449097491e-05 2328.9421104694893 5382.436035621626
2.4950024118502626e-05 -6.023613298159355e-05 2692.0140532375876 6258.646041502273
2.1447018054961263e-05 -5.2051298645371305e-05 3114.361036289553 7283.219951327505
1.8421246197730245e-05 -4.494062122298348e-05 3606.0459066549993 8482.15920372264
1.5809893295734476e-05 -3.876874548069002e-05 4178.899286723822 9886.164341762345
1.3558086156625333e-05 -3.341655837149062e-05 4846.839764936104 11531.508242049444
1.161793683836169e-05 -2.8779355851765325e-05 5626.253711073053 13461.075808581987
9.947694360252889e-06 -2.4765200397034955e-05 6536.446104809864 15725.602621930477
8.51099357163864e-06 -2.1293451619982077e-05 7600.175993172089 18385.151516417478
7.276190874883979e-06 -1.8293453707125068e-05 8844.29286461186 21510.87386025353
6.215777477428241e-06 -1.570336465042686e-05 10300.493435386608 25187.11171001602
5.3058617487520814e-06 -1.3469113451450983e-05 12006.22219746056 29513.908333494786
4.525713086094902e-06 -1.154347261489604e-05 14005.743708819124 34610.00824622315
3.857360451522611e-06 -9.885234323287339e-06 16351.420177191128 40616.444375034946
3.285239436565866e-06 -8.458479694297646e-06 19105.23459066851 47700.82983894748
2.7958823432049136e-06 -7.231931466601793e-06 22340.607718396997 56062.49584252286
2.3776463455265214e-06 -6.178381340137675e-06 26144.567025782726 65938.64618289052
2.0204753189083658e-06 -5.27418401359192e-06 30620.337266179515 77611.7339401292
1.7156913969766375e-06 -4.498810717805494e-06 35890.43664270776 91418.30834219292
1.4558127445788758e-06 -3.834455740949934e-06 42100.37948672694 107759.6311400062
1.2343944212050154e-06 -3.2656900823963434e-06 49423.1069889859 127114.4240067702
1.0458895570926929e-06 -2.779156960028487e-06 58064.29239307114 150054.18381526961
8.855283769032405e-07 -2.3633044333096153e-06 68268.69712674689 177261.59398393857
7.492128863997167e-07 -2.008150894738792e-06 80327.79070943025 209552.6708739713
6.334252888542769e-07 -1.7050796284812547e-06 94588.89127669977 247903.41868303102
5.351484226254018e-07 -1.4466590399568004e-06 111466.13684037302 293481.92956282175
4.517967119546733e-07 -1.2264855269881633e-06 131453.66194630592 347687.06407232845
3.8115630183373774e-07 -1.0390462946280257e-06 155141.4326275031 412195.08824343816
3.213332069039203e-07 -8.795997147708723e-07 183234.28743460219 489015.93686535815
2.7070844572326893e-07 -7.440711007630345e-07 216574.84746621535 580561.129565484
2.278992571568507e-07 -6.289620089654405e-07 256171.09811964617 689725.8009199699
1.9172560675134309e-07 -5.312713959720545e-07 303229.6151125334 819987.8353587997
1.611812892360262e-07 -4.4842715417113083e-07 359195.61375353276 975527.743094865
1.3540902010610076e-07 -3.7822672163865917e-07 425801.251490133 1161373.7005098832
1.1367898582217203e-07 -3.187856169113007e-07 505123.9192479317 1383577.139012512
9.537038961641585e-08 -2.6849288679532617e-07 599656.6290060069 1649425.4391610166
7.995558923817106e-08 -2.2597257768636176e-07 712393.0581274937 1967699.7194555295
6.698647510681967e-08 -1.900504494274465e-07 846930.3631884719 2348987.4601574875
5.608278308381904e-08 -1.597252469187995e-07 1007593.549487183 2806061.8436670545
4.6922076160992316e-08 -1.3414392979067865e-07 1199586.00412446 3354342.3127445388
3.9231164444655466e-08 -1.1258033562661904e-07 1429171.8037153687 4012454.054874699
3.277876348133572e-08 -9.441681853806702e-08 1703896.6331595064 4802908.049072352
2.7369217744076425e-08 -7.912846330400763e-08 2032855.6494914833 5752928.125055278
2.2837139444822283e-08 -6.626952666987631e-08 2427018.456122874 6895457.386769016
1.9042833172696307e-08 -5.546180253319408e-08 2899623.5933376676 8270383.592674555
1.5868394548128904e-08 -4.638464733510172e-08 3466657.6936572567 9926031.97218551
1.3214386454939066e-08 -3.876643666160407e-08 4147437.8100225655 11920984.871358175
1.0997009755195506e-08 -3.237725440447602e-08 4965319.541471302 14326301.030662058
9.14569695996416e-09 -2.7022642348085134e-08 5948558.628590242 17228223.782892346
7.60106734778057e-09 -2.2538261188997648e-08 7131359.883301119 20731487.736024644
6.313190689960037e-09 -1.8785334164851736e-08 8555154.918144265 24963358.459139694
5.2401142318917526e-09 -1.5646762027577948e-08 10270159.474439297 30078570.414115336
4.346614045257247e-09 -1.3023813363237896e-08 12337272.618055018 36265366.22612132
3.6031374418485495e-09 -1.0833307519830832e-08 14830394.171910612 43752887.038995855
2.9849079428507135e-09 -9.005218906055985e-09 17839254.098520126 52820221.23445629
2.47116843087249e-09 -7.480641389658946e-09 21472868.891435347 63807489.78090821
2.0445416654261067e-09 -6.210060148941038e-09 25863766.318371486 77129434.10995887
1.6904903942761332e-09 -5.151885787259469e-09 31173152.24073958 93292080.65579088
1.3968619113146252e-09 -4.27121195911402e-09 37597233.1500803 112913189.94812527
1.1535041557283402e-09 -3.538763310465635e-09 45374957.29019727 136747363.5252721
9.519423687813935e-10 -2.930005321650728e-09 54797497.979205124 165716886.51017633
7.851069683090768e-10 -2.4243917605272773e-09 66219877.74204697 200949636.89169484
6.471047058126203e-10 -2.004728995380087e-09 80075224.50309078 243825706.09301445
5.330263704617492e-10 -1.6566394593740667e-09 96892265.58045109 296034763.86800504
4.3878532741194374e-10 -1.3681091687587116e-09 117316806.79757039 359646682.0924166
3.6098204972986816e-10 -1.129106434608386e-09 142138119.18050975 437198529.21231043
2.96790545554458e-10 -9.312608239444128e-10 172321372.51849982 531801788.1402479
2.438632135722847e-10 -7.675930651861793e-10 209047523.5769963 647274570.3605515
2.0025119652757166e-10 -6.322879936660438e-10 253762399.46876135 788304741.7101029
1.643377581429377e-10 -5.205038288935043e-10 308237129.1749259 960651295.3875564
1.3478259537187296e-10 -4.2821209533090966e-10 374642587.8540924 1171393073.4379015
1.1047532552898686e-10 -3.5206336767389237e-10 455641153.54822516 1429236134.4828658
9.049666528540499e-11 -2.8927476161657854e-10 554499864.3207273 1744893799.3238287
7.40860532556578e-11 -2.375357204476379e-10 675230043.3343903 2131556810.3961132
6.06146663391291e-11 -1.9492918260506662e-10 822759676.8121089 2605475282.4803987
4.95629475832072e-11 -1.5986566930908706e-10 1003146343.8098758 3186679409.058685
4.050190477634805e-11 -1.310282164450874e-10 1223840380.4687443 3899872482.2871428
3.307755824002404e-11 -1.0732640115336314e-10 1494010306.3986607 4775538011.776598
2.6998016762469962e-11 -8.785798981935363e-11 1824945461.511222 5851312998.111111
2.2022745192834015e-11 -7.187696781451567e-11 2230554441.1366954 7173692245.283299
1.7953658348241107e-11 -5.876690880207438e-11 2727982454.8666344 8800144626.817112
1.462773566531958e-11 -4.801880815272788e-11 3338376394.7385917 10801742262.669666
1.191090122327491e-11 -3.921264567328551e-11 4087833462.4138427 13266428634.466537
9.692955879668771e-12 -3.200206141053633e-11 5008578025.539807 16303083042.239431
7.883383565198167e-12 -2.6101628139282722e-11 6140422392.857683 20046578091.79202
6.4078833570295245e-12 -2.1276288159126472e-11 7532580970.88268 24664076116.79782
5.2055037024213876e-12 -1.733259265938877e-11 9245924489.045908 30362872123.62762
4.2262758649603595e-12 -1.4111441246628517e-11 11355782530.430477 37400168196.92698
3.4292609642684156e-12 -1.1482069030608234e-11 13955429581.785654 46095261346.6844
2.78093942429444e-12 -9.337070429397264e-12 17160423602.593922 56844748586.41967
2.2538836968378414e-12 -7.588283850612892e-12 21114008448.629757 70141506002.79327
1.8256651743354693e-12 -6.1633907065122294e-12 25993844560.614162 86598390775.52933
1.477954576010222e-12 -5.003106732771782e-12 32020398900.709335 106977856710.88182
1.1957820589032708e-12 -4.0588640703644155e-12 39467408662.49238 132228977710.39519
9.669291007287371e-13 -3.290899683345177e-12 48674938171.95542 163533755936.8969
7.814290183962854e-13 -2.6666799675045312e-12 60065680158.896034 202365072766.38385
6.311569866429884e-13 -2.1596033147054066e-12 74165318174.85431 250559246849.7014
5.09493741351652e-13 -1.7479323215139028e-12 91627975156.7411 310406927537.29974
4.110499054960165e-13 -1.4139155931870757e-12 113268035085.95436 384767015030.0806
3.314401573051557e-13 -1.1430659679714015e-12 140099954396.61234 477209513429.764
2.6709834960155683e-13 -9.235677009310921e-13 173388094971.72995 592194755893.7903
2.1512625264053537e-13 -7.457898931459299e-13 214709133651.72025 735298376644.5874
1.7316988546563788e-13 -6.018873919422331e-13 266030262529.9714 913493849502.5348
1.3931846888753607e-13 -4.854736554985309e-13 329807225829.07416 1135507502443.3708
1.1202191507726807e-13 -3.9135278332364717e-13 409107288306.8258 1412264824412.2737
9.00234963792115e-14 -3.153001568607542e-13 507763554541.5234 1757451822602.2712
7.230493585242108e-14 -2.538829904197118e-13 630568731114.9961 2188221442946.684
5.804165630527138e-14 -2.0431362735386225e-13 783518537257.4086 2726082986080.586
4.6566331514768585e-14 -1.643296845399417e-13 974117641440.2605 3398022483496.185
3.7339218112834395e-14 -1.320961953232973e-13 1211764380856.2625 4237914713859.429
2.9924021871720004e-14 -1.0612576505094754e-13 1508234797128.5637 5288303662537.233
2.39682782607805e-14 -8.521346564673856e-14 1878291935622.0518 6602648681364.295
1.9187412810281518e-14 -6.838378257279581e-14 2340453213325.3525 8248159566210.243
1.5351799144281722e-14 -5.484741071218808e-14 2917957350517.0225 10309376735057.615
1.2276257433868283e-14 -4.396609323744603e-14 3639983379377.2207 12892694568841.84
9.81153834601054e-15 -3.522402435158488e-14 4543188218537.464 16132079206983.049
7.8374213420319e-15 -2.8204605288830982e-14 5673647038839.674 20196299777362.242
6.257124727786701e-15 -2.2571563393301136e-14 7089303164878.25 25298078154085.812
4.992780906047559e-15 -1.8053624934319113e-14 8863062862733.344 31705671943058.492
3.981776078833335e-15 -1.4432080573972625e-14 11086706719059.404 39757544969908.34
3.1737910433069397e-15 -1.1530703862292328e-14 13875835541429.367 49880957364081.73
2.5284102402718406e-15 -9.207582572774937e-15 17376127512082.414 62615533982414.2
2.0131910986079714e-15 -7.348504042819952e-15 21771258164738.49 78643158939261.42
1.6021059979114322e-15 -5.861602193750886e-15 27292930044821.07 98825912745837.42
1.2742856865825536e-15 -4.67302824406575e-15 34233580304512.113 124254239212201.14
1.013006433442558e-15 -3.723451494534015e-15 42962489197534.64 156308130279320.2
8.048741227346858e-16 -2.9652327609826937e-15 53946209714509.445 196734884791023.38
6.391673876741867e-16 -2.3601425439243113e-15 67774490265707.91 247747978649419.03
5.073090949792486e-16 -1.8775200716509977e-15 85193183520505.52 312152838818456.7
4.0244135139979087e-16 -1.4927889342457807e-15 107146044657438.22 393506919257017.8
3.190839558838621e-16 -1.1862609591984093e-15 134827846239199.81 496323531964307.9
2.528600739926815e-16 -9.42172935868171e-16 169751906600367.16 626331517950465.4
2.0027603280282163e-16 -7.479113250789847e-16 213835984944496.94 790806214392672.8
1.5854466202904445e-16 -5.933886408626431e-16 269511591816644.38 998991495468762.5
1.2544365224827277e-16 -4.705421309545272e-16 339863165695500.2 1262638205486873.0
9.920205491192377e-17 -3.729310110017901e-16 428805361786534.1 1596691411588002.8
7.840938534327587e-17 -2.954130693656338e-16 541308999063280.0 2020168027102791.2
6.19428693288267e-17 -2.3388515456323126e-16 683689159403350.0 2557278072196352.5
4.8909245140411623e-17 -1.8507504855945917e-16 863972712523199.1 3238857888825285.0
3.859823558340153e-17 -1.4637464885881663e-16 1092367389430577.6 4104202970334508.0
3.0445371181486317e-17 -1.1570633857862032e-16 1381860750574026.2 5203412938046238.0
2.4002302012031185e-17 -9.141600418781165e-17 1748985386038447.5 6600393192697435.0
1.891310317377444e-17 -7.218743672815587e-17 2214796950833679.8 8376698946445526.0
1.489537454965927e-17 -5.697388206185781e-17 2806124832005040.5 1.0636460360636524e+16
1.1725173300539014e-17 -4.494333606751804e-17 3557172208856946.0 1.3512695811823434e+16
9.225008615136942e-18 -3.543484990878679e-17 4511564090764260.0 1.7175408325766094e+16
7.254281720473398e-18 -2.792364947479693e-17 5724970003186775.0 2.1841973701393028e+16
5.701677353184336e-18 -2.1993306911334813e-17 7268464155485100.0 2.7790475227377892e+16
4.479111721210528e-18 -1.7313551126520616e-17 9232832507875386.0 3.537682879525586e+16
3.5169212192738e-18 -1.362258468905724e-17 1.173409618952238e+16 4.505678609576544e+16
2.7600396475624593e-18 -1.0712999921242697e-17 1.492059812443448e+16 5.741421859348277e+16
2.1649625207379925e-18 -8.420567954017772e-18 1.8982099567493588e+16 7.319749203407011e+16
1.6973377394858485e-18 -6.615319722876791e-18 2.416146210403923e+16 9.33662674827487e+16
1.3300544376108114e-18 -5.194454334541288e-18 3.076965702431496e+16 1.1915174552266074e+17
1.0417278290892181e-18 -4.07670356459001e-18 3.9205058863536856e+16 1.5213425094288774e+17
8.154986594314402e-19 -3.1978560011118695e-18 4.997825757684727e+16 1.9434319533652035e+17
6.380824566069159e-19 -2.507204189922343e-18 6.374398281079754e+16 2.4838593156285104e+17
4.990170153682078e-19 -1.964726009820036e-18 8.134219805955134e+16 3.176139271389561e+17
3.90067106283803e-19 -1.538849782269121e-18 1.0385102333122011e+17 4.063371635002658e+17
3.0475381524560127e-19 -1.2046832044534437e-18 1.3265492278009283e+17 5.201008840358795e+17
2.379826217741275e-19 -9.426106188905646e-19 1.6953260117318483e+17 6.660429861985824e+17
1.8574966030135299e-19 -7.371826259857567e-19 2.167703584009114e+17 8.533557686445933e+17
1.4490985400269228e-19 -5.762375944111956e-19 2.7730834337551754e+17 1.0938827768329932e+18
1.1299398659143473e-19 -4.502070189805178e-19 3.549293431777942e+17 1.402890626526659e+18
8.806446034785161e-20 -3.515665506375038e-19 4.545025906340201e+17 1.8000675586112986e+18
6.860161956877632e-20 -2.744023859734397e-19 5.82298769463887e+17 2.3108159179036984e+18
5.3414210180986465e-20 -2.1406896068935077e-19 7.463971958009111e+17 2.967925832472097e+18
4.1568888289170244e-20 -1.669188676838181e-19 9.572123906049187e+17 3.8137435071218627e+18
3.233475454885566e-20 -1.300898758374801e-19 1.228175362516473e+18 4.902981574449008e+18
2.5139734540143978e-20 -1.0133706769962657e-19 1.5766154600761523e+18 6.306363271919727e+18
1.9536293222992163e-20 -7.890060893677016e-20 2.0249023631517862e+18 8.115349973710489e+18
1.5174500257090202e-20 -6.140164186475071e-20 2.6019256281414277e+18 1.0448276906638412e+19
1.1780881247376648e-20 -4.776036515434879e-20 3.345012436603949e+18 1.3458320089683784e+19
9.14182070866679e-21 -3.713160596151857e-20 4.302414463979697e+18 1.7343845682057947e+19
7.090543907715109e-21 -2.8854176265889894e-20 5.536534229469494e+18 2.2361860202574983e+19
5.4969111729670606e-21 -2.2411085425252973e-20 7.128112715195082e+18 2.8845498537888043e+19
4.259421216834139e-21 -1.7398298290983806e-20 9.181667121978248e+18 3.722677206950411e+19
3.2989485785963464e-21 -1.3500216410633517e-20 1.1832555162534724e+19 4.806617230338319e+19
2.5538416704994877e-21 -1.0470445673862407e-20 1.5256156567492325e+19 6.209121320387466e+19
1.9760878014131935e-21 -8.116718524732295e-21 1.9679811729771504e+19 8.02466335959902e+19
1.5283144796217155e-21 -6.2890794641781094e-21 2.5398352428167533e+19 1.0375981620163328e+20
1.1814458342627317e-21 -4.870632405192413e-21 3.2794314495381238e+19 1.3422607342424308e+20
9.128719713002012e-22 -3.770298146597159e-21 4.236425567812849e+19 1.7371988241977e+20
7.050197298388614e-22 -2.917148219293314e-21 5.475303811330587e+19 2.249400291065727e+20
5.442373937950947e-22 -2.255974299310119e-21 7.079850575669094e+19 2.9139908167876752e+20
4.199248365662667e-22 -1.7438255518845826e-21 9.158973469277164e+19 3.776708418416653e+20
3.238554325078693e-22 -1.3473038442256481e-21 1.1854301362551182e+20 4.897136570842964e+20
2.4964772635925842e-22 -1.0404520412352953e-21 1.5350099541277354e+20 6.35293036663536e+20
1.9235399413609245e-22 -8.031061852576941e-22 1.988621434676658e+20 8.245343147857509e+20
1.481399951819406e-22 -6.196103164458793e-22 2.5774980443493977e+20 1.0706456963171911e+21
1.140358292269503e-22 -4.77814639120907e-22 3.342331355426784e+20 1.3908646275247356e+21
8.77422082329471e-23 -3.6829496287900966e-22 4.336159183543007e+20 1.8076970117807845e+21
6.74798930337958e-23 -2.8374485522833065e-22 5.6281428599040986e+20 2.3505405974127305e+21
5.18727356608894e-23 -2.185025309675368e-22 7.308509546570963e+20 3.0578125639663836e+21
3.9856871890119636e-23 -1.68182798934124e-22 9.495021786386773e+20 3.9797391181020057e+21
3.061025224748163e-23 -1.2939088224360535e-22 1.2341449950067103e+21 5.182014678640641e+21
2.3497983355920584e-23 -9.950001153984738e-23 1.6048672532008628e+21 6.750603810025006e+21
1.802995344273657e-23 -7.647866694675712e-23 2.0879225743350613e+21 8.798045514338683e+21
1.3827997470737344e-23 -5.875645286904342e-23 2.717638259362503e+21 1.1471733504301108e+22
1.0600466825247956e-23 -4.512001860681942e-23 3.538918250356569e+21 1.4964796503287851e+22
8.122543461890552e-24 -3.463233452077398e-23 4.6105281697509965e+21 1.953040116508027e+22
6.221008385369386e-24 -2.65701139780563e-23 6.009408688009641e+21 2.5500562380809774e+22
4.7624623536618666e-24 -2.0375326275715167e-23 7.836341589322891e+21 3.3310892079052415e+22
3.644220818093479e-24 -1.5617646281916974e-23 1.0223395988227605e+22 4.3533175336691e+22
2.7872794083365855e-24 -1.1965388333910023e-23 1.3343718232529775e+22 5.6918267769923754e+22
2.1308817565669933e-24 -9.163018562212364e-24 1.7424408748927176e+22 7.44526085940084e+22
1.6283267160468205e-24 -7.01376535898431e-24 2.276346654092247e+22 9.743270287540284e+22
1.2437337669719404e-24 -5.366178823414728e-24 2.9752095911107224e+22 1.275633285567799e+23
9.495488411716922e-25 -4.103747520562655e-24 3.890408501309521e+22 1.670870806137448e+23
7.246220087739239e-25 -3.1368810437517712e-24 5.08945148835069e+22 2.189553246985023e+23
5.527266255998674e-25 -2.3967223668336172e-24 6.6610784236851996e+22 2.870538931588561e+23
4.214191086870341e-25 -1.8303747130821346e-24 8.72198973676687e+22 3.76501179689559e+23
3.211614099223334e-25 -1.3972213725123409e-24 1.1425723680511938e+23 4.940420238964725e+23
2.446459881888573e-25 -1.0660895854114406e-24 1.4974373094639325e+23 6.485683877991946e+23
1.8627679984063273e-25 -8.130659628421248e-25 1.9634056537161692e+23 8.518079304062562e+23
1.4177043777933528e-25 -6.198145827130015e-25 2.5755355522344584e+23 1.1192350063395888e+24
1.0784975133129568e-25 -4.722827209600232e-25 3.380032347493745e+23 1.4712764454656837e+24
8.2008616078107e-26 -3.5970535859280204e-25 4.43781947983925e+23 1.9349081722838832e+24
6.233141640320552e-26 -2.7383986230492306e-25 5.8292616641364286e+23 2.545770242291198e+24
4.735458064902291e-26 -2.0837790165809342e-25 7.660414810689987e+23 3.350969802724857e+24
3.596042271420964e-26 -1.5849377421207036e-25 1.007129971553985e+24 4.412797289154231e+24
2.7295790815106023e-26 -1.2049766432227444e-25 1.3246859476351528e+24 5.813655468278091e+24
2.070975583009583e-26 -9.156958443571835e-26 1.743147729620817e+24 7.662599900947854e+24
1.5705905615178184e-26 -6.955532236463625e-26 2.2948219685486488e+24 1.0104021269463098e+25
1.1905838766189885e-26 -5.281001827184674e-26 3.0224353903581424e+24 1.332917580272983e+25
9.021241718975172e-27 -4.007831064465621e-26 3.9825199625630684e+24 1.7591504464606192e+25
6.83254106195697e-27 -3.040254558393772e-26 5.249905578103049e+24 2.3226994334182498e+25
5.172590364317375e-27 -2.3052511752140613e-26 6.923685108065512e+24 3.0681253044272967e+25
3.9142100158814564e-27 -1.7471678432032045e-26 9.135137683266103e+24 4.054552451337693e+25
2.9606744603156448e-27 -1.323608000164223e-26 1.205825747351014e+25 5.360461871484856e+25
2.238453000052451e-27 -1.002288679680201e-26 1.5923750618840595e+25 7.09007231096327e+25
1.6916728686705404e-27 -7.586391625748354e-27 2.103765049651104e+25 9.381839336133965e+25
1.277897910089583e-27 -5.739670820168475e-27 2.7806085501671213e+25 1.2419779964708815e+26
9.649117540435289e-28 -4.340585442690038e-27 3.676824655056225e+25 1.6448568461113603e+26
7.282675894698119e-28 -3.281100481812917e-27 4.86402872215225e+25 2.1793667415747827e+26
5.494227069840214e-28 -2.479139402284829e-27 6.437380632165058e+25 2.888818471446074e+26
4.1431890188278895e-28 -1.8723751091208195e-27 8.523378913245304e+25 3.8308718292807944e+26
3.123026681510955e-28 -1.4134991789485874e-27 1.12902524846858e+26 5.082321612915033e+26
2.3530422766839713e-28 -1.0666190775425643e-27 1.4961821493314346e+26 6.745490523524229e+26
1.7721363543149422e-28 -8.04515679375549e-28 1.9835992986288336e+26 8.956771981049161e+26
1.3340686830755691e-28 -6.065566225595585e-28 2.630945143339791e+26 1.18980505403584e+27
1.0038600523533224e-28 -4.571093943261187e-28 3.4910632574885363e+26 1.58119754534717e+27
7.550615607307753e-29 -3.4433502147902425e-28 4.634377768574581e+26 2.1022395734429938e+27
5.676831888432148e-29 -2.5927150250050445e-28 6.154781590912206e+26 2.7961712137965956e+27
4.2662319456957666e-29 -1.9513770772830167e-28 8.177509793990168e+26 3.7207502215495493e+27
3.204777814737388e-29 -1.4680495871304111e-28 1.0869671688416673e+27 4.953158222376365e+27
2.4063937594287395e-29 -1.1039607864603464e-28 1.4454345214787088e+27 6.596575579161132e+27
1.8061384424703834e-29 -8.298130258300446e-29 1.9229446248638084e+27 8.788996052843164e+27
1.3550372285307462e-29 -6.234775334998986e-29 2.5593000804737126e+27 1.1715049053665503e+28
1.0161727265083781e-29 -4.682476538882446e-29 3.407700665298413e+27 1.5621862098317456e+28
7.617285373724777e-30 -3.515158651751324e-29 4.539282218517489e+27 2.0840352798091123e+28
5.7075479603123724e-30 -2.637722169248672e-29 6.049203144997326e+27 2.781382037771261e+28
4.274800288738915e-30 -1.9784644077745823e-29 8.064809544450957e+27 3.7136354699473723e+28
3.200363233465094e-30 -1.4833470878808613e-29 1.075659329634707e+28 4.960445461540763e+28
2.39497045580598e-30 -1.1116624806333368e-29 1.4352904423720596e+28 6.628642638963194e+28
1.7915080172694413e-30 -8.32758375165569e-30 1.915971197022906e+28 8.86157240513378e+28
1.3395388717080028e-30 -6.235642923496388e-30 2.558715651848698e+28 1.1851654181895168e+29
1.0011752727723246e-30 -4.667237538578324e-30 3.4185242999628595e+28 1.585728704134759e+29
7.479686527152891e-31 -3.491847586465605e-30 4.569183956679686e+28 2.122561499000802e+29
5.5856719463260085e-31 -2.611365300982023e-30 6.1097251407065235e+28 2.8423195167849414e+29
4.169523797564884e-31 -1.9520782440106717e-30 8.173112812027924e+28 3.807732893009687e+29
3.1111198886394935e-31 -1.4586272457933037e-30 1.0937947601614207e+29 5.1031785343855624e+29
2.3204197377697615e-31 -1.0894547441071153e-30 1.4644226702380982e+29 6.842195877436268e+29
1.7299602403536983e-31 -8.13377403844754e-31 1.961458140918623e+29 9.177627869081826e+29
1.2892160762100922e-31 -6.070064562690039e-31 2.6282905818483998e+29 1.231530958233394e+30
9.603633417670902e-32 -4.528069424337363e-31 3.523296442645104e+29 1.6532552871444116e+30
7.150986489504622e-32 -3.3763826712056346e-31 4.725047770569899e+29 2.2203117330050973e+30
5.322517670348446e-32 -2.516571805637468e-31 6.3393418893899e+29 2.9830956958015025e+30
3.9599462015204554e-32 -1.8749354767738402e-31 8.508692718881437e+29 4.009584466749726e+30
2.944982554374407e-32 -1.396313443427202e-31 1.1425150850392735e+30 5.391507962995337e+30
2.1892617042925872e-32 -1.0394398438008938e-31 1.5347626712030336e+30 7.252697964331533e+30
1.6268008568516216e-32 -7.734565180555525e-32 2.0625307844122524e+30 9.760389394046414e+30
1.2083510047493829e-32 -5.752979192422561e-32 2.7729326687027766e+30 1.314052341656841e+31
8.971686070355469e-33 -4.277305904117575e-32 3.7295602717510824e+30 1.769847754785148e+31
6.658517083817888e-33 -3.1788400704478826e-32 5.0182824868091147e+30 2.3847158405695384e+31
4.939735531102591e-33 -2.361501122115946e-32 6.755095577461162e+30 3.2145086983350666e+31
3.663134351960458e-33 -1.7535937653528892e-32 9.096756313853882e+30 4.334805097435798e+31
2.715346186250794e-33 -1.3016416487468217e-32 1.2255189876204198e+31 5.847918450551723e+31
2.011967745133718e-33 -9.657744996344356e-33 1.6517020256988675e+31 7.892408654482994e+31
1.4901860957672062e-33 -7.162788572866304e-33 2.227005479622861e+31 1.0655997437051948e+32
1.1032753671234452e-33 -5.3101999632018074e-33 3.003921309585725e+31 1.4393111877552743e+32
8.164911736218183e-34 -3.9351583044230416e-33 4.053528730006445e+31 1.94487238653629e+32
6.040090685729021e-34 -2.9149853256083413e-33 5.472114216534964e+31 2.6290757545489088e+32
4.4664250438820716e-34 -2.1584083477434383e-33 7.3901627680991665e+31 3.555416121957056e+32
3.301425486463543e-34 -1.5975489219345174e-33 9.984574570311417e+31 4.810086534654437e+32
2.4393158625697417e-34 -1.1819477448272138e-33 1.3495270577603468e+32 6.510138451942105e+32
1.80160634164164e-34 -8.741101850366177e-34 1.8247772565481212e+32 8.81459195474955e+32
1.3300786289394327e-34 -6.461868523316314e-34 2.4683919148919014e+32 1.1939568274240541e+33
9.815682674296294e-35 -4.77501042125407e-34 3.340366554665317e+32 1.6178908829876313e+33
7.240852709622878e-35 -3.5270777713750255e-34 4.522198871951833e+32 2.1932280818632556e+33
5.339310202758378e-35 -2.604236904528497e-34 6.124638665101044e+32 2.97435023940291e+33
3.935564694626076e-35 -1.922077599325106e-34 8.298246577160129e+32 4.0352823523467045e+33
2.8997172165924116e-35 -1.4180337066695842e-34 1.124778522466195e+33 5.47682717250997e+33
2.1356552688959915e-35 -1.0457494189081622e-34 1.5251841296716638e+33 7.43630522976111e+33
1.5722941295081207e-35 -7.708934969220911e-35 2.0689590343336047e+33 1.0100856875734577e+34
1.1570810853985424e-35 -5.680506160122679e-35 2.807731836810731e+33 1.3725615969197962e+34
8.511799359428811e-36 -4.1841362741004633e-35 3.8118276166327367e+33 1.865854885244132e+34
6.259026132728034e-36 -3.080711058710615e-35 5.177075992226954e+33 2.537441611610276e+34
4.6006603878066814e-36 -2.2673716044050755e-35 7.034111715643949e+33 3.45212254619092e+34
3.3803512501080787e-36 -1.668096823049951e-35 9.56108523740264e+33 4.698379409077723e+34
2.482744030281752e-36 -1.2267239632525634e-35 1.300104013676016e+34 6.397075550959882e+34
1.822765260238921e-36 -9.017781535644033e-36 1.7685680027207803e+34 8.713370330983246e+34
1.3376991052780379e-36 -6.62643682926233e-36 2.4067886712675866e+34 1.1873040405105924e+35
9.813303797462995e-37 -4.867300156198382e-36 3.276622891563338e+34 1.6184846443432987e+35
7.196169429382474e-37 -3.5737497114699493e-36 4.462590617970594e+34 2.207119612852293e+35
5.2749343601643114e-37 -2.6229396389241697e-36 6.080222858418425e+34 3.011019661114004e+35
3.865115683786544e-37 -1.924335709985037e-36 8.287500911871782e+34 4.109334872888065e+35
2.830987193098951e-37 -1.41124358739939e-36 1.1300537537283064e+35 5.610473096960804e+35
2.0727336361716057e-37 -1.0345510899895641e-36 1.5415081230400647e+35 7.662971860932062e+35
1.516978689405555e-37 -7.581077574552622e-37 2.103601718122208e+35 1.0470431073462559e+36
1.1098034470765599e-37 -5.553147294272588e-37 2.8717853943759075e+35 1.4312030988648775e+36
8.116026824691387e-38 -4.066089337243281e-37 3.9220307780413816e+35 1.957073508323331e+36
"""
_AIRY_ANCHORS = tuple(zip(*[iter(map(float, _AIRY_TEXT.split()))] * 4))
del _AIRY_TEXT  # 66 kB that nothing reads once parsed

"""Scalar special functions evaluated from scratch (no external libraries).

Everything the closed-form resolvents need: Gamma and its reciprocal,
the Kummer confluent hypergeometric series M(a,b,z), the parabolic
cylinder function D_nu(z), Airy Ai/Bi with derivatives, and physicists'
Hermite polynomials.

Design notes:
  * rgamma is the primary primitive.  It is entire, exactly zero at
    non-positive integers, and lets characteristic functions stay
    pole-free by construction.  gamma() is derived from it.
  * D_nu is evaluated through the even/odd Kummer fundamental system of
    Weber's equation.  This representation is entire in z and avoids the
    connection formulas an asymptotic approach would need for z < 0.
    Its z-odd term changes sign exactly with z, so pcf_d_pair(nu, z)
    returns D_nu(z) and D_nu(-z) from one pair of Kummer series and one
    pair of rgamma values, bit for bit what two pcf_d calls give.
  * Where a series cancels, the value comes from the trapezoid rule on
    an integral whose terms are all positive (Trefethen and Weideman,
    SIAM Rev. 56, 2014): D_nu(z) for z >= 6, or z > 0 and strongly
    negative nu, and Ai, Ai' for x > 4.  Bi, Bi' for x > 0 come from the
    Maclaurin series; only x < -7 uses an asymptotic expansion.
  * Functions returning EvalResult report est_abs_error, an upper bound
    on the absolute error built from truncation plus rounding terms.
  * The hot loops (the Kummer series, the Lanczos sum, the Airy
    Maclaurin series) are written for the interpreter: constants bound
    to locals, abs() spelled as a comparison, the Lanczos sum unrolled,
    the exact integer factors of the Airy terms taken from a table.
    They do the same floating-point operations in the same order as the
    plain series, so every value and estimate is bit-identical to it;
    tests/test_specfun.py pins them against verbatim copies of the plain
    loops.  Reordering a sum, fusing a product or changing a stopping
    test changes the last bits and fails those tests.
  * A non-finite argument raises DomainError at once in rgamma, gamma,
    kummer_m, weber_even_odd, pcf_d, pcf_d_pair, airy_all and hermite_h.

All functions are pure and hold no mutable state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

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
    "weber_even_odd",
    "airy_ai",
    "airy_ai_prime",
    "airy_bi",
    "airy_bi_prime",
    "airy_all",
    "hermite_h",
]

_EPS = 2.220446049250313e-16
_SQRT_PI = 1.7724538509055160273
_SQRT_2PI = 2.5066282746310005024
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

# Lanczos approximation, g = 607/128 with 15 coefficients.  Checked
# against 40-digit references: relative error < 2e-14 for |x| <= 50,
# and within 20 eps of 1/Gamma on [-170.5, -141] and [141, 171.5].
_LANCZOS_G = 4.7421875
_LANCZOS_C = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    3.3994649984811888699e-5,
    4.6523628927048575665e-5,
    -9.8374475304879564677e-5,
    1.5808870322491248884e-4,
    -2.1026444172410488319e-4,
    2.1743961811521264320e-4,
    -1.6431810653676389022e-4,
    8.4418223983852743293e-5,
    -2.6190838401581408670e-5,
    3.6899182659531622704e-6,
)


def _gamma_lanczos(x, fold=1.0):
    # requires x >= 0.5; Gamma(x) * fold, with the sum C_0 + sum_i C_i /
    # ((x - 1) + i) unrolled in its left-to-right order.  Above x = 141 the
    # fold scales one of two half powers, so a small fold keeps a product
    # whose Gamma(x) alone exceeds the float range
    c = _LANCZOS_C
    xm = x - 1.0
    acc = (c[0] + c[1] / (xm + 1.0) + c[2] / (xm + 2.0) + c[3] / (xm + 3.0)
           + c[4] / (xm + 4.0) + c[5] / (xm + 5.0) + c[6] / (xm + 6.0)
           + c[7] / (xm + 7.0) + c[8] / (xm + 8.0) + c[9] / (xm + 9.0)
           + c[10] / (xm + 10.0) + c[11] / (xm + 11.0) + c[12] / (xm + 12.0)
           + c[13] / (xm + 13.0) + c[14] / (xm + 14.0))
    t = x + _LANCZOS_G - 0.5
    if x <= 141.0:
        return _SQRT_2PI * t ** (x - 0.5) * math.exp(-t) * acc * fold
    if x > 178.0:  # Gamma(x) > 3.5e322: past the float range even times a fold of 2^-45
        return math.copysign(math.inf, fold)
    # t ** (x - 0.5) alone overflows past x = 141.5: take it as two half powers
    half = t ** (0.5 * (x - 0.5))
    return _SQRT_2PI * half * math.exp(-t) * acc * (half * fold)


def _sinpi(x):
    # sin(pi x) with exact zeros at integers (r below is computed exactly)
    n = round(x)
    r = x - n
    s = math.sin(math.pi * r)
    return -s if (n & 1) else s


def rgamma(x: float) -> float:
    """Reciprocal Gamma 1/Gamma(x), entire; exactly 0 at 0, -1, -2, ....

    Below x = -170.6, where the reflection's Gamma(1 - x) exceeds the
    float range, sin(pi x)/pi is folded into one of its half powers: the
    float 1/Gamma where one exists (to about x = -171.1, and next to the
    integers down to -176), +-inf elsewhere.  Above x = 171.6, where
    Gamma(x) overflows, OverflowError: 1/Gamma there is not 0.0, and a
    0.0 would read as a zero of every characteristic function built on it."""
    if not math.isfinite(x):
        raise DomainError(f"rgamma argument must be finite, got {x}")
    if x >= 0.5:
        r = 1.0 / _gamma_lanczos(x)
        if r == 0.0:  # Gamma(x) is inf
            raise OverflowError(f"rgamma({x!r}) underflows: Gamma(x) exceeds the float range")
        return r
    # reflection: 1/Gamma(x) = Gamma(1-x) sin(pi x)/pi
    s = _sinpi(x)
    r = _gamma_lanczos(1.0 - x) * s / math.pi
    if math.isfinite(r):
        return r
    # Gamma(1 - x) overflows: 0 at the integers, else sin(pi x)/pi in a half power
    return _gamma_lanczos(1.0 - x, s / math.pi) if s else 0.0


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


def kummer_m(a: float, b: float, z: float) -> EvalResult:
    """M(a,b,z) by direct series with compensated (Kahan) summation.

    Stops when two consecutive terms are below eps * |partial sum|.
    est_abs_error combines the last-term magnitude with a rounding bound
    eps * sum(|terms|), which also tracks cancellation for z < 0.
    Non-finite arguments raise DomainError.
    """
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(z)):
        raise DomainError(f"kummer_m arguments must be finite, got a = {a}, b = {b}, z = {z}")
    if b <= 0.5 and abs(b - round(b)) <= 1e-12 and round(b) <= 0:
        raise PoleError(f"kummer_m requires b not a non-positive integer, got b = {b}")
    if abs(z) > 200.0:
        raise DomainError(f"kummer_m series restricted to |z| <= 200, got z = {z}")
    eps = _EPS
    term = total = abs_sum = 1.0
    comp = 0.0  # Kahan compensation
    small = False  # the previous term was already below eps * |partial sum|
    n = 0.0  # a float counter: a + n, b + n and n + 1.0 round as with an int n
    for _ in range(_KUMMER_MAX_TERMS):
        n1 = n + 1.0
        term *= (a + n) * z / ((b + n) * n1)
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        mag = term if term >= 0.0 else -term
        abs_sum += mag
        n = n1
        if mag <= eps * (t if t >= 0.0 else -t):
            if small:
                break
            small = True
        else:
            small = False
    else:
        raise ConvergenceError(
            f"kummer_m({a}, {b}, {z}) did not converge in {_KUMMER_MAX_TERMS} terms"
        )
    est = 2.0 * abs(term) + 16.0 * _EPS * abs_sum
    return EvalResult(total, est)


# ----------------------------------------------------------------------
# Weber / parabolic cylinder functions
# ----------------------------------------------------------------------


def weber_even_odd(nu: float, z: float):
    """Even/odd fundamental pair of Weber's equation y'' + (nu + 1/2 - z^2/4) y = 0.

    Returns (E, E', O, O', est) where
        E(z) = exp(-z^2/4) M(-nu/2, 1/2, z^2/2)
        O(z) = z exp(-z^2/4) M((1-nu)/2, 3/2, z^2/2)
    and est bounds the absolute error of the four values jointly.
    These two solutions are independent for every nu, which makes them
    the safe basis for continuing piecewise-parabolic problems.
    Non-finite arguments raise DomainError.
    """
    if not (math.isfinite(nu) and math.isfinite(z)):
        raise DomainError(f"weber_even_odd arguments must be finite, got nu = {nu}, z = {z}")
    w = 0.5 * z * z
    g = math.exp(-0.25 * z * z)
    m1 = kummer_m(-0.5 * nu, 0.5, w)
    m2 = kummer_m(0.5 * (1.0 - nu), 1.5, w)
    m3 = kummer_m(1.0 - 0.5 * nu, 1.5, w)
    m4 = kummer_m(0.5 * (3.0 - nu), 2.5, w)
    even = g * m1.value
    odd = z * g * m2.value
    # dM/dw = (a/b) M(a+1, b+1, w), dw/dz = z
    even_p = g * z * (-0.5 * m1.value - nu * m3.value)
    odd_p = g * ((1.0 - w) * m2.value + (z * z) * ((1.0 - nu) / 3.0) * m4.value)
    est = g * (m1.est_abs_error + abs(z) * m2.est_abs_error
               + abs(z) * (0.5 * m1.est_abs_error + abs(nu) * m3.est_abs_error)
               + (1.0 + w) * m2.est_abs_error + z * z * m4.est_abs_error)
    return even, even_p, odd, odd_p, est


def _pcf_terms(nu, z):
    """The two-term Kummer form of D_nu(z) as (pref, t1, t2, est), with
    D_nu(z) = pref * (t1 - t2).

    Negating z leaves pref, t1 and est unchanged bit for bit (they see z
    only through z*z and |z|) and negates t2 exactly, so
    D_nu(-z) = pref * (t1 - (-t2)).
    """
    w = 0.5 * z * z
    m1 = kummer_m(-0.5 * nu, 0.5, w)
    m2 = kummer_m(0.5 * (1.0 - nu), 1.5, w)
    r1 = rgamma(0.5 * (1.0 - nu))
    r2 = rgamma(-0.5 * nu)
    pref = 2.0 ** (0.5 * nu) * math.exp(-0.25 * z * z) * _SQRT_PI
    t1 = r1 * m1.value
    t2 = _SQRT2 * z * r2 * m2.value
    # 0.5 z^2 eps: the rounding of z^2 in exp's argument and in the
    # series argument w, as airy_all counts (4 + 2 zeta) eps
    est = pref * (
        abs(r1) * m1.est_abs_error
        + _SQRT2 * abs(z) * abs(r2) * m2.est_abs_error
        + (16.0 + 0.5 * z * z) * _EPS * (abs(t1) + abs(t2))
    )
    return pref, t1, t2, est


def _pcf_series(nu, z):
    pref, t1, t2, est = _pcf_terms(nu, z)
    return EvalResult(pref * (t1 - t2), est)


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
    """True when pcf_d(nu, z) takes the integral route: z >= 6, or z > 0
    with the two Kummer terms cancelling for negative non-integer nu."""
    if z >= _PCF_CUT:
        return True
    if z > 0.0 and nu < 1.0 and not (nu >= 0.0 and nu == math.floor(nu)):
        return 0.5 * z * z + z * math.sqrt(max(0.0, -2.0 * nu)) > 10.0
    return False


def pcf_d(nu: float, z: float) -> EvalResult:
    """Parabolic cylinder D_nu(z).

    Two routes, chosen from (nu, z) alone: the two-term Kummer form
    D_nu(z) = 2^(nu/2) e^(-z^2/4) sqrt(pi) [ rgamma((1-nu)/2) M(-nu/2, 1/2, z^2/2)
              - sqrt(2) z rgamma(-nu/2) M((1-nu)/2, 3/2, z^2/2) ],
    which is entire in z, and, where its terms cancel (z >= 6, or z > 0
    with strongly negative nu), the integral route (_pcf_integral).
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
    |z| <= 20, where the Kummer argument z^2/2 stays within kummer_m's
    |z| <= 200, and |nu| <= 60; non-finite arguments raise DomainError too.
    """
    _pcf_check(nu, z, "pcf_d")
    if _pcf_takes_integral(nu, z):
        return _pcf_integral(nu, z)
    return _pcf_series(nu, z)


def pcf_d_pair(nu: float, z: float):
    """(pcf_d(nu, z), pcf_d(nu, -z)), equal to those two calls bit for bit.

    When neither sign takes the integral route, both come from one Kummer
    pair: the two series, the two rgamma values and the prefactor are
    shared, and only the sign of the z-odd term differs.  Otherwise this
    is the two pcf_d calls.  The domain is pcf_d's.
    """
    _pcf_check(nu, z, "pcf_d_pair")
    if _pcf_takes_integral(nu, abs(z)):
        return pcf_d(nu, z), pcf_d(nu, -z)
    pref, t1, t2, est = _pcf_terms(nu, z)
    return EvalResult(pref * (t1 - t2), est), EvalResult(pref * (t1 - (-t2)), est)


# ----------------------------------------------------------------------
# Airy functions
# ----------------------------------------------------------------------

_AI0 = 0.3550280538878172     # Ai(0)
_AIP0 = -0.2588194037928068   # Ai'(0)
_SQRT3 = 1.7320508075688772

_AIRY_SERIES_CUT = 7.0   # Maclaurin series window for x < 0
_AIRY_K_MIN = 4.0        # Ai, Ai' from the K-integrals for x above this
_AIRY_K_STEP = 0.15625   # largest trapezoid step in t, exact in binary
_AIRY_DOMAIN = 25.0


def _airy_ai_k(x):
    """Ai and Ai' for x > 0 from Ai = sqrt(x/3) K_1/3(zeta) / pi and
    Ai' = -x K_2/3(zeta) / (pi sqrt(3)), zeta = 2/3 x^1.5 (DLMF 9.6.1),
    with K_nu(zeta) = int_0^inf exp(-zeta cosh t) cosh(nu t) dt (DLMF
    10.32.9) by the trapezoid rule.  Every term is positive, so nothing
    cancels; the rule converges exponentially on this integrand
    (Trefethen and Weideman, SIAM Rev. 56, 2014): its relative error,
    about exp(zeta - pi^2 / h), or exp(-2 pi^2 / (h^2 zeta)) once zeta
    is large, stays below 1e-17 on (4, 25] at the step
    min(0.15625, 0.7 / sqrt(zeta)), with at most 14 nodes.  Returns
    (Ai, Ai', rel).  rel bounds the relative error: exp's argument
    carries a rounding that grows with zeta, and the sum one per node.
    It bounds the series Bi and Bi' there too, whose largest terms, near
    k = zeta / 2, carry about 2k roundings each.
    """
    zeta = 2.0 / 3.0 * x ** 1.5
    h = min(_AIRY_K_STEP, 0.7 / math.sqrt(zeta))
    k1 = k2 = 0.5 * math.exp(-zeta)
    n = 1
    while True:
        t = n * h
        e = math.exp(-zeta * math.cosh(t))
        k1 += e * math.cosh(t / 3.0)
        term = e * math.cosh(2.0 * t / 3.0)  # falls slower than K_1/3's
        k2 += term
        if term < 1e-18 * k2:
            break
        n += 1
    ai = math.sqrt(x / 3.0) / math.pi * (h * k1)
    aip = -x / (math.pi * _SQRT3) * (h * k2)
    return ai, aip, (8.0 + 2.0 * zeta + n) * _EPS


# (3k, (3k)(3k - 1), 3k + 1, (3k)(3k + 1)) for k = 1..91: small integers,
# so each entry is exact and equals the product the series would form;
# x = 25 needs 88 terms
_AIRY_K = tuple((3.0 * k, (3.0 * k) * (3.0 * k - 1.0), 3.0 * k + 1.0,
                 (3.0 * k) * (3.0 * k + 1.0)) for k in range(1, 92))


def _airy_series(x):
    """Plain-double Maclaurin evaluation; also returns |term| sums."""
    x3 = x * x * x
    tf = 1.0
    tg = x
    f, g = tf, tg
    fp, gp = 0.0, 1.0
    sf, sg = 1.0, abs(x)
    tol = _EPS * 0.01
    for k3, df, k3p, dg in _AIRY_K:
        tf = tf * x3 / df
        tg = tg * x3 / dg
        f += tf
        g += tg
        fp += tf * k3 / x
        gp += tg * k3p / x
        af = tf if tf >= 0.0 else -tf
        ag = tg if tg >= 0.0 else -tg
        sf += af
        sg += ag
        if af < tol * sf and ag < tol * (sg if sg >= 1.0 else 1.0):
            break
    return f, g, fp, gp, sf, sg


# u_k, v_k asymptotic coefficients: u_0 = v_0 = 1,
# u_k = u_{k-1} (6k-5)(6k-3)(6k-1) / (216 k (2k-1)),  v_k = -u_k (6k+1)/(6k-1).
def _asym_uv():
    us, vs = [1.0], [1.0]
    u = 1.0
    for k in range(1, 60):
        u *= (6.0 * k - 5.0) * (6.0 * k - 3.0) * (6.0 * k - 1.0) / (216.0 * k * (2.0 * k - 1.0))
        us.append(u)
        vs.append(-u * (6.0 * k + 1.0) / (6.0 * k - 1.0))
    return us, vs


_ASYM_U, _ASYM_V = _asym_uv()
# (u_k, sign_k v_k, sign_k, k even) with sign_k = (-1)^(k // 2), for the
# oscillatory sums; sign_k v_k is exact, so (sign_k v_k) zeta^-k is the
# product the plain loop forms
_ASYM_NEG_K = tuple((_ASYM_U[k], s * _ASYM_V[k], s, k % 2 == 0)
                    for k in range(len(_ASYM_U))
                    for s in (-1.0 if (k // 2) & 1 else 1.0,))


def _airy_asym_neg(x):
    """Oscillatory expansions for x < -series cut (t = -x).

    P_u = sum (-1)^k u_{2k} zeta^{-2k},  Q_u = sum (-1)^k u_{2k+1} zeta^{-2k-1}
    (same with v for the derivatives), truncated at the smallest term.
    """
    t = -x
    zeta = 2.0 / 3.0 * t ** 1.5
    q = t ** 0.25
    theta = zeta - 0.25 * math.pi
    c, s = math.cos(theta), math.sin(theta)
    pu = qu = pv = qv = 0.0
    prev = math.inf
    trunc = 0.0
    zp = 1.0  # zeta^-k
    for u, sv, sign, even in _ASYM_NEG_K:
        tu = u * zp
        mag = tu if tu >= 0.0 else -tu
        if mag >= prev:
            trunc = mag
            break
        if even:
            pu += sign * tu
            pv += sv * zp
        else:
            qu += sign * tu
            qv += sv * zp
        prev = trunc = mag
        zp /= zeta
        if mag < 1e-18:
            break
    ai = (c * pu + s * qu) / (_SQRT_PI * q)
    bi = (-s * pu + c * qu) / (_SQRT_PI * q)
    aip = q / _SQRT_PI * (s * pv - c * qv)
    bip = q / _SQRT_PI * (c * pv + s * qv)
    # amplitude-level bound: phase rounding eps*zeta dominates for large zeta
    rel = 2.0 * trunc + (4.0 + 2.0 * zeta) * _EPS
    return (ai, aip, bi, bip, rel)


def airy_all(x: float):
    """(Ai, Ai', Bi, Bi') at x, each an EvalResult; the domain is |x| <= 25.

    Routes, chosen from x alone, with the largest error against 40-digit
    references in eps = 2.2e-16 of the value (x > 0) or of the amplitude
    sqrt(Ai^2 + Bi^2) (x < 0): for x > 4, Ai and Ai' from the
    K-integrals (12 eps up to x = 7, 90 eps above, as zeta grows) and Bi
    and Bi' from the Maclaurin series (30 eps); on [-7, 4] the series for
    all four, which cancels in Ai and Ai' above x = 1 (7e4 eps near 4)
    and in all four on [-7, -4) (2e4 eps); below -7 the asymptotic
    expansions (4e3 eps down to -12, 50 eps below).  est_abs_error
    bounds the error on every route.
    """
    if math.isnan(x) or abs(x) > _AIRY_DOMAIN:
        raise DomainError(f"airy functions restricted to |x| <= {_AIRY_DOMAIN}, got {x}")
    if x < -_AIRY_SERIES_CUT:
        ai, aip, bi, bip, rel = _airy_asym_neg(x)
        amp = 1.0 / (_SQRT_PI * (-x) ** 0.25)
        ampp = (-x) ** 0.25 / _SQRT_PI
        return (
            EvalResult(ai, amp * rel),
            EvalResult(aip, ampp * rel),
            EvalResult(bi, amp * rel),
            EvalResult(bip, ampp * rel),
        )
    c1, c2, r3 = _AI0, _AIP0, _SQRT3
    if x == 0.0:
        return (
            EvalResult(c1, 2.0 * _EPS * c1),
            EvalResult(c2, 2.0 * _EPS * abs(c2)),
            EvalResult(r3 * c1, 4.0 * _EPS * c1),
            EvalResult(-r3 * c2, 4.0 * _EPS * abs(c2)),
        )
    f, g, fp, gp, sf, sg = _airy_series(x)
    bi = r3 * (c1 * f - c2 * g)
    bip = r3 * (c1 * fp - c2 * gp)
    if x > _AIRY_K_MIN:
        # the series Ai cancels here; the Bi terms are all positive
        ai, aip, rel = _airy_ai_k(x)
        return (
            EvalResult(ai, abs(ai) * rel),
            EvalResult(aip, abs(aip) * rel),
            EvalResult(bi, abs(bi) * rel),
            EvalResult(bip, abs(bip) * rel),
        )
    ai = c1 * f + c2 * g
    aip = c1 * fp + c2 * gp
    df = 4.0 * _EPS * (abs(c1) * sf + abs(c2) * sg)
    dfp = 4.0 * _EPS * (abs(c1) + abs(c2)) * (sf + sg) * max(1.0, abs(x))
    return (
        EvalResult(ai, df),
        EvalResult(aip, dfp),
        EvalResult(bi, r3 * df),
        EvalResult(bip, r3 * dfp),
    )


def airy_ai(x: float) -> EvalResult:
    return airy_all(x)[0]


def airy_ai_prime(x: float) -> EvalResult:
    return airy_all(x)[1]


def airy_bi(x: float) -> EvalResult:
    return airy_all(x)[2]


def airy_bi_prime(x: float) -> EvalResult:
    return airy_all(x)[3]


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

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
  * Airy functions use the Maclaurin series for |x| <= 7 and asymptotic
    expansions beyond.  On 4 < x <= 7 the two series branches cancel in
    the exponentially small Ai, so Ai and Ai' come from the integrals of
    K_1/3 and K_2/3 by the trapezoid rule instead; Bi and Bi' still come
    from the series, whose terms there are all positive.
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
# against 40-digit references: relative error < 2e-14 for |x| <= 50.
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


def _gamma_lanczos(x):
    # requires x >= 0.5; the sum C_0 + sum_i C_i / ((x - 1) + i), unrolled
    # in its left-to-right order
    c = _LANCZOS_C
    xm = x - 1.0
    acc = (c[0] + c[1] / (xm + 1.0) + c[2] / (xm + 2.0) + c[3] / (xm + 3.0)
           + c[4] / (xm + 4.0) + c[5] / (xm + 5.0) + c[6] / (xm + 6.0)
           + c[7] / (xm + 7.0) + c[8] / (xm + 8.0) + c[9] / (xm + 9.0)
           + c[10] / (xm + 10.0) + c[11] / (xm + 11.0) + c[12] / (xm + 12.0)
           + c[13] / (xm + 13.0) + c[14] / (xm + 14.0))
    t = x + _LANCZOS_G - 0.5
    return _SQRT_2PI * t ** (x - 0.5) * math.exp(-t) * acc


def _sinpi(x):
    # sin(pi x) with exact zeros at integers (r below is computed exactly)
    n = round(x)
    r = x - n
    s = math.sin(math.pi * r)
    return -s if (n & 1) else s


def rgamma(x: float) -> float:
    """Reciprocal Gamma 1/Gamma(x), entire; exactly 0 at 0, -1, -2, ..."""
    if not math.isfinite(x):
        raise DomainError(f"rgamma argument must be finite, got {x}")
    if x >= 0.5:
        return 1.0 / _gamma_lanczos(x)
    # reflection: 1/Gamma(x) = Gamma(1-x) sin(pi x)/pi
    return _gamma_lanczos(1.0 - x) * _sinpi(x) / math.pi


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
    est = pref * (
        abs(r1) * m1.est_abs_error
        + _SQRT2 * abs(z) * abs(r2) * m2.est_abs_error
        + 16.0 * _EPS * (abs(t1) + abs(t2))
    )
    return pref, t1, t2, est


def _pcf_series(nu, z):
    pref, t1, t2, est = _pcf_terms(nu, z)
    return EvalResult(pref * (t1 - t2), est)


def _pcf_miller(nu, z):
    """D_nu(z) for strongly negative nu and z > 0 by upward recurrence.

    D_nu(z) is the minimal solution of D_{v+1} = z D_v - v D_{v-1} as
    v -> -infinity (for z > 0), so an arbitrary seed far below nu,
    recursed upward and normalized at an accurately-known anchor order,
    converges onto it (Miller's algorithm).  The anchor is the chain
    point in [0, 4) whose direct series evaluation reports the smallest
    relative error estimate.
    """
    m0 = int(math.ceil(-nu))
    best = None
    for extra in range(4):
        na = nu + m0 + extra
        r = _pcf_series(na, z)
        q = r.est_abs_error / abs(r.value) if r.value != 0.0 else math.inf
        if best is None or q < best[2]:
            best = (na, r, q)
    na, anchor, anchor_rel = best
    # seed depth: contaminating solution suppressed by exp(2 z dsqrt) >= 1e20
    dsqrt = 46.0 / (2.0 * z)
    nus_target = -((math.sqrt(max(-nu, 1.0)) + dsqrt) ** 2)
    length = max(int(math.ceil(na - nus_target)) + 2, m0 + 6)
    j_nu = length - (m0 + int(round(na - (nu + m0))))  # index of nu on the chain
    v = na - length
    prev, cur = 0.0, 1e-280
    val_nu = None
    j = 0
    while j < length:
        nxt = z * cur - v * prev
        prev, cur = cur, nxt
        v += 1.0
        j += 1
        if j == j_nu:
            val_nu = cur
        if abs(cur) > 1e250:
            prev *= 1e-250
            cur *= 1e-250
            if val_nu is not None:
                val_nu *= 1e-250
    scale = anchor.value / cur
    value = val_nu * scale
    est = abs(value) * (anchor_rel + 1e-18 + 8.0 * _EPS * length)
    return EvalResult(value, est)


def _pcf_check(nu, z, name):
    """DomainError unless D_nu(z)'s arguments are finite and in its domain."""
    if not (math.isfinite(nu) and math.isfinite(z)):
        raise DomainError(f"{name} arguments must be finite, got nu = {nu}, z = {z}")
    if abs(z) > 20.0:
        raise DomainError(f"{name} restricted to |z| <= 20, got z = {z}")
    if abs(nu) > 60.0:
        raise DomainError(f"{name} restricted to |nu| <= 60, got nu = {nu}")


def _pcf_takes_miller(nu, z):
    """True when pcf_d(nu, z) takes the Miller route."""
    if z > 0.0 and nu < 1.0 and not (nu >= 0.0 and nu == math.floor(nu)):
        # nonneg integer orders terminate exactly; everything else below
        # the anchor band goes through Miller once cancellation bites
        cancel_exp = 0.5 * z * z + z * math.sqrt(max(0.0, -2.0 * nu))
        return cancel_exp > 10.0
    return False


def pcf_d(nu: float, z: float) -> EvalResult:
    """Parabolic cylinder D_nu(z).

    Primary route is the two-term Kummer representation
    D_nu(z) = 2^(nu/2) e^(-z^2/4) sqrt(pi) [ rgamma((1-nu)/2) M(-nu/2, 1/2, z^2/2)
              - sqrt(2) z rgamma(-nu/2) M((1-nu)/2, 3/2, z^2/2) ],
    which is entire in z.  For strongly negative nu with z > 0 the two
    terms cancel catastrophically (the value is exponentially small), so
    that regime switches to Miller-normalized upward recurrence in nu.
    Against 40-digit references with nu in [-5, 10], the relative error
    is below 1e-8 for 0 <= z < 7, up to 5e-6 on [7, 8), 0.1 on [8, 9) and
    160 on [9, 10]; est_abs_error bounds it throughout.  The domain is
    |z| <= 20, where the Kummer argument z^2/2 stays within kummer_m's
    |z| <= 200, and |nu| <= 60; non-finite arguments raise DomainError too.
    """
    _pcf_check(nu, z, "pcf_d")
    if _pcf_takes_miller(nu, z):
        return _pcf_miller(nu, z)
    return _pcf_series(nu, z)


def pcf_d_pair(nu: float, z: float):
    """(pcf_d(nu, z), pcf_d(nu, -z)), equal to those two calls bit for bit.

    When neither sign takes the Miller route, both come from one Kummer
    pair: the two series, the two rgamma values and the prefactor are
    shared, and only the sign of the z-odd term differs.  Otherwise this
    is the two pcf_d calls.  The domain is pcf_d's.
    """
    _pcf_check(nu, z, "pcf_d_pair")
    if _pcf_takes_miller(nu, abs(z)):
        return pcf_d(nu, z), pcf_d(nu, -z)
    pref, t1, t2, est = _pcf_terms(nu, z)
    return EvalResult(pref * (t1 - t2), est), EvalResult(pref * (t1 - (-t2)), est)


# ----------------------------------------------------------------------
# Airy functions
# ----------------------------------------------------------------------

_AI0 = 0.3550280538878172     # Ai(0)
_AIP0 = -0.2588194037928068   # Ai'(0)
_SQRT3 = 1.7320508075688772

_AIRY_SERIES_CUT = 7.0   # Maclaurin series window
_AIRY_K_MIN = 4.0        # Ai, Ai' from the K-integrals for x above this
_AIRY_K_STEP = 0.15625   # trapezoid step in t, exact in binary
_AIRY_DOMAIN = 25.0


def _airy_ai_k(x):
    """Ai and Ai' for x > 0 from Ai = sqrt(x/3) K_1/3(zeta) / pi and
    Ai' = -x K_2/3(zeta) / (pi sqrt(3)), zeta = 2/3 x^1.5 (DLMF 9.6.1),
    with K_nu(zeta) = int_0^inf exp(-zeta cosh t) cosh(nu t) dt (DLMF
    10.32.9) by the trapezoid rule.  Every term is positive, so nothing
    cancels; the rule converges exponentially on this integrand
    (Trefethen and Weideman, SIAM Rev. 56, 2014): at this step its
    error, about exp(zeta - pi^2 / h) relative, is below 1e-21 for
    zeta <= 12.4, i.e. x <= 7.  Returns (Ai, Ai', rel).  rel bounds the
    relative error: exp's argument carries a rounding that grows with
    zeta, and the sum one per node.  It bounds the series Bi and Bi' up
    to x = 7 too, whose largest terms, near k = zeta / 2, carry about 2k
    roundings each.
    """
    zeta = 2.0 / 3.0 * x ** 1.5
    h = _AIRY_K_STEP
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


# (3k, (3k)(3k - 1), 3k + 1, (3k)(3k + 1)) for k = 1..79: small integers,
# so each entry is exact and equals the product the series would form
_AIRY_K = tuple((3.0 * k, (3.0 * k) * (3.0 * k - 1.0), 3.0 * k + 1.0,
                 (3.0 * k) * (3.0 * k + 1.0)) for k in range(1, 80))


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
def _asym_uv(max_k=60):
    us, vs = [1.0], [1.0]
    u = 1.0
    for k in range(1, max_k):
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


def _asym_sums(zeta, signed):
    """sum u_k s^k / zeta^k and companion v-sum, with truncation estimate.

    signed=True alternates the sign (the e^{-zeta} expansions); stops at
    the smallest term.  Returns (Su, Sv, trunc_rel).
    """
    s = -1.0 if signed else 1.0
    su = sv = 1.0
    prev = 1.0
    trunc = 0.0
    p = 1.0
    for k in range(1, len(_ASYM_U)):
        p *= s / zeta
        tu = _ASYM_U[k] * p
        if abs(tu) >= prev:  # divergence point reached
            trunc = abs(tu)
            break
        su += tu
        sv += _ASYM_V[k] * p
        prev = abs(tu)
        trunc = abs(tu)
        if abs(tu) < 1e-18:
            break
    return su, sv, trunc


def _airy_asym_pos(x):
    """Exponential-form expansions for x > series cut."""
    zeta = 2.0 / 3.0 * x ** 1.5
    q = x ** 0.25
    su_m, sv_m, tr_m = _asym_sums(zeta, signed=True)
    su_p, sv_p, tr_p = _asym_sums(zeta, signed=False)
    em = math.exp(-zeta)
    ep = math.exp(zeta)
    ai = 0.5 * em / (_SQRT_PI * q) * su_m
    aip = -0.5 * q * em / _SQRT_PI * sv_m
    bi = ep / (_SQRT_PI * q) * su_p
    bip = q * ep / _SQRT_PI * sv_p
    # eps*zeta covers the rounding of the exponential's argument
    rel = 2.0 * max(tr_m, tr_p) + (4.0 + 2.0 * zeta) * _EPS
    return (ai, aip, bi, bip, rel)


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
    """(Ai, Ai', Bi, Bi') at x, each an EvalResult."""
    if math.isnan(x) or abs(x) > _AIRY_DOMAIN:
        raise DomainError(f"airy functions restricted to |x| <= {_AIRY_DOMAIN}, got {x}")
    if x > _AIRY_SERIES_CUT:
        ai, aip, bi, bip, rel = _airy_asym_pos(x)
        return (
            EvalResult(ai, abs(ai) * rel),
            EvalResult(aip, abs(aip) * rel),
            EvalResult(bi, abs(bi) * rel),
            EvalResult(bip, abs(bip) * rel),
        )
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

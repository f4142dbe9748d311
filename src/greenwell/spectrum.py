"""Pole-free characteristic functions and bound-state root finding.

Each potential family gets a real function of its natural dimensionless
energy variable (eps for the quadratic families, rho for the linear
ones) whose zeros are exactly the bound states.  Poles of the Green
functions are cleared with the entire reciprocal-Gamma, so every
function here is finite and smooth across its scan window.

The conditions of the piecewise wells are resolvent's one match at
x = 0 of the two sides' branches: the asymmetric wells' conditions are
its Wronskian W, the |x| and HO+|x| parity factors the value and slope
at 0 of their one branch, read through resolvent's kept build, and the
decorated |x| condition reads that branch's continuation.  So no
condition is written here, and this module keeps no state.

Root finding is deliberately simple and robust: one walk over a
fixed-step lattice brackets every sign change and refines it by
bisection (_walked; find_roots is that walk with no level count), with
oracle._bisect, the package's one float halving (see oracle).  The
CLI's levels and sweeps check their scans against an FD Sturm count of
the levels between two lattice points (checked_roots), and a sweep
hands that count to the walk, which crosses the part it counts in
coarse cells where the count pins them (see `sweep`).
A default-window scan of a delta-decorated well starts at the well's
energy floor, the free-delta bound E >= -m a^2 / (2 hbar^2) (E > 0 for
a >= 0), not at the window's low edge: no level lies below it.  Tangential
(non-sign-changing) roots are not detected; the only known candidates
are parameter-limit coincidences (e.g. the two factor families of a
symmetric well merging at beta = 1), which are handled by the parent
family's characteristic function instead.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, replace

from . import oracle
from . import specfun as sf
from .model import (
    DELTA_DECORATED,
    HALF_HO_HALF_LINEAR,
    HO,
    HO_ASYM,
    HO_PLUS_ABS,
    HO_STARK,
    LINEAR_ABS,
    LINEAR_ASYM,
    PotentialFamily,
    with_scales,
)
from .resolvent import _Airy, _Weber, _airy0, _kept, _weber0, _wronskian

__all__ = [
    "CharacteristicFunction",
    "Root",
    "SpectrumResult",
    "SweepError",
    "SweepResult",
    "chi_ho",
    "levels_ho_stark",
    "chi_asym_ho",
    "chi_linear_even",
    "chi_linear_odd",
    "chi_asym_linear",
    "chi_half_half",
    "chi_ho_plus_abs_even",
    "chi_ho_plus_abs_odd",
    "chi_delta_ho",
    "chi_delta_linear",
    "build_chi",
    "find_roots",
    "sweep",
    "SWEEP_PARAMS",
]

_BRACKET_WIDTH = 2.5e-13
# the default scan step: find_roots, sweep and every CLI scan
_STEP = 0.005


# ----------------------------------------------------------------------
# characteristic functions
# ----------------------------------------------------------------------


def chi_ho(eps: float) -> float:
    """Zero exactly at eps = n + 1/2 (reciprocal-Gamma form); finite up to
    eps = 171.59, past which 1/Gamma(1/2 - eps) leaves the float range.
    For eps <= -1/2, where 1/Gamma(1/2 - eps) is positive (1 at -1/2) and
    underflows past eps = -171, it is 1.0: no level lies there."""
    return sf.rgamma(0.5 - eps) if eps > -0.5 else 1.0


def levels_ho_stark(n: int, scales) -> float:
    """Analytic Stark-shifted levels eps_n = n + 1/2 - (mu phi / 2)^2 of
    the well's model.PhysicalScales."""
    if n < 0:
        raise ValueError("level index must be >= 0")
    return n + 0.5 - scales.shift


def chi_asym_ho(eps: float, lam: float) -> float:
    """Two-frequency condition, W of the Weber branches D(mu2 x), order
    lam eps - 1/2, and D(-mu1 x), order eps - 1/2 (mu1 / mu2 = sqrt(lam)):

    sqrt(2) [1/(G(1/4 - lam eps/2) G(3/4 - eps/2))
             + sqrt(lam)/(G(1/4 - eps/2) G(3/4 - lam eps/2))] = 0.
    """
    if lam <= 0.0:
        raise ValueError("lam must be positive")
    return _wronskian(_weber0(lam * eps), _weber0(eps), math.sqrt(lam))


def chi_linear_even(rho: float) -> float:
    """Even states of the |x| well: zeros of Ai'(-rho)."""
    return _kept(_Airy, rho, None).slope0


def chi_linear_odd(rho: float) -> float:
    """Odd states of the |x| well: zeros of Ai(-rho)."""
    return _kept(_Airy, rho, None).value0


def chi_asym_linear(rho: float, beta: float) -> float:
    """Two-slope condition, W of the Airy branches Ai(zeta2 x - rho beta^2)
    and Ai(-zeta1 x - rho) (zeta1 / zeta2 = beta), entire in rho:

    -[Ai(-rho) Ai'(-rho beta^2) + beta Ai(-rho beta^2) Ai'(-rho)] = 0.
    """
    if beta <= 0.0:
        raise ValueError("beta must be positive")
    return _wronskian(_airy0(rho * beta * beta), _airy0(rho), beta)


def chi_half_half(eps: float, xi: float) -> float:
    """Half-oscillator/half-linear condition, W of the Airy branch
    Ai(zeta x - xi^2 eps) and the Weber branch D(-mu x), order eps - 1/2;
    mu / zeta = xi, so no other scale enters, at any hbar and mass:

    sqrt(2) xi Ai(-xi^2 eps)/Gamma(1/4 - eps/2)
        - Ai'(-xi^2 eps)/Gamma(3/4 - eps/2) = 0.
    """
    if xi <= 0.0:
        raise ValueError("xi must be positive")
    return _wronskian(_airy0(xi * xi * eps), _weber0(eps), xi)


def chi_ho_plus_abs_odd(eps: float, scales) -> float:
    """Odd factor D_{sigma-1/2}(mu phi) = 0, as a function of eps."""
    return _kept(_Weber, eps, scales).value0


def chi_ho_plus_abs_even(eps: float, scales) -> float:
    """Even factor mu phi D_{sigma-1/2}(mu phi) - 2 D_{sigma+1/2}(mu phi) = 0."""
    return 2.0 * _kept(_Weber, eps, scales).slope0


def chi_delta_ho(eps: float, tau: float, p: float) -> float:
    """Delta-decorated oscillator condition G(q,q;E) = -1/a, pole-cleared:

    tau D_{eps-1/2}(p) D_{eps-1/2}(-p) + 1/Gamma(1/2 - eps) = 0.
    """
    d_plus, d_minus, rg, _ = sf.pcf_d_pair(eps - 0.5, p)
    return tau * d_plus * d_minus + rg


def chi_delta_linear(rho: float, eta: float, zeta_q: float) -> float:
    """Delta-decorated |x| well condition G(q,q;E) = -1/a, pole-cleared:

    eta u(zq) v(zq) - Ai(-rho) Ai'(-rho) = 0,

    with u and v(t) = u(-t) the |x| well's Airy mirror pair at t = zeta x:
    v is the left-decaying solution continued to t = zeta q >= 0.  The
    widely quoted product form with Ai(-zq - rho) in place of v drops
    the Bi component the continuation generates and is exact only at
    q = 0 (where v(0) = Ai(-rho)).  Entire in rho.
    """
    if zeta_q < 0.0:
        raise ValueError("zeta_q must be >= 0 (the condition is q-symmetric)")
    br = _Airy(rho)
    return eta * br.value(zeta_q) * br.continued(zeta_q) - br.value0 * br.slope0


# ----------------------------------------------------------------------
# root containers
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Root:
    index: int
    value: float
    bracket: tuple
    residual: float       # |chi(value)| / local scan scale
    parity: str | None = None


@dataclass
class SpectrumResult:
    roots: list

    def values(self):
        return [r.value for r in self.roots]


@dataclass(frozen=True)
class CharacteristicFunction:
    """The pole-free scan targets of one family.

    factors are (parity_label, callable) pairs, each mapping the
    dimensionless energy to a real value and scanned separately, so
    roots come back parity-labeled; a family with a single condition
    has one factor with parity None.  floor is a lower bound on every
    root; a default-window scan starts there.
    """

    window: tuple
    factors: tuple
    floor: float = -math.inf


def build_chi(family: PotentialFamily) -> CharacteristicFunction:
    """Wire the family's characteristic function with its default window.

    Default windows span (0, 12] in the natural energy variable, widened
    downward for families whose spectrum can start below zero (Stark
    shift, attractive delta) and capped where the largest Airy argument
    reaches specfun._AIRY_DOMAIN - 0.5 (large beta or xi).  Delta-decorated
    wells carry their energy floor: H >= T + a delta + min V with
    min V = 0 for both bases, so E >= -m a^2 / (2 hbar^2) when a < 0
    (the free-delta bound state) and E > 0 otherwise.  A floor below
    the default low edge (eps = -50, rho = -24) becomes the low edge, so
    a default-window scan reaches every level.
    """
    tag = family.tag
    s = family.scales
    if tag == HO:
        return CharacteristicFunction((1e-6, 12.0), ((None, chi_ho),))
    if tag == HO_STARK:
        # the shifted oscillator: zero at eps = n + 1/2 - (mu phi/2)^2
        return CharacteristicFunction(
            (-s.shift - 1.0, 12.0), ((None, lambda e: chi_ho(e + s.shift)),))
    if tag == HO_ASYM:
        return CharacteristicFunction(
            (1e-6, 12.0), ((None, lambda e: chi_asym_ho(e, s.lam)),))
    if tag == LINEAR_ABS:
        return CharacteristicFunction(
            (1e-6, 12.0), (("even", chi_linear_even), ("odd", chi_linear_odd)))
    if tag == LINEAR_ASYM:
        # both rho and rho beta^2 must stay inside the Airy domain
        top = min(12.0, (sf._AIRY_DOMAIN - 0.5) / max(1.0, s.beta * s.beta))
        return CharacteristicFunction(
            (1e-6, top), ((None, lambda r: chi_asym_linear(r, s.beta)),))
    if tag == HALF_HO_HALF_LINEAR:
        top = min(12.0, (sf._AIRY_DOMAIN - 0.5) / (s.xi * s.xi))  # Airy argument is xi^2 eps
        return CharacteristicFunction(
            (1e-6, top), ((None, lambda e: chi_half_half(e, s.xi)),))
    if tag == HO_PLUS_ABS:
        # the factors never vanish together for mu phi > 0
        return CharacteristicFunction(
            (1e-6, 12.0), (("even", lambda e: chi_ho_plus_abs_even(e, s)),
                           ("odd", lambda e: chi_ho_plus_abs_odd(e, s))))
    if tag == DELTA_DECORATED:
        a = s.delta_strength
        floor = family.natural_energy(-s.mass * a * a / (2.0 * s.hbar ** 2) if a < 0.0 else 0.0)
        if family.base == HO:
            return CharacteristicFunction(
                (min(-50.0, floor), 12.0), ((None, lambda e: chi_delta_ho(e, s.tau, s.p)),),
                floor=floor)
        zq = s.zeta * abs(s.delta_position)  # the |x| well is even in q
        return CharacteristicFunction(
            (min(-24.0, floor), 12.0), ((None, lambda r: chi_delta_linear(r, s.eta, zq)),),
            floor=floor)
    raise ValueError(f"no characteristic function for family {tag!r}")


def _default_chi(family):
    """build_chi(family), or DomainError when its default window is empty: the
    Airy cap of LINEAR_ASYM (large beta) or HALF_HO_HALF_LINEAR (large xi) below its low edge."""
    chi = build_chi(family)
    lo, hi = chi.window
    if not lo < hi:
        raise sf.DomainError(f"{family.name}: the Airy domain caps the default window at "
                             f"{hi:.6g}, below its low edge {lo:g}; give an explicit --window")
    return chi


# ----------------------------------------------------------------------
# scanning and refinement
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class _Lattice:
    """The scan lattice of a window: point i is lo for i = 0 and
    min(lo + i*step, hi) otherwise, and the scan walks the cells
    (point i-1, point i] for i = start+1 .. n_steps."""

    lo: float
    hi: float
    step: float
    start: int
    n_steps: int

    def point(self, i):
        return min(self.lo + i * self.step, self.hi) if i else self.lo


def _lattice_points(window, step):
    """The points of the lattice over `window` = (lo, hi): (hi - lo) / step
    cells rounded up, at least one, plus one; inf when the cells overflow."""
    cells = (window[1] - window[0]) / step
    return max(1, math.ceil(cells)) + 1 if math.isfinite(cells) else math.inf


def _lattice(chi, window, step):
    lo, hi = window if window is not None else chi.window
    points = _lattice_points((lo, hi), step) if step > 0.0 and lo < hi else math.inf
    if points == math.inf:
        raise sf.DomainError(f"window {(lo, hi)} at step {step!r} has no finite lattice: "
                             "it needs lo < hi, step > 0 and a finite (hi - lo) / step")
    floor = chi.floor if window is None else -math.inf
    lat = _Lattice(lo, hi, step, 0, points - 1)
    # the last point at or below the floor (point(i) never decreases), or
    # the low edge when the floor lies below it
    start = bisect.bisect_right(range(lat.n_steps + 1), floor, key=lat.point) - 1
    return replace(lat, start=max(0, start))


def _cell_root(factor, x_prev, x, f_prev, f):
    """(value, bracket, residual, parity) of the root in a sign-change
    cell (x_prev, x] of one factor: bisected to _BRACKET_WIDTH, with
    |chi(root)| normalized by the larger cell-end value."""
    parity, fn = factor
    scale = max(abs(f_prev), abs(f), 1e-300)
    b_lo, b_hi = oracle._bisect(fn, x_prev, x, f_prev, _BRACKET_WIDTH)
    root = 0.5 * (b_lo + b_hi)
    return root, (b_lo, b_hi), abs(fn(root)) / scale, parity


def find_roots(chi: CharacteristicFunction, window=None, step=_STEP,
               limit=None) -> SpectrumResult:
    """The sign-change roots of `chi`'s factors in the window at scan
    resolution `step`, in increasing order: all of them, or the lowest
    `limit`.

    Brackets are refined by bisection to width <= 2.5e-13; the stored
    residual is |chi(root)| normalized by the detection-bracket scale.
    Tangential roots (no sign change at resolution `step`) are not
    found.  This is the lattice walk (_walked) with no level count: it
    evaluates every factor at each point of the lattice lo + i*step in
    factor order, so the parity factors of a symmetric well share the
    special-function value both need, and bisects each factor's sign
    change in the cell just closed.  With `limit` it stops after the
    cell that holds the `limit`-th root.  Roots are ordered by one
    stable sort on value, so ties keep factor order.  Without `window`
    the scan covers `chi.window` from the last lattice point at or below
    `chi.floor`; every point, bracket and residual is the one a scan of
    the whole window gives.  An explicit window is scanned from its low
    edge.  An empty window, a step that is not positive and a lattice
    whose point count is not finite (an infinite edge or floor) raise
    specfun.DomainError naming the window and the step.
    """
    return _walked(chi, _lattice(chi, window, step), limit=limit)


# ----------------------------------------------------------------------
# parameter sweeps
# ----------------------------------------------------------------------


class SweepError(ValueError):
    """A sweep parameter that does not fit the family, or a value outside
    the parameter's domain."""


def _positive(name, value):
    if not value > 0.0:
        raise SweepError(f"sweep values of {name!r} must be > 0, got {value}")


# sweep parameter -> (family tag, base tag, function(family, value) -> family)


def _sweep_lam(fam, lam):
    _positive("lam", lam)
    return with_scales(fam, omega2=fam.scales.omega1 / lam)


def _sweep_beta(fam, beta):
    _positive("beta", beta)
    return with_scales(fam, alpha2=fam.scales.alpha1 / beta)


def _sweep_xi(fam, xi):
    _positive("xi", xi)
    return with_scales(fam, alpha1=fam.scales.alpha_ho / xi)


def _sweep_muphi(fam, t):
    if not t >= 0.0:
        raise SweepError(f"sweep values of 'muphi' must be >= 0, got {t}")
    s = fam.scales
    a1 = (t / s.mu * s.mass * s.omega1 ** 2) ** (1.0 / 3.0)
    return with_scales(fam, alpha1=a1)


def _sweep_tau(fam, tau):
    return with_scales(fam, delta_strength=tau / fam.scales.ho_norm)


def _sweep_p(fam, p):
    return with_scales(fam, delta_position=p / fam.scales.mu)


SWEEP_PARAMS = {
    "lam": (HO_ASYM, None, _sweep_lam),
    "beta": (LINEAR_ASYM, None, _sweep_beta),
    "xi": (HALF_HO_HALF_LINEAR, None, _sweep_xi),
    "muphi": (HO_PLUS_ABS, None, _sweep_muphi),
    "tau": (DELTA_DECORATED, HO, _sweep_tau),
    "p": (DELTA_DECORATED, HO, _sweep_p),
}


@dataclass
class SweepResult:
    rows: list          # (param_value, root_index, energy_value)
    breaks: list        # parameter values where the in-window root count changed


# The level-count certificate: oracle.operator_for's FD operator of
# _CERT_POINTS points, and a margin of _CERT_MARGIN natural units
# around each window edge.  tests/test_spectrum.py checks that every FD
# level of each sweep family lies within _CERT_MARGIN / 5 of its
# closed-form level on this grid, at the default and the benchmark
# windows.
_CERT_POINTS = 1500
_CERT_MARGIN = 0.1
# inward strides of _CERT_MARGIN tried for each end of the counted part
_CERT_TRIES = 4


def _fd_counts(op, energy, x, tol=_CERT_MARGIN / 5):
    """(FD levels below x - tol, below x + tol) in natural units, `energy`
    the map to E; tol defaults to the FD error the tests bound."""
    return tuple(oracle.eigenvalue_count_below(op, energy(x + d)) for d in (-tol, tol))


class _LevelCount:
    """The number of levels in an inner part (point i_lo, point i_hi] of
    the scan domain, from FD Sturm counts.  Each end is the lattice
    point nearest to its window edge, at most _CERT_TRIES - 1 strides of
    _CERT_MARGIN in, with no FD level within _CERT_MARGIN of it, so every
    FD level counted stands for a closed-form level on the same side of
    that point.  The strips between the ends and the window edges hold
    what a scan of their cells finds."""

    def __init__(self, op, energy, i_lo, i_hi, below_lo, count):
        self.op, self.energy = op, energy  # natural energy variable -> E
        self.i_lo, self.i_hi = i_lo, i_hi
        self.below_lo = below_lo  # FD levels below point i_lo
        self.count = count  # levels in (point i_lo, point i_hi]

    @classmethod
    def build(cls, family, lat):
        """The count for `family` on lattice `lat`, or None when no end is
        clear of FD levels or the FD grid cannot be built."""
        try:
            op = oracle.operator_for(family, family.energy(lat.hi + _CERT_MARGIN), _CERT_POINTS)
        except (oracle.WallError, OverflowError):  # no finite walls, or V overflows
            return None
        stride = max(1, round(_CERT_MARGIN / lat.step))
        ends = []
        for edge, inward in ((lat.start, stride), (lat.n_steps, -stride)):
            for k in range(_CERT_TRIES):
                i = edge + k * inward
                if lat.start <= i <= lat.n_steps:
                    low, high = _fd_counts(op, family.energy, lat.point(i), _CERT_MARGIN)
                    if low == high:  # no FD level within the margin of point i
                        ends.append((i, low))
                        break
            else:
                return None
        (i_lo, n_lo), (i_hi, n_hi) = ends
        if i_lo >= i_hi:
            return None
        return cls(op, family.energy, i_lo, i_hi, n_lo, n_hi - n_lo)

    def inner(self, lat, roots):
        """The roots that lie in the counted part of the lattice."""
        x_lo, x_hi = lat.point(self.i_lo), lat.point(self.i_hi)
        return [r for r in roots if x_lo < r.value <= x_hi]

    def agrees_at_ends(self, lat, roots):
        """Whether the lowest and the highest root of the counted part lie
        within the tested FD error of the first and the last FD level
        counted there.  The count assumes that error; this checks it
        where a miscount would show first, so that outside the tested
        families, scales and windows a count is not trusted blindly."""
        inner = self.inner(lat, roots)
        first, last = self.below_lo + 1, self.below_lo + self.count
        return not inner or all(_fd_counts(self.op, self.energy, r.value) == (n - 1, n)
                                for r, n in ((inner[0], first), (inner[-1], last)))

    def agrees_with_each(self, roots):
        """Whether every root lies within the tested FD error of some FD
        level: then a count that differs from the roots' does not come
        from an FD grid too coarse for its margin."""
        return all(low < high for low, high in
                   (_fd_counts(self.op, self.energy, r.value) for r in roots))


def _not_finite(x):
    return ArithmeticError(f"characteristic function not finite at {x}")


def _finite(fn, x):
    """fn(x), or ArithmeticError when it is not finite."""
    f = fn(x)
    if not math.isfinite(f):
        raise _not_finite(x)
    return f


def _scan(chi, lat, start, end, fs, found, stop):
    """Walk the plain cells (point start, point start+1], ..., (point
    end - 1, point end] of `lat`, with `fs` the factors' values at point
    start: every factor at each point in factor order, then, in the same
    order, a value exactly 0 is a root at that point and a sign change
    between nonzero ends is bisected (_cell_root), the roots appended to
    `found`.  The walk stops after the point where `found` reaches
    `stop` roots; fs is left with the values at the last point walked.

    Every lattice value outside a counted part goes through this loop,
    so it keeps to the values: the point min(lo + i*step, hi) written
    out, the values updated in place, and the root and limit tests
    behind one product test, f * f_prev <= 0.0, which every zero and
    sign change passes (so does a product that underflows to 0; the
    exact test then sorts it out)."""
    fns = [fn for _, fn in chi.factors]
    factors = range(len(fns))
    lo, hi, step, inf = lat.lo, lat.hi, lat.step, math.inf
    x_prev = lat.point(start)
    ends = []  # (factor, value at x_prev, value at x) of the cells to look at
    for i in range(start + 1, end + 1):
        x = lo + i * step
        if hi < x:
            x = hi
        for j in factors:
            f = fns[j](x)
            if not -inf < f < inf:
                raise _not_finite(x)
            if f * fs[j] <= 0.0:
                ends.append((j, fs[j], f))
            fs[j] = f
        if ends:  # once every factor has its value at x: a bisection replaces their shared build
            for j, f_prev, f in ends:
                if f == 0.0:
                    found.append((x, (x - 0.5 * _BRACKET_WIDTH, x + 0.5 * _BRACKET_WIDTH), 0.0,
                                  chi.factors[j][0]))
                elif f_prev != 0.0 and (f_prev < 0.0) != (f < 0.0):
                    found.append(_cell_root(chi.factors[j], x_prev, x, f_prev, f))
            ends.clear()
            if len(found) >= stop:
                break
        x_prev = x


def _counted(chi, lat, cert, fs):
    """(roots, values at point i_hi) of the part (point i_lo, point i_hi]
    that the level count `cert` covers, with `fs` the factors' values at
    point i_lo, or None when the count does not pin every cell (see
    _walked)."""
    i_lo, i_hi, count = cert.i_lo, cert.i_hi, cert.count
    known = [{i_lo: f} for f in fs]  # lattice index -> value, per factor

    def value(j, i):
        f = known[j].get(i)
        if f is None:
            f = known[j][i] = _finite(chi.factors[j][1], lat.point(i))
        return f

    def changes(j, a, b):
        return (value(j, a) < 0.0) != (value(j, b) < 0.0)

    stride = max(1, (i_hi - i_lo) // (2 * count + 2))
    cells = []  # (index of the cell's upper end, factor)
    for a in range(i_lo, i_hi, stride):
        b = min(a + stride, i_hi)
        for j in [j for j in range(len(fs)) if changes(j, a, b)]:
            # a lattice cell (c - 1, c] of (a, b] where the factor changes sign
            cells.append((bisect.bisect_left(range(b + 1), True, a + 1,
                                             key=lambda i: changes(j, a, i)), j))
    if len(cells) != count or any(0.0 in values.values() for values in known):
        return None
    return ([_cell_root(chi.factors[j], lat.point(c - 1), lat.point(c),
                        known[j][c - 1], known[j][c]) for c, j in sorted(cells)],
            [values[i_hi] for values in known])


def _walked(chi, lat, cert=None, limit=None):
    """The roots of `chi`'s factors on lattice `lat`, as find_roots gives
    them, or None when the level count `cert` (a _LevelCount) does not
    pin every cell of the part it counts.

    The walk visits the cells (point i-1, point i] in lattice order.
    Outside the counted part (point i_lo, point i_hi], which is empty
    when there is no count, it evaluates every factor at each point in
    factor order: a factor exactly 0 at a point has a root there, and a
    sign change between nonzero ends is bisected (_cell_root; the loop
    is _scan).  With `limit` it stops after the cell of the `limit`-th
    root.  A value that is not finite raises ArithmeticError.

    The counted part, which holds N = cert.count levels, is cut into
    coarse cells of (i_hi - i_lo) // (2N + 2) lattice cells (at least
    one), about half its mean level spacing.  A factor whose values at a
    coarse cell's ends differ in sign has an odd number of levels there,
    so when N (factor, coarse cell) pairs change sign, each holds exactly
    one level and no other pair holds any.  Then the one lattice cell of
    such a pair that changes sign, found by bisecting on lattice indices,
    is the cell a scan finds, and every other cell of the counted part
    changes sign for no factor; each found cell is bisected as the scan
    bisects it, so the roots are the scan's.  Any other number of sign
    changes gives None, and so does a factor exactly 0 at a point of the
    counted part, which the scan handles on its own terms (_counted).
    Every lattice value is computed once.
    """
    found = []  # (value, bracket, residual, parity), cell by cell in factor order
    stop = math.inf if limit is None else limit
    x = lat.point(lat.start)
    fs = [_finite(fn, x) for _, fn in chi.factors]
    if stop > 0:
        _scan(chi, lat, lat.start, lat.n_steps if cert is None else cert.i_lo, fs, found, stop)
    if cert is not None and len(found) < stop:
        counted = _counted(chi, lat, cert, fs)
        if counted is None:
            return None
        roots, fs = counted
        found += roots
        if len(found) < stop:
            _scan(chi, lat, cert.i_hi, lat.n_steps, fs, found, stop)
    found.sort(key=lambda t: t[0])  # stable, so ties keep factor order
    return SpectrumResult([Root(n, *t) for n, t in enumerate(found[:limit])])


def checked_roots(family, window, step, where, walk=False):
    """The roots find_roots(build_chi(family), window, step) gives,
    checked against the FD level count (_LevelCount) on that lattice
    where one can be built; with `walk`, found from the count where it
    pins them (see `sweep`).  A scan that finds another number of levels
    in the counted part while every root lies next to an FD level has
    lost levels (roots closer than `step`): ArithmeticError names `where`.
    An empty default window raises _default_chi's DomainError first."""
    chi = _default_chi(family) if window is None else build_chi(family)
    lat = _lattice(chi, window, step)
    cert = _LevelCount.build(family, lat)
    if walk and cert is not None:
        try:
            res = _walked(chi, lat, cert)
        except (ValueError, ArithmeticError):  # the scan fails or not as before
            res = None
        if res is not None and cert.agrees_at_ends(lat, res.roots):
            return res
    res = find_roots(chi, window=window, step=step)
    if cert is not None:
        got = len(cert.inner(lat, res.roots))
        if got != cert.count and cert.agrees_with_each(res.roots):
            raise ArithmeticError(f"{where}: the scan found {got} level(s) "
                                  f"where the FD count certifies {cert.count}")
    return res


def _swept(family, param_name, values):
    """(value, family at that value) for each of `values`, or sweep's SweepError."""
    try:
        tag_req, base_req, apply = SWEEP_PARAMS[param_name]
    except KeyError:
        raise SweepError(f"unknown sweep parameter {param_name!r}; "
                         f"one of {sorted(SWEEP_PARAMS)}") from None
    if family.tag != tag_req or (base_req is not None and family.base != base_req):
        raise SweepError(
            f"sweep parameter {param_name!r} applies to {tag_req}"
            + (f"({base_req})" if base_req else "") + f", not {family.tag}")
    return [(v, apply(family, v)) for v in values]


def sweep(family: PotentialFamily, param_name: str, values, window=None,
          step=_STEP) -> SweepResult:
    """The roots at each parameter value as rows, with index-continuity assembly.

    Each value's roots are the ones find_roots(build_chi(...), window,
    step) gives, bit for bit, each found independently.  The lattice walk
    (_walked) crosses the part of the lattice an FD level count
    (_LevelCount) covers in coarse cells; a value is scanned instead
    when it has no count, when the walk finds another number of sign
    changes or an exact zero in the counted part, when an evaluation
    fails, or when its lowest or highest root is not next to its FD
    level.  checked_roots checks that scan against the count, and its
    ArithmeticError names the parameter value.

    Roots of adjacent parameter values are matched in sorted order
    (curves of these families do not cross); a change of the in-window
    root count is recorded in `breaks` and the curves re-indexed from
    the new count.  Rows come back ordered by (param_value, root_index)
    regardless of internal evaluation order.  Raises SweepError, before
    any scan, when the parameter does not fit the family or a value lies
    outside its domain, and DomainError (checked_roots) when a value's
    default window is empty.
    """
    rows = []
    breaks = []
    prev_count = None
    for v, fam_v in _swept(family, param_name, values):
        res = checked_roots(fam_v, window, step, f"sweep at {param_name} = {v:.12g}", walk=True)
        if prev_count is not None and len(res.roots) != prev_count:
            breaks.append(v)
        prev_count = len(res.roots)
        for r in res.roots:
            rows.append((v, r.index, r.value))
    return SweepResult(rows, breaks)

"""Independent finite-difference eigensolver and resolvent oracle.

Discretizes any potential family on a uniform grid with hard Dirichlet
walls at +-L, producing a symmetric tridiagonal operator.  Eigenvalues
come from Sturm-sequence sign-count bisection (no external eigensolver,
keeping this module genuinely independent of the closed forms it
checks); fixed-energy resolvent columns come from a direct tridiagonal
solve of (H - E) g = delta_h.

_bisect is the package's one float halving, for these eigenvalues, the
walls and spectrum's roots alike, and operator_for the one box and
operator: verify and spectrum's level-count certificate both take it.
Both live here because spectrum imports this module, which imports
none of the closed forms.

Delta terms are represented as a/h added to the diagonal at the node
nearest q.  That is the simplest O(h)-consistent scheme; tolerances of
the comparisons against closed forms are sized for it, and a two-grid
Richardson check in the test-suite guards the systematic error.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from functools import cached_property

from .model import DELTA_DECORATED, PotentialFamily, potential_value

__all__ = [
    "GridSpec",
    "TridiagonalOperator",
    "WallError",
    "NearEigenvalueError",
    "discretize",
    "auto_grid",
    "operator_for",
    "lowest_eigenvalues",
    "eigenvalue_count_below",
    "resolvent_solve",
]


class WallError(ValueError):
    """The Dirichlet walls sit too low for the requested energy range."""


class NearEigenvalueError(ArithmeticError):
    """Resolvent solve requested too close to an operator eigenvalue."""


@dataclass(frozen=True)
class GridSpec:
    half_width: float
    n_points: int  # interior points; walls at +-half_width excluded

    def __post_init__(self):
        if self.n_points < 100:
            raise ValueError(f"n_points must be >= 100, got {self.n_points}")
        if not (self.half_width > 0.0):
            raise ValueError("half_width must be positive")

    @property
    def h(self):
        return 2.0 * self.half_width / (self.n_points + 1)

    def node(self, i):
        return -self.half_width + (i + 1) * self.h

    def nearest_index(self, x):  # outside 0..n_points-1 for x outside the grid
        return int(round((x + self.half_width) / self.h)) - 1


# rows per block of TridiagonalOperator._floors: the minimum of every
# suffix would cost more to build (about 190 us at 1,500 rows) than the
# few counts a level-count certificate makes of one operator save
_FLOOR_ROWS = 64


@dataclass(frozen=True)
class TridiagonalOperator:
    """Symmetric tridiagonal H: diag entries hbar^2/(m h^2) + V(x_i) (+ delta),
    constant off-diagonal -hbar^2/(2 m h^2)."""

    diag: tuple
    off: float
    grid: GridSpec

    @property
    def n(self):
        return len(self.diag)

    def node(self, i):
        return self.grid.node(i)

    def nearest_index(self, x):
        return min(max(self.grid.nearest_index(x), 0), self.n - 1)

    @cached_property
    def _floors(self):
        """min(diag[k:]) at each k that is a multiple of _FLOOR_ROWS,
        computed once per operator (see eigenvalue_count_below)."""
        mins = [min(self.diag[k:k + _FLOOR_ROWS]) for k in range(0, self.n, _FLOOR_ROWS)]
        return list(itertools.accumulate(reversed(mins), min))[::-1]


def auto_grid(family: PotentialFamily, e_max: float, n_points: int) -> GridSpec:
    """The grid of operator_for's box (see there for the rule).  The
    search doubles L from the well bottom, |family.bottom|, and _bisect
    halves the last doubling to adjacent floats.  WallError when no
    finite L reaches the rule's level."""
    v = family.potential
    target = max(e_max, v(family.bottom)) + max(family.energy(10.0), 10.0)

    def above(x):  # < 0 inside the walls
        return min(v(-x), v(x)) - target

    inside = abs(family.bottom)
    step = 1.0
    while above(inside + step) < 0.0:
        step *= 2.0
    _, wall = _bisect(above, inside, inside + step, above(inside), 0.0)
    if not (math.isfinite(wall) and above(wall) >= 0.0):
        raise WallError(f"no finite L with V(+-L) >= {target:g}")
    return GridSpec(wall, n_points)


def discretize(family: PotentialFamily, grid: GridSpec, e_max: float = 0.0) -> TridiagonalOperator:
    """Three-point discretization of the family on `grid`.

    e_max is the largest eigenvalue the caller intends to trust; the
    walls must satisfy V(+-L) >= e_max + 10 or WallError is raised.
    """
    s = family.scales
    L = grid.half_width
    for wall in (-L, L):
        v_wall = potential_value(family, wall)
        if v_wall < e_max + 10.0:
            raise WallError(
                f"V({wall:+g}) = {v_wall:g} < e_max + 10 = {e_max + 10.0:g}; widen the grid"
            )
    h = grid.h
    c = s.hbar ** 2 / (s.mass * h * h)
    n = grid.n_points
    v = family.potential
    # GridSpec.node's expression, with h bound once
    diag = [c + v(-L + (i + 1) * h) for i in range(n)]
    if family.tag == DELTA_DECORATED:
        q = s.delta_position
        i_q = grid.nearest_index(q)
        if not (0 <= i_q < n):
            raise WallError(f"delta position {q} outside the grid")
        diag[i_q] += s.delta_strength / h
    return TridiagonalOperator(tuple(diag), -0.5 * c, grid)


def operator_for(family: PotentialFamily, e_max: float, n_points: int) -> TridiagonalOperator:
    """The package's one FD box and operator, for eigenvalues up to e_max
    (energy units) on n_points interior points.  The walls sit at the
    first float L where V(+-L) reaches 10 natural energy units above
    max(e_max, V(bottom)), or 10 energy units where the energy unit is
    below 1 (discretize's check V(+-L) >= e_max + 10); otherwise the box
    is the same in natural units at any scale with the same
    dimensionless parameters.  WallError where no finite L reaches that
    level, or where a decorated well's delta lies outside the box."""
    return discretize(family, auto_grid(family, e_max, n_points), e_max=e_max)


def eigenvalue_count_below(op: TridiagonalOperator, x: float, cap: int | None = None) -> int:
    """Number of eigenvalues of `op` strictly below x (Sturm sign count).

    With a cap (>= 0) the count stops at the cap-th negative pivot and
    returns min(number, cap): enough to decide whether the number
    reaches the cap, without walking the remaining rows.

    The count also stops, at a multiple of _FLOOR_ROWS rows, once every
    remaining row has diag - x > 2 b, b = |off| (1 + 1e-9), and the last
    pivot d walked is above b: then offsq / d < |off|, so the next pivot
    is above b again, and no later pivot is negative.  Rounding lies far
    inside the 1e-9.  The rows where diag - x > 2 b holds are found by
    bisection on the operator's block minima (_floors).
    """
    limit = op.n if cap is None else cap
    offsq = op.off * op.off
    big = abs(op.off) * (1.0 + 1e-9)
    # every row from `stop` on has diag - x > 2 big
    stop = _FLOOR_ROWS * bisect.bisect_right(op._floors, 2.0 * big, key=lambda m: m - x)
    count = 0
    d = math.inf  # offsq / d is 0 on the first row
    i = 0
    while count < limit:
        for a in op.diag[i:stop]:
            d = (a - x) - offsq / d
            if d <= 0.0:
                if d == 0.0:  # counted as negative; the next row divides by it
                    d = -1e-300
                count += 1
                if count >= limit:
                    break
        if d > big or stop >= op.n:
            break
        i, stop = stop, stop + _FLOOR_ROWS  # a pivot at most b: one block more
    return min(count, limit)


def _bisect(fn, lo, hi, f_lo, width):
    """The bracket of fn's sign change in (lo, hi), f_lo = fn(lo), halved to
    `width`, or to two adjacent floats where those lie more than `width`
    apart (|x| >= 2048 for width 2.5e-13, |x| >= 2^19 for width 1e-10).
    An exact zero at a midpoint gives the bracket of width / 2 around it."""
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:  # adjacent floats: the bracket cannot shrink
            break
        f_mid = fn(mid)
        if f_mid == 0.0:
            half = 0.25 * width
            return mid - half, mid + half
        if (f_lo < 0.0) != (f_mid < 0.0):
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return lo, hi


def lowest_eigenvalues(op: TridiagonalOperator, k: int):
    """The k smallest eigenvalues (k in 1..50), each the midpoint of its
    Sturm-count bracket, halved by _bisect from the Gershgorin bounds of
    the spectrum to width 1e-10, or to adjacent floats at |eigenvalue| >=
    2^19.  Each count for the j-th eigenvalue is capped at j, which
    decides the same halving as the full count."""
    if not (1 <= k <= 50):
        raise ValueError(f"k must be in 1..50, got {k}")
    tol = 1e-10
    lo0 = min(op.diag) - 2.0 * abs(op.off)
    hi0 = max(op.diag) + 2.0 * abs(op.off)
    out = []
    for j in range(1, k + 1):
        # -1 below the j-th eigenvalue, +1 at or above it, from above the (j-1)-th
        lo, hi = _bisect(lambda x: 1.0 if eigenvalue_count_below(op, x, cap=j) >= j else -1.0,
                         out[-1] - tol if out else lo0, hi0, -1.0, tol)
        out.append(0.5 * (lo + hi))
    return out


def resolvent_solve(op: TridiagonalOperator, energy: float, source_index: int):
    """Solve (H - E) g = delta_h with delta_h = 1/h at `source_index`.

    The returned grid vector is the FD approximation of G(., x_src; E).
    Raises NearEigenvalueError if E sits within 1e-6 of an operator
    eigenvalue (detected by Sturm counts at E +- 1e-6).
    """
    if not (0 <= source_index < op.n):
        raise ValueError(f"source_index {source_index} out of range")
    if eigenvalue_count_below(op, energy - 1e-6) != eigenvalue_count_below(op, energy + 1e-6):
        raise NearEigenvalueError(f"E = {energy} within 1e-6 of an eigenvalue of the operator")
    n = op.n
    off = op.off
    h = op.grid.h
    diag = [a - energy for a in op.diag]
    rhs = [0.0] * n
    rhs[source_index] = 1.0 / h
    # Thomas algorithm (constant off-diagonal)
    cp = [0.0] * (n - 1)
    dp = [0.0] * n
    cp[0] = off / diag[0]
    dp[0] = rhs[0] / diag[0]
    for i in range(1, n - 1):
        den = diag[i] - off * cp[i - 1]
        cp[i] = off / den
        dp[i] = (rhs[i] - off * dp[i - 1]) / den
    den = diag[n - 1] - off * cp[n - 2]
    dp[n - 1] = (rhs[n - 1] - off * dp[n - 2]) / den
    g = [0.0] * n
    g[n - 1] = dp[n - 1]
    for i in range(n - 2, -1, -1):
        g[i] = dp[i] - cp[i] * g[i + 1]
    return g

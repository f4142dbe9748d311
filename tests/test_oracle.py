"""Finite-difference oracle: discretization, Sturm bisection, resolvent solve."""

import functools
import io
import math

import pytest

from greenwell import cli, model, oracle, spectrum
from greenwell.model import DELTA_DECORATED, HO, LINEAR_ABS, default_family
from greenwell.oracle import (
    GridSpec,
    TridiagonalOperator,
    NearEigenvalueError,
    WallError,
    discretize,
    eigenvalue_count_below,
    lowest_eigenvalues,
    resolvent_solve,
)

AIRY_EVEN_1 = 1.018792971647471  # first zero of Ai', i.e. the |x| well ground state


def box_operator(L=1.0, n=200):
    """V = 0 between hard walls: analytic discrete spectrum available."""
    h = 2.0 * L / (n + 1)
    c = 1.0 / (h * h)  # hbar = m = 1
    return TridiagonalOperator(tuple([c] * n), -0.5 * c, GridSpec(L, n))


def test_two_by_two_analytic():
    # grid metadata is irrelevant to the pure eigenvalue solve
    op = TridiagonalOperator((2.0, 2.0), -1.0, GridSpec(1.0, 100))
    eigs = lowest_eigenvalues(op, 2)
    assert eigs[0] == pytest.approx(1.0, abs=1e-10)
    assert eigs[1] == pytest.approx(3.0, abs=1e-10)


def test_box_matches_discrete_laplacian_spectrum():
    n, L = 300, 1.0
    op = box_operator(L, n)
    h = op.grid.h
    eigs = lowest_eigenvalues(op, 4)
    for k, e in enumerate(eigs, start=1):
        exact = (2.0 - 2.0 * math.cos(k * math.pi / (n + 1))) * 0.5 / (h * h)
        assert e == pytest.approx(exact, abs=1e-10)


def test_box_continuum_limit():
    # (k pi / 2L)^2 hbar^2/2m within O(h^2)
    n, L = 2000, 1.0
    op = box_operator(L, n)
    eigs = lowest_eigenvalues(op, 3)
    for k, e in enumerate(eigs, start=1):
        cont = (k * math.pi / (2.0 * L)) ** 2 * 0.5
        assert abs(e - cont) <= 5.0 * cont * (op.grid.h) ** 2


def test_ho_levels():
    fam = default_family(HO)
    op = discretize(fam, GridSpec(12.0, 4000), e_max=6.0)
    eigs = lowest_eigenvalues(op, 5)
    for k, e in enumerate(eigs):
        assert e == pytest.approx(k + 0.5, abs=1e-4)


def test_linear_ground_state_is_airy_prime_zero():
    fam = default_family(LINEAR_ABS)
    op = discretize(fam, GridSpec(20.0, 6000), e_max=2.0)
    e0 = lowest_eigenvalues(op, 1)[0]
    assert e0 == pytest.approx(AIRY_EVEN_1, abs=1e-3)


def test_grid_convergence_second_order():
    # halving h reduces the HO ground-state error by >= 3.5
    fam = default_family(HO)
    errs = []
    for n in (1000, 2000):
        op = discretize(fam, GridSpec(10.0, n), e_max=1.0)
        errs.append(abs(lowest_eigenvalues(op, 1)[0] - 0.5))
    assert errs[0] / errs[1] >= 3.5


def test_sturm_count_monotone_and_ho_counts():
    fam = default_family(HO)
    op = discretize(fam, GridSpec(12.0, 2000), e_max=8.0)
    prev = 0
    for e in (0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0):
        c = eigenvalue_count_below(op, e)
        assert c >= prev
        prev = c
    for n in range(6):
        # count below eps = n + 1 equals n + 1 (levels at k + 1/2)
        assert eigenvalue_count_below(op, float(n + 1)) == n + 1


def test_wall_error():
    fam = default_family(HO)
    with pytest.raises(WallError):
        discretize(fam, GridSpec(3.0, 500), e_max=10.0)  # V(3) = 4.5 < 20


def test_auto_grid_sizes_walls():
    fam = default_family(HO)
    grid = oracle.auto_grid(fam, e_max=6.0, n_points=500)
    assert model.potential_value(fam, grid.half_width) >= 16.0


def _wall_level(fam, e_max):
    """The level auto_grid's walls reach: 10 natural energy units above
    max(e_max, V(bottom)), or 10 energy units where that lies higher."""
    return max(e_max, fam.potential(fam.bottom)) + max(fam.energy(10.0), 10.0)


def _first_float_past(fam, wall, level):
    def v(x):
        return min(fam.potential(-x), fam.potential(x))
    return v(wall) >= level > v(math.nextafter(wall, 0.0))


def test_auto_grid_holds_the_bottom_of_a_shifted_well():
    # bottom at x = -phi = -12.167, where V = -74.0; a walk from L = 1
    # stopped at L = 1, where V(+-1) is far above the shifted levels
    fam = default_family(model.HO_STARK, alpha1=2.3)
    grid = oracle.auto_grid(fam, e_max=-60.0, n_points=500)
    assert _wall_level(fam, -60.0) == -50.0
    assert _first_float_past(fam, grid.half_width, -50.0)
    assert fam.scales.phi < grid.half_width < 19.5
    assert fam.bottom == -fam.scales.phi


@pytest.mark.parametrize("fam,e_max", [
    # levels below the smooth well's bottom V = 0 (a deep delta's ground
    # state): the walls stand 10 units above the bottom, not the level
    (default_family(DELTA_DECORATED, base=HO, delta_strength=-10.5), -45.06),
    (default_family(DELTA_DECORATED, base=LINEAR_ABS, delta_strength=-6.0), -8.9),
    # an energy unit of 2e6 and of 0.5: 10 natural units, and 10 energy units
    (model.family_from_dict({"tag": "HO", "scales": {"omega1": 2e6}}), 1e6),
    (default_family(HO, omega1=0.5), 3.0),
], ids=["deep HO delta", "deep |x| delta", "stiff HO", "soft HO"])
def test_auto_grid_walls_are_the_first_float_past_the_rule(fam, e_max):
    grid = oracle.auto_grid(fam, e_max=e_max, n_points=500)
    assert _first_float_past(fam, grid.half_width, _wall_level(fam, e_max))
    discretize(fam, grid, e_max=e_max)  # and discretize's own check holds


def test_auto_grid_scales_with_the_well():
    # the stiff oscillator's box is the unit oscillator's in natural
    # lengths z = mu x, where V = (z^2 / 4) hbar omega reaches 16 at z = 8;
    # walls at L >= 1 left its 4000-point grid 0.0162 off
    one, stiff = default_family(HO), model.family_from_dict(
        {"tag": "HO", "scales": {"omega1": 2e6}})
    walls = [f.scales.mu * oracle.auto_grid(f, f.energy(6.0), 4000).half_width
             for f in (one, stiff)]
    assert walls[0] == pytest.approx(8.0, rel=1e-12)
    assert walls[1] == pytest.approx(walls[0], rel=1e-12)


def test_auto_grid_raises_where_no_finite_wall_reaches_the_rule():
    # alpha^3 underflows to 0: V = 0 everywhere.  The certificate's
    # doubling search ran to L = inf, where discretize raised FamilyError
    fam = model.family_from_dict({"tag": "LINEAR_ABS", "scales": {"alpha1": 1e-110}})
    with pytest.raises(WallError, match=r"^no finite L with V\(\+-L\) >= 10$"):
        oracle.auto_grid(fam, e_max=fam.energy(3.0), n_points=500)


@pytest.mark.parametrize("top", [6.1, 12.1])
@pytest.mark.parametrize("n", [1500, 4000])
def test_operator_for_is_discretize_on_auto_grid(n, top):
    # the nine wells verify checks, at verify's and the certificate's
    # grid sizes, field by field
    for fam in cli._default_families():
        e_max = fam.energy(top)
        op = oracle.operator_for(fam, e_max, n)
        want = discretize(fam, oracle.auto_grid(fam, e_max, n), e_max=e_max)
        assert [d.hex() for d in op.diag] == [d.hex() for d in want.diag], fam.name
        assert (op.off.hex(), op.grid) == (want.off.hex(), want.grid), fam.name


def _wall_message(build):
    with pytest.raises(WallError) as err:
        build()
    return str(err.value)


def test_operator_for_raises_the_wall_errors_of_its_two_steps(monkeypatch):
    # no finite wall: auto_grid's error
    flat = model.family_from_dict({"tag": "LINEAR_ABS", "scales": {"alpha1": 1e-110}})
    e_max = flat.energy(3.0)
    assert (_wall_message(lambda: oracle.operator_for(flat, e_max, 500))
            == _wall_message(lambda: oracle.auto_grid(flat, e_max, 500)))
    # a delta outside the box: discretize's spike range
    far = default_family(DELTA_DECORATED, base=HO, delta_position=40.0)
    grid = oracle.auto_grid(far, 6.0, 500)
    assert (_wall_message(lambda: oracle.operator_for(far, 6.0, 500))
            == _wall_message(lambda: discretize(far, grid, e_max=6.0))
            == "delta position 40.0 outside the grid")
    # walls too low for e_max: discretize's wall check, on a box narrower
    # than auto_grid's rule gives
    fam = default_family(HO)
    monkeypatch.setattr(oracle, "auto_grid", lambda family, e_max, n_points: GridSpec(3.0, 500))
    assert (_wall_message(lambda: oracle.operator_for(fam, 10.0, 500))
            == _wall_message(lambda: discretize(fam, GridSpec(3.0, 500), e_max=10.0)))


def _spike_rows(fam, grid):
    """The rows where the decorated well's diagonal differs from its
    base's on `grid`."""
    base = discretize(model.PotentialFamily(fam.base, fam.scales), grid).diag
    return [i for i, (a, b) in enumerate(zip(discretize(fam, grid).diag, base)) if a != b]


def test_the_spike_row_is_the_grids_nearest_node():
    grid = GridSpec(7.0, 1200)
    h, i = grid.h, 700
    # on node i, and half a node off on either side, where it is one of
    # the two nodes around q
    for q, rows in ((grid.node(i), {i}), (grid.node(i) - 0.5 * h, {i - 1, i}),
                    (grid.node(i) + 0.5 * h, {i, i + 1})):
        fam = default_family(DELTA_DECORATED, base=HO, delta_position=q)
        assert _spike_rows(fam, grid) == [grid.nearest_index(q)], q
        assert grid.nearest_index(q) in rows, q
        op = discretize(fam, grid)
        assert op.nearest_index(q) == grid.nearest_index(q)
    # outside the box: no row, and the operator clamps the same index
    for q, row in ((-7.5, 0), (8.0, 1199)):
        fam = default_family(DELTA_DECORATED, base=HO, delta_position=q)
        with pytest.raises(WallError, match=r"^delta position .* outside the grid$"):
            discretize(fam, grid)
        assert not (0 <= grid.nearest_index(q) < grid.n_points)
        assert op.nearest_index(q) == min(max(grid.nearest_index(q), 0), op.n - 1) == row


def test_delta_discretization_shifts_spectrum():
    fam = default_family(DELTA_DECORATED, base=HO)  # attractive, tau = -1
    op = discretize(fam, GridSpec(12.0, 4000), e_max=6.0)
    e0 = lowest_eigenvalues(op, 1)[0]
    assert e0 < 0.0  # pulled below the unperturbed ground state


def test_resolvent_symmetry():
    fam = default_family(HO)
    op = discretize(fam, GridSpec(10.0, 1200), e_max=4.0)
    i, j = op.nearest_index(-0.7), op.nearest_index(1.1)
    gi = resolvent_solve(op, 2.0, i)
    gj = resolvent_solve(op, 2.0, j)
    assert gi[j] == pytest.approx(gj[i], rel=1e-10)


def test_resolvent_near_eigenvalue_error():
    fam = default_family(HO)
    op = discretize(fam, GridSpec(10.0, 1500), e_max=4.0)
    e0 = lowest_eigenvalues(op, 1)[0]
    with pytest.raises(NearEigenvalueError):
        resolvent_solve(op, e0 + 2e-7, op.nearest_index(0.0))


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(5.0, 99)
    with pytest.raises(ValueError):
        GridSpec(-1.0, 500)
    with pytest.raises(ValueError):
        lowest_eigenvalues(box_operator(), 51)


def _decorated_operator():
    fam = default_family(DELTA_DECORATED, base=HO)
    return discretize(fam, GridSpec(7.0, 1200), e_max=12.0)


CAP_OPERATORS = [("box", lambda: box_operator(1.0, 300), (-1.0, 160.0)),
                 ("decorated", _decorated_operator, (-3.0, 12.0))]


@pytest.mark.parametrize("name,make,span", CAP_OPERATORS, ids=[c[0] for c in CAP_OPERATORS])
def test_capped_sturm_count_is_min_of_full_count_and_cap(name, make, span):
    op = make()
    lo, hi = span
    seen = set()
    for i in range(41):
        x = lo + (hi - lo) * i / 40
        full = eigenvalue_count_below(op, x)
        seen.add(full)
        for cap in range(0, 14):
            assert eigenvalue_count_below(op, x, cap) == min(full, cap), (x, cap)
    assert min(seen) == 0 and max(seen) > 10


def _full_count_bisection(op, k, tol=1e-10):
    """lowest_eigenvalues' bisection, with uncapped Sturm counts."""
    lo0 = min(op.diag) - 2.0 * abs(op.off)
    hi0 = max(op.diag) + 2.0 * abs(op.off)
    out = []
    for j in range(1, k + 1):
        lo, hi = (out[-1] - tol if out else lo0), hi0
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if eigenvalue_count_below(op, mid) >= j:
                hi = mid
            else:
                lo = mid
        out.append(0.5 * (lo + hi))
    return out


@pytest.mark.parametrize("name,make,span", CAP_OPERATORS, ids=[c[0] for c in CAP_OPERATORS])
def test_lowest_eigenvalues_equal_full_count_bisection(name, make, span):
    op = make()
    got = lowest_eigenvalues(op, 6)
    assert [e.hex() for e in got] == [e.hex() for e in _full_count_bisection(op, 6)]


def _count_before_the_row_trim(op, x, cap=None):
    """eigenvalue_count_below as it was before the one-test row: verbatim."""
    limit = op.n if cap is None else cap
    offsq = op.off * op.off
    count = 0
    d = math.inf  # offsq / d is 0 on the first row
    for a in op.diag:
        d = (a - x) - offsq / d
        if d == 0.0:
            d = -1e-300
        if d < 0.0:
            count += 1
            if count >= limit:
                break
    return min(count, limit)


def _verify_operator(fam, k=6, n=1000, window=None):
    """The operator `greenwell verify --k k --n-oracle n` builds for fam,
    its closed-form levels scanned over `window` (default: the family's)."""
    res = spectrum.find_roots(spectrum.build_chi(fam), window, step=0.005, limit=k)
    return oracle.operator_for(fam, fam.energy(res.values()[-1]), n)


@pytest.mark.parametrize("name", ["HO", "HO_ASYM", "LINEAR_ASYM", "HO_PLUS_ABS",
                                  "DELTA_DECORATED(HO)", "DELTA_DECORATED(LINEAR_ABS)",
                                  "zero-pivot"])
def test_sturm_row_trim_keeps_every_count(name):
    if name == "zero-pivot":
        # at x = 2 the first pivot is exactly 0, then -1e-300 divides the
        # next row; at x = 1 and x = 3 rows hit 0 after a nonzero pivot
        op = TridiagonalOperator((2.0, 2.0, 3.0, 2.0), -1.0, GridSpec(1.0, 100))
        xs = [1.0, 2.0, 3.0, 0.0, 4.0, 5.5]
    else:
        tag, _, base = name.rstrip(")").partition("(")
        op = _verify_operator(default_family(tag, base=base or None))
        lo, hi = min(op.diag) - 2.0 * abs(op.off), max(op.diag) + 2.0 * abs(op.off)
        # the bisection midpoints of the lowest levels, and the diagonal values
        xs = [lo + (hi - lo) * 2.0 ** -i for i in range(1, 60)] + list(op.diag[:50])
        xs += [e + d for e in lowest_eigenvalues(op, 6) for d in (-1e-9, 0.0, 1e-9)]
    for x in xs:
        for cap in (None, 0, 1, 3, 6):
            assert eigenvalue_count_below(op, x, cap) == _count_before_the_row_trim(op, x, cap)
    if name == "zero-pivot":
        assert [eigenvalue_count_below(op, x) for x in xs] == [
            _count_before_the_row_trim(op, x) for x in xs]
        assert any(2.0 - x == 0.0 for x in xs)


def _diag_with_a_node_call_per_point(family, grid):
    """discretize's diagonal as it read before h was bound once (verbatim)."""
    s = family.scales
    L = grid.half_width
    h = grid.h
    c = s.hbar ** 2 / (s.mass * h * h)
    n = grid.n_points
    diag = [c + model.potential_value(family, grid.node(i)) for i in range(n)]
    if family.tag == DELTA_DECORATED:
        q = s.delta_position
        i_q = int(round((q + L) / h)) - 1
        diag[i_q] += s.delta_strength / h
    return tuple(diag)


@pytest.mark.parametrize("tag,base", [
    ("HO", None), ("HO_STARK", None), ("HO_ASYM", None), ("LINEAR_ABS", None),
    ("LINEAR_ASYM", None), ("HALF_HO_HALF_LINEAR", None), ("HO_PLUS_ABS", None),
    ("DELTA_DECORATED", HO), ("DELTA_DECORATED", LINEAR_ABS)])
def test_discretize_nodes_are_those_of_grid_node(tag, base):
    fam = default_family(tag, base=base)
    walls = oracle.auto_grid(fam, e_max=0.0, n_points=100).half_width
    # verify's grid sizes, the sweep certificate's and half-widths off a 0.5 lattice
    for wider, n in ((0.0, 4000), (0.0, 8000), (0.5, 1500), (math.pi, 1001), (7.3, 100)):
        grid = GridSpec(walls + wider, n)
        op = discretize(fam, grid)
        want = _diag_with_a_node_call_per_point(fam, grid)
        assert [d.hex() for d in op.diag] == [d.hex() for d in want]


STIFF_HO = model.family_from_dict({"tag": "HO", "scales": {"omega1": 2e6}})
DEEP_DELTA = model.family_from_dict(
    {"tag": "DELTA_DECORATED", "base": "HO", "scales": {"delta_strength": -2000}})


# the deep delta's default scan now starts at its floor near eps = -2e6,
# outside pcf_d's domain; over (-50, 12] it builds the operator verify
# built before the scan started at floors below -50
@pytest.mark.parametrize("fam,n,window", [(STIFF_HO, 200000, None),
                                          (DEEP_DELTA, 8000, (-50.0, 12.0))],
                         ids=["HO omega1=2e6", "DELTA_DECORATED(HO) a=-2000"])
def test_lowest_eigenvalue_past_2_19_closes_on_adjacent_floats(fam, n, window, monkeypatch):
    # verify's operator at its first closed-form level: its lowest FD level,
    # about +1e6 and -2e6, lies where adjacent floats are wider than 1e-10
    op = _verify_operator(fam, k=1, n=n, window=window)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        assert len(calls) < 200, "the bisection does not stop"
        return eigenvalue_count_below(*args, **kwargs)

    monkeypatch.setattr(oracle, "eigenvalue_count_below", counted)
    (e,) = lowest_eigenvalues(op, 1)
    monkeypatch.undo()
    assert abs(e) >= 2.0 ** 19
    down, up = math.nextafter(e, -math.inf), math.nextafter(e, math.inf)
    # the count changes between e and one of its neighbours
    assert ((eigenvalue_count_below(op, down), eigenvalue_count_below(op, e)) == (0, 1)
            or (eigenvalue_count_below(op, e), eigenvalue_count_below(op, up)) == (0, 1))


# ----------------------------------------------------------------------
# the count's stop past the last row whose pivot can turn negative
# ----------------------------------------------------------------------


@functools.cache
def _verify_operators():
    """{well name: operator} of every operator `greenwell verify` builds
    for the nine default wells."""
    ops = {}
    discretize = oracle.discretize

    def keep(fam, grid, e_max=0.0):
        op = ops[fam.name] = discretize(fam, grid, e_max)
        return op
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "discretize", keep)
        assert cli.main(["verify"], io.StringIO()) == cli.EXIT_OK
    return ops


def _bisected(op, k=5):
    """(energy, cap) of every Sturm count lowest_eigenvalues(op, k) makes."""
    counts = []
    count = oracle.eigenvalue_count_below

    def record(op, x, cap=None):
        counts.append((x, cap))
        return count(op, x, cap)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "eigenvalue_count_below", record)
        lowest_eigenvalues(op, k)
    return counts


def _spiked_operator(strength):
    return _verify_operator(default_family(DELTA_DECORATED, base=HO, delta_strength=strength),
                            k=5, n=8000)


# at x = 2 the first pivot is exactly 0, and every row past the first
# block has diag - x = 8 > 2 |off| (1 + 1e-9): a count that stops after
# a zero pivot
ZERO_PIVOT = TridiagonalOperator((2.0,) + (10.0,) * 199, -1.0, GridSpec(1.0, 200))

STOP_OPERATORS = {
    **{fam.name: (lambda name=fam.name: _verify_operators()[name])
       for fam in cli._default_families()},
    "attractive spike": lambda: _spiked_operator(-2.5),
    "repulsive spike": lambda: _spiked_operator(2.5),
    "zero pivot": lambda: ZERO_PIVOT,
}


@pytest.mark.parametrize("name", STOP_OPERATORS)
def test_sturm_stop_keeps_every_count(name):
    op = STOP_OPERATORS[name]()
    lo, hi = min(op.diag) - 2.0 * abs(op.off), max(op.diag) + 2.0 * abs(op.off)
    # 200 energies across the Gershgorin range, 50 more across its lowest
    # 1 %, where the stop saves the most rows, each with caps 1 and 3;
    # then every energy the bisection of the lowest eigenvalues counts
    # at, with its cap
    xs = [(lo + (hi - lo) * i / 199, (1, 3)) for i in range(200)]
    xs += [(lo + (hi - lo) * 0.01 * i / 49, (1, 3)) for i in range(50)]
    xs += [(x, (cap,)) for x, cap in _bisected(op, 1 if op is ZERO_PIVOT else 5)]
    xs += [(2.0, (1,))]
    big = abs(op.off) * (1.0 + 1e-9)
    floors = [min(op.diag[k:]) for k in range(0, op.n, oracle._FLOOR_ROWS)]
    stopped = 0
    for x, caps in xs:
        full = _count_before_the_row_trim(op, x)
        assert eigenvalue_count_below(op, x) == full, x
        for cap in caps:
            assert eigenvalue_count_below(op, x, cap) == min(full, cap), (x, cap)
        stopped += any(m - x > 2.0 * big for m in floors)
    # many of those counts stop before the last block
    assert stopped >= 100

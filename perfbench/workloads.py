"""Seeded request generators for the three benchmark workloads.

A run is a sequence of rounds.  Each round is one request list with a
fixed mix of request kinds and fixed request sizes; only the physics
(scales, windows, energies, grid extents) is drawn at random, from
`random.Random(f"{workload}:{seed}:{round}")`.  Fixing the mix and the
sizes keeps the cost of a round nearly independent of the seed, so the
run-to-run spread reflects the program rather than the draw; drawing
fresh physics every round keeps any cache of earlier inputs from
helping later rounds.

The program only ever sees the generated argv lists and FD-column
parameters; the seed never reaches it.
"""

from __future__ import annotations

import io
import json
import math
import random
from dataclasses import dataclass, field

WORKLOADS = ("spectrum_mix", "green_grid", "oracle_check")

VARIANTS = (
    "HO", "HO_STARK", "HO_ASYM", "LINEAR_ABS", "LINEAR_ASYM",
    "HALF_HO_HALF_LINEAR", "HO_PLUS_ABS",
    "DELTA_DECORATED(HO)", "DELTA_DECORATED(LINEAR_ABS)",
)
# variants with a closed-form Green function (green-grid and FD columns)
GREEN_VARIANTS = (
    "HO", "HO_STARK", "LINEAR_ABS", "HO_PLUS_ABS",
    "DELTA_DECORATED(HO)", "DELTA_DECORATED(LINEAR_ABS)",
)

# green_grid: every grid has the README's 81 points per axis and reaches
# a number of decay lengths drawn from REACH beyond the turning points.
# REACH keeps the grids short of where pcf_d loses accuracy (z above
# about 8, ROADMAP item 2), so no request of the workload fails;
# reference.known_defects reports that region on every run.
# Delta positions sit on the dyadic LATTICE and grid points on the finer
# GRID_LATTICE, so the FD reference has nodes exactly on them; the finer
# lattice keeps the rounding of the grid spacing from moving a grid's
# extent (and with it its cost) by more than about 10 %
GRID_POINTS = 81
REACH = (2.0, 3.0)
REACH_SLICES = 3
LATTICE = 1.0 / 64.0
GRID_LATTICE = LATTICE / 2.0
# green_grid energies sit between levels j and j+1, j cycling through
# 0 .. LEVEL_PAIRS-1 over rounds and families, so every seed draws the
# same mix of level pairs
LEVEL_PAIRS = 6

# spectrum_mix: (window low end range, window width) in the natural
# dimensionless energy variable, per variant; README windows are 0:6
# and -3:6
LEVEL_WINDOWS = {
    "HO": ((0.0, 0.4), 8.0),
    "HO_STARK": ((-1.6, -1.1), 8.0),
    "HO_ASYM": ((0.0, 0.4), 8.0),
    "LINEAR_ABS": ((0.0, 0.5), 8.0),
    "LINEAR_ASYM": ((0.0, 0.5), 8.0),
    "HALF_HO_HALF_LINEAR": ((0.0, 0.4), 8.0),
    "HO_PLUS_ABS": ((0.0, 0.4), 8.0),
    "DELTA_DECORATED(HO)": ((-3.5, -3.0), 9.0),
    "DELTA_DECORATED(LINEAR_ABS)": ((-4.0, -3.0), 9.0),
}
# sweep parameter -> (variant, range of the first value); every sweep has
# SWEEP_VALUES values SWEEP_STEP apart, scanned over a 0:6 window
# (-3:6 for the decorated oscillator)
SWEEPS = {
    "lam": ("HO_ASYM", (0.4, 0.9)),
    "beta": ("LINEAR_ASYM", (0.4, 0.8)),
    "xi": ("HALF_HO_HALF_LINEAR", (1.2, 1.55)),
    "muphi": ("HO_PLUS_ABS", (0.8, 1.8)),
    "tau": ("DELTA_DECORATED(HO)", (-1.2, 0.9)),
    "p": ("DELTA_DECORATED(HO)", (0.0, 0.8)),
}
SWEEP_VALUES = 4
SWEEP_STEP = 0.05

# oracle_check: verify's --k cycles through VERIFY_K over rounds and
# families (so every seed gets the same mix); --n-oracle is drawn within
# 10 % of the CLI defaults
VERIFY_K = (3, 4, 5, 6)
VERIFY_N = {"smooth": 4000, "delta": 8000}
FD_COLUMN_H = LATTICE / 2.0
# FD columns per round, rotating through GREEN_VARIANTS
FD_COLUMNS = 3


@dataclass
class Request:
    """One closed-loop request: a CLI argv, or an FD resolvent column."""

    rid: str
    kind: str                      # "levels", "sweep", "table1", "green-grid", "verify", "fd-column"
    variant: str | None = None
    family: dict | None = None     # model.family_from_dict schema
    argv: list | None = None       # for CLI requests
    params: dict = field(default_factory=dict)


def _u(rng, lo, hi, digits=6):
    return round(rng.uniform(lo, hi), digits)


def family_dict(rng, variant):
    """Scales drawn around the figure-convention defaults of `variant`."""
    if variant == "HO":
        return {"tag": "HO", "scales": {"omega1": _u(rng, 0.7, 1.4)}}
    if variant == "HO_STARK":
        return {"tag": "HO_STARK",
                "scales": {"omega1": _u(rng, 0.8, 1.25), "alpha1": _u(rng, 0.95, 1.2)}}
    if variant == "HO_ASYM":
        return {"tag": "HO_ASYM", "scales": {"omega2": _u(rng, 1.5, 3.0)}}
    if variant == "LINEAR_ABS":
        return {"tag": "LINEAR_ABS", "scales": {"alpha1": _u(rng, 0.8, 1.25)}}
    if variant == "LINEAR_ASYM":
        return {"tag": "LINEAR_ASYM", "scales": {"alpha2": _u(rng, 1.5, 2.5)}}
    if variant == "HALF_HO_HALF_LINEAR":
        return {"tag": "HALF_HO_HALF_LINEAR", "scales": {"alpha1": _u(rng, 0.6, 0.85)}}
    if variant == "HO_PLUS_ABS":
        return {"tag": "HO_PLUS_ABS", "scales": {"alpha1": _u(rng, 0.75, 1.25)}}
    if variant == "DELTA_DECORATED(HO)":
        # tau in the README sweep range, p = mu q in [0, 1]; hbar = m = w = 1
        tau = rng.uniform(-1.2, 1.2)
        q = round(rng.uniform(0.0, 1.0) / math.sqrt(2.0) / LATTICE) * LATTICE
        return {"tag": "DELTA_DECORATED", "base": "HO",
                "scales": {"delta_strength": round(tau * math.sqrt(math.pi), 6),
                           "delta_position": q}}
    if variant == "DELTA_DECORATED(LINEAR_ABS)":
        # eta = a/2 in [-0.8, 1.5], zeta q in [0, 1]; hbar^2 = 2m, alpha = 1
        q = round(rng.uniform(0.0, 1.0) / LATTICE) * LATTICE
        return {"tag": "DELTA_DECORATED", "base": "LINEAR_ABS",
                "scales": {"delta_strength": _u(rng, -1.6, 3.0), "delta_position": q}}
    raise ValueError(f"unknown variant {variant!r}")


def family_arg(fam):
    return json.dumps(fam, separators=(",", ":"), sort_keys=True)


def _num(x):
    return repr(float(x))


# ----------------------------------------------------------------------
# spectrum_mix: levels for all nine variants, table1, six short sweeps
# ----------------------------------------------------------------------


def _spectrum_round(rng, index):
    reqs = []
    for variant in VARIANTS:
        fam = family_dict(rng, variant)
        (lo_a, lo_b), width = LEVEL_WINDOWS[variant]
        lo = _u(rng, lo_a, lo_b, 4)
        hi = round(lo + width, 4)
        reqs.append(Request("", "levels", variant, fam,
                            ["levels", "--family", family_arg(fam),
                             f"--window={_num(lo)}:{_num(hi)}"],
                            {"window": (lo, hi)}))
    reqs.append(Request("", "table1", "HALF_HO_HALF_LINEAR", {"tag": "HALF_HO_HALF_LINEAR"},
                        ["table1"]))
    for param, (variant, (a_lo, a_hi)) in SWEEPS.items():
        fam = family_dict(rng, variant)
        # the start falls in quarter (index mod 4) of its range, so every
        # seed gets the same mix of sweep ranges
        a = round(a_lo + (a_hi - a_lo) * (index % 4 + rng.random()) / 4.0, 3)
        b = round(a + (SWEEP_VALUES - 1) * SWEEP_STEP, 6)
        window = (-3.0, 6.0) if variant == "DELTA_DECORATED(HO)" else (0.0, 6.0)
        reqs.append(Request("", "sweep", variant, fam,
                            ["sweep", "--family", family_arg(fam), "--param", param,
                             f"--range={_num(a)}:{_num(b)}:{_num(SWEEP_STEP)}",
                             f"--window={_num(window[0])}:{_num(window[1])}",
                             "--allow-breaks"],
                            {"param": param, "window": window,
                             "values": [a + i * SWEEP_STEP for i in range(SWEEP_VALUES)]}))
    rng.shuffle(reqs)
    return reqs


# ----------------------------------------------------------------------
# green_grid: the six closed-form families on 81 x 81 grids
# ----------------------------------------------------------------------


def energy_unit(fam):
    """Physical energy per unit of the family's dimensionless variable."""
    s = fam.scales
    if fam.smooth_tag in ("HO", "HO_STARK", "HO_ASYM", "HALF_HO_HALF_LINEAR", "HO_PLUS_ABS"):
        return s.hbar * s.omega1
    return s.alpha1 ** 2 / (2.0 * s.mass / s.hbar ** 2) ** (1.0 / 3.0)


def well_bottom(model, fam):
    """x of the smooth potential's minimum, from a scan of [-20, 20]."""
    return min((0.01 * i for i in range(-2000, 2001)),
               key=lambda x: model.potential_value(fam, x))


def turning_points(model, fam, energy):
    """Outermost x_l < x_r with V(x) = energy, by bisection on V from
    the well bottom; both are the bottom when energy lies below it (a
    state bound by an attractive delta spike)."""
    center = well_bottom(model, fam)
    if model.potential_value(fam, center) >= energy:
        return center, center

    def edge(sign):
        inner, outer = center, center + sign
        while model.potential_value(fam, outer) < energy:
            inner, outer = outer, center + 2.0 * (outer - center)
        for _ in range(60):
            mid = 0.5 * (inner + outer)
            if model.potential_value(fam, mid) < energy:
                inner = mid
            else:
                outer = mid
        return 0.5 * (inner + outer)
    return edge(-1.0), edge(1.0)


def wall_half_width(model, fam, energy, extent=0.0):
    """Half-width for hard walls that leave G(x, x'; energy) unchanged to
    about e^-24 for |x|, |x'| <= extent: walk outward from the turning
    points (or +-extent, if further out) until the WKB exponent
    integral of kappa dx reaches 12 and V >= energy + 10."""
    s = fam.scales
    x_l, x_r = turning_points(model, fam, energy)

    def walk(x, sign):
        acc = 0.0
        while acc < 12.0 or model.potential_value(fam, x) < energy + 10.0:
            x += 0.05 * sign
            excess = max(model.potential_value(fam, x) - energy, 0.0)
            acc += math.sqrt(2.0 * s.mass * excess) / s.hbar * 0.05
        return abs(x)
    return max(walk(min(x_l, -extent), -1.0), walk(max(x_r, extent), 1.0))


def decay_length(model, fam, x):
    """Airy length (hbar^2 / 2m |V'|)^(1/3) at a turning point."""
    s = fam.scales
    d = 1e-6
    slope = abs(model.potential_value(fam, x + d) - model.potential_value(fam, x - d)) / (2 * d)
    return (s.hbar ** 2 / (2.0 * s.mass * max(slope, 1e-12))) ** (1.0 / 3.0)


def pick_energy(gw, rng, variant, fam, j):
    """A physical energy strictly between levels j and j+1.

    The levels come from the program's own root finder at a coarse step
    (set-up work); the energy is kept 20-80 % of the way across the gap
    so no request sits near a pole.
    """
    lo = LEVEL_WINDOWS[variant][0][0] - 0.5
    levels = gw.spectrum.find_roots(gw.spectrum.build_chi(fam), window=(lo, lo + 12.0),
                                    step=0.05).values()
    j = min(j, len(levels) - 2)
    eps = levels[j] + rng.uniform(0.2, 0.8) * (levels[j + 1] - levels[j])
    return float(f"{eps * energy_unit(fam):.10g}")


def reach_interval(model, fam, energy, decay_lengths):
    """The classically allowed region plus `decay_lengths` decay lengths
    on each side.  Below the well bottom the region is taken at one
    energy unit above it."""
    v_min = model.potential_value(fam, well_bottom(model, fam))
    x_l, x_r = turning_points(model, fam, max(energy, v_min + energy_unit(fam)))
    return (x_l - decay_lengths * decay_length(model, fam, x_l),
            x_r + decay_lengths * decay_length(model, fam, x_r))


def grid_window(model, fam, energy, n, decay_lengths):
    """(xmin, xmax) on GRID_LATTICE covering
    `reach_interval(..., decay_lengths)` with n points, centred on it."""
    x_l, x_r = reach_interval(model, fam, energy, decay_lengths)
    dx = math.ceil((x_r - x_l) / (n - 1) / GRID_LATTICE) * GRID_LATTICE
    xmin = math.floor((0.5 * (x_l + x_r - (n - 1) * dx)) / GRID_LATTICE) * GRID_LATTICE
    return xmin, xmin + (n - 1) * dx


def _green_round(gw, rng, index):
    """One 81 x 81 grid per family, CSV and JSON alternating over
    families and rounds.  REACH is cut into REACH_SLICES equal slices
    and family k reaches into slice (index + k) mod REACH_SLICES, so
    every family reaches into every slice over that many rounds: a
    grid's cost grows with its extent, and the slices give every seed
    the same mix of extents."""
    reqs = []
    lo, hi = REACH
    for k, variant in enumerate(GREEN_VARIANTS):
        fd = family_dict(rng, variant)
        fam = gw.model.family_from_dict(fd)
        energy = pick_energy(gw, rng, variant, fam, (index + k) % LEVEL_PAIRS)
        part = ((index + k) % REACH_SLICES + rng.random()) / REACH_SLICES
        xmin, xmax = grid_window(gw.model, fam, energy, GRID_POINTS, lo + (hi - lo) * part)
        fmt = ("csv", "json")[(index + k) % 2]
        reqs.append(Request("", "green-grid", variant, fd,
                            ["green-grid", "--family", family_arg(fd),
                             f"--energy={_num(energy)}",
                             f"--grid={_num(xmin)}:{_num(xmax)}:{GRID_POINTS}",
                             "--format", fmt],
                            {"energy": energy, "grid": (xmin, xmax, GRID_POINTS),
                             "format": fmt}))
    rng.shuffle(reqs)
    return reqs


# ----------------------------------------------------------------------
# oracle_check: verify for all nine variants + FD_COLUMNS FD columns
# ----------------------------------------------------------------------


def _oracle_round(gw, rng, index):
    reqs = []
    for pos, variant in enumerate(VARIANTS):
        fd = family_dict(rng, variant)
        k = VERIFY_K[(index + pos) % len(VERIFY_K)]
        n_default = VERIFY_N["delta" if variant.startswith("DELTA") else "smooth"]
        n = rng.randint(int(0.9 * n_default), int(1.1 * n_default))
        reqs.append(Request("", "verify", variant, fd,
                            ["verify", "--family", family_arg(fd), "--k", str(k),
                             "--n-oracle", str(n)],
                            {"k": k, "n_oracle": n}))
    for i in range(FD_COLUMNS):
        variant = GREEN_VARIANTS[(FD_COLUMNS * index + i) % len(GREEN_VARIANTS)]
        fd = family_dict(rng, variant)
        fam = gw.model.family_from_dict(fd)
        energy = pick_energy(gw, rng, variant, fam, index % 3)
        half = math.ceil(wall_half_width(gw.model, fam, energy) / 0.5) * 0.5
        n_points = int(round(2.0 * half / FD_COLUMN_H)) - 1
        x_src = round(rng.uniform(*turning_points(gw.model, fam, energy)) / FD_COLUMN_H) \
            * FD_COLUMN_H
        source_index = int(round((x_src + half) / FD_COLUMN_H)) - 1
        reqs.append(Request("", "fd-column", variant, fd, None,
                            {"energy": energy, "half_width": half, "n_points": n_points,
                             "source_index": source_index}))
    rng.shuffle(reqs)
    return reqs


def make_round(gw, workload, seed, index):
    """The request list of round `index` of `workload` for `seed`."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    prefix = f"r{index:03d}"
    if workload == "spectrum_mix":
        reqs = _spectrum_round(rng, index)
    elif workload == "green_grid":
        reqs = _green_round(gw, rng, index)
    elif workload == "oracle_check":
        reqs = _oracle_round(gw, rng, index)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    for i, req in enumerate(reqs):
        req.rid = f"{prefix}.{i:02d}.{req.kind}.{req.variant}"
    return reqs


def execute(gw, req):
    """Run one request through the public entry points.

    Returns (exit_code, output): the CLI's exit code and stdout text, or
    0 and the FD column for an FD request.
    """
    if req.argv is not None:
        stream = io.StringIO()
        code = gw.cli.main(req.argv, stream)
        return code, stream.getvalue()
    fam = gw.model.family_from_dict(req.family)
    p = req.params
    grid = gw.oracle.GridSpec(p["half_width"], p["n_points"])
    op = gw.oracle.discretize(fam, grid, e_max=p["energy"])
    return 0, gw.oracle.resolvent_solve(op, p["energy"], p["source_index"])

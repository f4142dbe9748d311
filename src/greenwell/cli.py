"""Command-line front end: levels, sweeps, Green-function grids,
the composite-well reference table, and closed-form-vs-oracle
verification, all with deterministic CSV/JSON output.

Exit codes: 0 success, 1 usage/config error, 2 numerical failure,
3 verification mismatch.

Floats are always formatted with 12 significant digits ('%.12g'), so a
fixed configuration yields byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field

from . import model, oracle, resolvent, spectrum
from .model import DELTA_DECORATED, HO, LINEAR_ABS
from .specfun import ConvergenceError, DomainError, PoleError

__all__ = ["main", "RunConfig", "TABLE1_REFERENCE"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_MISMATCH = 3

# first ten composite-well levels at xi = sqrt(2), hbar^2 = 2m
# (5-decimal reference values, matched by cmd_table1 to 5e-5)
TABLE1_REFERENCE = (
    0.50501, 1.27615, 1.88901, 2.43392, 2.94119,
    3.41789, 3.86844, 4.29867, 4.71332, 5.11461,
)


class UsageError(ValueError):
    pass


def _fmt(x):
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


@dataclass
class RunConfig:
    command: str
    family: dict = field(default_factory=lambda: {"tag": "HO"})
    window: tuple | None = None
    step: float = 0.005
    param: str | None = None           # sweep parameter name
    sweep_range: tuple | None = None   # (from, to, step)
    grid: tuple = (-3.0, 3.0, 61)      # green-grid (xmin, xmax, n)
    energy: float = 2.0                # green-grid energy
    xp: float | None = None            # green-grid: fix x' (full grid if None)
    k_levels: int = 5                  # verify: number of levels
    n_oracle: int = 0                  # verify: grid points (0 -> per-family default)
    out: str | None = None
    format: str = "csv"
    allow_breaks: bool = False

    def validate(self):
        if self.command not in ("levels", "sweep", "green-grid", "table1", "verify"):
            raise UsageError(f"unknown command {self.command!r}")
        if self.format not in ("csv", "json"):
            raise UsageError(f"format must be csv or json, got {self.format!r}")
        if not (self.step > 0.0 and math.isfinite(self.step)):
            raise UsageError("step must be a positive finite number")
        if self.window is not None:
            lo, hi = self.window
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise UsageError(f"window must be lo:hi with lo < hi, got {self.window}")
        if self.sweep_range is not None:
            a, b, s = self.sweep_range
            if not all(math.isfinite(v) for v in (a, b, s)) or s <= 0 or b < a:
                raise UsageError(f"range must be from:to:step with step > 0, got {self.sweep_range}")
        xmin, xmax, n = self.grid
        if not (math.isfinite(xmin) and math.isfinite(xmax) and xmin < xmax and int(n) >= 2):
            raise UsageError(f"grid must be xmin:xmax:n with n >= 2, got {self.grid}")
        if not math.isfinite(self.energy):
            raise UsageError("energy must be finite")
        if not (1 <= self.k_levels <= 20):
            raise UsageError("k must be in 1..20")
        return self

    def to_dict(self):
        d = {
            "command": self.command,
            "family": self.family,
            "step": self.step,
            "grid": list(self.grid),
            "energy": self.energy,
            "k_levels": self.k_levels,
            "n_oracle": self.n_oracle,
            "format": self.format,
            "allow_breaks": self.allow_breaks,
        }
        if self.window is not None:
            d["window"] = list(self.window)
        if self.param is not None:
            d["param"] = self.param
        if self.sweep_range is not None:
            d["sweep_range"] = list(self.sweep_range)
        if self.xp is not None:
            d["xp"] = self.xp
        if self.out is not None:
            d["out"] = self.out
        return d

    @classmethod
    def from_dict(cls, d):
        if not isinstance(d, dict) or "command" not in d:
            raise UsageError("config must be an object with a 'command' field")
        kw = {}
        for key in ("command", "family", "step", "energy", "k_levels", "n_oracle",
                    "format", "allow_breaks", "param", "out", "xp"):
            if key in d:
                kw[key] = d[key]
        if "window" in d and d["window"] is not None:
            kw["window"] = tuple(d["window"])
        if "sweep_range" in d and d["sweep_range"] is not None:
            kw["sweep_range"] = tuple(d["sweep_range"])
        if "grid" in d:
            kw["grid"] = tuple(d["grid"])
        return cls(**kw).validate()


# ----------------------------------------------------------------------
# output helpers
# ----------------------------------------------------------------------


def _emit(cfg, header, rows, stream):
    """Write rows as CSV (default) or JSON with fixed float formatting."""
    if cfg.format == "csv":
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(_fmt(v) for v in row))
        text = "\n".join(lines) + "\n"
    else:
        payload = [dict(zip(header, [(_fmt(v) if isinstance(v, float) else v)
                                     for v in row])) for row in rows]
        text = json.dumps(payload, indent=1, sort_keys=True) + "\n"
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        stream.write(text)


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------


def cmd_levels(cfg, stream):
    fam = model.family_from_dict(cfg.family)
    chi = spectrum.build_chi(fam)
    res = spectrum.find_roots(chi, window=cfg.window, step=cfg.step)
    header = ("index", "parity", "eps", "residual", "bracket_lo", "bracket_hi")
    rows = [(r.index, r.parity or "", r.value, r.residual, r.bracket[0], r.bracket[1])
            for r in res.roots]
    _emit(cfg, header, rows, stream)
    return EXIT_OK


def cmd_sweep(cfg, stream):
    if cfg.param is None or cfg.sweep_range is None:
        raise UsageError("sweep requires --param and --range from:to:step")
    fam = model.family_from_dict(cfg.family)
    a, b, s = cfg.sweep_range
    n = int(math.floor((b - a) / s + 1e-9)) + 1
    values = [a + i * s for i in range(n)]
    result = spectrum.sweep(fam, cfg.param, values, window=cfg.window, step=cfg.step)
    if result.breaks and not cfg.allow_breaks:
        stream.write(f"curve break at {cfg.param} = "
                     + ", ".join(_fmt(v) for v in result.breaks)
                     + " (rerun with --allow-breaks)\n")
        return EXIT_NUMERICAL
    header = ("param_value", "root_index", "eps")
    rows = [(v, i, e) for (v, i, e) in result.rows]
    _emit(cfg, header, rows, stream)
    return EXIT_OK


def cmd_green_grid(cfg, stream):
    fam = model.family_from_dict(cfg.family)
    xmin, xmax, n = cfg.grid
    n = int(n)
    xs = [xmin + (xmax - xmin) * i / (n - 1) for i in range(n)]
    green = _green_for(fam)
    rows = []
    # one memo per request: each decaying solution is evaluated once per abscissa
    resolvent.open_solution_memo()
    try:
        for x in xs:
            xps = xs if cfg.xp is None else [cfg.xp]
            for xp in xps:
                g = green(x, xp, cfg.energy, fam)
                rows.append((x, xp, g))
    finally:
        resolvent.release_solution_memo()
    _emit(cfg, ("x", "xp", "value"), rows, stream)
    return EXIT_OK


def _green_for(fam):
    tag = fam.tag
    if tag == HO:
        return lambda x, xp, e, f: resolvent.green_ho(x, xp, e, f.scales).value
    if tag == model.HO_STARK:
        return lambda x, xp, e, f: resolvent.green_ho_stark(x, xp, e, f.scales).value
    if tag == LINEAR_ABS:
        return lambda x, xp, e, f: resolvent.green_linear(x, xp, e, f.scales).value
    if tag == model.HO_PLUS_ABS:
        return lambda x, xp, e, f: resolvent.green_ho_plus_abs(x, xp, e, f.scales).value
    if tag == DELTA_DECORATED:
        return lambda x, xp, e, f: resolvent.green_decorated(x, xp, e, f.base, f.scales).value
    raise UsageError(f"no closed-form Green function for family {tag!r}")


def cmd_table1(cfg, stream):
    fam = model.default_family(model.HALF_HO_HALF_LINEAR)  # xi = sqrt(2)
    chi = spectrum.build_chi(fam)
    res = spectrum.find_roots(chi, window=(1e-6, 5.5), step=0.005)
    got = res.values()[:10]
    if len(got) < 10:
        stream.write(f"found only {len(got)} levels in the scan window\n")
        return EXIT_NUMERICAL
    ok = True
    lines = [("index", "computed", "reference", "abs_diff")]
    for i, (c, ref) in enumerate(zip(got, TABLE1_REFERENCE)):
        d = abs(c - ref)
        ok = ok and d <= 5e-5
        lines.append((i, _fmt(c), _fmt(ref), _fmt(d)))
    width = [max(len(str(r[j])) for r in lines) for j in range(4)]
    for r in lines:
        stream.write("  ".join(str(v).rjust(width[j]) for j, v in enumerate(r)) + "\n")
    stream.write("table check: " + ("PASS" if ok else "FAIL") + "\n")
    return EXIT_OK if ok else EXIT_MISMATCH


# verification defaults per family: (base kwargs, n_default, level tol, e_max)
_SMOOTH_N = 4000
_DELTA_N = 8000


def _verify_plan():
    return [
        ("HO", model.default_family(HO), _SMOOTH_N, 2e-3),
        ("HO_STARK", model.default_family(model.HO_STARK), _SMOOTH_N, 2e-3),
        ("HO_ASYM", model.default_family(model.HO_ASYM), _SMOOTH_N, 2e-3),
        ("LINEAR_ABS", model.default_family(LINEAR_ABS), _SMOOTH_N, 2e-3),
        ("LINEAR_ASYM", model.default_family(model.LINEAR_ASYM), _SMOOTH_N, 2e-3),
        ("HALF_HO_HALF_LINEAR", model.default_family(model.HALF_HO_HALF_LINEAR),
         _SMOOTH_N, 2e-3),
        ("HO_PLUS_ABS", model.default_family(model.HO_PLUS_ABS), _SMOOTH_N, 2e-3),
        ("DELTA_DECORATED(HO)", model.default_family(DELTA_DECORATED, base=HO),
         _DELTA_N, 5e-3),
        ("DELTA_DECORATED(LINEAR_ABS)",
         model.default_family(DELTA_DECORATED, base=LINEAR_ABS), _DELTA_N, 5e-3),
    ]


def _to_dimensionless_energy(fam, energy):
    dmap = model.dimensionless(fam, energy)
    return dmap.eps if dmap.eps is not None else dmap.rho


def _from_dimensionless_energy(fam, value):
    s = fam.scales
    if fam.smooth_tag in model.QUADRATIC_TAGS:
        return value * s.hbar * s.omega1
    return value * s.alpha1 ** 2 / (2.0 * s.mass / s.hbar ** 2) ** (1.0 / 3.0)


def oracle_levels(fam, k, n_points):
    """First k dimensionless levels from the finite-difference oracle."""
    chi = spectrum.build_chi(fam)
    res = spectrum.find_roots(chi, step=0.005)
    if res.roots:
        e_top = _from_dimensionless_energy(fam, res.values()[min(k, len(res.roots)) - 1])
    else:
        e_top = 10.0
    grid = oracle.auto_grid(fam, e_max=e_top, n_points=n_points)
    op = oracle.discretize(fam, grid, e_max=e_top)
    eigs = oracle.lowest_eigenvalues(op, k)
    return [_to_dimensionless_energy(fam, e) for e in eigs], res


def verify_family(fam, k=5, n_points=None):
    """(closed-form levels, oracle levels, max |diff|) for one family."""
    if n_points is None:
        n_points = _DELTA_N if fam.tag == DELTA_DECORATED else _SMOOTH_N
    orc, res = oracle_levels(fam, k, n_points)
    closed = res.values()[:k]
    if len(closed) < k:
        raise ArithmeticError(
            f"only {len(closed)} closed-form roots in window for {fam.tag}")
    diffs = [abs(c - o) for c, o in zip(closed, orc)]
    spectrum.flag_missing(res, orc)
    return closed, orc, max(diffs)


def cmd_verify(cfg, stream):
    plan = _verify_plan()
    if cfg.family and cfg.family.get("tag") and cfg.family != {"tag": "HO"}:
        fam = model.family_from_dict(cfg.family)
        name = fam.tag if fam.base is None else f"{fam.tag}({fam.base})"
        tol = 5e-3 if fam.tag == DELTA_DECORATED else 2e-3
        n = cfg.n_oracle or (_DELTA_N if fam.tag == DELTA_DECORATED else _SMOOTH_N)
        plan = [(name, fam, n, tol)]
    all_ok = True
    for name, fam, n_def, tol in plan:
        n = cfg.n_oracle or n_def
        closed, orc, worst = verify_family(fam, k=cfg.k_levels, n_points=n)
        ok = worst <= tol
        all_ok = all_ok and ok
        stream.write(f"{name}: max level error {_fmt(worst)} "
                     f"(tol {_fmt(tol)}, n={n}) {'ok' if ok else 'MISMATCH'}\n")
    return EXIT_OK if all_ok else EXIT_MISMATCH


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse defaults to exit code 2; the CLI contract reserves 2
        # for numerical failures and uses 1 for usage problems
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _parse_pair(text, name):
    parts = text.split(":")
    if len(parts) != 2:
        raise UsageError(f"{name} must be lo:hi, got {text!r}")
    try:
        return (float(parts[0]), float(parts[1]))
    except ValueError:
        raise UsageError(f"{name} must be numeric lo:hi, got {text!r}") from None


def _parse_triple(text, name, n_int=False):
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"{name} must be a:b:c, got {text!r}")
    try:
        a, b = float(parts[0]), float(parts[1])
        c = int(parts[2]) if n_int else float(parts[2])
    except ValueError:
        raise UsageError(f"{name} must be numeric a:b:c, got {text!r}") from None
    return (a, b, c)


def _parse_family(text):
    text = text.strip()
    if text.startswith("{"):
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            raise UsageError(f"family JSON invalid: {exc}") from None
    if "(" in text and text.endswith(")"):
        tag, base = text[:-1].split("(", 1)
        return {"tag": tag, "base": base}
    return {"tag": text}


def _apply_set(cfg_dict, assignment):
    """--set key=value with dotted paths into the config dict."""
    if "=" not in assignment:
        raise UsageError(f"--set expects key=value, got {assignment!r}")
    key, raw = assignment.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    target = cfg_dict
    parts = key.split(".")
    for part in parts[:-1]:
        target = target.setdefault(part, {})
        if not isinstance(target, dict):
            raise UsageError(f"--set path {key!r} does not address an object")
    target[parts[-1]] = value


def build_config(argv):
    parser = _Parser(prog="greenwell",
                     description="Bound states and Green functions of 1-d confining wells")
    parser.add_argument("command",
                        choices=["levels", "sweep", "green-grid", "table1", "verify"])
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override a config field (dotted paths allowed)")
    parser.add_argument("--family", help="family tag, TAG(BASE), or inline JSON")
    parser.add_argument("--window", help="scan window lo:hi")
    parser.add_argument("--step", type=float, help="scan step")
    parser.add_argument("--param", help="sweep parameter (lam|beta|xi|muphi|tau|p)")
    parser.add_argument("--range", dest="sweep_range", help="sweep range from:to:step")
    parser.add_argument("--grid", help="green-grid xmin:xmax:n")
    parser.add_argument("--energy", type=float, help="green-grid energy")
    parser.add_argument("--xp", type=float, help="green-grid: fix x' instead of full grid")
    parser.add_argument("--k", type=int, dest="k_levels", help="verify: number of levels")
    parser.add_argument("--n-oracle", type=int, help="verify: oracle grid points")
    parser.add_argument("--out", help="output path (default: stdout)")
    parser.add_argument("--format", choices=["csv", "json"], help="output format")
    parser.add_argument("--allow-breaks", action="store_true", default=None)
    parser.add_argument("--dump-config", action="store_true",
                        help="print the resolved config as JSON and exit")
    ns = parser.parse_args(argv)

    cfg_dict = {"command": ns.command}
    if ns.config:
        try:
            with open(ns.config, encoding="utf-8") as fh:
                loaded = json.load(fh)
        except OSError as exc:
            raise UsageError(f"cannot read config: {exc}") from None
        except json.JSONDecodeError as exc:
            raise UsageError(f"config JSON invalid: {exc}") from None
        if not isinstance(loaded, dict):
            raise UsageError("config file must hold a JSON object")
        loaded["command"] = ns.command
        cfg_dict = loaded
    if ns.family:
        cfg_dict["family"] = _parse_family(ns.family)
    if ns.window:
        cfg_dict["window"] = _parse_pair(ns.window, "--window")
    if ns.step is not None:
        cfg_dict["step"] = ns.step
    if ns.param:
        cfg_dict["param"] = ns.param
    if ns.sweep_range:
        cfg_dict["sweep_range"] = _parse_triple(ns.sweep_range, "--range")
    if ns.grid:
        cfg_dict["grid"] = _parse_triple(ns.grid, "--grid", n_int=True)
    if ns.energy is not None:
        cfg_dict["energy"] = ns.energy
    if ns.xp is not None:
        cfg_dict["xp"] = ns.xp
    if ns.k_levels is not None:
        cfg_dict["k_levels"] = ns.k_levels
    if ns.n_oracle is not None:
        cfg_dict["n_oracle"] = ns.n_oracle
    if ns.out:
        cfg_dict["out"] = ns.out
    if ns.format:
        cfg_dict["format"] = ns.format
    if ns.allow_breaks is not None:
        cfg_dict["allow_breaks"] = ns.allow_breaks
    for assignment in ns.set:
        _apply_set(cfg_dict, assignment)
    return RunConfig.from_dict(cfg_dict), ns.dump_config


_COMMANDS = {
    "levels": cmd_levels,
    "sweep": cmd_sweep,
    "green-grid": cmd_green_grid,
    "table1": cmd_table1,
    "verify": cmd_verify,
}


def main(argv=None, stream=None):
    argv = sys.argv[1:] if argv is None else argv
    stream = stream if stream is not None else sys.stdout
    try:
        cfg, dump = build_config(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except model.FamilyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if dump:
        stream.write(json.dumps(cfg.to_dict(), indent=1, sort_keys=True) + "\n")
        return EXIT_OK
    try:
        return _COMMANDS[cfg.command](cfg, stream)
    except (UsageError, model.FamilyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (resolvent.NearPoleError, resolvent.OnResonanceError,
            oracle.NearEigenvalueError, oracle.WallError,
            PoleError, DomainError, ConvergenceError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())

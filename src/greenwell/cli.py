"""Command-line front end: levels, sweeps, Green-function grids,
the composite-well reference table, and closed-form-vs-oracle
verification, all with deterministic CSV/JSON output.

Each command returns (exit code, text); `main` alone writes the text,
to the --out file or to stdout, so a run's output holds its complete
result or nothing.  Errors, curve breaks included, go to stderr.

Exit codes: 0 success, 1 usage/config error (including a value outside
a documented special-function domain and an --out path that cannot be
opened), 2 numerical failure, 3 verification mismatch.

Floats are always formatted with 12 significant digits ('%.12g'), so a
fixed configuration yields byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, fields
from json.encoder import encode_basestring_ascii

from . import model, oracle, resolvent, spectrum
from .model import DELTA_DECORATED, HO, finite_number
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


# the largest request, checked before any characteristic-function or
# Green call: lattice points of one scan (above the 4,668,202 of the
# default window of HO_STARK at alpha1 = 6), sweep values times the
# lattice points of each, and green-grid rows
MAX_SCAN_POINTS = 5_000_000
MAX_SWEEP_POINTS = 10_000_000
MAX_GRID_ROWS = 1_000_000


class UsageError(ValueError):
    pass


def _fmt(x):
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


_TYPES = {"str": str, "dict": dict, "tuple": tuple, "float": (int, float), "int": int}


def _admits(annotation, value):
    """True when `value` has a type named in `annotation` (e.g. "float | None");
    a bool is not a number."""
    names = annotation.split(" | ")
    if value is None or isinstance(value, bool):
        return ("None" if value is None else "bool") in names
    return any(isinstance(value, _TYPES[n]) for n in names if n in _TYPES)


def _finite(values, n):
    """True when `values` holds n finite numbers."""
    return len(values) == n and all(map(finite_number, values))


@dataclass
class RunConfig:
    command: str
    family: dict | None = None         # None: HO; for verify, every family
    window: tuple | None = None
    step: float = spectrum._STEP
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
        for f in fields(self):
            value = getattr(self, f.name)
            if not _admits(f.type, value):
                raise UsageError(f"config field {f.name!r} must be {f.type}, got {value!r}")
        if self.command not in _COMMANDS:
            raise UsageError(f"unknown command {self.command!r}")
        if self.format not in ("csv", "json"):
            raise UsageError(f"format must be csv or json, got {self.format!r}")
        if self.format == "json" and self.command in ("table1", "verify"):
            raise UsageError(f"{self.command} prints a text report; format json does not apply")
        if not (finite_number(self.step) and self.step > 0.0):
            raise UsageError("step must be a positive finite number")
        if self.window is not None and not (
                _finite(self.window, 2) and self.window[0] < self.window[1]):
            raise UsageError(f"window must be lo:hi with lo < hi, got {self.window}")
        if self.sweep_range is not None and not (
                _finite(self.sweep_range, 3) and self.sweep_range[2] > 0
                and self.sweep_range[1] >= self.sweep_range[0]):
            raise UsageError(f"range must be from:to:step with step > 0, got {self.sweep_range}")
        if not (_finite(self.grid, 3) and self.grid[0] < self.grid[1]
                and self.grid[2] == int(self.grid[2]) >= 2):
            raise UsageError(
                f"grid must be xmin:xmax:n with a whole number n >= 2, got {self.grid}")
        if not finite_number(self.energy):
            raise UsageError("energy must be finite")
        if self.xp is not None and not finite_number(self.xp):
            raise UsageError("xp must be finite")
        if not (1 <= self.k_levels <= 20):
            raise UsageError("k must be in 1..20")
        if self.n_oracle != 0 and not (100 <= self.n_oracle <= 1_000_000):
            raise UsageError("n-oracle must be 0 (the per-family default) or in 100..1000000")
        if self.family is None and self.command != "verify":
            self.family = {"tag": HO}
        return self

    def to_dict(self):
        """The config as JSON data: None fields omitted, tuples as lists."""
        return {f.name: list(v) if isinstance(v, tuple) else v
                for f in fields(self) if (v := getattr(self, f.name)) is not None}

    @classmethod
    def from_dict(cls, d):
        """Inverse of to_dict; null stands for the field's default."""
        if not isinstance(d, dict) or d.get("command") is None:
            raise UsageError("config must be an object with a 'command' field")
        unknown = set(d) - {f.name for f in fields(cls)}
        if unknown:
            raise UsageError(f"unknown config fields: {sorted(unknown)}")
        return cls(**{k: tuple(v) if isinstance(v, list) else v
                      for k, v in d.items() if v is not None}).validate()


# ----------------------------------------------------------------------
# output helpers
# ----------------------------------------------------------------------


def _column(values, csv):
    """(template field, cells) for one column of a table: a column of
    floats is formatted by the row template, any other column is
    turned into its CSV or JSON text here, once per value."""
    kinds = set(map(type, values))
    if kinds == {float}:
        return ("%.12g" if csv else '"%.12g"'), values
    if csv:
        if any(issubclass(k, float) for k in kinds):
            return "%s", list(map(_fmt, values))
        return "%s", values
    if kinds == {str}:
        return "%s", list(map(encode_basestring_ascii, values))
    return "%s", [json.dumps(_fmt(v) if isinstance(v, float) else v) for v in values]


def _layout(template, parts):
    """One text per row: `template` filled with the row's cells."""
    return [template % cells for cells in zip(*(c for _, c in parts))]


def _table(cfg, header, rows):
    """A table of row tuples as text in `cfg.format`: _columns_table of
    their columns."""
    return _columns_table(cfg, header, list(zip(*rows)))


def _columns_table(cfg, header, columns):
    """A table, given as one sequence of cells per header entry, as text
    in `cfg.format`.

    CSV: the header line, then one line per row.  JSON: an array with one
    object per row, keys sorted, one-space indent, and `[]` for an empty
    table.  Floats have 12 significant digits ('%.12g'; JSON strings);
    other values print as str() in CSV and as JSON numbers or strings.

    Each row is laid out by one '%' template over its columns' cells,
    so no row builds a dict or runs the pure-Python JSON indent encoder,
    and the text is joined once: the CSV header is the first line, the
    JSON brackets sit on the first and last objects."""
    if cfg.format == "csv":
        parts = [_column(c, True) for c in columns]
        template = ",".join(f for f, _ in parts) + "\n"
        lines = _layout(template, parts)
        lines.insert(0, ",".join(header) + "\n")
        return "".join(lines)
    # as in dict(zip(header, row)), a repeated key keeps its last column
    keyed = sorted({h: i for i, h in enumerate(header)}.items()) if columns else []
    parts = [_column(columns[i], False) for _, i in keyed]
    template = " {\n" + ",\n".join(
        f"  {json.dumps(h).replace('%', '%%')}: {f}"
        for (h, _), (f, _) in zip(keyed, parts)) + "\n }"
    objects = _layout(template, parts)
    if not objects:
        return "[]\n"
    objects[0] = "[\n" + objects[0]
    objects[-1] += "\n]\n"
    return ",\n".join(objects)


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------


def _bounded(what, size, bound):
    """UsageError when `size` (inf for one that overflows) exceeds `bound`;
    the message gives a finite size as its whole number."""
    if size > bound:
        size = size if math.isinf(size) else int(size)
        raise UsageError(f"request too large: {size} {what}, above {bound:,}")


def _scan_points(window, step):
    """spectrum._lattice_points(window, step); UsageError above MAX_SCAN_POINTS."""
    points = spectrum._lattice_points(window, step)
    _bounded("lattice points per scan", points, MAX_SCAN_POINTS)
    return points


def cmd_levels(cfg):
    fam = model.family_from_dict(cfg.family)
    _scan_points(cfg.window or spectrum.build_chi(fam).window, cfg.step)
    res = spectrum.checked_roots(fam, cfg.window, cfg.step, f"levels of {fam.name}")
    header = ("index", "parity", "eps", "residual", "bracket_lo", "bracket_hi")
    rows = [(r.index, r.parity or "", r.value, r.residual, r.bracket[0], r.bracket[1])
            for r in res.roots]
    return EXIT_OK, _table(cfg, header, rows)


def cmd_sweep(cfg):
    if cfg.param is None or cfg.sweep_range is None:
        raise UsageError("sweep requires --param and --range from:to:step")
    fam = model.family_from_dict(cfg.family)
    a, b, s = cfg.sweep_range
    span = (b - a) / s + 1e-9
    n = math.floor(span) + 1 if math.isfinite(span) else math.inf
    # a swept default window is monotone in its parameter: the wider end's is the widest
    ends = (a, a + (n - 1) * s) if n < math.inf else (a,)
    windows = [cfg.window] if cfg.window else [
        spectrum.build_chi(f).window for _, f in spectrum._swept(fam, cfg.param, ends)]
    # sizes are floats, so a product past the float range is inf
    _bounded("sweep values times lattice points",
             float(n) * max(_scan_points(w, cfg.step) for w in windows), MAX_SWEEP_POINTS)
    values = [a + i * s for i in range(n)]
    result = spectrum.sweep(fam, cfg.param, values, window=cfg.window, step=cfg.step)
    if result.breaks and not cfg.allow_breaks:
        raise ArithmeticError(f"curve break at {cfg.param} = "
                              + ", ".join(_fmt(v) for v in result.breaks)
                              + " (rerun with --allow-breaks)")
    return EXIT_OK, _table(cfg, ("param_value", "root_index", "eps"), result.rows)


def cmd_green_grid(cfg):
    fam = model.family_from_dict(cfg.family)
    xmin, xmax, n = cfg.grid
    n = int(n)
    _bounded("green-grid rows", n if cfg.xp is not None else float(n) * n, MAX_GRID_ROWS)
    closed_form = resolvent._closed_form(fam)
    energy = cfg.energy
    xs = [xmin + (xmax - xmin) * i / (n - 1) for i in range(n)]
    # each grid abscissa is formatted once, by position, for all the rows
    # it appears in; a fixed xp is its own cell, which _columns_table
    # formats like any value (-0.0 as -0, an integer from a config as a
    # JSON number)
    cells = list(map(_fmt, xs))
    if cfg.xp is None:
        x_cells = [cell for cell in cells for _ in cells]
        xp_cells = cells * n
        values = [closed_form(x, xp, energy).value for x in xs for xp in xs]
    else:
        x_cells, xp_cells = cells, [cfg.xp] * n
        values = [closed_form(x, cfg.xp, energy).value for x in xs]
    return EXIT_OK, _columns_table(cfg, ("x", "xp", "value"), (x_cells, xp_cells, values))


def cmd_table1(cfg):
    fam = model.default_family(model.HALF_HO_HALF_LINEAR)  # xi = sqrt(2)
    got = spectrum.checked_roots(fam, (1e-6, 5.5), spectrum._STEP, "table1",
                                 walk=True).values()[:10]
    if len(got) < 10:
        raise ArithmeticError(f"found only {len(got)} levels in the scan window")
    ok = True
    lines = [("index", "computed", "reference", "abs_diff")]
    for i, (c, ref) in enumerate(zip(got, TABLE1_REFERENCE)):
        d = abs(c - ref)
        ok = ok and d <= 5e-5
        lines.append((i, _fmt(c), _fmt(ref), _fmt(d)))
    width = [max(len(str(r[j])) for r in lines) for j in range(4)]
    text = "".join("  ".join(str(v).rjust(width[j]) for j, v in enumerate(r)) + "\n"
                   for r in lines)
    text += "table check: " + ("PASS" if ok else "FAIL") + "\n"
    return (EXIT_OK if ok else EXIT_MISMATCH), text


def _verify_rule(fam):
    """(oracle grid points, level tolerance) for checking `fam`."""
    if fam.tag == DELTA_DECORATED:
        return 8000, 5e-3
    return 4000, 2e-3


def _default_families():
    """The nine wells `verify` checks when no family is given: every
    entry of the family table, then every base a delta decorates."""
    return ([model.default_family(tag) for tag in model._DEFAULTS]
            + [model.default_family(DELTA_DECORATED, base=base)
               for base in model._DELTA_DEFAULTS])


def verify_family(fam, k, n_points):
    """(closed-form levels, oracle levels, max |diff|) for the first k
    levels of one family, the oracle's on an FD grid of n_points points;
    raises UsageError, before any chi call, when the scan of the default
    window exceeds MAX_SCAN_POINTS, and ArithmeticError, before the
    oracle runs, when that window holds fewer than k closed-form levels."""
    chi = spectrum.build_chi(fam)
    _scan_points(chi.window, spectrum._STEP)
    closed = spectrum.find_roots(chi, limit=k).values()
    if len(closed) < k:
        raise ArithmeticError(
            f"only {len(closed)} closed-form roots in window for {fam.name}")
    e_top = fam.energy(closed[-1])
    op = oracle.operator_for(fam, e_top, n_points)
    orc = [fam.natural_energy(e) for e in oracle.lowest_eigenvalues(op, k)]
    return closed, orc, max(abs(c - o) for c, o in zip(closed, orc))


def cmd_verify(cfg):
    families = (_default_families() if cfg.family is None
                else [model.family_from_dict(cfg.family)])
    all_ok = True
    lines = []
    for fam in families:
        n_def, tol = _verify_rule(fam)
        n = cfg.n_oracle or n_def
        closed, orc, worst = verify_family(fam, k=cfg.k_levels, n_points=n)
        ok = worst <= tol
        all_ok = all_ok and ok
        lines.append(f"{fam.name}: max level error {_fmt(worst)} "
                     f"(tol {_fmt(tol)}, n={n}) {'ok' if ok else 'MISMATCH'}\n")
    return (EXIT_OK if all_ok else EXIT_MISMATCH), "".join(lines)


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse defaults to exit code 2; the CLI contract reserves 2
        # for numerical failures and uses 1 for usage problems
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _parse_numbers(text, name, form, n_int=False):
    """Colon-separated numbers in the given form (e.g. "lo:hi"); with
    n_int the last one is an integer."""
    parts = text.split(":")
    try:
        if len(parts) != form.count(":") + 1:
            raise ValueError
        values = [float(v) for v in parts]
        if n_int:
            values[-1] = int(parts[-1])
    except ValueError:
        raise UsageError(f"{name} must be numeric {form}, got {text!r}") from None
    return tuple(values)


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


_FLAG_PARSERS = {
    "family": _parse_family,
    "window": lambda text: _parse_numbers(text, "--window", "lo:hi"),
    "sweep_range": lambda text: _parse_numbers(text, "--range", "from:to:step"),
    "grid": lambda text: _parse_numbers(text, "--grid", "xmin:xmax:n", n_int=True),
}


# the argument parser, built by the first build_config call: parse_args
# reads it and leaves it as it was, so every later request reuses it
# (building it costs about half a millisecond; at import it would slow
# every cold start)
_PARSER = None


def _parser():
    global _PARSER
    if _PARSER is None:
        parser = _Parser(prog="greenwell",
                         description="Bound states and Green functions of 1-d confining wells")
        parser.add_argument("command", choices=list(_COMMANDS))
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
        _PARSER = parser
    return _PARSER


def build_config(argv):
    ns = _parser().parse_args(argv)

    cfg_dict = {}
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
        cfg_dict = loaded
    # every config field has a flag of the same dest; flags override the
    # config file, --set overrides both
    for f in fields(RunConfig):
        value = getattr(ns, f.name)
        if value not in (None, ""):
            cfg_dict[f.name] = _FLAG_PARSERS[f.name](value) if f.name in _FLAG_PARSERS else value
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


def _check_out(path):
    """UsageError, before any work, when `path` is a directory or its
    directory does not exist; the file itself is neither created nor
    truncated here."""
    if os.path.isdir(path):
        raise UsageError(f"cannot write --out: {path!r} is a directory")
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        raise UsageError(f"cannot write --out: no directory {folder!r}")


def main(argv=None, stream=None):
    argv = sys.argv[1:] if argv is None else argv
    stream = stream if stream is not None else sys.stdout
    try:
        cfg, dump = build_config(argv)
        if dump:
            stream.write(json.dumps(cfg.to_dict(), indent=1, sort_keys=True) + "\n")
            return EXIT_OK
        if cfg.out:
            _check_out(cfg.out)
        code, text = _COMMANDS[cfg.command](cfg)
        if cfg.out:
            try:
                with open(cfg.out, "w", encoding="utf-8", newline="") as fh:
                    fh.write(text)
            except OSError as exc:
                raise UsageError(f"cannot write --out: {exc}") from None
        else:
            stream.write(text)
        return code
    # a value outside a documented special-function domain is a usage error
    except (UsageError, model.FamilyError, spectrum.SweepError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (resolvent.NearPoleError, resolvent.OnResonanceError,
            oracle.NearEigenvalueError, oracle.WallError,
            PoleError, ConvergenceError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())

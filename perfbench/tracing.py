"""Span tracing by wrapping the program's public functions from outside.

`Tracer.install` replaces every public function of the six greenwell
modules (the names in each module's `__all__`) with a wrapper that
records a span: name, start, end, parent span and request id.  Besides
the module attribute itself, every other reference the package holds to
the function is replaced too: names imported with `from ... import`
(e.g. `oracle.potential_value`) and values of module-level dicts (e.g.
`resolvent._BASE_GREEN`, which holds `green_ho` and `green_linear`), so
calls through those captured references are counted.  `uninstall` puts
every original back; the untraced run measures the bare program.

Spans are kept in memory in compact arrays and written out when the run
ends.  Self time is a span's duration minus the time its child spans
cover.
"""

from __future__ import annotations

import inspect
import json
import time
from array import array

MODULES = ("cli", "model", "oracle", "resolvent", "specfun", "spectrum")

# Airy argument regions, as specfun.airy_all routes them
_AIRY_SERIES_CUT = 7.0
_AIRY_DD_MIN = 4.0


def airy_region(x):
    if x > _AIRY_SERIES_CUT:
        return "asym_pos"
    if x < -_AIRY_SERIES_CUT:
        return "asym_neg"
    if x > _AIRY_DD_MIN:
        return "dd"
    return "series"


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request = array("i")
        self.aux = array("d")      # one number per span: roots found, bytes written, ...
        self._stack = [-1]
        self._req = [-1]
        self._patches = []

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def __len__(self):
        return len(self.name)

    # -- recording ------------------------------------------------------

    def _open(self, nid):
        sid = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.request.append(self._req[0])
        self.start.append(0.0)
        self.end.append(0.0)
        self.aux.append(0.0)
        self._stack.append(sid)
        return sid

    def _close(self, sid, t0, t1):
        self._stack.pop()
        self.start[sid] = t0
        self.end[sid] = t1

    def run_request(self, req_index, fn, *args):
        """Call fn(*args) as request `req_index`, inside a root span."""
        self._req[0] = req_index
        sid = self._open(self.name_id("bench.request"))
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self._close(sid, t0, time.perf_counter())
            self._req[0] = -1

    def wrap(self, fn, name, namer=None, aux=None):
        """A span-recording wrapper around fn."""
        nid = self.name_id(name)
        opened, closed, aux_col = self._open, self._close, self.aux
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            sid = opened(namer(args) if namer is not None else nid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                closed(sid, t0, clock())
            if aux is not None:
                aux_col[sid] = aux(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    # -- installing -----------------------------------------------------

    def _wrapper_for(self, mod_name, fn):
        name = f"{mod_name}.{fn.__name__}"
        if name == "specfun.airy_all":
            regions = {r: self.name_id(f"{name}.{r}")
                       for r in ("series", "dd", "asym_pos", "asym_neg")}
            return self.wrap(fn, name, namer=lambda args: regions[airy_region(args[0])])
        if name == "spectrum.find_roots":
            return self.wrap(fn, name, aux=lambda args, res: len(res.roots))
        if name == "oracle.lowest_eigenvalues":
            return self.wrap(fn, name, aux=lambda args, res: len(res))
        if name == "cli.main":
            return self.wrap(fn, name,
                             aux=lambda args, res: len(args[1].getvalue().encode("utf-8")))
        return self.wrap(fn, name)

    def install(self, gw):
        """Wrap the public functions of every module of namespace `gw`."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [getattr(gw, m) for m in MODULES]
        wrappers = {}
        for mod_name, mod in zip(MODULES, modules):
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[id(fn)] = self._wrapper_for(mod_name, fn)
        for mod in modules:
            space = vars(mod)
            for key, value in list(space.items()):
                if id(value) in wrappers:
                    self._patches.append((space, key, value))
                    space[key] = wrappers[id(value)]
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if id(v) in wrappers:
                            self._patches.append((value, k, v))
                            value[k] = wrappers[id(v)]
        return len(self._patches)

    def uninstall(self):
        while self._patches:
            container, key, original = self._patches.pop()
            container[key] = original

    # -- output ---------------------------------------------------------

    def write(self, path):
        """One JSON header line, then the raw column arrays."""
        cols = ("name", "start", "end", "parent", "request", "aux")
        header = {"names": self.names, "spans": len(self),
                  "columns": [[c, getattr(self, c).typecode] for c in cols]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for c in cols:
                getattr(self, c).tofile(fh)


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------

SPECFUN = ("rgamma", "kummer_m", "pcf_d", "weber_even_odd", "airy_all")
AIRY_REGIONS = ("series", "dd", "asym_pos", "asym_neg")
GREEN_FAMILY = {
    "resolvent.green_ho": "HO",
    "resolvent.green_ho_stark": "HO_STARK",
    "resolvent.green_linear": "LINEAR_ABS",
    "resolvent.green_ho_plus_abs": "HO_PLUS_ABS",
    "resolvent.green_decorated": "DELTA_DECORATED",
}


def span_stats(tr):
    """(calls per span name, self time per span name, derived counts the
    per-layer metrics need).  Spans are numbered in start order, so a
    parent always precedes its children."""
    n = len(tr)
    names, parents = tr.name, tr.parent
    dur = [e - s for s, e in zip(tr.start, tr.end)]
    child = [0.0] * n
    for i in range(n):
        p = parents[i]
        if p >= 0:
            child[p] += dur[i]
    label = tr.names
    calls = {}
    self_s = {}
    # top-level Green call (a green_* span not inside another) owning each span
    is_green = [nm in GREEN_FAMILY for nm in label]
    owner = array("i", [-1]) * n
    extra = {"chi_evals": 0, "kummer_in_pcf": 0, "sturm_in_eig": 0, "top_green": {},
             "specfun_in_green": 0, "roots": 0.0, "eigenvalues": 0.0, "out_bytes": 0.0}
    for i in range(n):
        nm = label[names[i]]
        calls[nm] = calls.get(nm, 0) + 1
        self_s[nm] = self_s.get(nm, 0.0) + dur[i] - child[i]
        p = parents[i]
        pname = label[names[p]] if p >= 0 else ""
        up = owner[p] if p >= 0 else -1
        if is_green[names[i]] and up < 0:
            owner[i] = i
            fam = GREEN_FAMILY[nm]
            extra["top_green"][fam] = extra["top_green"].get(fam, 0) + 1
        else:
            owner[i] = up
        if nm.startswith("spectrum.chi_") and pname == "spectrum.find_roots":
            extra["chi_evals"] += 1
        elif nm == "specfun.kummer_m" and pname == "specfun.pcf_d":
            extra["kummer_in_pcf"] += 1
        elif nm == "oracle.eigenvalue_count_below" and pname == "oracle.lowest_eigenvalues":
            extra["sturm_in_eig"] += 1
        elif nm == "spectrum.find_roots":
            extra["roots"] += tr.aux[i]
        elif nm == "oracle.lowest_eigenvalues":
            extra["eigenvalues"] += tr.aux[i]
        elif nm == "cli.main":
            extra["out_bytes"] += tr.aux[i]
        if up >= 0 and nm.startswith("specfun."):
            extra["specfun_in_green"] += 1
    return calls, self_s, extra


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(tr):
    """name -> (value, unit) for every per-layer metric."""
    calls, self_s, x = span_stats(tr)

    def c(name):
        return calls.get(name, 0)

    def s(*names):
        return sum(self_s.get(nm, 0.0) for nm in names)

    def prefixed(prefix):
        return [nm for nm in calls if nm.startswith(prefix)]

    m = {
        "cli.requests": (c("cli.main"), "count"),
        "cli.self_s": (s("cli.main"), "s"),
        "cli.out_bytes": (x["out_bytes"], "bytes"),
        "model.calls": (sum(c(nm) for nm in prefixed("model.")), "count"),
        "model.self_s": (s(*prefixed("model.")), "s"),
        "spectrum.find_roots.calls": (c("spectrum.find_roots"), "count"),
        "spectrum.find_roots.self_s": (s("spectrum.find_roots"), "s"),
        "spectrum.chi_evals": (x["chi_evals"], "count"),
        "spectrum.chi.self_s": (s(*prefixed("spectrum.chi_")), "s"),
        "spectrum.roots": (x["roots"], "count"),
        "spectrum.roots_per_chi_eval": (_ratio(x["roots"], x["chi_evals"]), "ratio"),
        "spectrum.sweep.calls": (c("spectrum.sweep"), "count"),
    }
    for fn in SPECFUN:
        names = [f"specfun.airy_all.{r}" for r in AIRY_REGIONS] if fn == "airy_all" \
            else [f"specfun.{fn}"]
        m[f"specfun.{fn}.calls"] = (sum(c(nm) for nm in names), "count")
        m[f"specfun.{fn}.self_s"] = (s(*names), "s")
    for r in AIRY_REGIONS:
        m[f"specfun.airy_all.{r}.calls"] = (c(f"specfun.airy_all.{r}"), "count")
        m[f"specfun.airy_all.{r}.self_s"] = (s(f"specfun.airy_all.{r}"), "s")
    m["specfun.kummer_m.calls_per_pcf_d"] = (_ratio(x["kummer_in_pcf"], c("specfun.pcf_d")),
                                             "ratio")
    top = x["top_green"]
    n_green = sum(top.values())
    m["resolvent.green.calls"] = (n_green, "count")
    for fam in GREEN_FAMILY.values():
        m[f"resolvent.green.calls.{fam}"] = (top.get(fam, 0), "count")
    m["resolvent.green.self_s"] = (s(*prefixed("resolvent.")), "s")
    m["resolvent.specfun_calls_per_green"] = (_ratio(x["specfun_in_green"], n_green), "ratio")
    sturm = c("oracle.eigenvalue_count_below")
    m["oracle.sturm_counts"] = (sturm, "count")
    m["oracle.sturm.self_s"] = (s("oracle.eigenvalue_count_below"), "s")
    m["oracle.sturm_counts_per_eigenvalue"] = (_ratio(x["sturm_in_eig"], x["eigenvalues"]),
                                               "ratio")
    m["oracle.discretize.self_s"] = (s("oracle.discretize"), "s")
    m["oracle.resolvent_solve.calls"] = (c("oracle.resolvent_solve"), "count")
    m["oracle.resolvent_solve.self_s"] = (s("oracle.resolvent_solve"), "s")
    m["trace.spans"] = (len(tr), "count")
    return m

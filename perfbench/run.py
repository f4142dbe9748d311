"""greenwell benchmark: one closed-loop client driving three seeded workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload spectrum_mix --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload green_grid --seed 1 --seconds 15 --trace 1
    python3 perfbench/run.py --compare OLD.jsonl NEW.jsonl

A run first times SETUP_CHILDREN cold set-ups (see cold_start.py) for
`setup_s`, then imports greenwell from `src/` of the checkout itself
and sends requests one at a time (a single client, no threads, each
request sent when the previous one returned) through
`greenwell.cli.main(argv, stream)` with an in-memory stream, or through
the public `oracle` functions for FD columns.  A run measures a fixed
number of rounds (ROUNDS, about `--seconds` of requests), the same on
every commit, so every commit's metrics come from the same requests;
then it checks every output against an independent reference (see
reference.py) and runs the known-defect probe (reference.known_defects).

Every time is scaled to a fixed CPU speed (see SpeedProbe); the
measured times are kept in the run's record as well.

`--trace 0` prints the end-to-end metrics.  `--trace 1` skips the cold
set-ups and runs a fixed number of rounds twice, first bare and then
with every public function of the program wrapped (see tracing.py), and
prints the per-layer metrics from the traced pass plus the tracing
overhead.  Either way the
last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`, and the run's record (header,
metrics, failing request ids) is appended to `--out`.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_CHILDREN = 7
# speed probe: PROBES runs of a loop of PROBE_LOOPS additions between
# any two requests; REF_PROBE_S is the probe time all times are scaled to
PROBE_LOOPS = 20000
PROBES = 5
REF_PROBE_S = 1e-3
# rounds a run measures at --seconds RUN_SECONDS (about that many seconds
# of requests on a 2-CPU Xeon VM); other --seconds scale them.  Fixed
# rounds give every commit the same requests, so the same sample count
# and the same tail percentile.
RUN_SECONDS = 15
ROUNDS = {"spectrum_mix": 9, "green_grid": 3, "oracle_check": 8}
TRACE_ROUNDS = {"spectrum_mix": 2, "green_grid": 1, "oracle_check": 2}
TAIL_BEYOND = 10
DEFAULT_OUT = HERE / "out" / "results.jsonl"


# ----------------------------------------------------------------------
# speed probe
# ----------------------------------------------------------------------


class SpeedProbe:
    """Scales measured times to a fixed CPU speed.

    On a shared machine the host can slow this process by up to 2x for
    tens of seconds at a time, in CPU time as much as in wall time, so
    runs taken minutes apart read up to 2x apart for the same work.
    The probe times a fixed pure-Python loop (benchmark code, which no
    change to the program touches) PROBES times between any two timed
    pieces of work.  A piece's scaled time is its measured time x
    REF_PROBE_S / (median of the probes taken just before and just after
    it): the time it would take where the probe takes REF_PROBE_S.
    """

    def __init__(self):
        self.last = self.sample()
        self.medians = []

    @staticmethod
    def sample():
        times = []
        for _ in range(PROBES):
            t0 = time.perf_counter()
            acc = 0.0
            for i in range(PROBE_LOOPS):
                acc += i * 0.5
            times.append(time.perf_counter() - t0)
        return times

    def scale(self, measured_s):
        """`measured_s`, just measured, at the reference speed."""
        after = self.sample()
        median = statistics.median(self.last + after)
        self.last = after
        self.medians.append(median)
        return measured_s * REF_PROBE_S / median


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------


def cold_setup_s(workload, seed, probe):
    """Median over SETUP_CHILDREN fresh processes of the time from the
    process's start until its first request is ready (cold_start.py),
    measured and scaled."""
    times, scaled = [], []
    for _ in range(SETUP_CHILDREN):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, str(HERE / "cold_start.py"), workload, str(seed)],
                              cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            times.append(time.perf_counter() - t0)
            child.stdout.read()
        if line != "ready\n" or child.returncode != 0:
            raise RuntimeError(f"cold set-up exited with code {child.returncode}")
        scaled.append(probe.scale(times[-1]))
    return statistics.median(times), statistics.median(scaled)


def load_program():
    """greenwell's modules as a namespace."""
    importlib.import_module("greenwell")
    return types.SimpleNamespace(
        **{m: importlib.import_module(f"greenwell.{m}") for m in tracing.MODULES})


# ----------------------------------------------------------------------
# the closed loop
# ----------------------------------------------------------------------


def call(gw, req):
    """(exit code or None, output) of one request; None if it raised."""
    try:
        return workloads.execute(gw, req)
    except Exception as exc:  # a raising request is a failed request, and the run goes on
        return None, f"raised {exc!r}"


def run_round(gw, reqs, probe, send=None):
    """Send every request of a round; returns
    [(req, code, output, scaled seconds, measured seconds)]."""
    out = []
    for i, req in enumerate(reqs):
        t0 = time.perf_counter()
        code, output = call(gw, req) if send is None else send(i, call, gw, req)
        measured = time.perf_counter() - t0
        out.append((req, code, output, probe.scale(measured), measured))
    return out


def rounds_for(workload, seconds):
    return max(1, round(ROUNDS[workload] * seconds / RUN_SECONDS))


def timed_rounds(gw, workload, seed, seconds, probe):
    """The run's fixed number of rounds, each a list of results.
    Generating a round and probing the speed are not timed."""
    return [run_round(gw, workloads.make_round(gw, workload, seed, index), probe)
            for index in range(rounds_for(workload, seconds))]


def check_all(gw, results):
    """(rows per request, {request id: problems}) from the references."""
    rows, failed = [], {}
    for req, code, output, *_ in results:
        if code is None:
            n, problems = 0, [output]
        else:
            n, problems = reference.check(gw, req, code, output)
        rows.append(n)
        if problems:
            failed[req.rid] = problems
    return rows, failed


def tail(latencies):
    """(value, percentile) of the highest percentile with TAIL_BEYOND
    samples beyond it; the maximum when that percentile would lie below
    the median (fewer than 2 TAIL_BEYOND + 1 samples)."""
    ordered = sorted(latencies)
    k = len(ordered) - TAIL_BEYOND - 1
    if k < len(ordered) // 2:
        k = len(ordered) - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered)


# ----------------------------------------------------------------------
# result records
# ----------------------------------------------------------------------


def git_sha():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=20, check=False)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def header(args, probe):
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "probe_median_s": statistics.median(probe.medians),
        "ref_probe_s": REF_PROBE_S,
    }


def emit(args, record, metrics, notes):
    """Append the record to --out and print the notes and the metrics,
    the last line as the result JSON."""
    record["metrics"] = {k: v for k, (v, _) in metrics.items()}
    record["units"] = {k: u for k, (_, u) in metrics.items()}
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    for rid in record["failed_ids"]:
        problems = record["problems"][rid]
        print(f"FAILED {rid}: {problems[0]} ({len(problems)} problem(s) shown)")
    for problem in record["known_defects"]:
        print(f"KNOWN DEFECT {' '.join(reference.DEFECT_ARGV)}: {problem}")
    for line in notes:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit}")
    failed = len(record["failed_ids"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": record["requests"],
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def run_untraced(args, gw, setup, probe):
    rounds = timed_rounds(gw, args.workload, args.seed, args.seconds, probe)
    results = [res for done in rounds for res in done]
    # a round's time is the sum of its request times
    walls = [sum(r[3] for r in done) for done in rounds]
    wall_s = sum(walls)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    t0 = time.perf_counter()
    checked = [check_all(gw, done) for done in rounds]
    check_s = time.perf_counter() - t0
    round_rows = [sum(rows) for rows, _ in checked]
    failed = {rid: problems for _, f in checked for rid, problems in f.items()}
    latencies = [r[3] for r in results]
    tail_s, tail_p = tail(latencies)
    attempted = len(results)
    metrics = {
        "setup_s": (setup[1], "s"),
        "wall_s": (wall_s, "s"),
        "req_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "req_tail_ms": (1e3 * tail_s, "ms"),
        "rows_per_s": (sum(round_rows) / wall_s, "rows/s"),
        "pass_frac": (1.0 - len(failed) / attempted, "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    measured_walls = [sum(r[4] for r in done) for done in rounds]
    measured_latencies = [r[4] for r in results]
    record = header(args, probe)
    record.update({
        "rounds": len(walls),
        "round_walls": walls,
        "latencies": latencies,
        "measured": {
            "setup_s": setup[0],
            "wall_s": sum(measured_walls),
            "req_p50_ms": 1e3 * statistics.median(measured_latencies),
            "req_tail_ms": 1e3 * tail(measured_latencies)[0],
            "round_walls": measured_walls,
        },
        "requests": attempted,
        "rows": sum(round_rows),
        "tail_percentile": tail_p,
        "check_s": check_s,
        "fail_frac": len(failed) / attempted,
        "failed_ids": sorted(failed),
        "problems": {rid: p[:5] for rid, p in failed.items()},
        "known_defects": reference.known_defects(gw),
    })
    emit(args, record, metrics, [
        f"{'rounds':40s} {len(walls):14d} (one round = one request list)",
        f"{'requests':40s} {attempted:14d}",
        f"{'req_tail_ms percentile':40s} {tail_p:14.4g} (p{tail_p:.1f} of {attempted} requests)",
        f"{'fail_frac':40s} {len(failed) / attempted:14.6g} "
        f"({len(failed)} of {attempted} requests failed)",
        f"{'speed probe median':40s} {1e3 * record['probe_median_s']:14.4g} ms "
        f"(times below are scaled to {1e3 * REF_PROBE_S:g} ms)",
        f"{'measured wall_s':40s} {record['measured']['wall_s']:14.6g} s (not scaled)",
    ])


def run_traced(args, gw, probe):
    rounds = [workloads.make_round(gw, args.workload, args.seed, i)
              for i in range(TRACE_ROUNDS[args.workload])]
    bare = [res for reqs in rounds for res in run_round(gw, reqs, probe)]
    t_bare = sum(r[3] for r in bare)
    tracer = tracing.Tracer()
    tracer.install(gw)
    try:
        traced = [res for reqs in rounds
                  for res in run_round(gw, reqs, probe, tracer.run_request)]
        t_traced = sum(r[3] for r in traced)
    finally:
        tracer.uninstall()
    rows, failed = check_all(gw, bare)
    for (req, code, out, *_), (_, tcode, tout, *_) in zip(bare, traced):
        if (code, out) != (tcode, tout):
            failed.setdefault(req.rid, []).append("traced output differs from untraced output")
    defects = reference.known_defects(gw)
    metrics = tracing.layer_metrics(tracer)
    metrics["resolvent.known_defect_points"] = (len(defects), "count")
    metrics["trace.overhead_s"] = (t_traced - t_bare, "s")
    metrics["trace.overhead_frac"] = ((t_traced - t_bare) / t_bare, "ratio")
    spans_path = Path(args.out).parent / f"spans-{args.workload}-seed{args.seed}.bin"
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(spans_path)
    record = header(args, probe)
    record.update({
        "rounds": len(rounds),
        "requests": len(bare),
        "untraced_s": t_bare,
        "traced_s": t_traced,
        "overhead_s": t_traced - t_bare,
        "spans_file": str(spans_path),
        "fail_frac": len(failed) / len(bare),
        "failed_ids": sorted(failed),
        "problems": {rid: p[:5] for rid, p in failed.items()},
        "known_defects": defects,
    })
    emit(args, record, metrics, [
        f"{'fail_frac':40s} {len(failed) / len(bare):14.6g} "
        f"({len(failed)} of {len(bare)} requests failed)",
    ])


# ----------------------------------------------------------------------
# compare mode
# ----------------------------------------------------------------------


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(old, new, better, bound):
    """improved / worse / unchanged / unresolved for one metric.

    `bound` is the benchmark's bound on the metric (a share of the old
    median); for metrics without one, the old side's own quartile spread.
    Spreads wider than the bound leave the metric unresolved unless every
    new run beats (or trails) every old run.
    """
    o1, om, o3 = quartiles(old)
    n1, nm, n3 = quartiles(new)
    if om == nm and min(old) == max(old) == min(new) == max(new):
        return "unchanged"
    sign = 1.0 if better == "lower" else -1.0
    if om == 0:
        return "unresolved"
    worse_by = sign * (nm - om) / abs(om)
    spread = max((o3 - o1) / abs(om), (n3 - n1) / abs(nm) if nm else 0.0)
    if bound is None:
        bound = (o3 - o1) / abs(om)
    beats = all(sign * (n - o) < 0 for n in new for o in old)
    trails = all(sign * (n - o) > 0 for n in new for o in old)
    if spread > bound:
        return "improved" if beats else "worse" if trails else "unresolved"
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "improved"
    return "unchanged"


def load_records(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def compare(old_path, new_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    meta = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    old, new = load_records(old_path), load_records(new_path)
    keys = sorted({(r["workload"], r["trace"]) for r in old}
                  & {(r["workload"], r["trace"]) for r in new})
    print(f"{'workload':14s} {'metric':38s} {'old q1/med/q3':>32s} "
          f"{'new q1/med/q3':>32s} {'ratio':>8s}  verdict")
    for workload, trace in keys:
        o_runs = [r for r in old if (r["workload"], r["trace"]) == (workload, trace)]
        n_runs = [r for r in new if (r["workload"], r["trace"]) == (workload, trace)]
        names = [n for n in o_runs[0]["metrics"] if all(n in r["metrics"] for r in o_runs + n_runs)]
        for name in names:
            ov = [r["metrics"][name] for r in o_runs]
            nv = [r["metrics"][name] for r in n_runs]
            m = meta.get(name, {"better": "lower"})
            oq, nq = quartiles(ov), quartiles(nv)
            ratio = nq[1] / oq[1] if oq[1] else float("nan")
            v = verdict(ov, nv, m["better"], m.get("bound"))
            print(f"{workload:14s} {name:38s} "
                  f"{oq[0]:10.4g} {oq[1]:10.4g} {oq[2]:10.4g} "
                  f"{nq[0]:10.4g} {nq[1]:10.4g} {nq[2]:10.4g} {ratio:8.4f}  {v}")
        for label, runs in (("old", o_runs), ("new", n_runs)):
            fails = [r["fail_frac"] for r in runs]
            print(f"{workload:14s} {'fail_frac (' + label + ')':38s} "
                  f"median {statistics.median(fails):.4g} over {len(runs)} run(s)")
    return 0


# ----------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=str(DEFAULT_OUT),
                        help="results file (JSON lines) the run's record is appended to")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="compare two results files instead of running")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required unless --compare is given")
    if not (ROOT / "src" / "greenwell" / "__init__.py").is_file():
        print(f"error: no greenwell sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    probe = SpeedProbe()
    if args.trace:
        run_traced(args, load_program(), probe)
    else:
        setup = cold_setup_s(args.workload, args.seed, probe)
        run_untraced(args, load_program(), setup, probe)
    return 0


if __name__ == "__main__":
    sys.exit(main())

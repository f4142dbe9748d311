"""An interleaved A/B of two checkouts on the requests of one benchmark workload.

Run from anywhere:

    python3 tools/ab.py PARENT_DIR CHANGE_DIR WORKLOAD [--seed N] [--reps K]

It starts two worker processes, one per checkout, each importing the
program (`src/`) and the benchmark (`perfbench/`) of its own checkout.
The parent's worker builds the requests of every timed round of
WORKLOAD for seed N (`perfbench/workloads.py`, with the round count
`perfbench/run.py` times at its default `--seconds`), and both workers
run those same requests, one request at a time, alternately: K runs on
each side, the side that goes first flipped from one request to the
next.  A worker times each run of a request (one `run.call`, the
benchmark's own entry) and keeps the minimum of its K runs.  Both sides
must give the same exit code and the same output sha256 (the bytes
`tools/request_hashes.py` hashes); the first request where they do not
is named on stderr, and the tool exits 1.

It prints, per request kind and in total, the number of requests, the
sum of each side's minima in ms and their ratio, change / parent.  Both
workers are stopped before it returns.

Minima of the same requests, taken close together in time, cancel most
of a shared host's drift, so they size a change of a few percent in
minutes; `perfbench/run.py --compare` over alternating benchmark runs
stays the measure of a claimed end-to-end gain.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import multiprocessing
import sys
import time
from pathlib import Path


def _digest(code, output):
    """The sha256 of an exit code and a CLI text or an FD column, of the
    bytes tools/request_hashes.py hashes."""
    if not isinstance(output, str):
        output = "\n".join(float(v).hex() for v in output)
    return hashlib.sha256(f"{code}\n{output}".encode()).hexdigest()


def _serve(checkout, workload, seed, conn):
    """A worker on `checkout`: answers ("round", index) with that round's
    requests as dicts, ("run", request dict) with (seconds, exit code,
    output sha256) of one run, and stops at None."""
    root = Path(checkout).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import run  # the checkout's perfbench, first on the path now
    import workloads

    gw = run.load_program()
    src = Path(gw.cli.__file__).resolve()
    if root not in src.parents:
        raise RuntimeError(f"{checkout}: imported greenwell from {src}")
    while (msg := conn.recv()) is not None:
        what, arg = msg
        if what == "round":
            conn.send([dataclasses.asdict(r) for r in workloads.make_round(gw, workload, seed, arg)])
        else:
            req = workloads.Request(**arg)
            t0 = time.perf_counter()
            code, output = run.call(gw, req)
            conn.send((time.perf_counter() - t0, code, _digest(code, output)))


class Workers:
    """The parent's and the change's worker, started on entering and
    stopped on leaving a `with` block."""

    def __init__(self, parent, change, workload, seed):
        self.args = [(parent, workload, seed), (change, workload, seed)]

    def __enter__(self):
        ctx = multiprocessing.get_context("spawn")
        self.conns, self.procs = [], []
        for args in self.args:
            mine, theirs = ctx.Pipe()
            proc = ctx.Process(target=_serve, args=(*args, theirs), daemon=True)
            proc.start()
            theirs.close()
            self.conns.append(mine)
            self.procs.append(proc)
        return self

    def __exit__(self, *exc):
        for conn in self.conns:
            try:
                conn.send(None)
            except OSError:  # the worker has already gone
                pass
        for proc in self.procs:
            proc.join(timeout=10)
            if proc.is_alive():
                proc.terminate()
                proc.join()
        for conn in self.conns:
            conn.close()

    def ask(self, side, msg):
        """Send `msg` to worker `side` (0 parent, 1 change) and return its answer."""
        self.conns[side].send(msg)
        try:
            return self.conns[side].recv()
        except EOFError:
            raise RuntimeError(f"the worker on {self.args[side][0]} stopped") from None

    def requests(self, rounds):
        """The requests of `rounds` (round indices), as the parent builds them."""
        return [req for index in rounds for req in self.ask(0, ("round", index))]

    def measure(self, reqs, reps):
        """[(request, parent minimum s, change minimum s)] over `reps` runs
        on each side, alternately, the side that goes first flipped from
        one request to the next; ValueError names the first request whose
        exit code or output differs between the sides."""
        out = []
        for n, req in enumerate(reqs):
            sides = (0, 1) if n % 2 == 0 else (1, 0)
            best = [float("inf"), float("inf")]
            seen = [None, None]
            for _ in range(reps):
                for side in sides:
                    seconds, code, digest = self.ask(side, ("run", req))
                    best[side] = min(best[side], seconds)
                    seen[side] = (code, digest)
            if seen[0] != seen[1]:
                raise ValueError(f"{req['rid']}: parent gave {seen[0]}, change {seen[1]}")
            out.append((req, best[0], best[1]))
        return out


def report(results):
    """The table of summed minima and ratios, per request kind and in total."""
    kinds = {}
    for req, old, new in results:
        for key in (req["kind"], "total"):
            n, a, b = kinds.get(key, (0, 0.0, 0.0))
            kinds[key] = (n + 1, a + old, b + new)
    kinds["total"] = kinds.pop("total")  # last
    lines = [f"{'kind':<12} {'n':>4} {'parent_ms':>11} {'change_ms':>11} {'ratio':>7}"]
    for key, (n, a, b) in kinds.items():
        lines.append(f"{key:<12} {n:>4} {a * 1e3:>11.1f} {b * 1e3:>11.1f} {b / a:>7.3f}")
    return "\n".join(lines)


def main(argv=None):
    # perfbench/run.py of this checkout gives the workload names and round counts
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    import run

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", metavar="PARENT_DIR")
    parser.add_argument("change", metavar="CHANGE_DIR")
    parser.add_argument("workload", choices=sorted(run.ROUNDS), metavar="WORKLOAD")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--reps", type=int, default=3, help="runs per request and side (default 3)")
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error("--reps must be >= 1")
    with Workers(args.parent, args.change, args.workload, args.seed) as workers:
        reqs = workers.requests(range(run.rounds_for(args.workload, run.RUN_SECONDS)))
        try:
            results = workers.measure(reqs, args.reps)
        except ValueError as exc:
            print(f"ab: outputs differ: {exc}", file=sys.stderr)
            return 1
    print(report(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())

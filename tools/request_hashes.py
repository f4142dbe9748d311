"""sha256 of the exit code and output of every benchmark request.

Run from the root of a checkout:

    python3 tools/request_hashes.py SEED [SEED ...] [--workload NAME ...]

For each seed, builds every request of every timed round of the
benchmark workloads (`perfbench/workloads.py`, with the round counts
`perfbench/run.py` times at its default `--seconds`), runs it through
the program in `src/` of this checkout and prints one line per request:

    <workload> <seed> <request id> <sha256 of exit code and output>

The output of a CLI request is its stdout; that of an FD-column request
is the column, one `float.hex` per line.  Two checkouts print the same
lines exactly when every request gave the same exit code and the same
bytes, so `diff` of two runs checks a "same bytes" claim.  The
program's error messages still go to stderr.  `--workload` (repeatable)
restricts the run to the named workloads; the default is all three, and
the lines of a workload do not depend on which others run.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402
import workloads  # noqa: E402


def request_hash(code, output):
    """sha256 of an exit code and a CLI text or an FD column."""
    if not isinstance(output, str):
        output = "\n".join(float(v).hex() for v in output)
    return hashlib.sha256(f"{code}\n{output}".encode()).hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("seeds", nargs="+", type=int, metavar="SEED")
    parser.add_argument("--workload", action="append", choices=workloads.WORKLOADS,
                        help="hash only this workload's requests (repeatable; default all)")
    args = parser.parse_args(argv)
    chosen = [w for w in workloads.WORKLOADS if args.workload is None or w in args.workload]
    gw = run.load_program()
    for seed in args.seeds:
        for workload in chosen:
            for index in range(run.rounds_for(workload, run.RUN_SECONDS)):
                for req in workloads.make_round(gw, workload, seed, index):
                    code, output = run.call(gw, req)
                    print(workload, seed, req.rid, request_hash(code, output), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

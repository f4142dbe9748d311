"""sha256 of the exit code and output of every benchmark request.

Run from the root of a checkout:

    python3 tools/request_hashes.py SEED [SEED ...] [--workload NAME ...] [--dump DIR]

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

`--dump DIR` also writes the hashed bytes of each request, its exit
code on the first line and its output after it, to `DIR/<workload>/<seed>/<request
id>`, so the sha256 of that file is the hash printed for the request.
`tools/drift.py OLD_DIR NEW_DIR` compares two dumps number by number.
DIR must be empty or not exist yet.
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


def request_bytes(code, output):
    """An exit code and a CLI text or an FD column, as the bytes hashed."""
    if not isinstance(output, str):
        output = "\n".join(float(v).hex() for v in output)
    return f"{code}\n{output}".encode()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("seeds", nargs="+", type=int, metavar="SEED")
    parser.add_argument("--workload", action="append", choices=workloads.WORKLOADS,
                        help="hash only this workload's requests (repeatable; default all)")
    parser.add_argument("--dump", type=Path, metavar="DIR",
                        help="also write each request's exit code and output under DIR")
    args = parser.parse_args(argv)
    if args.dump is not None and args.dump.exists() and (
            not args.dump.is_dir() or any(args.dump.iterdir())):
        parser.error(f"--dump {args.dump} must be an empty directory or not exist")
    chosen = [w for w in workloads.WORKLOADS if args.workload is None or w in args.workload]
    gw = run.load_program()
    for seed in args.seeds:
        for workload in chosen:
            for index in range(run.rounds_for(workload, run.RUN_SECONDS)):
                for req in workloads.make_round(gw, workload, seed, index):
                    data = request_bytes(*run.call(gw, req))
                    print(workload, seed, req.rid, hashlib.sha256(data).hexdigest(), flush=True)
                    if args.dump is not None:
                        path = args.dump / workload / str(seed) / req.rid
                        path.parent.mkdir(parents=True, exist_ok=True)
                        path.write_bytes(data)
    return 0


if __name__ == "__main__":
    sys.exit(main())

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
program's error messages still go to stderr.

After the workloads comes one more group, `pinned`, which does not
depend on the seed (its seed column is `-`): one request per row of the
table in `tools/pinned.py`, which holds the README's `levels`, `sweep`
and `green-grid` examples and every request whose exit code and stdout
sha256 the tests pin, with the same request ids in the same order.  So a
deliberate change of pinned bytes, the window-less sweeps the benchmark
never runs included, has hash and drift lines too.  `--workload`
(repeatable) restricts the run to the named workloads or `pinned`; the
default is all of them, and the lines of a workload do not depend on
which others run.

`--dump DIR` also writes the hashed bytes of each request, its exit
code on the first line and its output after it, to `DIR/<workload>/<seed>/<request
id>`, so the sha256 of that file is the hash printed for the request.
`tools/drift.py OLD_DIR NEW_DIR` compares two dumps number by number.
DIR must be empty or not exist yet.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import pinned  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


PINNED = "pinned"


def pinned_requests(config_path):
    """The `pinned` group as requests, one per row of pinned.PINNED; "CFG"
    in an argv becomes config_path."""
    return [workloads.Request(rid, rid.split(".")[2], argv=pinned.with_config(argv, config_path))
            for rid, (_, argv, _, _) in zip(pinned.request_ids(), pinned.PINNED)]


def request_bytes(code, output):
    """An exit code and a CLI text or an FD column, as the bytes hashed."""
    if not isinstance(output, str):
        output = "\n".join(float(v).hex() for v in output)
    return f"{code}\n{output}".encode()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("seeds", nargs="+", type=int, metavar="SEED")
    parser.add_argument("--workload", action="append",
                        choices=(*workloads.WORKLOADS, PINNED),
                        help="hash only this workload's requests, or the pinned group "
                             "(repeatable; default all)")
    parser.add_argument("--dump", type=Path, metavar="DIR",
                        help="also write each request's exit code and output under DIR")
    args = parser.parse_args(argv)
    if args.dump is not None and args.dump.exists() and (
            not args.dump.is_dir() or any(args.dump.iterdir())):
        parser.error(f"--dump {args.dump} must be an empty directory or not exist")
    chosen = [w for w in (*workloads.WORKLOADS, PINNED)
              if args.workload is None or w in args.workload]
    gw = run.load_program()

    def report(workload, seed, req):
        data = request_bytes(*run.call(gw, req))
        print(workload, seed, req.rid, hashlib.sha256(data).hexdigest(), flush=True)
        if args.dump is not None:
            path = args.dump / workload / seed / req.rid
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(data)

    for seed in args.seeds:
        for workload in chosen:
            if workload == PINNED:
                continue
            for index in range(run.rounds_for(workload, run.RUN_SECONDS)):
                for req in workloads.make_round(gw, workload, seed, index):
                    report(workload, str(seed), req)
    if PINNED in chosen:
        with tempfile.TemporaryDirectory() as tmp:
            config = Path(tmp) / "run.json"
            config.write_text(json.dumps(pinned.CONFIG))
            for req in pinned_requests(config):
                report(PINNED, "-", req)
    return 0


if __name__ == "__main__":
    sys.exit(main())

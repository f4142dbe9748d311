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
depend on the seed (its seed column is `-`): the `levels`, `sweep` and
`green-grid` examples of the README and every argv whose bytes
`tests/test_cli.py` pins with a sha256, so a deliberate change of
those bytes, the window-less sweeps the benchmark never runs included,
has hash and drift lines too.  `--workload` (repeatable) restricts the
run to the named workloads or `pinned`; the default is all of them, and
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
import json
import math
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402
import workloads  # noqa: E402


PINNED = "pinned"
_DEC_HO = '{"tag": "DELTA_DECORATED", "base": "HO", "scales": {"delta_position": -0.5}}'
_TAU_1_2 = -1.2 * math.sqrt(math.pi)  # tau = -1.2
_FLOOR_WELLS = [
    ("HO-p0", {"tag": "DELTA_DECORATED", "base": "HO",
               "scales": {"delta_strength": _TAU_1_2, "delta_position": 0.0}}),
    ("HO-q0.7", {"tag": "DELTA_DECORATED", "base": "HO",
                 "scales": {"delta_strength": _TAU_1_2, "delta_position": 0.7}}),
    ("LINEAR_ABS", {"tag": "DELTA_DECORATED", "base": "LINEAR_ABS",
                    "scales": {"delta_strength": -1.6}}),
]
# a Stark well whose bottom lies at x = -phi = -12.17
_SHIFTED_STARK = json.dumps({"tag": "HO_STARK", "scales": {"alpha1": 2.3}})
# the config file that "CFG" stands for, as tests/test_cli.py writes it
CONFIG = {"command": "sweep", "family": {"tag": "HO", "scales": {"omega1": 2.0}},
          "window": [0, 5], "step": 0.01, "format": "json"}
# (label, argv): the README examples, then the argvs tests/test_cli.py pins
PINNED_ARGVS = [
    ("README-HO", ["levels", "--family", "HO", "--window", "0:6"]),
    ("README-DEC_HO", ["levels", "--family", "DELTA_DECORATED(HO)", "--window=-3:6"]),
    ("README-lam", ["sweep", "--family", "HO_ASYM", "--param", "lam", "--range",
                    "0.2:3.0:0.05", "--allow-breaks"]),
    ("README-tau", ["sweep", "--family", "DELTA_DECORATED(HO)", "--param", "tau",
                    "--range=-1.2:1.2:0.05"]),
    ("README-LINEAR_ABS", ["green-grid", "--family", "LINEAR_ABS", "--energy", "2.3",
                           "--grid=-4:4:81"]),
    *((tag, ["levels", "--family", tag]) for tag in (
        "HO", "HO_STARK", "HO_ASYM", "LINEAR_ABS", "LINEAR_ASYM", "HALF_HO_HALF_LINEAR",
        "HO_PLUS_ABS", "DELTA_DECORATED(HO)", "DELTA_DECORATED(LINEAR_ABS)")),
    ("muphi", ["sweep", "--family", "HO_PLUS_ABS", "--param", "muphi", "--range",
               "0.5:1.5:0.25", "--window", "0:5", "--allow-breaks"]),
    ("step5", ["sweep", "--family", "HO_ASYM", "--param", "lam", "--range", "1:1.05:0.05",
               "--window", "0:3", "--step", "5"]),
    *((f"{label}-{fmt}", ["green-grid", "--family", family, "--energy", energy,
                          "--grid=-2:2:9", "--format", fmt])
      for label, family, energy in (
          ("HO", "HO", "2.3"), ("HO_STARK", "HO_STARK", "2.3"),
          ("LINEAR_ABS", "LINEAR_ABS", "1.7"), ("HO_PLUS_ABS", "HO_PLUS_ABS", "2.3"),
          ("DEC_HO", _DEC_HO, "2.3"), ("DEC_LINEAR_ABS", "DELTA_DECORATED(LINEAR_ABS)", "1.7"))
      for fmt in ("csv", "json")),
    *((f"{label}-{fmt}", ["green-grid", *argv, "--format", fmt])
      for label, argv in (
          ("LINEAR_ABS-81", ["--family", "LINEAR_ABS", "--energy", "2.3", "--grid=-4:4:81"]),
          ("DEC_HO-81", ["--family", "DELTA_DECORATED(HO)", "--energy", "2.3",
                         "--grid=-4:4:81"]),
          ("HO-xp-0", ["--family", "HO", "--energy", "2.3", "--grid=-2:2:9", "--xp=-0"]))
      for fmt in ("csv", "json")),
    ("table1", ["table1"]),
    *(argv for label, fd in _FLOOR_WELLS
      for argv in ((f"floor-{label}", ["levels", "--family", json.dumps(fd)]),
                   (f"floor-{label}", ["verify", "--k", "6", "--n-oracle", "1000",
                                       "--family", json.dumps(fd)]))),
    ("DEC_LINEAR_ABS-q1.5", ["levels", "--family", json.dumps(
        {"tag": "DELTA_DECORATED", "base": "LINEAR_ABS",
         "scales": {"delta_strength": -1.6, "delta_position": 1.5}})]),
    ("all", ["verify"]),
    *((f"{k:02d}", [*argv, "--dump-config"]) for k, argv in enumerate([
        ["levels"],
        ["levels", "--family", "LINEAR_ABS", "--window=-1:5", "--step", "0.01",
         "--format", "json", "--out", "rows.json"],
        ["sweep", "--family", "HO_ASYM", "--param", "lam", "--range", "0.2:3:0.05",
         "--allow-breaks"],
        ["green-grid", "--family", "DELTA_DECORATED(HO)", "--energy", "2.3",
         "--grid=-4:4:81", "--xp", "0.3"],
        ["verify", "--family", "HO", "--k", "3", "--n-oracle", "1000"],
        ["verify", "--family", "DELTA_DECORATED(LINEAR_ABS)"],
        ["table1"],
        ["levels", "--config", "CFG"],
        ["levels", "--config", "CFG", "--family", "HO_STARK",
         "--set", "family.scales.alpha1=0.5", "--set", "k_levels=4"],
        ["green-grid", "--family", '{"tag": "HO_ASYM", "scales": {"omega2": 2}}',
         "--set", "grid=[-1, 1, 5]", "--set", "energy=3"],
    ])),
    ("STARK-shifted", ["verify", "--family", _SHIFTED_STARK]),
    ("STARK-shifted", ["levels", "--family", _SHIFTED_STARK, "--window=-80:-70",
                       "--step", "5"]),
    ("HO-tail", ["green-grid", "--family", "HO", "--energy", "2.3", "--grid=0:10:11",
                 "--xp", "0"]),
    ("LINEAR_ABS-tail", ["green-grid", "--family", "LINEAR_ABS", "--energy", "1.5",
                         "--grid=0:20:5", "--xp", "0"]),
    ("HO-cut", ["green-grid", "--family", "HO", "--energy", "2.3", "--grid=4.3:4.9:4",
                "--xp", "0"]),
    ("HO-index", ["levels", "--family", "HO", "--window", "3:6"]),
    *((f"DEC_HO-81-CI-{fmt}", ["green-grid", "--family", "DELTA_DECORATED(HO)", "--energy",
                               "2.3", "--grid=-2:2:81", "--format", fmt])
      for fmt in ("csv", "json")),
    # a ground state below the default window's low edge eps = -50
    ("DEC_HO-deep", ["levels", "--family", json.dumps(
        {"tag": "DELTA_DECORATED", "base": "HO", "scales": {"delta_strength": -10.5}})]),
]


def pinned_requests(config_path):
    """The `pinned` group as requests; "CFG" in an argv becomes config_path."""
    reqs = []
    for i, (label, argv) in enumerate(PINNED_ARGVS):
        kind = "dump-config" if "--dump-config" in argv else argv[0]
        argv = [str(config_path) if a == "CFG" else a for a in argv]
        reqs.append(workloads.Request(f"pin.{i:02d}.{kind}.{label}", kind, argv=argv))
    return reqs


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
            config.write_text(json.dumps(CONFIG))
            for req in pinned_requests(config):
                report(PINNED, "-", req)
    return 0


if __name__ == "__main__":
    sys.exit(main())

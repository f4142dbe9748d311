"""One cold set-up, as a fresh process pays it.

    python3 perfbench/cold_start.py WORKLOAD SEED

Imports greenwell (which imports `cli` eagerly) and every module the
workloads call, with the standard library still cold, builds round 0 of
the workload from the seed and prints `ready`.  `run.py` times several
of these processes from their start to that line; the median is the
run's `setup_s`.  Nothing but `os`, `sys` and `types` (loaded with
the interpreter) is imported before greenwell.
"""

import os
import sys
import types

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from greenwell import cli, model, oracle, resolvent, specfun, spectrum  # noqa: E402

import workloads  # noqa: E402

gw = types.SimpleNamespace(cli=cli, model=model, oracle=oracle, resolvent=resolvent,
                           specfun=specfun, spectrum=spectrum)
workloads.make_round(gw, sys.argv[1], int(sys.argv[2]), 0)
sys.stdout.write("ready\n")
sys.stdout.flush()

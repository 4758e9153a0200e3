"""Run one ``zlattice`` CLI command with the benchmark tracer installed.

Used by the traced ``cli_batch`` run in place of ``python -m zlattice.cli``.
The command's spans are written to the file named by ``ZLBENCH_SPANS``; the
root span ``cli.main`` times ``main`` in-process.  The time this script spends
on the tracer itself (importing and installing it, writing the spans) goes to
``<ZLBENCH_SPANS>.overhead``, so the parent can subtract both from the child's
wall time and keep only interpreter and zlattice start-up.
"""

import json
import os
import sys
import time

t0 = time.perf_counter()
from tracer import Tracer  # noqa: E402 - timed as tracer overhead

t1 = time.perf_counter()
import zlattice.cli  # noqa: E402

t2 = time.perf_counter()
tracer = Tracer()
tracer.install()
t3 = time.perf_counter()
with tracer.root("cli.main"):
    code = zlattice.cli.main(sys.argv[1:])
t4 = time.perf_counter()
path = os.environ["ZLBENCH_SPANS"]
tracer.dump(path)
t5 = time.perf_counter()
with open(path + ".overhead", "w") as fh:
    json.dump({"install_s": (t1 - t0) + (t3 - t2), "dump_s": t5 - t4}, fh)
sys.exit(code)

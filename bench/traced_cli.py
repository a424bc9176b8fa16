"""Traced cold CLI process: ``python bench/traced_cli.py <vnalg args>``.

Times ``import vnalg.cli``, runs ``vnalg.cli.main`` on stdin under the
tracer, and writes the counters as one JSON line on stderr; stdout and the
exit code are the CLI's own.
"""

import json
import sys
import time

t0 = time.perf_counter()
import vnalg.cli  # noqa: E402
import_s = time.perf_counter() - t0

from tracer import Tracer  # noqa: E402

tracer = Tracer()
tracer.install()
tracer.begin_unit()
try:
    rc = vnalg.cli.main(sys.argv[1:])
finally:
    traced_s = tracer.end_unit()
    tracer.uninstall()
sys.stdout.flush()
sys.stderr.write(json.dumps({"import_s": import_s, "traced_s": traced_s,
                             "stats": tracer.stats,
                             "dup_hits": tracer.dup_hits}) + "\n")
sys.exit(rc)

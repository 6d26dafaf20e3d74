"""Run one parlines CLI command in this fresh interpreter and report on it.

Usage: ``python3 child.py SPEC_JSON`` where the spec holds ``root`` (the
checkout), ``argv`` (the CLI arguments), ``trace`` (install the tracer) and
``spawn_t`` (the parent's ``time.monotonic()`` just before it started this
process; the clock is system-wide).  Prints one JSON object: the CLI exit
code and stdout, ``setup_s`` (spawn to the start of ``main()``: interpreter
start, imports, tracer install), ``main_s`` (``main()`` alone), the peak RSS
of this process, and the tracer snapshot when traced.  Exits 3 without a
report if ``parlines`` would not be imported from the checkout's ``src/``.
"""

import io
import json
import os
import resource
import sys
import time


def main() -> int:
    spec = json.loads(sys.argv[1])
    src = os.path.realpath(os.path.join(spec["root"], "src"))
    sys.path.insert(0, src)
    from parlines import cli

    pkg_dir = os.path.dirname(os.path.realpath(cli.__file__))
    if pkg_dir != os.path.join(src, "parlines"):
        sys.stderr.write(f"parlines imported from {pkg_dir}, not from {src}\n")
        return 3
    tracer = None
    if spec["trace"]:
        from tracer import Tracer  # this script's directory is sys.path[1]

        tracer = Tracer()
        tracer.install()
    out = io.StringIO()
    real_stdout, sys.stdout = sys.stdout, out
    start = time.monotonic()
    try:
        code = cli.main(spec["argv"])
    finally:
        main_s = time.monotonic() - start
        sys.stdout = real_stdout
        if tracer is not None:
            tracer.uninstall()
    report = {
        "code": code,
        "stdout": out.getvalue(),
        "setup_s": start - spec["spawn_t"],
        "main_s": main_s,
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "trace": None if tracer is None else tracer.snapshot(),
    }
    json.dump(report, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())

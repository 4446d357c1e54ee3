"""Run the jordanium CLI under the tracer; used by traced cli-reports runs.

    python3 perfbench/cli_traced.py <jordanium arguments>

Behaves like ``python -m jordanium.cli``: the same stdout, exit code and,
for an uncaught exception, traceback and exit code 1.  The per-layer
counts go to stderr as one last line starting with "perfbench-trace ".
"""

import json
import sys
import traceback

import jordanium.cli
from tracer import Tracer


def main() -> int:
    tracer = Tracer()
    tracer.install()
    try:
        code = jordanium.cli.main(sys.argv[1:])
    except Exception:
        traceback.print_exc()
        code = 1
    sys.stdout.flush()
    print("perfbench-trace " + json.dumps(tracer.snapshot()), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())

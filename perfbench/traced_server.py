"""``python -m repro.service`` with the benchmark's layer wrappers installed.

The traced ``serve-zipf`` run launches the server through this file.  When
the server exits (after its graceful drain) the aggregated spans are printed
on standard error as one ``perfbench-trace {...}`` line.  Worker processes
start from a fresh import, so only the server process itself is traced.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def main() -> int:
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    from repro.service.cli import main as cli_main

    try:
        return cli_main(sys.argv[1:])
    finally:
        tracer.uninstall()
        print("perfbench-trace " + json.dumps(tracer.snapshot()), file=sys.stderr, flush=True)


if __name__ == "__main__":
    sys.exit(main())

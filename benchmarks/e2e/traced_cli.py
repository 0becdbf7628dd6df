"""The ``repro`` CLI under the span tracer; writes the span table at exit.

    python benchmarks/e2e/traced_cli.py OUT.json serve --socket ...

The fleet workload's traced pass starts its hub and worker through this
shim, so their protocol, journal and cache spans are recorded per
process.  The tracer is installed before ``repro.cli`` is imported.
SIGUSR1 resets the totals: the benchmark sends it when the campaign
starts, so boot and the readiness polls, whose number depends on
timing, stay out of the counts.
"""

from __future__ import annotations

import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

import spans  # noqa: E402


def main() -> int:
    out = sys.argv[1]
    tracer = spans.Tracer().install()
    signal.signal(signal.SIGUSR1, lambda signum, frame: tracer.reset())
    from repro.cli import main as cli_main

    try:
        return cli_main(sys.argv[2:])
    finally:
        tracer.dump(out)


if __name__ == "__main__":
    sys.exit(main())

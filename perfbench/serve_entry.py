"""Start ``repro serve`` or ``repro route`` for the benchmark.

    python3 perfbench/serve_entry.py [--cpus 0,1] [--spans FILE] serve|route ARGS...

Without ``--spans`` this is exactly the ``repro`` command line.  With it,
the layer wrappers of :mod:`layers` are installed before the server object
exists, spans stay in memory, and they are written to FILE once the server
has drained (SIGTERM), before the process exits.  ``--cpus`` restricts
the process, and every process it forks, to those CPUs.  SIGUSR1 forgets the
spans recorded so far (the benchmark sends it once priming is done) and
answers with the line ``perfbench: spans reset``.
"""

from __future__ import annotations

import os
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import layers  # noqa: E402
from repro.cli import main  # noqa: E402


def run(argv: list[str]) -> int:
    if argv[:1] == ["--cpus"]:
        os.sched_setaffinity(0, {int(c) for c in argv[1].split(",")})
        argv = argv[2:]
    spans = None
    if argv[:1] == ["--spans"]:
        spans, argv = argv[1], argv[2:]
    if spans is None:
        return main(argv)
    recorder = layers.Recorder()

    def reset(signum: int, frame: object) -> None:
        recorder.request_reset()
        os.write(1, b"perfbench: spans reset\n")

    signal.signal(signal.SIGUSR1, reset)
    with layers.Installer(recorder) as inst:
        if argv[0] == "route":
            layers.router_targets(inst)
        else:
            layers.server_targets(inst)
        code = main(argv)
    layers.dump(recorder, spans)
    return code


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))

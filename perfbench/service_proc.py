"""The aggregation server in a process of its own, and its parent handle.

Run as a script it starts a :class:`~repro.service.server.SketchServer`
on an ephemeral loopback port, prints the port on one line and serves
until its standard input closes.  An optional CPU number argument pins
the server (all of its threads) to that CPU.  :class:`ServiceProcess` is the parent
side: it starts that script, reads the port and, on :meth:`close`, ends
the child and waits for it.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path
from typing import Optional

_HERE = Path(__file__).resolve().parent
_SRC = _HERE.parent / "src"


class ServiceProcess:
    """Parent-side handle of one server process."""

    def __init__(self, cpu: Optional[int] = None) -> None:
        pin = [] if cpu is None else [str(cpu)]
        self._proc: Optional[subprocess.Popen] = subprocess.Popen(
            [sys.executable, str(_HERE / "service_proc.py"), *pin],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        line = self._proc.stdout.readline() if self._proc.stdout else ""
        if not line.strip().isdigit():
            self.close()
            raise RuntimeError(f"server process did not report a port: {line!r}")
        self.port = int(line)

    def close(self) -> None:
        """Ask the server to stop, wait for it, kill it if it will not."""
        proc, self._proc = self._proc, None
        if proc is None:
            return
        if proc.stdin is not None:
            proc.stdin.close()
        try:
            proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        if proc.stdout is not None:
            proc.stdout.close()


def main() -> None:
    if len(sys.argv) > 1:
        # before any thread starts, so every server thread inherits it
        os.sched_setaffinity(0, {int(sys.argv[1])})
    sys.path.insert(0, str(_SRC))
    from repro.service.server import SketchServer

    server = SketchServer(port=0).start()
    try:
        print(server.address[1], flush=True)
        sys.stdin.read()
    finally:
        server.close()


if __name__ == "__main__":
    main()

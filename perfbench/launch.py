"""Starts the benchmark's child interpreters and reaps them, so that each
child's peak RSS is its own.

On Linux a child's ``ru_maxrss`` also counts the peak RSS of the process
that spawned it, carried across ``exec``. The benchmark process grows with
its inputs and checks, so it spawns no timed child itself: this process,
started once per run and importing only a few standard modules, does it,
and stays well below the smallest CLI child.

Protocol: one JSON request per line on stdin,
``{"args": [...], "stdout": path, "stderr": path, "timeout": seconds}``,
answered by one JSON line on stdout, ``{"code", "wall_s", "maxrss_kb"}``.
``args`` are passed to this interpreter's executable; the child's stdin is
``/dev/null``. A child still running after ``timeout`` is killed. The
launcher exits at the end of its input.
"""

import contextlib
import json
import os
import signal
import sys
import time

WRITE = os.O_WRONLY | os.O_CREAT | os.O_TRUNC


def spawn(args: list, stdout: str, stderr: str, timeout: float) -> dict:
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, stdout, WRITE, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, stderr, WRITE, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *args], os.environ, file_actions=actions)

    def kill(signum, frame):
        with contextlib.suppress(ProcessLookupError):
            os.kill(pid, signal.SIGKILL)

    signal.signal(signal.SIGALRM, kill)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    _, status, usage = os.wait4(pid, 0)
    signal.setitimer(signal.ITIMER_REAL, 0)
    wall = time.perf_counter() - start
    return {"code": os.waitstatus_to_exitcode(status), "wall_s": wall, "maxrss_kb": usage.ru_maxrss}


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(spawn(**json.loads(line))), flush=True)


if __name__ == "__main__":
    main()

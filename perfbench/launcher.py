"""Spawns one measured child at a time and reports its own resource usage.

The benchmark starts this small process before it builds any inputs and
sends it one JSON request per line. A child's ru_maxrss starts from the
high-water RSS of the process that spawned it, so spawning from here, not
from the benchmark (which grows while it generates and checks inputs),
keeps `peak_rss_mb` the child's own. `os.wait4` gives each child's usage
alone; RUSAGE_CHILDREN would report the maximum over all children so far.

Request:  {"argv": [...], "env": {...}, "stdout": path, "stderr": path, "timeout": s}
Reply:    {"wall_s": f, "cpu_s": f, "maxrss_kb": n, "exit_code": n}
"""

import json
import os
import select
import signal
import sys
import time


def run(request: dict) -> dict:
    out = os.open(request["stdout"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    err = os.open(request["stderr"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        started = time.perf_counter()
        pid = os.posix_spawn(
            request["argv"][0], request["argv"], request["env"],
            file_actions=[(os.POSIX_SPAWN_DUP2, out, 1), (os.POSIX_SPAWN_DUP2, err, 2)],
        )
    finally:
        os.close(out)
        os.close(err)
    pidfd = os.pidfd_open(pid)
    try:
        ready, _, _ = select.select([pidfd], [], [], request["timeout"])
        if not ready:
            os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
    finally:
        os.close(pidfd)
    wall = time.perf_counter() - started
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_kb": usage.ru_maxrss,
        "exit_code": os.waitstatus_to_exitcode(status) if ready else -signal.SIGKILL,
    }


def main() -> None:
    for line in sys.stdin:
        reply = run(json.loads(line))
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()

"""Starts and reaps the benchmark's commands from a process that stays small.

The peak RSS that wait4 reports for a child is never below the peak of the
process that forked it: the kernel carries the parent's high-water mark
through fork and exec. The benchmark's own process grows while it generates
inputs and checks outputs, so it starts this process first and has it spawn
every measured command.

Protocol, one JSON object per line. Request on stdin:
``{"argv": [...], "cwd": str, "env": {...}, "stdout": path, "stderr": path,
"timeout": seconds}``. Replies on stdout: ``{"pid": n}`` once the command has
started, then ``{"wall_s": s, "maxrss_kb": n, "status": code}``. Each command
runs in its own session; on timeout, and after it exits, whatever is left in
its process group is killed. The process ends when stdin closes.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time


def kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def run(request: dict) -> None:
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(request["argv"], cwd=request["cwd"], env=request["env"],
                                stdout=out, stderr=err, start_new_session=True)
        reply({"pid": proc.pid})
        timer = threading.Timer(request["timeout"], kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    kill_group(proc.pid)
    reply({"wall_s": wall, "maxrss_kb": usage.ru_maxrss, "status": proc.returncode})


def reply(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def main() -> int:
    for line in sys.stdin:
        run(json.loads(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())

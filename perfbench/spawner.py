"""Starts the benchmark's measured children from a process that stays small.

Linux carries a process's peak resident memory across fork and exec, so a
child started by the benchmark's main process (which holds NumPy, the
oracle and the bandwidth arrays) would report that process's peak as its
own.  This helper imports nothing heavy and is started before run.py loads
NumPy; each request on stdin is one child, timed and reaped with
``os.wait4`` here.

Protocol: one JSON object per line in, ``{"argv", "env", "log"}``; one per
line out, ``{"wall", "code", "maxrss_kb"}``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time


class Spawner:
    """run.py's handle on the helper process."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, encoding="utf-8")

    def run(self, argv: list[str], env: dict, log) -> tuple[float, int, float]:
        """Wall seconds, exit code and peak RSS in MB of one child."""
        self.proc.stdin.write(json.dumps({"argv": argv, "env": env, "log": str(log)}) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        return reply["wall"], reply["code"], reply["maxrss_kb"] / 1024.0

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def serve() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["log"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(req["argv"], env=req["env"], stdout=subprocess.DEVNULL, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"wall": wall, "code": proc.returncode, "maxrss_kb": usage.ru_maxrss}), flush=True)


if __name__ == "__main__":
    serve()

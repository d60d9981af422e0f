"""Runs benchmark commands one at a time on behalf of run.py.

Linux carries the spawning process's peak RSS into a child's ru_maxrss at
exec, so children started by the harness itself, which holds the
generated inputs, would all report the harness's memory.  The harness
therefore starts this small process before it loads anything large and
sends it one JSON request per line: {"argv", "cwd", "stderr"}.  Each
command runs to completion, with stdout discarded and stderr written to
the given file, and the reply line is {"rc", "wall", "maxrss_kb"}, the
wall time measured from start to exit.  The launcher ends at end of input.
"""

import json
import os
import subprocess
import sys
import time


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(request["argv"], cwd=request["cwd"], stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"rc": proc.returncode, "wall": wall, "maxrss_kb": usage.ru_maxrss}
        print(json.dumps(reply), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

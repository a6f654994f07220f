"""Starts the benchmark's commands from a process that stays small.

On Linux the peak RSS that ``wait4`` reports for a child is at least the
peak RSS the starting process had reached when it started the child: the
child begins life in that process's memory. The benchmark process holds
NumPy, the generator's arrays and the outputs it checks, so a command it
started itself would report that memory too. This process imports nothing
large and starts every command instead.

It reads one JSON object per line on standard input, ``{"argv", "env",
"cwd", "stdout", "stderr"}``, runs ``argv`` to completion with its output
in the two files, and answers each with one line ``{"wall_s", "maxrss_kb",
"returncode"}``. It exits when its standard input closes.
"""

import json
import os
import subprocess
import sys
import time


def main() -> None:
    for line in sys.stdin:
        job = json.loads(line)
        with open(job["stdout"], "w") as out, open(job["stderr"], "w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(job["argv"], env=job["env"], cwd=job["cwd"], stdout=out, stderr=err)
            # wait4 gives this child's own usage, not a total over all children
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"wall_s": wall, "maxrss_kb": usage.ru_maxrss, "returncode": proc.returncode}
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()

"""Start one job, wait for it, and report its times and peak memory.

    python3 -S perfbench/launch.py FD COMMAND...

The job inherits stdin, stdout and stderr.  When it ends, this writes
``start end maxrss_kb`` to file descriptor FD and exits with the job's
status.  ``start`` and ``end`` are ``time.perf_counter()`` readings,
which on Linux come from the system-wide monotonic clock.

The kernel counts a new process's peak memory from the memory of the
process that started it, so run.py, which is larger than a job,
would set a floor under every job's figure.  Started with ``-S``, this
launcher stays far below any job.
"""

import os
import sys
import time


def main():
    fd, command = int(sys.argv[1]), sys.argv[2:]
    start = time.perf_counter()
    pid = os.posix_spawn(command[0], command, os.environ)
    _, status, usage = os.wait4(pid, 0)
    end = time.perf_counter()
    os.write(fd, f"{start!r} {end!r} {usage.ru_maxrss}".encode())
    code = os.waitstatus_to_exitcode(status)
    os._exit(code if code >= 0 else 128 - code)


main()

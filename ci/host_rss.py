#!/usr/bin/env python3
"""Run one command and append its host resource use to a report.

Usage:
    python3 ci/host_rss.py REPORT NAME -- CMD [ARG ...]

Runs CMD, then appends the line
"NAME max_rss_kb=N minflt=F user_s=U sys_s=S" to REPORT: the child's
own peak resident set size, minor page faults, user and system CPU
seconds (from wait4, so earlier commands do not leak into them). The
command's stdout and stderr pass through untouched, and the exit code is
the command's. The report is kept apart from the bench JSONs so those
stay byte-identical across host-only changes; nothing gates on it.
"""
import os
import sys


def main(argv):
    if len(argv) < 5 or argv[3] != "--":
        sys.exit(__doc__)
    report, name, cmd = argv[1], argv[2], argv[4:]
    pid = os.fork()
    if pid == 0:
        try:
            os.execvp(cmd[0], cmd)
        finally:
            os._exit(127)
    _, status, usage = os.wait4(pid, 0)
    with open(report, "a") as f:
        f.write("%s max_rss_kb=%d minflt=%d user_s=%.3f sys_s=%.3f\n"
                % (name, usage.ru_maxrss, usage.ru_minflt, usage.ru_utime, usage.ru_stime))
    return os.waitstatus_to_exitcode(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv))

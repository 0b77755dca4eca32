#!/usr/bin/env python3
"""Run one command and append its peak resident set size to a report.

Usage:
    python3 ci/host_rss.py REPORT NAME -- CMD [ARG ...]

Runs CMD, then appends the line "NAME max_rss_kb=N" to REPORT, where N is
the child's own ru_maxrss (from wait4, so earlier commands do not leak into
it). The command's stdout and stderr pass through untouched, and the exit
code is the command's. The report is kept apart from the bench JSONs so
those stay byte-identical across host-only changes; nothing gates on it.
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
        f.write("%s max_rss_kb=%d\n" % (name, usage.ru_maxrss))
    return os.waitstatus_to_exitcode(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv))

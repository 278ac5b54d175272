"""Run one command; record its wall time, CPU time and peak resident set.

    python -S perfbench/launch.py RESULT STDOUT STDERR CMD [ARG ...]

Writes "wall_s cpu_s peak_rss_kb exit_code" to RESULT once CMD has ended.
CPU time and peak RSS come from wait4, so they cover CMD and every worker
process it reaped.  On Linux a spawned process's peak RSS starts from its
parent's resident set, so this launcher stays tiny (run it with -S and it
imports only os, sys and time) and the benchmark, with sympy loaded, never
spawns a measured command itself.
"""
import os
import sys
import time


def main() -> int:
    result, out, err, *cmd = sys.argv[1:]
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    out_fd = os.open(out, flags, 0o644)
    err_fd = os.open(err, flags, 0o644)
    start = time.perf_counter()
    pid = os.posix_spawnp(cmd[0], cmd, os.environ, file_actions=[
        (os.POSIX_SPAWN_DUP2, out_fd, 1),
        (os.POSIX_SPAWN_DUP2, err_fd, 2),
    ])
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    os.close(out_fd)
    os.close(err_fd)
    with open(result, "w") as handle:
        handle.write(f"{wall!r} {usage.ru_utime + usage.ru_stime!r} "
                     f"{usage.ru_maxrss} {os.waitstatus_to_exitcode(status)}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

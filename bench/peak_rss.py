"""Run `python -m peyvand ARGS...` and write the peak RSS of this process
image (VmHWM, KiB) to OUT when it exits:

    python3 bench/peak_rss.py OUT ARGS...

`ru_maxrss` of a child also counts the memory of the process that
spawned it, which is the benchmark itself with a loaded index; VmHWM
starts afresh at exec.
"""

import atexit
import runpy
import sys

out, args = sys.argv[1], sys.argv[2:]


def _report() -> None:
    with open("/proc/self/status", encoding="ascii") as fh:
        peak = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
    with open(out, "w", encoding="ascii") as fh:
        fh.write(peak + "\n")


atexit.register(_report)
del sys.path[0]  # this directory; the package comes from PYTHONPATH
sys.argv = ["peyvand", *args]
runpy.run_module("peyvand", run_name="__main__", alter_sys=True)

"""Run ``python -m <module> ...`` or ``python -c <code>`` while sampling machine speed.

    python perfbench/sampled.py -m spotplan.cli plan --format json
    python perfbench/sampled.py -c "import spotplan.cli"

The module or code runs in this process exactly as ``python -m`` or
``python -c`` would run it, with the working directory first on
``sys.path``.  A speed.Sampler runs meanwhile; its samples are written to
stderr after SPEED_MARKER as the last line, as ``[busy seconds, speed
factor]``: the handler's own time and the mean nominal-over-measured ratio
of its samples.
"""
import os
import runpy
import sys

import speed

SPEED_MARKER = "\nperfbench-speed "


def main():
    mode, target = sys.argv[1], sys.argv[2]
    sys.argv = [target, *sys.argv[3:]]
    sys.path[0] = os.getcwd()
    sampler = speed.Sampler().start()
    try:
        if mode == "-m":
            runpy.run_module(target, run_name="__main__", alter_sys=True)
        else:
            exec(compile(target, "<string>", "exec"), {"__name__": "__main__"})
    finally:
        sampler.stop()
        everything = (0.0, float("inf"))
        sys.stderr.write(f"{SPEED_MARKER}[{sampler.busy(*everything)!r}, {sampler.factor(*everything)!r}]\n")


if __name__ == "__main__":
    main()

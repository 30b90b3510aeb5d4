"""Run one Python program with a speed probe, for calibrated timings.

Usage:

    python3 perfbench/probed.py PROBES.json -m MODULE [ARGS...]
    python3 perfbench/probed.py PROBES.json -c CODE
    python3 perfbench/probed.py PROBES.json SCRIPT.py [ARGS...]

The program runs as `python3 -m MODULE`, `python3 -c CODE` or
`python3 SCRIPT.py` would run it.  Every PROBE_INTERVAL_S of the process's
CPU time, a SIGPROF handler times a fixed piece of interpreter work: a
small-integer loop and a few `Fraction` products (some 30 short-lived
objects, against the millions the CLI allocates).  On a shared host the same code runs up to
twice as slow while a neighbour is busy, in stretches of seconds to
minutes; the probe runs on the same CPU at the same moments as the
program, so its durations measure how fast that CPU was while the program
ran.  At exit the durations go to PROBES.json as a list of seconds, and the
process exits with the program's status.

The two parts were chosen by how well they track the CLI's slowdown on a
2-vCPU VM: over ops whose wall time varied by 8-17% (standard deviation
of its log), op time over probe time varied by 3-4%, and the op's time
scaled with the probe's about linearly (fitted exponent 0.98-1.17).  The
integer loop alone gave 4-6% and an exponent near 1.3, since it slows less
than the interpreter's larger code paths; random reads over a 64K-entry
list gave 6-10%, since they also measure what the program left in the
caches, and over a 2M-entry array 5-7%.  Two CPUs of the VM slow
independently, so the probe must run in the timed process itself.

The probe costs about 1% of the program's CPU time.
"""
import array
import json
import os
import runpy
import signal
import sys
from fractions import Fraction
from time import perf_counter

PROBE_INTERVAL_S = 0.01

samples = array.array("d")


def probe(_signum=None, _frame=None):
    t0 = perf_counter()
    x = 0
    for i in range(400):
        x = (x * 5 + i) & 0xFFFF
    q = Fraction(1, 3)
    for i in range(1, 12):
        q = q * Fraction(i, 7) + Fraction(1, i)
    samples.append(perf_counter() - t0)


def run_program(args):
    if args[0] == "-m":
        sys.argv = [args[1]] + args[2:]
        runpy.run_module(args[1], run_name="__main__", alter_sys=True)
    elif args[0] == "-c":
        sys.argv = ["-c"]
        exec(compile(args[1], "<string>", "exec"), {"__name__": "__main__"})
    else:
        sys.argv = list(args)
        sys.path.insert(0, os.path.dirname(os.path.abspath(args[0])))
        runpy.run_path(args[0], run_name="__main__")
    return 0


def main():
    out, args = sys.argv[1], sys.argv[2:]
    signal.signal(signal.SIGPROF, probe)
    signal.setitimer(signal.ITIMER_PROF, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
    probe()  # at least one sample, however short the program
    try:
        return run_program(args)
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        with open(out, "w") as fh:
            json.dump(list(samples), fh)


if __name__ == "__main__":
    sys.exit(main())

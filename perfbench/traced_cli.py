"""Run one `weil2` CLI invocation under the tracer.

Usage: python3 perfbench/traced_cli.py STATS.json <weil2 arguments...>

Installs the wrappers of `tracer.py`, runs `weil2.cli.main` with the given
arguments, writes the in-memory aggregates to STATS.json and exits with the
CLI's status.  Only the traced runs of the benchmark start this script; the
timed runs start `python3 -m weil2.cli` directly.
"""
import json
import sys

from tracer import Tracer


def main():
    stats_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    import weil2.cli  # after install, so `main` resolves to its wrapper

    rc = weil2.cli.main(argv)
    with open(stats_path, "w") as fh:
        json.dump(tracer.snapshot(), fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())

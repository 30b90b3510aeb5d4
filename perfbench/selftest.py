#!/usr/bin/env python3
"""Self-test of the weil2 benchmark, at tiny sizes (about a minute).

Usage (from the repository root):

    python3 perfbench/selftest.py

1. Runs `run.py --tiny` on every workload with `--trace 0` and `--trace 1`
   and checks the last line: exactly the four result keys, a correct run
   with no failure, and exactly the metrics BENCHMARK.json names, with
   their units; with `--trace 0`, that the probe of `probed.py` sampled
   the ops.  (`operators` has no smaller size; it runs in full.)
2. Runs ops whose CLI output is tampered with after the CLI wrote it and
   checks each is counted as failed: a table C off the fourth roots, a table
   C negated (a root still, so only byte identity catches it), a report with
   `failures: 1`, and a report whose details claim 0 sampled triples.
3. Runs `run.py` in a directory holding only BENCHMARK.json and perfbench/,
   where it must exit non-zero without printing a result.
4. Checks that layers.json maps every per-layer metric.

When called as `selftest.py tamper KIND <weil2 arguments...>` it is the
tampering CLI of step 2: it runs the CLI, then alters the `--out` file.
"""
from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import run

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def tamper_main(kind, cli_args):
    import weil2.cli

    rc = weil2.cli.main(cli_args)
    out = Path(cli_args[cli_args.index("--out") + 1])
    data = json.loads(out.read_text())
    if kind in ("C", "C-sign"):
        row = data["rows"][len(data["rows"]) // 2]
        if kind == "C":
            row["C"][0] = str(Fraction(row["C"][0]) + 1)
        else:
            row["C"] = [str(-Fraction(s)) for s in row["C"]]
    elif kind == "failures":
        data["failures"] = 1
    elif kind == "zero-sampled":
        for c in data["checks"]:
            c["detail"] = re.sub(r"\d+ sampled", "0 sampled", c["detail"])
    else:
        raise SystemExit(f"unknown tamper kind {kind!r}")
    out.write_text(json.dumps(data, indent=2) + "\n")
    return rc


def tampering(kind):
    """The tampering CLI, under the probe like the timed ops."""
    return lambda aux: run.probed(aux) + [str(Path(__file__).resolve()),
                                          "tamper", kind]


def last_result(cmd, cwd):
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=180)
    lines = [None, None] + proc.stdout.strip().splitlines()
    meta, res = (json.loads(x) if x else None for x in lines[-2:])
    return proc.returncode, meta, res


def check_metrics_printed(spec):
    for name in run.workloads(tiny=True):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            rc, meta, res = last_result(
                [sys.executable, str(run.HERE / "run.py"), "--workload", name,
                 "--seed", "7", "--seconds", "1", "--trace", str(trace),
                 "--tiny"], run.ROOT)
            assert rc == 0, (name, trace, rc)
            assert set(res) == RESULT_KEYS, res.keys()
            assert res["correct"] is True and res["failed"] == 0, (name, res)
            assert res["attempted"] >= 1
            if trace == 0:
                assert meta["meta"]["probe_us.p50"] > 0, meta
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            assert got == want, (name, trace, set(got) ^ set(want))
            assert all(isinstance(v["value"], (int, float))
                       for v in res["metrics"].values())
            print(f"ok: {name} --trace {trace}: {len(got)} metrics")


def check_tampering(workdir):
    table = run.workloads(tiny=True)
    deadline = perf_counter() + run.RUN_LIMIT_S
    cases = [("table-exhaustive", "C", "C^4"),
             ("verify-sampled", "failures", "failures"),
             ("verify-sampled", "zero-sampled", "detail")]
    for name, kind, why in cases:
        ops, metrics, _, _ = run.timed_run(table[name], 7, 0, workdir,
                                           deadline, cli=tampering(kind))
        assert ops and all(op.error and why in op.error for op in ops), (
            kind, [op.error for op in ops])
        assert metrics["ok_ratio"][0] == 0.0
        print(f"ok: tampered {kind!r} counted as failed in {len(ops)} ops")
    # a negated C is still a fourth root: only byte identity catches it
    w, state = table["table-exhaustive"], {}
    clean = run.run_op(w, 7, 0, workdir, deadline, state, run.probed_cli)
    bad = run.run_op(w, 7, 1, workdir, deadline, state, tampering("C-sign"))
    assert clean.error is None and bad.error and "differs" in bad.error, (
        clean.error, bad.error)
    print("ok: tampered 'C-sign' counted as failed by byte identity")


def check_bare_directory(workdir):
    bare = workdir / "bare"
    bare.mkdir()
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "operators",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    print(f"ok: bare directory exits {proc.returncode} without a result")


def check_layer_map(spec):
    layers = json.loads((run.HERE / "layers.json").read_text())
    mapped = {m["metric"] for m in layers["map"]}
    names = {m["name"] for m in spec["per_layer"]}
    assert names == set(run.PER_LAYER) | {"trace.overhead"}, names ^ set(run.PER_LAYER)
    assert mapped == names, mapped ^ names
    print(f"ok: layers.json maps all {len(names)} per-layer metrics")


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check_layer_map(spec)
    run.WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=run.WORK))
    try:
        check_tampering(workdir)
        check_bare_directory(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    check_metrics_printed(spec)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["tamper"]:
        sys.exit(tamper_main(sys.argv[2], sys.argv[3:]))
    sys.exit(main())

#!/usr/bin/env python3
"""weil2 benchmark: wall time, CPU time and memory of the `weil2` CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every op is one or two fresh interpreters that run `weil2.cli` from this
checkout's `src/` as `python3 -m weil2.cli` would, so no in-process cache
carries over between ops, just as between real invocations.  Load is a
closed loop: one client, one op at a time.  Every op's output is checked;
a failed check counts the op as failed.

`--trace 0` times ops for about S seconds, with set-up spawns before and
between them, and prints the end-to-end metrics.  Their times are
calibrated: each timed process runs under `probed.py`, whose probe measures
how fast the CPU ran while the process ran, and each time is scaled to the
speed at which the probe takes REF_PROBE_S.  On a shared host the same op
takes from 1x to 2x as long, in stretches of seconds to minutes that no run
length averages out; the calibrated time of an op varies by 3-4%.  The raw
medians go to the metadata line.
`--trace 1` runs the op-0 input untraced and then under `traced_cli.py`
(wrappers from `tracer.py`), and prints the per-layer metrics; what each
one should move, and on which workload, is in `layers.json`.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; a metadata line precedes it.
Progress goes to standard error.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
RUN_LIMIT_S = 170.0  # every run must end within 180 s
MIN_OPS = 3          # ops per timed run even past --seconds, for a median
# set-up spawns before the first op and after each op, so that they sample
# the same stretch of time as the ops
SETUP_PER_OP = 4
# the probe's duration at the speed calibrated times refer to: about its
# quiet-host duration on a 2-vCPU Xeon VM under CPython 3.11
REF_PROBE_S = 120e-6

# -- workloads ------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    d: int                  # ring degree and rank that set-up builds
    n: int
    items_per_op: int       # table rows, sampled triples, or 1 op
    commands: Callable      # (op_seed, out_paths) -> list of CLI argument lists
    check: Callable         # (outputs, state) -> error string or None


def _table_commands(d, n):
    def commands(op_seed, outs):
        return [["cocycle-table", "--d", str(d), "--n", str(n), "--format",
                 "json", "--seed", str(op_seed), "--out", str(outs[0])]]
    return commands


def _sampled_commands(d, n, k):
    def commands(op_seed, outs):
        return [["verify", "--suite", "cocycle", "--d", str(d), "--n", str(n),
                 "--mode", "sampled", "--sample-count", str(k), "--seed",
                 str(op_seed), "--format", "json", "--out", str(outs[0])]]
    return commands


def _operators_commands(op_seed, outs):
    return [["verify", "--suite", suite, "--seed", str(op_seed), "--format",
             "json", "--out", str(out)]
            for suite, out in zip(("trivialization", "weil"), outs)]


# -- output checks --------------------------------------------------------------
# The checks use their own arithmetic, never the package under test.


def _negacyclic_mul(a, b):
    """Product in Q[z]/(z^4 + 1) on coefficient 4-tuples."""
    out = [Fraction(0)] * 4
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if i + j < 4:
                out[i + j] += x * y
            else:
                out[i + j - 4] -= x * y
    return tuple(out)


def table_check(rows_expected, fourth_power):
    """Exact row count, C^4 = fourth_power for every C, and byte identity
    with the first op of the run."""
    target = (Fraction(fourth_power), Fraction(0), Fraction(0), Fraction(0))

    def check(outputs, state):
        data = outputs[0]
        if "table" in state and data != state["table"]:
            return "output differs from the run's first op"
        rows = json.loads(data)["rows"]
        if len(rows) != rows_expected:
            return f"{len(rows)} rows, expected {rows_expected}"
        good = state.setdefault("good_c", set())
        for row in rows:
            c = tuple(row["C"])
            if c in good:
                continue
            x = tuple(Fraction(s) for s in c)
            x2 = _negacyclic_mul(x, x)
            if _negacyclic_mul(x2, x2) != target:
                return f"C = {list(c)} has C^4 != {fourth_power}"
            good.add(c)
        state.setdefault("table", data)
        return None

    return check


def report_check(expected_names, sampled=None):
    """A `verify --format json` report: no failures, exactly the expected
    check names, each passed, and (if sampled) each detail reporting
    `sampled` triples."""

    def check_one(data):
        rep = json.loads(data)
        if rep.get("failures") != 0:
            return f"report has failures: {rep.get('failures')}"
        names = [c["name"] for c in rep["checks"]]
        if sorted(names) != sorted(expected_names):
            return f"check names {names}"
        for c in rep["checks"]:
            if c["passed"] is not True:
                return f"{c['name']} did not pass"
            if sampled is not None:
                m = re.search(r"(\d+) sampled", c["detail"])
                if not m or int(m.group(1)) != sampled:
                    return f"{c['name']}: detail {c['detail']!r}"
        return None

    return check_one


def reports_check(*per_command):
    def check(outputs, _state):
        for one, data in zip(per_command, outputs):
            err = one(data)
            if err:
                return err
        return None
    return check


def _sampled_names(d, n):
    return [f"cocycle.{c}.d{d}n{n}"
            for c in ("three-route", "fourth-power", "oriented-identity")]


TRIVIALIZATION_CHECKS = [
    "trivialization.multiplicative", "trivialization.auxiliary-independence",
    "trivialization.materialized-16x16"]
WEIL_CHECKS = [
    "weil.heisenberg-commutant", "weil.egorov", "weil.cocycle-mu4",
    "weil.cocycle-identity", "weil.split-cocycle-mu2",
    "weil.split-vs-enhanced", "weil.lift-multiplicative", "weil.commutant",
    "weil.object-independence", "intro.solvable-iff-orthogonal",
    "intro.two-of-six", "intro.identity-and-swap", "intro.affine-lift-exists"]
SAMPLE_COUNT = 20


def workloads(tiny=False):
    """The benchmark's workloads; `tiny` shrinks them for the self-test."""
    td, tn, rows, c4 = (1, 1, 48, -4) if tiny else (1, 2, 30720, 16)
    sd, sn, k = (1, 1, 1) if tiny else (1, 4, SAMPLE_COUNT)
    out = [
        Workload("table-exhaustive", td, tn, rows, _table_commands(td, tn),
                 table_check(rows, c4)),
        Workload("verify-sampled", sd, sn, k, _sampled_commands(sd, sn, k),
                 reports_check(report_check(_sampled_names(sd, sn), k))),
        Workload("operators", 1, 1, 1, _operators_commands,
                 reports_check(report_check(TRIVIALIZATION_CHECKS),
                               report_check(WEIL_CHECKS))),
    ]
    return {w.name: w for w in out}


def op_seed(workload, seed, i):
    """The CLI seed of op i.  Only the sampled workload varies it per op;
    the others keep the run's seed so their outputs stay byte-identical."""
    if workload.name != "verify-sampled":
        return seed
    return random.Random(f"weil2-bench:{seed}:{i}").randrange(1 << 30)


# -- child processes ------------------------------------------------------------


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


@dataclass
class Child:
    rc: int
    wall_s: float
    cpu_s: float
    rss_mib: float


def spawn(argv, log_path, deadline):
    """Run argv to completion; wall time from spawn to exit, CPU time and
    peak RSS of this child alone via os.wait4.  Killed at `deadline`."""
    with open(log_path, "ab") as log:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                stdin=subprocess.DEVNULL, cwd=ROOT,
                                env=child_env())
    timer = threading.Timer(max(0.0, deadline - perf_counter()), proc.kill)
    timer.start()
    try:
        _, status, ru = os.wait4(proc.pid, 0)
        wall = perf_counter() - t0
    except BaseException:  # interrupted: leave no child behind
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
        timer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, ru.ru_utime + ru.ru_stime,
                 ru.ru_maxrss / 1024.0)


@dataclass
class Op:
    wall_s: float
    cpu_s: float
    rss_mib: float
    error: str | None
    children: list = field(default_factory=list)
    aux: list = field(default_factory=list)
    cal_wall_s: float = 0.0
    cal_cpu_s: float = 0.0
    stats: dict | None = None


def run_op(workload, seed, i, workdir, deadline, state, prefix):
    """One op: its commands in sequence, then the output check.  `prefix`
    maps a command's side-file path (probe samples or tracer stats) to the
    argv that starts the CLI; `Op.aux` holds each command's side file, or
    None where the command wrote none."""
    outs = [workdir / f"op{i}.{j}.out" for j in range(2)]
    aux = [workdir / f"op{i}.{j}.aux.json" for j in range(2)]
    for p in outs + aux:
        p.unlink(missing_ok=True)
    cmds = workload.commands(op_seed(workload, seed, i), outs)
    children = []
    for j, args in enumerate(cmds):
        children.append(spawn(prefix(aux[j]) + args, workdir / "children.log",
                              deadline))
        if children[-1].rc != 0:
            break
    op = Op(sum(c.wall_s for c in children), sum(c.cpu_s for c in children),
            max(c.rss_mib for c in children), None, children=children)
    bad = [c.rc for c in children if c.rc != 0]
    if bad:
        op.error = f"exit status {bad[0]}"
        return op
    try:
        op.error = workload.check([p.read_bytes() for p in outs[:len(cmds)]],
                                  state)
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        op.error = f"unreadable output: {exc!r}"
    op.aux = [json.loads(p.read_text()) if p.exists() else None
              for p in aux[:len(cmds)]]
    return op


def plain_cli(_aux):
    return [sys.executable, "-m", "weil2.cli"]


def probed(aux):
    return [sys.executable, str(HERE / "probed.py"), str(aux)]


def probed_cli(aux):
    return probed(aux) + ["-m", "weil2.cli"]


def traced_cli(stats):
    return [sys.executable, str(HERE / "traced_cli.py"), str(stats)]


def speed_factor(probes):
    """REF_PROBE_S over the probe durations, averaged as a rate: the
    process's CPU speed relative to the reference, sampled evenly in its
    CPU time.  A probe that a preemption stretched only lowers one term."""
    return statistics.fmean(REF_PROBE_S / p for p in probes)


def calibrate(op):
    """Set the op's calibrated wall and CPU times from its probe samples;
    an op whose commands wrote none fails."""
    if op.error is None and any(not a for a in op.aux):
        op.error = "op wrote no probe samples"
    if op.error is not None:
        return
    factors = [speed_factor(a) for a in op.aux]
    op.cal_wall_s = sum(c.wall_s * f for c, f in zip(op.children, factors))
    op.cal_cpu_s = sum(c.cpu_s * f for c, f in zip(op.children, factors))


SETUP_CODE = (
    "import weil2.cli\n"
    "from weil2.galois import ring\n"
    "from weil2.symplectic import SympSpace\n"
    "SympSpace(ring({d}), {n})\n"
    "print(weil2.cli.__file__)\n"
)


def check_import(workload):
    """One untimed set-up spawn: fills the bytecode cache and checks that
    the package comes from src/."""
    code = SETUP_CODE.format(d=workload.d, n=workload.n)
    probe = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                           env=child_env(), capture_output=True, text=True,
                           timeout=60)
    where = Path(probe.stdout.strip() or "-").resolve()
    if probe.returncode != 0 or SRC.resolve() not in where.parents:
        raise SystemExit(f"weil2 does not import from {SRC}: "
                         f"{probe.stderr.strip()[-300:]}")


def setup_times(workload, workdir, deadline, repeats):
    """(raw, calibrated) spawn-to-exit times of fresh interpreters that
    import weil2.cli and build the workload's ring and SympSpace."""
    code = SETUP_CODE.format(d=workload.d, n=workload.n)
    aux = workdir / "setup.aux.json"
    times = []
    for _ in range(repeats):
        aux.unlink(missing_ok=True)
        child = spawn(probed(aux) + ["-c", code], workdir / "setup.log",
                      deadline)
        if child.rc != 0 or not aux.exists():
            raise SystemExit("set-up child failed")
        factor = speed_factor(json.loads(aux.read_text()))
        times.append((child.wall_s, child.wall_s * factor))
    return times


# -- trace aggregation -------------------------------------------------------------


def merge_stats(parts):
    """Sum the tracer snapshots of an op's processes.  `r_map_distinct`
    stays a per-process count summed, since no process sees another's
    arguments."""
    out = {"spans": {}, "counts": {}}
    for p in parts:
        for k, (calls, total, own) in p["spans"].items():
            acc = out["spans"].setdefault(k, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += own
        for k, v in p["counts"].items():
            out["counts"][k] = out["counts"].get(k, 0) + v
        for k in ("r_map_distinct", "lifts_built", "lifts_used", "bytes_out"):
            out[k] = out.get(k, 0) + p[k]
    return out


def _calls(*names):
    return lambda s: sum(s["spans"].get(n, (0,))[0] for n in names)


def _total(name):
    return lambda s: s["spans"].get(name, (0, 0.0))[1]


def _self(module):
    return lambda s: sum(v[2] for k, v in s["spans"].items()
                         if k.split(".", 1)[0] == module)


def _ratio(num, den, empty):
    return lambda s: num(s) / den(s) if den(s) else empty


SYM = "symplectic.SympSpace."
CYC = "cyclotomic.Cyc8."
# name -> (unit, extractor over merged stats).  `trace.overhead` is added
# from the timings.  The layer -> end-to-end metric -> workload map is in
# perfbench/layers.json.
PER_LAYER = {
    "symplectic.r_map.calls": ("count", _calls(SYM + "r_map")),
    "symplectic.r_map.distinct": ("count", lambda s: s["r_map_distinct"]),
    "symplectic.r_map.reuse": ("ratio", _ratio(
        _calls(SYM + "r_map"), lambda s: s["r_map_distinct"], 0.0)),
    "symplectic.r_map.total_s": ("s", _total(SYM + "r_map")),
    "symplectic.enumerate_lagrangians.total_s": (
        "s", _total(SYM + "enumerate_lagrangians")),
    "symplectic.enumerate_submodule_lifts.calls": (
        "count", _calls(SYM + "enumerate_submodule_lifts")),
    "symplectic.enumerate_submodule_lifts.total_s": (
        "s", _total(SYM + "enumerate_submodule_lifts")),
    # lifts handed to enhance_from_lift over lifts enumerated; 1 when none
    # were enumerated, since then none were wasted
    "symplectic.lifts.used_ratio": ("ratio", _ratio(
        lambda s: s["lifts_used"], lambda s: s["lifts_built"], 1.0)),
    "symplectic.omega.calls": ("count", _calls(SYM + "omega")),
    "symplectic.enhance_from_lift.calls": (
        "count", _calls(SYM + "enhance_from_lift")),
    "symplectic.self_s": ("s", _self("symplectic")),
    "linalg.solve_field.calls": ("count", _calls("linalg.solve_field")),
    "linalg.rref_field.calls": ("count", _calls("linalg.rref_field")),
    "linalg.rref_ring.calls": ("count", _calls("linalg.rref_ring")),
    "linalg.solve_ring.calls": ("count", _calls("linalg.solve_ring")),
    "linalg.self_s": ("s", _self("linalg")),
    "models.formula_scalar.calls": ("count", _calls("models.formula_scalar")),
    "models.formula_scalar.total_s": ("s", _total("models.formula_scalar")),
    "models.composition_scalar.total_s": (
        "s", _total("models.composition_scalar")),
    "models.gauss_scalar.total_s": ("s", _total("models.gauss_scalar")),
    "models.intertwiner_matrix.calls": (
        "count", _calls("models.intertwiner_matrix")),
    "models.matrix_mul_cyc.calls": ("count", _calls("models.matrix_mul_cyc")),
    "models.matrix_mul_cyc.total_s": ("s", _total("models.matrix_mul_cyc")),
    "models.matrix_inverse_cyc.calls": (
        "count", _calls("models.matrix_inverse_cyc")),
    "models.self_s": ("s", _self("models")),
    "cyclotomic.mul.calls": ("count", _calls(CYC + "__mul__", CYC + "__rmul__")),
    "cyclotomic.add.calls": ("count", _calls(CYC + "__add__", CYC + "__radd__")),
    "cyclotomic.self_s": ("s", _self("cyclotomic")),
    "weil.WeilRepresentation.operator.calls": (
        "count", _calls("weil.WeilRepresentation.operator")),
    "weil.WeilRepresentation.operator.total_s": (
        "s", _total("weil.WeilRepresentation.operator")),
    "weil.commutant_dimension.total_s": (
        "s", _total("weil.commutant_dimension")),
    "weil.self_s": ("s", _self("weil")),
    "heisenberg.enumerate_asp.total_s": ("s", _total("heisenberg.enumerate_asp")),
    "heisenberg.enumerate_sp_R.total_s": (
        "s", _total("heisenberg.enumerate_sp_R")),
    "heisenberg.self_s": ("s", _self("heisenberg")),
    "transport.trivialization_transport.calls": (
        "count", _calls("transport.trivialization_transport")),
    "transport.self_s": ("s", _self("transport")),
    "witt.gauss_sum.calls": ("count", _calls("witt.gauss_sum")),
    "witt.gauss_sum.total_s": ("s", _total("witt.gauss_sum")),
    "witt.self_s": ("s", _self("witt")),
    "galois.ops.calls": ("count", lambda s: sum(
        v for k, v in s["counts"].items() if k.startswith("galois."))),
    "galois.ring.build_s": ("s", _total("galois.ring")),
    "verify.cocycle_checks_sampled.total_s": (
        "s", _total("verify.cocycle_checks_sampled")),
    "verify.suite_trivialization.total_s": (
        "s", _total("verify.suite_trivialization")),
    "verify.suite_weil.total_s": ("s", _total("verify.suite_weil")),
    "verify.suite_intro.total_s": ("s", _total("verify.suite_intro")),
    "verify.self_s": ("s", _self("verify")),
    "cli.write_s": ("s", _total("cli._print")),
    "cli.bytes_out": ("bytes", lambda s: s["bytes_out"]),
    "cli.self_s": ("s", _self("cli")),
}
# counts that must repeat exactly between traced ops of one input
EXACT = [k for k, (unit, _) in PER_LAYER.items() if unit in ("count", "bytes")]


# -- runs -----------------------------------------------------------------------------


def timed_run(workload, seed, seconds, workdir, deadline, cli=probed_cli):
    """Closed loop of untraced ops: at least MIN_OPS, then more while the
    next one is predicted to end within `seconds`.  `cli` starts the CLI
    under the probe.  Returns the ops, the metrics (times calibrated) and
    the raw medians for the metadata."""
    check_import(workload)
    setup = setup_times(workload, workdir, deadline, SETUP_PER_OP)
    ops, state = [], {}
    start = perf_counter()
    while True:
        t0 = perf_counter()
        op = run_op(workload, seed, len(ops), workdir, deadline, state, cli)
        calibrate(op)
        ops.append(op)
        log(workload, op)
        setup += setup_times(workload, workdir, deadline, SETUP_PER_OP)
        now = perf_counter()
        step = now - t0
        if len(ops) >= MIN_OPS and now - start + step > seconds:
            break
        if now + step > deadline:
            break
    # failed ops carry no calibrated time; with none good, report raw times
    # (ok_ratio 0 marks the run failed anyway)
    good = [op for op in ops if op.error is None]
    wall = [op.cal_wall_s for op in good] or [op.wall_s for op in ops]
    cpu = [op.cal_cpu_s for op in good] or [op.cpu_s for op in ops]
    op_s = statistics.median(wall)
    ok_ratio = len(good) / len(ops)
    metrics = {
        "op_s.p50": (op_s, "s"),
        "op_cpu_s.p50": (statistics.median(cpu), "s"),
        # items of good ops per second, at the median op time
        "items_per_s": (ok_ratio * workload.items_per_op / op_s, "items/s"),
        "setup_s": (statistics.median(cal for _, cal in setup), "s"),
        "peak_rss_mib": (statistics.median(op.rss_mib for op in ops), "MiB"),
        "ok_ratio": (ok_ratio, "ratio"),
    }
    raw = {
        "raw_op_s.p50": statistics.median(op.wall_s for op in ops),
        "raw_op_cpu_s.p50": statistics.median(op.cpu_s for op in ops),
        "raw_setup_s.p50": statistics.median(wall for wall, _ in setup),
        "probe_us.p50": 1e6 * statistics.median(
            p for op in good for a in op.aux for p in a) if good else None,
    }
    return ops, metrics, True, raw


def traced_run(workload, seed, seconds, workdir, deadline):
    """Pairs of (untraced, traced) ops on the op-0 input: at least one, then
    more while the next pair is predicted to end within `seconds`.  Counts
    must repeat exactly between traced ops; times are medians."""
    check_import(workload)
    ops, plain, traced, state = [], [], [], {}
    start = perf_counter()
    while True:
        t0 = perf_counter()
        for runner, bucket in ((plain_cli, plain), (traced_cli, traced)):
            op = run_op(workload, seed, 0, workdir, deadline, state, runner)
            if runner is traced_cli and op.error is None:
                if any(a is None for a in op.aux):
                    op.error = "traced op wrote no stats"
                else:
                    op.stats = merge_stats(op.aux)
            ops.append(op)
            bucket.append(op)
            log(workload, op, "traced" if runner is traced_cli else "untraced")
        now = perf_counter()
        step = now - t0
        if now - start + step > seconds or now + step > deadline:
            break
    stats = [op.stats for op in traced if op.stats is not None]
    if not stats:
        return ops, {}, False, {}
    values = {k: [fn(s) for s in stats] for k, (_, fn) in PER_LAYER.items()}
    repeatable = all(len(set(values[k])) == 1 for k in EXACT)
    metrics = {k: (v[0] if k in EXACT else statistics.median(v),
                   PER_LAYER[k][0]) for k, v in values.items()}
    metrics["trace.overhead"] = (
        statistics.median(op.wall_s for op in traced)
        / statistics.median(op.wall_s for op in plain), "ratio")
    return ops, metrics, repeatable, {}


def log(workload, op, tag=""):
    cal = f" ({op.cal_wall_s:.3f} s calibrated)" if op.cal_wall_s else ""
    print(f"[{workload.name}] {tag} op {op.wall_s:.3f} s wall{cal}, "
          f"{op.cpu_s:.3f} s cpu, {op.rss_mib:.1f} MiB"
          + (f" FAILED: {op.error}" if op.error else ""), file=sys.stderr)


# -- metadata -------------------------------------------------------------------------


def git_sha():
    """HEAD of the checkout, read without running git; 'unknown' when the
    checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(args, load1):
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loadavg_1m_at_start": load1,
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="self-test sizes (not the benchmark's)")
    args = p.parse_args(argv)
    # SIGTERM unwinds like an interrupt, so spawn() kills its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = perf_counter() + RUN_LIMIT_S
    load1 = os.getloadavg()[0]
    table = workloads(args.tiny)
    if args.workload not in table:
        p.error(f"unknown workload {args.workload!r}; one of {sorted(table)}")
    if not (SRC / "weil2" / "cli.py").is_file():
        print(f"error: no weil2 sources at {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        run = traced_run if args.trace else timed_run
        ops, metrics, repeatable, raw = run(
            table[args.workload], args.seed, args.seconds, workdir, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run still uses it
            pass
    failed = sum(op.error is not None for op in ops)
    meta = metadata(args, load1)
    meta["ops"] = len(ops)
    meta.update(raw)
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": failed == 0 and repeatable,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

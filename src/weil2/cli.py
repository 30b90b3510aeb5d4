"""Command-line interface: ring inspection, Witt classification, cocycle
tables, verification suites, Weil matrices, and the regression corpus.

All output is deterministic for a fixed argument list: enumeration orders
are canonical, sampling is seeded (Mersenne Twister via the stdlib `random`
module, recorded in every report header), and no timestamps are emitted.

Each command imports the modules only it needs inside its own function, so
`ring-info`, `witt` and `cocycle-table` load none of the verification
suites, the Heisenberg groups or the Weil representation.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import itertools
import json
import os
import random
import sys
import types

from . import PRNG_NAME, SUITE_NAMES
from .cyclotomic import Cyc8
from .galois import MAX_D, ring
from .models import CharacterSum, formula_scalar, monomial_cyc
from .symplectic import (
    MAX_LISTING, SympSpace, _refuse_above, check_cocycle, enumerate_enhanced)

SCHEMA_VERSION = 1


def _parse_gram(text):
    from . import witt

    try:
        data = json.loads(text)
    except RecursionError:
        raise ValueError("gram nests too deeply to parse") from None
    if type(data) is int:
        data = [[data]]
    if not (type(data) is list and all(
            type(row) is list and all(type(x) is int for x in row) for row in data)):
        raise ValueError("gram must be a JSON integer or a list of lists of "
                         f"integers, got {text!r}")
    B = tuple(tuple(x % 4 for x in row) for row in data)
    # gauss_sum, which classify runs too, walks 2^rank vectors
    _refuse_above(2 ** len(B), MAX_LISTING, f"Gauss sum of a rank-{len(B)} gram",
                  "sum {} terms")
    witt.validate_gram(B)
    return B


def _gaussian_cyc(z):
    """A cocycle value or Gauss sum z = (re, im) as the Cyc8 reports print."""
    re, im = z
    return Cyc8((re, 0, im, 0))


def _monomial_json(s):
    """The exponent pair s of zeta^e sqrt2^s as report JSON."""
    return monomial_cyc(*s).to_json()


def _print(fh, text):
    """Write text to the open stream fh; every byte a command outputs passes
    here."""
    fh.write(text)


def _open_beside(path):
    """A new file beside path under a random name, made with open(..., "x")
    so the umask applies; returns (file, name)."""
    while True:
        tmp = f"{path}.{os.urandom(4).hex()}.tmp"
        try:
            return open(tmp, "x"), tmp
        except FileExistsError:
            continue


@contextlib.contextmanager
def _output(out_path):
    """The stream a command writes to: standard output (never closed here),
    or with --out the file at out_path.  A regular file there, or none, is
    written all-or-nothing: a new file beside it takes the output and
    replaces it only when the command finishes, and on any exception the
    new file is removed and the old one left as it was.  Anything else
    there, such as a symlink (/dev/stdout and /dev/fd/N are ones), a device
    or a FIFO, is opened and written directly.  Any OSError inside the
    block is reported as "cannot write out_path".  Enter it after every
    refusal has run."""
    if not out_path:
        yield sys.stdout
        return
    direct = os.path.islink(out_path) or (
        os.path.exists(out_path) and not os.path.isfile(out_path))
    try:
        fh, tmp = ((open(out_path, "w"), None) if direct
                   else _open_beside(out_path))
    except OSError as exc:
        raise ValueError(f"cannot write {out_path}: {exc.strerror}") from None
    try:
        with fh:
            yield fh
        if tmp:
            os.replace(tmp, out_path)
    except BaseException as exc:
        if tmp:
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise ValueError(f"cannot write {out_path}: {exc.strerror}") from None
        raise


# -- ring-info -----------------------------------------------------------------


def cmd_ring_info(args):
    R = ring(args.d)
    # a unit square root of the trace's surjectivity: an element with trace 1
    witness = next(a for a in range(R.size) if R.trace(a) == 1)
    info = {
        "schema_version": SCHEMA_VERSION,
        "d": R.d,
        "size": R.size,
        "residue_field_size": R.field_size,
        "modulus_low_to_high": list(R.modulus),
        "unit_count": len(R.units),
        "two_torsion": list(R.two_torsion()),
        "trace_one_witness": witness,
    }
    with _output(args.out) as fh:
        _print(fh, json.dumps(info, indent=2) + "\n")
    return 0


# -- witt ----------------------------------------------------------------------


def cmd_witt(args):
    from . import witt

    B = _parse_gram(args.gram)
    if args.action == "isometric" and args.gram2 is None:
        raise ValueError("isometric needs a second gram")
    if args.action != "isometric" and args.gram2 is not None:
        raise ValueError(f"{args.action} takes one gram, got two")
    if args.action == "classify":
        counts, U = witt.decompose(B)
        info = {
            "schema_version": SCHEMA_VERSION,
            "gram": [list(r) for r in B],
            "block_counts": {"one": counts[0], "three": counts[1],
                             "hyp": counts[2], "m4": counts[3]},
            "rank": witt.counts_rank(counts),
            "disc": witt.counts_disc(counts),
            "gw_class": witt.gw_exponent(counts),
            "gauss": _gaussian_cyc(witt.gauss_sum(B)).to_json(),
            "witness": [list(r) for r in U],
        }
        text = json.dumps(info, indent=2) + "\n"
    elif args.action == "gauss":
        text = f"{_gaussian_cyc(witt.gauss_sum(B))}\n"
    elif args.action == "isometric":
        same = witt.is_isometric(B, _parse_gram(args.gram2))
        text = ("true" if same else "false") + "\n"
    else:
        raise AssertionError(args.action)
    with _output(args.out) as fh:
        _print(fh, text)
    return 0


# -- cocycle-table ---------------------------------------------------------------


def _cocycle_rows(sp, mode, sample_count, seed, label):
    """The cocycle table of the space sp in groups of rows, one group per
    subspace triple (one per draw when sampled): an iterator of (N labels,
    M labels, L labels, Cs), whose rows are the itertools.product of the
    three label lists, with the C of each row in Cs in the same order.
    label(e) names the enhanced Lagrangian e in the output.  A sampled
    table lists the triples that verify's sampled cocycle check draws with
    the same count and seed: both draw by SympSpace.random_enhanced_triple,
    which builds each triple without a list of the Lagrangians.  An
    exhaustive table lists the Lagrangians, their enhancements and their
    labels at the call; a group's CharacterSum is built only when the
    iterator reaches it, so nothing holds all the rows."""
    if mode == "exhaustive":
        subs = sp.enumerate_lagrangians()
        enh = {s: sp.enumerate_enhancements(s) for s in subs}
        labels = {s: [label(e) for e in enh[s]] for s in subs}
        return ((labels[rN], labels[rM], labels[rL],
                 CharacterSum(sp, rM, rN, rL).values(enh[rN], enh[rM], enh[rL]))
                for (rN, rM, rL) in sp.transversal_triples())
    rng = random.Random(seed)

    def draws():
        for _ in range(sample_count):
            (_, eN), (_, eM), (_, eL) = sp.random_enhanced_triple(rng)
            yield ([label(eN)], [label(eM)], [label(eL)],
                   [formula_scalar(sp, eN, eM, eL)])
    return draws()


def _csv_label(e):
    return repr(e.key())


def _json_label(e):
    return json.dumps(repr(e.key()))


# stands in for the table rows in a payload handed to _write_json
_ROWS = "\0rows"
# one row object, laid out as json.dumps(..., indent=2) lays it out at
# depth 2 of a document, in three pieces: the N and M labels, the L label,
# and the C value with the closing brace
_ROW_NM = '    {\n      "N": %s,\n      "M": %s,\n      "L": '
_ROW_L = ',\n      "C": '
_ROW_C = "[\n%s\n      ]\n    }"


def _write_json(fh, payload, groups):
    """Write json.dumps(payload, indent=2) + "\n" to fh, where payload holds
    the top-level value _ROWS in place of the list of {"N", "M", "L", "C"}
    rows of `groups` (from _cocycle_rows with _json_label), byte for byte.
    Each group is written as it is read.  Its N-M pieces are built once
    per (N, M) and its L pieces once per L, and each C value (re, im) is
    encoded once, so a row is the concatenation of three ready pieces."""
    head, tail = json.dumps(payload, indent=2).split(json.dumps(_ROWS))
    _print(fh, head)
    values = {}
    sep = "[\n"
    for kNs, kMs, kLs, cs in groups:
        nms = [_ROW_NM % (kN, kM) for kN in kNs for kM in kMs]
        ls = [kL + _ROW_L for kL in kLs]
        blocks = []
        for (nm, l), c in zip(itertools.product(nms, ls), cs):
            text = values.get(c)
            if text is None:
                text = values[c] = _ROW_C % ",\n".join(
                    "        " + json.dumps(x) for x in _gaussian_cyc(c).to_json())
            blocks.append(nm + l + text)
        _print(fh, sep + ",\n".join(blocks))
        sep = ",\n"
    _print(fh, ("[]" if sep == "[\n" else "\n  ]") + tail + "\n")


def _write_csv(fh, groups):
    """Write the rows of `groups` (from _cocycle_rows with _csv_label) to fh
    as CSV, one group at a time; the coordinates of each C value are
    encoded once."""
    lines = []
    w = csv.writer(types.SimpleNamespace(write=lines.append),
                   lineterminator="\n")
    w.writerow(["N", "M", "L", "c0", "c1", "c2", "c3"])
    coords = {}
    for kNs, kMs, kLs, cs in groups:
        _print(fh, "".join(lines))
        lines.clear()
        for (kN, kM, kL), c in zip(itertools.product(kNs, kMs, kLs), cs):
            coord = coords.get(c)
            if coord is None:
                coord = coords[c] = _gaussian_cyc(c).to_json()
            w.writerow([kN, kM, kL, *coord])
    _print(fh, "".join(lines))


def cmd_cocycle_table(args):
    mode = check_cocycle(args.d, args.n, args.mode, args.sample_count)
    as_json = args.format == "json"
    groups = _cocycle_rows(SympSpace(ring(args.d), args.n), mode,
                           args.sample_count, args.seed,
                           _json_label if as_json else _csv_label)
    with _output(args.out) as fh:
        if as_json:
            payload = {
                "schema_version": SCHEMA_VERSION,
                "prng": PRNG_NAME,
                "d": args.d, "n": args.n, "mode": mode, "seed": args.seed,
                "rows": _ROWS,
            }
            _write_json(fh, payload, groups)
        else:
            _write_csv(fh, groups)
    return 0


# -- verify ----------------------------------------------------------------------


def cmd_verify(args):
    from . import verify

    checks = verify.run_suite(args.suite, args.d, args.n, args.mode,
                              args.sample_count, args.seed)
    failures = [c for c in checks if not c.passed]
    if args.format == "json":
        payload = {
            "schema_version": SCHEMA_VERSION,
            "prng": PRNG_NAME,
            "suite": args.suite,
            "config": {"d": args.d, "n": args.n, "seed": args.seed,
                       "mode": args.mode, "sample_count": args.sample_count},
            "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail}
                       for c in checks],
            "failures": len(failures),
        }
        text = json.dumps(payload, indent=2) + "\n"
    else:
        lines = [f"{'PASS' if c.passed else 'FAIL'} {c.name}: {c.detail}"
                 for c in checks]
        lines.append(f"{len(checks) - len(failures)}/{len(checks)} checks passed")
        text = "\n".join(lines) + "\n"
    with _output(args.out) as fh:
        _print(fh, text)
    return 1 if failures else 0


# -- weil-matrix ------------------------------------------------------------------


def _matrix_json(M):
    return [[x.to_json() for x in row] for row in M.to_cyc()]


def cmd_weil_matrix(args):
    from .heisenberg import check_group, enumerate_asp, enumerate_sp_R
    from .weil import SplitWeilRepresentation, WeilRepresentation

    order = check_group(args.d, args.n, "Sp(Vt)" if args.split else "ASp(V)")
    if not 0 <= args.element < order:
        raise ValueError(f"element index out of range (0..{order - 1})")
    sp = SympSpace(ring(args.d), args.n)
    if args.split:
        group, rep = enumerate_sp_R(sp), SplitWeilRepresentation(sp)
    else:
        group, rep = enumerate_asp(sp), WeilRepresentation(sp)
    x = group[args.element]
    kind, label, rows = (("split", "symplectic_matrix", x) if args.split
                         else ("enhanced", "residue_matrix", x.g))
    payload = {
        "schema_version": SCHEMA_VERSION,
        "kind": kind, "d": args.d, "n": args.n,
        "element_index": args.element,
        label: [list(r) for r in rows],
        "matrix": _matrix_json(rep.operator(x)),
    }
    with _output(args.out) as fh:
        _print(fh, json.dumps(payload, indent=2) + "\n")
    return 0


# -- emit-corpus -------------------------------------------------------------------


def cmd_emit_corpus(args):
    from . import witt
    from .heisenberg import enumerate_asp, enumerate_sp_R
    from .transport import splitting_transport, trivialization_transport
    from .weil import SplitWeilRepresentation, WeilRepresentation, canonical_root

    # the table's refusal runs here, before the ring is built; the other
    # listings run only at shapes the sweep admits, far below MAX_LISTING
    mode = check_cocycle(args.d, args.n, None, args.sample_count)
    sp = SympSpace(ring(args.d), args.n)
    R = sp.R
    groups = _cocycle_rows(sp, mode, args.sample_count, args.seed, _json_label)
    dn = args.d * args.n
    corpus = {
        "schema_version": SCHEMA_VERSION,
        "prng": PRNG_NAME,
        "config": {"d": args.d, "n": args.n, "seed": args.seed},
        "ring": {
            "d": R.d, "size": R.size,
            "modulus_low_to_high": list(R.modulus),
            "unit_count": len(R.units),
        },
    }

    if mode == "exhaustive":
        enh = enumerate_enhanced(sp)
        corpus["enhanced_lagrangians"] = [repr(e.key()) for e in enh]
        corpus["oriented_count"] = len(sp.enumerate_oriented())
    corpus["cocycle_table"] = _ROWS

    classifications = []
    for r in (1, 2):
        for B in witt.all_unimodular_grams(r):
            counts, _ = witt.decompose(B)
            classifications.append({
                "gram": [list(row) for row in B],
                "counts": list(counts),
                "gw": witt.gw_exponent(counts),
                "gauss": _gaussian_cyc(witt.gauss_sum(B)).to_json(),
            })
    corpus["witt_classification_rank<=2"] = classifications

    if dn == 1:
        W = WeilRepresentation(sp)
        S = SplitWeilRepresentation(sp)
        corpus["weil_matrices"] = [
            {"element": i, "matrix": _matrix_json(W.operator(a))}
            for i, a in enumerate(enumerate_asp(sp))
        ]
        corpus["split_weil_matrices"] = [
            {"element": i, "matrix": _matrix_json(S.operator(g))}
            for i, g in enumerate(enumerate_sp_R(sp))
        ]
        lam = []
        base = W.base
        for e in enumerate_enhanced(sp):
            s = trivialization_transport(sp, e, base).scalar
            lam.append({"L": repr(e.key()), "scalar": _monomial_json(s),
                        "lambda": _monomial_json(canonical_root(s, 4))})
        corpus["lambda_roots"] = lam
        mu = []
        obase = S.base
        for o in sp.enumerate_oriented():
            s = splitting_transport(sp, o, obase).scalar
            mu.append({"L": repr(o.key()), "scalar": _monomial_json(s),
                       "mu": _monomial_json(canonical_root(s, 2))})
        corpus["mu_roots"] = mu

    with _output(args.out) as fh:
        _write_json(fh, corpus, groups)
    return 0


# -- parser ------------------------------------------------------------------------


def _int_in(lo, hi=None):
    """An argparse type: an integer in lo..hi (no upper end when hi is None)."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < lo or (hi is not None and value > hi):
            want = f"{lo}..{hi}" if hi is not None else f">= {lo}"
            raise argparse.ArgumentTypeError(f"must be {want}, got {value}")
        return value
    return parse


DEGREE = _int_in(1, MAX_D)
POSITIVE = _int_in(1)


def build_parser():
    p = argparse.ArgumentParser(
        prog="weil2",
        description="Exact Heisenberg/Weil representation toolkit over "
                    "Galois rings of characteristic 4.")
    sub = p.add_subparsers(dest="command", required=True)

    def add_shape(q, default=1):
        q.add_argument("--d", type=DEGREE, default=default,
                       help="Galois ring degree (1..4)")
        q.add_argument("--n", type=POSITIVE, default=default,
                       help="number of hyperbolic pairs")
        q.add_argument("--out", default=None, help="write output to a file")

    def add_sampling(q, mode=True):
        q.add_argument("--seed", type=int, default=0)
        if mode:
            q.add_argument("--mode", choices=("exhaustive", "sampled"),
                           default=None)
        q.add_argument("--sample-count", type=POSITIVE, default=200)

    q = sub.add_parser("ring-info", help="Galois ring parameters")
    q.add_argument("--d", type=DEGREE, required=True)
    q.add_argument("--out", default=None)
    q.set_defaults(func=cmd_ring_info)

    q = sub.add_parser("witt", help="classify symmetric forms over Z/4")
    q.add_argument("action", choices=("classify", "gauss", "isometric"))
    q.add_argument("gram", help="gram matrix as JSON, e.g. [[1,0],[0,1]]")
    q.add_argument("gram2", nargs="?", default=None)
    q.add_argument("--out", default=None)
    q.set_defaults(func=cmd_witt)

    q = sub.add_parser("cocycle-table", help="tabulate intertwiner cocycle values")
    add_shape(q)
    add_sampling(q)
    q.add_argument("--format", choices=("csv", "json"), default="csv")
    q.set_defaults(func=cmd_cocycle_table)

    q = sub.add_parser("verify", help="run exact verification suites")
    q.add_argument("--suite", default="all",
                   choices=SUITE_NAMES + ("all",))
    add_shape(q, default=None)
    add_sampling(q)
    q.add_argument("--format", choices=("text", "json"), default="text")
    q.set_defaults(func=cmd_verify)

    q = sub.add_parser("weil-matrix", help="print one Weil operator")
    add_shape(q)
    q.add_argument("--element", type=int, default=0)
    q.add_argument("--split", action="store_true",
                   help="use the sign-cocycle construction over Sp(Z/4)")
    q.set_defaults(func=cmd_weil_matrix)

    q = sub.add_parser("emit-corpus", help="write the regression corpus")
    add_shape(q)
    add_sampling(q, mode=False)
    q.set_defaults(func=cmd_emit_corpus)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface: output schemas, exit codes, and byte-level
determinism of every report."""

import collections
import hashlib
import io
import itertools
import json
import os
import stat
import subprocess
import sys
import time
import tracemalloc
import types

import pytest

from weil2 import cli, models, verify
from weil2.cli import main
from weil2.galois import ring
from weil2.symplectic import SympSpace, check_cocycle

# SHA-256 of `verify --suite weil --format json`, with and without -O
WEIL_JSON_SHA256 = \
    "0e1e53fe2465ec3afb400c7170394c6b46cb16849186e915f2f915c8ea237bdf"
# the sampled d1n4 cocycle report of the verify-sampled benchmark input
D1N4_SAMPLED_ARGV = ("verify", "--suite", "cocycle", "--d", "1", "--n", "4",
                     "--mode", "sampled", "--sample-count", "20", "--seed", "3",
                     "--format", "json")
D1N4_SAMPLED_SHA256 = \
    "bb2866d50052e026e1079192277e7462c012c39ed70fd3f769b738f133a8f3a9"


def run_cli(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, out


def test_ring_info(capsys):
    rc, out = run_cli(capsys, "ring-info", "--d", "2")
    assert rc == 0
    data = json.loads(out)
    assert data["schema_version"] == 1
    assert data["size"] == 16
    assert data["residue_field_size"] == 4
    assert data["unit_count"] == 12
    assert data["modulus_low_to_high"] == [1, 1, 1]
    assert data["two_torsion"] == [0, 2, 8, 10]
    assert data["trace_one_witness"] == 5


def test_witt_classify(capsys):
    rc, out = run_cli(capsys, "witt", "classify", "[[1,0,0],[0,1,0],[0,0,1]]")
    assert rc == 0
    data = json.loads(out)
    assert data["rank"] == 3
    assert data["gw_class"] == 3
    assert data["disc"] == 1
    assert data["block_counts"] == {"one": 3, "three": 0, "hyp": 0, "m4": 0}
    # G(<1,1,1>) = (1+i)^3 = -2 + 2i, coefficients on 1, zeta, zeta^2, zeta^3
    assert data["gauss"] == ["-2", "0", "2", "0"]


def test_witt_gauss(capsys):
    rc, out = run_cli(capsys, "witt", "gauss", "[[0,1],[1,0]]")
    assert rc == 0
    assert out.strip() == "2"


def test_witt_isometric(capsys):
    rc, out = run_cli(capsys, "witt", "isometric",
                      "[[1,0,0],[0,1,0],[0,0,1]]", "[[3,0,0],[0,2,1],[0,1,2]]")
    assert rc == 0
    assert out.strip() == "true"
    rc, out = run_cli(capsys, "witt", "isometric", "[[1]]", "[[3]]")
    assert rc == 0
    assert out.strip() == "false"


def test_witt_isometric_on_empty_grams(capsys):
    rc, out = run_cli(capsys, "witt", "isometric", "[]", "[]")
    assert rc == 0
    assert out == "true\n"


def test_witt_isometric_requires_two_grams(capsys):
    rc, _ = run_cli(capsys, "witt", "isometric", "[[1]]")
    assert rc == 2


@pytest.mark.parametrize("argv", [
    ("classify", "[[1,2],[3,1]]"),
    ("gauss", "null"),
    ("gauss", "1.5"),
    ("gauss", "[1,2]"),
    ("gauss", "[[1.5]]"),
    ("gauss", "true"),
    ("isometric", "[[1]]", "[1]"),
    ("isometric", "[[1]]"),
    ("gauss", "[[1]]", "[[3]]"),
    ("classify", "[[1]]", "[[3]]"),
], ids=["asymmetric", "null", "float", "flat-list", "float-entry", "bool",
        "flat-second", "isometric-one-gram", "gauss-two-grams",
        "classify-two-grams"])
def test_witt_rejects_bad_gram(capsys, argv):
    """Only a JSON integer or a list of lists of integers is a gram; 1.5
    is not read as 1.  isometric takes two grams, the others one."""
    rc = main(["witt", *argv])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error: ")
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ("gauss", "[" * 10000 + "]" * 10000),
    ("isometric", "[[1]]", "[" * 10000 + "]" * 10000),
], ids=["gauss", "isometric-second"])
def test_witt_refuses_a_deeply_nested_gram(capsys, argv):
    """A gram nested past the JSON parser's recursion limit is bad input:
    one error line that does not echo it, and no traceback."""
    rc = main(["witt", *argv])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == "error: gram nests too deeply to parse\n"
    assert captured.out == ""


def _identity_gram(r):
    return json.dumps([[int(i == j) for j in range(r)] for i in range(r)])


@pytest.mark.parametrize("action", ["classify", "gauss", "isometric"])
def test_witt_refuses_a_gram_above_the_listing_cap(capsys, monkeypatch, action):
    """A rank-17 gram would sum 2^17 terms: every action refuses it before
    any work, the second gram of isometric included."""
    from weil2 import witt

    def no_work(*args):
        raise AssertionError("a refused gram reached witt")

    for name in ("gauss_sum", "decompose", "is_isometric"):
        monkeypatch.setattr(witt, name, no_work)
    grams = ((_identity_gram(16), _identity_gram(17)) if action == "isometric"
             else (_identity_gram(17),))
    rc = main(["witt", action, *grams])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == ("error: Gauss sum of a rank-17 gram refused: it "
                            "would sum 131,072 terms > 65,536\n")
    assert captured.out == ""


def test_witt_refusal_names_a_huge_rank_by_size(capsys):
    """2^20000 has more digits than str() converts by default."""
    rc = main(["witt", "gauss", json.dumps([[1]] * 20000)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == ("error: Gauss sum of a rank-20000 gram refused: it would "
                            "sum more than 2^19999 (6021 digits) terms > 65,536\n")


def test_witt_gauss_runs_at_the_listing_cap(capsys):
    rc, out = run_cli(capsys, "witt", "gauss", _identity_gram(16))
    assert rc == 0
    assert out == "256\n"


def test_cocycle_table_csv(capsys):
    import csv
    import io

    rc, out = run_cli(capsys, "cocycle-table", "--d", "1", "--n", "1")
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["N", "M", "L", "c0", "c1", "c2", "c3"]
    assert len(rows) == 1 + 48
    # every scalar is a fourth root of -4: +-1 +- i exactly
    for row in rows[1:]:
        c0, c1, c2, c3 = row[3:]
        assert (c1, c3) == ("0", "0")
        assert c0.lstrip("-") == "1" and c2.lstrip("-") == "1"


def test_cocycle_table_deterministic(capsys):
    _, first = run_cli(capsys, "cocycle-table", "--d", "1", "--n", "1")
    _, second = run_cli(capsys, "cocycle-table", "--d", "1", "--n", "1")
    assert first == second


def test_cocycle_table_d1n2_golden(capsys):
    """The whole exhaustive d1n2 table (30,720 rows), pinned by its hash."""
    rc, out = run_cli(capsys, "cocycle-table", "--d", "1", "--n", "2",
                      "--format", "json")
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "1f3f469510643295e28bb5135042678e159c3d891cf8052983af50731534bb9d")


def test_cocycle_table_d2n1_golden(capsys):
    """The exhaustive d2n1 table (245,760 rows) in JSON and CSV, pinned by
    their hashes."""
    for fmt, digest in (
        ("json", "f761842ddb37fd68a2da05362cab9045f155b0b0256b7a80dc2ef8a7f4421461"),
        ("csv", "cbe83edf2aaf7140d432bfcb1c0b477209fdb6a35452f2d978528c552313b031"),
    ):
        rc, out = run_cli(capsys, "cocycle-table", "--d", "2", "--n", "1",
                          "--format", fmt)
        assert rc == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, fmt


_TAIL = {"after": [[1, 2], {"x": "y"}], "last": 0}


@pytest.mark.parametrize("d,n,mode,count,seed,tail", [
    (1, 1, "exhaustive", 0, 0, {}),
    (1, 1, "exhaustive", 0, 0, _TAIL),
    (2, 1, "exhaustive", 0, 0, {}),
    (2, 2, "sampled", 40, 7, _TAIL),
    (1, 1, "empty", 0, 0, {}),
    (1, 1, "empty", 0, 0, _TAIL),
])
def test_row_writer_matches_json_dumps(d, n, mode, count, seed, tail):
    """The streamed rows are laid out exactly as json.dumps(indent=2) lays
    out the row dicts, in a table payload and in a payload whose rows are
    followed by other keys, as in emit-corpus."""
    def groups(label):
        if mode == "empty":
            return iter(())
        return cli._cocycle_rows(SympSpace(ring(d), n),
                                 check_cocycle(d, n, mode, count), count,
                                 seed, label)

    # a table holds few distinct C (re, im): encode each once
    encoded = {}
    dicts = [{"N": kN, "M": kM, "L": kL,
              "C": encoded[c] if c in encoded
              else encoded.setdefault(c, cli._gaussian_cyc(c).to_json())}
             for kNs, kMs, kLs, cs in groups(lambda e: repr(e.key()))
             for (kN, kM, kL), c in zip(itertools.product(kNs, kMs, kLs), cs)]
    head = {"schema_version": 1, "d": d, "n": n, "mode": mode}
    want = json.dumps({**head, "rows": dicts, **tail}, indent=2) + "\n"
    fh = io.StringIO()
    cli._write_json(fh, {**head, "rows": cli._ROWS, **tail},
                    groups(cli._json_label))
    assert fh.getvalue() == want


def _table_rows(d, n, mode, count, seed):
    """The cocycle table's rows as (N, M, L, C), each enhanced Lagrangian
    named by its key."""
    groups = cli._cocycle_rows(SympSpace(ring(d), n),
                               check_cocycle(d, n, mode, count), count, seed,
                               lambda e: e.key())
    return [(kN, kM, kL, c) for kNs, kMs, kLs, cs in groups
            for (kN, kM, kL), c in zip(itertools.product(kNs, kMs, kLs), cs)]


@pytest.mark.parametrize("d,n,count,seed", [(2, 2, 40, 7), (1, 4, 20, 3)])
def test_sampled_table_lists_the_triples_the_check_verified(
        monkeypatch, d, n, count, seed):
    """With the same d, n, count and seed, the sampled table's rows are the
    enhanced triples the sampled cocycle check hands to route 1, in draw
    order, and each row's C is route 1's value."""
    checked = []
    route1 = verify.composition_scalar

    def recorded(sp, eN, eM, eL):
        c = route1(sp, eN, eM, eL)
        checked.append((eN.key(), eM.key(), eL.key(), c))
        return c

    monkeypatch.setattr(verify, "composition_scalar", recorded)
    assert all(c.passed for c in verify.cocycle_checks_sampled(d, n, count, seed))
    assert len(checked) == count
    assert _table_rows(d, n, "sampled", count, seed) == checked


def test_exhaustive_table_values_are_the_sweeps(monkeypatch):
    """The exhaustive d1n2 table lists, as a multiset, the C values of the
    check's fourth-power sweep.  The sweep's counter is read once the sweep
    is done, and the check is stopped there."""
    class SweepDone(Exception):
        pass

    swept = collections.Counter()

    class Recorded(collections.Counter):
        def values(self):
            swept.update(dict(self.items()))
            raise SweepDone

    monkeypatch.setattr(verify, "collections",
                        types.SimpleNamespace(Counter=Recorded))
    with pytest.raises(SweepDone):
        verify.cocycle_checks_exhaustive(1, 2)
    table = collections.Counter(
        c for *_, c in _table_rows(1, 2, None, 0, 0))
    assert sum(table.values()) == 30720
    assert table == swept


def test_cocycle_table_sampled_seeded(capsys):
    args = ("cocycle-table", "--d", "2", "--n", "1", "--mode", "sampled",
            "--sample-count", "5", "--seed", "11", "--format", "json")
    rc, first = run_cli(capsys, *args)
    assert rc == 0
    data = json.loads(first)
    assert data["prng"] == "python-random-mt19937"
    assert data["seed"] == 11
    assert data["mode"] == "sampled"
    assert len(data["rows"]) == 5
    assert set(data["rows"][0]) == {"N", "M", "L", "C"}
    _, second = run_cli(capsys, *args)
    assert first == second


def test_cocycle_table_rejects_large_exhaustive(capsys):
    rc, _ = run_cli(capsys, "cocycle-table", "--d", "3", "--n", "2",
                    "--mode", "exhaustive")
    assert rc == 2


@pytest.mark.parametrize("d,n,count", [
    (2, 2, "4,380,866,641,920"),
    (1, 3, "123,863,040"),
    (3, 1, "67,645,734,912"),
    (3, 2, "2,417,261,343,418,899,643,760,640"),
])
@pytest.mark.parametrize("command", ["cocycle-table", "verify"])
def test_exhaustive_sweep_refused_promptly(capsys, command, d, n, count):
    """The predicted number of enhanced triples is above the cap, so both
    commands exit 2 with the count before enumerating anything."""
    argv = [command, "--d", str(d), "--n", str(n), "--mode", "exhaustive"]
    if command == "verify":
        argv += ["--suite", "cocycle"]
    t0 = time.perf_counter()
    rc = main(argv)
    elapsed = time.perf_counter() - t0
    captured = capsys.readouterr()
    assert rc == 2
    assert f"visit {count} enhanced triples" in captured.err
    assert captured.out == ""
    assert elapsed < 2.0


def test_verify_text_format(capsys):
    rc, out = run_cli(capsys, "verify", "--suite", "weil")
    assert rc == 0
    lines = out.strip().split("\n")
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1].endswith("checks passed")


def test_verify_json_format(capsys):
    rc, out = run_cli(capsys, "verify", "--suite", "witt", "--format", "json")
    assert rc == 0
    data = json.loads(out)
    assert data["schema_version"] == 1
    assert data["prng"] == "python-random-mt19937"
    assert data["suite"] == "witt"
    assert data["failures"] == 0
    names = [c["name"] for c in data["checks"]]
    assert "witt.purity.rank<=3" in names
    assert "gw.vanishing" in names
    assert all(c["passed"] for c in data["checks"])


def test_verify_unknown_suite(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "--suite", "nonsense"])


@pytest.mark.parametrize("argv,message", [
    (["verify", "--suite", "cocycle", "--d", "2", "--n", "2", "--mode", "sampled",
      "--sample-count", "0"], "--sample-count: must be >= 1, got 0"),
    (["cocycle-table", "--sample-count", "-3"], "--sample-count: must be >= 1, got -3"),
    (["verify", "--d", "1", "--n", "0"], "--n: must be >= 1, got 0"),
    (["cocycle-table", "--d", "1", "--n", "0"], "--n: must be >= 1, got 0"),
    (["cocycle-table", "--d", "5"], "--d: must be 1..4, got 5"),
    (["ring-info", "--d", "0"], "--d: must be 1..4, got 0"),
])
def test_bad_sizes_exit_2_at_parse_time(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


def test_weil_matrix(capsys):
    rc, out = run_cli(capsys, "weil-matrix", "--d", "1", "--n", "1",
                      "--element", "0")
    assert rc == 0
    data = json.loads(out)
    assert data["kind"] == "enhanced"
    assert len(data["matrix"]) == 2
    assert len(data["matrix"][0]) == 2
    assert len(data["residue_matrix"]) == 2
    rc, out = run_cli(capsys, "weil-matrix", "--d", "1", "--n", "1",
                      "--element", "3", "--split")
    assert rc == 0
    data = json.loads(out)
    assert data["kind"] == "split"
    assert len(data["symplectic_matrix"]) == 2


# the pinned d1n1 operator of ASp(V) element 0: the residue swap and
# (1 - i)/2 * [[1, 1], [1, -1]]
_WEIL_MATRIX_D1N1 = {
    "schema_version": 1, "kind": "enhanced", "d": 1, "n": 1,
    "element_index": 0, "residue_matrix": [[0, 1], [1, 0]],
    "matrix": [[["1/2", "0", "-1/2", "0"], ["1/2", "0", "-1/2", "0"]],
               [["1/2", "0", "-1/2", "0"], ["-1/2", "0", "1/2", "0"]]],
}


def test_weil_matrix_d1n1_unchanged(capsys):
    rc, out = run_cli(capsys, "weil-matrix", "--d", "1", "--n", "1")
    assert rc == 0
    assert out == json.dumps(_WEIL_MATRIX_D1N1, indent=2) + "\n"


@pytest.mark.parametrize("argv,digest", [
    (("--d", "2", "--n", "1", "--element", "0"),
     "604b8d1b40c868b59125f352ef9ae738d8e2cc2139402527678aa9f3d213e47b"),
    (("--d", "2", "--n", "1", "--element", "7"),
     "282170eb5b8a4b04e98494d2dc3d095dee32491b08b0138209891a41c515cdc9"),
    (("--d", "2", "--n", "1", "--element", "15359"),
     "14e12906f1d53df9c5ebbeeb7d2215ae7bf869dce4c1651c4dcb47a5206d40cb"),
    (("--d", "1", "--n", "2", "--element", "0"),
     "11b2f6b07725763f3b15e4e1a38318ba3b7388f078dd61e4fb86256eb9b75dab"),
    (("--d", "1", "--n", "2", "--element", "7"),
     "0e6d527f3538df30e15ce4544535f55cff7b41da57b0fd36f65c92c0b6d8a61f"),
    (("--d", "1", "--n", "2", "--element", "11519"),
     "27dfa4e72241ee057e5a286fd1c161735f697dbbd85817e82c599e20d7b1b1c0"),
    (("--d", "2", "--n", "1", "--split", "--element", "7"),
     "ab55430b5829c6d0aec3648147cae846358839b7d73b4043759c9b11ea6d5a78"),
], ids=["d2n1-0", "d2n1-7", "d2n1-last", "d1n2-0", "d1n2-7", "d1n2-last",
        "d2n1-split-7"])
def test_weil_matrix_golden(capsys, argv, digest):
    """Weil operators of 4 x 4 models, pinned by their hashes: the first,
    the eighth and the last element of ASp(V) at d2n1 and d1n2, and the
    eighth element of Sp(Vt) at d2n1."""
    rc, out = run_cli(capsys, "weil-matrix", *argv)
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("d,n,count", [
    (1, 3, "92,897,280"),
    (2, 2, "64,172,851,200"),
    (1, 4, "12,128,668,876,800"),
    (3, 1, "132,120,576"),
    (4, 1, "17,523,466,567,680"),
])
def test_weil_matrix_refuses_sp_search_promptly(capsys, d, n, count):
    """ASp(V) is refused above 2^16 elements predicted by its closed-form
    order, before Sp(V) is built; d3n1 and d4n1 used to run out of
    memory instead."""
    t0 = time.perf_counter()
    rc = main(["weil-matrix", "--d", str(d), "--n", str(n)])
    elapsed = time.perf_counter() - t0
    captured = capsys.readouterr()
    assert rc == 2
    assert f"build {count} elements" in captured.err
    assert captured.out == ""
    assert elapsed < 5.0


@pytest.mark.parametrize("argv", [
    ["weil-matrix", "--element", "1", "--seed", "9"],
    ["weil-matrix", "--element", "1", "--mode", "sampled"],
    ["weil-matrix", "--element", "1", "--sample-count", "5"],
    ["emit-corpus", "--d", "2", "--n", "2", "--mode", "exhaustive"],
])
def test_unused_options_are_not_parsed(capsys, argv):
    """weil-matrix takes no sampling options, and emit-corpus picks its
    mode from d*n alone."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert f"unrecognized arguments: {argv[-2]}" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv,order", [
    (("--d", "1", "--n", "2"), 11520),
    (("--split",), 48),
])
def test_weil_matrix_refuses_an_index_before_listing(capsys, monkeypatch, argv, order):
    """An index outside the group is refused against the closed-form
    order, with the message of old, before the group is listed."""
    from weil2 import heisenberg

    def no_listing(*args):
        raise AssertionError("an out-of-range index listed the group")

    monkeypatch.setattr(heisenberg, "enumerate_asp", no_listing)
    monkeypatch.setattr(heisenberg, "enumerate_sp_R", no_listing)
    rc = main(["weil-matrix", *argv, "--element", "99999"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == f"error: element index out of range (0..{order - 1})\n"
    assert captured.out == ""


def test_weil_matrix_out_of_range(capsys):
    for element in ("999", "99", "24", "-1"):
        rc = main(["weil-matrix", "--d", "1", "--n", "1", "--element", element])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("error: element index out of range")
        assert captured.out == ""


def test_emit_corpus_deterministic(tmp_path, capsys):
    p1 = tmp_path / "c1.json"
    p2 = tmp_path / "c2.json"
    rc1, _ = run_cli(capsys, "emit-corpus", "--d", "1", "--n", "1",
                     "--out", str(p1))
    rc2, _ = run_cli(capsys, "emit-corpus", "--d", "1", "--n", "1",
                     "--out", str(p2))
    assert rc1 == rc2 == 0
    assert p1.read_bytes() == p2.read_bytes()
    data = json.loads(p1.read_text())
    assert data["schema_version"] == 1
    assert data["prng"] == "python-random-mt19937"
    assert len(data["enhanced_lagrangians"]) == 6
    assert data["oriented_count"] == 12
    assert "cocycle_table" in data
    assert "weil_matrices" in data
    assert "split_weil_matrices" in data


def test_emit_corpus_d1n2_golden(capsys):
    rc, out = run_cli(capsys, "emit-corpus", "--d", "1", "--n", "2")
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "01825dcfd79bafcf88dc3595ef898a8935723fc29542f5275ec4027a9614e988")


def test_emit_corpus_d1n1_golden(capsys):
    """All 24 Weil matrices, the 48 split matrices and the lambda/mu roots,
    pinned by their hash."""
    rc, out = run_cli(capsys, "emit-corpus", "--d", "1", "--n", "1")
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "63198c3a9d13001b5f76019aa70ebfa9e06198a4c1c6a47e3bbbf6bcf0b546d1")


@pytest.mark.parametrize("argv,shapes", [
    (["emit-corpus", "--d", "1", "--n", "1"], [(1, 1)]),
    (["emit-corpus", "--d", "1", "--n", "2"], [(1, 2)]),
    (["cocycle-table", "--d", "1", "--n", "2"], [(1, 2)]),
    (["verify", "--suite", "trivialization"], [(1, 1)]),
    (["verify", "--suite", "cocycle", "--d", "1", "--n", "4", "--mode",
      "sampled", "--sample-count", "3"], []),
    (["cocycle-table", "--d", "2", "--n", "2", "--mode", "sampled",
      "--sample-count", "3"], []),
], ids=["emit-corpus-d1n1", "emit-corpus-d1n2", "cocycle-table-d1n2",
        "verify-trivialization", "verify-cocycle-d1n4-sampled",
        "cocycle-table-d2n2-sampled"])
def test_each_command_lists_the_lagrangians_once(capsys, monkeypatch, argv,
                                                  shapes):
    """A command builds one space per shape and lists its Lagrangians
    once, however often it asks for them; a sampled cocycle run lists
    none."""
    listed = []
    real = SympSpace.enumerate_lagrangians

    def counted(space):
        if not space._caches["enumerate_lagrangians"]:
            listed.append((space.R.d, space.n))
        return real(space)

    monkeypatch.setattr(SympSpace, "enumerate_lagrangians", counted)
    rc, _ = run_cli(capsys, *argv)
    assert rc == 0
    assert listed == shapes


def test_verify_weil_json_golden(capsys):
    rc, out = run_cli(capsys, "verify", "--suite", "weil", "--format", "json")
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == WEIL_JSON_SHA256


def test_verify_sampled_d1n4_json_golden(capsys):
    rc, out = run_cli(capsys, *D1N4_SAMPLED_ARGV)
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == D1N4_SAMPLED_SHA256


@pytest.mark.parametrize("argv,digest", [
    (("verify", "--suite", "all", "--d", "2", "--n", "2", "--mode", "sampled",
      "--sample-count", "40", "--seed", "7", "--format", "json"),
     "23600b5651e6cb2321adc7a0605913af62e7c437c7de44edb9bc1df78dfebd04"),
    (("verify", "--suite", "trivialization", "--format", "json"),
     "ac925595591f921f80c800722eff09a6a1c5eaca4815e516214e80010ce1ea11"),
    (("verify", "--suite", "witt", "--format", "json"),
     "4021bad769ad0ff1769f0f10ee96bcac60724d6495acb7721cd591c0957f11bb"),
    # three checks, the fourth-power sweep reported once
    (("verify", "--suite", "cocycle", "--d", "1", "--n", "1", "--format", "json"),
     "ba3b0d9c0d52262edd76e5fa34cafaba8cfa532a82b5d293e906dcb1784c53cd"),
], ids=["all-d2n2-sampled", "trivialization", "witt", "cocycle-d1n1"])
def test_verify_json_golden(capsys, argv, digest):
    """The acceptance gate's determinism report (criterion 10) and the
    default trivialization, witt and d1n1 cocycle reports, pinned by their
    hashes."""
    rc, out = run_cli(capsys, *argv)
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_sampled_d1n4_json_golden_under_optimize():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "weil2.cli", *D1N4_SAMPLED_ARGV],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == D1N4_SAMPLED_SHA256


def test_out_flag_writes_file(tmp_path, capsys):
    p = tmp_path / "ring.json"
    rc, out = run_cli(capsys, "ring-info", "--d", "1", "--out", str(p))
    assert rc == 0
    assert json.loads(p.read_text())["size"] == 4


def test_out_into_a_missing_directory_exits_2(tmp_path, capsys):
    p = tmp_path / "missing" / "ring.json"
    rc = main(["ring-info", "--d", "1", "--out", str(p)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == (f"error: cannot write {p}: "
                            "No such file or directory\n")
    assert captured.out == ""
    assert not p.parent.exists()


def test_refused_run_creates_no_file(tmp_path, capsys):
    p = tmp_path / "table.csv"
    rc = main(["cocycle-table", "--d", "3", "--n", "2", "--mode", "exhaustive",
               "--out", str(p)])
    assert rc == 2
    assert "refused" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_out_is_kept_when_a_run_fails_midway(tmp_path, monkeypatch):
    """--out is all-or-nothing: a run that raises after writing part of the
    table leaves the old file byte-identical and no temporary file."""
    p = tmp_path / "table.json"
    p.write_bytes(b"old table\n")
    real = models.CharacterSum.values
    seen = []

    def values(self, *lists):
        seen.append(sorted(os.listdir(tmp_path)))
        if len(seen) > 1:
            raise RuntimeError("failed after the first subspace triple")
        return real(self, *lists)

    monkeypatch.setattr(models.CharacterSum, "values", values)
    with pytest.raises(RuntimeError, match="after the first subspace triple"):
        main(["cocycle-table", "--d", "1", "--n", "2", "--format", "json",
              "--out", str(p)])
    # the first triple's rows were being written to a file beside p
    assert len(seen) == 2 and len(seen[1]) == 2
    assert p.read_bytes() == b"old table\n"
    assert os.listdir(tmp_path) == ["table.json"]


def test_out_writes_through_a_fifo(tmp_path, capsys):
    """--out at a path that is not a regular file, here a FIFO, is opened
    and written directly, not replaced by a file."""
    _, want = run_cli(capsys, "ring-info", "--d", "1")
    p = tmp_path / "fifo"
    os.mkfifo(p)
    # a reader opened first lets the writer open the FIFO without blocking;
    # the report fits in the pipe buffer
    fd = os.open(p, os.O_RDONLY | os.O_NONBLOCK)
    try:
        assert main(["ring-info", "--d", "1", "--out", str(p)]) == 0
        got = os.read(fd, 1 << 16)
    finally:
        os.close(fd)
    assert got.decode() == want
    assert stat.S_ISFIFO(os.stat(p).st_mode)
    assert os.listdir(tmp_path) == ["fifo"]


def test_out_writes_through_a_symlink(tmp_path, capsys):
    """--out at a symlink writes the file it names, as /dev/stdout and
    /dev/fd/N need, and keeps the link."""
    _, want = run_cli(capsys, "ring-info", "--d", "1")
    target = tmp_path / "ring.json"
    target.write_text("old\n")
    link = tmp_path / "link.json"
    link.symlink_to(target)
    assert main(["ring-info", "--d", "1", "--out", str(link)]) == 0
    assert link.is_symlink()
    assert target.read_text() == want
    assert sorted(os.listdir(tmp_path)) == ["link.json", "ring.json"]


def test_out_skips_a_leftover_temporary_name(tmp_path, capsys, monkeypatch):
    """A temporary file left by a killed run does not block later runs: the
    next run draws another name."""
    p = tmp_path / "ring.json"
    stale = tmp_path / "ring.json.00000000.tmp"
    stale.write_text("left by a killed run\n")
    draws = iter([b"\0" * 4, b"\1" * 4])
    monkeypatch.setattr(cli.os, "urandom", lambda k: next(draws))
    assert main(["ring-info", "--d", "1", "--out", str(p)]) == 0
    assert json.loads(p.read_text())["size"] == 4
    assert stale.read_text() == "left by a killed run\n"
    assert sorted(os.listdir(tmp_path)) == ["ring.json",
                                            "ring.json.00000000.tmp"]


def test_out_into_a_missing_directory_exits_2_before_the_sweep(
        tmp_path, capsys, monkeypatch):
    def no_sum(*_):
        raise AssertionError("a CharacterSum was built")

    monkeypatch.setattr(cli, "CharacterSum", no_sum)
    p = tmp_path / "missing" / "table.json"
    rc = main(["cocycle-table", "--d", "1", "--n", "2", "--out", str(p)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == (f"error: cannot write {p}: "
                            "No such file or directory\n")
    assert not p.parent.exists()


def test_streamed_table_memory(tmp_path):
    """The d1n2 table (8 MB of JSON) is written while it is computed, so
    the run's traced peak stays under half the output."""
    p = tmp_path / "table.json"
    tracemalloc.start()
    try:
        rc = main(["cocycle-table", "--d", "1", "--n", "2", "--format", "json",
                   "--out", str(p)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert p.stat().st_size == 8056454
    assert peak < 4 * 2 ** 20, peak


@pytest.mark.parametrize("shape", [
    ["--d", "4", "--n", "16", "--sample-count", "1"],
    ["--d", "2", "--n", "2", "--mode", "exhaustive"],
], ids=["d4n16-sampled", "d2n2-exhaustive"])
def test_verify_all_refuses_before_any_suite(capsys, monkeypatch, shape):
    """--suite all meets the cocycle suite's refusal before witt runs."""
    assert main(["verify", "--suite", "cocycle", *shape]) == 2
    want = capsys.readouterr().err

    def no_witt():
        raise AssertionError("the witt suite ran")

    monkeypatch.setattr(verify, "suite_witt", no_witt)
    assert main(["verify", "--suite", "all", *shape]) == 2
    captured = capsys.readouterr()
    assert captured.err == want
    assert captured.err.startswith("error: ") and "refused" in captured.err
    assert captured.out == ""


def test_sampled_cocycle_runs_past_the_old_d_times_n_cap(capsys):
    """d3n2 lists 585 Lagrangians, so a sampled run needs no override."""
    rc, out = run_cli(capsys, "verify", "--suite", "cocycle", "--d", "3",
                      "--n", "2", "--sample-count", "2")
    lines = out.strip().split("\n")
    assert rc == 0
    assert [line.split(":")[0] for line in lines[:-1]] == [
        "PASS cocycle.three-route.d3n2", "PASS cocycle.fourth-power.d3n2",
        "PASS cocycle.oriented-identity.d3n2"]
    assert lines[-1] == "3/3 checks passed"


@pytest.mark.parametrize("argv", [
    ["cocycle-table", "--d", "4", "--n", "17"],
    ["verify", "--suite", "cocycle", "--d", "1", "--n", "100000"],
    ["emit-corpus", "--d", "1", "--n", "100000"],
    ["weil-matrix", "--d", "1", "--n", "100000"],
])
def test_rank_above_max_n_exits_2_promptly(capsys, argv):
    """No closed-form count is computed past n = 16, where it would grow
    without bound."""
    t0 = time.perf_counter()
    rc = main(argv)
    elapsed = time.perf_counter() - t0
    captured = capsys.readouterr()
    assert rc == 2
    assert f"n must be in 1..16, got {argv[-1]}" in captured.err
    assert captured.out == ""
    assert elapsed < 2.0


def test_weil_matrix_refuses_before_building_the_base_model(capsys):
    """At d4n16 the base model would list 2^64 elements; the group
    refusal comes first."""
    rc = main(["weil-matrix", "--d", "4", "--n", "16", "--split"])
    captured = capsys.readouterr()
    assert rc == 2
    assert "Sp(Vt) enumeration at d4n16 refused" in captured.err


@pytest.mark.parametrize("argv", [
    ["weil-matrix"],
    ["weil-matrix", "--split"],
    ["verify", "--suite", "cocycle", "--sample-count", "1"],
    ["cocycle-table"],
])
def test_refusal_at_d4n16_is_one_short_line(capsys, argv):
    """Counts of hundreds of digits are shown by their size."""
    rc = main([*argv, "--d", "4", "--n", "16"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1 and len(captured.err) < 200
    assert " digits)" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["weil-matrix"],
    ["weil-matrix", "--split"],
    ["emit-corpus"],
    ["cocycle-table"],
    ["cocycle-table", "--mode", "sampled"],
    ["verify", "--suite", "cocycle", "--sample-count", "1"],
    ["verify", "--suite", "trivialization", "--sample-count", "1"],
    ["verify", "--suite", "all", "--sample-count", "1"],
])
def test_refusal_at_d4n16_runs_before_the_ring(capsys, monkeypatch, argv):
    """Every refusal is computed from (d, n) alone, so a run that would
    build ring(4) and then refuse exits 2 with the same line without it."""
    assert main([*argv, "--d", "4", "--n", "16"]) == 2
    want = capsys.readouterr().err

    def no_ring(d):
        raise AssertionError(f"ring({d}) was built")

    monkeypatch.setattr(cli, "ring", no_ring)
    monkeypatch.setattr(verify, "ring", no_ring)
    assert main([*argv, "--d", "4", "--n", "16"]) == 2
    captured = capsys.readouterr()
    assert captured.err == want
    assert captured.err.startswith("error: ") and "refused" in captured.err
    assert captured.out == ""


def test_weil_suite_passes_under_optimize():
    """Every invariant of the weil and intro suites is an explicit raise, so
    the suite still runs, passes and writes the same report with asserts
    stripped."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "weil2.cli", "verify", "--suite", "weil",
         "--format", "json"],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    checks = json.loads(proc.stdout)["checks"]
    assert len(checks) >= 10
    assert all(c["passed"] for c in checks), checks
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == WEIL_JSON_SHA256


def test_ring_and_witt_commands_under_optimize():
    """The Galois ring's table checks and the Witt decomposition witness
    are explicit raises, so they still run with asserts stripped."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    for argv in (["ring-info", "--d", "4"],
                 ["witt", "classify", "[[1,0,0],[0,1,0],[0,0,1]]"]):
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "weil2.cli", *argv],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, (argv, proc.stderr)
        assert json.loads(proc.stdout)

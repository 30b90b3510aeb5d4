import pytest

import kref
from weil2 import linalg, verify
from weil2.cli import main as cli_main
from weil2.galois import ring
from weil2.heisenberg import all_h_elements, enumerate_asp, enumerate_sp_R
from weil2.models import gaussian_mul, pi_matrix
from weil2.symplectic import SympSpace, enumerate_enhanced
from weil2.weil import SplitWeilRepresentation, WeilRepresentation


def test_prng_is_named():
    assert verify.PRNG_NAME == "python-random-mt19937"


def test_check_shape():
    checks = verify.witt_core_checks()
    assert checks
    for c in checks:
        assert c.name and isinstance(c.passed, bool)
        assert isinstance(c.detail, str)


def test_run_suite_rejects_unknown_name():
    with pytest.raises(ValueError):
        verify.run_suite("nonsense")


def test_exhaustive_triple_sweep_cap():
    with pytest.raises(ValueError):
        verify.cocycle_checks_exhaustive(3, 2)


def test_exhaustive_sweeps_count_each_wrong_value(monkeypatch):
    """Both d1n1 sweeps read C off the CharacterSum of each subspace triple:
    one wrong value (1, whose fourth power is not -4) is one fourth-power
    failure; every value turned by i keeps every fourth power and breaks
    every oriented identity.  Values are Gaussian integers (re, im)."""
    plain = verify.CharacterSum.value
    calls = 0

    def first_wrong(self, packed):
        nonlocal calls
        calls += 1
        return (1, 0) if calls == 1 else plain(self, packed)

    monkeypatch.setattr(verify.CharacterSum, "value", first_wrong)
    pow_check, or_check = verify.cocycle_checks_exhaustive(1, 1)
    assert (pow_check.passed, or_check.passed) == (False, True)
    assert pow_check.detail.endswith("on 48 enhanced triples, 1 failures")
    assert calls == 96

    monkeypatch.setattr(verify.CharacterSum, "value",
                        lambda self, packed: gaussian_mul(plain(self, packed), (0, 1)))
    pow_check, or_check = verify.cocycle_checks_exhaustive(1, 1)
    assert (pow_check.passed, or_check.passed) == (True, False)
    assert or_check.detail.endswith(
        "on 48 canonical lift triples, 48 failures")


def test_sampled_checks_are_reproducible():
    a = verify.cocycle_checks_sampled(2, 1, 8, seed=5)
    b = verify.cocycle_checks_sampled(2, 1, 8, seed=5)
    assert [(c.name, c.passed, c.detail) for c in a] == \
        [(c.name, c.passed, c.detail) for c in b]
    assert all(c.passed for c in a)


def test_sampled_cocycle_draw_runs_one_ring_elimination(monkeypatch):
    """A sampled cocycle draw builds its lifts in closed form, so its only
    ring elimination is the projection of the drawn (Nt, Lt) behind
    route 3's gram: 20 over 20 draws at d1n4 (271 when the lifts were
    found by elimination), and no rref_ring or solved dual family."""
    eliminate, calls = linalg.eliminate, []

    def counting(*args):
        calls.append(args)
        return eliminate(*args)

    def refused(*args):
        raise AssertionError("a sampled draw eliminated for its lifts")

    monkeypatch.setattr(linalg, "eliminate", counting)
    monkeypatch.setattr(linalg, "rref_ring", refused)
    monkeypatch.setattr(SympSpace, "_dual_family", refused)
    checks = verify.cocycle_checks_sampled(1, 4, 20, 3)
    assert all(c.passed for c in checks)
    assert len(calls) == 20


def test_suite_routing_names():
    names = {c.name for c in verify.run_suite("weil")}
    assert any(n.startswith("weil.") for n in names)
    assert any(n.startswith("intro.") for n in names)
    names = {c.name for c in verify.run_suite(
        "trivialization", d=2, n=1, sample_count=5, seed=1)}
    assert names and all("d2n1" in n for n in names)


@pytest.mark.parametrize("count", [0, -3])
def test_sampled_checks_refuse_zero_samples(count):
    with pytest.raises(ValueError, match="sample count"):
        verify.cocycle_checks_sampled(2, 2, count, 0)
    with pytest.raises(ValueError, match="sample count"):
        verify.transport_checks_sampled(2, 1, count, 0)


@pytest.mark.parametrize("d,n,word", [(0, 1, "d must"), (5, 1, "d must"),
                                      (1, 0, "n must"), (2, -1, "n must")])
def test_bad_shapes_raise_instead_of_defaulting(d, n, word):
    with pytest.raises(ValueError, match=word):
        verify.suite_cocycle(d, n)
    with pytest.raises(ValueError, match=word):
        verify.run_suite("cocycle", d=d, n=n)
    with pytest.raises(ValueError, match=word):
        verify.run_suite("trivialization", d=d, n=n, sample_count=1)


def test_only_none_defaults_to_one():
    """d = None with n = 1 still means d1n1."""
    names = [c.name for c in verify.suite_cocycle(None, 1)]
    assert "cocycle.three-route.d1n1" in names


def _weil_space():
    return SympSpace(ring(1), 1)


def _weil_passed():
    checks = verify.suite_weil()
    passed = {c.name: c.passed for c in checks}
    assert len(passed) == len(checks)
    return passed


def test_cocycle_identity_fails_on_a_tampered_pair(monkeypatch):
    """i times the cocycle on one pair stays in mu4 but breaks the 2-cocycle
    identity, so the exponent loop must see it."""
    asp = enumerate_asp(_weil_space())
    tampered = (asp[5].key(), asp[11].key())
    honest = WeilRepresentation.cocycle

    def cocycle(self, a, b, ab):
        value = honest(self, a, b, ab)
        return (value + 1) % 4 if (a.key(), b.key()) == tampered else value

    monkeypatch.setattr(WeilRepresentation, "cocycle", cocycle)
    passed = _weil_passed()
    assert passed["weil.cocycle-mu4"]
    assert not passed["weil.cocycle-identity"]


def test_weil_suite_reports_an_operator_off_mu4(monkeypatch, capsys):
    """sqrt2 times one operator puts its cocycle values outside mu4: the
    suite runs to the end and fails exactly the checks that read them,
    weil.commutant included, whose closure is that every cocycle value is
    in mu4."""
    target = enumerate_asp(_weil_space())[5]
    honest = WeilRepresentation.operator

    def operator(self, a):
        op = honest(self, a)
        return op.scaled(0, 1) if a == target else op

    monkeypatch.setattr(WeilRepresentation, "operator", operator)
    assert cli_main(["verify", "--suite", "weil"]) == 1
    failed = {line.split()[1].rstrip(":")
              for line in capsys.readouterr().out.splitlines()
              if line.startswith("FAIL ")}
    assert failed == {"weil.cocycle-mu4", "weil.cocycle-identity",
                      "weil.object-independence", "weil.split-vs-enhanced",
                      "weil.commutant"}


def test_object_independence_fails_on_a_tampered_coboundary(monkeypatch):
    tampered = enumerate_asp(_weil_space())[7].key()
    honest = verify.coboundary_ratio

    def coboundary_ratio(rep_alt, rep, Phi, a):
        value = honest(rep_alt, rep, Phi, a)
        return (value + 1) % 4 if a.key() == tampered else value

    monkeypatch.setattr(verify, "coboundary_ratio", coboundary_ratio)
    assert not _weil_passed()["weil.object-independence"]


def test_split_cocycle_fails_on_a_shifted_exponent(monkeypatch):
    """i times the split cocycle on one pair is in mu4 but not a sign."""
    sp = _weil_space()
    gs = enumerate_sp_R(sp)
    tampered = (gs[3], gs[17])
    honest = SplitWeilRepresentation.cocycle

    def cocycle(self, g, h, gh):
        value = honest(self, g, h, gh)
        return (value + 1) % 4 if (g, h) == tampered else value

    monkeypatch.setattr(SplitWeilRepresentation, "cocycle", cocycle)
    passed = _weil_passed()
    assert not passed["weil.split-cocycle-mu2"]
    assert passed["weil.cocycle-identity"]


def test_lift_checks_fail_on_a_retwisted_lift(monkeypatch):
    """A lift of one g0 moved to another element over the same residue
    (alpha shifted by a twist in Hom(V, 2R)) breaks multiplicativity and
    the split comparison, and leaves the ASp cocycle alone."""
    sp = _weil_space()
    g0 = enumerate_sp_R(sp)[5]
    honest = verify.lift_sp
    a0 = honest(sp, g0)
    other = next(a for a in enumerate_asp(sp) if a.g == a0.g and a != a0)

    def lift_sp(space, gt, validate=True):
        return other if gt == g0 else honest(space, gt, validate)

    monkeypatch.setattr(verify, "lift_sp", lift_sp)
    passed = _weil_passed()
    assert not passed["weil.lift-multiplicative"]
    assert not passed["weil.split-vs-enhanced"]
    assert passed["weil.cocycle-identity"]


def test_wedge_identity_fails_on_a_shifted_gram(monkeypatch):
    """2 added to the one entry of the r-map gram at n = 1 moves its det by
    2 times a unit, so every lift triple fails."""
    honest = SympSpace.omega_tilde_L_gram

    def omega_tilde_L_gram(self, Mt, Nt, Lt):
        gram = [list(row) for row in honest(self, Mt, Nt, Lt)]
        gram[0][0] = self.R.add(gram[0][0], self.R.two)
        return tuple(map(tuple, gram))

    monkeypatch.setattr(SympSpace, "omega_tilde_L_gram", omega_tilde_L_gram)
    outcomes = list(verify.wedge_identity_checks(1, 1))
    assert len(outcomes) == 48
    assert not any(outcomes)


def test_affine_lift_fails_when_every_g_gets_the_identity_lift(monkeypatch):
    """The identity's lift reduces to the identity, so the five other
    elements of Sp(V) at d1n1 fail."""
    sp = SympSpace(ring(1), 1)
    identity_lift = verify.symplectic_lift_matrix(sp, ((1, 0), (0, 1)))
    monkeypatch.setattr(verify, "symplectic_lift_matrix",
                        lambda space, g: identity_lift)
    check = next(c for c in verify.suite_intro()
                 if c.name == "intro.affine-lift-exists")
    assert (check.total, check.failures) == (6, 5)
    assert not check.passed


class _RightTranslated:
    """A Weil representation whose operator at one element a0 is
    W(a0) pi(h0)."""

    def __init__(self, W, a0, h0):
        self.base_enhanced = W.base_enhanced
        self._W, self._key = W, a0.key()
        self._pi = pi_matrix(W.base_enhanced, h0)

    def operator(self, a):
        op = self._W.operator(a)
        return op @ self._pi if a.key() == self._key else op


def test_egorov_fails_on_a_right_translated_operator():
    sp = _weil_space()
    asp = enumerate_asp(sp)
    W = WeilRepresentation(sp)
    pi = {h: pi_matrix(W.base_enhanced, h) for h in all_h_elements(sp)}
    assert verify.egorov_check(W, asp, pi).passed
    # h0 = (e_1, 0) does not commute with (f_1, 0): pi(h0) is not central
    h0 = (sp.pack(sp.std_basis_k(0)), 0)
    check = verify.egorov_check(_RightTranslated(W, asp[9], h0), asp, pi)
    assert check.name == "weil.egorov"
    assert not check.passed


def test_check_passes_only_when_it_saw_a_case_and_none_failed():
    assert verify.Check("x", 0, 0).passed is False
    assert verify.Check("x", 3, 1).passed is False
    assert verify.Check("x", 3, 0).passed is True
    assert verify._count([True, False, True]) == (3, 1)
    assert verify._count(iter(())) == (0, 0)


def test_cocycle_checks_fail_when_no_triple_is_visited(monkeypatch, capsys):
    monkeypatch.setattr(SympSpace, "transversal_triples", lambda self: [])
    small = verify.cocycle_checks_small()
    exhaustive = verify.cocycle_checks_exhaustive(1, 1)
    for c in small + exhaustive:
        assert (c.total, c.failures, c.passed) == (0, 0, False), c.name
    assert cli_main(["verify", "--suite", "cocycle", "--d", "1", "--n", "1"]) == 1
    out = capsys.readouterr().out
    assert "FAIL cocycle.fourth-power.d1n1" in out


@pytest.mark.parametrize("suite,d,n", [
    ("cocycle", 1, 1), ("weil", None, None), ("trivialization", None, None),
    ("witt", None, None),
])
def test_check_names_do_not_repeat(suite, d, n):
    names = [c.name for c in verify.run_suite(suite, d, n)]
    assert names and len(set(names)) == len(names)


def test_cocycle_d1n1_reports_each_check_once():
    names = [c.name for c in verify.suite_cocycle(1, 1)]
    assert names == ["cocycle.three-route.d1n1", "cocycle.fourth-power.d1n1",
                     "cocycle.oriented-identity.d1n1"]


def _nested_triples(sp, fibre):
    """The transversal-triple x fibre walk as a four-deep loop nest."""
    subs = sorted(fibre)
    out = []
    for a in subs:
        for b in subs:
            if not sp.transversal_k(a, b):
                continue
            for c in subs:
                if not (sp.transversal_k(a, c) and sp.transversal_k(b, c)):
                    continue
                for x in fibre[a]:
                    for y in fibre[b]:
                        for z in fibre[c]:
                            out.append((x, y, z))
    return out


def _oriented_by_reduction(sp):
    """enumerate_oriented grouped by the RREF of each basis's reduction."""
    by_rows = {}
    for o in sp.enumerate_oriented():
        red, _ = kref.rref(sp.R, [sp.reduce_vec(b) for b in o.basis])
        by_rows.setdefault(red, []).append(o)
    return by_rows


@pytest.mark.parametrize("d,n", [(1, 1), (1, 2)])
def test_oriented_fibres_match_grouping_by_reduction(d, n):
    sp = SympSpace(ring(d), n)
    assert sp.oriented_by_rows() == _oriented_by_reduction(sp)


def test_fibred_walk_matches_the_loop_nest():
    sp = SympSpace(ring(1), 1)
    enhanced = {}
    for e in enumerate_enhanced(sp):
        enhanced.setdefault(e.rows, []).append(e)
    # 6 subspace triples, with 2 enhancements or 4 oriented lifts each
    for fibre, count in ((enhanced, 48), (sp.oriented_by_rows(), 384)):
        walk = list(verify._fibred(sp, fibre))
        assert walk == _nested_triples(sp, fibre)
        assert len(walk) == count

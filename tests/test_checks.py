import inspect
import operator
import random
import textwrap
from collections import defaultdict
from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from types import SimpleNamespace

import pytest

import fault_grid
from eisen2 import arith, checks, cli, graded, scalars
from eisen2.catalog import SeriesCatalog
from eisen2.qseries import QSeries, linear_combination, qs_det
from memo_keys import memo_keys
from verify_defaults import sizes, workspace


def test_registry_shape():
    ids = checks.registry_ids()
    assert len(ids) == len(set(ids))
    for m in range(2, 13):
        assert f"RS-DE({m})" in ids
        assert f"KS-DE({m})" in ids
    for fixed in (
        "RAM-DE", "E6STAR-ABC", "HAHN-SYS", "SIGMA3-CLASSICAL", "T7", "T5",
        "L4", "T8", "C1", "T314", "C2", "MINORS-L1", "GARVAN", "DIS", "L5",
        "P4", "T49", "DELTA-FAMILY", "THETA-REL", "JACOBI", "T9", "R24-FACT",
        "T10", "C10", "DET-L2", "TAU-PROPS", "TABLE2", "DELTA8",
    ):
        assert fixed in ids


def test_unknown_id():
    with pytest.raises(checks.UnknownTheoremId):
        checks.run_check("NOPE", workspace())
    # aliases resolve once, in resolve_ids: run_check takes canonical ids
    with pytest.raises(checks.UnknownTheoremId):
        checks.run_check("DELTA-L2", workspace())
    with pytest.raises(checks.UnknownTheoremId):
        checks.resolve_ids("NOPE")


def test_resolve_families_and_aliases():
    assert checks.resolve_ids("KS-DE") == [f"KS-DE({m})" for m in range(2, 13)]
    assert checks.resolve_ids("T5") == ["T5"]
    assert checks.resolve_ids("DELTA-L2") == ["DIS"]
    assert checks.resolve_ids("all") == checks.registry_ids()


def test_single_check_report():
    report = checks.run_check("RAM-DE", workspace(order=16))
    assert report.status == "pass"
    assert report.first_discrepancy is None
    assert report.order == 16
    payload = report.to_json_dict()
    assert set(payload) == {"id", "order", "status", "first_discrepancy", "elapsed_ms"}


def test_all_pass_at_reduced_order():
    # identities hold at every truncation, so a small order still passes
    reports = checks.run_all(order=8, nmax=24, mmax=4, ids=checks.registry_ids())
    assert all(r.status == "pass" for r in reports)


def test_reports_deterministic():
    a = checks.run_all(order=12, nmax=16, mmax=3, ids=checks.registry_ids())
    b = checks.run_all(order=12, nmax=16, mmax=3, ids=checks.registry_ids())
    assert [r.line() for r in a] == [r.line() for r in b]


def test_table2_flags_differing_printed_cells():
    report = checks.run_check("TABLE2", workspace())
    assert report.status == "pass"
    joined = "\n".join(report.notes)
    assert "12/517" in joined and "17/512" in joined
    assert "33/32" in joined and "-27/4" in joined


def test_t5_index_one_by_hand():
    # sigma*_3(1) = 2*1*sigma*(1) - 4(sigma*(0)sigma*(1) + sigma*(1)sigma*(0))
    lhs = arith.sigma_star(3, 1)
    rhs = 2 * arith.sigma_star(1, 1) - 4 * (
        arith.sigma_star(1, 0) * arith.sigma_star(1, 1)
        + arith.sigma_star(1, 1) * arith.sigma_star(1, 0)
    )
    assert lhs == rhs == 1


def _corrupt_divisor_sums(monkeypatch, kind, s, n):
    # the fault enters where the catalog reads every divisor sum
    real = arith.divisor_sum_table

    def corrupted(kk, ss, N):
        table = real(kk, ss, N)
        if (kk, ss) == (kind, s) and n <= N:
            table[n] += 1
        return table

    monkeypatch.setattr(arith, "divisor_sum_table", corrupted)


def _corrupt_sigma_star(monkeypatch, s=3, n=5):
    _corrupt_divisor_sums(monkeypatch, "sigma_star", s, n)


@pytest.mark.parametrize(
    "check_id, s, n, expected",
    [
        pytest.param(check_id, 3, 5, None, id=check_id)
        for check_id in ("T5", "T314", "KS-DE(3)", "T9", "T10")
    ]
    # the n = 0 convention value is an input of the convolution identities
    + [pytest.param("T5", 3, 0, (0, Fraction(15, 16), Fraction(-1, 16)), id="T5-at-0")]
    # each quotient member of the family is compared in its cleared form
    + [pytest.param("DELTA-FAMILY", 7, 5, None, id="DELTA-FAMILY-E8star"),
       pytest.param("DELTA-FAMILY", 9, 5, None, id="DELTA-FAMILY-E10star")]
    # and it gives the Eisenstein series their constant terms as well
    + [pytest.param("KS-DE(3)", 3, 0, None, id="KS-DE(3)-at-0")]
    # C10's flags at q^0 are (False, False, False, True): the first flag that
    # differs from flags[0] is the last one, so the report is 0 != 1
    + [pytest.param("C10", 5, 0, (0, 0, 1), id="C10-last-flag-differs")],
)
def test_injected_corruption_localizes(monkeypatch, check_id, s, n, expected):
    # an off-by-one in sigma*_s(n) must fail exactly these checks, with the
    # first discrepancy at the earliest affected index
    _corrupt_sigma_star(monkeypatch, s=s, n=n)
    report = checks.run_check(check_id, workspace(order=12, nmax=12))
    assert report.status == "fail"
    assert report.first_discrepancy[0] == n
    if expected is not None:
        assert report.first_discrepancy == expected


def test_injected_corruption_leaves_untouched_checks_green(monkeypatch):
    _corrupt_sigma_star(monkeypatch)
    # purely level-1 checks never consult the signed divisor sums
    assert checks.run_check("RAM-DE", workspace(order=12)).status == "pass"
    assert checks.run_check("SIGMA3-CLASSICAL", workspace(nmax=12)).status == "pass"


@pytest.mark.parametrize(
    "name, check_id", [("rs_coefficient", "RS-DE(4)"), ("ks_coefficient", "KS-DE(4)")]
)
def test_de_runners_read_the_coefficients_when_they_run(monkeypatch, name, check_id):
    # the layer tracer rebinds these module attributes after import
    real = getattr(checks, name)
    monkeypatch.setattr(checks, name, lambda m, k: real(m, k) + 1)
    assert checks.run_check(check_id, workspace(order=12)).status == "fail"


def test_t49_reports_a_bad_level2_series_at_its_exponent(monkeypatch):
    _corrupt_sigma_star(monkeypatch, s=7, n=9)
    report = checks.run_check("T49", workspace(order=12, nmax=30, mmax=6))
    assert report.status == "fail"
    n, lhs, rhs = report.first_discrepancy
    assert n == 9 and rhs - lhs == 1 / arith.sigma_star(7, 0)
    assert any("E8star polynomial" in note for note in report.notes)


def test_t49_compares_every_level_at_the_top_order(monkeypatch):
    # E8* is level 4; at mmax 6 the tower is compared to q^14 at every level,
    # not only to the q^12 that level 4 would need on its own
    _corrupt_sigma_star(monkeypatch, s=7, n=13)
    report = checks.run_check("T49", workspace(order=12, nmax=30, mmax=6))
    assert report.status == "fail"
    n, lhs, rhs = report.first_discrepancy
    assert n == 13 and rhs - lhs == 1 / arith.sigma_star(7, 0)
    assert any("E8star polynomial" in note for note in report.notes)


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_t49_range_does_not_depend_on_earlier_calls(monkeypatch, warm):
    # a level built before, on a catalog of its own, is not the level T49
    # judges: T49 compares E8* to q^14 on its own catalog either way
    if warm:
        graded.e_star_poly(4, SeriesCatalog(0))
    _corrupt_sigma_star(monkeypatch, s=7, n=13)
    report = checks.run_check("T49", workspace(order=12, nmax=30, mmax=6))
    assert report.status == "fail"
    n, lhs, rhs = report.first_discrepancy
    assert n == 13 and rhs - lhs == 1 / arith.sigma_star(7, 0)
    assert any("E8star polynomial" in note for note in report.notes)


@pytest.mark.parametrize(
    "n, lhs, rhs",
    [(9, Fraction(-153125024, 17), Fraction(-153125056, 17)),
     (13, Fraction(-2007952576, 17), Fraction(-2007952608, 17)),
     (30, Fraction(694698892032, 17), Fraction(694698892000, 17))],
)
def test_t49_reports_the_unlifted_values_of_a_bad_level(monkeypatch, n, lhs, rhs):
    # levels are compared lifted to the top weight, but a failure names the
    # polynomial's value at q^n and the bumped E8* coefficient, as the
    # per-level comparison did
    _corrupt_sigma_star(monkeypatch, s=7, n=n)
    report = checks.run_check("T49", workspace(mmax=40))
    assert report.status == "fail"
    assert report.first_discrepancy == (n, lhs, rhs)
    assert report.notes == ("E8star polynomial: differential recursion against the q-expansion",)


def _count_series_products(monkeypatch) -> list:
    real = QSeries.__mul__
    products = []

    def counted(self, other):
        if isinstance(other, QSeries):
            products.append(1)
        return real(self, other)

    monkeypatch.setattr(QSeries, "__mul__", counted)
    return products


def test_t49_at_mmax_40_makes_at_most_112_products(monkeypatch):
    # every level shares the top weight's monomials: 112 products, against
    # 437 when each level multiplied out its own monomials
    products = _count_series_products(monkeypatch)
    assert checks.run_check("T49", workspace(mmax=40)).status == "pass"
    assert len(products) <= 112


def test_t49_at_mmax_40_makes_one_polynomial_sum_per_level(monkeypatch):
    # one _sum_of_products per tower level 3..40; every level is judged from
    # its own terms, so no lifted polynomial and no E* copy is built: 38
    # calls, against 115 when each level was lifted and scaled
    real = graded._sum_of_products
    calls = []
    monkeypatch.setattr(graded, "_sum_of_products",
                        lambda terms: calls.append(1) or real(terms))
    ws = workspace(mmax=40)
    assert checks.run_check("T49", ws).status == "pass"
    assert len(calls) == 38
    keys = [key for key in ws._memo if isinstance(key, str)]
    assert "sigma79star_poly" in keys
    assert [key for key in keys if key.startswith("E") and key.endswith("star_poly")] == []


def test_order_checks_at_order_96_make_at_most_103_products(monkeypatch):
    # the order-scoped checks share each product of named series through the
    # catalog, the Hankel minors' pairs included, and the discriminant's
    # polynomial routes are DIS's equations on shared powers: 103 series
    # products, against 166 when each check made its own
    ids = [i for i in checks.registry_ids() if checks.REGISTRY[i].scope == "order"]
    assert len(ids) == 33
    products = _count_series_products(monkeypatch)
    reports = checks.run_all(**sizes(order=96), ids=ids)
    assert [r.id for r in reports if r.status != "pass"] == []
    assert len(products) <= 103


def test_range_checks_at_nmax_300_make_at_most_19_products(monkeypatch):
    # T10 and C10 share the catalog's sigma*_5^2 and sigma*_3 sigma*_7, and
    # the discriminant at nmax is the eta product alone: 19 series products,
    # against 28 when each made its own and the discriminant its routes
    ids = [i for i in checks.registry_ids() if checks.REGISTRY[i].scope == "range"]
    assert len(ids) == 13
    products = _count_series_products(monkeypatch)
    reports = checks.run_all(**sizes(nmax=300), ids=ids)
    assert [r.id for r in reports if r.status != "pass"] == []
    assert len(products) <= 19


def _de_id(level, m):
    return f"{'RS' if level == 1 else 'KS'}-DE({m})"


@pytest.mark.parametrize("level, m", [(1, 5), (2, 2), (2, 3), (2, 4), (2, 5)])
def test_displayed_forms_are_a_second_equation_equal_to_the_derivative(level, m):
    # each displayed form is a second right-hand side for q E'_{2m-2}
    cat = SeriesCatalog(24)
    equations = list(checks.REGISTRY[_de_id(level, m)].equations(cat))
    series = cat.level1 if level == 1 else cat.level2
    assert len(equations) == 2
    assert equations[1][0] == equations[1][1] == series(m - 1).theta()


def test_only_the_displayed_forms_add_an_equation():
    cat = SeriesCatalog(12)
    counts = {(level, m): len(list(checks.REGISTRY[_de_id(level, m)].equations(cat)))
              for level in (1, 2) for m in range(2, 13)}
    assert {key for key, n in counts.items() if n == 2} == set(checks._DISPLAYED_FORMS)
    assert set(counts.values()) == {1, 2}
    # the KS-DE descriptions name exactly the level-2 displayed forms
    assert {m for level, m in checks._DISPLAYED_FORMS if level == 2} == set(checks._KS_SPECIALS)


def _ks_form_text(m: int, form: dict) -> str:
    """A level-2 displayed form as the KS-DE descriptions write it: A, B,
    E6*, E8*, E10*, the terms over one common denominator, and a coefficient
    1 left out."""
    def name(k):
        return {1: "A", 2: "B"}.get(k, f"E{2 * k}*")

    den = lcm(*(c.denominator for c in form.values()))
    text = ""
    for ks, c in form.items():
        num = int(c * den)
        factors = " ".join(name(k) + (f"^{ks.count(k)}" if ks.count(k) > 1 else "")
                           for k in sorted(set(ks)))
        sign = ("- " if num < 0 else "+ ") if text else ("-" if num < 0 else "")
        text += (" " if text else "") + sign + ("" if abs(num) == 1 else f"{abs(num)} ") + factors
    return f"q{name(m - 1)}' = " + (text if den == 1 else f"({text})/{den}")


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_ks_descriptions_state_the_forms_they_compare(m):
    form = checks._DISPLAYED_FORMS[2, m]
    assert _ks_form_text(m, form) == checks._KS_SPECIALS[m]
    assert checks.REGISTRY[_de_id(2, m)].description.endswith(
        f"; includes displayed form {checks._KS_SPECIALS[m]}")
    # one coefficient moved by 1/8 no longer renders as the description
    ks, c = next(iter(form.items()))
    assert _ks_form_text(m, {**form, ks: c + Fraction(1, 8)}) != checks._KS_SPECIALS[m]


@pytest.mark.parametrize("level, m", [(1, 5), (2, 2), (2, 3), (2, 4), (2, 5)])
def test_de_checks_compare_the_displayed_form(monkeypatch, level, m):
    zeroed = {ks: Fraction(0) for ks in checks._DISPLAYED_FORMS[level, m]}
    monkeypatch.setitem(checks._DISPLAYED_FORMS, (level, m), zeroed)
    report = checks.run_check(_de_id(level, m), workspace(order=12))
    assert report.status == "fail"
    # the convolution equation still holds: the form's equation fails, at
    # the first nonzero coefficient of q E'_{2m-2}
    assert report.first_discrepancy[0] == 1 and report.first_discrepancy[2] == 0


def test_no_check_or_constructor_divides(monkeypatch, capsys):
    def refuse(self):
        raise AssertionError("QSeries.invert called")

    monkeypatch.setattr(QSeries, "invert", refuse)
    reports = checks.run_all(order=16, nmax=30, mmax=6, ids=checks.registry_ids())
    assert [r.id for r in reports if r.status != "pass"] == []
    for name in ("C", "D", "delta8"):
        assert cli.main(["export", name]) == 0


def test_a_registry_run_reads_no_zeta_or_lambda(monkeypatch):
    # the differential-equation weights are Bernoulli ratios, so no check
    # reads zeta(2k)/pi^(2k) or lambda(2k)/pi^(2k)
    def refuse(k):
        raise AssertionError("a zeta or lambda value was read")

    monkeypatch.setattr(scalars, "zeta_even", refuse)
    monkeypatch.setattr(scalars, "lambda_even", refuse)
    reports = checks.run_all(order=16, nmax=30, mmax=6, ids=checks.registry_ids())
    assert [r.id for r in reports if r.status != "pass"] == []


def test_every_power_goes_through_the_catalog(monkeypatch, capsys):
    def refuse(self, e):
        raise AssertionError("QSeries.__pow__ called")

    monkeypatch.setattr(QSeries, "__pow__", refuse)
    reports = checks.run_all(order=16, nmax=30, mmax=6, ids=checks.registry_ids())
    assert [r.id for r in reports if r.status != "pass"] == []
    for name in ("r4", "r24", "tau", "delta", "E12star"):
        assert cli.main(["export", name]) == 0


# tau(n) for the indices below
_TAU = {2: -24, 3: 252, 6: -6048, 7: -16744}


def _bump_tau(monkeypatch, n, by):
    real = SeriesCatalog.delta

    def bumped(self):
        tau = real(self)
        return tau + QSeries.from_terms({n: by}, tau.order)

    monkeypatch.setattr(SeriesCatalog, "delta", bumped)


def _conv_star(a, b, n):
    return sum(arith.sigma_star(a, j) * arith.sigma_star(b, n - j) for j in range(n + 1))


def _c10_flags(n, tau_n):
    # the comparisons of C10, on Fraction values from the per-n oracles
    conv55, conv37 = _conv_star(5, 5, n), _conv_star(3, 7, n)
    return (n % 2 == 1, tau_n > conv55, tau_n > conv37, conv55 > conv37)


_HECKE_T2 = ("Hecke relation T_2 Delta = tau(2) Delta fails: exponent n stands for "
             "tau(2n) + 2^11 tau(n/2) against tau(2) tau(n)")

# each identity's exact values at its first bad index, from the per-n oracles
_C1_AT_2 = _TAU[2] + 1 - Fraction(2, 12) * (5 * arith.sigma(3, 2) + 7 * arith.sigma(5, 2))
_C2_AT_3 = _TAU[3] + 1 - Fraction(3, 4) * (
    3 * arith.sigma_star(3, 3) + arith.sigma_star(5, 3))


@pytest.mark.parametrize(
    "check_id, n, by, expected, note",
    [
        pytest.param("C1", 2, 1, (2, _C1_AT_2, 0), None, id="C1"),
        pytest.param("C2", 3, 1, (3, _C2_AT_3, 0), None, id="C2"),
        pytest.param("C10", 2, 10**9, (2, 0, 1),
                     f"equivalence flags {_c10_flags(2, _TAU[2] + 10**9)} diverge",
                     id="C10"),
        # tau(2) = 0 lies between conv55(2) = -27/4 and conv37(2) = 405/32, so
        # flags[1] is the first flag that differs from flags[0]
        pytest.param("C10", 2, 24, (2, 0, 1),
                     "equivalence flags (False, True, False, False) diverge",
                     id="C10-tau2-zero"),
        # T_2 at q^3: tau(6) + 1 against tau(2) tau(3)
        pytest.param("TAU-PROPS", 6, 1, (3, _TAU[6] + 1, _TAU[2] * _TAU[3]),
                     _HECKE_T2, id="TAU-PROPS"),
    ],
)
def test_integer_scans_report_the_fraction_triple(monkeypatch, check_id, n, by,
                                                  expected, note):
    # the scans run on integer numerators; a failure is still reported as
    # the exact values of the identity at its first bad index
    _bump_tau(monkeypatch, n, by)
    report = checks.run_check(check_id, workspace(order=12, nmax=12))
    assert report.status == "fail"
    assert report.first_discrepancy == expected
    assert all(type(x) is Fraction for x in report.first_discrepancy[1:])
    assert report.notes == ((note,) if note else ())


def _doubled_at_multiples_of_4(upto):
    # multiplicative still (of two coprime factors at most one is even), but
    # tau(4) is no longer tau(2)^2 - 2^11
    tau = SeriesCatalog(upto).delta().numerators
    return QSeries([2 * t if n % 4 == 0 else t for n, t in enumerate(tau)])


def _sigma11_from_1(upto):
    # multiplicative, obeys the prime-power recursion and is congruent to
    # itself mod 691, so only the squared bound at primes can catch it
    return QSeries([0] + arith.divisor_sum_table("sigma", 11, upto)[1:])


# the clauses after the Hecke relations: the 691 congruence, and the squared
# bound at primes; nonvanishing has no scan of its own, since the 691 clause
# implies it (test_691_congruence_implies_nonvanishing)
@pytest.mark.parametrize(
    "table, expected, note",
    [
        # T_2 at q^2: tau(4) + 2^11 tau(1) = -896 against tau(2)^2 = 576
        pytest.param(_doubled_at_multiples_of_4, (2, -896, 576), _HECKE_T2,
                     id="recursion"),
        pytest.param(_sigma11_from_1, (2, 4198401, 8192),
                     "squared coefficient bound fails at a prime", id="bound"),
    ],
)
def test_tau_props_later_clauses_fail_on_their_own(monkeypatch, table, expected, note):
    faulty = table(checks._TAU_PROPS_N)
    monkeypatch.setattr(SeriesCatalog, "delta", lambda self: faulty)
    report = checks.run_check("TAU-PROPS", workspace())
    assert (report.first_discrepancy, report.notes) == (expected, (note,))


def test_691_congruence_implies_nonvanishing():
    # tau(n) = 0 with tau(n) = sigma_11(n) mod 691 needs 691 | sigma_11(n), which
    # holds at no n <= _TAU_PROPS_N, so TAU-PROPS scans no nonvanishing loop
    # (the first such n is 1381)
    limit = checks._TAU_PROPS_N
    sigma11 = arith.divisor_sum_table("sigma", 11, limit)
    assert all(sigma11[n] % 691 for n in range(1, limit + 1))


def _tau_loops(tau, limit):
    """The index loops TAU-PROPS once ran, kept as the oracle for its Hecke
    relations: multiplicativity over coprime pairs, then the prime-power
    recursion for p <= 31.  The first failure as (n, lhs, rhs), or None."""
    for m in range(2, limit + 1):
        for n in range(2, limit // m + 1):
            if gcd(m, n) == 1 and tau[m * n] != tau[m] * tau[n]:
                return (m * n, tau[m * n], tau[m] * tau[n])
    for p in arith.primes_up_to(31):
        prev, pk = 1, p
        while pk * p <= limit:
            nxt = pk * p
            expected = tau[p] * tau[pk] - p**11 * tau[prev]
            if tau[nxt] != expected:
                return (nxt, tau[nxt], expected)
            prev, pk = pk, nxt
    return None


def _tau_faults(tau, rng):
    """Faulted copies of the tau list on n >= 1 (the Hecke relation at q^0
    also pins tau(0) = 0, which the loops never read)."""
    limit = len(tau) - 1
    large = [p for p in arith.primes_up_to(limit) if p > 31]
    yield [2 * t if n % 4 == 0 else t for n, t in enumerate(tau)]
    for n in (997, 289, 961):  # a prime above 500, then 17^2 and 31^2
        yield [t + (i == n) for i, t in enumerate(tau)]
    for _ in range(250):  # one to three faults anywhere
        faulty = list(tau)
        for n in rng.sample(range(1, limit + 1), rng.randint(1, 3)):
            faulty[n] += rng.choice((-1, 1)) * rng.randint(1, 10**6)
        yield faulty
    for _ in range(250):
        # a new tau(p) at a prime p > 31 with every tau(pm) made to match, so
        # it stays multiplicative (p^2 > limit), or with one multiple left out
        p = rng.choice(large)
        faulty = list(tau)
        faulty[p] += rng.randint(1, 10**6)
        multiples = range(2 * p, limit + 1, p)
        skip = rng.choice([None, *multiples])
        for n in multiples:
            if n != skip:
                faulty[n] = faulty[p] * tau[n // p]
        yield faulty


def test_hecke_relations_fail_exactly_when_the_loops_do(monkeypatch):
    # one workspace, so the order-1000 discriminant and sigma_11 are built once
    ws = workspace()
    limit = checks._TAU_PROPS_N
    tau = list(ws.catalog_at(limit).delta().numerators)
    runner = checks.REGISTRY["TAU-PROPS"].runner
    outcomes = []
    for faulty in _tau_faults(tau, random.Random(16)):
        table = QSeries(faulty)
        # catalogs are views made per call, so the class's delta is replaced
        monkeypatch.setattr(SeriesCatalog, "delta", lambda self: table)
        notes = []
        runner(ws, notes)
        hecke_fails = bool(notes) and notes[0].startswith("Hecke relation")
        assert hecke_fails == (_tau_loops(faulty, limit) is not None), faulty
        outcomes.append(hecke_fails)
    assert len(outcomes) > 500
    assert outcomes[:4] == [True, False, True, True]
    assert 50 < outcomes.count(False) < len(outcomes) - 50


def test_c10_fails_where_r4_vanishes(monkeypatch):
    real = SeriesCatalog.power

    def r4_zero_at_7(self, name, e):
        table = real(self, name, e)
        if (name, e) != ("theta3", 4):
            return table
        return table - QSeries.from_terms({7: table[7]}, table.order)

    monkeypatch.setattr(SeriesCatalog, "power", r4_zero_at_7)
    report = checks.run_check("C10", workspace(nmax=12))
    assert report.first_discrepancy == (7, arith.r_oracle(24, 7), 0)
    assert report.notes == ()


def test_tau_props_reads_sigma11_from_the_catalog(monkeypatch):
    _corrupt_divisor_sums(monkeypatch, "sigma", 11, 7)
    report = checks.run_check("TAU-PROPS", workspace())
    assert report.first_discrepancy == (7, _TAU[7], arith.sigma(11, 7) + 1)
    assert report.notes == ("691 congruence fails",)


# r_s(n) for n >= 1 from the divisors of n, for s = 2, 4, 6, 8: the classical
# per-n formulas, the oracle for JACOBI's sieve
_SQUARE_COUNTS = {
    2: lambda n, divs: 4 * (sum(1 for d in divs if d % 4 == 1)
                            - sum(1 for d in divs if d % 4 == 3)),
    4: lambda n, divs: 8 * sum(d for d in divs if d % 4 != 0),
    6: lambda n, divs: 4 * sum((-1) ** ((d - 1) // 2) * ((2 * n // d) ** 2 - d * d)
                               for d in divs if d % 2),
    8: lambda n, divs: 16 * (-1) ** n * sum(d**3 if d % 2 == 0 else -(d**3)
                                            for d in divs),
}


def test_jacobi_sieve_matches_the_divisor_formulas(monkeypatch):
    # the sieve over multiples gives each per-n formula on arith.divisors,
    # and JACOBI makes no trial division of its own
    counts = checks._square_counts(1000)
    assert sorted(counts) == [2, 4, 6, 8]
    divs = {n: arith.divisors(n) for n in range(1, 1001)}
    for s, formula in _SQUARE_COUNTS.items():
        assert counts[s] == [1] + [formula(n, divs[n]) for n in range(1, 1001)]
    assert checks._square_counts(0) == {2: [1], 4: [1], 6: [1], 8: [1]}
    assert checks._square_counts(1) == {2: [1, 4], 4: [1, 8], 6: [1, 12], 8: [1, 16]}
    monkeypatch.setattr(arith, "divisors", None)
    assert checks.run_check("JACOBI", workspace(nmax=30)).status == "pass"


def test_failing_line_format(monkeypatch):
    _corrupt_sigma_star(monkeypatch)
    report = checks.run_check("T5", workspace(nmax=12))
    line = report.line()
    assert line.startswith("FAIL  T5")
    assert "n=5" in line


@pytest.mark.parametrize("s", [1, 3, 5, 7, 11, 13])
def test_sigma_series_keep_the_n0_conventions(s):
    cat = SeriesCatalog(40)
    assert cat.sigma(s).coeffs == tuple(arith.sigma(s, n) for n in range(41))
    assert cat.sigma_star(s).coeffs == tuple(
        arith.sigma_star(s, n) for n in range(41)
    )


# ---------------------------------------------------------------------------
# double-sum oracles: the index loops the convolution checks once ran, kept to
# test the series equations that replaced them


class RandomInputs:
    """A stand-in catalog whose divisor sums, tau, theta powers and D are
    arbitrary rationals, so that each series equation is compared with its
    loop as a function of its inputs, not only at the true values."""

    def __init__(self, order: int = 40, seed: int = 0):
        rng = random.Random(seed)
        self.order = order
        self.values = defaultdict(lambda: [
            Fraction(rng.randint(-99, 99), rng.randint(1, 9)) for _ in range(order + 1)
        ])
        self.values["D"][0] = Fraction(0)  # D = sum delta_8(n-1) q^n

    def _series(self, key) -> QSeries:
        return QSeries(self.values[key])

    def sigma(self, s):
        return self._series(("sigma", s))

    def sigma_star(self, s):
        return self._series(("sigma*", s))

    def delta(self):
        return self._series("tau")

    def power(self, name, e):
        assert name == "theta3"
        return self._series(("r", e))

    def D(self):
        return self._series("D")

    def product(self, *names):
        # the named sigma* series multiplied
        indices = (int(name.removeprefix("sigma").removesuffix("star")) for name in names)
        return reduce(operator.mul, (self.sigma_star(s) for s in indices))

    def combine(self, *terms):
        return linear_combination(*terms)


def _run_on(check_id: str, cat) -> checks.CheckReport:
    """``run_check`` on a workspace whose catalog at the check's range is cat."""
    ws = SimpleNamespace(order=cat.order, nmax=cat.order, mmax=0,
                         catalog_at={cat.order: cat}.__getitem__)
    return checks.run_check(check_id, ws)


def _sigma3_classical_oracle(v, N):
    s1 = v["sigma", 1]
    return ("sigma", 3), [
        Fraction(6, 5) * (n * s1[n] + 2 * sum(s1[j] * s1[n - j] for j in range(n + 1)))
        for n in range(N + 1)
    ]


def _t7_oracle(v, N):
    s1, s11 = v["sigma", 1], v["sigma", 11]
    return ("sigma", 13), [
        Fraction(2730, 691)
        * (24 * sum(s1[j] * s11[n - j] for j in range(n + 1)) + n * s11[n])
        for n in range(N + 1)
    ]


def _t5_oracle(v, N):
    s1 = v["sigma*", 1]
    return ("sigma*", 3), [
        2 * n * s1[n] - 4 * sum(s1[j] * s1[n - j] for j in range(n + 1))
        for n in range(N + 1)
    ]


def _t8_oracle(v, N):
    s3, s5 = v["sigma", 3], v["sigma", 5]
    return "tau", [
        70 * sum((2 * (n - j) - 3 * j) * s3[j] * s5[n - j] for j in range(n + 1))
        for n in range(N + 1)
    ]


def _t314_oracle(v, N):
    s3, s5 = v["sigma*", 3], v["sigma*", 5]
    return "tau", [
        2 * sum((3 * j - 2 * (n - j)) * s3[j] * s5[n - j] for j in range(n + 1))
        for n in range(N + 1)
    ]


def _t9_oracle(v, N):
    s3, s7, d8 = v["sigma*", 3], v["sigma*", 7], v["D"][1:]
    return ("r", 16), [
        (-1) ** n
        * Fraction(32, 17)
        * (256 * sum(s3[j] * d8[n - j - 1] for j in range(n)) - s7[n])
        for n in range(N + 1)
    ]


def _conv_oracle(v, N):
    s3, s5, s7 = v["sigma*", 3], v["sigma*", 5], v["sigma*", 7]
    conv55 = [sum(s5[j] * s5[n - j] for j in range(n + 1)) for n in range(N + 1)]
    conv37 = [sum(s3[j] * s7[n - j] for j in range(n + 1)) for n in range(N + 1)]
    return conv55, conv37


def _t10_oracle(v, N):
    # tau is chosen so that both 24-square forms agree; then r_24 equals
    # both right-hand sides exactly when both convolutions match the loops
    conv55, conv37 = _conv_oracle(v, N)
    a, b = Fraction(64), Fraction(512, 17)
    v["tau"] = [(b * c37 - a * c55) / (b - a) for c55, c37 in zip(conv55, conv37)]
    return ("r", 24), [
        (-1) ** n * a * (conv55[n] - v["tau"][n]) for n in range(N + 1)
    ]


def _r24_fact_oracle(v, N):
    s11, tau = v["sigma", 11], v["tau"]

    def rhs(n):
        total = 16 * s11[n]
        if n % 2 == 0:
            total += -32 * s11[n // 2] - 65536 * tau[n // 2]
        if n % 4 == 0:
            total += 65536 * s11[n // 4]
        sign = 1 if (n - 1) % 2 == 0 else -1
        total += 33152 * sign * tau[n]
        return total / 691

    return ("r", 24), [rhs(n) for n in range(N + 1)]


ORACLES = {
    "SIGMA3-CLASSICAL": _sigma3_classical_oracle,
    "T7": _t7_oracle,
    "T5": _t5_oracle,
    "T8": _t8_oracle,
    "T314": _t314_oracle,
    "T9": _t9_oracle,
    "T10": _t10_oracle,
    "R24-FACT": _r24_fact_oracle,
}


@pytest.mark.parametrize("check_id", sorted(ORACLES))
def test_series_rhs_matches_double_sum_oracle(check_id):
    cat = RandomInputs()
    lhs_key, rhs = ORACLES[check_id](cat.values, cat.order)
    cat.values[lhs_key] = list(rhs)
    # the check passes only if its series side equals the loop on 0..nmax
    assert _run_on(check_id, cat).status == "pass"
    cat.values[lhs_key][17] += 1
    report = _run_on(check_id, cat)
    assert report.first_discrepancy == (17, rhs[17] + 1, rhs[17])


@pytest.mark.parametrize("upto", [4, 40])
def test_convolution_products_match_double_sum_oracle(upto):
    # the conv55/conv37 rows of C10 and TABLE2
    cat = RandomInputs(order=upto)
    conv55, conv37 = checks._conv55_conv37(cat)
    assert (list(conv55.coeffs), list(conv37.coeffs)) == _conv_oracle(cat.values, upto)


def test_t10_reports_the_lower_index_and_the_sigma5_form_on_a_tie():
    cat = RandomInputs()
    _, r24 = _t10_oracle(cat.values, cat.order)
    cat.values["r", 24] = r24
    cat.values["tau"][17] += 1  # both forms now fail at 17, by 64 and 512/17
    report = _run_on("T10", cat)
    assert report.first_discrepancy == (17, r24[17], r24[17] + 64)
    cat.values["sigma*", 3][10] += 1  # only the sigma*_3 sigma*_7 form, from 10
    assert _run_on("T10", cat).first_discrepancy[0] == 10


# ---------------------------------------------------------------------------
# every equation between two series goes through _compare


_ONE = QSeries.one(8)
_LATE = _ONE + QSeries.from_terms({6: 1}, 8)
_EARLY = _ONE + QSeries.from_terms({2: 1}, 8)


def test_compare_reports_the_first_failing_equation_and_its_note():
    notes = []
    # an earlier equation failing at a higher exponent still wins
    equations = [(_ONE, _ONE, "a"), (_ONE, _LATE, "b"), (_ONE, _EARLY, "c")]
    assert checks._compare(equations, notes) == (6, 0, 1)
    assert notes == ["b"]
    # an equation without a note adds none; a pass adds none
    assert checks._compare([(_ONE, _EARLY), (_ONE, _LATE, "b")], notes) == (2, 0, 1)
    assert checks._compare([(_ONE, _ONE, "a"), (_LATE, _LATE)], notes) is None
    assert checks._compare([], notes) is None
    assert notes == ["b"]


def test_compare_earliest_takes_the_lowest_exponent_the_earlier_on_a_tie():
    notes = []
    equations = [(_ONE, _LATE, "late"), (_ONE, _EARLY, "early")]
    assert checks._compare(equations, notes, earliest=True) == (2, 0, 1)
    assert notes == ["early"]
    # a tie at q^6: the first equation's values and note, not the second's
    notes.clear()
    equations = [(_ONE, _LATE, "first"), (_LATE, _ONE, "second")]
    assert checks._compare(equations, notes, earliest=True) == (6, 0, 1)
    assert notes == ["first"]
    assert checks._compare([(_ONE, _ONE, "a")], notes, earliest=True) is None
    assert notes == ["first"]


@pytest.mark.parametrize("earliest, read", [(False, 2), (True, 3)])
def test_compare_reads_a_generator_only_to_the_first_failure(earliest, read):
    built = []

    def equations():
        for rhs in (_ONE, _LATE, _EARLY):
            built.append(rhs)
            yield _ONE, rhs

    checks._compare(equations(), [], earliest)
    assert len(built) == read


_SCANS = {"C1", "C2", "P4", "T49", "C10", "TAU-PROPS", "TABLE2"}


_EQUATION_IDS = [i for i in checks.registry_ids() if checks.REGISTRY[i].equations]

_SETTINGS = pytest.mark.parametrize(
    "settings",
    [sizes(), sizes(order=12, nmax=30, mmax=6), sizes(order=1, nmax=0, mmax=1),
     sizes(order=0, nmax=0, mmax=0)],
    ids=["defaults", "12-30-6", "1-0-1", "0-0-0"],
)


@_SETTINGS
def test_equation_builders_return_their_equations_without_comparing(monkeypatch, settings):
    # each equation check is data: its builder, on the catalog at its range,
    # compares nothing and returns its equations
    assert len(_EQUATION_IDS) == 43
    assert set(checks.registry_ids()) - set(_EQUATION_IDS) == _SCANS

    def refuse(*args):
        raise AssertionError("first_difference called")

    monkeypatch.setattr(checks, "first_difference", refuse)
    ws = checks.Workspace(**settings)
    for i in _EQUATION_IDS:
        check = checks.REGISTRY[i]
        equations = list(check.equations(ws.catalog_at(checks._ranges(ws)[check.scope])))
        assert equations, i
        assert all(len(note) <= 1 for _, _, *note in equations), i


@_SETTINGS
def test_an_equation_check_compares_exactly_its_printed_order(monkeypatch, settings):
    # every equation the runner compares has the order run_check prints as
    # its smallest common order
    compared = []
    real = checks.first_difference
    monkeypatch.setattr(checks, "first_difference",
                        lambda a, b: compared.append(min(a.order, b.order)) or real(a, b))
    ws = checks.Workspace(**settings)
    for i in _EQUATION_IDS:
        compared.clear()
        report = checks.run_check(i, ws)
        assert report.status == "pass", i
        assert compared and set(compared) == {report.order}, i


def test_equation_checks_compare_inside_their_runner(monkeypatch):
    # the stored runner is what a tracer wraps, so the comparison must run
    # within its call, not after it returns
    calls = []
    real = checks.first_difference
    monkeypatch.setattr(checks, "first_difference",
                        lambda a, b: calls.append(1) or real(a, b))
    runner = checks.REGISTRY["HAHN-SYS"].runner
    assert runner(workspace(order=8), []) is None
    assert len(calls) == 3


def test_p4_and_jacobi_build_no_equation_past_the_first_failure(monkeypatch):
    evaluated = []
    real = checks.gp_evaluate
    monkeypatch.setattr(checks, "gp_evaluate",
                        lambda f, cat: evaluated.append(1) or real(f, cat))
    assert checks.run_check("P4", workspace(order=12)).status == "pass"
    assert len(evaluated) == 3
    evaluated.clear()
    _corrupt_sigma_star(monkeypatch, s=1, n=1)
    report = checks.run_check("P4", workspace(order=12))
    assert report.notes == ("series-level rule for A broken",)
    assert len(evaluated) == 1
    # JACOBI: a bad 4-square table stops it before the 6- and 8-square ones
    _bump_r_table(monkeypatch, 4, 3)
    ws = workspace(nmax=12)
    assert checks.run_check("JACOBI", ws).notes == ("4-square formula",)
    assert sorted(key for key in memo_keys(ws.rcat) if key.startswith("theta3^")) == [
        "theta3^2", "theta3^4"]


def _bump_theta(monkeypatch, i, exps):
    """Raise the coefficient of the monomial exps in theta's image of
    generator i by 1/4."""
    theta = list(graded._THETA)
    theta[i] = theta[i] + graded.GradedPoly.monomial(exps, Fraction(1, 4))
    monkeypatch.setattr(graded, "_THETA", tuple(theta))


def test_p4_names_the_differing_monomial(monkeypatch):
    # theta A's A^2 coefficient raised by 1/4 takes serre_delta's from -1/4 to 0
    _bump_theta(monkeypatch, 0, (2, 0, 0))
    report = checks.run_check("P4", workspace(order=12))
    # n counts monomials in the sorted union, B before A^2, not powers of q
    assert report.first_discrepancy == (1, 0, Fraction(-1, 4))
    assert report.notes == ("polynomial rule for A broken at A^2: 0 != -1/4",)


@pytest.mark.parametrize(
    "row, n, expected, flagged",
    [("sigma5*", 3, (3, 244, 245), 0), ("tau", 2, (2, -24, -23), 2)],
    ids=["sigma5*", "tau"],
)
def test_table2_fails_on_a_printed_row_after_the_rows_before_it(
        monkeypatch, row, n, expected, flagged):
    # a printed cell one off in a sigma* or the tau row fails the check; the
    # convolution rows, between them, are flagged first when tau is the row
    printed = checks._TABLE2_PRINTED[row]
    monkeypatch.setitem(checks._TABLE2_PRINTED, row,
                        printed + QSeries.from_terms({n: 1}, printed.order))
    report = checks.run_check("TABLE2", workspace())
    assert report.first_discrepancy == expected
    assert len(report.notes) == flagged
    assert all(note.startswith("flagged cell (conv") for note in report.notes)


def test_table2_24_square_route_reports_the_lowest_n(monkeypatch):
    r24 = {n: arith.r_oracle(24, n) for n in range(5)}
    # tau(3) + 1 breaks both forms at n = 3: the sigma*_5^2 form is reported
    _bump_tau(monkeypatch, 3, 1)
    report = checks.run_check("TABLE2", workspace())
    assert report.first_discrepancy == (3, r24[3] + 64, r24[3])
    assert report.notes == ()
    # sigma*_7(2) + 1 moves conv37 from n = 2 by sigma*_3(0) = -1/16, so
    # only the sigma*_3 sigma*_7 form fails there, below the tie at 3
    _corrupt_sigma_star(monkeypatch, s=7, n=2)
    report = checks.run_check("TABLE2", workspace())
    assert report.first_discrepancy == (2, r24[2] - Fraction(32, 17), r24[2])


def _bump_r_table(monkeypatch, s, n):
    real = SeriesCatalog.power

    def bumped(self, name, e):
        table = real(self, name, e)
        if (name, e) != ("theta3", s):
            return table
        return table + QSeries.from_terms({n: 1}, table.order)

    monkeypatch.setattr(SeriesCatalog, "power", bumped)


@pytest.mark.parametrize("n", [0, 5])
@pytest.mark.parametrize("s", [2, 4, 6, 8])
def test_jacobi_names_the_failing_formula(monkeypatch, s, n):
    _bump_r_table(monkeypatch, s, n)
    report = checks.run_check("JACOBI", workspace(nmax=12))
    assert report.status == "fail"
    r = arith.r_oracle(s, n)
    assert report.first_discrepancy == (n, r + 1, r)
    assert report.notes == (f"{s}-square formula",)


def test_delta8_fails_at_the_first_oracle_mismatch(monkeypatch):
    real = arith.delta8_oracle
    monkeypatch.setattr(arith, "delta8_oracle", lambda n: real(n) + (n == 3))
    # D's q^(n+1) coefficient counts the representations of n, so the fault
    # shows at q^4, on DELTA8's own range whatever the order
    report = checks.run_check("DELTA8", workspace(order=12, nmax=12))
    assert report.first_discrepancy == (4, 64, 65)
    assert report.order == 51
    # the enumeration is DELTA8's alone: the checks that read D pass
    for check_id in ("L5", "DET-L2", "T9"):
        assert checks.run_check(check_id, workspace(order=12, nmax=12)).status == "pass"


def test_a_fault_in_sigma3_fails_only_the_checks_that_read_it():
    # sigma_3(7) + 1: the level-1 route of DIS, L4 through E4, and C1 and T8
    # through the tabulated sigma_3 fail; the checks that read the discriminant
    # but not sigma_3 pass, since the discriminant is the eta product alone
    with dict(fault_grid.cases((7,), ()))["sigma(3)[7]+1"]:
        reports = {r.id: r for r in checks.run_all(**fault_grid.SETTINGS,
                                                   ids=checks.registry_ids())}
    assert {"DIS", "L4", "C1", "T8"} <= {i for i, r in reports.items() if r.status == "fail"}
    for check_id in ("C2", "C10", "T10", "T314", "R24-FACT", "TAU-PROPS"):
        assert reports[check_id].status == "pass", check_id
    assert reports["DIS"].first_discrepancy == (7, -16744, Fraction(-200923, 12))
    assert reports["DIS"].notes == ("eta product against the level-1 route (E4^3-E6^2)/1728",)


def test_no_check_reads_the_fraction_view(monkeypatch):
    # every series equation compares integer numerators at the defaults, and
    # TABLE2 compares its printed rows as series, building Fractions only for
    # the cells it flags
    def refuse(self):
        raise AssertionError("QSeries.coeffs read")

    monkeypatch.setattr(QSeries, "coeffs", property(refuse))
    reports = checks.run_all(**sizes(), ids=checks.registry_ids())
    assert len(reports) == 50
    assert [r.id for r in reports if r.status != "pass"] == []
    table2 = next(r for r in reports if r.id == "TABLE2")
    assert "flagged cell (conv37, n=0): printed 12/517" in table2.notes[0]


def test_level2_code_reads_no_fraction_view(monkeypatch):
    # the polynomial compare of P4, positivity, the tower and decompositions
    # read integer numerators; Fractions are built only at the edges
    def refuse(name):
        def read(self):
            raise AssertionError(f"{name} read")
        return property(read)

    monkeypatch.setattr(QSeries, "coeffs", refuse("QSeries.coeffs"))
    monkeypatch.setattr(graded.GradedPoly, "terms", refuse("GradedPoly.terms"))
    reports = checks.run_all(order=16, nmax=30, mmax=6, ids=checks.registry_ids())
    assert len(reports) == 50
    assert [r.id for r in reports if r.status != "pass"] == []
    assert graded.check_positivity(20, SeriesCatalog(graded.e_star_order(20)))
    for w in (4, 8, 12, 24):
        cat = SeriesCatalog(64)
        dec = graded.decompose_modular(cat.level2(w // 2), w, cat)
        assert dec == graded.e_star_poly(w // 2, cat)


def test_t49_names_the_least_monomial_outside_the_cone(monkeypatch):
    # E8* = (8/17) B C^2 + (9/17) B^2; negated both as a polynomial and as a
    # series, so that its equation holds, its least monomial B C^2 is the one
    # reported
    real = graded._solve_level
    monkeypatch.setattr(graded, "_solve_level", lambda mm, *rest: (
        -real(mm, *rest) if mm == 4 else real(mm, *rest)))
    real_table = arith.divisor_sum_table
    monkeypatch.setattr(arith, "divisor_sum_table", lambda kind, s, N: (
        [-x for x in real_table(kind, s, N)] if (kind, s) == ("sigma_star", 7)
        else real_table(kind, s, N)))
    report = checks.run_check("T49", workspace(mmax=4))
    assert report.first_discrepancy == (4, Fraction(-8, 17), 0)


def test_t49_judges_positivity_from_m_2(monkeypatch):
    # level 2 negated, and with it level 3, whose series is negated too so
    # that its equation holds: only a positivity scan from m = 2 sees -B
    real = graded._solve_level
    monkeypatch.setattr(graded, "_solve_level", lambda mm, *rest: (
        -real(mm, *rest) if mm == 2 else real(mm, *rest)))
    real_table = arith.divisor_sum_table
    monkeypatch.setattr(arith, "divisor_sum_table", lambda kind, s, N: (
        [-x for x in real_table(kind, s, N)] if (kind, s) == ("sigma_star", 5)
        else real_table(kind, s, N)))
    report = checks.run_check("T49", workspace(mmax=3))
    assert report.first_discrepancy == (2, -1, 0)
    assert report.notes == ()


def test_t49_fails_at_the_level_of_a_bad_binomial_weight(monkeypatch):
    # C(8, 2) = 28 weighs h_2 h_4 in h_6 alone; raised by 1, the levels
    # below pass and E*_12's equation fails at q^0
    real = graded.comb
    monkeypatch.setattr(graded, "comb", lambda n, k: real(n, k) + ((n, k) == (8, 2)))
    assert checks.run_check("T49", workspace(mmax=5)).status == "pass"
    for mmax in (6, 8):
        report = checks.run_check("T49", workspace(mmax=mmax))
        assert report.first_discrepancy == (0, Fraction(2815, 2764), 1)
        assert report.notes == ("E12star polynomial: differential recursion against the "
                                "q-expansion",)


def _mutate_solve_level(monkeypatch, old, new):
    """Replace ``graded._solve_level`` by its own source with the one
    occurrence of old written as new."""
    source = textwrap.dedent(inspect.getsource(graded._solve_level))
    assert source.count(old) == 1
    namespace = {}
    exec(compile(source.replace(old, new), graded.__file__, "exec"), vars(graded), namespace)
    monkeypatch.setattr(graded, "_solve_level", namespace["_solve_level"])


@pytest.mark.parametrize(
    "old, new, first, expected",
    [("(-2, _C,", "(-1, _C,", 3, (0, Fraction(1, 2), 1)),
     ("-12 *", "-11 *", 4, (0, Fraction(65, 68), 1))],
    ids=["C-weight", "pair-weight"],
)
def test_t49_fails_at_the_first_level_a_recursion_constant_reaches(
        monkeypatch, old, new, first, expected):
    # the -2 on C h_{m-1} is first read by h_3, E*_6; the -12 on the pairs
    # by h_4 = -2 C h_3 - 12 h_2^2, E*_8
    _mutate_solve_level(monkeypatch, old, new)
    for mmax in range(3, first):
        assert checks.run_check("T49", workspace(mmax=mmax)).status == "pass"
    for mmax in (first, first + 2):
        report = checks.run_check("T49", workspace(mmax=mmax))
        assert report.first_discrepancy == expected
        assert report.notes == (f"E{2 * first}star polynomial: differential recursion "
                                "against the q-expansion",)


def test_t49_reports_a_monomial_outside_the_basis(monkeypatch):
    # -(1/4) A B C put into E6* through its level h_3 = S*_5(0) E6*; A has
    # constant term 1, so E6*'s equation fails at q^0
    real = graded._solve_level
    bump = graded.GradedPoly.monomial(
        (1, 1, 1), Fraction(-1, 4) * arith.divisor_sum_zero("sigma_star", 5))
    monkeypatch.setattr(graded, "_solve_level", lambda mm, *rest: (
        real(mm, *rest) + bump if mm == 3 else real(mm, *rest)))
    report = checks.run_check("T49", workspace(mmax=6))
    assert report.first_discrepancy == (0, Fraction(3, 4), 1)
    assert report.notes == ("E6star polynomial: differential recursion against the q-expansion",)
    # an A-term in theta's image of B, and P4 names it
    monkeypatch.undo()
    _bump_theta(monkeypatch, 1, (1, 1, 1))
    assert checks.run_check("P4", workspace()).notes == (
        "polynomial rule for B broken at A*B*C: 1/4 != 0",)


# the six monomials of theta's generator images, HAHN-SYS
_THETA_MONOMIALS = [(0, (2, 0, 0)), (0, (0, 1, 0)), (1, (1, 1, 0)), (1, (0, 1, 1)),
                    (2, (1, 0, 1)), (2, (0, 1, 0))]


@pytest.mark.parametrize("i, exps", _THETA_MONOMIALS,
                         ids=[f"theta{'ABC'[i]}-{graded.GradedPoly().monomial_name(e)}"
                              for i, e in _THETA_MONOMIALS])
def test_every_theta_coefficient_is_load_bearing(monkeypatch, i, exps):
    assert {(j, e) for j, p in enumerate(graded._THETA) for e in p.terms} == set(
        _THETA_MONOMIALS)
    _bump_theta(monkeypatch, i, exps)
    name = "ABC"[i]
    report = checks.run_check("P4", workspace())
    assert report.status == "fail"
    assert report.notes[0].startswith(f"polynomial rule for {name} broken at ")


# The determinant checks' matrices written out entry by entry, the oracle for
# their (rows, cols) pairs: entry k stands for E_2k on the level-1 array and
# for E*_2k on the level-2 one.
_HANKEL_MATRICES = {
    "MINORS-L1": (1, [
        ([[0, 1], [1, 2]], (0, 1), (0, 1)),
        ([[0, 1], [2, 3]], (0, 2), (0, 1)),
        ([[1, 2], [2, 3]], (1, 2), (0, 1)),
        ([[1, 3], [2, 4]], (1, 2), (0, 2)),
    ]),
    "GARVAN": (1, [([[2, 3, 4], [3, 4, 5], [4, 5, 6]], (2, 3, 4), (0, 1, 2))]),
    "L5": (2, [([[0, 2], [2, 4]], (0, 2), (0, 2))]),
    "DET-L2": (2, [
        ([[2, 3], [3, 4]], (2, 3), (0, 1)),
        ([[2, 4], [3, 5]], (2, 3), (0, 2)),
        ([[3, 4], [4, 5]], (3, 4), (0, 1)),
        ([[2, 3, 4], [3, 4, 5], [4, 5, 6]], (2, 3, 4), (0, 1, 2)),
    ]),
}


def _literal_det(series, matrix):
    return qs_det([[series(k) for k in row] for row in matrix])


@pytest.mark.parametrize("check_id", sorted(_HANKEL_MATRICES))
def test_hankel_minors_equal_the_literal_matrices(check_id):
    cat = SeriesCatalog(16)
    level, matrices = _HANKEL_MATRICES[check_id]
    # the pair names the literal matrix on both Hankel arrays
    for matrix, rows, cols in matrices:
        for on, series in ((1, cat.level1), (2, cat.level2)):
            assert checks._minor(cat, on, rows, cols) == _literal_det(series, matrix)
    # and the check's left sides are those matrices' determinants, in order
    series = cat.level1 if level == 1 else cat.level2
    lhs = [eq[0] for eq in checks.REGISTRY[check_id].equations(cat)]
    assert lhs == [_literal_det(series, matrix) for matrix, _, _ in matrices]


def test_a_2x2_minor_of_memoized_pairs_makes_no_product(monkeypatch):
    cat = SeriesCatalog(16)
    # |E4* E6*; E6* E8*| is E4* E8* - E6*^2
    cat.product("E4star", "E8star"), cat.product("E6star", "E6star")
    products = _count_series_products(monkeypatch)
    minor = checks._minor(cat, 2, (2, 3), (0, 1))
    assert products == []
    assert minor == _literal_det(cat.level2, [[2, 3], [3, 4]])


@pytest.mark.parametrize("level", [1, 2])
def test_a_3x3_minor_makes_three_products_once_its_pairs_exist(monkeypatch, level):
    cat = SeriesCatalog(16)
    checks._minor(cat, level, (2, 3, 4), (0, 1, 2))  # cold: six pairs, three more
    products = _count_series_products(monkeypatch)
    minor = checks._minor(cat, level, (2, 3, 4), (0, 1, 2))
    # one per entry of the first row, times its unnamed 2x2 cofactor
    assert len(products) == 3
    series = cat.level1 if level == 1 else cat.level2
    assert minor == _literal_det(series, [[2, 3, 4], [3, 4, 5], [4, 5, 6]])


def test_the_index_0_entry_never_enters_the_memo():
    ws = workspace(order=16)
    for check_id in _HANKEL_MATRICES:
        assert checks.run_check(check_id, ws).status == "pass"
    cat = ws.catalog
    for level in (1, 2):
        checks._minor(cat, level, (0, 1), (0, 1))
        checks._minor(cat, level, (0, 2), (0, 2))
    names = {factor.split("^")[0] for key in memo_keys(cat) for factor in key.split("*")}
    assert {"E2", "E4", "E2star", "E4star"} <= names
    assert not names & {"E0", "E0star"}

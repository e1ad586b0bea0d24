import random
from collections import defaultdict
from fractions import Fraction

import pytest

from eisen2 import arith, checks, cli, graded
from eisen2.catalog import CrossCheckMismatch, SeriesCatalog
from eisen2.qseries import QSeries


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
        "T10", "C10", "DET-L2", "TAU-PROPS", "TABLE2",
    ):
        assert fixed in ids


def test_unknown_id():
    with pytest.raises(checks.UnknownTheoremId):
        checks.run_check("NOPE")
    with pytest.raises(checks.UnknownTheoremId):
        checks.resolve_ids("NOPE")


def test_resolve_families_and_aliases():
    assert checks.resolve_ids("KS-DE") == [f"KS-DE({m})" for m in range(2, 13)]
    assert checks.resolve_ids("T5") == ["T5"]
    assert checks.resolve_ids("DELTA-L2") == ["DIS"]
    assert checks.resolve_ids("all") == checks.registry_ids()


def test_single_check_report():
    report = checks.run_check("RAM-DE", order=16)
    assert report.status == "pass"
    assert report.first_discrepancy is None
    assert report.order == 16
    payload = report.to_json_dict()
    assert set(payload) == {"id", "order", "status", "first_discrepancy", "elapsed_ms"}


def test_all_pass_at_reduced_order():
    # identities hold at every truncation, so a small order still passes
    reports = checks.run_all(order=8, nmax=24, mmax=4)
    assert all(r.status == "pass" for r in reports)


def test_reports_deterministic():
    a = checks.run_all(order=12, nmax=16, mmax=3)
    b = checks.run_all(order=12, nmax=16, mmax=3)
    assert [r.line() for r in a] == [r.line() for r in b]


def test_table2_flags_differing_printed_cells():
    report = checks.run_check("TABLE2")
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
    + [pytest.param("KS-DE(3)", 3, 0, None, id="KS-DE(3)-at-0")],
)
def test_injected_corruption_localizes(monkeypatch, check_id, s, n, expected):
    # an off-by-one in sigma*_s(n) must fail exactly these checks, with the
    # first discrepancy at the earliest affected index
    _corrupt_sigma_star(monkeypatch, s=s, n=n)
    report = checks.run_check(check_id, order=12, nmax=12)
    assert report.status == "fail"
    assert report.first_discrepancy[0] == n
    if expected is not None:
        assert report.first_discrepancy == expected


def test_injected_corruption_leaves_untouched_checks_green(monkeypatch):
    _corrupt_sigma_star(monkeypatch)
    # purely level-1 checks never consult the signed divisor sums
    assert checks.run_check("RAM-DE", order=12).status == "pass"
    assert checks.run_check("SIGMA3-CLASSICAL", nmax=12).status == "pass"


@pytest.mark.parametrize(
    "name, check_id", [("rs_coefficient", "RS-DE(4)"), ("ks_coefficient", "KS-DE(4)")]
)
def test_de_runners_read_the_coefficients_when_they_run(monkeypatch, name, check_id):
    # the layer tracer rebinds these module attributes after import
    real = getattr(checks, name)
    monkeypatch.setattr(checks, name, lambda m, k: real(m, k) + 1)
    assert checks.run_check(check_id, order=12).status == "fail"


def test_t49_reports_a_bad_level2_series_at_its_exponent(monkeypatch):
    _corrupt_sigma_star(monkeypatch, s=7, n=9)
    report = checks.run_check("T49", order=12, nmax=30, mmax=6)
    assert report.status == "fail"
    n, lhs, rhs = report.first_discrepancy
    assert n == 9 and rhs - lhs == 1 / arith.sigma_star(7, 0)
    assert any("E8star polynomial" in note for note in report.notes)


def test_t49_compares_every_level_at_the_top_order(monkeypatch):
    # E8* is level 4; at mmax 6 the tower is compared to q^14 at every level,
    # not only to the q^12 that level 4 would need on its own
    _corrupt_sigma_star(monkeypatch, s=7, n=13)
    report = checks.run_check("T49", order=12, nmax=30, mmax=6)
    assert report.status == "fail"
    n, lhs, rhs = report.first_discrepancy
    assert n == 13 and rhs - lhs == 1 / arith.sigma_star(7, 0)
    assert any("E8star polynomial" in note for note in report.notes)


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_t49_range_does_not_depend_on_earlier_calls(monkeypatch, warm):
    # a level built before, on its own order-12 catalog, is not the level T49
    # judges: T49 compares E8* to q^14 on its own catalog either way
    if warm:
        graded.e_star_poly(4)
    _corrupt_sigma_star(monkeypatch, s=7, n=13)
    report = checks.run_check("T49", order=12, nmax=30, mmax=6)
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
    report = checks.run_check("T49", mmax=40)
    assert report.status == "fail"
    assert report.first_discrepancy == (n, lhs, rhs)
    assert report.notes == (
        f"E8star polynomial: routes 'differential recursion' and 'q-expansion' "
        f"disagree at q^{n}: {lhs} != {rhs}",
    )


def test_t49_at_mmax_40_makes_at_most_130_products(monkeypatch):
    # every level shares the top weight's monomials: 113 products, against
    # 437 when each level multiplied out its own monomials
    real = QSeries.__mul__
    products = []

    def counted(self, other):
        if isinstance(other, QSeries):
            products.append(1)
        return real(self, other)

    monkeypatch.setattr(QSeries, "__mul__", counted)
    assert checks.run_check("T49", mmax=40).status == "pass"
    assert len(products) <= 130


def _de_id(level, m):
    return f"{'RS' if level == 1 else 'KS'}-DE({m})"


@pytest.mark.parametrize("level, m", [(1, 5), (2, 2), (2, 3), (2, 4), (2, 5)])
def test_displayed_forms_are_a_second_equation_equal_to_the_derivative(level, m):
    # each displayed form is a second right-hand side for q E'_{2m-2}
    ws = checks.Workspace(order=24)
    equations = list(checks.REGISTRY[_de_id(level, m)].equations(ws))
    series = ws.catalog.level1 if level == 1 else ws.catalog.level2
    assert len(equations) == 2
    assert equations[1][0] == equations[1][1] == series(m - 1).theta()


def test_only_the_displayed_forms_add_an_equation():
    ws = checks.Workspace(order=12)
    counts = {(level, m): len(list(checks.REGISTRY[_de_id(level, m)].equations(ws)))
              for level in (1, 2) for m in range(2, 13)}
    assert {key for key, n in counts.items() if n == 2} == set(checks._DISPLAYED_FORMS)
    assert set(counts.values()) == {1, 2}
    # the KS-DE descriptions name exactly the level-2 displayed forms
    assert {m for level, m in checks._DISPLAYED_FORMS if level == 2} == set(checks._KS_SPECIALS)


@pytest.mark.parametrize("level, m", [(1, 5), (2, 2), (2, 3), (2, 4), (2, 5)])
def test_de_checks_compare_the_displayed_form(monkeypatch, level, m):
    zeroed = {ks: Fraction(0) for ks in checks._DISPLAYED_FORMS[level, m]}
    monkeypatch.setitem(checks._DISPLAYED_FORMS, (level, m), zeroed)
    report = checks.run_check(_de_id(level, m), order=12)
    assert report.status == "fail"
    # the convolution equation still holds: the form's equation fails, at
    # the first nonzero coefficient of q E'_{2m-2}
    assert report.first_discrepancy[0] == 1 and report.first_discrepancy[2] == 0


def test_no_check_or_constructor_divides(monkeypatch, capsys):
    def refuse(self):
        raise AssertionError("QSeries.invert called")

    monkeypatch.setattr(QSeries, "invert", refuse)
    reports = checks.run_all(order=16, nmax=30, mmax=6)
    assert [r.id for r in reports if r.status != "pass"] == []
    for name in ("C", "D", "delta8"):
        assert cli.main(["export", name]) == 0


def test_every_power_goes_through_the_catalog(monkeypatch, capsys):
    def refuse(self, e):
        raise AssertionError("QSeries.__pow__ called")

    monkeypatch.setattr(QSeries, "__pow__", refuse)
    reports = checks.run_all(order=16, nmax=30, mmax=6)
    assert [r.id for r in reports if r.status != "pass"] == []
    for name in ("r4", "r24", "tau", "delta", "E12star"):
        assert cli.main(["export", name]) == 0


# tau(n) for the indices below
_TAU = {2: -24, 3: 252, 6: -6048, 7: -16744}


def _bump_tau(monkeypatch, n, by):
    real = checks.Workspace.tau_range

    def bumped(self, upto):
        tau = real(self, upto)
        return tau + QSeries.from_terms({n: by}, tau.order)

    monkeypatch.setattr(checks.Workspace, "tau_range", bumped)


def _conv_star(a, b, n):
    return sum(arith.sigma_star(a, j) * arith.sigma_star(b, n - j) for j in range(n + 1))


def _c10_flags(n, tau_n):
    # the comparisons of C10, on Fraction values from the per-n oracles
    conv55, conv37 = _conv_star(5, 5, n), _conv_star(3, 7, n)
    return (n % 2 == 1, tau_n > conv55, tau_n > conv37, conv55 > conv37)


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
        pytest.param("TAU-PROPS", 6, 1, (6, _TAU[6] + 1, _TAU[2] * _TAU[3]),
                     "multiplicativity fails", id="TAU-PROPS"),
    ],
)
def test_integer_scans_report_the_fraction_triple(monkeypatch, check_id, n, by,
                                                  expected, note):
    # the scans run on integer numerators; a failure is still reported as
    # the exact values of the identity at its first bad index
    _bump_tau(monkeypatch, n, by)
    report = checks.run_check(check_id, order=12, nmax=12)
    assert report.status == "fail"
    assert report.first_discrepancy == expected
    assert all(type(x) is Fraction for x in report.first_discrepancy[1:])
    assert report.notes == ((note,) if note else ())


def test_tau_props_reads_sigma11_from_the_catalog(monkeypatch):
    _corrupt_divisor_sums(monkeypatch, "sigma", 11, 7)
    report = checks.run_check("TAU-PROPS")
    assert report.first_discrepancy == (7, _TAU[7], arith.sigma(11, 7) + 1)
    assert report.notes == ("691 congruence fails",)


def test_jacobi_lists_each_divisor_set_once(monkeypatch):
    calls = []
    real = arith.divisors
    monkeypatch.setattr(arith, "divisors", lambda n: calls.append(n) or real(n))
    assert checks.run_check("JACOBI", nmax=30).status == "pass"
    assert sorted(calls) == list(range(1, 31))


def test_failing_line_format(monkeypatch):
    _corrupt_sigma_star(monkeypatch)
    report = checks.run_check("T5", nmax=12)
    line = report.line()
    assert line.startswith("FAIL  T5")
    assert "n=5" in line


@pytest.mark.parametrize("s", [1, 3, 5, 7, 11, 13])
def test_sigma_series_keep_the_n0_conventions(s):
    ws = checks.Workspace(nmax=40)
    assert ws.sigma_range(s, 40).coeffs == tuple(arith.sigma(s, n) for n in range(41))
    assert ws.sigma_star_range(s, 40).coeffs == tuple(
        arith.sigma_star(s, n) for n in range(41)
    )


# ---------------------------------------------------------------------------
# double-sum oracles: the index loops the convolution checks once ran, kept to
# test the series equations that replaced them


class RandomInputs:
    """A stand-in workspace whose divisor sums, tau, theta powers and D are
    arbitrary rationals, so that each series equation is compared with its
    loop as a function of its inputs, not only at the true values."""

    def __init__(self, nmax: int = 40, seed: int = 0):
        rng = random.Random(seed)
        self.order, self.nmax, self.mmax = 0, nmax, 0
        self.values = defaultdict(lambda: [
            Fraction(rng.randint(-99, 99), rng.randint(1, 9)) for _ in range(nmax + 1)
        ])
        self.values["D"][0] = Fraction(0)  # D = sum delta_8(n-1) q^n
        self.rcat = self

    def _series(self, key, upto: int) -> QSeries:
        return QSeries(self.values[key][: upto + 1])

    def sigma_range(self, s, upto):
        return self._series(("sigma", s), upto)

    def sigma_star_range(self, s, upto):
        return self._series(("sigma*", s), upto)

    def tau_range(self, upto):
        return self._series("tau", upto)

    def r_table(self, s):
        return self._series(("r", s), self.nmax)

    def D(self):
        return self._series("D", self.nmax)


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
    ws = RandomInputs()
    lhs_key, rhs = ORACLES[check_id](ws.values, ws.nmax)
    ws.values[lhs_key] = list(rhs)
    # the check passes only if its series side equals the loop on 0..nmax
    assert checks.run_check(check_id, workspace=ws).status == "pass"
    ws.values[lhs_key][17] += 1
    report = checks.run_check(check_id, workspace=ws)
    assert report.first_discrepancy == (17, rhs[17] + 1, rhs[17])


@pytest.mark.parametrize("upto", [4, 40])
def test_convolution_products_match_double_sum_oracle(upto):
    # the conv55/conv37 rows of C10 and TABLE2
    ws = RandomInputs()
    conv55, conv37 = checks._conv55_conv37(ws, upto)
    assert (list(conv55.coeffs), list(conv37.coeffs)) == _conv_oracle(ws.values, upto)


def test_t10_reports_the_lower_index_and_the_sigma5_form_on_a_tie():
    ws = RandomInputs()
    _, r24 = _t10_oracle(ws.values, ws.nmax)
    ws.values["r", 24] = r24
    ws.values["tau"][17] += 1  # both forms now fail at 17, by 64 and 512/17
    report = checks.run_check("T10", workspace=ws)
    assert report.first_discrepancy == (17, r24[17], r24[17] + 64)
    ws.values["sigma*", 3][10] += 1  # only the sigma*_3 sigma*_7 form, from 10
    assert checks.run_check("T10", workspace=ws).first_discrepancy[0] == 10


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


_SCANS = {"C1", "C2", "DIS", "P4", "T49", "C10", "TAU-PROPS", "TABLE2"}


@pytest.mark.parametrize(
    "sizes",
    [dict(order=64, nmax=200, mmax=20), dict(order=12, nmax=30, mmax=6),
     dict(order=1, nmax=0, mmax=1), dict(order=0, nmax=0, mmax=0)],
    ids=["defaults", "12-30-6", "1-0-1", "0-0-0"],
)
def test_equation_builders_return_their_equations_without_comparing(monkeypatch, sizes):
    # each equation check is data: its builder compares nothing, and every
    # equation it returns is compared on exactly the range its report prints
    ids = [i for i in checks.registry_ids() if checks.REGISTRY[i].equations]
    assert len(ids) == 41 and set(checks.registry_ids()) - set(ids) == _SCANS
    printed = {r.id: r.order for r in checks.run_all(**sizes, ids=ids)}

    def refuse(*args):
        raise AssertionError("first_difference called")

    monkeypatch.setattr(checks, "first_difference", refuse)
    ws = checks.Workspace(**sizes)
    for i in ids:
        equations = list(checks.REGISTRY[i].equations(ws))
        assert equations, i
        for lhs, rhs, *note in equations:
            assert min(lhs.order, rhs.order) == printed[i], i
            assert len(note) <= 1


def test_equation_checks_compare_inside_their_runner(monkeypatch):
    # the stored runner is what a tracer wraps, so the comparison must run
    # within its call, not after it returns
    calls = []
    real = checks.first_difference
    monkeypatch.setattr(checks, "first_difference",
                        lambda a, b: calls.append(1) or real(a, b))
    runner = checks.REGISTRY["HAHN-SYS"].runner
    assert runner(checks.Workspace(order=8), []) is None
    assert len(calls) == 3


def test_p4_and_jacobi_build_no_equation_past_the_first_failure(monkeypatch):
    evaluated = []
    real = checks.gp_evaluate
    monkeypatch.setattr(checks, "gp_evaluate",
                        lambda f, cat: evaluated.append(1) or real(f, cat))
    assert checks.run_check("P4", order=12).status == "pass"
    assert len(evaluated) == 3
    evaluated.clear()
    _corrupt_sigma_star(monkeypatch, s=1, n=1)
    report = checks.run_check("P4", order=12)
    assert report.notes == ("series-level rule for A broken",)
    assert len(evaluated) == 1
    # JACOBI: a bad 4-square table stops it before the 6- and 8-square ones
    _bump_r_table(monkeypatch, 4, 3)
    tables = []
    real_table = checks.Workspace.r_table
    monkeypatch.setattr(checks.Workspace, "r_table",
                        lambda self, s: tables.append(s) or real_table(self, s))
    assert checks.run_check("JACOBI", nmax=12).notes == ("4-square formula",)
    assert tables == [2, 4]


def test_p4_names_the_differing_monomial(monkeypatch):
    # the A^2 numerator of the level-2 rule for A raised by one: -1/4 -> 0
    den, rules = graded._RULES[graded.LEVEL2]
    bad = ({**rules[0], (2, 0, 0): rules[0][2, 0, 0] + 1}, rules[1], rules[2])
    monkeypatch.setitem(graded._RULES, graded.LEVEL2, (den, bad))
    report = checks.run_check("P4", order=12)
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
    report = checks.run_check("TABLE2")
    assert report.first_discrepancy == expected
    assert len(report.notes) == flagged
    assert all(note.startswith("flagged cell (conv") for note in report.notes)


def test_table2_24_square_route_reports_the_lowest_n(monkeypatch):
    r24 = {n: arith.r_oracle(24, n) for n in range(5)}
    # tau(3) + 1 breaks both forms at n = 3: the sigma*_5^2 form is reported
    _bump_tau(monkeypatch, 3, 1)
    report = checks.run_check("TABLE2")
    assert report.first_discrepancy == (3, r24[3] + 64, r24[3])
    assert report.notes == ()
    # sigma*_7(2) + 1 moves conv37 from n = 2 by sigma*_3(0) = -1/16, so
    # only the sigma*_3 sigma*_7 form fails there, below the tie at 3
    _corrupt_sigma_star(monkeypatch, s=7, n=2)
    report = checks.run_check("TABLE2")
    assert report.first_discrepancy == (2, r24[2] - Fraction(32, 17), r24[2])


def _bump_r_table(monkeypatch, s, n):
    real = checks.Workspace.r_table

    def bumped(self, ss):
        table = real(self, ss)
        return table + QSeries.from_terms({n: 1}, table.order) if ss == s else table

    monkeypatch.setattr(checks.Workspace, "r_table", bumped)


@pytest.mark.parametrize("n", [0, 5])
@pytest.mark.parametrize("s", [2, 4, 6, 8])
def test_jacobi_names_the_failing_formula(monkeypatch, s, n):
    _bump_r_table(monkeypatch, s, n)
    report = checks.run_check("JACOBI", nmax=12)
    assert report.status == "fail"
    r = arith.r_oracle(s, n)
    assert report.first_discrepancy == (n, r + 1, r)
    assert report.notes == (f"{s}-square formula",)


def test_d_raises_at_the_first_oracle_mismatch(monkeypatch):
    real = arith.delta8_oracle
    monkeypatch.setattr(arith, "delta8_oracle", lambda n: real(n) + (n == 3))
    with pytest.raises(CrossCheckMismatch) as info:
        SeriesCatalog(12).D()
    exc = info.value
    assert (exc.name, exc.exponent, exc.values) == ("D", 4, (64, 65))
    assert exc.routes == ("-(E4*-C^2)/64", "triangular-number count")
    # a check that reads D fails at that exponent, with the mismatch as note
    report = checks.run_check("L5", order=12)
    assert report.first_discrepancy == (4, 64, 65)
    assert report.notes == (str(exc),)


def test_no_check_reads_the_fraction_view(monkeypatch):
    # every series equation compares integer numerators at the defaults, and
    # TABLE2 compares its printed rows as series, building Fractions only for
    # the cells it flags
    def refuse(self):
        raise AssertionError("QSeries.coeffs read")

    monkeypatch.setattr(QSeries, "coeffs", property(refuse))
    reports = checks.run_all()
    assert len(reports) == 49
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
    reports = checks.run_all(order=16, nmax=30, mmax=6)
    assert len(reports) == 49
    assert [r.id for r in reports if r.status != "pass"] == []
    assert graded.check_positivity(20, SeriesCatalog(graded.e_star_order(20)))
    for w in (4, 8, 12, 24):
        cat = SeriesCatalog(64)
        dec = graded.decompose_modular(cat.level2(w // 2), w, cat)
        assert dec == graded.e_star_poly(w // 2)


def test_t49_names_the_least_monomial_outside_the_cone(monkeypatch):
    # E8* = (8/17) B C^2 + (9/17) B^2; negated after its own comparison, its
    # least monomial B C^2 is the one reported
    real = graded._solve_level
    monkeypatch.setattr(graded, "_solve_level", lambda mm, *rest: (
        -real(mm, *rest) if mm == 4 else real(mm, *rest)))
    report = checks.run_check("T49", mmax=4)
    assert report.first_discrepancy == (4, Fraction(-8, 17), 0)


def test_t49_reports_a_monomial_outside_the_basis(monkeypatch):
    # an A-term in the rule for B puts -(1/4) A B C into E6*, which no series
    # agreement could rule out
    den, rules = graded._RULES[graded.LEVEL2]
    bad = (rules[0], {**rules[1], (1, 1, 1): 1}, rules[2])
    monkeypatch.setitem(graded._RULES, graded.LEVEL2, (den, bad))
    report = checks.run_check("T49", mmax=6)
    assert report.first_discrepancy == (0, Fraction(-1, 4), 0)
    assert report.notes == (
        "E6star polynomial: routes 'differential recursion' and 'monomial basis' "
        "disagree at q^0: -1/4 != 0",
    )

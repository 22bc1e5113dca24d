"""Asymptotic analysis on formula-built series.

Every series here is synthesized from a closed form whose asymptotics are
known exactly, so the estimators can be checked against exact rationals
without running the engine.
"""

import re
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hilbertkunz as hk
import hilbertkunz.analysis as analysis
from conftest import load_problem
from hilbertkunz import (
    GeometricTail,
    HKSample,
    HKSeries,
    QuasiPolynomialFit,
    analyze_module_vs_ring,
    analyze_series,
    delta_sequence,
    fit_geometric_tail,
    fit_quasi_polynomial,
    sample_hk,
)
from hilbertkunz.analysis import _alpha, _beta_sequence, bounded_by_power
from hilbertkunz.cli import run_problem
from hilbertkunz.errors import (
    InsufficientSamples,
    RankMismatch,
    ResourceLimit,
    RingMismatch,
    SampleMismatch,
)

F = Fraction


def make_series(lengths, p: int, d: int, n_start: int = 1) -> HKSeries:
    """Wrap a list of lengths as an HKSeries; the ring behind it is a
    placeholder since the estimators only read p, d, and the samples."""
    rs = hk.ring_spec("x y", p)
    ideal = hk.maximal_ideal(rs)
    module = hk.free_module(rs, 1)
    samples = tuple(
        HKSample(n_start + i, p ** (n_start + i), v)
        for i, v in enumerate(lengths)
    )
    return HKSeries(rs, ideal, module, d, samples)


def quintic_lengths(p: int, n_max: int) -> list[int]:
    # 5q - r(5-r) with r = q mod 5
    out = []
    for n in range(1, n_max + 1):
        q = p**n
        r = q % 5
        out.append(5 * q - r * (5 - r))
    return out


def quartic_surface_lengths(n_max: int) -> list[int]:
    # (168*125^n - 107*3^n)/61, integral for every n
    return [(168 * 125**n - 107 * 3**n) // 61 for n in range(1, n_max + 1)]


def minors_lengths(n_max: int, n_min: int = 1) -> list[int]:
    # (13q^4 - 2q^3 - q^2 - 2q)/8 at p = 2
    out = []
    for n in range(n_min, n_max + 1):
        q = 2**n
        out.append((13 * q**4 - 2 * q**3 - q**2 - 2 * q) // 8)
    return out


def fit_of(series: HKSeries):
    """The quasi-polynomial fit of a series' lengths at degree d."""
    ns = [s.n for s in series.samples]
    return fit_quasi_polynomial(ns, series.qs(), series.lengths(), series.d)


def coefficient_at(c, n: int) -> Fraction:
    """A fit coefficient at n: the constant, or its residue n mod period."""
    return c if isinstance(c, Fraction) else c[n % len(c)]


# -- series container ------------------------------------------------------


def test_series_requires_consecutive_n():
    rs = hk.ring_spec("x", 2)
    ideal = hk.maximal_ideal(rs)
    mod = hk.free_module(rs, 1)
    good = (HKSample(1, 2, 2), HKSample(2, 4, 4))
    HKSeries(rs, ideal, mod, 1, good)
    with pytest.raises(SampleMismatch):
        HKSeries(rs, ideal, mod, 1, (HKSample(1, 2, 2), HKSample(3, 8, 8)))


def test_series_rejects_an_ideal_or_module_over_another_ring():
    """p is read from the series ring, so an F_3 ring over an F_2 ideal
    or module would label F_2 lengths with q = 3^n."""
    f3, f2 = hk.ring_spec("x y", 3), hk.ring_spec("x y", 2)
    samples = (HKSample(1, 3, 3),)
    HKSeries(f3, hk.maximal_ideal(f3), hk.free_module(f3, 1), 2, samples)
    with pytest.raises(RingMismatch):
        HKSeries(f3, hk.maximal_ideal(f2), hk.free_module(f3, 1), 2, samples)
    with pytest.raises(RingMismatch):
        HKSeries(f3, hk.maximal_ideal(f3), hk.free_module(f2, 1), 2, samples)


# -- quasi-polynomial fits -------------------------------------------------


def test_fit_unverified_without_spare_samples():
    """Five samples fix the five coefficients of the degree-4 minors
    formula with no sample spare, so no fit is claimed."""
    assert fit_of(make_series(minors_lengths(5), p=2, d=4)) is None


def test_fit_verified_with_spare_sample():
    fit = fit_of(make_series(minors_lengths(6), p=2, d=4))
    assert (fit.period, fit.start_n, fit.spare_samples) == (1, 1, 1)
    assert fit.coefficients == (F(13, 8), F(-1, 4), F(-1, 8), F(-1, 4), F(0))


def test_fit_rejected_when_spare_sample_disagrees():
    lengths = minors_lengths(6)
    lengths[-1] += 1
    assert fit_of(make_series(lengths, p=2, d=4)) is None
    lengths = minors_lengths(6)
    lengths[0] += 1
    assert fit_of(make_series(lengths, p=2, d=4)) is None


def test_fit_needs_d_plus_one_samples():
    assert fit_of(make_series(minors_lengths(4), p=2, d=4)) is None


def test_evaluate_fit_reproduces_sample():
    fit = fit_of(make_series(minors_lengths(6), p=2, d=4))
    assert sum(c * 32 ** (4 - i) for i, c in enumerate(fit.coefficients)) == 1695608
    assert sum(c * 2 ** (4 - i) for i, c in enumerate(fit.coefficients)) == 23


def test_fit_is_not_faked_for_periodic_data():
    """The quintic lengths are not polynomial in q: no period-1 fit is
    claimed, only the period-2 one."""
    fit = fit_of(make_series(quintic_lengths(2, 8), p=2, d=1))
    assert fit.period == 2


def test_one_spare_sample_confirms_only_a_polynomial_from_the_first_sample():
    """8q plus 1, -1, -5 by n mod 3: a line through n = 6..8 has one spare
    sample (n = 6) but does not reach n = 1, so it is refused and the
    period-3 fit, with four spare samples, is found instead."""
    lengths = [15, 27, 65, 127, 251, 513, 1023, 2043]
    fit = fit_of(make_series(lengths, p=2, d=1))
    assert fit.coefficients == (F(8), (F(1), F(-1), F(-5)))
    assert (fit.period, fit.start_n, fit.spare_samples) == (3, 1, 4)
    # a line from n = 2 on, one spare sample, an off-shape n = 1
    assert fit_of(make_series([9, 3 * 4 + 7, 3 * 8 + 7, 3 * 16 + 7], p=2, d=1)) is None


# -- periodic coefficients -------------------------------------------------


def test_periodic_tail_of_quintic():
    fit = fit_of(make_series(quintic_lengths(2, 8), p=2, d=1))
    assert fit.period == 2
    assert fit.coefficients == (F(5), (F(-4), F(-6)))  # indexed by n mod 2
    assert (fit.start_n, fit.spare_samples) == (1, 5)


def test_periodic_tail_constant_residual_is_period_one():
    lengths = [3 * 2**n + 7 for n in range(1, 5)]
    fit = fit_of(make_series(lengths, p=2, d=1))
    assert fit.period == 1
    assert fit.coefficients == (F(3), F(7))


def test_periodic_tail_absent_for_drifting_residual():
    lengths = [3 * 2**n + n for n in range(1, 7)]
    assert fit_of(make_series(lengths, p=2, d=1)) is None


def test_periodic_tail_needs_two_samples():
    assert fit_quasi_polynomial([1], [2], [4], 1) is None
    assert fit_quasi_polynomial([], [], [], 1) is None


def test_fit_tail_starts_after_off_shape_samples():
    """Two off-shape leading samples: the fit starts at n = 3 and names
    its spare samples among the rest."""
    lengths = quintic_lengths(3, 8)
    lengths[0] += 1
    lengths[1] -= 2
    fit = fit_of(make_series(lengths, p=3, d=1))
    assert fit.coefficients == (F(5), (F(-4), F(-6)))
    assert (fit.start_n, fit.spare_samples) == (3, 3)


# -- geometric tails -------------------------------------------------------


def test_geometric_tail_exact():
    ser = make_series(quartic_surface_lengths(4), p=5, d=3)
    tail = fit_geometric_tail(ser)
    assert tail == GeometricTail(F(168, 61), F(-107, 61), 3)


def test_geometric_tail_rejects_zero_coefficient():
    # 5q over p=3: the only candidate ratio r=2 solves with c=0
    ser = make_series([5 * 3**n for n in range(1, 5)], p=3, d=1)
    assert fit_geometric_tail(ser) is None


def test_geometric_tail_smallest_ratio_wins():
    lengths = [2 * 5**n + 3**n for n in range(1, 5)]
    tail = fit_geometric_tail(make_series(lengths, p=5, d=1))
    assert tail == GeometricTail(F(2), F(1), 3)


def test_geometric_tail_needs_three_samples():
    assert fit_geometric_tail(make_series([339, 43017], p=5, d=3)) is None


def test_geometric_tail_needs_a_fourth_sample():
    """Three samples fix a, c and r and are reproduced by construction,
    so an integral ratio on them is no evidence: the fourth is the spare."""
    lengths = [2 * 5**n + 3**n for n in range(1, 5)]
    assert fit_geometric_tail(make_series(lengths[:3], p=5, d=1)) is None
    assert fit_geometric_tail(make_series(quartic_surface_lengths(3), p=5, d=3)) is None
    assert fit_geometric_tail(make_series(lengths, p=5, d=1)) is not None


def search_geometric_tail(series):
    """Reference: try every ratio 2 <= r < p^d in turn, solve a, c on the
    first two samples, keep the smallest r that reproduces the rest."""
    samples = series.samples
    if len(samples) < 4:
        return None
    d = series.d
    s1, s2 = samples[0], samples[1]
    for r in range(2, series.p**d):
        det = F(s1.q) ** d * r**s2.n - F(s2.q) ** d * r**s1.n
        if det == 0:
            continue
        a = (F(s1.length) * r**s2.n - F(s2.length) * r**s1.n) / det
        c = (F(s2.length) * F(s1.q) ** d - F(s1.length) * F(s2.q) ** d) / det
        if c == 0:
            continue
        if all(a * F(s.q) ** d + c * r**s.n == s.length for s in samples[2:]):
            return GeometricTail(a, c, r)
    return None


@st.composite
def tail_series(draw):
    """(a*q^d + c*r^n) // m over consecutive n: exact two-term shapes when m
    divides, rounded ones otherwise, ratios in and out of 2..p^d-1, and an
    optional integer bump on one sample."""
    p = draw(st.sampled_from([2, 3, 5]))
    d = draw(st.integers(1, 3))
    n_start = draw(st.integers(0, 2))
    count = draw(st.integers(3, 7))
    r = draw(st.integers(1, p**d + 1))
    a = draw(st.integers(-5, 20))
    c = draw(st.integers(-20, 20))
    m = draw(st.sampled_from([1, 1, 2, 3]))
    lengths = [
        (a * p ** (n * d) + c * r**n) // m
        for n in range(n_start, n_start + count)
    ]
    if draw(st.booleans()):
        i = draw(st.integers(0, count - 1))
        lengths[i] += draw(st.integers(-3, 3))
    return make_series(lengths, p=p, d=d, n_start=n_start)


@settings(max_examples=400, deadline=None)
@given(tail_series())
def test_geometric_tail_closed_form_equals_ratio_search(ser):
    assert fit_geometric_tail(ser) == search_geometric_tail(ser)


def test_geometric_tail_large_p_returns_at_once():
    """p^d = 101^3 would be a million candidate ratios for a search."""
    lengths = [2 * 101 ** (3 * n) + 5 * 7**n for n in range(1, 5)]
    t0 = time.monotonic()
    tail = fit_geometric_tail(make_series(lengths, p=101, d=3))
    bumped = fit_geometric_tail(make_series(lengths[:3] + [lengths[3] + 1], p=101, d=3))
    assert time.monotonic() - t0 < 1.0
    assert tail == GeometricTail(F(2), F(5), 7)
    assert bumped is None


# -- alpha -----------------------------------------------------------------


def test_alpha_pinned_by_periodicity():
    ser = make_series(quintic_lengths(2, 8), p=2, d=1)
    alpha = _alpha(ser, fit_of(ser), None)
    assert alpha.extrapolated == F(5)
    assert alpha.method == "quasi_polynomial_fit"
    assert alpha.raw[-1] == F(1276, 256)


@pytest.mark.parametrize("p", [3, 7])
def test_alpha_pinned_for_other_characteristics(p):
    ser = make_series(quintic_lengths(p, 8), p=p, d=1)
    alpha = _alpha(ser, fit_of(ser), None)
    assert alpha.extrapolated == F(5)
    assert alpha.method == "quasi_polynomial_fit"


def test_alpha_prefers_verified_fit():
    ser = make_series(minors_lengths(6), p=2, d=4)
    fake_geometric = GeometricTail(F(99), F(1), 3)
    alpha = _alpha(ser, fit_of(ser), fake_geometric)
    assert alpha.method == "polynomial_fit"
    assert alpha.extrapolated == F(13, 8)


def test_alpha_ignores_unverified_fit():
    """Four samples fix the four coefficients of a cubic with none spare,
    so there is no fit, and the geometric tail fixes alpha."""
    ser = make_series(quartic_surface_lengths(4), p=5, d=3)
    assert fit_of(ser) is None
    alpha = _alpha(ser, None, fit_geometric_tail(ser))
    assert alpha.method == "geometric_tail"
    assert alpha.extrapolated == F(168, 61)


def test_alpha_unpinned_on_polynomial_data_without_spare():
    """Five samples of the degree-4 minors formula leave alpha an estimate
    and beta withheld; the n = 0 sample is the spare that verifies the
    fit, with alpha 13/8 and beta -1/4."""
    rep = analyze_series(make_series(minors_lengths(5), p=2, d=4))
    assert rep.alpha.method == "refined_sequence"
    assert rep.alpha.extrapolated != F(13, 8)
    assert rep.beta is None
    rep = analyze_series(make_series(minors_lengths(5, 0), p=2, d=4, n_start=0))
    assert rep.alpha.method == "polynomial_fit"
    assert rep.alpha.extrapolated == F(13, 8)
    assert rep.beta.limit == F(-1, 4)


def test_alpha_falls_back_to_refined_sequence():
    ser = make_series([7, 15], p=2, d=1)
    alpha = _alpha(ser, None, None)
    assert alpha.method == "refined_sequence"
    assert alpha.extrapolated == F(4)  # (15 - 7)/2


def test_alpha_needs_two_samples():
    with pytest.raises(InsufficientSamples):
        _alpha(make_series([4], p=2, d=1), None, None)


# -- beta ------------------------------------------------------------------


def test_beta_sequence_and_limit_from_the_fit():
    rep = analyze_series(make_series(minors_lengths(6), p=2, d=4))
    # beta_n = -1/4 - 1/(8q) - 1/(4q^2); the fit's q^3 coefficient is -1/4
    assert rep.beta.sequence[0] == F(-1, 4) - F(1, 16) - F(1, 16)
    assert rep.beta.limit == F(-1, 4)


def test_beta_shift_under_wrong_alpha():
    # an alpha off by 1/8 shifts beta_n by q/8, visible immediately
    ser = make_series(minors_lengths(6), p=2, d=4)
    assert abs(_beta_sequence(ser, F(13, 8) + F(1, 8))[-1]) > 1


def test_beta_limit_only_from_a_shape_that_fixes_it():
    """A geometric ratio below p^{d-1} gives beta 0; a periodic q^{d-1}
    coefficient gives the sequence and no limit."""
    rep = analyze_series(make_series(quartic_surface_lengths(4), p=5, d=3))
    assert rep.beta.limit == 0
    assert rep.beta.sequence[-1] == F(-107, 61) * F(3, 25) ** 4
    rep = analyze_series(make_series(quintic_lengths(2, 8), p=2, d=1))
    assert rep.beta.limit is None
    assert rep.beta.sequence[:2] == (F(-6), F(-4))


# -- delta, tau and their fit ---------------------------------------------


def canonical_vs_ring():
    m = make_series([28, 431, 6778], p=2, d=4)
    r = make_series([23, 397, 6518], p=2, d=4)
    return m, r


def test_delta_sequence_exact():
    m, r = canonical_vs_ring()
    assert delta_sequence(m, r, 1) == [5, 34, 260]


def test_delta_sequence_rejects_mismatched_ranges():
    m, _ = canonical_vs_ring()
    shorter = make_series([23, 397], p=2, d=4)
    with pytest.raises(SampleMismatch):
        delta_sequence(m, shorter, 1)


def test_delta_sequence_rejects_different_ideal():
    m, r = canonical_vs_ring()
    other = HKSeries(
        r.ringspec,
        hk.ideal_spec(r.ringspec, ["x^2", "y"]),
        r.module,
        r.d,
        r.samples,
    )
    with pytest.raises(SampleMismatch):
        delta_sequence(m, other, 1)


def test_tau_estimate():
    """Three deltas fix no degree-3 fit, so tau has no limit; from n = 0
    to 4, delta_n = q^3/2 + q/2 with one spare sample gives tau = 1/2."""
    m, r = canonical_vs_ring()
    tau = analyze_module_vs_ring(m, r, 1).tau
    assert tau.sequence == (F(5, 8), F(17, 32), F(65, 128))
    assert tau.limit is None
    m = make_series([2, 28, 431, 6778, 107492], p=2, d=4, n_start=0)
    r = make_series([1, 23, 397, 6518, 105436], p=2, d=4, n_start=0)
    rep = analyze_module_vs_ring(m, r, 1)
    assert rep.delta_sequence == (1, 5, 34, 260, 2056)
    assert rep.tau.limit == F(1, 2)
    assert rep.delta_fit.coefficients == (F(1, 2), 0, F(1, 2), 0)


def test_tau_needs_two_deltas():
    m = make_series([28], p=2, d=4)
    with pytest.raises(InsufficientSamples):
        analyze_module_vs_ring(m, m, 1)


CANONICAL_DELTAS = [1, 5, 34, 260, 2056]  # n = 0..4, q^3/2 + q/2


def test_delta_fit_found_for_canonical_deltas():
    """The deltas are a cubic from the first sample with one spare, so the
    residuals delta_{n+1} - 8 delta_n = -3q (-6, -12, ... from n = 1) are
    O(q^{d-2}) with no calibrated constant."""
    fit = fit_quasi_polynomial(range(5), [2**n for n in range(5)], CANONICAL_DELTAS, 3)
    assert fit == QuasiPolynomialFit(1, 0, (F(1, 2), 0, F(1, 2), 0), 1)


def test_delta_fit_rejects_corrupted_entry():
    deltas = CANONICAL_DELTAS[:3] + [500] + CANONICAL_DELTAS[4:]
    assert fit_quasi_polynomial(range(5), [2**n for n in range(5)], deltas, 3) is None


def test_bounded_by_power_calibrates_on_first_half():
    ok = bounded_by_power([3, 12, 48], [2, 4, 8], 2)
    assert ok.constant == F(3, 4)
    assert ok.verdict is True
    bad = bounded_by_power([1, 4, 64], [2, 4, 8], 2)
    assert bad.verdict is False
    assert bad.offending_n == (3,)


# -- combined reports ------------------------------------------------------


def test_analyze_polynomial_series():
    rep = analyze_series(make_series(minors_lengths(6), p=2, d=4))
    assert (rep.polynomial_fit.period, rep.polynomial_fit.spare_samples) == (1, 1)
    assert rep.alpha.method == "polynomial_fit"
    assert rep.beta.limit == F(-1, 4)
    assert rep.geometric_tail is None


def test_analyze_periodic_series():
    rep = analyze_series(make_series(quintic_lengths(2, 8), p=2, d=1))
    assert rep.alpha.extrapolated == F(5)
    assert rep.alpha.method == "quasi_polynomial_fit"
    assert rep.polynomial_fit.period == 2


def test_analyze_geometric_series():
    rep = analyze_series(make_series(quartic_surface_lengths(4), p=5, d=3))
    assert rep.alpha.method == "geometric_tail"
    assert rep.geometric_tail.ratio == 3
    assert rep.alpha.extrapolated == F(168, 61)
    assert rep.polynomial_fit is None  # 4 samples leave a cubic no spare


def test_analyze_withholds_beta_without_pinned_alpha():
    rep = analyze_series(make_series([7, 15], p=2, d=1))
    assert rep.alpha.method == "refined_sequence"
    assert rep.beta is None
    assert any("beta withheld" in w for w in rep.warnings)


def test_two_samples_claim_no_periodic_tail():
    """Two samples fix a line in q with no sample spare, which is no
    evidence of any shape: alpha stays an estimate."""
    rep = analyze_series(make_series([7, 15], p=2, d=1))
    assert rep.polynomial_fit is None
    assert rep.alpha.method == "refined_sequence"


def test_periodic_fit_needs_two_spare_samples():
    """The quintic's period-2 shape has three unknowns. On n = 1..4 it has
    one spare sample, which confirms only a polynomial; on n = 1..5 it has
    two."""
    rep = analyze_series(make_series(quintic_lengths(2, 4), p=2, d=1))
    assert rep.alpha.method == "refined_sequence"
    assert rep.polynomial_fit is None
    rep = analyze_series(make_series(quintic_lengths(2, 5), p=2, d=1))
    assert rep.alpha.method == "quasi_polynomial_fit"
    assert rep.polynomial_fit.coefficients == (F(5), (F(-4), F(-6)))


def test_analyze_module_vs_ring_fields():
    m, r = canonical_vs_ring()
    rep = analyze_module_vs_ring(m, r, 1)
    assert rep.delta_sequence == (5, 34, 260)
    assert rep.tau.limit is None
    assert rep.delta_fit is None


def test_analyze_module_vs_ring_flags_rank_mismatch():
    lengths = quintic_lengths(2, 8)
    r = make_series(lengths, p=2, d=1)
    doubled = make_series([2 * v for v in lengths], p=2, d=1)
    rep = analyze_module_vs_ring(doubled, r, 1)
    assert any("generic rank" in w for w in rep.warnings)


def test_ring_alpha_follows_the_analysis_rule():
    """alpha(R) comes from the same rule as alpha(M): the ring series
    q^2/4 + 4q + 15 has a verified fit with alpha 1/4, where the refined
    sequence alone ends at 17/128."""
    ring_series = make_series([24, 35, 63, 143], p=2, d=2)
    assert _alpha(ring_series, None, None).extrapolated == F(17, 128)
    rep = analyze_module_vs_ring(ring_series, ring_series, 1)
    assert rep.alpha.extrapolated == F(1, 4)
    assert not any("deviates" in w for w in rep.warnings)


def test_fit_solves_each_shape_once(monkeypatch):
    """A fit of the quintic at p = 7 solves two shapes, the line and the
    period-2 shape, each on its last samples only."""
    calls = []
    solve = analysis._solve_exact

    def counting(matrix, rhs):
        calls.append(len(matrix))
        return solve(matrix, rhs)

    monkeypatch.setattr(analysis, "_solve_exact", counting)
    report = run_problem("fit", load_problem("monsky_p7"))
    assert report["analysis"]["alpha"]["method"] == "quasi_polynomial_fit"
    assert calls == [2, 3]


def labelled_values_hold(series: HKSeries, rep) -> None:
    """Every shape the report names reproduces the samples it claims, and
    alpha and the beta limit are read off that shape."""
    d, p = series.d, series.p
    fit, geometric = rep.polynomial_fit, rep.geometric_tail
    if fit is not None:
        assert rep.alpha.extrapolated == fit.coefficients[0]
        assert fit.spare_samples >= (1 if fit.period == 1 else 2)
        for s in series.samples:
            if s.n >= fit.start_n:
                value = sum(
                    coefficient_at(c, s.n) * s.q ** (d - i)
                    for i, c in enumerate(fit.coefficients)
                )
                assert value == s.length
        beta_limit = fit.coefficients[1]
        assert rep.beta.limit == (beta_limit if isinstance(beta_limit, F) else None)
    elif geometric is not None:
        assert rep.alpha.extrapolated == geometric.leading
        for s in series.samples:
            assert geometric.leading * s.q**d + geometric.coefficient * geometric.ratio**s.n == s.length
        assert rep.beta.limit == (0 if geometric.ratio < p ** (d - 1) else None)
    else:
        assert rep.alpha.method == "refined_sequence"
        assert rep.beta is None


@st.composite
def ladder_series(draw):
    """Series that reach every shape: polynomial in q (with and without
    spare samples), quintic-like e*q^d plus a periodic residue,
    a*q^d + c*r^n, each optionally bumped on one sample."""
    p = draw(st.sampled_from([2, 3, 5]))
    d = draw(st.integers(1, 2))
    n_start = draw(st.integers(0, 2))
    count = draw(st.integers(2, 8))
    ns = range(n_start, n_start + count)
    shape = draw(st.sampled_from(["polynomial", "periodic", "geometric"]))
    if shape == "polynomial":
        coeffs = draw(st.lists(st.integers(-6, 12), min_size=d + 1, max_size=d + 1))
        lengths = [sum(c * p ** (n * (d - i)) for i, c in enumerate(coeffs)) for n in ns]
    elif shape == "periodic":
        e = draw(st.integers(1, 8))
        residues = draw(st.lists(st.integers(-9, 3), min_size=1, max_size=3))
        lengths = [e * p ** (n * d) + residues[n % len(residues)] for n in ns]
    else:
        a, c = draw(st.integers(1, 8)), draw(st.integers(-9, 9))
        r = draw(st.integers(1, p**d))
        lengths = [a * p ** (n * d) + c * r**n for n in ns]
    if draw(st.booleans()):
        lengths[draw(st.integers(0, count - 1))] += draw(st.integers(-3, 3))
    return make_series(lengths, p=p, d=d, n_start=n_start)


@settings(max_examples=300, deadline=None)
@given(ladder_series())
def test_analyze_series_equals_the_assembled_pieces(ser):
    """The report names the fit, else the geometric tail, else no shape,
    and every value it labels exact holds on the samples."""
    rep = analyze_series(ser)
    fit = fit_of(ser)
    assert rep.polynomial_fit == fit
    assert rep.geometric_tail == (None if fit is not None else fit_geometric_tail(ser))
    labelled_values_hold(ser, rep)


@st.composite
def quasi_polynomial_series(draw):
    """(p, d, n_start, coefficients, lengths): l_n = sum_i c_i(n) q^{d-i}
    in the "R1" shape (c_d, c_(d-1) constant) or the "any" shape (c_d
    constant), the other coefficients of period 1, 2 or 3, each listed as
    its values by n mod its period. Up to two leading samples are moved
    off the shape, and at least the shape's unknowns + 2 samples follow
    them, so the samples identify the shape."""
    p = draw(st.sampled_from([2, 3, 5]))
    d = draw(st.integers(1, 3))
    period = draw(st.integers(1, 3))
    constant = 2 if draw(st.booleans()) else 1
    periods = [1] * constant + [period] * (d + 1 - constant)
    coefficients = [
        tuple(draw(st.lists(st.integers(-9, 9), min_size=size, max_size=size)))
        for size in periods
    ]
    coefficients[0] = (draw(st.integers(1, 9)),)
    off = draw(st.integers(0, 2))
    count = off + sum(periods) + 2 + draw(st.integers(0, 2))
    n_start = draw(st.integers(0, 2))
    lengths = [
        sum(c[n % len(c)] * p ** (n * (d - i)) for i, c in enumerate(coefficients))
        for n in range(n_start, n_start + count)
    ]
    for i in range(off):
        lengths[i] += draw(st.sampled_from([-2, -1, 1, 2]))
    return p, d, n_start, tuple(coefficients), lengths


@settings(max_examples=200, deadline=None)
@given(quasi_polynomial_series())
@example((2, 1, 1, ((8,), (1, -1, -5)), [15, 27, 65, 127, 251, 513, 1023, 2043]))
def test_every_value_labelled_exact_is_the_drawn_one(case):
    """The fit's coefficients equal the drawn ones at every n from its
    start on, and so do alpha and beta's limit in the report. The example
    is 8q plus 1, -1, -5 by n mod 3, where a line through n = 6..8 has
    one spare sample and alpha 255/32."""
    p, d, n_start, coefficients, lengths = case
    ser = make_series(lengths, p=p, d=d, n_start=n_start)
    fit = fit_of(ser)
    if fit is not None:
        for n in range(fit.start_n, fit.start_n + 60):
            for c, truth in zip(fit.coefficients, coefficients):
                assert coefficient_at(c, n) == truth[n % len(truth)]
    rep = analyze_series(ser)
    if rep.alpha.method != "refined_sequence":
        assert rep.alpha.extrapolated == coefficients[0][0]
    if rep.beta is not None and rep.beta.limit is not None:
        assert set(coefficients[1]) == {rep.beta.limit}


# -- sampling --------------------------------------------------------------


def test_sample_hk_lengths_match_engine():
    rs = hk.ring_spec("x y", 3)
    ideal = hk.maximal_ideal(rs)
    (ser,) = sample_hk(ideal, (hk.free_module(rs, 1),), 1, 3)
    assert ser.lengths() == [9, 81, 729]
    assert ser.qs() == [3, 9, 27]
    assert all(s.seconds is not None for s in ser.samples)


def test_sample_hk_reads_p_and_d_from_the_ideals_ring():
    rs = hk.ring_spec("x y z", 2)
    (ser,) = sample_hk(hk.maximal_ideal(rs), (hk.free_module(rs, 1),), 1, 3)
    assert (ser.p, ser.d) == (2, 3)
    assert ser.qs() == [2, 4, 8]
    assert ser.lengths() == [8, 64, 512]


def test_sample_hk_rejects_a_module_over_another_ring():
    f2, f3 = hk.ring_spec("x y z", 2), hk.ring_spec("x y z", 3)
    with pytest.raises(RingMismatch):
        sample_hk(hk.maximal_ideal(f2), (hk.free_module(f3, 1),), 1, 3)


def test_sample_hk_truncates_after_a_skipped_sample(monkeypatch):
    """A resource limit at n=2 drops n=2 and stops the sampling, so the
    series keeps consecutive n and n=3 is never computed."""
    import hilbertkunz.analysis as analysis

    calls = []

    def fake_length(module, ideal, n, **kw):
        calls.append(n)
        if n == 2:
            raise ResourceLimit("time budget exceeded")
        return 4**n

    monkeypatch.setattr(analysis, "length_mod_frobenius", fake_length)
    rs = hk.ring_spec("x y", 2)
    (ser,) = sample_hk(hk.maximal_ideal(rs), (hk.free_module(rs, 1),), 1, 3)
    assert ser.lengths() == [4]
    assert calls == [1, 2]
    assert any("n=2 skipped" in note for note in ser.notes)
    assert any("truncated at n=2" in note for note in ser.notes)


def test_sample_hk_stops_every_series_at_the_first_limit(monkeypatch):
    """The second module runs out at n=2: the first module's n=2 sample
    is dropped too, nothing is sampled at n=3, and both series carry the
    same notes."""
    import hilbertkunz.analysis as analysis

    rs = hk.ring_spec("x y", 2)
    first, second = hk.free_module(rs, 1), hk.free_module(rs, 2)
    calls = []

    def fake_length(module, ideal, n, **kw):
        calls.append((module.rank, n))
        if module is second and n == 2:
            raise ResourceLimit("time budget exceeded")
        return module.rank * 4**n

    monkeypatch.setattr(analysis, "length_mod_frobenius", fake_length)
    a, b = sample_hk(hk.maximal_ideal(rs), (first, second), 1, 3)
    assert a.lengths() == [4]
    assert b.lengths() == [8]
    assert calls == [(1, 1), (2, 1), (1, 2), (2, 2)]
    assert a.notes == b.notes == (
        "sample n=2 skipped: time budget exceeded",
        "series truncated at n=2 to keep n consecutive",
    )


def test_sample_hk_raises_when_no_sample_completes(monkeypatch):
    import hilbertkunz.analysis as analysis

    def fake_length(module, ideal, n, **kw):
        raise ResourceLimit("time budget exceeded")

    monkeypatch.setattr(analysis, "length_mod_frobenius", fake_length)
    rs = hk.ring_spec("x y", 2)
    with pytest.raises(ResourceLimit, match="no samples completed"):
        sample_hk(hk.maximal_ideal(rs), (hk.free_module(rs, 1),), 1, 3)


def test_analyze_empty_series_raises():
    rs = hk.ring_spec("x y", 2)
    ser = HKSeries(rs, hk.maximal_ideal(rs), hk.free_module(rs, 1), 2, ())
    with pytest.raises(InsufficientSamples):
        analyze_series(ser)


def test_sample_hk_rejects_empty_range():
    rs = hk.ring_spec("x", 2)
    with pytest.raises(SampleMismatch):
        sample_hk(hk.maximal_ideal(rs), (hk.free_module(rs, 1),), 3, 1)


# -- additive errors on split sequences ------------------------------------


def test_split_sequence_has_zero_error():
    rs = hk.ring_spec("x y", 2)
    ideal = hk.maximal_ideal(rs)
    amb = hk.free_module(rs, 2)
    gens = [hk.FreeElement((rs.ring.one(), rs.ring.zero()))]
    series = sample_hk(
        ideal,
        (
            hk.present_submodule(amb, gens),
            amb,
            hk.quotient_presentation(amb, gens),
        ),
        1, 3,
    )
    rep = hk.additive_error(*series)
    assert [row.error for row in rep.rows] == [0, 0, 0]
    assert [row.length_ambient for row in rep.rows] == [8, 32, 128]
    assert [row.length_sub for row in rep.rows] == [4, 16, 64]
    assert rep.fit == QuasiPolynomialFit(1, 1, (0, 0), 1)


def test_sequence_generators_must_match_the_cover_rank():
    rs = hk.ring_spec("x y", 2)
    amb = hk.free_module(rs, 2)
    gens = [hk.FreeElement((rs.ring.one(),))]
    with pytest.raises(RankMismatch):
        hk.present_submodule(amb, gens)
    with pytest.raises(RankMismatch):
        hk.quotient_presentation(amb, gens)


def test_additive_error_rejects_misaligned_series():
    rs = hk.ring_spec("x y", 2)
    ideal = hk.maximal_ideal(rs)
    short, long_ = (
        sample_hk(ideal, (hk.free_module(rs, 1),), 1, n) for n in (2, 3)
    )
    with pytest.raises(SampleMismatch, match="different n ranges"):
        hk.additive_error(short[0], long_[0], long_[0])


# -- README ----------------------------------------------------------------


def test_readme_library_example_runs_as_documented():
    """The README's library example runs on the public API, and every
    expression line in it equals the value its comment shows."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    code = re.search(r"## Library\n\n```python\n(.*?)```", readme, re.S).group(1)
    namespace: dict = {}
    exec(code, namespace)
    shown = 0
    for line in code.splitlines():
        expr, _, comment = line.partition("#")
        if comment and "=" not in expr:
            value = eval(comment, {"Fraction": F, "QuasiPolynomialFit": hk.QuasiPolynomialFit})
            assert eval(expr, namespace) == value, line
            shown += 1
    assert shown == 3
    assert namespace["series"].lengths() == [4, 16, 34, 76, 154, 316, 634, 1276]
    report = namespace["report"]
    assert report.alpha.extrapolated == 5
    assert report.polynomial_fit == hk.QuasiPolynomialFit(2, 1, (F(5), (F(-4), F(-6))), 5)

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
from hypothesis import given, settings
from hypothesis import strategies as st

import hilbertkunz as hk
import hilbertkunz.analysis as analysis
from conftest import load_problem
from hilbertkunz import (
    AsymptoticReport,
    GeometricTail,
    HKSample,
    HKSeries,
    PolynomialFit,
    analyze_module_vs_ring,
    analyze_series,
    bounded_by_power,
    check_delta_recursion,
    delta_sequence,
    detect_periodic_tail,
    estimate_beta,
    estimate_tau,
    fit_geometric_tail,
    fit_polynomial,
    geometric_accelerate,
    sample_hk,
)
from hilbertkunz.analysis import _alpha, _expansion
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


def minors_lengths(n_max: int) -> list[int]:
    # (13q^4 - 2q^3 - q^2 - 2q)/8 at p = 2
    out = []
    for n in range(1, n_max + 1):
        q = 2**n
        out.append((13 * q**4 - 2 * q**3 - q**2 - 2 * q) // 8)
    return out


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


# -- polynomial fits -------------------------------------------------------


def test_fit_unverified_without_spare_samples():
    ser = make_series(minors_lengths(5), p=2, d=4)
    fit = fit_polynomial(ser)
    assert fit is not None
    assert fit.coefficients == (F(13, 8), F(-1, 4), F(-1, 8), F(-1, 4), F(0))
    assert fit.status == "unverified"
    assert fit.verified_samples == 0


def test_fit_verified_with_spare_sample():
    ser = make_series(minors_lengths(6), p=2, d=4)
    fit = fit_polynomial(ser)
    assert fit.status == "verified"
    assert fit.verified_samples == 1
    assert fit.coefficients == (F(13, 8), F(-1, 4), F(-1, 8), F(-1, 4), F(0))


def test_fit_rejected_when_spare_sample_disagrees():
    lengths = minors_lengths(6)
    lengths[-1] += 1
    assert fit_polynomial(make_series(lengths, p=2, d=4)) is None


def test_fit_needs_d_plus_one_samples():
    with pytest.raises(InsufficientSamples):
        fit_polynomial(make_series(minors_lengths(4), p=2, d=4))


def test_evaluate_fit_reproduces_sample():
    fit = fit_polynomial(make_series(minors_lengths(6), p=2, d=4))
    assert _expansion(fit.coefficients, 32, 4) == 1695608
    assert _expansion(fit.coefficients, 2, 4) == 23


def test_fit_is_not_faked_for_periodic_data():
    """The quintic lengths are not polynomial in q; the fit must refuse."""
    ser = make_series(quintic_lengths(2, 8), p=2, d=1)
    assert fit_polynomial(ser) is None


# -- periodic tails --------------------------------------------------------


def test_periodic_tail_of_quintic():
    ser = make_series(quintic_lengths(2, 8), p=2, d=1)
    tail = detect_periodic_tail(ser, [F(5)])
    assert tail is not None
    assert tail.period == 2
    assert tail.residues == (F(-4), F(-6))  # indexed by n mod 2
    assert tail.start_n == 1


def test_periodic_tail_constant_residual_is_period_one():
    lengths = [3 * 2**n + 7 for n in range(1, 5)]
    tail = detect_periodic_tail(make_series(lengths, p=2, d=1), [F(3)])
    assert tail.period == 1
    assert tail.residues == (F(7),)


def test_periodic_tail_absent_for_drifting_residual():
    lengths = [3 * 2**n + n for n in range(1, 7)]
    assert detect_periodic_tail(make_series(lengths, p=2, d=1), [F(3)]) is None


def test_periodic_tail_needs_two_samples():
    with pytest.raises(InsufficientSamples):
        detect_periodic_tail(make_series([4], p=2, d=1), [F(5)])


# -- geometric tails -------------------------------------------------------


def test_geometric_tail_exact():
    ser = make_series(quartic_surface_lengths(3), p=5, d=3)
    tail = fit_geometric_tail(ser)
    assert tail == GeometricTail(F(168, 61), F(-107, 61), 3)


def test_geometric_tail_rejects_zero_coefficient():
    # 5q over p=3: the only candidate ratio r=2 solves with c=0
    ser = make_series([5 * 3**n for n in range(1, 4)], p=3, d=1)
    assert fit_geometric_tail(ser) is None


def test_geometric_tail_smallest_ratio_wins():
    lengths = [2 * 5**n + 3**n for n in range(1, 4)]
    tail = fit_geometric_tail(make_series(lengths, p=5, d=1))
    assert tail == GeometricTail(F(2), F(1), 3)


def test_geometric_tail_needs_three_samples():
    assert fit_geometric_tail(make_series([339, 43017], p=5, d=3)) is None


def search_geometric_tail(series):
    """Reference: try every ratio 2 <= r < p^d in turn, solve a, c on the
    first two samples, keep the smallest r that reproduces the rest."""
    samples = series.samples
    if len(samples) < 3:
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
    alpha = _alpha(ser, None, None)[0]
    assert alpha.extrapolated == F(5)
    assert alpha.method == "periodic_pin"
    assert alpha.raw[-1] == F(1276, 256)


@pytest.mark.parametrize("p", [3, 7])
def test_alpha_pinned_for_other_characteristics(p):
    ser = make_series(quintic_lengths(p, 8), p=p, d=1)
    alpha = _alpha(ser, None, None)[0]
    assert alpha.extrapolated == F(5)
    assert alpha.method == "periodic_pin"


def test_alpha_prefers_verified_fit():
    ser = make_series(minors_lengths(6), p=2, d=4)
    fit = fit_polynomial(ser)
    fake_geometric = GeometricTail(F(99), F(1), 3)
    alpha = _alpha(ser, fit, fake_geometric)[0]
    assert alpha.method == "polynomial_fit"
    assert alpha.extrapolated == F(13, 8)


def test_alpha_ignores_unverified_fit():
    ser = make_series(quartic_surface_lengths(3), p=5, d=3)
    unverified = PolynomialFit((F(99), F(0), F(0), F(0)), "unverified", 0)
    alpha = _alpha(ser, unverified, fit_geometric_tail(ser))[0]
    assert alpha.method == "geometric_tail"
    assert alpha.extrapolated == F(168, 61)


def test_alpha_rational_pin_on_polynomial_data_without_spare():
    """Five samples of the degree-4 minors formula: the fit exists but is
    unverified, the tail is neither geometric nor periodic, and the
    beta-residual test still pins alpha = 13/8 exactly."""
    ser = make_series(minors_lengths(5), p=2, d=4)
    alpha = _alpha(ser, fit_polynomial(ser), fit_geometric_tail(ser))[0]
    assert alpha.method == "rational_pin"
    assert alpha.extrapolated == F(13, 8)


def test_alpha_falls_back_to_refined_sequence():
    ser = make_series([7, 15], p=2, d=1)
    alpha = _alpha(ser, None, None)[0]
    assert alpha.method == "refined_sequence"
    assert alpha.extrapolated == F(4)  # (15 - 7)/2


def test_alpha_needs_two_samples():
    with pytest.raises(InsufficientSamples):
        _alpha(make_series([4], p=2, d=1), None, None)


# -- beta ------------------------------------------------------------------


def test_beta_sequence_and_acceleration():
    ser = make_series(minors_lengths(6), p=2, d=4)
    beta = estimate_beta(ser, F(13, 8))
    # beta_n = -1/4 - 1/(8q) - 1/(4q^2); one acceleration step cancels 1/q
    assert beta.sequence[0] == F(-1, 4) - F(1, 16) - F(1, 16)
    assert abs(beta.extrapolated + F(1, 4)) < F(1, 1000)


def test_beta_shift_under_wrong_alpha():
    # an alpha off by 1/8 shifts beta_n by q/8, visible immediately
    ser = make_series(minors_lengths(6), p=2, d=4)
    bad = estimate_beta(ser, F(13, 8) + F(1, 8))
    assert abs(bad.sequence[-1]) > 1


def test_geometric_accelerate_cancels_inverse_q():
    seq = [F(3) + F(1, 2**n) for n in range(1, 5)]
    assert geometric_accelerate(seq, 2) == [F(3), F(3), F(3)]


# -- delta, tau, recursion -------------------------------------------------


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
    tau = estimate_tau([5, 34, 260], p=2, d=4)
    assert tau.sequence == (F(5, 8), F(17, 32), F(65, 128))
    assert tau.extrapolated == F(31, 64)


def test_tau_needs_two_deltas():
    with pytest.raises(InsufficientSamples):
        estimate_tau([5], p=2, d=4)


def test_delta_recursion_passes_for_canonical_deltas():
    rep = check_delta_recursion([5, 34, 260], p=2, d=4)
    assert rep.residuals == (-6, -12)
    assert rep.bound.verdict is True
    assert rep.bound.offending_n == ()


def test_delta_recursion_flags_corrupted_entry():
    rep = check_delta_recursion([5, 34, 500], p=2, d=4)
    assert rep.residuals == (-6, 228)
    assert rep.bound.verdict is False
    assert rep.bound.offending_n == (2,)


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
    assert rep.tail_classification == "polynomial"
    assert rep.polynomial_fit.status == "verified"
    assert rep.alpha.method == "polynomial_fit"
    assert rep.beta is not None
    assert rep.geometric_tail is None
    assert rep.periodic_tail is None


def test_analyze_periodic_series():
    rep = analyze_series(make_series(quintic_lengths(2, 8), p=2, d=1))
    assert rep.tail_classification == "periodic"
    assert rep.alpha.extrapolated == F(5)
    assert rep.periodic_tail.period == 2
    assert rep.polynomial_fit is None  # exact fit refused on periodic data


def test_analyze_geometric_series():
    rep = analyze_series(make_series(quartic_surface_lengths(3), p=5, d=3))
    assert rep.tail_classification == "geometric"
    assert rep.geometric_tail.ratio == 3
    assert rep.alpha.extrapolated == F(168, 61)
    assert rep.polynomial_fit is None  # 3 samples cannot carry a cubic fit


def test_analyze_withholds_beta_without_pinned_alpha():
    rep = analyze_series(make_series([7, 15], p=2, d=1))
    assert rep.alpha.method == "refined_sequence"
    assert rep.beta is None
    assert any("beta withheld" in w for w in rep.warnings)


def test_two_samples_claim_no_periodic_tail():
    """The refined anchor (15 - 7)/(4 - 2) = 4 leaves the residuals
    7 - 8 = 15 - 16 = -1 by construction, which is no evidence of a
    period: the series stays unclassified."""
    rep = analyze_series(make_series([7, 15], p=2, d=1))
    assert rep.periodic_tail is None
    assert rep.tail_classification == "unclassified"


def test_periodic_pin_needs_a_spare_sample():
    """The anchor (100 - 40)/(16 - 8) = 15/2 leaves the last two residuals
    40 - 60 = 100 - 120 = -20 by construction: no period is shown, and
    alpha is not pinned by periodicity."""
    rep = analyze_series(make_series([7, 15, 40, 100], p=2, d=1))
    assert rep.alpha.method == "rational_pin"
    assert rep.periodic_tail is None
    assert rep.tail_classification == "unclassified"


def test_analyze_module_vs_ring_fields():
    m, r = canonical_vs_ring()
    rep = analyze_module_vs_ring(m, r, 1)
    assert rep.delta_sequence == (5, 34, 260)
    assert rep.tau.extrapolated == F(31, 64)
    assert rep.delta_recursion.residuals == (-6, -12)
    assert rep.delta_recursion.bound.verdict is True


def test_analyze_module_vs_ring_flags_rank_mismatch():
    lengths = quintic_lengths(2, 8)
    r = make_series(lengths, p=2, d=1)
    doubled = make_series([2 * v for v in lengths], p=2, d=1)
    rep = analyze_module_vs_ring(doubled, r, 1)
    assert any("generic rank" in w for w in rep.warnings)


def test_ring_alpha_follows_the_analysis_rule():
    """alpha(R) comes from the same rule as alpha(M): the ring series
    q^2/4 + 4q + 15 has a verified fit with alpha 1/4, where the rational
    pin alone picks 1/7."""
    ring_series = make_series([24, 35, 63, 143], p=2, d=2)
    assert _alpha(ring_series, None, None)[0].extrapolated == F(1, 7)
    rep = analyze_module_vs_ring(ring_series, ring_series, 1)
    assert rep.alpha.extrapolated == F(1, 4)
    assert not any("deviates" in w for w in rep.warnings)


def test_fit_reuses_the_pinned_periodic_tail(monkeypatch):
    """The periodic pin's tail is the report's tail: a fit of the quintic
    at p = 7 searches for it once, not a second time for the report."""
    calls = []
    detect = analysis.detect_periodic_tail

    def counting(*args):
        calls.append(args)
        return detect(*args)

    monkeypatch.setattr(analysis, "detect_periodic_tail", counting)
    report = run_problem("fit", load_problem("monsky_p7"))
    assert report["analysis"]["tail_classification"] == "periodic"
    assert len(calls) == 1


def ladder_reference(series: HKSeries) -> AsymptoticReport:
    """analyze_series assembled from the public pieces, deciding the tail
    class from the fit and the geometric tail and searching the periodic
    tail afresh, as the report did before the ladder was shared."""
    fit = None
    if len(series.samples) >= series.d + 1:
        fit = fit_polynomial(series)
    geometric = None
    if fit is None or fit.status != "verified":
        geometric = fit_geometric_tail(series)
    alpha = _alpha(series, fit, geometric)[0]
    beta, warnings = None, ()
    if alpha.method == "refined_sequence":
        warnings = ("beta withheld: alpha could not be pinned exactly from the samples",)
    else:
        beta = estimate_beta(series, alpha.extrapolated)
    periodic = None
    if fit is not None and fit.status == "verified":
        classification = "polynomial"
    elif geometric is not None:
        classification = "geometric"
    else:
        if len(series.samples) > 2:
            periodic = detect_periodic_tail(series, [alpha.extrapolated])
        classification = "periodic" if periodic is not None else "unclassified"
    return AsymptoticReport(
        alpha, beta, fit, periodic, geometric, classification, warnings=warnings
    )


@st.composite
def ladder_series(draw):
    """Series that reach every rung of the ladder: polynomial in q (with
    and without spare samples), quintic-like e*q^d plus a periodic
    residue, a*q^d + c*r^n, each optionally bumped on one sample."""
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
    assert analyze_series(ser) == ladder_reference(ser)


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
    assert rep.bound.verdict is True
    assert rep.bound.constant == 0


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
            value = eval(comment, {"Fraction": F, "PeriodicTail": hk.PeriodicTail})
            assert eval(expr, namespace) == value, line
            shown += 1
    assert shown == 3
    assert namespace["series"].lengths() == [4, 16, 34, 76, 154, 316, 634, 1276]
    report = namespace["report"]
    assert report.alpha.extrapolated == 5
    assert report.periodic_tail == hk.PeriodicTail(2, 1, (F(-4), F(-6)))

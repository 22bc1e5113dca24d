"""End-to-end acceptance checks.

One test per acceptance criterion, so `pytest -v` prints exactly one
pass/fail line for each. Tolerances are stated in the docstrings; every
other comparison is exact. The expensive series come from the shared
session cache, so each corpus problem is sampled once per run.
"""

from fractions import Fraction

import hilbertkunz as hk

from conftest import run_cross_check

F = Fraction


def test_diagonal_quartic_threefold_lengths_exact(corpus_report):
    """p=5, x^4+y^4+z^4+w^4: lengths 1, 339 and 43017 exactly for
    n = 0..2, with the q=25 sample finishing in under five minutes."""
    report = corpus_report("hanmonsky", "fit")
    assert report["error"] is None
    lengths = [s["length"] for s in report["samples"]]
    assert lengths[:3] == ["1", "339", "43017"]
    assert report["timing"]["per_n"]["2"] < 300.0


def test_determinantal_ring_lengths_and_exact_fit(corpus_report):
    """2x3 generic minors at p=2: lengths at q=1,2,4,8 match the degree-4
    closed form, the fit on n = 0..5 recovers its exact rational
    coefficients with one spare sample, alpha and beta are read off it,
    and the q=8 sample takes under ten minutes."""
    report = corpus_report("determinantal", "fit")
    assert report["error"] is None
    lengths = [s["length"] for s in report["samples"]]
    assert lengths[:4] == ["1", "23", "397", "6518"]
    analysis = report["analysis"]
    fit = analysis["polynomial_fit"]
    assert fit["coefficients"] == ["13/8", "-1/4", "-1/8", "-1/4", "0"]
    assert (fit["period"], fit["start_n"], fit["spare_samples"]) == (1, 0, 1)
    assert analysis["alpha"]["extrapolated"] == "13/8"
    assert analysis["alpha"]["method"] == "polynomial_fit"
    assert analysis["beta"]["limit"] == "-1/4"
    assert report["timing"]["per_n"]["3"] < 600.0


def test_canonical_module_tau_near_half_and_beta_link(corpus_report):
    """tau of the (u, x) module is exactly 1/2: sampled at n = 0..4,
    delta_n = 1, 5, 34, 260, 2056 has the verified degree-3 fit q^3/2 + q/2
    (from n = 0, one spare sample). beta of the ring is exactly -1/4, and
    -tau/2 equals it."""
    rs = hk.ring_spec("u v w x y z", 2, ["v*z + w*y", "w*x + u*z", "u*y + v*x"])
    module = hk.present_submodule(hk.free_module(rs, 1), [["u"], ["x"]])
    series_m, series_r = hk.sample_hk(
        hk.maximal_ideal(rs), (module, hk.free_module(rs, 1)), 0, 4
    )
    rep = hk.analyze_module_vs_ring(series_m, series_r, 1)
    assert rep.delta_sequence == (1, 5, 34, 260, 2056)
    fit = rep.delta_fit
    assert (fit.period, fit.start_n, fit.spare_samples) == (1, 0, 1)
    assert fit.coefficients == (F(1, 2), 0, F(1, 2), 0)
    assert rep.tau.limit == F(1, 2)
    ring_report = corpus_report("determinantal", "fit")
    beta = F(ring_report["analysis"]["beta"]["limit"])
    assert beta == F(-1, 4)
    assert -rep.tau.limit / 2 == beta


def test_additive_error_bound_calibrated_at_first_sample(corpus_report):
    """For 0 -> (u,v,w) -> R -> R/(u,v,w) -> 0 the deviation of e_n from
    q^3/2 stays within C q^2, with C calibrated at q=2 only. The report
    claims no shape: three samples leave a cubic fit no spare sample."""
    report = corpus_report("additive_error", "additive-error")
    assert report["analysis"]["fit"] is None
    rows = report["analysis"]["rows"]
    errors = [F(r["error"]) for r in rows]
    qs = [F(r["q"]) for r in rows]
    assert errors == [12, 60, 360]
    constant = abs(errors[0] - qs[0] ** 3 / 2) / qs[0] ** 2
    for e, q in zip(errors[1:], qs[1:]):
        assert abs(e - q**3 / 2) <= constant * q**2


def test_additive_error_fit_from_q_1():
    """Sampled from n = 0, the same sequence earns its shape: e_n = 3, 12,
    60, 360, 2448 is exactly q^3/2 + 3q^2/2 + q, a degree-(d-1) fit from
    the first sample with one spare, so e_n = O(q^(d-1)) holds."""
    rs = hk.ring_spec("u v w x y z", 2, ["v*z + w*y", "w*x + u*z", "u*y + v*x"])
    ring, gens = hk.free_module(rs, 1), [["u"], ["v"], ["w"]]
    series = hk.sample_hk(
        hk.maximal_ideal(rs),
        (hk.present_submodule(ring, gens), ring, hk.quotient_presentation(ring, gens)),
        0, 4,
    )
    rep = hk.additive_error(*series)
    assert [r.error for r in rep.rows] == [3, 12, 60, 360, 2448]
    assert rep.fit == hk.QuasiPolynomialFit(1, 0, (F(1, 2), F(3, 2), 1, 0), 1)


def test_quintic_curve_alpha_and_periodic_residues(corpus_report):
    """x^5 +- y^5 for p in {2,3,7}, n <= 8, and p = 2 up to n = 16: every
    length is Monsky's 5q - r(5 - r) with r = q mod 5, and the fit is 5q
    plus -4 (n even) or -6 (n odd) in every characteristic, so alpha is 5
    and beta has no limit."""
    for stem in ("monsky_p2", "monsky_p3", "monsky_p7", "monsky_p2_long"):
        report = corpus_report(stem, "fit")
        assert report["error"] is None, stem
        for s in report["samples"]:
            q = int(s["q"])
            r = q % 5
            assert int(s["length"]) == 5 * q - r * (5 - r), (stem, s["n"])
        analysis = report["analysis"]
        assert analysis["alpha"]["extrapolated"] == "5", stem
        assert analysis["alpha"]["method"] == "quasi_polynomial_fit", stem
        fit = analysis["polynomial_fit"]
        assert (fit["period"], fit["start_n"]) == (2, 1), stem
        assert fit["coefficients"] == ["5", ["-4", "-6"]], stem
        assert analysis["beta"]["limit"] is None, stem


def test_diagonal_quartic_geometric_tail_not_polynomial(corpus_report):
    """The p=5 quartic series admits no exact polynomial fit in q; the
    two-term geometric shape with ratio 3 is detected instead, and its
    ratio below p^2 makes beta 0."""
    report = corpus_report("hanmonsky", "fit")
    analysis = report["analysis"]
    assert analysis["polynomial_fit"] is None
    assert analysis["alpha"]["method"] == "geometric_tail"
    tail = analysis["geometric_tail"]
    assert tail["ratio"] == 3
    assert tail["coefficient"] == "-107/61"
    assert tail["leading"] == "168/61"
    assert analysis["beta"]["limit"] == "0"


def test_engine_agrees_with_oracle_on_200_random_instances():
    """Engine lengths equal independent dense-elimination counts on 200
    randomized instances; zero discrepancies tolerated."""
    assert run_cross_check(seed=14640, count=200) == 0


def test_delta_is_fitted_for_declared_rank_modules(corpus_report):
    """The corpus module's three deltas fix no degree-(d-1) fit with a
    spare sample, so its report claims none; a free module has delta = 0,
    which the fit verifies."""
    report = corpus_report("omega", "tau")
    assert report["analysis"]["delta"] == ["5", "34", "260"]
    assert report["analysis"]["delta_fit"] is None

    rs = hk.ring_spec("x y", 3)
    ideal = hk.maximal_ideal(rs)
    m = hk.free_module(rs, 2)
    series_m, series_r = hk.sample_hk(
        ideal, (m, hk.free_module(rs, 1)), 1, 4
    )
    rep = hk.analyze_module_vs_ring(series_m, series_r, 2)
    assert rep.delta_sequence == (0, 0, 0, 0)
    assert rep.delta_fit == hk.QuasiPolynomialFit(1, 1, (0, 0), 2)


def test_structural_identities_zero_tolerance():
    """Exact identities with no tolerance: direct sums add, bracketing by
    p shifts n by one, lex and grevlex agree, and a monomial complete
    intersection has length q^v times the product of the exponents."""
    quintic = hk.ring_spec("x y", 2, ["x^5 + y^5"])
    ideal = hk.maximal_ideal(quintic)
    free = hk.free_module(quintic, 1)
    cyc = hk.cyclic_module(quintic, ["x^2 + y"])
    both = hk.length_mod_frobenius(hk.direct_sum(free, cyc), ideal, 2)
    assert both == (
        hk.length_mod_frobenius(free, ideal, 2)
        + hk.length_mod_frobenius(cyc, ideal, 2)
    )

    towered = ideal.frobenius_power(2)
    assert hk.length_mod_frobenius(free, towered, 2) == (
        hk.length_mod_frobenius(free, ideal, 3)
    )

    minors = ["v*z + w*y", "w*x + u*z", "u*y + v*x"]
    for order in ("grevlex", "lex"):
        rs = hk.ring_spec("u v w x y z", 2, minors, order)
        got = hk.length_mod_frobenius(
            hk.free_module(rs, 1), hk.maximal_ideal(rs), 1
        )
        assert got == 23, order

    rs = hk.ring_spec("x y z", 3)
    gens = ["x^2", "y^3", "z^4"]
    length = hk.length_mod_frobenius(
        hk.free_module(rs, 1), hk.ideal_spec(rs, gens), 1
    )
    assert length == 2 * 3 * 4 * 3**3

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
    """p=5, x^4+y^4+z^4+w^4: lengths 339 and 43017 exactly, with the
    q=25 sample finishing in under five minutes."""
    report = corpus_report("hanmonsky", "fit")
    assert report["error"] is None
    lengths = [s["length"] for s in report["samples"]]
    assert lengths[:2] == ["339", "43017"]
    assert report["timing"]["per_n"]["2"] < 300.0


def test_determinantal_ring_lengths_and_exact_fit(corpus_report):
    """2x3 generic minors at p=2: lengths at q=2,4,8 match the degree-4
    closed form, the five-sample fit recovers its exact rational
    coefficients, and the q=8 sample takes under ten minutes."""
    report = corpus_report("determinantal", "fit")
    assert report["error"] is None
    lengths = [s["length"] for s in report["samples"]]
    assert lengths[:3] == ["23", "397", "6518"]
    fit = report["analysis"]["polynomial_fit"]
    assert fit["coefficients"] == ["13/8", "-1/4", "-1/8", "-1/4", "0"]
    assert report["analysis"]["alpha"]["extrapolated"] == "13/8"
    assert report["timing"]["per_n"]["3"] < 600.0


def test_canonical_module_tau_near_half_and_beta_link(corpus_report):
    """tau of the (u, x) module sits within 0.05 of 1/2, and -tau/2 agrees
    with beta of the ring to within 0.05."""
    tau_report = corpus_report("omega", "tau")
    ring_report = corpus_report("determinantal", "fit")
    tau = F(tau_report["analysis"]["tau"]["extrapolated"])
    assert abs(tau - F(1, 2)) <= F(5, 100)
    beta = F(ring_report["analysis"]["beta"]["extrapolated"])
    assert abs(-tau / 2 - beta) <= F(5, 100)


def test_additive_error_bound_calibrated_at_first_sample(corpus_report):
    """For 0 -> (u,v,w) -> R -> R/(u,v,w) -> 0 the deviation of e_n from
    q^3/2 stays within C q^2, with C calibrated at q=2 only."""
    report = corpus_report("additive_error", "additive-error")
    rows = report["analysis"]["rows"]
    errors = [F(r["error"]) for r in rows]
    qs = [F(r["q"]) for r in rows]
    assert errors == [12, 60, 360]
    constant = abs(errors[0] - qs[0] ** 3 / 2) / qs[0] ** 2
    for e, q in zip(errors[1:], qs[1:]):
        assert abs(e - q**3 / 2) <= constant * q**2


def test_quintic_curve_alpha_and_periodic_residues(corpus_report):
    """x^5 +- y^5 for p in {2,3,7}, n <= 8, and p = 2 up to n = 16: every
    length is Monsky's 5q - r(5 - r) with r = q mod 5, alpha lands within
    1e-3 of 5, the residual tail has period at most 2, and the residues are
    exactly {-4, -6} in every characteristic."""
    for stem in ("monsky_p2", "monsky_p3", "monsky_p7", "monsky_p2_long"):
        report = corpus_report(stem, "fit")
        assert report["error"] is None, stem
        for s in report["samples"]:
            q = int(s["q"])
            r = q % 5
            assert int(s["length"]) == 5 * q - r * (5 - r), (stem, s["n"])
        alpha = F(report["analysis"]["alpha"]["extrapolated"])
        assert abs(alpha - 5) <= F(1, 1000), stem
        tail = report["analysis"]["periodic_tail"]
        assert tail is not None, stem
        assert tail["period"] <= 2, stem
        assert sorted(F(r) for r in tail["residues"]) == [-6, -4], stem


def test_diagonal_quartic_geometric_tail_not_polynomial(corpus_report):
    """The p=5 quartic series admits no exact polynomial fit in q; the
    two-term geometric shape with ratio 3 is detected instead."""
    report = corpus_report("hanmonsky", "fit")
    analysis = report["analysis"]
    assert analysis["polynomial_fit"] is None
    assert analysis["tail_classification"] == "geometric"
    tail = analysis["geometric_tail"]
    assert tail["ratio"] == 3
    assert tail["coefficient"] == "-107/61"
    assert tail["leading"] == "168/61"


def test_engine_agrees_with_oracle_on_200_random_instances():
    """Engine lengths equal independent dense-elimination counts on 200
    randomized instances; zero discrepancies tolerated."""
    assert run_cross_check(seed=14640, count=200) == 0


def test_delta_recursion_holds_for_declared_rank_modules(corpus_report):
    """delta_{n+1} - p^{d-1} delta_n stays within the q^{d-2} envelope for
    the declared-rank corpus module, and a free module has delta = 0."""
    report = corpus_report("omega", "tau")
    rec = report["analysis"]["delta_recursion"]
    assert rec["residuals"] == ["-6", "-12"]
    assert rec["bound"]["verdict"] is True

    rs = hk.ring_spec("x y", 3)
    ideal = hk.maximal_ideal(rs)
    m = hk.free_module(rs, 2)
    series_m, series_r = hk.sample_hk(
        ideal, (m, hk.free_module(rs, 1)), 1, 4
    )
    deltas = hk.delta_sequence(series_m, series_r, 2)
    assert deltas == [0, 0, 0, 0]
    rep = hk.check_delta_recursion(deltas, p=3, d=2)
    assert rep.bound.verdict is True
    assert all(r == 0 for r in rep.residuals)


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

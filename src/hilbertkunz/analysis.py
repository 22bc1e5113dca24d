"""Asymptotics of the length function n -> l(M/I^[p^n]M).

Everything here consumes sampled lengths and produces the structural data:
the leading coefficient alpha, the second coefficient beta, delta and tau
sequences against a reference ring, and additive errors on short exact
sequences. One exact fitter finds quasi-polynomials in q = p^n (the
coefficients may depend on n mod a period), and fit_geometric_tail finds
the one other shape, a*q^d + c*r^n. A coefficient is reported as exact
only when such a shape, confirmed by spare samples, fixes it. All fitting
runs over exact rationals; floats appear only when callers format output.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import islice
from math import lcm
from operator import mul

from .errors import InsufficientSamples, ResourceLimit, RingMismatch, SampleMismatch
from .presentations import (
    IdealSpec,
    ModulePresentation,
    RingSpec,
    length_mod_frobenius,
)

PERIOD_MAX = 6


@dataclass(frozen=True)
class HKSample:
    """One data point: length of M/I^[q]M at q = p^n."""

    n: int
    q: int
    length: int
    seconds: float | None = field(default=None, compare=False)


@dataclass(frozen=True)
class HKSeries:
    ringspec: RingSpec
    ideal: IdealSpec
    module: ModulePresentation
    d: int
    samples: tuple[HKSample, ...]
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        if self.ideal.ringspec != self.ringspec or self.module.ringspec != self.ringspec:
            raise RingMismatch("series ring differs from its ideal's or module's ring")
        for a, b in zip(self.samples, self.samples[1:]):
            if b.n != a.n + 1:
                raise SampleMismatch("samples must have consecutive n")

    @property
    def p(self) -> int:
        return self.ringspec.p

    def lengths(self) -> list[int]:
        return [s.length for s in self.samples]

    def qs(self) -> list[int]:
        return [s.q for s in self.samples]


@dataclass(frozen=True)
class AlphaEstimate:
    raw: tuple[Fraction, ...]
    refined: tuple[Fraction, ...]
    extrapolated: Fraction
    # polynomial_fit | quasi_polynomial_fit | geometric_tail: exact, the
    # shape's leading coefficient; refined_sequence: the last refined entry
    method: str


@dataclass(frozen=True)
class SecondCoefficient:
    """The q^{d-1} coefficient of a length function (beta for a ring, tau
    for a module against it): its sequence, and its limit when a verified
    shape fixes it (None otherwise)."""

    sequence: tuple[Fraction, ...]
    limit: Fraction | None


@dataclass(frozen=True)
class QuasiPolynomialFit:
    """l_n = sum_i c_i(n) q^{d-i} on every sample from start_n on.

    The coefficients run from q^d down. Each is a Fraction when it is
    constant, or a tuple indexed by n mod period when it is not. They were
    solved on the last samples, and spare_samples earlier ones confirm them.
    """

    period: int
    start_n: int
    coefficients: tuple
    spare_samples: int


@dataclass(frozen=True)
class GeometricTail:
    """Two-term shape a*q^d + c*r^n with an integer ratio r."""

    leading: Fraction
    coefficient: Fraction
    ratio: int


@dataclass(frozen=True)
class BoundCheck:
    """|value_n| <= C * q_n^exponent, with C calibrated on the first half
    of the data and tested on the second half."""

    exponent: int
    constant: Fraction
    ratios: tuple[Fraction, ...]
    verdict: bool
    offending_n: tuple[int, ...]


@dataclass(frozen=True)
class DeltaRecursionReport:
    residuals: tuple[int, ...]
    bound: BoundCheck


@dataclass(frozen=True)
class AdditiveErrorRow:
    n: int
    q: int
    length_sub: int
    length_ambient: int
    length_quotient: int
    error: int


@dataclass(frozen=True)
class AdditiveErrorReport:
    rows: tuple[AdditiveErrorRow, ...]
    bound: BoundCheck  # |e_n| <= C q^{d-1}


@dataclass(frozen=True)
class AsymptoticReport:
    alpha: AlphaEstimate
    beta: SecondCoefficient | None
    polynomial_fit: QuasiPolynomialFit | None
    geometric_tail: GeometricTail | None
    tail_classification: str  # polynomial | periodic | geometric | unclassified
    delta_sequence: tuple[int, ...] | None = None
    tau: SecondCoefficient | None = None
    delta_recursion: DeltaRecursionReport | None = None
    warnings: tuple[str, ...] = ()


# -- sampling ------------------------------------------------------------------


def sample_hk(
    ideal: IdealSpec,
    modules: tuple,
    n_min: int,
    n_max: int,
    dim: int | None = None,
    max_seconds: float | None = None,
) -> tuple[HKSeries, ...]:
    """Sample the length functions of a tuple of ModulePresentations for
    n_min..n_max, one n after another, every module at each n. The ring
    (its p and dimension) is the ideal's; a module over another ring
    raises RingMismatch.

    Each sample has its own budget. A resource limit (such as the
    per-sample time budget) stops every series together at the first n
    where some module runs out, so the series keep equal, consecutive
    n ranges and share one set of notes. ResourceLimit, with the cause, is
    raised when not even n_min completes.
    """
    if n_min > n_max:
        raise SampleMismatch("empty sample range")
    ringspec = ideal.ringspec
    notes = []
    d = ringspec.dimension()
    if dim is not None and dim != d:
        notes.append(f"dimension override {dim} used; computed value is {d}")
        d = dim
    p = ringspec.p
    rows = []
    for n in range(n_min, n_max + 1):
        try:
            row = []
            for module in modules:
                t0 = time.monotonic()
                value = length_mod_frobenius(
                    module, ideal, n, max_seconds=max_seconds
                )
                row.append(
                    HKSample(n, p**n, value, seconds=time.monotonic() - t0)
                )
        except ResourceLimit as exc:
            skipped = f"sample n={n} skipped: {exc}"
            if not rows:
                raise ResourceLimit(f"no samples completed; {skipped}") from exc
            notes.append(skipped)
            if n < n_max:
                notes.append(f"series truncated at n={n} to keep n consecutive")
            break
        rows.append(row)
    notes = tuple(notes)
    return tuple(
        HKSeries(ringspec, ideal, module, d, tuple(samples), notes)
        for module, samples in zip(modules, zip(*rows))
    )


# -- exact fits and tail shapes ------------------------------------------------


def _solve_exact(matrix: list[list[int]], rhs: list[int]) -> list[Fraction] | None:
    """Exact solution of a square integer system, or None when it is
    singular: fraction-free (Bareiss) elimination, whose divisions by the
    previous pivot are exact, then back substitution over the rationals."""
    m = len(matrix)
    a = [row + [b] for row, b in zip(matrix, rhs)]
    previous = 1
    for col in range(m):
        pivot = next((r for r in range(col, m) if a[r][col]), None)
        if pivot is None:
            return None
        a[col], a[pivot] = a[pivot], a[col]
        top = a[col]
        for r in range(col + 1, m):
            f = a[r][col]
            a[r] = [(x * top[col] - f * y) // previous for x, y in zip(a[r], top)]
        previous = top[col]
    solution = [Fraction(0)] * m
    for r in reversed(range(m)):
        rest = sum(a[r][c] * solution[c] for c in range(r + 1, m))
        solution[r] = (a[r][m] - rest) / Fraction(a[r][r])
    return solution


def _shapes(degree: int) -> list[tuple[int, ...]]:
    """Each shape as the periods of its coefficients, q^degree first: "R1"
    (c_degree and c_(degree-1) constant, the rest of period P) and "any"
    (c_degree constant) for P = 1..PERIOD_MAX, fewest unknowns first."""
    shapes = set()
    for period in range(1, PERIOD_MAX + 1):
        shapes.add((1,) * min(2, degree + 1) + (period,) * (degree - 1))
        shapes.add((1,) + (period,) * degree)
    return sorted(shapes, key=lambda shape: (sum(shape), max(shape)))


def fit_quasi_polynomial(ns, qs, values, degree: int) -> QuasiPolynomialFit | None:
    """The first shape of _shapes(degree) that the samples confirm, or None.

    Each shape is solved once, on the last samples (one per unknown), and
    extended backwards while the earlier samples agree, checked as an
    integer identity after clearing denominators. Those earlier samples
    are its spare samples. A fit needs two of them, or one when it is a
    polynomial (period 1) that reaches the first sample.
    """
    if degree < 0:
        return None
    count = len(values)
    for shape in _shapes(degree):
        k = sum(shape)
        if k >= count:
            break
        columns = [(degree - i, size, r) for i, size in enumerate(shape) for r in range(size)]

        def row(j):
            return [qs[j] ** e if ns[j] % size == r else 0 for e, size, r in columns]

        solved = _solve_exact([row(j) for j in range(count - k, count)], values[count - k:])
        if solved is None:
            continue
        den = lcm(*(c.denominator for c in solved))
        scaled = [c.numerator * (den // c.denominator) for c in solved]
        start = count - k
        while start and sum(map(mul, scaled, row(start - 1))) == den * values[start - 1]:
            start -= 1
        spare = count - k - start
        if spare >= 2 or (spare == 1 and start == 0 and max(shape) == 1):
            it = iter(solved)
            coefficients = tuple(
                next(it) if size == 1 else tuple(islice(it, size)) for size in shape
            )
            return QuasiPolynomialFit(max(shape), ns[start], coefficients, spare)
    return None


def fit_geometric_tail(series: HKSeries) -> GeometricTail | None:
    """Fit length_n = a*q^d + c*r^n exactly with integer 2 <= r < p^d.

    That shape makes D_n = length_{n+1} - p^d*length_n equal
    c*r^n*(r - p^d), so r = D_1/D_0 is the only candidate, and D_0 gives c
    (nonzero exactly when D_0 is). Those three samples fix a, c and r, so
    four samples are needed, one of them spare, and every sample must be
    reproduced. The ratio p^d itself is excluded (that shape is a
    polynomial).
    """
    samples = series.samples
    d = series.d
    if len(samples) < 4 or d < 1:
        return None
    pd = series.p**d
    l0, l1, l2 = (s.length for s in samples[:3])
    d0, d1 = l1 - pd * l0, l2 - pd * l1
    if d0 == 0 or d1 % d0:
        return None
    r = d1 // d0
    if not 2 <= r < pd:
        return None
    n0 = samples[0].n
    c = Fraction(d0, r**n0 * (r - pd))
    a = (l0 - c * r**n0) / Fraction(samples[0].q) ** d
    if all(a * Fraction(s.q) ** d + c * r**s.n == s.length for s in samples):
        return GeometricTail(a, c, r)
    return None


# -- coefficient estimation ----------------------------------------------------


def _refined_alpha(series: HKSeries) -> list[Fraction]:
    """Pairwise combination cancelling the q^{d-1} term exactly:
    (phi_{n+1} - p^{d-1} phi_n) / ((p^d - p^{d-1}) q_n^d)."""
    d, p = series.d, series.p
    pd1 = Fraction(p) ** (d - 1)
    denom = Fraction(p) ** d - pd1
    out = []
    for a, b in zip(series.samples, series.samples[1:]):
        out.append((b.length - pd1 * a.length) / (denom * a.q**d))
    return out


def _beta_sequence(series: HKSeries, alpha: Fraction) -> list[Fraction]:
    """beta_n = (phi_n - alpha q^d)/q^{d-1}; alpha must be exact, since an
    alpha off by epsilon shifts every beta_n by epsilon*q."""
    d = series.d
    return [
        (s.length - alpha * Fraction(s.q) ** d) / Fraction(s.q) ** (d - 1)
        for s in series.samples
    ]


def _alpha(
    series: HKSeries,
    fit: QuasiPolynomialFit | None,
    geometric: GeometricTail | None,
) -> AlphaEstimate:
    """Raw and refined alpha sequences plus a single value: the leading
    coefficient of the quasi-polynomial fit, else of the geometric tail,
    else the last refined entry, which is only an estimate."""
    if len(series.samples) < 2:
        raise InsufficientSamples("alpha estimation needs at least 2 samples")
    raw = tuple(Fraction(s.length, s.q**series.d) for s in series.samples)
    refined = tuple(_refined_alpha(series))
    if fit is not None:
        method = "polynomial_fit" if fit.period == 1 else "quasi_polynomial_fit"
        return AlphaEstimate(raw, refined, fit.coefficients[0], method)
    if geometric is not None:
        return AlphaEstimate(raw, refined, geometric.leading, "geometric_tail")
    return AlphaEstimate(raw, refined, refined[-1], "refined_sequence")


def _check_aligned(first: HKSeries, *others: HKSeries) -> None:
    """SampleMismatch unless the series share a ring, an ideal and n's."""
    for ser in others:
        if ser.ringspec != first.ringspec:
            raise SampleMismatch("series live over different rings")
        if ser.ideal != first.ideal:
            raise SampleMismatch("series use different ideals")
        if [s.n for s in ser.samples] != [s.n for s in first.samples]:
            raise SampleMismatch("series cover different n ranges")


def delta_sequence(series_m: HKSeries, series_r: HKSeries, r: int) -> list[int]:
    """delta_n = phi_n(M) - r*phi_n(R), exact integers."""
    _check_aligned(series_m, series_r)
    return [
        a.length - r * b.length
        for a, b in zip(series_m.samples, series_r.samples)
    ]


def bounded_by_power(
    values, qs, exponent: int, ns=None
) -> BoundCheck:
    """Calibrate C = max |v|/q^e on the first half, test the second half."""
    values = list(values)
    qs = list(qs)
    if len(values) != len(qs) or not values:
        raise SampleMismatch("values and q lists must align and be nonempty")
    if ns is None:
        ns = list(range(1, len(values) + 1))
    ratios = [abs(Fraction(v)) / Fraction(q) ** exponent for v, q in zip(values, qs)]
    half = (len(ratios) + 1) // 2
    constant = max(ratios[:half])
    offending = tuple(
        n for n, r in zip(ns[half:], ratios[half:]) if r > constant
    )
    return BoundCheck(exponent, constant, tuple(ratios), not offending, offending)


def check_delta_recursion(
    deltas, p: int, d: int, n_start: int = 1
) -> DeltaRecursionReport:
    """Residuals rho_n = delta_{n+1} - p^{d-1} delta_n, bounded by C q^{d-2}."""
    deltas = list(deltas)
    if len(deltas) < 2:
        raise InsufficientSamples("recursion check needs at least 2 deltas")
    pd1 = p ** (d - 1) if d >= 1 else Fraction(1, p)
    residuals = [b - pd1 * a for a, b in zip(deltas, deltas[1:])]
    qs = [p ** (n_start + i) for i in range(len(residuals))]
    ns = [n_start + i for i in range(len(residuals))]
    bound = bounded_by_power(residuals, qs, d - 2, ns)
    return DeltaRecursionReport(tuple(residuals), bound)


def additive_error(
    sub: HKSeries, ambient: HKSeries, quotient: HKSeries
) -> AdditiveErrorReport:
    """e_n = phi_n(M/N) - phi_n(M) + phi_n(N) for 0 -> N -> M -> M/N -> 0,
    from the series of N, M and M/N (see present_submodule and
    quotient_presentation). The bound check is |e_n| <= C q^{d-1}."""
    _check_aligned(ambient, sub, quotient)
    rows = tuple(
        AdditiveErrorRow(
            b.n, b.q, a.length, b.length, c.length,
            c.length - b.length + a.length,
        )
        for a, b, c in zip(sub.samples, ambient.samples, quotient.samples)
    )
    bound = bounded_by_power(
        [r.error for r in rows], [r.q for r in rows], ambient.d - 1,
        [r.n for r in rows],
    )
    return AdditiveErrorReport(rows, bound)


# -- the combined report -------------------------------------------------------


def analyze_series(series: HKSeries) -> AsymptoticReport:
    """Full single-module analysis: alpha, beta, fit, tail classification.
    Its warnings are the analysis's own; the series' notes stay on the
    series."""
    warnings = []
    d = series.d
    ns = [s.n for s in series.samples]
    fit = fit_quasi_polynomial(ns, series.qs(), series.lengths(), d)
    geometric = fit_geometric_tail(series) if fit is None else None
    alpha = _alpha(series, fit, geometric)

    beta = None
    if alpha.method == "refined_sequence":
        warnings.append(
            "beta withheld: alpha could not be pinned exactly from the samples"
        )
    else:
        limit = None
        if fit is not None and d >= 1 and isinstance(fit.coefficients[1], Fraction):
            limit = fit.coefficients[1]
        elif geometric is not None and geometric.ratio < series.p ** (d - 1):
            limit = Fraction(0)
        beta = SecondCoefficient(tuple(_beta_sequence(series, alpha.extrapolated)), limit)

    classification = {
        "polynomial_fit": "polynomial",
        "quasi_polynomial_fit": "periodic",
        "geometric_tail": "geometric",
    }.get(alpha.method, "unclassified")
    return AsymptoticReport(
        alpha=alpha,
        beta=beta,
        polynomial_fit=fit,
        geometric_tail=geometric,
        tail_classification=classification,
        warnings=tuple(warnings),
    )


def analyze_module_vs_ring(
    series_m: HKSeries,
    series_r: HKSeries,
    r: int,
) -> AsymptoticReport:
    """Analysis of M extended with delta, tau, and the recursion check
    against the rank-r free comparison; flags alpha(M) vs r*alpha(R).
    The limit of tau is the leading coefficient of a verified degree-(d-1)
    fit of delta_n, when one exists."""
    base = analyze_series(series_m)
    warnings = list(base.warnings)
    deltas = delta_sequence(series_m, series_r, r)
    p, d = series_m.p, series_m.d
    ns, qs = [s.n for s in series_m.samples], series_m.qs()
    tau_fit = fit_quasi_polynomial(ns, qs, deltas, d - 1)
    tau = SecondCoefficient(
        tuple(Fraction(dl) / Fraction(q) ** (d - 1) for dl, q in zip(deltas, qs)),
        None if tau_fit is None else tau_fit.coefficients[0],
    )
    recursion = check_delta_recursion(deltas, p, d, ns[0])
    alpha_r = analyze_series(series_r).alpha
    expected = r * alpha_r.extrapolated
    got = base.alpha.extrapolated
    if expected != 0 and abs(got - expected) > abs(expected) / 100:
        warnings.append(
            f"alpha(M) = {got} deviates from rank * alpha(R) = {expected} "
            "by more than 1%; the declared generic rank may be wrong"
        )
    return replace(
        base,
        delta_sequence=tuple(deltas),
        tau=tau,
        delta_recursion=recursion,
        warnings=tuple(warnings),
    )

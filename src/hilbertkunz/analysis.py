"""Asymptotics of the length function n -> l(M/I^[p^n]M).

Everything here consumes sampled lengths and produces the structural data:
the leading coefficient alpha, the second coefficient beta, delta and tau
sequences against a reference ring, additive errors on short exact
sequences, exact polynomial fits in q = p^n, and periodic or geometric tail
classification. All fitting runs over exact rationals; floats appear only
when callers format output.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from fractions import Fraction

from .errors import InsufficientSamples, ResourceLimit, RingMismatch, SampleMismatch
from .presentations import (
    IdealSpec,
    ModulePresentation,
    RingSpec,
    length_mod_frobenius,
)

PERIOD_MAX = 6
PIN_DENOMINATOR_CAP = 10**12


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
    method: str  # polynomial_fit | geometric_tail | periodic_pin | rational_pin | refined_sequence


@dataclass(frozen=True)
class SecondCoefficient:
    """The q^{d-1} coefficient of a length function (beta for a ring, tau
    for a module against it): its sequence and one accelerated limit."""

    sequence: tuple[Fraction, ...]
    extrapolated: Fraction


@dataclass(frozen=True)
class PolynomialFit:
    """Coefficients c_0..c_d of c_0 q^d + c_1 q^{d-1} + ... + c_d."""

    coefficients: tuple[Fraction, ...]
    status: str  # "verified" when spare samples confirmed the fit
    verified_samples: int


@dataclass(frozen=True)
class PeriodicTail:
    period: int
    start_n: int
    residues: tuple[Fraction, ...]  # indexed by n mod period


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
    polynomial_fit: PolynomialFit | None
    periodic_tail: PeriodicTail | None
    geometric_tail: GeometricTail | None
    tail_classification: str  # polynomial | geometric | periodic | unclassified
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
                raise ResourceLimit(
                    f"no samples completed within the time budget; {skipped}"
                ) from exc
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


def _solve_exact(matrix: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """Gaussian elimination over the rationals; matrix must be square and
    nonsingular (always true for distinct q powers)."""
    m = len(matrix)
    a = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(m):
        pivot = next(r for r in range(col, m) if a[r][col] != 0)
        a[col], a[pivot] = a[pivot], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(m):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [a[r][m] for r in range(m)]


def _expansion(coeffs, q: int, d: int) -> Fraction:
    """sum(c_i q^{d-i}): coefficients listed from q^d down, at q."""
    q = Fraction(q)
    return sum((c * q ** (d - i) for i, c in enumerate(coeffs)), Fraction(0))


def fit_polynomial(series: HKSeries) -> PolynomialFit | None:
    """Exact polynomial fit in q of degree d, or None.

    Solves for the d+1 coefficients on the first d+1 samples and accepts
    only if every remaining sample is reproduced exactly. With no spare
    samples the fit is reported with status "unverified".
    """
    d = series.d
    m = d + 1
    samples = series.samples
    if len(samples) < m:
        raise InsufficientSamples(
            f"need at least {m} samples for a degree-{d} fit, have {len(samples)}"
        )
    rows = [
        [Fraction(s.q) ** (d - i) for i in range(m)] for s in samples[:m]
    ]
    rhs = [Fraction(s.length) for s in samples[:m]]
    coeffs = _solve_exact(rows, rhs)
    spare = samples[m:]
    if any(_expansion(coeffs, s.q, d) != s.length for s in spare):
        return None
    status = "verified" if spare else "unverified"
    return PolynomialFit(tuple(coeffs), status, len(spare))


def detect_periodic_tail(
    series: HKSeries, leading: list[Fraction]
) -> PeriodicTail | None:
    """Smallest eventual period of t_n = length_n - sum(leading_i q^{d-i}).

    Periods 1..PERIOD_MAX are tried. A period P is accepted when the
    residuals agree on every class n mod P over a tail of more than 2P
    samples: each class observed twice, and one sample spare, since the
    anchor behind the residuals can make two of them agree by
    construction. Residues are reported indexed by n mod P.
    """
    if len(series.samples) < 2:
        raise InsufficientSamples("periodic detection needs at least 2 samples")
    d = series.d
    t = {s.n: s.length - _expansion(leading, s.q, d) for s in series.samples}
    ns = sorted(t)
    for period in range(1, PERIOD_MAX + 1):
        for start_idx in range(len(ns)):
            tail = ns[start_idx:]
            if len(tail) <= 2 * period:
                break
            # n is consecutive, so agreeing one period apart is agreeing
            # on each class, and the tail's first period meets every class
            if all(t[n] == t[n + period] for n in tail[: len(tail) - period]):
                residues = (t[tail[0] + (r - tail[0]) % period] for r in range(period))
                return PeriodicTail(period, tail[0], tuple(residues))
    return None


def fit_geometric_tail(series: HKSeries) -> GeometricTail | None:
    """Fit length_n = a*q^d + c*r^n exactly with integer 2 <= r < p^d.

    That shape makes D_n = length_{n+1} - p^d*length_n equal
    c*r^n*(r - p^d), so r = D_1/D_0 is the only candidate, and D_0 gives c
    (nonzero exactly when D_0 is). The fit is accepted only if every sample
    is reproduced; three samples are needed, so that one is spare. The
    ratio p^d itself is excluded (that shape is the polynomial fit's job).
    """
    samples = series.samples
    d = series.d
    if len(samples) < 3 or d < 1:
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


def geometric_accelerate(seq: list[Fraction], p: int) -> list[Fraction]:
    """One Richardson step for sequences with O(1/q) error: the p-weighted
    difference (p*a_{n+1} - a_n)/(p-1) cancels the leading error term."""
    return [(p * b - a) / (p - 1) for a, b in zip(seq, seq[1:])]


def _convergents(x: Fraction, den_cap: int = PIN_DENOMINATOR_CAP) -> list[Fraction]:
    """Continued-fraction convergents of x, in increasing denominator order."""
    out = []
    num, den = x.numerator, x.denominator
    h0, k0, h1, k1 = 0, 1, 1, 0
    while den:
        a, rem = divmod(num, den)
        h0, k0, h1, k1 = h1, k1, a * h1 + h0, a * k1 + k0
        if k1 > den_cap:
            break
        out.append(Fraction(h1, k1))
        num, den = den, rem
    return out


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
    d = series.d
    return [
        (s.length - _expansion([alpha], s.q, d)) / Fraction(s.q) ** (d - 1)
        for s in series.samples
    ]


def _pin_by_beta_residuals(series: HKSeries, anchor: Fraction) -> Fraction | None:
    """Smallest-denominator convergent of the anchor whose beta residuals
    are Cauchy-like: successive |beta_{n+1} - beta_n| never increase. A
    wrong alpha makes the residuals drift linearly in q, which shows up as
    growing differences."""
    if len(series.samples) < 3:
        return None
    for cand in _convergents(anchor):
        betas = _beta_sequence(series, cand)
        diffs = [abs(b - a) for a, b in zip(betas, betas[1:])]
        if all(y <= x for x, y in zip(diffs, diffs[1:])):
            return cand
    return None


def _pin_by_periodicity(
    series: HKSeries, anchor: Fraction
) -> tuple[Fraction, PeriodicTail] | None:
    if len(series.samples) < 4:
        return None
    for cand in _convergents(anchor):
        tail = detect_periodic_tail(series, [cand])
        if tail is not None:
            return cand, tail
    return None


def _alpha(
    series: HKSeries,
    fit: PolynomialFit | None,
    geometric: GeometricTail | None,
) -> tuple[AlphaEstimate, PeriodicTail | None]:
    """Raw and refined alpha sequences plus a single extrapolated value,
    with the periodic tail when a periodic pin fixed it (None otherwise).

    The extrapolated value prefers exact structure, in order: a verified
    polynomial fit's leading coefficient, a verified geometric-tail leading
    coefficient, a rational pinned by exact residual periodicity, a rational
    pinned by the beta-residual test, and finally the last refined entry.
    """
    if len(series.samples) < 2:
        raise InsufficientSamples("alpha estimation needs at least 2 samples")
    raw = tuple(Fraction(s.length, s.q**series.d) for s in series.samples)
    refined = tuple(_refined_alpha(series))
    anchor = refined[-1]
    if fit is not None and fit.status == "verified":
        return AlphaEstimate(raw, refined, fit.coefficients[0], "polynomial_fit"), None
    if geometric is not None:
        return AlphaEstimate(raw, refined, geometric.leading, "geometric_tail"), None
    pinned = _pin_by_periodicity(series, anchor)
    if pinned is not None:
        return AlphaEstimate(raw, refined, pinned[0], "periodic_pin"), pinned[1]
    by_beta = _pin_by_beta_residuals(series, anchor)
    if by_beta is not None:
        return AlphaEstimate(raw, refined, by_beta, "rational_pin"), None
    return AlphaEstimate(raw, refined, anchor, "refined_sequence"), None


def _second_coefficient(seq: list, p: int, too_short: str) -> SecondCoefficient:
    """seq and one Richardson step's last value; too_short is the error
    message when seq has fewer than 2 terms."""
    if len(seq) < 2:
        raise InsufficientSamples(too_short)
    return SecondCoefficient(tuple(seq), geometric_accelerate(seq, p)[-1])


def estimate_beta(series: HKSeries, alpha: Fraction) -> SecondCoefficient:
    """beta_n = (phi_n - alpha q^d)/q^{d-1} and its accelerated limit.

    alpha must be exact; an alpha off by epsilon shifts every beta_n by
    epsilon*q, which is why callers withhold beta when alpha is only known
    to O(1/q).
    """
    return _second_coefficient(
        _beta_sequence(series, alpha), series.p, "beta estimation needs at least 2 samples"
    )


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


def estimate_tau(deltas, p: int, d: int, n_start: int = 1) -> SecondCoefficient:
    """tau_n = delta_n / q^{d-1} and its accelerated limit."""
    seq = [
        Fraction(dl) / Fraction(p ** (n_start + i)) ** (d - 1)
        for i, dl in enumerate(deltas)
    ]
    return _second_coefficient(seq, p, "tau estimation needs at least 2 deltas")


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
    fit = None
    if len(series.samples) >= d + 1:
        fit = fit_polynomial(series)
    geometric = None
    if fit is None or fit.status != "verified":
        geometric = fit_geometric_tail(series)
    alpha, periodic = _alpha(series, fit, geometric)

    beta = None
    if alpha.method == "refined_sequence":
        warnings.append(
            "beta withheld: alpha could not be pinned exactly from the samples"
        )
    else:
        beta = estimate_beta(series, alpha.extrapolated)

    if alpha.method in ("rational_pin", "refined_sequence"):
        periodic = detect_periodic_tail(series, [alpha.extrapolated])
    classification = {
        "polynomial_fit": "polynomial", "geometric_tail": "geometric"
    }.get(alpha.method, "unclassified" if periodic is None else "periodic")
    return AsymptoticReport(
        alpha=alpha,
        beta=beta,
        polynomial_fit=fit,
        periodic_tail=periodic,
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
    against the rank-r free comparison; flags alpha(M) vs r*alpha(R)."""
    base = analyze_series(series_m)
    warnings = list(base.warnings)
    deltas = delta_sequence(series_m, series_r, r)
    p, d = series_m.p, series_m.d
    n_start = series_m.samples[0].n
    tau = estimate_tau(deltas, p, d, n_start)
    recursion = check_delta_recursion(deltas, p, d, n_start)
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

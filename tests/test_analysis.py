"""Transition probabilities, tail sums, rate formulas, reference presets."""

import hashlib
import random
from dataclasses import replace
from fractions import Fraction
from math import ceil, comb, exp, factorial, isclose, lgamma, log

import pytest

from delchan.analysis import (
    ProbReport,
    presets,
    probs_bdc_bounds,
    probs_prc_bounds,
    rate_mu,
    transition_probs,
    verify_preset,
)
from delchan.channels import ChannelModel, ceil_snapped
from delchan.inner import binary_entropy


def exact_at_means(channel, M1, M2, T, beta1):
    """transition_probs with the runs sized for target means M1 and M2."""
    return transition_probs(channel, channel.run_length(M1), channel.run_length(M2), T, beta1)


def binom_cdf_oracle(n, p, t):
    """Exact rational binomial CDF at the rational success probability p."""
    return float(sum(comb(n, k) * p**k * (1 - p) ** (n - k) for k in range(t + 1)))


def gamma_oracle(preset):
    """Exact rational gamma of a fixed-p row, its decimals taken as printed."""
    p = Fraction(str(preset.p_or_lam))
    keep = 1 - p

    def cdf(n, t):
        return sum(comb(n, k) * keep**k * p ** (n - k) for k in range(t + 1))

    b1 = Fraction(str(preset.beta1))
    b2 = (1 - b1) / 2
    p12 = 1 - cdf(preset.N1, preset.T)
    p10 = p**preset.N1
    p21 = cdf(preset.N2, preset.T)
    p20 = p**preset.N2
    return b1 * p12 + b2 * p21 + (2 * b1 + b2) * p10 + 4 * b2 * p20


def test_binary_entropy():
    assert binary_entropy(0.5) == 1.0
    assert isclose(binary_entropy(0.11), binary_entropy(0.89))
    with pytest.raises(ValueError):
        binary_entropy(0.0)


def test_binom_tails_against_rational_oracle():
    rnd = random.Random(17)
    for _ in range(50):
        n = rnd.randrange(1, 60)
        num = rnd.randrange(1, 10)
        t = rnd.randrange(-1, n + 2)
        channel = ChannelModel("bdc", num / 10)
        exact = binom_cdf_oracle(n, Fraction(1.0 - channel.parameter), t)
        assert abs(channel.at_most(n, t) - exact) < 1e-12
        assert abs(channel.more_than(n, t) - (1.0 - exact)) < 1e-12


def test_binom_tails_extreme_n():
    # the largest blow-up factor in the reference tables
    channel = ChannelModel("bdc", 0.99)
    v = channel.at_most(2280, 12)
    assert 0.0 < v < 0.02
    assert abs(channel.at_most(2280, 12) + channel.more_than(2280, 12) - 1.0) < 1e-12


def poisson(mu):
    """The repeat channel whose one-bit survivor law is Poisson(mu)."""
    return ChannelModel("prc", mu)


def test_poisson_tails():
    assert isclose(poisson(2.0).at_most(1, 0), exp(-2.0), rel_tol=1e-12)
    assert isclose(poisson(2.0).at_most(1, 1), 3.0 * exp(-2.0), rel_tol=1e-12)
    assert isclose(poisson(2.0).more_than(1, 1), 1.0 - 3.0 * exp(-2.0), rel_tol=1e-9)
    assert poisson(2.0).at_most(0, 3) == 1.0  # a run of no bits: Poisson(0)
    assert poisson(2.0).more_than(0, 3) == 0.0 and poisson(2.0).more_than(1, -1) == 1.0


def test_poisson_sf_keeps_small_tails():
    # summed directly, not as 1 - cdf, which saturates at one ulp (2.2e-16)
    for mu, t in [(4.0, 40), (0.5, 20), (13.5, 80)]:
        series = sum(Fraction(mu) ** k / factorial(k) for k in range(t + 1, t + 200))
        tail = poisson(mu).more_than(1, t)
        assert isclose(tail, exp(-mu) * float(series), rel_tol=1e-12), (mu, t)
    assert 1e-28 < poisson(4.0).more_than(1, 40) < 1e-26


def test_poisson_limit_of_binomial():
    # Pr[Bin(n, mu/n) = k] approaches the Poisson pmf
    n = 10**5
    for mu in (1.0, 4.0, 13.5):
        for k in range(6):
            binom_pmf = exp(
                lgamma(n + 1) - lgamma(k + 1) - lgamma(n - k + 1)
                + k * log(mu / n) + (n - k) * log(1 - mu / n)
            )
            poisson_pmf = exp(-mu + k * log(mu) - lgamma(k + 1))
            assert abs(binom_pmf - poisson_pmf) < 1e-3


def test_binom_cdf_monotone_in_n():
    mu = 13.5
    # below the mean: probability of staying under T grows with n
    low = [ChannelModel("bdc", 1 - mu / n).at_most(n, 8) for n in (20, 40, 80, 160, 320)]
    assert all(a < b for a, b in zip(low, low[1:]))
    # above the mean: it shrinks with n
    high = [ChannelModel("bdc", 1 - mu / n).at_most(n, 16) for n in (20, 40, 80, 160, 320)]
    assert all(a > b for a, b in zip(high, high[1:]))


def test_poisson_tail_monotone_in_mean():
    vals = [poisson(mu).more_than(1, 12) for mu in (4.0, 4.5, 5.0, 5.5, 6.0)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_probreport_aggregates():
    r = ProbReport(p12=0.01, p10=0.002, p21=0.03, p20=0.001, beta1=0.52)
    b1, b2 = 0.52, 0.24
    assert abs(r.gamma - (b1 * 0.01 + b2 * 0.03 + (2 * b1 + b2) * 0.002 + 4 * b2 * 0.001)) < 1e-15
    assert abs(r.xi - (b1 * (0.01 + 2 * 0.002) + b2 * (0.03 + 3 * 0.001))) < 1e-15
    with pytest.raises(ValueError):
        ProbReport(p12=1.5, p10=0, p21=0, p20=0, beta1=0.5)


def test_probs_bdc_exact_examples():
    half = ChannelModel("bdc", 0.5)
    assert exact_at_means(half, 4.0, 13.5, 7, 0.497).p10 == 0.5**8
    assert abs(exact_at_means(half, 0.5, 2.0, 1, 0.5).p21 - 5 / 16) < 1e-12
    with pytest.raises(ValueError):
        exact_at_means(ChannelModel("bdc", 1.0), 4.0, 13.5, 7, 0.5)


def test_probs_bdc_bounds_validity_guards():
    with pytest.raises(ValueError):
        probs_bdc_bounds(5.41, 22.8, 4, 0.1, 0.522)  # T below M1 + q
    with pytest.raises(ValueError):
        probs_bdc_bounds(5.41, 22.8, 22, 0.1, 0.522)  # T above M2 - 1
    with pytest.raises(ValueError):
        probs_bdc_bounds(5.41, 22.8, 12, 0.1, 0.522, p_eval=0.8)  # outside regime
    with pytest.raises(ValueError, match="outside"):
        probs_bdc_bounds(5.41, 22.8, 12, 1.5, 0.522)  # no deletion regime has 1 - p > 1


def test_bounds_dominate_exact():
    rnd = random.Random(23)
    checked = 0
    while checked < 200:
        p = rnd.uniform(0.75, 0.95)
        q = 1.0 - p
        M1 = rnd.uniform(3.0, 6.0)
        M2 = rnd.uniform(18.0, 25.0)
        lo = int(M1 + q) + 1
        hi = int(M2 - 1)
        if lo > hi:
            continue
        T = rnd.randrange(lo, hi + 1)
        exact = exact_at_means(ChannelModel("bdc", p), M1, M2, T, 0.52)
        bound = probs_bdc_bounds(M1, M2, T, q, 0.52)
        for name in ("p12", "p10", "p21", "p20"):
            assert getattr(exact, name) <= getattr(bound, name) + 1e-12, (
                f"{name} at p={p} M1={M1} M2={M2} T={T}"
            )
        checked += 1


def test_probs_prc():
    half = ChannelModel("prc", 0.5)
    assert isclose(exact_at_means(half, 2.0, 24.2, 13, 0.532).p10, exp(-2.0), rel_tol=1e-12)
    exact = exact_at_means(half, 5.49, 24.2, 13, 0.532)
    bound = probs_prc_bounds(5.49, 24.2, 13, 0.5, 0.532)
    for lam in (0.1, 0.25, 0.5):
        e = exact_at_means(ChannelModel("prc", lam), 5.49, 24.2, 13, 0.532)
        for name in ("p12", "p10", "p21", "p20"):
            assert getattr(e, name) <= getattr(bound, name) + 1e-12
    assert exact.gamma <= bound.gamma + 1e-12
    # a repeat mean above 1 is a valid regime width
    assert probs_prc_bounds(5.49, 24.2, 13, 1.5, 0.532).p21 == bound.p21
    with pytest.raises(ValueError):
        exact_at_means(ChannelModel("prc", -0.5), 5.49, 24.2, 13, 0.532)
    with pytest.raises(ValueError):
        probs_prc_bounds(5.49, 24.2, 13, -0.5, 0.532)
    # the desk PRC scheme's integer factors (N1 = 8, N2 = 27 at lambda = 0.5)
    desk = transition_probs(half, 8, 27, 8, 13 / 25)
    assert desk == exact_at_means(half, 4.0, 13.5, 8, 13 / 25)
    assert desk.p10 == exp(-4.0) and desk.p20 == exp(-13.5)
    assert isclose(desk.p12 + poisson(4.0).at_most(1, 8), 1.0, rel_tol=1e-12)
    assert desk.p21 == poisson(13.5).at_most(1, 8)
    with pytest.raises(ValueError):
        transition_probs(ChannelModel("prc", 0.0), 8, 27, 8, 13 / 25)


def test_rate_formulas():
    # deletion channel at p = 0.5: mu = 1 - p
    with_ceil = rate_mu(4.0, 13.5, 1e-5, 0.497, 0.5, 0.5456, 1 - 2**-20, 1e6)
    no_ceil = rate_mu(4.0, 13.5, 1e-5, 0.497, 0.5, 0.5456, 1 - 2**-20, 1e6, ceiling=False)
    # ceil(4.0 / 0.5) = 8 and ceil(13.5 / 0.5) = 27 bits per 1-/2-run
    from_counts = 0.5456 * (1 - 2**-20) / (
        0.497 * 8 + (1 - 0.497) / 2 * 27 + 1e-5 / 0.5 + 1 / 1e6
    )
    assert isclose(with_ceil, from_counts, rel_tol=1e-12)
    assert no_ceil <= with_ceil * 1.05  # same scale
    # the ceiling-free form is exact when the M/lambda ratios are integers
    prc_ceil = rate_mu(4.0, 13.5, 1e-5, 0.532, 0.5, 0.53186, 1.0, 1e6)
    prc_floor = rate_mu(4.0, 13.5, 1e-5, 0.532, 0.5, 0.53186, 1.0, 1e6, ceiling=False)
    assert isclose(prc_ceil, prc_floor, rel_tol=1e-3)
    # rate vanishes with the repeat mean
    tiny = rate_mu(5.49, 24.2, 1e-5, 0.532, 1e-4, 0.53186, 1.0, 1e6, ceiling=False)
    assert tiny < 1e-5
    # a fixed-p row's targets N * mu snap back to the row's own N
    for preset in presets():
        if preset.kind == "bdc_row":
            mu = 1.0 - preset.p_or_lam
            assert ceil_snapped(preset.N1 * mu / mu) == preset.N1
            assert ceil_snapped(preset.N2 * mu / mu) == preset.N2


def test_presets_structure():
    ps = presets()
    assert len(ps) == 15
    names = [p.name for p in ps]
    assert len(set(names)) == 15
    assert sum(p.kind == "bdc_row" for p in ps) == 11
    assert sum(p.kind == "bdc_regime" for p in ps) == 3
    assert sum(p.kind == "prc_regime" for p in ps) == 1


def test_preset_verification_known_status():
    # Every reference parameter set verifies: gamma < delta_in, R_in within
    # 2e-3 of the printed figure, the rate within 1% and above its floor.
    # The p=0.75 and p=0.99 rows hold corrected transcriptions (see presets()
    # and test_delta_in_is_gamma_rounded_up).
    failing = {p.name: verify_preset(p).failures for p in presets()}
    assert {name: f for name, f in failing.items() if f} == {}


def test_preset_probs_are_pinned():
    # Every preset's four probabilities at full precision: a change to a tail
    # sum or a bound that moves any of them by one ulp changes this digest.
    text = "".join(f"{p.name} {p.probs()!r}\n" for p in presets())
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "3428c1ee3210fd30e9230db421e3b49a2fd1205d7ee2955c310427ad334da590"


def test_verification_reports_detail():
    # The published p=0.99 figure delta_in = 0.00985 sits just below gamma.
    preset = next(p for p in presets() if p.name == "bdc_p0.99")
    published = replace(preset, delta_in=0.00985)
    v = verify_preset(published)
    assert any("gamma" in f for f in v.failures)
    assert v.report.gamma - published.delta_in < 1e-5  # near-miss, not a blowup


def test_gamma_matches_rational_oracle():
    rows = {p.name: p for p in presets() if p.kind == "bdc_row"}
    for name in ("bdc_p0.99", "bdc_p0.75"):
        exact = gamma_oracle(rows[name])
        assert isclose(rows[name].probs().gamma, float(exact), rel_tol=1e-12)
    # the published p=0.99 delta_in lies below gamma; N1 = 19 at p=0.75
    # lands gamma under the row's printed 0.00910
    assert gamma_oracle(rows["bdc_p0.99"]) > Fraction("0.00985")
    assert rows["bdc_p0.75"].N1 == 19
    assert gamma_oracle(rows["bdc_p0.75"]) < Fraction("0.0091")


def test_delta_in_is_gamma_rounded_up():
    # The fixed-p table prints delta_in as gamma rounded up to 5 decimals.
    for preset in (p for p in presets() if p.kind == "bdc_row"):
        rounded_up = Fraction(ceil(gamma_oracle(preset) * 10**5), 10**5)
        assert Fraction(str(preset.delta_in)) == rounded_up, preset.name

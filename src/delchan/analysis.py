"""Run-transition probabilities, rate formulas, and reference parameter sets.

A blown-up 1-run of N1 bits arrives with Z survivors; the decoder misreads
it as a 2-run when Z > T and loses it when Z = 0, and symmetrically for
2-runs. This module computes those four transition probabilities exactly,
from the channel's own survivor law (one path for both channels), or as
channel-parameter-uniform upper bounds, and aggregates them into the
decodability coefficient gamma and the distortion lower-bound coefficient
xi. It also evaluates the overall rate formulas and ships the reference
parameter sets with a verifier.
"""

from __future__ import annotations

from dataclasses import dataclass

from .channels import ChannelModel, ceil_snapped
from .inner import inner_rate_formula


@dataclass(frozen=True)
class ProbReport:
    """The four run-transition probabilities and their aggregates.

    gamma bounds the expected per-bit edit distortion of a decoded inner
    codeword from above (decodability needs gamma < delta_in); xi bounds it
    from below.
    """

    p12: float
    p10: float
    p21: float
    p20: float
    beta1: float

    def __post_init__(self) -> None:
        for name in ("p12", "p10", "p21", "p20"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} = {v} outside [0, 1]")

    @property
    def beta2(self) -> float:
        return (1.0 - self.beta1) / 2.0

    @property
    def gamma(self) -> float:
        b1, b2 = self.beta1, self.beta2
        return b1 * self.p12 + b2 * self.p21 + (2 * b1 + b2) * self.p10 + 4 * b2 * self.p20

    @property
    def xi(self) -> float:
        b1, b2 = self.beta1, self.beta2
        return b1 * (self.p12 + 2 * self.p10) + b2 * (self.p21 + 3 * self.p20)


def transition_probs(
    channel: ChannelModel, N1: int, N2: int, T: int, beta1: float
) -> ProbReport:
    """Exact transition probabilities of runs blown up to N1 and N2 bits;
    for target means M pass channel.run_length(M)."""
    return ProbReport(
        p12=channel.more_than(N1, T),
        p10=channel.none_left(N1),
        p21=channel.at_most(N2, T),
        p20=channel.none_left(N2),
        beta1=beta1,
    )


def uniform_bounds(
    M1: float, M2: float, T: int, width: float, beta1: float, *, p_eval: float | None = None,
) -> ProbReport:
    """Upper bounds valid uniformly over the regime of every channel with at
    most `width` expected survivors per bit: {p : 1 - p <= width} on the
    deletion channel, {lambda' <= width} on the repeat channel.

    The 1-run-to-2-run bound is the Poisson-limit tail at mean M1 + width,
    which dominates the binomial tail for every p in the regime; it needs
    T >= M1 + width. With a deletion probability p_eval given and
    N1 = ceil(M1/(1-p_eval)) <= T, the N1 bits of a 1-run can never leave
    more than T survivors, so that probability is 0.

    The other three probabilities are monotone in p, so with p_eval given
    they are evaluated exactly at the regime's worst p; without it the
    Poisson-limit bounds e^{-M1}, e^{-M2}*(tail), e^{-M2} are used, the
    middle one requiring T <= M2 - 1. A Poisson(M) tail is the survivor law
    of one bit on a repeat channel of mean M, so the bounds read the one law
    ChannelModel writes, and this module never branches on a channel's kind.
    """
    if not width > 0.0:
        raise ValueError(f"regime width {width} must be positive")
    worst = None if p_eval is None else ChannelModel("bdc", p_eval)
    if worst is not None and worst.run_length(M1) <= T:
        p12 = 0.0
    else:
        if T < M1 + width:
            raise ValueError(f"T = {T} below M1 + {width} = {M1 + width}; bound invalid")
        p12 = ChannelModel("prc", M1 + width).more_than(1, T)
    if worst is None:
        if T > M2 - 1:
            raise ValueError(f"T = {T} above M2 - 1 = {M2 - 1}; bound invalid")
        one, two = ChannelModel("prc", M1), ChannelModel("prc", M2)
        p10, p21, p20 = one.none_left(1), two.at_most(1, T), two.none_left(1)
    else:
        if 1.0 - p_eval > width + 1e-12:
            raise ValueError(f"p_eval outside the regime {{p : 1 - p <= {width}}}")
        exact = transition_probs(worst, worst.run_length(M1), worst.run_length(M2), T, beta1)
        p10, p21, p20 = exact.p10, exact.p21, exact.p20
    return ProbReport(p12=p12, p10=p10, p21=p21, p20=p20, beta1=beta1)


def rate_mu(
    M1: float, M2: float, M_B: float, beta1: float, mu: float, R_in: float,
    R_out: float, m: float, *, ceiling: bool = True,
) -> float:
    """Overall rate R_in * R_out over the expected transmitted bits per inner
    bit, for mu expected survivors per transmitted bit (1 - p on the deletion
    channel, lambda on the repeat channel).

    With ceiling, runs take N = ceil(M/mu) bits and a buffer at most
    M_B*m/mu + 1 bits, so an inner bit costs beta1*N1 + beta2*N2 + M_B/mu + 1/m;
    ceiling-free takes N = M/mu and B = M_B*m/mu exactly.
    """
    beta2 = (1.0 - beta1) / 2.0
    if not ceiling:
        return R_in * R_out * mu / (beta1 * M1 + beta2 * M2 + M_B)
    N1 = ceil_snapped(M1 / mu)
    N2 = ceil_snapped(M2 / mu)
    return R_in * R_out / (beta1 * N1 + beta2 * N2 + M_B / mu + 1.0 / m)


# Reference evaluation context for reproducing printed rates: an outer code
# of rate 1 - 2^-20, a very long inner block so the 1/m term is negligible,
# and a negligible buffer scale.
REF_R_OUT = 1.0 - 2.0**-20
REF_M = 1.0e6
REF_M_B = 1.0e-5


@dataclass(frozen=True)
class Preset:
    """One reference parameter set with its published figures of merit."""

    name: str
    kind: str  # "bdc_row", "bdc_regime", "prc_regime"
    p_or_lam: float  # fixed p / lambda, or the regime's worst value
    beta1: float
    T: int
    delta_in: float
    expected_R_in: float
    expected_rate: float | None = None
    N1: int | None = None  # fixed-p rows specify integer factors directly
    N2: int | None = None
    M1: float | None = None  # regimes specify targets
    M2: float | None = None
    width: float | None = None  # regimes: largest mean survivors per bit (1 - p, lambda)
    p_eval: float | None = None  # regime worst case for monotone-exact bounds

    @property
    def channel(self) -> ChannelModel:
        """The fixed-p row's channel, or the regime's worst one."""
        return ChannelModel("prc" if self.kind == "prc_regime" else "bdc", self.p_or_lam)

    def probs(self) -> ProbReport:
        if self.width is None:
            return transition_probs(self.channel, self.N1, self.N2, self.T, self.beta1)
        return uniform_bounds(self.M1, self.M2, self.T, self.width, self.beta1,
                              p_eval=self.p_eval)

    def computed_R_in(self) -> float:
        return inner_rate_formula(self.beta1, self.delta_in)

    def computed_rate(self) -> float:
        """Rate in the reference context (printed R_in, reference R_out/m)."""
        mu = self.channel.mean_copies
        if self.kind == "bdc_row":
            # ceil(N * mu / mu) snaps back to the row's own N
            M1, M2 = self.N1 * mu, self.N2 * mu
        else:
            M1, M2 = self.M1, self.M2
        return rate_mu(
            M1, M2, REF_M_B, self.beta1, mu, self.expected_R_in, REF_R_OUT, REF_M
        )


def presets() -> list[Preset]:
    """The eleven fixed-p rows, three deletion regimes, one repeat regime.

    In every fixed-p row delta_in is the row's exact gamma rounded up to 5
    decimals; two transcribed figures broke that convention and are
    corrected below, each with its evidence.
    """
    rows = [
        # (p, beta1, N1, T, N2, R_in, delta_in, final_rate)
        (0.50, 0.497, 8, 7, 27, 0.5456, 0.00922, 0.050682),
        (0.55, 0.519, 9, 8, 34, 0.5525, 0.00825, 0.043005),
        (0.60, 0.508, 10, 8, 38, 0.5184, 0.01120, 0.035935),
        (0.65, 0.519, 13, 9, 49, 0.5545, 0.00810, 0.029926),
        (0.70, 0.509, 15, 9, 57, 0.5267, 0.01051, 0.024353),
        # Transcribed as N1 = 20, which gives gamma 0.0086049 (would print
        # as 0.00861) and rate 0.019061, 1.85% off the printed 0.019420.
        # N1 = 19 gives gamma 0.0090977, printed 0.00910, and rate
        # 0.0194202, printed 0.019420: both other figures fit N1 = 19.
        (0.75, 0.524, 19, 10, 75, 0.5400, 0.00910, 0.019420),
        (0.80, 0.514, 24, 10, 96, 0.5289, 0.01022, 0.014830),
        (0.85, 0.526, 34, 11, 138, 0.5413, 0.00895, 0.010701),
        (0.90, 0.537, 54, 12, 224, 0.5534, 0.00773, 0.006845),
        (0.95, 0.530, 108, 12, 452, 0.5402, 0.00893, 0.003305),
        # Transcribed as delta_in = 0.00985, below the exact rational gamma
        # 0.0098540484..., so the row broke gamma < delta_in. 0.00986 is
        # gamma rounded up; its R_in 0.531746 still fits the printed 0.5318.
        (0.99, 0.520, 541, 12, 2280, 0.5318, 0.00986, 0.000641),
    ]
    out = [
        Preset(
            name=f"bdc_p{p:.2f}", kind="bdc_row", p_or_lam=p, beta1=b1, T=T,
            delta_in=din, expected_R_in=rin, expected_rate=rate, N1=n1, N2=n2,
        )
        for p, b1, n1, T, n2, rin, din, rate in rows
    ]
    out.append(Preset(
        name="bdc_regime_high", kind="bdc_regime", p_or_lam=0.99, beta1=0.522,
        T=12, delta_in=0.01052, expected_R_in=0.5229,
        M1=5.41, M2=22.8, width=0.1,
    ))
    out.append(Preset(
        name="bdc_regime_mid", kind="bdc_regime", p_or_lam=0.9, beta1=0.530,
        T=13, delta_in=0.008013, expected_R_in=0.55224,
        M1=5.59, M2=23.5, width=0.43, p_eval=0.9,
    ))
    out.append(Preset(
        name="bdc_regime_low", kind="bdc_regime", p_or_lam=0.57, beta1=0.530,
        T=13, delta_in=0.006147, expected_R_in=0.577475,
        M1=5.59, M2=20.21, width=0.43, p_eval=0.57,
    ))
    out.append(Preset(
        name="prc_regime", kind="prc_regime", p_or_lam=0.5, beta1=0.532,
        T=13, delta_in=0.00954, expected_R_in=0.53186,
        M1=5.49, M2=24.2, width=0.5,
    ))
    return out


@dataclass(frozen=True)
class PresetVerification:
    report: ProbReport
    R_in: float
    rate: float
    rel_err: float | None  # |rate - expected_rate| / expected_rate; None without expected_rate
    failures: tuple[str, ...]


def verify_preset(preset: Preset) -> PresetVerification:
    """Recompute everything a preset claims and list any broken inequality."""
    failures: list[str] = []
    report = preset.probs()
    if report.gamma >= preset.delta_in:
        failures.append(
            f"gamma {report.gamma:.6g} >= delta_in {preset.delta_in:.6g}"
            f" (excess {report.gamma - preset.delta_in:.3g})"
        )
    r_in = preset.computed_R_in()
    if abs(r_in - preset.expected_R_in) > 2e-3:
        failures.append(
            f"R_in formula {r_in:.6f} vs expected {preset.expected_R_in:.6f}"
            f" (|diff| {abs(r_in - preset.expected_R_in):.2e} > 2e-3)"
        )
    rate, rel = preset.computed_rate(), None
    if preset.expected_rate is not None:
        rel = abs(rate - preset.expected_rate) / preset.expected_rate
        if rel > 0.01:
            failures.append(
                f"rate {rate:.6g} vs expected {preset.expected_rate:.6g}"
                f" (rel err {rel:.2e} > 1e-2)"
            )
    if preset.kind == "bdc_row":
        floor_rate = (1.0 - preset.p_or_lam) / 16.0
        if rate < floor_rate:
            failures.append(f"rate {rate:.6g} < (1-p)/16 = {floor_rate:.6g}")
    if preset.kind == "prc_regime":
        floor_rate = preset.p_or_lam / 17.0
        if rate <= floor_rate:
            failures.append(f"rate {rate:.6g} <= lambda/17 = {floor_rate:.6g}")
    return PresetVerification(report, r_in, rate, rel, tuple(failures))

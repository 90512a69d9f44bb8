"""Coding schemes for bit-deletion and Poisson-repeat channels.

The pipeline concatenates an insertion/deletion-robust outer code with a
greedily constructed inner code over run-length-constrained binary strings,
blows runs up to channel-matched lengths, and separates blocks with zero
buffers. Submodules:

  strings  — run-length utilities, LCS/edit distance, the constrained family,
             the one key=value reader (descriptors, configs, code-file headers)
  inner    — greedy inner codebook, inner rate formula, insertion/deletion balls
  outer    — q-ary outer code with symbol-level edit-distance decoding
  channels — seeded deletion and Poisson-repeat channels, each owning its
             survivor law: the draws, the exact tails and the run lengths
  scheme   — transmissions as run arrays (one layout builder), the
             run-level threshold decoder, block classify (error events and X
             from layouts and copy counts, no decoding), the descriptors and
             their typed keys
  analysis — transition probabilities (one exact path from the channel's
             law, uniform bounds), the overall rate in terms of the mean
             survivors per bit mu (1 - p or lambda), reference presets
  harness  — Monte Carlo experiments with deterministic reports
  cli      — command-line front end
"""

from .analysis import (
    Preset,
    ProbReport,
    presets,
    probs_bdc_bounds,
    probs_prc_bounds,
    rate_mu,
    transition_probs,
    verify_preset,
)
from .channels import ChannelModel, RngStream
from .inner import InnerCodebook, InnerParams, construct_inner, inner_rate_formula
from .outer import OuterCode, OuterSpec, construct_outer
from .scheme import (
    Scheme,
    SchemeParams,
    assemble_scheme,
    classify,
    lay_out,
    load_scheme,
    save_scheme,
    threshold_decode,
    window_spans,
)
from .strings import SProfile, edit_distance, enumerate_S, in_S, lcs_len

__all__ = [
    "ChannelModel",
    "InnerCodebook",
    "InnerParams",
    "OuterCode",
    "OuterSpec",
    "Preset",
    "ProbReport",
    "RngStream",
    "SProfile",
    "Scheme",
    "SchemeParams",
    "assemble_scheme",
    "classify",
    "construct_inner",
    "construct_outer",
    "edit_distance",
    "enumerate_S",
    "in_S",
    "inner_rate_formula",
    "lay_out",
    "lcs_len",
    "load_scheme",
    "presets",
    "probs_bdc_bounds",
    "probs_prc_bounds",
    "rate_mu",
    "save_scheme",
    "threshold_decode",
    "transition_probs",
    "verify_preset",
    "window_spans",
]

__version__ = "0.1.0"

"""Coding schemes for bit-deletion and Poisson-repeat channels.

The pipeline concatenates an insertion/deletion-robust outer code with a
greedily constructed inner code over run-length-constrained binary strings,
blows runs up to channel-matched lengths, and separates blocks with zero
buffers. Submodules:

  strings  — run-length utilities, LCS/edit distance, the constrained family,
             the one key=value reader (descriptors, configs, code-file headers)
  inner    — greedy inner codebook, inner rate formula
  outer    — q-ary outer code with symbol-level edit-distance decoding
  channels — seeded deletion and Poisson-repeat channels, each owning its
             survivor law: the draws (one 64-bit word per run, inverted
             through a cached CDF table), the exact tails, the run lengths
  scheme   — the built Scheme (N1, N2 and B derived from its parameters,
             its codes checked against them), transmissions as run arrays
             (one layout builder), the run-level threshold decoder, block
             classify (error events and X from layouts and copy counts, no
             decoding), the descriptors and their typed keys
  analysis — transition probabilities (one exact path from the channel's
             law, uniform bounds), the overall rate in terms of the mean
             survivors per bit mu (1 - p or lambda), reference presets
  harness  — Monte Carlo experiments with deterministic reports
  cli      — command-line front end

Each name is imported from its submodule (from delchan.scheme import Scheme);
the package itself exports only __version__.
"""

__version__ = "0.1.0"

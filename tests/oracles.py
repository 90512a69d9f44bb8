"""Slow reference implementations the package no longer runs, kept for the
tests to compare its fast paths against."""

from delchan.strings import SProfile, enumerate_S, in_S, lcs_len


def scalar_inner_decode(codewords, window: str) -> int:
    """InnerCodebook.decode one codeword at a time: the index of the longest
    LCS with the window, ties to the smallest index."""
    lcs = [lcs_len(c, window) for c in codewords]
    return lcs.index(max(lcs))


def is_subsequence(sub: str, s: str) -> bool:
    """Greedy left-to-right subsequence test."""
    it = iter(s)
    return all(c in it for c in sub)


def insertion_ball_bruteforce(s_sub: str, target: SProfile) -> set[str]:
    """Oracle for inner.embed_all: filter the full family by the subsequence test.

    Desk-scale only; refuses target lengths above 15.
    """
    if target.m > 15:
        raise ValueError("brute-force insertion ball limited to m <= 15")
    if not in_S(s_sub):
        raise ValueError(f"{s_sub!r} is not in S")
    return {s for s in enumerate_S(target) if is_subsequence(s_sub, s)}

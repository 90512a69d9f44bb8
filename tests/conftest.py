"""Shared fixtures. The desk inner code (m = 25) builds in about 22 ms, and the
tests build desk schemes about 30 times in one process, so everything that
needs one goes through the module-level cache in delchan.harness."""

from __future__ import annotations

import pytest

from delchan.harness import cached_inner_codebook, desk_scheme
from delchan.inner import InnerParams
from delchan.strings import SProfile


@pytest.fixture(scope="session")
def m25_codebook():
    """Full 77-codeword inner codebook at (m=25, r1=13, r2=6, d=2)."""
    return cached_inner_codebook(InnerParams(SProfile(25, 13, 6), 2))


@pytest.fixture(scope="session")
def bdc_desk():
    return desk_scheme("bdc")


@pytest.fixture(scope="session")
def prc_desk():
    return desk_scheme("prc")


@pytest.fixture
def announce(capsys):
    """Print a live status line even when the test passes."""

    def _announce(line: str) -> None:
        with capsys.disabled():
            print(line)

    return _announce

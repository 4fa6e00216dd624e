"""Fixtures shared by the test modules."""

import pytest

from urstates import moments, urcheck


@pytest.fixture
def moment_passes(monkeypatch):
    """A list that gains one entry, the shape of psi, per `_pure_moments`
    pass of `moments` or `urcheck`."""
    calls = []
    pure_moments = moments._pure_moments

    def counting(obs, psi):
        calls.append(psi.shape)
        return pure_moments(obs, psi)

    monkeypatch.setattr(moments, "_pure_moments", counting)
    monkeypatch.setattr(urcheck, "_pure_moments", counting)
    return calls

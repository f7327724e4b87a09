from __future__ import annotations

import pytest

from dessins import evolution
from dessins.evolution import ConnectedSeries


@pytest.fixture(scope="session")
def engine6() -> ConnectedSeries:
    return ConnectedSeries.compute(6)


@pytest.fixture(scope="session")
def engine10(engine6) -> ConnectedSeries:
    return engine6.extended_to(10)


@pytest.fixture(scope="session")
def engine14(engine10) -> ConnectedSeries:
    return engine10.extended_to(14)


@pytest.fixture(scope="session")
def engine20(engine14) -> ConnectedSeries:
    return engine14.extended_to(20)


@pytest.fixture
def plant(monkeypatch):
    """plant(d, m, k, g, count=1): make the degree-d step add ``count``
    marked counts (times the step's denominator C) to slot (k, g) of
    profile m, before the step's decode reads it.  A count may be a
    Fraction whose product with C is an int (not divisible by C: a
    non-integral count); plants made in one test all apply."""

    def install(d, m, k, g, count=1):
        real = evolution._next_marked

        def planted(kron, sums, step, W, K):
            acc = real(kron, sums, step, W, K)
            if step == d:
                prof = evolution._PK.encode((0, 0, m))
                raw = count * evolution._step_denominator(d)
                assert raw == int(raw)
                acc[prof] = acc.get(prof, 0) + (int(raw) << W * (k + K * g))
            return acc

        monkeypatch.setattr(evolution, "_next_marked", planted)

    return install

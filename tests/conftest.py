import time

import pytest

from factorbench import errors


@pytest.fixture
def expire_after(monkeypatch):
    """Fake the clock Deadline reads, so that a budget runs out at a chosen
    poll rather than when the host is slow enough. `expire_after(polls,
    started)`: from the first read at which `started()` holds (the first
    read of all by default), `polls` reads still get the real time, and
    every later one a time two minutes on, past the end of a budget of up to
    60 s made before."""

    def install(polls, started=lambda: True):
        real = time.monotonic
        left = None

        def clock():
            nonlocal left
            if left is None and started():
                left = polls
            if left == 0:
                return real() + 120.0
            if left is not None:
                left -= 1
            return real()

        monkeypatch.setattr(errors.time, "monotonic", clock)

    return install

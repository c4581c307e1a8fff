"""The suite's one poll loop for waits on threads, sockets and processes.

``assert wait_until(predicate)`` polls ``predicate`` every ``interval``
seconds until it holds or ``timeout`` seconds pass, and checks it once more at
the deadline.  A wait that times out returns a falsy :class:`TimedOut`
whose repr names the predicate and its last value, so the assertion's own
output says what stayed false.  A predicate that judges several values
returns a :class:`Facts` to have each of them reported by name.
"""

from __future__ import annotations

import time
from typing import Any, Callable


class Facts:
    """A predicate's verdict together with the named values it was judged on."""

    def __init__(self, holds: bool, **values: Any) -> None:
        self.holds = bool(holds)
        self.values = values

    def __bool__(self) -> bool:
        return self.holds

    def __repr__(self) -> str:
        return ", ".join(f"{name}={value!r}" for name, value in self.values.items())


class TimedOut:
    """What a wait that ran out of time returns: falsy, and says what stayed false."""

    def __init__(self, predicate: Callable[[], object], timeout: float, last: object) -> None:
        self.what = getattr(predicate, "__qualname__", repr(predicate))
        self.timeout = timeout
        self.last = last

    def __bool__(self) -> bool:
        return False

    def __repr__(self) -> str:
        return f"TimedOut({self.what} still false after {self.timeout} s; last: {self.last!r})"


def wait_until(predicate: Callable[[], object], timeout: float = 5.0, interval: float = 0.01) -> bool | TimedOut:
    """``True`` once ``predicate()`` holds; a :class:`TimedOut` if it never did by ``timeout``."""
    deadline = time.monotonic() + timeout
    while True:
        last = predicate()
        if last:
            return True
        if time.monotonic() >= deadline:
            return TimedOut(predicate, timeout, last)
        time.sleep(interval)

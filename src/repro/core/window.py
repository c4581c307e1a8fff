"""Window-resolution rules.

The paper's API lets every rate query specify a window (the number of most
recent heartbeats over which the average heart rate is computed) and lets the
application register a *default* window at initialisation time:

* ``HB_current_rate(window=0)`` uses the default window;
* windows larger than the stored history "may be silently clipped";
* implementations should retain at least as much history as the default
  window requested by the application (Section 3).

:func:`resolve_window` states those rules once for one stream and
:func:`resolve_windows` once for a column of them (every row of an arena
slab), so the object API, the functional API, the external monitor and the
fleet read all behave identically.  The rule: a request of 0 reads the
published window, any other request reads ``min(requested, published)``; a
stream with no published window (``<= 0``) is read at ``max(requested, 1)``;
the result is clipped to the beats retained.
"""

from __future__ import annotations

import numpy as np

from repro.core.errors import InvalidWindowError

__all__ = [
    "resolve_window",
    "resolve_windows",
    "validate_default_window",
    "DEFAULT_WINDOW",
    "MAX_WINDOW",
]

#: Default window used when the application does not specify one.
DEFAULT_WINDOW = 20

#: Upper bound on history retained by the in-memory and shared-memory
#: backends.  The paper allows implementations to "restrict the maximum
#: window size to limit the resources used to store heartbeat history".
MAX_WINDOW = 65536


def validate_default_window(window: int) -> int:
    """Validate the default window passed to ``HB_initialize``.

    Returns the validated window.  ``0`` selects :data:`DEFAULT_WINDOW`.
    """
    if isinstance(window, bool) or not isinstance(window, int):
        raise InvalidWindowError(f"window must be an int, got {window!r}")
    if window < 0:
        raise InvalidWindowError(f"window must be >= 0, got {window}")
    if window == 0:
        return DEFAULT_WINDOW
    if window > MAX_WINDOW:
        return MAX_WINDOW
    return window


def _check_request(requested: int) -> None:
    if isinstance(requested, bool) or not isinstance(requested, int):
        raise InvalidWindowError(f"window must be an int, got {requested!r}")
    if requested < 0:
        raise InvalidWindowError(f"window must be >= 0, got {requested}")


def resolve_window(requested: int, default_window: int, available: int) -> int:
    """Resolve the window actually used for a heart-rate query.

    Parameters
    ----------
    requested:
        Window requested by the caller.  ``0`` means "use the default
        window" per the paper's API.
    default_window:
        The default window registered at initialisation time (``<= 0``:
        none was published, and the request is read as it stands).
    available:
        Number of heartbeats currently retained in the history buffer.

    Returns
    -------
    int
        The effective window: the requested (or default) window, silently
        clipped first to the default window when a larger value is requested
        — "if window values larger than the default are passed to
        HB_current_rate they may be silently clipped to the default value" —
        and then to the available history.
    """
    _check_request(requested)
    if default_window <= 0:
        window = max(requested, 1)
    else:
        window = default_window if requested == 0 else min(requested, default_window)
    return min(window, available)


def resolve_windows(requested: int, default_window: np.ndarray, available: np.ndarray) -> np.ndarray:
    """:func:`resolve_window` for a column of streams read at one request."""
    _check_request(requested)
    published = np.where(default_window > 0, default_window, max(requested, 1))
    window = published if requested == 0 else np.minimum(requested, published)
    return np.minimum(window, available)

"""Tests for the window-resolution rules of the API."""

from __future__ import annotations

import pytest

from repro.core.errors import InvalidWindowError
from repro.core.window import DEFAULT_WINDOW, MAX_WINDOW, resolve_window, validate_default_window


class TestValidateDefaultWindow:
    def test_zero_selects_library_default(self):
        assert validate_default_window(0) == DEFAULT_WINDOW

    def test_positive_window_kept(self):
        assert validate_default_window(37) == 37

    def test_oversized_window_clamped(self):
        assert validate_default_window(MAX_WINDOW * 10) == MAX_WINDOW

    def test_negative_rejected(self):
        with pytest.raises(InvalidWindowError):
            validate_default_window(-1)

    def test_non_int_rejected(self):
        with pytest.raises(InvalidWindowError):
            validate_default_window(2.0)  # type: ignore[arg-type]
        with pytest.raises(InvalidWindowError):
            validate_default_window(True)  # type: ignore[arg-type]


class TestResolveWindow:
    def test_zero_uses_default(self):
        assert resolve_window(0, default_window=20, available=100) == 20

    def test_explicit_window_respected(self):
        assert resolve_window(5, default_window=20, available=100) == 5

    def test_larger_than_default_silently_clipped(self):
        # Paper: "If window values larger than the default are passed to
        # HB_current_rate they may be silently clipped to the default value."
        assert resolve_window(50, default_window=20, available=100) == 20

    def test_clipped_to_available_history(self):
        assert resolve_window(0, default_window=20, available=7) == 7
        assert resolve_window(10, default_window=20, available=3) == 3

    def test_no_history(self):
        assert resolve_window(0, default_window=20, available=0) == 0

    def test_nothing_published_reads_the_request(self):
        assert resolve_window(7, default_window=-1, available=10) == 7
        assert resolve_window(0, default_window=0, available=10) == 1
        assert resolve_window(30, default_window=0, available=12) == 12

    def test_negative_rejected(self):
        with pytest.raises(InvalidWindowError):
            resolve_window(-2, default_window=20, available=10)

    def test_non_int_rejected(self):
        with pytest.raises(InvalidWindowError):
            resolve_window(1.5, default_window=20, available=10)  # type: ignore[arg-type]

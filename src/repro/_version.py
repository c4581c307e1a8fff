"""Single source of truth for the package version."""

__version__ = "2.0.0"

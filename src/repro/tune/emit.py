"""Tuned-spec emission.

:func:`write_tuned_spec` is the last step of `repro tune`: serialize the
tuned :class:`~repro.adapt.spec.AdaptSpec` to TOML, prove the text parses
back to an equal spec, and only then move it into place (atomic rename, so
a crash never leaves a half-written spec behind).  On Python 3.10 — where
:mod:`tomllib` does not exist — validation falls back to the dict round
trip, which exercises the same ``from_mapping`` path.

The tuner's flight log is a :class:`repro.obs.tracing.FlightRecorder`, the
same JSONL format engine decisions and scenario drills are written in.

>>> import os, tempfile
>>> from repro.tune.presets import scheduler_preset
>>> with tempfile.TemporaryDirectory() as tmp:
...     text = write_tuned_spec(scheduler_preset(), os.path.join(tmp, "tuned.toml"))
...     sorted(os.listdir(tmp))
['tuned.toml']
>>> text.splitlines()[0]
'[engine]'
"""

from __future__ import annotations

import os
import sys
import tempfile
from typing import Union

from repro.adapt.spec import AdaptSpec, SpecError

__all__ = ["write_tuned_spec"]


def _validate_round_trip(spec: AdaptSpec, text: str) -> None:
    if sys.version_info >= (3, 11):
        parsed = AdaptSpec.parse(text)
    else:  # pragma: no cover - tomllib-less interpreters only
        parsed = AdaptSpec.from_dict(spec.to_dict())
    if parsed != spec:
        raise SpecError("emitted spec did not round-trip to an equal AdaptSpec")


def write_tuned_spec(spec: AdaptSpec, path: Union[str, os.PathLike[str]]) -> str:
    """Write ``spec`` as validated TOML at ``path``; returns the emitted text.

    The text is parsed back and compared for equality *before* the atomic
    rename, so an emitter regression can never produce an unloadable file.
    """
    text = spec.to_toml()
    _validate_round_trip(spec, text)
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(prefix=".tuned-", suffix=".toml", dir=directory)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    return text

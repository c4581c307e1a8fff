"""The one strict loader behind declarative spec files (TOML or JSON).

Adaptation specs (:mod:`repro.adapt.spec`) and chaos scenarios
(:mod:`repro.scenario.spec`) are small nested tables kept in files.  Here a
file's format comes from its extension (``.toml``, else JSON) or, for bare
text, from a leading ``{`` (JSON); and :class:`Table` checks each table —
a table at all, no unknown keys, every required key, every value
convertible to its field's type.  All failures, decode errors included,
raise the *caller's* error class, so a malformed file is one error line,
never a traceback.  TOML needs :mod:`tomllib` (Python 3.11+).

>>> class DemoError(ValueError): ...
>>> Table(load_text('{"beats": "12"}', DemoError), DemoError, "fleet", {"beats"}).get("beats", int)
12
>>> try:
...     Table({"cows": 2}, DemoError, "fleet", {"beats"})
... except DemoError as exc:
...     print(exc)
unknown fleet keys ['cows']; known: ['beats']
"""

from __future__ import annotations

import json
import os
from typing import Any, Callable, Collection, Mapping, Sequence, Union

__all__ = ["Table", "load_file", "load_text"]


def load_text(text: str, error: type[ValueError], *, toml: bool | None = None) -> object:
    """Decode spec text; ``toml=None`` sniffs (a leading ``{`` means JSON)."""
    if toml is None:
        toml = not text.lstrip().startswith("{")
    if not toml:
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            raise error(f"invalid JSON: {exc}") from exc
    try:
        import tomllib
    except ModuleNotFoundError as exc:  # Python 3.10
        raise error("TOML specs need Python 3.11+ (tomllib); use JSON or from_dict") from exc
    try:
        return tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        raise error(f"invalid TOML: {exc}") from exc


def load_file(path: Union[str, os.PathLike[str]], error: type[ValueError]) -> object:
    """Read and decode a spec file: ``.toml`` as TOML, anything else as JSON."""
    path = os.fspath(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise error(f"not UTF-8 text: {exc}") from exc
    return load_text(text, error, toml=path.endswith(".toml"))


class Table:
    """One checked spec table; ``where`` names it in messages.

    ``known=None`` admits any key (free-form tables such as timeline events).
    """

    __slots__ = ("data", "error", "where")

    def __init__(
        self,
        data: object,
        error: type[ValueError],
        where: str,
        known: Collection[str] | None,
        required: Sequence[str] = (),
    ) -> None:
        if not isinstance(data, Mapping):
            raise error(f"{where} must be a table, got {type(data).__name__}")
        unknown = sorted(set(data) - set(known)) if known is not None else []
        if unknown:
            raise error(f"unknown {where} keys {unknown}; known: {sorted(known or ())}")
        missing = [key for key in required if key not in data]
        if missing:
            raise error(f"{where} needs {' and '.join(map(repr, missing))}")
        self.data: Mapping[str, Any] = data
        self.error = error
        self.where = where

    def get(self, key: str, convert: Callable[[Any], Any], default: Any = None) -> Any:
        """``convert`` of the value (``default`` when absent; ``None`` stays
        ``None`` for an optional field); a value it rejects is an error."""
        value = self.data.get(key, default)
        if value is None and default is None:
            return None
        try:
            return convert(value)
        except (TypeError, ValueError) as exc:
            raise self.error(f"{self.where} {key!r}: invalid value {value!r} ({exc})") from exc

    def array(self, key: str) -> list[Any]:
        """The array under ``key`` (empty when absent); its entries unchecked."""
        value = self.data.get(key, ())
        if isinstance(value, (str, bytes, Mapping)) or not isinstance(value, Sequence):
            raise self.error(f"{self.where} {key!r} must be an array, got {type(value).__name__}")
        return list(value)

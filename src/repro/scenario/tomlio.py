"""Minimal TOML read/write for scenario files.

Scenario configs serialise to a deliberately small TOML subset —
nested tables, bare keys, and scalar/array values — so that:

- :func:`dumps` can emit it without any third-party writer
  dependency, and
- :func:`loads` can fall back to a tiny subset parser on interpreters
  without :mod:`tomllib` (Python < 3.11; the repo supports 3.9+ and
  must not grow dependencies).

On 3.11+ the stdlib parser is used, so hand-written scenario files may
use the full language there; files *emitted by this module* (and the
committed ``examples/scenarios/*.toml``) stick to the subset and parse
identically under both readers.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple

try:  # Python 3.11+
    import tomllib as _tomllib
except ImportError:  # pragma: no cover - exercised only on 3.9/3.10
    _tomllib = None

__all__ = ["loads", "dumps", "TomlError"]


class TomlError(ValueError):
    """Malformed TOML (raised by both the stdlib and fallback readers)."""


# -- writing ------------------------------------------------------------------


def _format_scalar(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        text = repr(value)
        # TOML floats need a decimal point or exponent.
        return text if ("." in text or "e" in text or "E" in text) else text + ".0"
    if isinstance(value, str):
        return json.dumps(value)  # valid TOML basic string
    raise TypeError(f"cannot serialise {type(value).__name__} to TOML: {value!r}")


def _format_value(value: Any) -> str:
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_format_scalar(v) for v in value) + "]"
    return _format_scalar(value)


def dumps(data: Dict[str, Any], *, header: Optional[str] = None) -> str:
    """Serialise a nested dict to TOML (scalar keys first, then tables).

    ``None`` values are skipped — absence is how an optional knob
    encodes "use the default".
    """
    lines: List[str] = []
    if header:
        lines.extend(f"# {line}".rstrip() for line in header.splitlines())
        lines.append("")
    _emit_table(data, (), lines)
    return "\n".join(lines).rstrip("\n") + "\n"


def _emit_table(data: Dict[str, Any], prefix: Tuple[str, ...], lines: List[str]) -> None:
    scalars = [(k, v) for k, v in data.items() if v is not None and not isinstance(v, dict)]
    tables = [(k, v) for k, v in data.items() if isinstance(v, dict)]
    if prefix and (scalars or not tables):
        lines.append(f"[{'.'.join(prefix)}]")
    for key, value in scalars:
        if not _BARE_KEY(key):
            raise TypeError(f"key {key!r} is not a bare TOML key")
        lines.append(f"{key} = {_format_value(value)}")
    if scalars or not prefix:
        lines.append("")
    for key, value in tables:
        if not _BARE_KEY(key):
            raise TypeError(f"key {key!r} is not a bare TOML key")
        _emit_table(value, prefix + (key,), lines)


def _BARE_KEY(key: str) -> bool:
    return bool(key) and all(c.isalnum() or c in "-_" for c in key)


# -- reading ------------------------------------------------------------------


def loads(text: str) -> Dict[str, Any]:
    """Parse TOML text into a nested dict."""
    if _tomllib is not None:
        try:
            return _tomllib.loads(text)
        except _tomllib.TOMLDecodeError as exc:
            raise TomlError(str(exc)) from None
    return _loads_subset(text)


def _loads_subset(text: str) -> Dict[str, Any]:  # pragma: no cover - 3.9/3.10 path
    """Parse the emitted subset: ``[a.b]`` headers + ``key = value``.

    Values are scalars or single-line arrays, whose TOML syntax for
    strings/ints/floats/bools coincides with JSON — so a JSON parse of
    the right-hand side is exact for the subset.
    """
    root: Dict[str, Any] = {}
    current = root
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            path = [part.strip() for part in line[1:-1].split(".")]
            if not all(_BARE_KEY(part) for part in path):
                raise TomlError(f"line {lineno}: unsupported table header {line!r}")
            current = root
            for part in path:
                current = current.setdefault(part, {})
                if not isinstance(current, dict):
                    raise TomlError(f"line {lineno}: {part!r} is not a table")
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        if not sep or not _BARE_KEY(key):
            raise TomlError(f"line {lineno}: cannot parse {raw!r}")
        try:
            current[key] = json.loads(value.strip())
        except ValueError:
            raise TomlError(f"line {lineno}: unsupported value {value.strip()!r}") from None
    return root


def _strip_comment(line: str) -> str:  # pragma: no cover - 3.9/3.10 path
    out, in_string = [], False
    for char in line:
        if char == '"':
            in_string = not in_string
        if char == "#" and not in_string:
            break
        out.append(char)
    return "".join(out)

"""Typed reads of decoded JSON: the one place that checks an input field's type.

Every file a party hands to plexisim (a trade scenario, a bench or attack
config, a saved chain) is read through these checks, so a value is taken
only with the JSON type its field declares and is never coerced. An object
must hold exactly the keys its reader knows: an unknown key is an error in
every reader. Each check returns the value and raises ``TypeError`` or
``ValueError`` otherwise; the reader turns that into its own error.
``canonical_json`` is the one writer of canonical JSON, for the bytes the
ledger signs and the records the CLI writes.
"""

from __future__ import annotations

import json
import math

_JSON_NAMES = {str: "string", bool: "boolean", int: "integer", list: "array", dict: "object"}
# Same bytes as json.dumps(obj, sort_keys=True, separators=(",", ":")),
# without building an encoder per call. The output is ASCII.
canonical_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def of(kind: type, value):
    """``value`` if its type is exactly ``kind`` (``str``, ``bool``, ``int``,
    ``list`` or ``dict``): ``int`` refuses ``True`` and ``5.0``."""
    if type(value) is not kind:
        raise TypeError(f"expected a JSON {_JSON_NAMES[kind]}, got {value!r}")
    return value


def number(value) -> float:
    """A finite JSON number that is not a boolean, as a ``float``."""
    if type(value) is int or type(value) is float:
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:  # an integer past the float range
            pass
    raise ValueError(f"{value!r} is not a finite number")


def whole(value) -> int:
    """A JSON integer, or a float with no fractional part, as an ``int``;
    either must pass ``number``."""
    if not number(value).is_integer():
        raise ValueError(f"{value!r} is not a whole number")
    return int(value)


def hexbytes(value) -> bytes:
    """The bytes a JSON string spells in lower-case hex, the one spelling
    ``.hex()`` writes (``bytes.fromhex`` also reads upper case and spaces)."""
    data = bytes.fromhex(of(str, value))
    if data.hex() != value:
        raise ValueError(f"{value!r} is not lower-case hex")
    return data


def obj(value, keys: frozenset, optional: frozenset = frozenset()) -> dict:
    """``value`` if it is a JSON object holding every key in ``keys``, any of
    ``optional``, and no other key."""
    if type(value) is not dict:
        raise TypeError(f"expected a JSON object, got {value!r}")
    # The common case, an object with exactly the required keys, costs one
    # set comparison and builds no set.
    if value.keys() != keys:
        missing = keys - value.keys()
        if missing:
            raise ValueError(f"missing key(s) {sorted(missing)}")
        unknown = value.keys() - keys - optional
        if unknown:
            raise ValueError(f"unknown key(s) {sorted(unknown)}")
    return value

"""The one codec of ``scenario/v1``: typed dataclasses to JSON and back.

:func:`encode` walks a dataclass's fields into a JSON-safe document and
:func:`decode` builds the dataclass back from
:func:`typing.get_type_hints`, so a field's declared type is the only
statement of its wire shape.  One rule set holds at every level:

* exact JSON types -- a string is never read as a number, nor a number
  as a boolean; a JSON integer is accepted for a ``float`` field and
  stored as ``float`` (and a ``float`` field always encodes as one);
* ``datetime.date`` is an ISO date string;
* a ``Tuple[Tuple[str, V], ...]`` of pairs is a JSON object;
* any other tuple or list is a JSON list;
* a dataclass with one serialized field (a schedule, a policy set) is
  that field's list or object;
* unknown keys are rejected and missing required fields named;
* every error is a ``ValueError`` naming the dotted path of the bad
  value, e.g. ``faults[0].duration_days``;
* a decoded dataclass with a ``validate()`` method has it run.

Two field markers, given as ``field(metadata=...)``, cover the
exceptions: :data:`OMIT_DEFAULT` leaves a field out of the document
while it equals its default, and :data:`RUNTIME` marks state that is
never serialized (and so is an unknown key on the way in).

Imports only the standard library, so any module may mark its fields.
"""

from __future__ import annotations

import dataclasses
import datetime
import functools
import typing
from typing import Any, Tuple

__all__ = ["OMIT_DEFAULT", "RUNTIME", "decode", "encode"]

#: Field metadata: left out of the document while at its default.
OMIT_DEFAULT = {"codec": "omit_default"}
#: Field metadata: runtime state, never serialized.
RUNTIME = {"codec": "runtime"}

_JSON_NAMES = {bool: "a JSON boolean", int: "a JSON integer",
               float: "a JSON number", str: "a JSON string"}


@functools.lru_cache(maxsize=None)
def _fields(cls) -> Tuple:
    """``(name, type, default, omit_default)`` of every serialized
    field of ``cls``; ``default`` is ``MISSING`` for a required field."""
    hints = typing.get_type_hints(cls)
    rows = []
    for spec in dataclasses.fields(cls):
        if spec.metadata == RUNTIME:
            continue
        default = spec.default
        if spec.default_factory is not dataclasses.MISSING:
            default = spec.default_factory()
        rows.append((spec.name, hints[spec.name], default,
                     spec.metadata == OMIT_DEFAULT))
    return tuple(rows)


def _optional(tp):
    """``X`` for ``Optional[X]``, else None."""
    if typing.get_origin(tp) is typing.Union:
        return next(arg for arg in typing.get_args(tp)
                    if arg is not type(None))
    return None


def _pair_value(tp):
    """``V`` for ``Tuple[Tuple[str, V], ...]``, else None."""
    args = typing.get_args(tp)
    if typing.get_origin(tp) is tuple and args[1:] == (Ellipsis,):
        pair = typing.get_args(args[0])
        if typing.get_origin(args[0]) is tuple and pair[:1] == (str,):
            return pair[1]
    return None


def encode(value: Any, tp: Any = None) -> Any:
    """The JSON-safe document of ``value`` (read as type ``tp``,
    default its own class)."""
    tp = type(value) if tp is None else tp
    if _optional(tp) is not None:
        return None if value is None else encode(value, _optional(tp))
    if dataclasses.is_dataclass(tp):
        fields = _fields(tp)
        if len(fields) == 1:
            name, field_tp, _, _ = fields[0]
            return encode(getattr(value, name), field_tp)
        return {name: encode(getattr(value, name), field_tp)
                for name, field_tp, default, omit in fields
                if not (omit and getattr(value, name) == default)}
    pair_value = _pair_value(tp)
    if pair_value is not None:
        return {key: encode(item, pair_value) for key, item in value}
    if typing.get_origin(tp) in (tuple, list):
        item_tp = typing.get_args(tp)[0]
        return [encode(item, item_tp) for item in value]
    if tp is datetime.date:
        return value.isoformat()
    if tp is float:
        return float(value)
    return value


def decode(cls: Any, doc: Any, path: str = "") -> Any:
    """Build a ``cls`` from its JSON document ``doc``.

    ``path`` names where ``doc`` sits in its enclosing document; every
    malformed value raises ``ValueError`` naming its dotted path.
    """
    if _optional(cls) is not None:
        return None if doc is None else decode(_optional(cls), doc, path)
    if dataclasses.is_dataclass(cls):
        return _decode_dataclass(cls, doc, path)
    pair_value = _pair_value(cls)
    if pair_value is not None:
        _expect(isinstance(doc, dict), "a JSON object", doc, path)
        return tuple((key, decode(pair_value, item, _join(path, key)))
                     for key, item in doc.items())
    origin = typing.get_origin(cls)
    if origin in (tuple, list):
        _expect(isinstance(doc, list), "a JSON list", doc, path)
        item_tp = typing.get_args(cls)[0]
        return origin(decode(item_tp, item, f"{path}[{index}]")
                      for index, item in enumerate(doc))
    if cls is datetime.date:
        try:
            return datetime.date.fromisoformat(doc)
        except (TypeError, ValueError):
            raise ValueError(f"{path or 'document'} must be an ISO date "
                             f"string, got {doc!r}") from None
    if cls is float and type(doc) is int:
        return float(doc)
    _expect(type(doc) is cls, _JSON_NAMES[cls], doc, path)
    return doc


def _join(path: str, name: str) -> str:
    return f"{path}.{name}" if path else name


def _expect(ok: bool, what: str, doc: Any, path: str) -> None:
    if not ok:
        raise ValueError(f"{path or 'document'} must be {what}, "
                         f"got {doc!r}")


def _decode_dataclass(cls, doc: Any, path: str) -> Any:
    fields = _fields(cls)
    if len(fields) == 1:
        name, field_tp, _, _ = fields[0]
        kwargs = {name: decode(field_tp, doc, path)}
    else:
        _expect(isinstance(doc, dict), "a JSON object", doc, path)
        where = path or "document"
        unknown = sorted(set(doc) - {row[0] for row in fields})
        if unknown:
            raise ValueError(f"unknown fields in {where}: {unknown}")
        missing = [name for name, _, default, _ in fields
                   if default is dataclasses.MISSING and name not in doc]
        if missing:
            raise ValueError(f"{where} is missing fields {missing}")
        kwargs = {name: decode(field_tp, doc[name], _join(path, name))
                  for name, field_tp, _, _ in fields if name in doc}
    try:
        value = cls(**kwargs)
        if hasattr(value, "validate"):
            value.validate()
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}" if path else str(exc)) from None
    return value

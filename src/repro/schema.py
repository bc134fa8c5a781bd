"""One JSON schema for every run-shaping value.

A run's settings are frozen dataclasses: :class:`~repro.core.session.SessionConfig`
and the values it nests (timing, faults, adversary, defenses, resilience,
queue, partitions).  :class:`ConfigValue` gives each of them ``to_json()``,
``from_json()`` and ``load(path)``, written once here over
``dataclasses.fields`` and the fields' annotations.  The wire ``config``
object, the ``--faults`` / ``--adversary`` / ``--defenses`` files and the
CLI's run flags (:mod:`repro.cli`) therefore speak one format, and a bad
input is always a :class:`~repro.errors.ConfigError` naming the key.

The JSON form:

- a value is an object keyed by field name (or ``metadata["json"]``); a
  field at its default is left out, so a default value is ``{}``;
- ``X | None`` is X or null; an enum is its value; a path is a string; a
  float field also takes an integer;
- ``tuple[X, ...]`` is a list, ``tuple[tuple[str, X], ...]`` an object;
- a union of several value types is an object tagged with its ``kind``,
  the kebab-cased class name (``{"kind": "spill-config", ...}``).

Field metadata:

- ``json``: the field's key;
- ``live``: the field names a process-local object (a callback, a hook,
  telemetry, resume state) and has no JSON form;
- ``path``: the field names a file on this host (:func:`host_paths`);
- ``flag`` / ``preset`` / ``override_only``: the field's CLI spelling
  (:mod:`repro.cli`).
"""

from __future__ import annotations

import functools
import inspect
import json
import re
import types
from collections.abc import Mapping
from dataclasses import MISSING, dataclass, fields, is_dataclass
from enum import Enum
from pathlib import Path
from typing import Any, TypeVar, Union, get_args, get_origin, get_type_hints

from repro.errors import ConfigError

_V = TypeVar("_V", bound="ConfigValue")


@dataclass(frozen=True, slots=True)
class FieldSpec:
    """One field of a value type, as the codec and the CLI see it."""

    name: str
    #: The field's JSON key.
    key: str
    hint: Any
    #: The default value, or ``dataclasses.MISSING`` for a required field.
    default: Any
    metadata: Mapping[str, Any]
    #: The field's ``#:`` doc comment (the CLI's help text).
    doc: str

    @property
    def live(self) -> bool:
        return bool(self.metadata.get("live"))


@functools.cache
def field_specs(cls: type) -> tuple[FieldSpec, ...]:
    """The constructor fields of value type ``cls``, in declaration order."""
    hints = get_type_hints(cls)
    docs = _doc_comments(cls)
    specs = []
    for spec in fields(cls):
        if not spec.init:
            continue
        default = spec.default
        if spec.default_factory is not MISSING:
            default = spec.default_factory()
        specs.append(
            FieldSpec(
                name=spec.name,
                key=spec.metadata.get("json", spec.name),
                hint=hints[spec.name],
                default=default,
                metadata=spec.metadata,
                doc=docs.get(spec.name, ""),
            )
        )
    return tuple(specs)


def value_types(hint: Any) -> tuple[type, ...]:
    """The value (dataclass) types a field annotation admits."""
    return tuple(option for option in _options(hint) if is_dataclass(option))


def kinds(hint: Any) -> dict[str, type]:
    """The ``kind`` tags of the value types a field annotation admits."""
    return {_kind(option): option for option in value_types(hint)}


def _options(hint: Any) -> tuple[Any, ...]:
    if get_origin(hint) in (Union, types.UnionType):
        return get_args(hint)
    return (hint,)


def _doc_comments(cls: type) -> dict[str, str]:
    """``#:`` comments above each field of ``cls``, joined per field."""
    try:
        lines = inspect.getsource(cls).splitlines()
    except (OSError, TypeError):
        return {}
    docs: dict[str, str] = {}
    pending: list[str] = []
    for line in lines:
        text = line.strip()
        if text.startswith("#:"):
            pending.append(text[2:].strip())
            continue
        match = re.match(r"(\w+)\s*:", text)
        if match and pending:
            docs[match.group(1)] = " ".join(pending)
        pending = []
    return docs


def _label(cls: type) -> str:
    """``FaultProfile`` → ``"fault profile"`` (error messages)."""
    return re.sub(r"(?<!^)(?=[A-Z])", " ", cls.__name__).lower()


def _kind(cls: type) -> str:
    """``SpillConfig`` → ``"spill-config"`` (the tag of a union member)."""
    return _label(cls).replace(" ", "-")


# -- encoding ---------------------------------------------------------------


def encode(value: Any) -> dict:
    """The JSON object of a value; fields at their default are left out."""
    cls = type(value)
    data: dict[str, Any] = {}
    for spec in field_specs(cls):
        item = getattr(value, spec.name)
        if spec.default is not MISSING and item == spec.default:
            continue
        if spec.live:
            raise ConfigError(
                f"{cls.__name__}.{spec.name} names a live object and has no JSON form"
            )
        data[spec.key] = _encode(spec.hint, item)
    return data


def _encode(hint: Any, item: Any) -> Any:
    if item is None:
        return None
    if isinstance(item, Enum):
        return item.value
    if is_dataclass(item):
        data = encode(item)
        if len(value_types(hint)) > 1:
            data = {"kind": _kind(type(item)), **data}
        return data
    if isinstance(item, Path):
        return str(item)
    if isinstance(item, tuple):
        tuple_hint = next(option for option in _options(hint) if get_origin(option) is tuple)
        inner = get_args(tuple_hint)[0]
        if get_origin(inner) is tuple:
            value_hint = get_args(inner)[1]
            return {key: _encode(value_hint, value) for key, value in item}
        return [_encode(inner, value) for value in item]
    return item


# -- decoding ---------------------------------------------------------------


def decode(cls: Any, data: Any, where: str | None = None) -> Any:
    """A value of type ``cls`` from its JSON object.

    ``where`` names the object in error messages (default: the class).
    """
    where = where or cls.__name__
    if not isinstance(data, Mapping):
        raise ConfigError(f"{where} must be a JSON object, got {type(data).__name__}")
    specs = field_specs(cls)
    by_key = {spec.key: spec for spec in specs}
    unknown = sorted(set(data) - by_key.keys())
    if unknown:
        raise ConfigError(f"unknown {_label(cls)} keys in {where}: {unknown}")
    missing = sorted(
        spec.key for spec in specs if spec.default is MISSING and spec.key not in data
    )
    if missing:
        raise ConfigError(f"malformed {_label(cls)} in {where}: missing {missing}")
    kwargs = {}
    for key, item in data.items():
        spec = by_key[key]
        if spec.live:
            raise ConfigError(f"{where}.{key} names a live object and has no JSON form")
        kwargs[spec.name] = decode_value(spec.hint, item, f"{where}.{key}")
    return cls(**kwargs)


def decode_value(hint: Any, item: Any, where: str) -> Any:
    """``item`` decoded against the annotation ``hint``."""
    options = _options(hint)
    if item is None:
        if type(None) in options:
            return None
        raise ConfigError(f"{where} must not be null")
    options = tuple(option for option in options if option is not type(None))
    tags = kinds(hint)
    if len(tags) > 1:
        if not isinstance(item, Mapping) or item.get("kind") not in tags:
            raise ConfigError(f'{where} must be an object with a "kind" in {sorted(tags)}')
        body = dict(item)
        return decode(tags[body.pop("kind")], body, where)
    # ``str | Path`` reads as str: the first option decides.
    hint = options[0]
    if hint is Any:
        return item
    if is_dataclass(hint):
        return decode(hint, item, where)
    if get_origin(hint) is tuple:
        inner = get_args(hint)[0]
        if get_origin(inner) is tuple:
            if not isinstance(item, Mapping):
                raise ConfigError(f"{where} must be a JSON object, got {item!r}")
            value_hint = get_args(inner)[1]
            return tuple(
                (key, decode_value(value_hint, value, f"{where}.{key}"))
                for key, value in item.items()
            )
        if not isinstance(item, (list, tuple)):
            raise ConfigError(f"{where} must be a list, got {item!r}")
        return tuple(
            decode_value(inner, value, f"{where}[{index}]") for index, value in enumerate(item)
        )
    if isinstance(hint, type) and issubclass(hint, Enum):
        try:
            return hint(item)
        except ValueError:
            raise ConfigError(
                f"{where} must be one of {[member.value for member in hint]}, got {item!r}"
            ) from None
    if hint is float and type(item) in (int, float):
        return float(item)
    if type(item) is hint:
        return item
    raise ConfigError(f"{where} must be {getattr(hint, '__name__', hint)}, got {item!r}")


def read_json(path: str | Path, label: str) -> Any:
    """The JSON a file holds; an unreadable file names the ``label``."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read {label} {path}: {exc}") from exc


def load(hint: Any, path: str | Path) -> Any:
    """The value a JSON file holds, decoded against ``hint`` (through the
    value type's own ``load`` when ``hint`` admits one)."""
    admitted = value_types(hint)
    if len(admitted) == 1:
        return admitted[0].load(path)
    return decode_value(hint, read_json(path, "config"), str(path))


def host_paths(value: Any, prefix: str = "") -> list[str]:
    """The set fields of ``value``, nested values included, that name host files."""
    named = []
    for spec in field_specs(type(value)):
        item = getattr(value, spec.name)
        if spec.live or item is None:
            continue
        if spec.metadata.get("path"):
            named.append(prefix + spec.name)
        elif is_dataclass(item):
            named += host_paths(item, f"{prefix}{spec.name}.")
    return named


class ConfigValue:
    """A frozen settings value with a JSON form (mixin of every config type)."""

    __slots__ = ()

    def to_json(self) -> dict:
        """This value's JSON object (:func:`encode`)."""
        return encode(self)

    @classmethod
    def from_json(cls: type[_V], data: Any) -> _V:
        """The value a JSON object describes (:func:`decode`)."""
        return decode(cls, data)

    @classmethod
    def load(cls: type[_V], path: str | Path) -> _V:
        """The value a JSON file holds."""
        return decode(cls, read_json(path, _label(cls)), str(path))

"""The on-disk format of everything a run persists.

Run configs, transcripts, reports, error analyses and cache entries are
dataclasses, or plain JSON values holding them. One type map, `_default`,
says how each is stored: a dataclass becomes a dict of its fields, an Enum
its value and a Decimal its text; tuples are stored as lists. `dumps`
hands `_default` to one C `json` encoder built at import, so a value is
serialized in one pass with no intermediate copy; `encode` applies the
same map to build the JSON value itself. `decode` rebuilds a dataclass
from such a dict, driven by the field type hints, which are resolved once
per class. Missing keys take the field's default and unknown keys are
ignored, so files written by older versions still load. The module knows
no type of the package: a dataclass whose stored fields need checking or
converting does that in its own `__post_init__`.

Every file is one compact, key-sorted JSON document ending in a newline.
Its UTF-8 bytes are written with raw `os` calls to a temp file in the
target directory, which is then renamed over the target, so readers never
see a partial file; `write` makes and writes a dataclass's text a field at
a time. Cache entries hold the same `dumps` text, as rows of the gateway's
cache database rather than files.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import threading
import types
import typing
from decimal import Decimal
from enum import Enum, EnumMeta
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

_SCALARS = frozenset({str, int, float, bool, type(None)})
# What `open(path, "w")` passes, plus O_BINARY where it exists (Windows), so
# the bytes written are exactly the UTF-8 text, with no newline translation.
_WRITE_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_TRUNC | getattr(os, "O_BINARY", 0)
_LIST_RUN = 32  # rows of a report encoded at once by `write`


@functools.cache
def _field_names(cls: type) -> tuple[str, ...]:
    return tuple(f.name for f in dataclasses.fields(cls))


def _default(obj: Any) -> Any:
    """The JSON value standing for `obj`, one level deep: the type map."""
    cls = type(obj)
    if dataclasses.is_dataclass(cls):
        return {name: getattr(obj, name) for name in _field_names(cls)}
    if isinstance(obj, Enum):
        return obj.value
    if cls is Decimal:
        return str(obj)
    raise TypeError(f"cannot store a {cls.__name__}")


_ENCODER = json.JSONEncoder(sort_keys=True, default=_default)


def encode(obj: Any) -> Any:
    """The JSON value that stands for `obj` on disk."""
    if type(obj) in _SCALARS:
        return obj
    if isinstance(obj, (list, tuple)):
        return [encode(item) for item in obj]
    if isinstance(obj, dict):
        return {encode(key): encode(value) for key, value in obj.items()}
    return encode(_default(obj))


_Decoder = Callable[[Any], Any]


def _dataclass_decoder(cls: type) -> _Decoder:
    hints = typing.get_type_hints(cls)
    fields = [(f.name, _decoder(hints[f.name])) for f in dataclasses.fields(cls) if f.init]

    def decode_fields(data: dict):
        if not isinstance(data, dict):
            raise TypeError(f"{cls.__name__} must be stored as an object")
        kwargs = {}
        for name, fn in fields:
            if name in data:
                value = data[name]
                kwargs[name] = value if fn is None else fn(value)
        return cls(**kwargs)

    return decode_fields


@functools.cache
def _decoder(hint: Any) -> _Decoder | None:
    """A function rebuilding a value of type `hint`.

    None means the stored JSON value is used as it is: scalars, plain
    dicts and lists, and unions of several such shapes.
    """
    origin = typing.get_origin(hint)
    if origin in (typing.Union, types.UnionType):
        present = [a for a in typing.get_args(hint) if a is not type(None)]
        inner = _decoder(present[0]) if len(present) == 1 else None
        return None if inner is None else lambda value: None if value is None else inner(value)
    if origin is list:
        item = _decoder(typing.get_args(hint)[0])
        return None if item is None else lambda value: [item(x) for x in value]
    if dataclasses.is_dataclass(hint):
        return _dataclass_decoder(hint)
    if isinstance(hint, EnumMeta):
        return hint
    return None


def decode(cls: type, data: Any) -> Any:
    """Rebuild a `cls` from the JSON value `encode` made of one.

    Raises TypeError, ValueError or KeyError when `data` does not fit.
    """
    return _decoder(cls)(data)


def dumps(obj: Any) -> str:
    """The stored text of `obj`: compact, key-sorted JSON and a newline."""
    return _ENCODER.encode(obj) + "\n"


def loads(text: str) -> Any:
    """Parse JSON text; raises ValueError, also for text nested too deeply
    for the parser, which would otherwise raise RecursionError."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply to parse") from None


def read(path: str | Path) -> Any:
    """Parse one stored file, or any JSON file; raises OSError or ValueError."""
    with open(path, encoding="utf-8") as handle:
        return loads(handle.read())


def _pieces(obj: Any) -> Iterator[str]:
    """`dumps(obj)` of a dataclass in pieces: one per field, or per _LIST_RUN
    items of a list field, each C-encoded on its own."""
    yield "{"
    for i, (key, value) in enumerate(sorted(_default(obj).items())):
        head = f"{', ' if i else ''}{_ENCODER.encode(key)}: "
        if not isinstance(value, (list, tuple)) or not value:
            yield head + _ENCODER.encode(value)
            continue
        for start in range(0, len(value), _LIST_RUN):
            run = _ENCODER.encode(value[start : start + _LIST_RUN])[1:-1]
            yield f"{head}[{run}" if start == 0 else f", {run}"
        yield "]"
    yield "}\n"


def write_text(path: str | Path, text: str | Iterable[str]) -> None:
    """Replace `path` with the UTF-8 bytes of `text`, or of its pieces one
    after another, atomically (temp file, then rename).

    A write that fails removes its temp file before it raises.
    """
    head, name = os.path.split(path)
    tmp = os.path.join(head, f".{name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        fd = os.open(tmp, _WRITE_FLAGS, 0o666)
        try:
            for piece in (text,) if isinstance(text, str) else text:
                data = piece.encode("utf-8")
                written = os.write(fd, data)
                while written < len(data):
                    written += os.write(fd, data[written:])
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise


def write(path: str | Path, obj: Any) -> None:
    """Store `obj` at `path` in the one file format, atomically."""
    write_text(path, _pieces(obj) if dataclasses.is_dataclass(obj) else dumps(obj))

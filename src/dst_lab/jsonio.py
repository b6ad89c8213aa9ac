"""Decoding and checking of every JSON input the lab reads.

A value is accepted only when its JSON type is the one asked for, nothing is
converted, and no object repeats a key. Every failure is one located
:class:`JsonInputError`, which each reader turns into its own public error.
"""

from __future__ import annotations

import contextlib
import functools
import json
import json.scanner
import reprlib
import types
import typing

_REQUIRED = object()


class JsonInputError(ValueError):
    """Input that does not decode, or whose value at ``where`` (object keys and
    list indices) breaks a rule. The reader sets ``pos``, the text offset of the
    fault or of the innermost container on ``where``, ``line`` and ``column``."""

    def __init__(self, message: str, where: tuple = (), pos: int | None = None):
        super().__init__(message)
        self.where, self.pos = where, pos


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):
        raise JsonInputError(f"repeated key {next(k for i, (k, _) in enumerate(pairs) if k in dict(pairs[:i]))!r}")
    return obj


_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)


def parse(data: bytes, read, *, line: int | None = None):
    """``read`` of the JSON value in the UTF-8 ``data``; any fault is one
    located JsonInputError. ``line`` is the number of an NDJSON line: the
    error's line, where a fault that ``read`` finds is a ``malformed record``."""
    try:
        text = data.decode("utf-8")
        value = _DECODER.decode(text)
    except UnicodeDecodeError as exc:
        text = data[: exc.start].decode("utf-8")
        error = JsonInputError(f"malformed UTF-8: {exc.reason}", pos=len(text))
    except json.JSONDecodeError as exc:
        error = JsonInputError(f"malformed JSON: {exc.msg}", pos=exc.pos)
    except RecursionError:
        error = JsonInputError("malformed JSON: nesting too deep", pos=0)
    except JsonInputError as exc:  # a repeated key
        error = exc
    else:
        try:
            return read(value)
        except JsonInputError as exc:
            exc.args = (f"malformed record: {exc}",) if line else exc.args
            error = exc
    error.pos = _offset(text, error.where) if error.pos is None else error.pos
    error.line = text.count("\n", 0, error.pos) + 1 if line is None else line
    error.column = error.pos - text.rfind("\n", 0, error.pos)
    raise error


def read_document(path, read):
    """``read`` of the JSON document in the file ``path``; see :func:`parse`."""
    with open(path, "rb") as fh:
        return parse(fh.read(), read)


def read_lines(path, read):
    """(line number, ``read`` of its value) for each non-blank NDJSON line."""
    with open(path, "rb") as fh:
        yield from ((n, parse(line, read, line=n)) for n, line in enumerate(fh, start=1) if line.strip())


def check(value, kind, where: tuple = ()):
    """``value`` if its JSON type is ``kind``: ``str``, ``int`` (not a bool or
    float), ``float`` (any number but a bool), ``bool``, ``type(None)``,
    ``list``, ``dict``, ``list[K]``, ``dict[str, K]`` or a union of these."""
    return value if type(value) is kind or _test(kind)(value) else _reject_kind(value, kind, where)


def get(obj: dict, key: str, kind, where: tuple = (), default=_REQUIRED):
    """``check`` of ``obj[key]``, ``obj`` being at ``where``; a missing key is
    an error unless there is a ``default`` to return."""
    value = obj.get(key, _REQUIRED)
    if value is not _REQUIRED:
        return value if type(value) is kind or _test(kind)(value) else _reject_kind(value, kind, where + (key,))
    if default is _REQUIRED:
        raise JsonInputError(f"missing field {_path(where + (key,))!r}", where)
    return default


def reject(where: tuple, rule: str, value) -> typing.NoReturn:
    """Raise the JsonInputError for ``value`` at ``where`` breaking ``rule``."""
    raise JsonInputError(f"{_path(where) or 'the top-level value'} {rule}, got {reprlib.repr(value)}", where)


@functools.cache
def _test(kind):
    """The test of whether a value's JSON type is ``kind``, made once per kind."""
    if isinstance(kind, types.UnionType):
        arms = [_test(arm) for arm in kind.__args__]
        return lambda value: any(arm(value) for arm in arms)
    origin = typing.get_origin(kind)
    if origin is None:
        return (lambda value: type(value) in (int, float)) if kind is float else (lambda value: type(value) is kind)
    item, members = _test(kind.__args__[-1]), (iter if origin is list else dict.values)
    return lambda value: type(value) is origin and all(map(item, members(value)))


def _reject_kind(value, kind, where: tuple) -> typing.NoReturn:
    for arm in kind.__args__ if isinstance(kind, types.UnionType) else (kind,):
        if typing.get_origin(arm) is type(value):  # the right container, a wrong member
            for key, member in enumerate(value) if type(value) is list else value.items():
                if not _test(arm.__args__[-1])(member):
                    _reject_kind(member, arm.__args__[-1], where + (key,))
    name = _describe(kind)
    if not where:
        raise JsonInputError(f"expected a JSON {name}, got {_describe(type(value))}")
    reject(where, f"must be {'an' if name[0] in 'aeiou' else 'a'} {name}", value)


_NAMES = {str: "string", int: "integer", float: "number", bool: "boolean", type(None): "null", list: "list", dict: "object"}


def _describe(kind) -> str:
    if isinstance(kind, types.UnionType):
        return " or ".join(map(_describe, kind.__args__))
    if typing.get_origin(kind) is None:
        return _NAMES[kind]
    first, _, rest = _describe(kind.__args__[-1]).partition(" ")
    return f"{_NAMES[typing.get_origin(kind)]} of {first}s {rest}".rstrip()


def _path(where: tuple) -> str:
    return "".join(f"[{key}]" if type(key) is int else f".{key}" for key in where).removeprefix(".")


def _offset(text: str, where: tuple) -> int:
    """Start of the innermost container on ``where``, or of an object that
    repeats a key, found by decoding ``text`` again with the pure-Python
    scanner, which can report where values start (only bad input pays)."""
    starts: dict[int, int] = {}
    opened: list[int] = []

    def recording(parse_container):
        def parse_and_record(s_and_end, *args):
            opened.append(s_and_end[1] - 1)
            value, end = parse_container(s_and_end, *args)
            starts[id(value)] = opened.pop()
            return value, end

        return parse_and_record

    decoder = json.JSONDecoder(object_pairs_hook=_unique_keys)
    decoder.parse_object, decoder.parse_array = recording(decoder.parse_object), recording(decoder.parse_array)
    decoder.scan_once = json.scanner.py_make_scanner(decoder)
    try:
        value = decoder.decode(text)
    except JsonInputError:  # raised by the innermost open object
        return opened[-1]
    except RecursionError:
        return 0
    pos = starts.get(id(value), 0)
    with contextlib.suppress(LookupError, TypeError):
        for key in where:
            value = value[key]
            pos = starts.get(id(value), pos)
    return pos

"""Decoding and checking of every JSON input the lab reads, and the wording
of every input file's fault.

A value is accepted only when its JSON type is the one asked for, nothing is
converted, no object repeats a key, and no string holds a lone surrogate.
Every failure is one located :class:`JsonInputError`; a file's reads
``<path>:<line>:<column>: <message>``, a binary file's :class:`CorpusFormatError`
``<path>: byte <offset>: <message>``, and an OSError carries the file's path.
"""

from __future__ import annotations

import contextlib
import functools
import json
import json.scanner
import math
import re
import reprlib
import sys
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


class CorpusFormatError(ValueError):
    """A binary input file, such as a feature sidecar, that breaks its format
    at byte ``offset``. :func:`_naming` sets ``path``, the file's name."""

    def __init__(self, message: str, offset: int):
        super().__init__(message)
        self.offset = offset


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):
        raise JsonInputError(f"repeated key {next(k for i, (k, _) in enumerate(pairs) if k in dict(pairs[:i]))!r}")
    return obj


def _no_constant(name: str) -> typing.NoReturn:
    raise ValueError(name)  # NaN, Infinity or -Infinity, located by _bad_number


def _finite_float(text: str) -> float:
    value = float(text)
    if math.isinf(value):
        raise ValueError(text)  # a number too large for a float, located by _bad_number
    return value


_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys, parse_float=_finite_float, parse_constant=_no_constant)

# A code point no UTF-8 output can hold. Only a JSON \uD800-\uDFFF escape
# decodes to one, and the decoder joins an escaped pair into one character, so
# any one left in a decoded string is lone.
SURROGATE = re.compile("[\ud800-\udfff]")
SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


def _reject_lone_surrogates(value) -> None:
    """Raise for the first string, key or value, of ``value`` that holds a
    lone surrogate."""
    pending = [((), value)]
    while pending:
        where, value = pending.pop()
        if type(value) is str and SURROGATE.search(value):
            reject(where, "holds a lone surrogate", value)
        members = list(value.items() if type(value) is dict else enumerate(value) if type(value) is list else ())
        for key, _ in members:
            if type(key) is str and SURROGATE.search(key):
                reject(where, "has a key that holds a lone surrogate", key)
        pending.extend((where + (key,), member) for key, member in reversed(members))


def parse(data: bytes, read, *, line: int | None = None):
    """``read`` of the JSON value in the UTF-8 ``data``; any fault is one
    located JsonInputError. ``line`` is the number of an NDJSON line: the
    error's line, where a fault that ``read`` finds is a ``malformed record``."""
    try:
        text = data.decode("utf-8")
        value = _DECODER.decode(text)
        if SURROGATE_ESCAPE.search(text):
            _reject_lone_surrogates(value)
    except UnicodeDecodeError as exc:
        text = data[: exc.start].decode("utf-8")
        error = JsonInputError(f"malformed UTF-8: {exc.reason}", pos=len(text))
    except json.JSONDecodeError as exc:
        error = JsonInputError(f"malformed JSON: {exc.msg}", pos=exc.pos)
    except RecursionError:
        error = JsonInputError("malformed JSON: nesting too deep", pos=0)
    except JsonInputError as exc:  # a repeated key or a lone surrogate
        error = exc
    except ValueError:  # NaN, Infinity, -Infinity, a float out of range or an integer too long to convert
        error = _bad_number(text)
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


_CONSTANTS = ("NaN", "Infinity", "-Infinity")
_NUMBER_OR_STRING = re.compile(r'"(?:[^"\\]|\\.)*"|NaN|-?Infinity|-?[0-9]+(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?')


def _bad_number(text: str) -> JsonInputError:
    """The error for the first ``NaN``, ``Infinity`` or ``-Infinity``, integer
    with more digits than ``int()`` converts, or number with a fraction or
    exponent too large for a float, in ``text``; the text before it is valid
    JSON, so the scan over strings and numbers stays in step with the
    decoder's."""
    limit = sys.get_int_max_str_digits()
    for token in _NUMBER_OR_STRING.finditer(text):
        number, digits = token.group(), token.group().removeprefix("-")
        if number in _CONSTANTS:
            return JsonInputError(f"malformed JSON: {number} is not JSON", pos=token.start())
        if digits.isdigit():
            if len(digits) > limit:
                return JsonInputError(f"malformed JSON: integer longer than {limit} digits", pos=token.start())
        elif number[0] != '"' and math.isinf(float(number)):
            shown = number if len(number) <= 30 else f"{number[:12]}...{number[-12:]}"
            return JsonInputError(f"malformed JSON: {shown} is out of range", pos=token.start())
    raise AssertionError("the decoder rejected a number that the scan does not find")


class _naming:
    """Name the file ``path`` in a fault raised while it is read: the text of a
    JsonInputError or CorpusFormatError gains its location, and an OSError
    (one from a read has none) its ``filename``. A class rather than a
    generator: it wraps every feature sidecar read, and costs half as much."""

    def __init__(self, path):
        self.path = path

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, traceback) -> None:
        if isinstance(exc, JsonInputError):
            exc.args = (f"{self.path}:{exc.line}:{exc.column}: {exc}",)
        elif isinstance(exc, CorpusFormatError):
            exc.path, exc.args = self.path, (f"{self.path}: byte {exc.offset}: {exc}",)
        elif isinstance(exc, OSError):
            exc.filename = self.path


def read_document(path, read):
    """``read`` of the JSON document in the file ``path``; see :func:`parse`."""
    with _naming(path), open(path, "rb") as fh:
        return parse(fh.read(), read)


def read_lines(path, read):
    """(line number, ``read`` of its value) for each non-blank NDJSON line."""
    with _naming(path), open(path, "rb") as fh:
        for n, line in enumerate(fh, start=1):
            if line.strip():
                yield n, parse(line, read, line=n)


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


def all_strings(values) -> bool:
    """Whether every one of ``values`` is a string: how a reader's valid branch
    tests a list of strings without a :func:`check` call."""
    for value in values:
        if type(value) is not str:
            return False
    return True


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

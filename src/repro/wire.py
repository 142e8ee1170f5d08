"""One typed wire codec, read from the declarations.

Values cross the portal's boundaries (a port RPC, an HTTP JSON body, a
journal record) as JSON.  :func:`codec` builds, once per type hint, the
check that takes that JSON in and the encoder that puts a value back:
``str``, ``int`` (never a ``bool``), ``bool``, ``float`` (an ``int``
passes), ``dict``, ``list``, ``dict[str, str]``, ``list[str]``, ``tuple[str, ...]``,
``frozenset[str]`` (sent sorted), an ``Enum`` by value, a dataclass by its
fields, and ``X | None``.  A ``Callable`` has no wire form.

:class:`Fields` checks an object against a declaration: a dataclass's
fields or a function's parameters, in one frame: a field of a plain type
(a *leaf*: ``str``, ``int``, ``bool``, ``float``, ``dict``, ``list``) is checked
inline, and only the others call their codec.  One null rule holds everywhere: a
``null`` field is absent, an absent field takes its declared default,
and a required field that is absent is refused.  Keys the declaration
does not name are left to the caller.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import inspect
from collections.abc import Callable as CallableABC
from types import NoneType, UnionType
from typing import Any, Callable, Iterable, NamedTuple, Optional, Union
from typing import get_args, get_origin, get_type_hints

__all__ = ["REQUIRED", "Codec", "Fields", "WireError", "codec", "dataclass_fields"]

#: the default of a field that must be present
REQUIRED = inspect.Parameter.empty


class WireError(ValueError):
    """A wire value that does not fit its declaration; the message names it."""

    def __init__(self, problem: str, path: str = "") -> None:
        super().__init__(f"{path} {problem}" if path else problem)
        self.problem, self.path = problem, path

    def under(self, name: str) -> "WireError":
        """The same error, seen from the object holding field ``name``."""
        sep = "." if self.path and not self.path.startswith("[") else ""
        return WireError(self.problem, f"{name}{sep}{self.path}")


class Codec(NamedTuple):
    """``decode`` checks and converts a JSON value; ``encode`` goes back
    (``None``: the value is its own wire form).  ``leaf`` is set when
    ``decode`` checks the value's type and nothing else: the exact types
    it takes and the name its message gives them."""

    decode: Callable[[Any], Any]
    encode: Optional[Callable[[Any], Any]]
    leaf: Optional[tuple[tuple, str]] = None


def _got(value: Any) -> str:
    return "null" if value is None else type(value).__name__


def _must_be(expected: str, value: Any) -> str:
    return f"must be {expected}, got {_got(value)}"


def _checked(types: tuple, expected: str, convert: Optional[Callable] = None) -> Callable:
    def decode(value: Any) -> Any:
        if type(value) not in types:
            raise WireError(_must_be(expected, value))
        return value if convert is None else convert(value)

    return decode


def _strings(kind: type, pairs: Callable) -> Callable:
    """A converter to ``kind`` that checks every value of ``pairs(value)`` is a str."""

    def convert(value: Any) -> Any:
        for key, v in pairs(value):
            if type(v) is not str:
                raise WireError(_must_be("str", v), f"[{key!r}]")
        return kind(value)

    return convert


def _no_wire_form(value: Any) -> Any:
    raise WireError("has no wire form")


_LEAVES = {t: (t,) for t in (str, int, bool, dict, list)} | {float: (int, float)}


@functools.cache
def codec(hint: Any) -> Codec:
    """The codec of a type hint; :class:`TypeError` for one with no wire form."""
    if hint in _LEAVES:
        return Codec(_checked(_LEAVES[hint], hint.__name__), None, (_LEAVES[hint], hint.__name__))
    origin, args = get_origin(hint), get_args(hint)
    if origin in (Union, UnionType) and len(args) == 2 and NoneType in args:
        return codec(args[0] if args[1] is NoneType else args[1])  # the null rule
    if origin is CallableABC:
        return Codec(_no_wire_form, _no_wire_form)
    if (origin, args) in ((list, (str,)), (tuple, (str, Ellipsis)), (frozenset, (str,))):
        return Codec(_checked((list,), "list", _strings(origin, enumerate)),
                     sorted if origin is frozenset else list)
    if origin is dict and args == (str, str):
        return Codec(_checked((dict,), "dict", _strings(dict, dict.items)), dict)
    if isinstance(hint, type) and issubclass(hint, enum.Enum):
        members = {m.value: m for m in hint}
        types = tuple({type(v) for v in members})

        def member(value: Any) -> enum.Enum:
            if type(value) in types and value in members:
                return members[value]
            raise WireError(f"must be one of {', '.join(map(repr, members))}, got {value!r}")

        return Codec(member, lambda m: m.value)
    if isinstance(hint, type) and dataclasses.is_dataclass(hint):
        fields = dataclass_fields(hint)
        return Codec(_checked((dict,), "dict", lambda v: hint(**fields.decode(v))),
                     fields.encode_object)
    raise TypeError(f"no wire form for {hint!r}")


class Fields:
    """A declaration's fields: ``(name, hint, default)`` each, in order, with
    :data:`REQUIRED` as the default of a required field."""

    def __init__(self, declared: Iterable[tuple[str, Any, Any]]) -> None:
        decoders, encoders, sparse = [], [], []
        for name, hint, default in declared:
            decode, encode, leaf = codec(hint)
            if get_origin(hint) in (Union, UnionType) and default is not None:
                # null means "absent", so no wire value could reach None
                raise TypeError(f"{name}: a nullable field must default to None")
            types, expected = leaf or (None, "")
            decoders.append((name, default is REQUIRED, types, expected, decode))
            if encode is not None:
                encoders.append((name, encode))
            wire_default = encode(default) if encode and default not in (None, REQUIRED) else default
            sparse.append((name, default, encode, wire_default))
        self._decoders = tuple(decoders)
        #: ``(name, encode)`` of each field whose value is not its own wire form
        self.encoders = tuple(encoders)
        self._sparse = tuple(sparse)
        #: field names, in declaration order
        self.names = tuple(d[0] for d in decoders)
        #: the fields that must be present
        self.required = tuple(d[0] for d in decoders if d[1])

    @classmethod
    def of_parameters(cls, fn: Callable, params: Iterable[inspect.Parameter]) -> "Fields":
        hints = get_type_hints(fn)
        return cls((p.name, hints[p.name], p.default) for p in params)

    def decode(self, data: dict) -> dict:
        """The declared fields of ``data``, checked and converted; absent and
        null fields are left out, so the declaration's defaults apply."""
        out = {}
        for name, required, types, expected, decode in self._decoders:
            value = data[name] if name in data else None
            if value is None:
                if required:
                    raise WireError("is required", name)
            elif types is None:
                try:
                    out[name] = decode(value)
                except WireError as exc:
                    raise exc.under(name) from None
            elif type(value) in types:  # a leaf is checked here, not by a call
                out[name] = value
            else:
                raise WireError(_must_be(expected, value), name)
        return out

    def encode(self, values: dict) -> dict:
        """``values`` with each non-null field in its wire form (in place)."""
        for name, encode in self.encoders:
            value = values.get(name)
            if value is not None:
                values[name] = encode(value)
        return values

    def encode_object(self, obj: Any) -> dict:
        """Every field of ``obj``, in declaration order, in wire form."""
        return self.encode({name: getattr(obj, name) for name in self.names})

    def encode_sparse(self, obj: Any) -> dict:
        """The fields of ``obj`` whose wire form differs from their default's,
        in declaration order and wire form; a field equal to its default is
        never encoded."""
        out = {}
        for name, default, encode, wire_default in self._sparse:
            value = getattr(obj, name)
            if value == default:
                continue
            if encode is not None and value is not None:
                value = encode(value)
                if value == wire_default:  # e.g. a list where a tuple is declared
                    continue
            out[name] = value
        return out


@functools.cache
def dataclass_fields(cls: type) -> Fields:
    """The :class:`Fields` of a dataclass's ``__init__`` fields."""
    hints = get_type_hints(cls)
    return Fields((f.name, hints[f.name], _default(f)) for f in dataclasses.fields(cls) if f.init)


def _default(f: dataclasses.Field) -> Any:
    if f.default_factory is not dataclasses.MISSING:
        return f.default_factory()
    return REQUIRED if f.default is dataclasses.MISSING else f.default

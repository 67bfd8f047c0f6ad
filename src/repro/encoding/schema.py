"""Declared wire schemas: every ``to_wire``/``from_wire`` pair comes from
the fields it converts.

§7 calls a proxy's restrictions "a collection of typed subfields", and
every type that crosses a trust boundary here is one.  :func:`wire` reads
a dataclass's annotations once and installs the pair:

* **exact types** — an ``int`` field takes an ``int`` (not a ``bool``, not
  a ``float``), a ``float`` field a ``float``, a ``str`` field a ``str``;
* **containers** — ``Tuple[X, ...]`` and ``List[X]`` travel as lists of
  ``X``, a scalar, ``dict`` or another declared type; ``Dict[str, S]`` as
  a dict of scalars; ``Optional[X]`` as ``X`` or ``None``;
* **bounds** — ``field(metadata=...)`` may hold ``min_len`` (of a string,
  bytes or container), ``min`` and ``max`` (of a number, or of each number
  a container holds), and ``key`` (the field's name on the wire);
* **keys** — every field's key must be present and no other may be;
* **tags** — a :func:`union` base maps its tag (``type``, ``kind``) to the
  declared subclass that decodes the rest;
* **leaves** — :func:`leaf` types (identifiers, keys) are one scalar;
* **signed records** — ``wire(signed=TAG)`` types (a proxy certificate)
  travel as the bytes their signature covers: ``{"body": bytes,
  "signature": bytes}``, where ``body`` is the canonical encoding of the
  positional list ``[TAG, field, ...]``.

Whatever does not fit is refused with one :class:`WireSchemaError` naming
the type, the field and what was wrong; a refusal from the class's own
``__post_init__`` is reported the same way.  Nothing is coerced, so one
value has exactly one accepted wire form: a wire dict that decodes
re-encodes to the same bytes.

A signed record's ``from_wire`` runs a strict canonical ``decode`` of the
body and checks the tag, the arity and each field's exact type.  The
instance keeps the received bytes as its body, so a signature is checked
over exactly what arrived, and the record's ``memo`` store answers for a
``(body, signature)`` pair it already decoded.

``to_wire`` emits ``float(v)`` for a ``float`` field and every other value
as it is, as the hand-written encoders this replaces did.  Both directions
sit on every request's path, so each pair is generated as straight-line
code, the way :mod:`dataclasses` generates ``__init__`` — on the type's
first use, so a process compiles only the types its messages carry.

Beside the pair, each type gets a canonical writer, ``__wire_write__``,
which :func:`~repro.encoding.canonical.encode` calls for an instance: it
appends the bytes of ``encode(x.to_wire())`` without building that dict.
Key frames are constants laid out in sorted key order (a union's tag in
its sorted place), fields of their exact declared type are written
inline, and any other value goes back through the encoder, so the bytes,
the ``MAX_DEPTH`` checks and the refusals are the encoder's own.
"""

from __future__ import annotations

import dataclasses
import threading
import typing
from operator import methodcaller
from typing import Any, Callable, Dict, List, Mapping, Optional

from repro.encoding import canonical as _canonical
from repro.encoding.canonical import _F64, _LEN, _NONE, MAX_DEPTH, encode
from repro.errors import (
    DecodingError,
    EncodingError,
    ReproError,
    WireSchemaError,
)

__all__ = ["WireSchemaError", "WIRE_TYPES", "decoder", "leaf", "union", "wire"]

#: Every class :func:`wire` declared, in definition order.
WIRE_TYPES: List[type] = []

_SCALARS = (str, bytes, int, float, bool)

#: What a class's ``__post_init__`` (or a leaf's parser) raises to refuse
#: a value; reported as :class:`WireSchemaError`.
_REFUSALS = (ReproError, ValueError, TypeError)


def _refusal(owner: str, name: Optional[str], problem: str) -> WireSchemaError:
    where = owner if name is None else f"{owner}.{name}"
    return WireSchemaError(f"{where}: {problem}")


def _wrong_type(owner: str, name: Optional[str], kind: type, value: Any) -> None:
    raise _refusal(
        owner, name, f"expected {kind.__name__}, got {type(value).__name__}"
    )


def _items(value: Any, owner: str, name: str) -> Any:
    if type(value) is not list and type(value) is not tuple:
        _wrong_type(owner, name, list, value)
    return value


def _at_least(value: Any, length: int, owner: str, name: str) -> Any:
    if len(value) < length:
        raise _refusal(owner, name, f"shorter than {length}")
    return value


def _bounded(kind: type, owner: str, name: str, meta: Mapping) -> Callable:
    """Exact ``kind`` within ``meta``'s bounds; ``key`` names a dict entry."""
    low, high = meta.get("min"), meta.get("max")

    def decode(value, key=None):
        if type(value) is kind and (low is None or low <= value) and (
            high is None or value <= high
        ):
            return value
        where = name if key is None else f"{name}[{key!r}]"
        if type(value) is not kind:
            _wrong_type(owner, where, kind, value)
        bound = f"below {low!r}" if low is not None and value < low else (
            f"above {high!r}"
        )
        raise _refusal(owner, where, f"{value!r} is {bound}")

    return decode


def _scalars_by_str(decode: Callable, owner: str, name: str) -> Callable:
    def decode_map(value):
        if type(value) is not dict:
            _wrong_type(owner, name, dict, value)
        for key in value:
            if type(key) is not str:
                raise _refusal(owner, name, f"key {key!r} is not a str")
        return {key: decode(item, key) for key, item in value.items()}

    return decode_map


class _Source:
    """Python expressions that encode and decode one declared type's
    fields, and the objects they name."""

    def __init__(self, owner: str) -> None:
        self.owner = owner
        self.scope: Dict[str, Any] = {
            "_wrong_type": _wrong_type,
            "_items": _items,
            "_at_least": _at_least,
            "_refusal": _refusal,
            "_shape_problem": _shape_problem,
            "_REFUSALS": _REFUSALS,
            "WireSchemaError": WireSchemaError,
            "_canonical": _canonical,
            "_LEN": _LEN,
            "_F64": _F64,
            "MAX_DEPTH": MAX_DEPTH,
            "EncodingError": EncodingError,
            "_TOO_DEEP": f"nesting deeper than {MAX_DEPTH}",
            "_NAN": "NaN has no canonical encoding",
        }

    def name(self, obj: Any) -> str:
        key = f"_x{len(self.scope)}"
        self.scope[key] = obj
        return key

    def encode(self, hint: Any, got: str, depth: int = 0) -> str:
        """The wire form of ``got``, a value annotated ``hint``."""
        origin, args = typing.get_origin(hint), typing.get_args(hint)
        var = f"_v{depth}"
        if origin is typing.Union:
            (inner,) = [a for a in args if a is not type(None)]
            each = self.encode(inner, var, depth + 1)
            if each == var:
                return got
            return f"(None if ({var} := {got}) is None else {each})"
        if origin in (tuple, list):
            return f"[{self.encode(args[0], var, depth + 1)} for {var} in {got}]"
        if hint is float:
            return f"float({got})"
        if hint is dict or origin is dict:
            return f"dict({got})"
        if hint in _SCALARS:
            return got
        return f"{self.name(self._declared(hint))}.__wire__({got})"

    def decode(
        self, hint: Any, got: str, field: str, meta: Mapping, depth: int = 0
    ) -> str:
        """The value of wire ``got``, annotated ``hint``, or a raised
        :class:`WireSchemaError` — never a coerced value."""
        origin, args = typing.get_origin(hint), typing.get_args(hint)
        owner, var = self.owner, f"_v{depth}"
        if origin is typing.Union:
            (inner,) = [a for a in args if a is not type(None)]
            each = self.decode(inner, var, field, meta, depth + 1)
            return f"(None if ({var} := {got}) is None else {each})"
        if origin in (tuple, list):
            if origin is tuple and args[1:] != (Ellipsis,):
                raise TypeError(f"{owner}.{field}: only Tuple[X, ...] is declarable")
            each = self.decode(args[0], var, field, meta, depth + 1)
            items = f"[{each} for {var} in _items({got}, {owner!r}, {field!r})]"
            return items if origin is list else f"tuple({items})"
        if origin is dict:
            if args[0] is not str or args[1] not in _SCALARS:
                raise TypeError(
                    f"{owner}.{field}: only Dict[str, scalar] is declarable"
                )
            each = _bounded(args[1], owner, field, meta)
            return f"{self.name(_scalars_by_str(each, owner, field))}({got})"
        if hint is dict or hint in _SCALARS:
            if meta.get("min") is None and meta.get("max") is None:
                kind = self.name(hint)
                value = f"dict({var})" if hint is dict else var  # a copy
                return (
                    f"({value} if type({var} := {got}) is {kind} "
                    f"else _wrong_type({owner!r}, {field!r}, {kind}, {var}))"
                )
            return f"{self.name(_bounded(hint, owner, field, meta))}({got})"
        leaf = vars(self._declared(hint)).get("__wire_leaf__")
        if leaf is not None:  # the type check inline, the parse called
            kind, parse = map(self.name, leaf)
            return (
                f"({parse}({var}) if type({var} := {got}) is {kind} "
                f"else _wrong_type({owner!r}, {field!r}, {kind}, {var}))"
            )
        return f"{self.name(hint)}.from_wire({got})"

    def write(
        self, hint: Any, got: str, head: bytes, depth: str, level: int
    ) -> List[str]:
        """Statements that append ``head`` (constant frames that precede
        this value) and then the canonical encoding of local ``got``, a
        value annotated ``hint``, to ``out`` — the bytes ``encode`` gives
        its wire form at ``depth``.  A value not of its exact declared type
        goes to ``_canonical._encode_into``."""
        origin, args = typing.get_origin(hint), typing.get_args(hint)
        pad = "    " * level

        def put(data: bytes, indent: str = pad) -> List[str]:
            return [f"{indent}out += {self.name(data)}"] if data else []

        encoder = f"_canonical._encode_into(out, {got}, type({got}), {depth})"
        fallback = [f"{pad}else:", *put(head, pad + "    "), f"{pad}    {encoder}"]
        if origin is typing.Union:
            (inner,) = [a for a in args if a is not type(None)]
            return [
                f"{pad}if {got} is None:",
                *put(head + _NONE, pad + "    "),
                f"{pad}else:",
                *self.write(inner, got, head, depth, level + 1),
            ]
        if origin in (tuple, list):
            item, start, inner = f"_v{level}", f"_s{level}", f"_d{level}"
            return [
                f"{pad}if {depth} >= MAX_DEPTH:",
                f"{pad}    raise EncodingError(_TOO_DEEP)",
                *put(head + b"L\x00\x00\x00\x00"),
                f"{pad}{start} = len(out) - 5",
                f"{pad}{inner} = {depth} + 1",
                f"{pad}for {item} in {got}:",
                *self.write(args[0], item, b"", inner, level + 1),
                f"{pad}_LEN.pack_into(out, {start} + 1, len(out) - {start} - 5)",
            ]
        if hint is float:
            return [
                f"{pad}{got} = float({got})",
                f"{pad}if {got} != {got}:",
                f"{pad}    raise EncodingError(_NAN)",
                *put(head + b"D\x00\x00\x00\x08"),
                f"{pad}out += _F64.pack({got})",
            ]
        if hint is str:
            return [
                f"{pad}if type({got}) is str:",
                f"{pad}    _p = {got}.encode()",
                *put(head + b"S", pad + "    "),
                f"{pad}    out += _LEN.pack(len(_p))",
                f"{pad}    out += _p",
                *fallback,
            ]
        if hint is bytes:
            return [
                f"{pad}if type({got}) is bytes:",
                *put(head + b"B", pad + "    "),
                f"{pad}    out += _LEN.pack(len({got}))",
                f"{pad}    out += {got}",
                *fallback,
            ]
        if hint is int:
            return [
                f"{pad}if type({got}) is int:",
                f"{pad}    _n = ({got}.bit_length() + 8) // 8 or 1",
                *put(head + b"I", pad + "    "),
                f"{pad}    out += _LEN.pack(_n)",
                f"{pad}    out += {got}.to_bytes(_n, 'big', signed=True)",
                *fallback,
            ]
        if hint is dict or origin is dict:  # ``to_wire`` copies it
            return [
                *put(head),
                f"{pad}_canonical._encode_into(out, dict({got}), dict, {depth})",
            ]
        leaf = vars(hint).get("__wire_leaf__")
        if leaf is not None:
            wire_form = f"_w{level}"
            return [
                f"{pad}if type({got}) is {self.name(hint)}:",
                f"{pad}    {wire_form} = {self.name(hint.__wire__)}({got})",
                *self.write(leaf[0], wire_form, head, depth, level + 1),
                *fallback,
            ]
        # A bool, and a nested declared value (a union member's type is
        # known only at run time), go through the encoder, which hands a
        # declared one to its writer.
        return [*put(head), f"{pad}{encoder}"]

    def field(self, hint: Any, got: str, field: str, meta: Mapping) -> str:
        """:meth:`decode`, then the field's ``min_len``."""
        expr = self.decode(hint, got, field, meta)
        if "min_len" in meta:
            expr = f"_at_least({expr}, {meta['min_len']!r}, {self.owner!r}, {field!r})"
        return expr

    def _declared(self, hint: Any) -> type:
        if getattr(hint, "__wire__", None) is None:
            raise TypeError(f"{self.owner}: {hint!r} has no wire form")
        return hint

    def compile(self, source: str) -> Dict[str, Any]:
        exec(compile(source, f"<wire {self.owner}>", "exec"), self.scope)
        return self.scope

    def refusing(self, header: str, expr: str, checks: str = "") -> str:
        """A function that runs ``checks`` and returns ``expr``; refusals
        by a class's own ``__post_init__`` or a leaf's parse become
        :class:`WireSchemaError`."""
        return (
            f"{header}\n{checks}"
            "    try:\n"
            f"        return {expr}\n"
            "    except WireSchemaError:\n"
            "        raise\n"
            "    except _REFUSALS as exc:\n"
            f"        raise _refusal({self.owner!r}, None, str(exc)) from exc\n"
        )


def decoder(hint: Any, owner: str, name: str, **meta: Any) -> Callable:
    """The decoder :func:`wire` would build for one field ``owner.name``
    annotated ``hint`` with bounds ``meta`` — for a value that is not a
    field of any declared class (a request's ``amounts``)."""
    source = _Source(owner)
    expr = source.field(hint, "value", name, meta)
    return source.compile(source.refusing("def decode(value):", expr))["decode"]


def _shape_problem(value: Any, keys: frozenset) -> str:
    if type(value) is not dict:
        return f"expected dict, got {type(value).__name__}"
    missing = ", ".join(sorted(keys - value.keys()))
    extra = ", ".join(sorted(map(repr, value.keys() - keys)))
    return "; ".join(
        filter(None, [missing and f"missing {missing}", extra and f"unknown {extra}"])
    )


def wire(
    cls: Optional[type] = None,
    *,
    root: Optional[str] = None,
    signed: Optional[str] = None,
    memo: Optional[Any] = None,
):
    """Class decorator: derive ``to_wire``/``from_wire`` from the fields of
    dataclass ``cls`` (see the module docstring).

    A subclass of a :func:`union` base is registered under its tag and
    carries it in its wire dict.  ``root`` names the one field whose wire
    form is the whole object's (a bare list, for instance).

    ``signed`` declares a signed record tagged ``signed``: the class's last
    field is its signature, the others are its body, in declaration order,
    and its ``body_bytes()`` returns that body (memoized in ``_body``, which
    decoding seeds with the received bytes).  ``memo``, a
    :class:`~repro.bounded.BoundedStore` a signed record must name, keeps
    each decoded record under its exact ``(body, signature)`` bytes, so
    the class must be immutable; every use of the store holds a lock of
    the type's own.

    The tag is registered now; the pair and the writer are generated on
    the type's first use and replace these placeholders.  Generated code
    reaches another declared type's codec through its class, never a
    placeholder.
    """
    if cls is None:
        return lambda c: wire(c, root=root, signed=signed, memo=memo)
    if signed is not None and memo is None:
        raise TypeError(f"{cls.__name__}: a signed record needs a memo")
    head = {} if root is not None else _register_tag(cls, cls.__name__)

    def generate() -> None:
        to_wire, from_wire, write = _generate(cls, head, root, signed, memo)
        cls.to_wire = cls.__wire__ = to_wire
        cls.from_wire = classmethod(from_wire)
        cls.__wire_write__ = write

    def to_wire(self):
        generate()
        return cls.__wire__(self)

    def from_wire(klass, value):
        generate()
        return cls.from_wire(value)

    def write(out, value, depth):
        generate()
        cls.__wire_write__(out, value, depth)

    cls.to_wire = cls.__wire__ = to_wire
    cls.from_wire = classmethod(from_wire)
    cls.__wire_write__ = write
    WIRE_TYPES.append(cls)
    return cls


def _generate(
    cls: type,
    head: Dict[str, str],
    root: Optional[str],
    signed: Optional[str],
    memo: Optional[Any],
) -> tuple:
    owner = cls.__name__
    hints = typing.get_type_hints(cls)
    source = _Source(owner)
    scope = source.scope
    scope["_cls"] = cls
    specs = dataclasses.fields(cls)
    if root is not None:
        (spec,) = [f for f in specs if f.name == root]
        encoded = source.encode(hints[root], f"self.{root}")
        written = [
            f"    _v = self.{root}",
            *source.write(hints[root], "_v", b"", "depth", 1),
        ]
        built = f"{root}=" + source.field(
            hints[root], "value", root, spec.metadata
        )
        decoder_source = source.refusing(
            "def from_wire(klass, value):", f"_cls({built})"
        )
    else:
        if signed is not None:
            *body, signature = specs
            key = signature.metadata.get("key", signature.name)
            fields = {
                "body": ("self.body_bytes()", bytes),
                key: (f"self.{signature.name}", hints[signature.name]),
            }
            decoder_source = _record_decoder(
                source, hints, body, signature, signed, memo
            )
        else:
            keys = {spec.metadata.get("key", spec.name): spec for spec in specs}
            fields = {
                key: (f"self.{spec.name}", hints[spec.name])
                for key, spec in keys.items()
            }
            scope["_keys"] = frozenset(head) | frozenset(keys)
            check = (
                "    if type(value) is not dict or value.keys() != _keys:\n"
                f"        raise _refusal({owner!r}, None, "
                "_shape_problem(value, _keys))\n"
            ) + "".join(
                f"    if value[{key!r}] != {tag!r}:\n"
                f"        raise _refusal({owner!r}, {key!r}, "
                f"'expected {tag}, got %r' % (value[{key!r}],))\n"
                for key, tag in head.items()
            )
            built = ", ".join(
                f"{spec.name}="
                + source.field(
                    hints[spec.name], f"value[{key!r}]", spec.name, spec.metadata
                )
                for key, spec in keys.items()
            )
            decoder_source = source.refusing(
                "def from_wire(klass, value):", f"_cls({built})", check
            )
        encoded = "{%s}" % ", ".join(
            [f"{key!r}: {tag!r}" for key, tag in head.items()]
            + [
                f"{key!r}: " + source.encode(hint, got)
                for key, (got, hint) in fields.items()
            ]
        )
        written = _dict_writer(source, head, fields)
    source.compile(
        f"def to_wire(self):\n    return {encoded}\n"
        + decoder_source
        + "def write(out, self, depth):\n"
        + "".join(f"{line}\n" for line in written)
    )
    return scope["to_wire"], scope["from_wire"], scope["write"]


def _record_decoder(
    source: _Source,
    hints: Dict[str, Any],
    body: List[dataclasses.Field],
    signature: dataclasses.Field,
    tag: str,
    memo: Any,
) -> str:
    """``from_wire`` of a signed record: the body is decoded strictly and
    positionally, once per distinct ``(body, signature)``."""
    owner, scope = source.owner, source.scope
    key = signature.metadata.get("key", signature.name)
    scope.update(
        _keys=frozenset(("body", key)),
        _tag=tag,
        _not_a_record=f"not a [{tag!r}, ...] record of {len(body) + 1} items",
        _memo=memo,
        _lock=threading.Lock(),
        _seed=object.__setattr__,
        DecodingError=DecodingError,
    )
    fields = ", ".join(
        [
            f"{spec.name}="
            + source.field(hints[spec.name], f"_f[{i}]", spec.name, spec.metadata)
            for i, spec in enumerate(body, 1)
        ]
        + [f"{signature.name}=_sig"]
    )
    got = source.field(bytes, "value['body']", "body", {})
    sig = source.field(
        hints[signature.name], f"value[{key!r}]", signature.name, signature.metadata
    )
    return (
        "def from_wire(klass, value):\n"
        "    if type(value) is not dict or value.keys() != _keys:\n"
        f"        raise _refusal({owner!r}, None, _shape_problem(value, _keys))\n"
        f"    _body = {got}\n"
        f"    _sig = {sig}\n"
        "    _key = (_body, _sig)\n"
        "    with _lock:\n"
        "        _hit = _memo.lookup(_key)\n"
        "    if _hit is not None:\n"
        "        return _hit\n"
        "    try:\n"
        "        _f = _canonical.decode(_body)\n"
        "    except DecodingError as exc:\n"
        f"        raise _refusal({owner!r}, 'body', str(exc)) from exc\n"
        f"    if type(_f) is not list or len(_f) != {len(body) + 1} "
        "or _f[0] != _tag:\n"
        f"        raise _refusal({owner!r}, 'body', _not_a_record)\n"
        "    try:\n"
        f"        _value = _cls({fields})\n"
        "    except WireSchemaError:\n"
        "        raise\n"
        "    except _REFUSALS as exc:\n"
        f"        raise _refusal({owner!r}, None, str(exc)) from exc\n"
        "    _seed(_value, '_body', _body)\n"
        "    with _lock:\n"
        "        _memo.put(_key, _value)\n"
        "    return _value\n"
    )


def _dict_writer(
    source: _Source, head: Dict[str, str], fields: Dict[str, tuple]
) -> List[str]:
    """The body of a writer whose wire form is a dict of ``fields`` (wire
    key -> ``(expression, annotation)``): its header and key frames are
    constants, laid out in sorted key order, and a union tag is a constant
    frame of its own."""
    written = [
        "    if depth >= MAX_DEPTH:",
        "        raise EncodingError(_TOO_DEEP)",
        "    depth += 1",
        "    _s = len(out)",
    ]
    frames = b"M\x00\x00\x00\x00"
    for key in sorted({**head, **fields}):
        frames += encode(key)
        if key in head:
            frames += encode(head[key])
            continue
        got, hint = fields[key]
        written.append(f"    _v = {got}")
        written += source.write(hint, "_v", frames, "depth", 1)
        frames = b""
    if frames:
        written.append(f"    out += {source.name(frames)}")
    written.append("    _LEN.pack_into(out, _s + 1, len(out) - _s - 5)")
    return written


def _register_tag(cls: type, owner: str) -> Dict[str, str]:
    """``{tag key: tag}`` for a member of a :func:`union`, else ``{}``."""
    for base in cls.__mro__[1:]:
        if "__wire_union__" in vars(base):
            tag_key, tag_attr, registry = base.__wire_union__
            tag = getattr(cls, tag_attr, "")
            if not tag or tag in registry:
                raise TypeError(f"{owner}: missing or duplicate {tag_key} {tag!r}")
            registry[tag] = cls
            return {tag_key: tag}
    return {}


def union(key: str, attr: str):
    """Class decorator for the base of a tagged union: its ``from_wire``
    reads ``key`` and hands the dict to the :func:`wire` subclass whose
    class attribute ``attr`` holds that tag.

    Members are value objects: one value has one wire form, so they
    compare and hash by it (their dataclasses say ``eq=False``)."""

    def declare(base: type) -> type:
        registry: Dict[str, type] = {}
        owner = base.__name__

        def from_wire(klass, value):
            try:
                member = registry[value[key]]
            except (KeyError, TypeError):
                tag = value.get(key) if type(value) is dict else None
                raise _refusal(owner, key, f"unknown {key} {tag!r}") from None
            return member.from_wire(value)

        def __eq__(self, other):
            return isinstance(other, base) and self.to_wire() == other.to_wire()

        def __hash__(self):
            return hash(encode(self))

        base.__wire_union__ = (key, attr, registry)
        base.__wire__ = methodcaller("to_wire")
        base.from_wire = classmethod(from_wire)
        base.__eq__, base.__hash__ = __eq__, __hash__
        return base

    return declare


def leaf(kind: type, encode: Callable[[Any], Any], decode: Callable[[Any], Any]):
    """Class decorator for a type whose wire form is one ``kind`` value:
    ``to_wire`` is ``encode(self)`` and ``from_wire`` refuses anything
    but a ``kind`` before handing it to ``decode``."""

    def declare(cls: type) -> type:
        owner = cls.__name__

        def to_wire(self):
            return encode(self)

        def from_wire(klass, value):
            if type(value) is not kind:
                _wrong_type(owner, None, kind, value)
            try:
                return decode(value)
            except WireSchemaError:
                raise
            except _REFUSALS as exc:
                raise _refusal(owner, None, str(exc)) from exc

        def write(out, value, depth):
            scalar = encode(value)
            _canonical._encode_into(out, scalar, type(scalar), depth)

        cls.to_wire = to_wire
        cls.__wire__ = encode
        cls.__wire_write__ = write
        cls.__wire_leaf__ = (kind, decode)
        cls.from_wire = classmethod(from_wire)
        return cls

    return declare

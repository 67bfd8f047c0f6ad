"""Span tracing from the benchmark's side of every layer boundary.

Nothing under ``src/`` knows about this file.  :class:`Tracer` rebinds a
fixed table of layer-boundary callables (:data:`BOUNDARIES`) — every
``repro.*`` module global or class attribute that *is* the target — to a
wrapper that records one in-memory span per call: name, start, end, the
span that caused it, and the id of the op it belongs to.  Leaving the
``with`` block rebinds the originals.  Spans are written out and folded
into per-layer **self time** (a span's duration minus the part its child
spans cover) only after the measured window ends, so the rows of the
per-layer table partition each op's wall time by construction.

Two refinements keep the numbers honest:

* a recursive boundary (``canonical.encode``) is spanned at its outermost
  entry only: the wrapper calls a private copy of the function whose own
  global name resolves to the copy, so the recursion never re-enters the
  wrapper and costs nothing extra;
* on the aio runtime the client's ``AioNetwork.send`` span hands its id to
  the ``Network.send`` span the event-loop thread opens for the same
  payload, so the handler's spans stay in the client's op and the client
  span's self time *is* the inbox wait.
"""

from __future__ import annotations

import importlib
import itertools
import sys
import threading
import time
import types
from array import array
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple


class TraceError(RuntimeError):
    """The boundary table no longer matches the code under ``src/``."""


class Boundary(NamedTuple):
    span: str
    #: ``module:attr`` or ``module:Class.attr``.
    target: str
    #: The per-layer time row this span's self time is charged to.
    row: str
    #: Optional ``(args, result) -> number`` recorded with the span
    #: (bytes, batch size, cache hit) so ratios are measured where the
    #: work happens.
    value: Optional[Callable] = None
    recursive: bool = False
    #: ``"put"``/``"take"``: cross-thread parent hand-off keyed by the
    #: payload object (positional argument 4 of ``send``).
    handoff: Optional[str] = None


def _is_hmac(args, result):
    return type(args[0]).__name__ == "HmacSigner"


BOUNDARIES: Tuple[Boundary, ...] = (
    # crypto.schnorr
    Boundary("schnorr.sign", "repro.crypto.schnorr:sign",
             "crypto.schnorr.sign_ms_per_op"),
    Boundary("schnorr.verify", "repro.crypto.schnorr:verify",
             "crypto.schnorr.verify_ms_per_op"),
    Boundary("schnorr.keygen", "repro.crypto.schnorr:generate_keypair",
             "crypto.schnorr.keygen_ms_per_op"),
    Boundary("schnorr.verify_batch", "repro.crypto.schnorr:verify_batch",
             "crypto.schnorr.verify_batch_ms_per_op",
             value=lambda args, result: len(args[0])),
    # crypto.signature: what is left after the Schnorr children is HMAC
    # tagging, scheme dispatch, and the signature-cache lookup.
    Boundary("signature.sign", "repro.crypto.signature:Signer.sign",
             "crypto.hmac.ms_per_op", value=_is_hmac),
    Boundary("signature.verify", "repro.crypto.signature:Verifier.verify",
             "crypto.hmac.ms_per_op", value=_is_hmac),
    Boundary("sigcache.lookup", "repro.crypto.signature:SignatureCache.lookup",
             "crypto.hmac.ms_per_op", value=lambda args, result: result),
    # crypto.symmetric
    Boundary("symmetric.seal", "repro.crypto.symmetric:seal",
             "crypto.symmetric.seal_ms_per_op",
             value=lambda args, result: len(args[1])),
    Boundary("symmetric.unseal", "repro.crypto.symmetric:unseal",
             "crypto.symmetric.unseal_ms_per_op",
             value=lambda args, result: len(args[1])),
    # encoding
    Boundary("encoding.encode", "repro.encoding.canonical:encode",
             "encoding.encode_ms_per_op",
             value=lambda args, result: len(result), recursive=True),
    Boundary("encoding.decode", "repro.encoding.canonical:decode",
             "encoding.decode_ms_per_op"),
    # core: building, signing and presenting certificates ...
    *(
        Boundary(f"core.{name}", f"repro.core.proxy:{name}",
                 "core.grant_ms_per_op")
        for name in ("grant_conventional", "grant_public", "grant_hybrid",
                     "cascade", "delegate_cascade")
    ),
    Boundary("core.present", "repro.core.presentation:present",
             "core.grant_ms_per_op"),
    # ... and verifying them.
    Boundary("core.verify", "repro.core.verification:ProxyVerifier.verify",
             "core.verify_ms_per_op"),
    Boundary("vcache.get", "repro.core.vcache:ChainPrefixCache.get",
             "core.verify_ms_per_op",
             value=lambda args, result: result is not None),
    Boundary("core.evaluate", "repro.core.evaluation:evaluate",
             "core.restrictions_ms_per_op"),
    Boundary("replay.register", "repro.core.replay:AcceptOnceRegistry.register",
             "core.replay_ms_per_op"),
    Boundary("replay.register_counted",
             "repro.core.replay:AcceptOnceRegistry.register_counted",
             "core.replay_ms_per_op"),
    Boundary("authcache.register",
             "repro.core.replay:AuthenticatorCache.register",
             "core.replay_ms_per_op"),
    # kerberos
    Boundary("kerberos.make_ap_request", "repro.kerberos.session:make_ap_request",
             "kerberos.ms_per_op"),
    Boundary("kerberos.ap_accept", "repro.kerberos.session:ApAcceptor.accept",
             "kerberos.ms_per_op"),
    Boundary("kerberos.ticket_open", "repro.kerberos.ticket:Ticket.open",
             "kerberos.ms_per_op"),
    Boundary("kerberos.auth_seal", "repro.kerberos.ticket:Authenticator.seal",
             "kerberos.ms_per_op"),
    Boundary("kerberos.auth_open", "repro.kerberos.ticket:Authenticator.open",
             "kerberos.ms_per_op"),
    # net
    Boundary("net.send", "repro.net.network:Network.send",
             "net.send_ms_per_op", handoff="take"),
    Boundary("net.wire_size", "repro.net.message:Message.wire_size",
             "net.send_ms_per_op"),
    Boundary("net.aio_send", "repro.net.aio:AioNetwork.send",
             "net.aio.wait_ms_per_op", handoff="put"),
    # services
    Boundary("services.handle", "repro.net.service:Service.handle",
             "services.handler_ms_per_op"),
    Boundary("services.request", "repro.services.client:ServiceClient.request",
             "services.client_ms_per_op"),
    Boundary("services.pk_request", "repro.services.pk_endserver:PkClient.request",
             "services.client_ms_per_op"),
    # ledger
    Boundary("ledger.post", "repro.ledger.ledger:Ledger.post",
             "ledger.post_ms_per_op"),
    Boundary("ledger.record_to_wire", "repro.ledger.ledger:Ledger.record_to_wire",
             "ledger.post_ms_per_op"),
    # durability
    Boundary("durability.append", "repro.durability.store:DurabilityStore.append",
             "durability.append_ms_per_op"),
    Boundary("wal.append_record", "repro.ledger.wal:append_record",
             "durability.append_ms_per_op"),
    Boundary("wal.frame", "repro.ledger.wal:frame",
             "durability.append_ms_per_op",
             value=lambda args, result: len(result)),
    Boundary("durability.compact", "repro.durability.store:DurabilityStore.compact",
             "durability.compact_ms_per_op"),
    # audit
    Boundary("audit.record", "repro.audit.log:AuditLog.record",
             "audit.record_ms_per_op"),
)

#: Spans the harness opens itself: one root per op, and the aio
#: prefetcher closure it wraps when installing it.
ROOT = "op"
PREFETCH = "services.prefetch"
HARNESS_ROWS = {ROOT: "harness.unattributed", PREFETCH: "services.prefetch_ms_per_op"}

NAMES: List[str] = [b.span for b in BOUNDARIES] + [ROOT, PREFETCH]
ROW_OF: Dict[str, str] = {**{b.span: b.row for b in BOUNDARIES}, **HARNESS_ROWS}


class _Buffer:
    """One thread's spans, as parallel columns (8 bytes a field)."""

    __slots__ = ("ids", "names", "starts", "ends", "parents", "ops",
                 "values", "stack")

    def __init__(self) -> None:
        self.ids = array("q")
        self.names = array("h")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self.ops = array("q")
        self.values = array("q")
        #: (span id, op id) of the spans open on this thread.
        self.stack: List[Tuple[int, int]] = []


def _resolve(target: str):
    """``(namespace, attribute, raw binding)`` of one boundary target."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for part in parents:
            owner = vars(owner)[part]
        return owner, attr, vars(owner)[attr]
    except (ImportError, KeyError) as exc:
        raise TraceError(
            f"trace boundary {target!r} did not resolve ({exc!r}): the "
            "function was renamed or moved; update perf/trace.py BOUNDARIES"
        ) from exc


def _function_of(raw):
    return getattr(raw, "__func__", raw)


def _rewrap(raw, wrapper):
    """Keep ``classmethod``/``staticmethod`` bindings what they were."""
    if isinstance(raw, (classmethod, staticmethod)):
        return type(raw)(wrapper)
    return wrapper


def _sites(function):
    """Every ``repro.*`` module global or class attribute bound to ``function``."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not (
            module_name == "repro" or module_name.startswith("repro.")
        ):
            continue
        for name, value in list(vars(module).items()):
            if value is function:
                yield module, name, value
            elif isinstance(value, type) and value.__module__ == module_name:
                for attr, raw in list(vars(value).items()):
                    if _function_of(raw) is function:
                        yield value, attr, raw


def _self_calling_copy(function):
    """A copy of a recursive module function whose recursion stays inside
    the copy (its globals map the function's own name to the copy)."""
    scope = dict(function.__globals__)
    copy = types.FunctionType(
        function.__code__, scope, function.__name__,
        function.__defaults__, function.__closure__,
    )
    copy.__kwdefaults__ = function.__kwdefaults__
    scope[function.__name__] = copy
    return copy


class Tracer:
    """Context manager: boundaries rebound inside, restored on exit.

    Install it *before* the realm is built — services hand bound methods
    to the network at construction, and a bound method keeps whatever
    function it was created from.  Spans are recorded only while
    :attr:`enabled` is set (the measured window), so set-up costs nothing
    but the wrapper's pass-through.
    """

    def __init__(self) -> None:
        self.enabled = False
        self._ids = itertools.count()
        self._op_ids = itertools.count()
        self._local = threading.local()
        self._buffers: List[_Buffer] = []
        self._handoff: Dict[int, Tuple[int, int]] = {}
        self._rebound: List[tuple] = []

    # -- install / restore ----------------------------------------------

    def __enter__(self) -> "Tracer":
        try:
            for boundary in BOUNDARIES:
                _, _, raw = _resolve(boundary.target)
                function = _function_of(raw)
                inner = (
                    _self_calling_copy(function)
                    if boundary.recursive
                    else function
                )
                wrapper = self._wrap(boundary.span, inner, boundary)
                sites = list(_sites(function))
                if not sites:
                    raise TraceError(
                        f"trace boundary {boundary.target!r} is bound nowhere"
                    )
                for owner, name, site_raw in sites:
                    setattr(owner, name, _rewrap(site_raw, wrapper))
                    self._rebound.append((owner, name, site_raw))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self.enabled = False
        self._restore()

    def _restore(self) -> None:
        for owner, name, raw in reversed(self._rebound):
            setattr(owner, name, raw)
        self._rebound.clear()

    # -- recording --------------------------------------------------------

    def _buffer(self) -> _Buffer:
        try:
            return self._local.buffer
        except AttributeError:
            buffer = self._local.buffer = _Buffer()
            self._buffers.append(buffer)
            return buffer

    def _wrap(
        self,
        name: str,
        function,
        boundary: Optional[Boundary] = None,
        root: bool = False,
    ):
        tracer = self
        clock = time.perf_counter_ns
        next_id = self._ids.__next__
        next_op = self._op_ids.__next__
        name_index = NAMES.index(name)
        value = boundary.value if boundary else None
        handoff = boundary.handoff if boundary else None
        pending = self._handoff

        def span(*args, **kwargs):
            if not tracer.enabled:
                return function(*args, **kwargs)
            buffer = tracer._buffer()
            stack = buffer.stack
            if root:
                parent, op = -1, next_op()
            elif stack:
                parent, op = stack[-1]
            elif handoff == "take":
                parent, op = pending.get(id(args[4]), (-1, -1))
            else:
                parent, op = -1, -1
            span_id = next_id()
            if handoff == "put":
                pending[id(args[4])] = (span_id, op)
            slot = len(buffer.ids)
            buffer.ids.append(span_id)
            buffer.names.append(name_index)
            buffer.parents.append(parent)
            buffer.ops.append(op)
            buffer.values.append(0)
            buffer.ends.append(0)
            stack.append((span_id, op))
            buffer.starts.append(clock())
            try:
                result = function(*args, **kwargs)
            finally:
                buffer.ends[slot] = clock()
                stack.pop()
                if handoff == "put":
                    pending.pop(id(args[4]), None)
            if value is not None:
                buffer.values[slot] = int(value(args, result))
            return result

        return span

    def root(self, function):
        """Wrap the driver's per-op call: a root span with a fresh op id."""
        return self._wrap(ROOT, function, root=True)

    def wrap(self, name: str, function):
        """Span a callable the harness itself hands to a layer."""
        return self._wrap(name, function)

    # -- after the window ---------------------------------------------------

    def spans(self):
        """Every recorded span as ``(id, name, start, end, parent, op, value)``."""
        for buffer in list(self._buffers):
            names = buffer.names
            for slot in range(len(buffer.ids)):
                yield (
                    buffer.ids[slot], NAMES[names[slot]], buffer.starts[slot],
                    buffer.ends[slot], buffer.parents[slot], buffer.ops[slot],
                    buffer.values[slot],
                )

    def write_jsonl(self, path: str) -> int:
        """One JSON object per span; returns how many were written."""
        count = 0
        with open(path, "w") as out:
            for span in self.spans():
                out.write(
                    '{"id":%d,"name":"%s","start_ns":%d,"end_ns":%d,'
                    '"parent":%d,"op":%d,"value":%d}\n' % span
                )
                count += 1
        return count

    def aggregate(self) -> "Aggregate":
        return Aggregate(self._buffers)


class Aggregate:
    """Per-span-name totals: calls, inclusive and self nanoseconds, values.

    ``value_under[(name, parent name)]`` keeps recorded values apart by
    what caused the span (a WAL record's frame vs a snapshot's).
    """

    def __init__(self, buffers: List[_Buffer]) -> None:
        count = len(NAMES)
        self.calls = [0] * count
        self.total_ns = [0] * count
        self.child_ns = [0] * count
        self.max_ns = [0] * count
        self.values = [0] * count
        self.value_under: Dict[Tuple[str, str], int] = {}
        # Span ids are dense, so the name of any parent is one index away.
        name_of = array("h", [-1]) * sum(len(b.ids) for b in buffers)
        for buffer in buffers:
            for span_id, name in zip(buffer.ids, buffer.names):
                name_of[span_id] = name
        for buffer in buffers:
            for name, start, end, parent, value in zip(
                buffer.names, buffer.starts, buffer.ends, buffer.parents,
                buffer.values,
            ):
                duration = end - start
                self.calls[name] += 1
                self.total_ns[name] += duration
                if duration > self.max_ns[name]:
                    self.max_ns[name] = duration
                if parent >= 0:
                    self.child_ns[name_of[parent]] += duration
                if value:
                    self.values[name] += value
                    if parent >= 0:
                        key = (NAMES[name], NAMES[name_of[parent]])
                        self.value_under[key] = (
                            self.value_under.get(key, 0) + value
                        )

    def _index(self, name: str) -> int:
        return NAMES.index(name)

    def count(self, *names: str) -> int:
        return sum(self.calls[self._index(n)] for n in names)

    def value(self, *names: str) -> int:
        return sum(self.values[self._index(n)] for n in names)

    def inclusive_ms(self, name: str) -> float:
        return self.total_ns[self._index(name)] / 1e6

    def max_ms(self, name: str) -> float:
        return self.max_ns[self._index(name)] / 1e6

    def self_ms_by_row(self) -> Dict[str, float]:
        """Self time per layer row, in ms; the rows sum to the roots' total."""
        rows: Dict[str, float] = {}
        for index, name in enumerate(NAMES):
            row = ROW_OF[name]
            self_ns = self.total_ns[index] - self.child_ns[index]
            rows[row] = rows.get(row, 0.0) + self_ns / 1e6
        return rows

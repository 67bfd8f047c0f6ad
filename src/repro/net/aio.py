"""Asyncio delivery mode for the simulated network.

:class:`AioNetwork` keeps the wire semantics of
:class:`~repro.net.network.Network` — same message encoding, metering,
taps, fault legs, and telemetry spans — but delivers through per-endpoint
**inbox queues** consumed by asyncio worker tasks, so many client threads
can have requests in flight at once:

* **Client side** stays a plain blocking call: ``send()`` packages the
  request with a :class:`concurrent.futures.Future` and a copy of the
  caller's :mod:`contextvars` context (the worker delivers inside it, so
  the message joins the caller's trace), hops onto the event
  loop with ``call_soon_threadsafe``, and blocks (with an optional
  timeout) until a worker settles the future.  Client code written for
  the synchronous network — every service client in the repo — works
  unchanged from any thread.
* **Server side** is single-threaded by construction: workers run on the
  event loop and invoke the inherited ``Network.send`` core inline, so
  handlers stay atomic with respect to each other and nested sends made
  *from* a handler (a bank calling another bank) deliver synchronously,
  exactly as in the parity mode.  Concurrency comes from overlapping
  *wait*, not from racing handlers.
* **Determinism**: with a single driving thread and a
  :class:`~repro.clock.SimulatedClock`, the queued path consumes the
  seeded rng in the same order as the synchronous network, so verdicts,
  balances, audit records, and wire byte counts match exactly — the
  parity suite (``tests/test_aio_parity.py``) holds this contract.
* **Latency hiding**: under a wall clock with ``time_dilation > 0``,
  transit latencies become *awaited* sleeps (request leg before the
  inbox, response leg after the handler), so in-flight requests overlap
  where the synchronous mode would serialize the same sleeps.
* **Cross-request batching**: a worker drains its inbox up to
  ``max_batch`` messages at a time and hands the batch to an optional
  per-endpoint *prefetcher* (see ``EndServerBase.signature_prefetcher``)
  which verifies every queued request's signatures ahead of the
  handlers — the same per-signature work, moved in front of them, so
  each handler finds the process-wide signature cache warm.  Prefetching
  is purely an optimization: failures are never cached and handlers
  re-verify.

Lifecycle: ``async with network.serve(): ...`` spawns one worker per
registered endpoint and tears them down cleanly — queued requests are
delivered before workers exit; requests still in dilated transit fail
with :class:`~repro.errors.NetworkClosedError`.  :func:`drive` wraps the
common pattern of running blocking client code against a served network.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import contextlib
import contextvars
import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.clock import Clock, SimulatedClock
from repro.crypto.rng import Rng
from repro.encoding.identifiers import PrincipalId
from repro.errors import NetworkClosedError, RequestTimeoutError
from repro.net.network import Handler, LatencyModel, Network
from repro.obs.telemetry import Telemetry

#: A prefetcher receives the queued batch as ``(msg_type, payload)`` pairs
#: and returns how many signature checks it warmed (best effort).
Prefetcher = Callable[[Sequence[Tuple[str, dict]]], int]

_CLOSE = object()


@dataclass
class AioStats:
    """Counters the async runtime keeps about its own operation.

    These describe the *runtime* (batching, timeouts, shutdown rejects),
    not the wire — wire metering stays in ``Network.metrics`` so the two
    delivery modes reconcile against the same counters.
    """

    #: Requests that went through an inbox queue (inline sends excluded).
    queued: int = 0
    #: Inbox drains that yielded more than one message.
    batches: int = 0
    #: Messages delivered as part of a multi-message drain.
    batched_messages: int = 0
    #: Deepest inbox backlog observed at drain time.
    max_queue_depth: int = 0
    #: Signature checks warmed into the cache by prefetchers.
    prefetched_checks: int = 0
    #: Client-side waits that gave up (RequestTimeoutError raised).
    timeouts: int = 0
    #: Sends refused or abandoned because the runtime was shutting down.
    rejected: int = 0


class _Delivery:
    """One queued request, the future its sender is blocked on, and the
    sender's context: the loop delivers inside it, so the request's
    ``net.send`` span is a child of the sender's open span."""

    __slots__ = (
        "source", "destination", "msg_type", "payload", "future", "context",
    )

    def __init__(
        self,
        source: PrincipalId,
        destination: PrincipalId,
        msg_type: str,
        payload: dict,
    ) -> None:
        self.source = source
        self.destination = destination
        self.msg_type = msg_type
        self.payload = payload
        self.future: concurrent.futures.Future = concurrent.futures.Future()
        self.context = contextvars.copy_context()

    def settle(self, ok: bool, value) -> None:
        """Resolve the sender's future; ignore it if the sender gave up."""
        try:
            if ok:
                self.future.set_result(value)
            else:
                self.future.set_exception(value)
        except concurrent.futures.InvalidStateError:
            # The client timed out and cancelled: the reply (or error) is
            # discarded, exactly like a response lost on the wire.
            pass


class AioNetwork(Network):
    """Queue-based asyncio delivery over the simulated network's wire.

    Args:
        clock: logical (:class:`SimulatedClock`) for parity runs, or a
            wall clock for load runs.
        latency: per-hop latency model (shared with the sync mode).
        rng: seeded source for latency jitter and drop draws; only ever
            consumed on the event-loop thread.
        telemetry: spans/counters fabric, defaulting to the no-op one.
        time_dilation: under a wall clock, scale sampled latencies into
            *awaited* transit sleeps (never blocking the loop).
        max_batch: how many queued messages one worker drain may take —
            the cross-request batching window.
        request_timeout: default seconds a blocked ``send`` waits before
            raising :class:`RequestTimeoutError` (``None`` = wait forever).
    """

    def __init__(
        self,
        clock: Clock,
        latency: Optional[LatencyModel] = None,
        rng: Optional[Rng] = None,
        telemetry: Optional[Telemetry] = None,
        time_dilation: float = 0.0,
        max_batch: int = 64,
        request_timeout: Optional[float] = None,
    ) -> None:
        super().__init__(
            clock, latency, rng=rng, telemetry=telemetry,
            time_dilation=time_dilation,
        )
        if max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        self.max_batch = int(max_batch)
        self.request_timeout = request_timeout
        self.stats = AioStats()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._loop_thread: Optional[int] = None
        self._closing = False
        self._inboxes: Dict[PrincipalId, asyncio.Queue] = {}
        self._workers: Dict[PrincipalId, asyncio.Task] = {}
        self._prefetchers: Dict[PrincipalId, Prefetcher] = {}
        self._transits: Set[asyncio.Task] = set()
        self._stats_lock = threading.Lock()

    # -- topology -------------------------------------------------------------

    def register(self, principal: PrincipalId, handler: Handler) -> None:
        """Attach an endpoint; spawns its worker if the runtime is serving."""
        super().register(principal, handler)
        loop = self._loop
        if loop is None:
            return
        if threading.get_ident() == self._loop_thread:
            self._ensure_worker(principal)
        else:
            loop.call_soon_threadsafe(self._ensure_worker, principal)

    def set_prefetcher(
        self, principal: PrincipalId, prefetcher: Optional[Prefetcher]
    ) -> None:
        """Install (or clear, with ``None``) an endpoint's batch prefetcher.

        The prefetcher sees each multi-message inbox drain before delivery
        and may warm caches from the queued payloads.  It must be a pure
        optimization: exceptions are swallowed and delivery proceeds as if
        it had never run.
        """
        if prefetcher is None:
            self._prefetchers.pop(principal, None)
        else:
            self._prefetchers[principal] = prefetcher

    # -- latency --------------------------------------------------------------

    def _advance(self) -> None:
        # Parity mode: advance the logical clock exactly as the sync
        # network would (same rng draws, same timestamps).  Wall-clock
        # dilation is paid as awaited transit sleeps around the queued
        # delivery (see _admit/_worker), never by blocking the loop —
        # so this override must NOT fall through to time.sleep.
        if isinstance(self.clock, SimulatedClock):
            self.clock.advance(self.latency.sample(self.rng))

    def _dilated(self) -> bool:
        return self.time_dilation > 0.0 and not isinstance(
            self.clock, SimulatedClock
        )

    def _real_transit(self) -> float:
        return self.latency.sample(self.rng) * self.time_dilation

    # -- client side ----------------------------------------------------------

    def send(
        self,
        source: PrincipalId,
        destination: PrincipalId,
        msg_type: str,
        payload: dict,
    ) -> dict:
        """Send a request and block until its reply arrives.

        Delivers inline (identical to the synchronous network) when the
        runtime is not serving — setup code before ``serve()`` — or when
        called from the event-loop thread itself, which is how nested
        sends made by handlers keep their synchronous semantics.  All
        other callers are queued through the destination's inbox.

        Raises:
            RequestTimeoutError: no reply within ``request_timeout``.
            NetworkClosedError: the runtime is shutting down.
        """
        loop = self._loop
        if loop is None or threading.get_ident() == self._loop_thread:
            return super().send(source, destination, msg_type, payload)
        if self._closing:
            with self._stats_lock:
                self.stats.rejected += 1
            raise NetworkClosedError("async network is shutting down")
        delivery = _Delivery(source, destination, msg_type, payload)
        try:
            loop.call_soon_threadsafe(self._admit, delivery)
        except RuntimeError:
            # The loop closed between the check above and the call.
            with self._stats_lock:
                self.stats.rejected += 1
            raise NetworkClosedError("async network is shutting down")
        timeout = self.request_timeout
        try:
            return delivery.future.result(timeout)
        except concurrent.futures.TimeoutError:
            delivery.future.cancel()
            with self._stats_lock:
                self.stats.timeouts += 1
            raise RequestTimeoutError(
                f"no reply from {destination} to {msg_type!r} within "
                f"{timeout:.3f}s; server side effects are unknown — "
                f"retry with the same _rid to dedupe"
            ) from None

    # -- loop side ------------------------------------------------------------

    def _admit(self, delivery: _Delivery) -> None:
        """Route one queued request (event-loop thread only)."""
        if self._closing:
            with self._stats_lock:
                self.stats.rejected += 1
            delivery.settle(
                False, NetworkClosedError("async network is shutting down")
            )
            return
        if self._dilated():
            task = self._loop.create_task(self._admit_after_transit(delivery))
            self._transits.add(task)
            task.add_done_callback(self._transits.discard)
        else:
            self._route(delivery)

    async def _admit_after_transit(self, delivery: _Delivery) -> None:
        """Request-leg transit: await the dilated latency, then route."""
        try:
            await asyncio.sleep(self._real_transit())
        except asyncio.CancelledError:
            with self._stats_lock:
                self.stats.rejected += 1
            delivery.settle(
                False,
                NetworkClosedError("request abandoned in transit at shutdown"),
            )
            raise
        if self._closing:
            with self._stats_lock:
                self.stats.rejected += 1
            delivery.settle(
                False, NetworkClosedError("async network is shutting down")
            )
            return
        self._route(delivery)

    def _route(self, delivery: _Delivery) -> None:
        inbox = self._inboxes.get(delivery.destination)
        if inbox is None:
            # Unknown endpoint, or one registered without a worker yet:
            # deliver inline on the loop thread (Network.send raises
            # UnknownEndpointError itself when nothing is registered).
            with self._stats_lock:
                self.stats.queued += 1
            delivery.settle(*self._execute(delivery))
            return
        with self._stats_lock:
            self.stats.queued += 1
        inbox.put_nowait(delivery)

    def _execute(self, delivery: _Delivery) -> Tuple[bool, object]:
        """Run the synchronous delivery core for one queued request, in the
        context its sender queued it from."""
        try:
            result = delivery.context.run(
                Network.send,
                self,
                delivery.source,
                delivery.destination,
                delivery.msg_type,
                delivery.payload,
            )
        except BaseException as exc:  # noqa: BLE001 — crosses threads
            return False, exc
        return True, result

    async def _worker(self, endpoint: PrincipalId, inbox: asyncio.Queue) -> None:
        """Consume one endpoint's inbox until the close sentinel arrives."""
        while True:
            item = await inbox.get()
            if item is _CLOSE:
                return
            depth = inbox.qsize() + 1
            if depth > self.stats.max_queue_depth:
                self.stats.max_queue_depth = depth
            batch: List[_Delivery] = [item]
            while len(batch) < self.max_batch:
                try:
                    nxt = inbox.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if nxt is _CLOSE:
                    inbox.put_nowait(_CLOSE)
                    break
                batch.append(nxt)
            if len(batch) > 1:
                self.stats.batches += 1
                self.stats.batched_messages += len(batch)
                prefetcher = self._prefetchers.get(endpoint)
                if prefetcher is not None:
                    self._prefetch(prefetcher, batch)
            for delivery in batch:
                ok, value = self._execute(delivery)
                if self._dilated():
                    # Response-leg transit: hand the reply to a transit
                    # task so the worker can start the next request while
                    # this reply is "on the wire".
                    task = self._loop.create_task(
                        self._settle_after_transit(delivery, ok, value)
                    )
                    self._transits.add(task)
                    task.add_done_callback(self._transits.discard)
                else:
                    delivery.settle(ok, value)

    async def _settle_after_transit(
        self, delivery: _Delivery, ok: bool, value
    ) -> None:
        """Response-leg transit: await the dilated latency, then settle.

        The handler already ran, so a shutdown mid-transit settles the
        future anyway — the committed side effects must be reported.
        """
        try:
            await asyncio.sleep(self._real_transit())
        finally:
            delivery.settle(ok, value)

    def _prefetch(
        self, prefetcher: Prefetcher, batch: Sequence[_Delivery]
    ) -> None:
        try:
            warmed = prefetcher(
                [(d.msg_type, d.payload) for d in batch]
            )
        except Exception:  # noqa: BLE001 — prefetch must never break delivery
            return
        if warmed:
            self.stats.prefetched_checks += int(warmed)
            if self.telemetry.enabled:
                self.telemetry.inc(
                    "aio.prefetched_signatures_total",
                    int(warmed),
                    help="Signature checks warmed by cross-request "
                    "batch prefetching.",
                )

    def _ensure_worker(self, principal: PrincipalId) -> None:
        if self._loop is None or principal in self._workers:
            return
        if not self.knows(principal):
            return
        inbox: asyncio.Queue = asyncio.Queue()
        self._inboxes[principal] = inbox
        self._workers[principal] = self._loop.create_task(
            self._worker(principal, inbox), name=f"aio-worker-{principal}"
        )

    # -- lifecycle ------------------------------------------------------------

    @contextlib.asynccontextmanager
    async def serve(self):
        """Run workers for every registered endpoint while the body runs.

        ``async with network.serve():`` is the runtime's lifetime: inside
        the block, queued delivery is live; on exit, workers drain their
        inboxes (queued requests are delivered, not dropped), dilated
        in-transit requests are cancelled with
        :class:`NetworkClosedError`, and every runtime task is awaited —
        nothing leaks into the caller's loop.
        """
        if self._loop is not None:
            raise RuntimeError("async network is already serving")
        self._loop = asyncio.get_running_loop()
        self._loop_thread = threading.get_ident()
        self._closing = False
        for principal in list(self._endpoints):
            self._ensure_worker(principal)
        try:
            yield self
        finally:
            await self._shutdown()

    async def _shutdown(self) -> None:
        self._closing = True
        # Abandon request-leg transits; response-leg transits settle in
        # their finally clause once cancelled.
        for task in list(self._transits):
            task.cancel()
        if self._transits:
            await asyncio.gather(*self._transits, return_exceptions=True)
        for inbox in self._inboxes.values():
            inbox.put_nowait(_CLOSE)
        if self._workers:
            await asyncio.gather(
                *self._workers.values(), return_exceptions=True
            )
        # Anything admitted behind the sentinel (shouldn't happen: _admit
        # rejects once _closing is set) still gets an answer.
        for inbox in self._inboxes.values():
            while True:
                try:
                    item = inbox.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if item is not _CLOSE:
                    item.settle(
                        False,
                        NetworkClosedError("async network shut down"),
                    )
        self._inboxes.clear()
        self._workers.clear()
        self._transits.clear()
        self._loop = None
        self._loop_thread = None
        self._closing = False


def drive(network: AioNetwork, fn: Callable[[], object]) -> object:
    """Serve ``network`` while running blocking ``fn`` in a worker thread.

    The standard parity-harness shape: client code written against the
    synchronous API runs unchanged on one driver thread, every request
    crossing the asyncio runtime.  Returns ``fn``'s result; exceptions
    propagate after the runtime has shut down cleanly.
    """

    async def _main():
        async with network.serve():
            loop = asyncio.get_running_loop()
            return await loop.run_in_executor(None, fn)

    return asyncio.run(_main())

"""BoundedStore — the one "held until" rule — against a reference model.

The reference is a plain dict plus a linear scan that *is* the rule: an
entry is gone once ``expires_at < now``; over capacity the victim is the
live entry with the least ``(expires_at, last use)``, where a use is a
``put`` or a ``lookup``; a put whose expiry has passed stores nothing.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bounded import BoundedStore
from repro.clock import SimulatedClock

KEYS = range(5)


class Reference:
    def __init__(self, max_entries, clock):
        self.max_entries = max_entries
        self.clock = clock
        self.entries = {}  # key -> [value, expires_at, last use]
        self.uses = 0
        self.hits = self.misses = self.evictions = 0

    def live(self):
        now = self.clock.now()
        for key in [k for k, entry in self.entries.items() if entry[1] < now]:
            del self.entries[key]
        return self.entries

    def use(self, key):
        self.uses += 1
        self.entries[key][2] = self.uses

    def put(self, key, value, expires_at):
        self.live().pop(key, None)
        if expires_at < self.clock.now():
            return 0
        self.entries[key] = [value, expires_at, 0]
        self.use(key)
        if len(self.entries) <= self.max_entries:
            return 0
        del self.entries[min(self.entries, key=lambda k: self.entries[k][1:])]
        self.evictions += 1
        return 1

    def lookup(self, key):
        if key not in self.live():
            self.misses += 1
            return None
        self.hits += 1
        self.use(key)
        return self.entries[key][0]

    def view(self):
        """Live ``(key, value, expires_at)``, least recently used first."""
        live = self.live()
        order = sorted(live, key=lambda k: live[k][2])
        return [(k, live[k][0], live[k][1]) for k in order]


PROGRAMS = st.lists(
    st.one_of(
        st.tuples(
            st.just("put"),
            st.sampled_from(KEYS),
            st.integers(0, 9),
            st.one_of(st.just(math.inf), st.integers(-1, 3)),
        ),
        st.tuples(
            st.sampled_from(["lookup", "get", "pop"]), st.sampled_from(KEYS)
        ),
        st.tuples(st.just("advance"), st.integers(0, 2)),
    ),
    max_size=50,
)


@settings(max_examples=300, deadline=None)
@given(max_entries=st.integers(1, 4), program=PROGRAMS)
def test_store_is_the_reference_rule(max_entries, program):
    clock = SimulatedClock(100.0)
    store = BoundedStore(max_entries, clock.now)
    model = Reference(max_entries, clock)
    for op, *args in program:
        if op == "put":
            key, value, ttl = args
            expires_at = clock.now() + ttl
            assert store.put(key, value, expires_at) == model.put(
                key, value, expires_at
            )
        elif op == "lookup":
            assert store.lookup(args[0]) == model.lookup(args[0])
        elif op == "get":  # looks, and is not a use
            entry = model.live().get(args[0])
            assert store.get(args[0]) == (entry and entry[0])
        elif op == "pop":
            entry = model.live().pop(args[0], None)
            assert store.pop(args[0]) == (entry and entry[0])
        else:
            clock.advance(args[0])
        view = model.view()
        # Nothing expired is returned, counted or iterated.
        assert store.entries() == view
        assert list(store) == [key for key, _, _ in view]
        assert len(store) == len(view) <= max_entries
        assert [k in store for k in KEYS] == [k in model.live() for k in KEYS]
        assert store.stats() == {
            "hits": model.hits,
            "misses": model.misses,
            "evictions": model.evictions,
            "entries": len(view),
        }
        # What a snapshot captures, restored into a fresh store, is the store.
        rebuilt = BoundedStore(max_entries, clock.now)
        for entry in store.entries():
            rebuilt.put(*entry)
        assert rebuilt.entries() == store.entries()


def test_a_store_that_never_expires_reads_no_clock():
    store = BoundedStore(2)  # no clock to read
    store.put("a", 1)
    store.put("b", 2)
    assert store.lookup("a") == 1
    assert store.put("c", 3) == 1  # "b" was the least recently used
    assert list(store) == ["a", "c"]
    assert store.get("b") is None and store.stats()["evictions"] == 1

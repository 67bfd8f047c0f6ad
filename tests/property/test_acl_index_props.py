"""Property tests: the ACL's principal index is the list.

``AccessControlList.match`` no longer walks ``entries``; it merges the
positions indexed under each concurring principal with the bucket of
non-principal subjects.  Whatever sequence of ``add``/``remove_subject``
built the list, it must hand back the *same entry object* a plain
first-match scan of ``entries`` finds.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.acl import (
    AccessControlList,
    AclEntry,
    Anyone,
    Compound,
    GroupSubject,
    SinglePrincipal,
)
from repro.encoding.identifiers import GroupId, PrincipalId

PRINCIPALS = [PrincipalId(name) for name in ("alice", "bob", "carol", "dave")]
GROUPS = [
    GroupId(server=PrincipalId("gs"), group=name)
    for name in ("staff", "admins")
]
OPERATIONS = ("read", "write", "stat")
TARGETS = ("doc/a", "doc/b", "tmp/x", "etc/passwd")
PATTERNS = ("*", "doc/*", "tmp/?", "doc/a", "etc/*")


simple_subjects = st.one_of(
    st.sampled_from(PRINCIPALS).map(SinglePrincipal),
    st.sampled_from(PRINCIPALS).map(SinglePrincipal),
    st.sampled_from(GROUPS).map(GroupSubject),
    st.just(Anyone()),
)

subjects = st.one_of(
    simple_subjects,
    st.lists(simple_subjects, min_size=1, max_size=3).flatmap(
        lambda nested: st.integers(0, len(nested)).map(
            lambda required: Compound(
                subjects=tuple(nested), required=required
            )
        )
    ),
)

entries = st.builds(
    AclEntry,
    subject=subjects,
    operations=st.one_of(
        st.none(),
        st.lists(st.sampled_from(OPERATIONS), max_size=2).map(tuple),
    ),
    targets=st.lists(st.sampled_from(PATTERNS), min_size=1, max_size=2).map(
        tuple
    ),
)

#: ``("add", entry)`` or ``("remove", subject)``, interleaved at random.
edits = st.lists(
    st.one_of(
        st.tuples(st.just("add"), entries),
        st.tuples(st.just("add"), entries),
        st.tuples(st.just("remove"), simple_subjects),
    ),
    max_size=12,
)

requests = st.tuples(
    st.frozensets(st.sampled_from(PRINCIPALS), max_size=3),
    st.frozensets(st.sampled_from(GROUPS), max_size=2),
    st.sampled_from(OPERATIONS),
    st.one_of(st.none(), st.sampled_from(TARGETS)),
)


def linear_match(acl, principals, groups, operation, target):
    """First match by walking the list — what ``match`` used to be."""
    for entry in acl.entries:
        if entry.permits(principals, groups, operation, target):
            return entry
    return None


def build(initial, script):
    acl = AccessControlList(entries=list(initial))
    for action, argument in script:
        if action == "add":
            acl.add(argument)
        else:
            expected = sum(1 for e in acl.entries if e.subject == argument)
            assert acl.remove_subject(argument) == expected
    return acl


@given(st.lists(entries, max_size=4), edits, st.lists(requests, max_size=8))
def test_match_is_a_linear_first_match_scan(initial, script, asked):
    acl = build(initial, script)
    for request in asked:
        assert acl.match(*request) is linear_match(acl, *request)


@given(st.lists(entries, max_size=4), edits, st.lists(requests, max_size=8))
def test_wire_round_trip_matches_identically(initial, script, asked):
    acl = build(initial, script)
    again = AccessControlList.from_wire(acl.to_wire())
    assert again == acl
    assert again.entries == acl.entries
    assert len(again) == len(acl)
    for request in asked:
        ours, theirs = acl.match(*request), again.match(*request)
        assert theirs is linear_match(again, *request)
        if ours is None:
            assert theirs is None
        else:
            assert acl.entries.index(ours) == again.entries.index(theirs)


@given(
    st.lists(entries, max_size=4),
    st.sampled_from(PRINCIPALS),
    st.lists(entries, max_size=4),
    requests,
)
def test_principal_entry_after_anyone_never_wins(
    before, principal, after, asked
):
    """List order, not index order: an open entry placed first shadows a
    later entry naming the caller, exactly as in a scan."""
    principals, groups, operation, target = asked
    shadowed = AclEntry(subject=SinglePrincipal(principal))
    acl = AccessControlList(entries=list(before))
    acl.add(AclEntry(subject=Anyone()))
    for entry in after:
        acl.add(entry)
    acl.add(shadowed)
    matched = acl.match(principals | {principal}, groups, operation, target)
    assert matched is not None
    assert matched is not shadowed
    assert acl.entries.index(matched) <= len(before)


def test_subclass_of_single_principal_is_not_indexed_by_name():
    """Only exactly-``SinglePrincipal`` subjects are looked up by name: a
    subclass is free to match differently, so it stays in the scan."""

    class AnyAuthenticated(SinglePrincipal):
        def matches(self, principals, groups):
            return bool(principals)

    alice, bob = PRINCIPALS[:2]
    entry = AclEntry(subject=AnyAuthenticated(alice))
    acl = AccessControlList(entries=[entry])
    assert acl.match(frozenset({bob}), frozenset(), "read") is entry
    assert acl.match(frozenset(), frozenset(), "read") is None

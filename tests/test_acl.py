"""ACLs, compound principals, and entry restrictions (§3.5)."""

import pytest

from repro.acl import (
    AccessControlList,
    AclEntry,
    Anyone,
    Compound,
    GroupSubject,
    SinglePrincipal,
    Subject,
)
from repro.core.restrictions import Quota
from repro.encoding.identifiers import GroupId, PrincipalId
from repro.errors import AuthorizationDenied, DecodingError

ALICE = PrincipalId("alice")
BOB = PrincipalId("bob")
HOST = PrincipalId("workstation-7")
STAFF = GroupId(server=PrincipalId("gs"), group="staff")
ADMINS = GroupId(server=PrincipalId("gs"), group="admins")

P = frozenset
G = frozenset


class TestSubjects:
    def test_single_principal(self):
        s = SinglePrincipal(ALICE)
        assert s.matches(P({ALICE}), G())
        assert not s.matches(P({BOB}), G())

    def test_group_subject(self):
        s = GroupSubject(STAFF)
        assert s.matches(P(), G({STAFF}))
        assert not s.matches(P({ALICE}), G({ADMINS}))

    def test_anyone(self):
        assert Anyone().matches(P(), G())

    def test_compound_conjunction(self):
        """§3.5: user AND host credentials required."""
        s = Compound(
            subjects=(SinglePrincipal(ALICE), SinglePrincipal(HOST))
        )
        assert s.matches(P({ALICE, HOST}), G())
        assert not s.matches(P({ALICE}), G())
        assert not s.matches(P({HOST}), G())

    def test_compound_k_of_n(self):
        s = Compound(
            subjects=(
                SinglePrincipal(ALICE),
                SinglePrincipal(BOB),
                SinglePrincipal(HOST),
            ),
            required=2,
        )
        assert s.matches(P({ALICE, BOB}), G())
        assert not s.matches(P({ALICE}), G())

    def test_compound_mixed_groups_and_principals(self):
        s = Compound(
            subjects=(SinglePrincipal(ALICE), GroupSubject(STAFF))
        )
        assert s.matches(P({ALICE}), G({STAFF}))
        assert not s.matches(P({ALICE}), G())

    def test_compound_validation(self):
        with pytest.raises(ValueError):
            Compound(subjects=())
        with pytest.raises(ValueError):
            Compound(subjects=(SinglePrincipal(ALICE),), required=2)

    def test_wire_round_trips(self):
        subjects = [
            SinglePrincipal(ALICE),
            GroupSubject(STAFF),
            Anyone(),
            Compound(
                subjects=(SinglePrincipal(ALICE), GroupSubject(STAFF)),
                required=1,
            ),
        ]
        for s in subjects:
            assert Subject.from_wire(s.to_wire()) == s

    def test_unknown_subject_kind(self):
        with pytest.raises(DecodingError):
            Subject.from_wire({"kind": "martian"})


class TestAclEntry:
    def test_operation_filter(self):
        entry = AclEntry(subject=SinglePrincipal(ALICE), operations=("read",))
        assert entry.permits(P({ALICE}), G(), "read", "x")
        assert not entry.permits(P({ALICE}), G(), "write", "x")

    def test_target_globs(self):
        entry = AclEntry(
            subject=SinglePrincipal(ALICE), targets=("doc/*", "tmp/?")
        )
        assert entry.permits(P({ALICE}), G(), "read", "doc/a")
        assert entry.permits(P({ALICE}), G(), "read", "tmp/x")
        assert not entry.permits(P({ALICE}), G(), "read", "etc/passwd")

    def test_none_target_matches(self):
        entry = AclEntry(subject=SinglePrincipal(ALICE), targets=("doc/*",))
        assert entry.permits(P({ALICE}), G(), "list", None)

    def test_wire_round_trip_with_restrictions(self):
        entry = AclEntry(
            subject=SinglePrincipal(ALICE),
            operations=("read", "write"),
            targets=("a/*",),
            restrictions=(Quota(currency="c", limit=5),),
        )
        assert AclEntry.from_wire(entry.to_wire()) == entry


class TestAccessControlList:
    def test_first_match_wins(self):
        acl = AccessControlList()
        acl.add(
            AclEntry(
                subject=SinglePrincipal(ALICE),
                operations=("read",),
                restrictions=(Quota(currency="c", limit=1),),
            )
        )
        acl.add(AclEntry(subject=Anyone(), operations=("read",)))
        matched = acl.match(P({ALICE}), G(), "read", "x")
        assert matched.restrictions  # got alice's entry, not anyone's

    def test_authorize_raises_on_denial(self):
        acl = AccessControlList()
        with pytest.raises(AuthorizationDenied):
            acl.authorize(P({ALICE}), G(), "read", "x")

    def test_open_to_all(self):
        acl = AccessControlList.open_to_all()
        acl.authorize(P(), G(), "anything", "anywhere")

    def test_remove_subject_revocation(self):
        """§3.1's revocation lever: drop the grantor from the ACL."""
        acl = AccessControlList()
        acl.add(AclEntry(subject=SinglePrincipal(ALICE)))
        acl.add(AclEntry(subject=SinglePrincipal(ALICE), operations=("x",)))
        acl.add(AclEntry(subject=SinglePrincipal(BOB)))
        assert acl.remove_subject(SinglePrincipal(ALICE)) == 2
        assert acl.match(P({ALICE}), G(), "read", None) is None
        assert acl.match(P({BOB}), G(), "read", None) is not None

    def test_wire_round_trip(self):
        acl = AccessControlList()
        acl.add(AclEntry(subject=SinglePrincipal(ALICE), operations=("r",)))
        acl.add(AclEntry(subject=GroupSubject(STAFF)))
        again = AccessControlList.from_wire(acl.to_wire())
        assert again.entries == acl.entries

    def test_group_entry_matching(self):
        """§3.3: group names appear wherever principals might."""
        acl = AccessControlList()
        acl.add(AclEntry(subject=GroupSubject(STAFF), operations=("read",)))
        assert acl.match(P({BOB}), G({STAFF}), "read", "x") is not None
        assert acl.match(P({BOB}), G(), "read", "x") is None

    def test_len(self):
        acl = AccessControlList()
        assert len(acl) == 0
        acl.add(AclEntry(subject=Anyone()))
        assert len(acl) == 1

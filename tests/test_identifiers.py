"""Global naming: principals, groups, accounts (§3.3, §4)."""

import pytest

from repro.encoding.identifiers import AccountId, GroupId, PrincipalId
from repro.errors import DecodingError


class TestPrincipalId:
    def test_str(self):
        assert str(PrincipalId("alice")) == "alice@REPRO.ORG"

    def test_custom_realm(self):
        p = PrincipalId("bob", "OTHER.ORG")
        assert str(p) == "bob@OTHER.ORG"

    def test_text_is_built_once_and_stays_out_of_comparisons(self):
        p = PrincipalId("bob", "OTHER.ORG")
        assert str(p) is str(p)
        assert repr(p) == "PrincipalId(name='bob', realm='OTHER.ORG')"
        twin = PrincipalId("bob", "OTHER.ORG")
        assert p == twin and hash(p) == hash(twin)
        assert PrincipalId("a", "Z") < PrincipalId("b", "A")

    def test_wire_round_trip(self):
        p = PrincipalId("carol", "X.Y")
        assert PrincipalId.from_wire(p.to_wire()) == p

    def test_parse_with_realm(self):
        assert PrincipalId.from_wire("a@B.C") == PrincipalId("a", "B.C")

    def test_parse_bare_name_gets_default_realm(self):
        assert PrincipalId("dave") == PrincipalId("dave", "REPRO.ORG")

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            PrincipalId("")

    def test_separator_in_name_rejected(self):
        with pytest.raises(ValueError):
            PrincipalId("a@b")
        with pytest.raises(ValueError):
            PrincipalId("a!b")

    def test_malformed_wire_rejected(self):
        with pytest.raises(DecodingError):
            PrincipalId.from_wire("no-realm")
        with pytest.raises(DecodingError):
            PrincipalId.from_wire("@realm")

    def test_hashable_and_ordered(self):
        a, b = PrincipalId("a"), PrincipalId("b")
        assert len({a, b, PrincipalId("a")}) == 2
        assert sorted([b, a]) == [a, b]


class TestGroupId:
    def test_global_name_composition(self):
        """§3.3: group server name + local group name."""
        g = GroupId(server=PrincipalId("groups"), group="staff")
        assert str(g) == "groups@REPRO.ORG!staff"

    def test_wire_round_trip(self):
        g = GroupId(server=PrincipalId("gs", "R.X"), group="dev")
        assert GroupId.from_wire(g.to_wire()) == g

    def test_same_local_name_different_servers_distinct(self):
        """Group names are unique only per server (§3.3)."""
        g1 = GroupId(server=PrincipalId("gs1"), group="staff")
        g2 = GroupId(server=PrincipalId("gs2"), group="staff")
        assert g1 != g2

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError):
            GroupId(server=PrincipalId("gs"), group="")

    def test_malformed_wire(self):
        with pytest.raises(DecodingError):
            GroupId.from_wire("nogroup@REALM")


class TestAccountId:
    def test_global_name_composition(self):
        """§4: accounting server principal + account name."""
        a = AccountId(server=PrincipalId("bank"), account="alice")
        assert str(a) == "bank@REPRO.ORG!alice"

    def test_wire_round_trip(self):
        a = AccountId(server=PrincipalId("b2"), account="x")
        assert AccountId.from_wire(a.to_wire()) == a

    def test_cross_server_accounts_distinct(self):
        a1 = AccountId(server=PrincipalId("b1"), account="x")
        a2 = AccountId(server=PrincipalId("b2"), account="x")
        assert a1 != a2

    def test_malformed_wire(self):
        with pytest.raises(DecodingError):
            AccountId.from_wire("broken")


class TestIdentifierOrdering:
    def test_sortable_collections(self):
        principals = sorted(
            [PrincipalId("b"), PrincipalId("a"), PrincipalId("a", "Z.ORG")]
        )
        assert principals[0].name == "a"
        groups = sorted(
            [
                GroupId(server=PrincipalId("s"), group="y"),
                GroupId(server=PrincipalId("s"), group="x"),
            ]
        )
        assert groups[0].group == "x"
        accounts = sorted(
            [
                AccountId(server=PrincipalId("s"), account="2"),
                AccountId(server=PrincipalId("s"), account="1"),
            ]
        )
        assert accounts[0].account == "1"

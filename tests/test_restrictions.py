"""The restriction vocabulary (§7): semantics of every restriction type."""

from dataclasses import dataclass

import pytest

from repro.clock import SimulatedClock
from repro.core.evaluation import RequestContext
from repro.core.replay import AcceptOnceRegistry
from repro.core.restrictions import (
    AcceptOnce,
    Authorized,
    AuthorizedEntry,
    Expiration,
    ForUseByGroup,
    Grantee,
    GroupMembership,
    IssuedFor,
    LimitRestriction,
    Quota,
    Restriction,
    check_all,
    is_bearer,
    is_narrower,
    propagate_restrictions,
    restriction_from_wire,
    restrictions_from_wire,
    restrictions_to_wire,
)
from repro.encoding.identifiers import GroupId, PrincipalId
from repro.encoding.schema import wire
from repro.errors import (
    ReplayError,
    RestrictionError,
    RestrictionViolation,
    WireSchemaError,
)

ALICE = PrincipalId("alice")
BOB = PrincipalId("bob")
CAROL = PrincipalId("carol")
SERVER = PrincipalId("server")
OTHER_SERVER = PrincipalId("other")
STAFF = GroupId(server=PrincipalId("groups"), group="staff")
ADMINS = GroupId(server=PrincipalId("groups"), group="admins")


def ctx(**kwargs) -> RequestContext:
    defaults = dict(server=SERVER, operation="read", time=100.0)
    defaults.update(kwargs)
    return RequestContext(**defaults)


class TestGrantee:
    """§7.1: named delegates, k-of-n."""

    def test_named_exerciser_passes(self):
        r = Grantee(principals=(BOB,))
        r.check(ctx(exercisers=frozenset({BOB})))

    def test_unnamed_exerciser_fails(self):
        r = Grantee(principals=(BOB,))
        with pytest.raises(RestrictionViolation):
            r.check(ctx(exercisers=frozenset({CAROL})))

    def test_anonymous_fails(self):
        """Possession alone never satisfies a grantee restriction."""
        r = Grantee(principals=(BOB,))
        with pytest.raises(RestrictionViolation):
            r.check(ctx(exercisers=frozenset()))

    def test_k_of_n_concurrence(self):
        """§3.5: separation of privilege — two principals must concur."""
        r = Grantee(principals=(ALICE, BOB, CAROL), required=2)
        r.check(ctx(exercisers=frozenset({ALICE, BOB})))
        with pytest.raises(RestrictionViolation):
            r.check(ctx(exercisers=frozenset({ALICE})))

    def test_empty_list_rejected(self):
        with pytest.raises(RestrictionError):
            Grantee(principals=())

    def test_required_out_of_range(self):
        with pytest.raises(RestrictionError):
            Grantee(principals=(ALICE,), required=2)
        with pytest.raises(RestrictionError):
            Grantee(principals=(ALICE,), required=0)

    def test_wire_round_trip(self):
        r = Grantee(principals=(ALICE, BOB), required=2)
        assert restriction_from_wire(r.to_wire()) == r


class TestForUseByGroup:
    """§7.2: group assertions required, k-of-n."""

    def test_asserted_group_passes(self):
        r = ForUseByGroup(groups=(STAFF,))
        r.check(ctx(supporting_groups=frozenset({STAFF})))

    def test_missing_assertion_fails(self):
        r = ForUseByGroup(groups=(STAFF,))
        with pytest.raises(RestrictionViolation):
            r.check(ctx(supporting_groups=frozenset()))

    def test_disjoint_groups_separation_of_privilege(self):
        """§7.2: membership in multiple disjoint groups required."""
        r = ForUseByGroup(groups=(STAFF, ADMINS), required=2)
        r.check(ctx(supporting_groups=frozenset({STAFF, ADMINS})))
        with pytest.raises(RestrictionViolation):
            r.check(ctx(supporting_groups=frozenset({STAFF})))

    def test_wire_round_trip(self):
        r = ForUseByGroup(groups=(STAFF, ADMINS), required=1)
        assert restriction_from_wire(r.to_wire()) == r


class TestIssuedFor:
    """§7.3: servers authorized to accept the proxy."""

    def test_named_server_passes(self):
        IssuedFor(servers=(SERVER,)).check(ctx())

    def test_other_server_fails(self):
        r = IssuedFor(servers=(OTHER_SERVER,))
        with pytest.raises(RestrictionViolation):
            r.check(ctx())

    def test_multiple_servers(self):
        r = IssuedFor(servers=(OTHER_SERVER, SERVER))
        r.check(ctx())

    def test_wire_round_trip(self):
        r = IssuedFor(servers=(SERVER, OTHER_SERVER))
        assert restriction_from_wire(r.to_wire()) == r


class TestQuota:
    """§7.4: per-currency limits."""

    def test_within_limit(self):
        Quota(currency="pages", limit=10).check(
            ctx(amounts={"pages": 10})
        )

    def test_over_limit(self):
        with pytest.raises(RestrictionViolation):
            Quota(currency="pages", limit=10).check(
                ctx(amounts={"pages": 11})
            )

    def test_other_currency_unconstrained(self):
        Quota(currency="pages", limit=1).check(
            ctx(amounts={"dollars": 1000})
        )

    def test_zero_request_always_passes(self):
        Quota(currency="pages", limit=0).check(ctx())

    def test_negative_limit_rejected(self):
        with pytest.raises(RestrictionError):
            Quota(currency="pages", limit=-1)

    def test_wire_round_trip(self):
        r = Quota(currency="cpu", limit=500)
        assert restriction_from_wire(r.to_wire()) == r


class TestAuthorized:
    """§7.5: the capability restriction."""

    def test_exact_match(self):
        r = Authorized(
            entries=(AuthorizedEntry("file:/a", ("read",)),)
        )
        r.check(ctx(operation="read", target="file:/a"))

    def test_glob_target(self):
        r = Authorized(entries=(AuthorizedEntry("file:/a/*", ("read",)),))
        r.check(ctx(operation="read", target="file:/a/deep"))

    def test_operation_not_listed(self):
        r = Authorized(entries=(AuthorizedEntry("file:/a", ("read",)),))
        with pytest.raises(RestrictionViolation):
            r.check(ctx(operation="write", target="file:/a"))

    def test_object_not_listed(self):
        r = Authorized(entries=(AuthorizedEntry("file:/a", ("read",)),))
        with pytest.raises(RestrictionViolation):
            r.check(ctx(operation="read", target="file:/b"))

    def test_none_operations_means_all(self):
        r = Authorized(entries=(AuthorizedEntry("obj", None),))
        r.check(ctx(operation="anything", target="obj"))

    def test_no_target_fails(self):
        r = Authorized(entries=(AuthorizedEntry("*", None),))
        with pytest.raises(RestrictionViolation):
            r.check(ctx(operation="read", target=None))

    def test_any_entry_suffices(self):
        r = Authorized(
            entries=(
                AuthorizedEntry("a", ("read",)),
                AuthorizedEntry("b", ("write",)),
            )
        )
        r.check(ctx(operation="write", target="b"))

    def test_wire_round_trip(self):
        r = Authorized(
            entries=(
                AuthorizedEntry("a", ("read", "write")),
                AuthorizedEntry("b/*", None),
            )
        )
        assert restriction_from_wire(r.to_wire()) == r


class TestGroupMembership:
    """§7.6: groups assertable via a group-server proxy."""

    def test_listed_group_assertable(self):
        r = GroupMembership(groups=(STAFF,))
        r.check(ctx(asserting_group=STAFF))

    def test_unlisted_group_not_assertable(self):
        r = GroupMembership(groups=(STAFF,))
        with pytest.raises(RestrictionViolation):
            r.check(ctx(asserting_group=ADMINS))

    def test_non_assertion_requests_unaffected(self):
        GroupMembership(groups=(STAFF,)).check(ctx())

    def test_wire_round_trip(self):
        r = GroupMembership(groups=(STAFF, ADMINS))
        assert restriction_from_wire(r.to_wire()) == r


class TestAcceptOnce:
    """§7.7: single-use identifiers (check numbers)."""

    def _registry(self):
        return AcceptOnceRegistry(SimulatedClock(100.0))

    def test_first_use_passes(self):
        registry = self._registry()
        AcceptOnce(identifier="ck-1").check(
            ctx(grantor=ALICE, replay_registry=registry, link_expires_at=200.0)
        )

    def test_second_use_rejected(self):
        registry = self._registry()
        r = AcceptOnce(identifier="ck-1")
        context = ctx(
            grantor=ALICE, replay_registry=registry, link_expires_at=200.0
        )
        r.check(context)
        with pytest.raises(ReplayError):
            r.check(context)

    def test_same_identifier_different_grantor_ok(self):
        """§7.7: scope is (grantor, identifier)."""
        registry = self._registry()
        r = AcceptOnce(identifier="ck-1")
        r.check(ctx(grantor=ALICE, replay_registry=registry, link_expires_at=200.0))
        r.check(ctx(grantor=BOB, replay_registry=registry, link_expires_at=200.0))

    def test_no_registry_fails_closed(self):
        with pytest.raises(RestrictionViolation):
            AcceptOnce(identifier="x").check(ctx(grantor=ALICE))

    def test_empty_identifier_rejected(self):
        with pytest.raises(RestrictionError):
            AcceptOnce(identifier="")

    def test_wire_round_trip(self):
        r = AcceptOnce(identifier="ck-42")
        assert restriction_from_wire(r.to_wire()) == r


class TestLimitRestriction:
    """§7.8: server-scoped nested restrictions."""

    def test_enforced_at_named_server(self):
        r = LimitRestriction(
            servers=(SERVER,),
            restrictions=(Quota(currency="pages", limit=1),),
        )
        with pytest.raises(RestrictionViolation):
            r.check(ctx(amounts={"pages": 5}))

    def test_ignored_elsewhere(self):
        r = LimitRestriction(
            servers=(OTHER_SERVER,),
            restrictions=(Quota(currency="pages", limit=1),),
        )
        r.check(ctx(amounts={"pages": 5}))

    def test_nested_limit_restrictions(self):
        inner = LimitRestriction(
            servers=(SERVER,),
            restrictions=(Quota(currency="pages", limit=1),),
        )
        outer = LimitRestriction(servers=(SERVER,), restrictions=(inner,))
        with pytest.raises(RestrictionViolation):
            outer.check(ctx(amounts={"pages": 5}))

    def test_wire_round_trip(self):
        r = LimitRestriction(
            servers=(SERVER,),
            restrictions=(
                Quota(currency="x", limit=3),
                IssuedFor(servers=(SERVER,)),
            ),
        )
        assert restriction_from_wire(r.to_wire()) == r


class TestExpiration:
    def test_before_deadline(self):
        Expiration(not_after=150.0).check(ctx(time=100.0))

    def test_after_deadline(self):
        with pytest.raises(RestrictionViolation):
            Expiration(not_after=50.0).check(ctx(time=100.0))

    def test_wire_round_trip(self):
        r = Expiration(not_after=123.0)
        assert restriction_from_wire(r.to_wire()) == r


class TestPropagation:
    """§7.9: copying restrictions into issued proxies."""

    def test_everything_copied_by_default(self):
        incoming = (
            Quota(currency="x", limit=1),
            LimitRestriction(
                servers=(OTHER_SERVER,),
                restrictions=(Quota(currency="y", limit=2),),
            ),
        )
        assert propagate_restrictions(incoming) == incoming

    def test_unreachable_limit_restriction_dropped(self):
        limited = LimitRestriction(
            servers=(OTHER_SERVER,),
            restrictions=(Quota(currency="y", limit=2),),
        )
        out = propagate_restrictions(
            (Quota(currency="x", limit=1), limited),
            reachable_servers=(SERVER,),
        )
        assert out == (Quota(currency="x", limit=1),)

    def test_reachable_limit_restriction_kept(self):
        limited = LimitRestriction(
            servers=(SERVER, OTHER_SERVER),
            restrictions=(Quota(currency="y", limit=2),),
        )
        out = propagate_restrictions(
            (limited,), reachable_servers=(SERVER,)
        )
        assert out == (limited,)


class TestFramework:
    def test_is_bearer(self):
        assert is_bearer((Quota(currency="x", limit=1),))
        assert not is_bearer((Grantee(principals=(ALICE,)),))
        assert is_bearer(())

    def test_is_narrower(self):
        loose = (Quota(currency="c", limit=10),)
        tight = loose + (IssuedFor(servers=(SERVER,)),)
        assert is_narrower(tight, loose)
        assert not is_narrower(loose, tight)
        assert is_narrower(loose, loose)

    def test_check_all_additive(self):
        """All restrictions must pass — adding one can only narrow."""
        passing = (
            IssuedFor(servers=(SERVER,)),
            Quota(currency="x", limit=10),
        )
        check_all(passing, ctx(amounts={"x": 5}))
        with_extra = passing + (Quota(currency="x", limit=1),)
        with pytest.raises(RestrictionViolation):
            check_all(with_extra, ctx(amounts={"x": 5}))

    def test_list_wire_round_trip(self):
        restrictions = (
            Grantee(principals=(ALICE,)),
            Quota(currency="c", limit=9),
        )
        wires = restrictions_to_wire(restrictions)
        assert restrictions_from_wire(wires) == restrictions

    def test_unknown_type_rejected(self):
        with pytest.raises(WireSchemaError):
            restriction_from_wire({"type": "no-such-restriction"})

    def test_missing_type_rejected(self):
        with pytest.raises(WireSchemaError):
            restriction_from_wire({"oops": 1})

    def test_custom_restriction_registrable(self):
        """The vocabulary is open-ended, like V5 authorization-data (§6.2):
        an application declares its own restriction type."""

        @wire
        @dataclass(frozen=True, eq=False)
        class BusinessHours(Restriction):
            TYPE = "x-business-hours"

            def check(self, context):
                if not 9 * 3600 <= context.time % 86400 < 17 * 3600:
                    raise RestrictionViolation(self.TYPE, "outside hours")

        decoded = restriction_from_wire({"type": "x-business-hours"})
        assert isinstance(decoded, BusinessHours)
        decoded.check(ctx(time=10 * 3600.0))
        with pytest.raises(RestrictionViolation):
            decoded.check(ctx(time=3 * 3600.0))

    def test_duplicate_type_registration_rejected(self):
        with pytest.raises(TypeError, match="duplicate"):

            @wire
            @dataclass(frozen=True, eq=False)
            class Fake(Restriction):
                TYPE = "quota"  # collides

                def check(self, context):
                    pass

    def test_restrictions_hashable_for_dedup(self):
        a = Quota(currency="x", limit=1)
        b = Quota(currency="x", limit=1)
        assert len({a, b}) == 1

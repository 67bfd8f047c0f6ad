"""Property: restrictions are additive — derivation never widens rights.

"Each subfield places additional restrictions on the use of credentials,
never removing restrictions or granting additional privileges" (§6.2).

Formally: for any restriction sets A and B and any request context c,
``check_all(A + B, c)`` passing implies ``check_all(A, c)`` passes.  This is
the structural monotonicity the whole delegation model rests on.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.evaluation import RequestContext
from repro.core.restrictions import (
    Authorized,
    AuthorizedEntry,
    Expiration,
    ForUseByGroup,
    Grantee,
    IssuedFor,
    LimitRestriction,
    Quota,
    check_all,
)
from repro.encoding.identifiers import GroupId, PrincipalId
from repro.errors import ReproError

PRINCIPALS = [PrincipalId(n) for n in ("p0", "p1", "p2", "p3")]
SERVERS = [PrincipalId(n) for n in ("s0", "s1")]
GROUPS = [
    GroupId(server=PrincipalId("gs"), group=g) for g in ("g0", "g1", "g2")
]
OPERATIONS = ["read", "write", "delete"]
TARGETS = ["obj/a", "obj/b", "obj/*"]
CURRENCIES = ["c0", "c1"]

principal = st.sampled_from(PRINCIPALS)
group = st.sampled_from(GROUPS)


def restriction_strategy():
    base = st.one_of(
        st.builds(
            Grantee,
            principals=st.lists(principal, min_size=1, max_size=3, unique=True).map(tuple),
        ),
        st.builds(
            ForUseByGroup,
            groups=st.lists(group, min_size=1, max_size=3, unique=True).map(tuple),
        ),
        st.builds(
            IssuedFor,
            servers=st.lists(
                st.sampled_from(SERVERS), min_size=1, max_size=2, unique=True
            ).map(tuple),
        ),
        st.builds(
            Quota,
            currency=st.sampled_from(CURRENCIES),
            limit=st.integers(min_value=0, max_value=50),
        ),
        st.builds(
            Authorized,
            entries=st.lists(
                st.builds(
                    AuthorizedEntry,
                    target=st.sampled_from(TARGETS),
                    operations=st.one_of(
                        st.none(),
                        st.lists(
                            st.sampled_from(OPERATIONS),
                            min_size=1,
                            max_size=3,
                            unique=True,
                        ).map(tuple),
                    ),
                ),
                min_size=1,
                max_size=3,
            ).map(tuple),
        ),
        st.builds(Expiration, not_after=st.floats(min_value=0, max_value=200)),
    )
    limited = st.builds(
        LimitRestriction,
        servers=st.lists(
            st.sampled_from(SERVERS), min_size=1, max_size=2, unique=True
        ).map(tuple),
        restrictions=st.lists(base, min_size=1, max_size=2).map(tuple),
    )
    return st.one_of(base, limited)


restriction_sets = st.lists(restriction_strategy(), max_size=4).map(tuple)

contexts = st.builds(
    RequestContext,
    server=st.sampled_from(SERVERS),
    operation=st.sampled_from(OPERATIONS),
    target=st.one_of(st.none(), st.sampled_from(["obj/a", "obj/b", "obj/c"])),
    claimant=st.one_of(st.none(), principal),
    supporting_groups=st.frozensets(group, max_size=3),
    amounts=st.dictionaries(
        st.sampled_from(CURRENCIES), st.integers(0, 60), max_size=2
    ),
    time=st.floats(min_value=0, max_value=200),
    exercisers=st.frozensets(principal, max_size=3),
)


def passes(restrictions, context):
    try:
        check_all(restrictions, context)
        return True
    except ReproError:
        return False


@given(restriction_sets, restriction_sets, contexts)
def test_adding_restrictions_never_widens(prefix, suffix, context):
    if passes(prefix + suffix, context):
        assert passes(prefix, context)


@given(restriction_sets, contexts)
def test_empty_suffix_is_identity(restrictions, context):
    assert passes(restrictions + (), context) == passes(restrictions, context)


@given(restriction_sets, restriction_sets, contexts)
def test_check_order_irrelevant_for_stateless_restrictions(a, b, context):
    """Without accept-once, conjunction is commutative."""
    assert passes(a + b, context) == passes(b + a, context)

"""Property: every accounting operation survives malformed arguments.

Two layers:

* A hypothesis sweep that throws randomized junk arguments at *every*
  registered accounting operation over a live session, requiring that the
  server either serves the request or rejects it cleanly — and that
  conservation and ledger/account audit parity hold afterwards, so a
  rejection can never be a half-applied mutation.
* Short seeded ``fig5-mix`` chaos campaigns — every accounting variant
  across three banks with a routed clearing hop, the same campaign CI
  runs at larger scale — fault-free and with fault injection.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.resil import chaos
from repro.resil.chaos import CampaignSpec, run_campaign
from repro.resil.policy import RetryPolicy
from repro.services.accounting import (
    SETTLEMENT_PREFIX,
    non_settlement_totals,
)
from repro.testbed import Realm

OPERATIONS = [
    "open-account",
    "balance",
    "transfer",
    "debit",
    "deposit-check",
    "collect-check",
    "certify-check",
    "cancel-certified-check",
    "purchase-cashiers-check",
]

CURRENCIES = ["dollars", "pages"]

#: Junk argument values: wrong types, out-of-range numbers, absent keys.
junk_value = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**12), 10**12),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=12),
    st.sampled_from(
        ["alice", "bob", "ghost", "cashier", f"{SETTLEMENT_PREFIX}bank"]
    ),
    st.lists(st.integers(), max_size=3),
)

junk_args = st.dictionaries(
    st.sampled_from(
        [
            "account",
            "to",
            "currency",
            "amount",
            "credit_account",
            "check_number",
            "payee",
            "payor_server",
            "payor_account",
            "payee_account",
            "end_server",
            "expires_at",
            "bundle",
        ]
    ),
    junk_value,
    max_size=6,
)

call = st.tuples(
    st.sampled_from(OPERATIONS),
    st.sampled_from(["account:alice", "account:ghost", None, "junk"]),
    junk_args,
)


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.lists(call, max_size=6), st.integers(0, 2**32))
def test_malformed_arguments_never_corrupt_the_books(calls, seed):
    realm = Realm(seed=b"malformed-%d" % seed)
    bank = realm.accounting_server("bank")
    alice = realm.user("alice")
    bank.create_account(
        "alice", alice.principal, {c: 500 for c in CURRENCIES}
    )
    client = alice.client_for(bank.principal)
    before = non_settlement_totals([bank])

    for operation, target, args in calls:
        try:
            client.request(operation, target=target, args=args)
        except ReproError:
            pass  # clean rejection is the expected outcome
        # Whatever happened, the books must balance and match the ledger.
        assert non_settlement_totals([bank]) == before
        assert bank.ledger.audit_discrepancies() == []
        assert not bank.ledger.in_transaction()


def test_fuzz_campaign_two_banks(fig5_mix):
    report = fig5_mix(seed=101, units=40)
    outcomes = [unit.outcome for unit in report.units]
    assert any("refused" in outcome for outcome in outcomes)
    # The direct bank pairs are fig5's two-bank topology.
    assert {"bank_a->bank_b", "bank_b->bank_a"} <= {
        outcome.get("route") for outcome in outcomes
    }


def test_fuzz_campaign_three_banks_routed(fig5_mix):
    fig5_mix(seed=202, units=40)


def test_fuzz_campaign_with_faults(fig5_mix):
    report = fig5_mix(
        seed=303, units=40, drop_rate=0.04, response_drop_rate=0.03
    )
    assert report.stats["retries"] >= 1


def test_fuzz_is_deterministic():
    first = run_campaign(CampaignSpec("fig5-mix", seed=7, units=25))
    second = run_campaign(CampaignSpec("fig5-mix", seed=7, units=25))
    assert first.render() == second.render()
    assert first.units == second.units


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 20: a deposit clears synchronously inside the "
    "payee bank's request, so a lost inter-bank reply strands value "
    "behind a consumed check (conservation broken)",
)
def test_two_attempts_and_lossy_legs_never_lose_value(monkeypatch):
    """Failing a unit is allowed; losing money is not."""
    monkeypatch.setattr(
        chaos, "CAMPAIGN_POLICY", RetryPolicy(max_attempts=2)
    )
    try:
        report = run_campaign(
            CampaignSpec(
                "fig5-mix",
                units=150,
                drop_rate=0.15,
                response_drop_rate=0.15,
            )
        )
    except Exception as exc:  # noqa: BLE001 — not the expected failure
        pytest.fail(f"campaign raised instead of reporting: {exc!r}")
    lost = [
        problem
        for problem in report.recovery_problems
        if "conservation broken" in problem
    ]
    assert not lost, "conservation broken"


def test_cli_campaign_exits_nonzero_when_the_books_break(
    monkeypatch, capsys
):
    """A break present on both arms keeps parity, and must still fail
    ``python -m repro chaos fig5-mix``."""
    from repro.__main__ import main
    from repro.workloads.load import Fig5Mix

    class Leaky(Fig5Mix):
        def op(self, realm, config, state, pstate, i, k):
            outcome = super().op(realm, config, state, pstate, i, k)
            if k == 5:
                actor = pstate[0]
                state[actor.bank].accounts[actor.account].balances[
                    "dollars"
                ] += 1
            return outcome

    monkeypatch.setattr(chaos, "scenario_for", lambda figure: Leaky())
    with pytest.raises(SystemExit) as exit_:
        main(["chaos", "fig5-mix", "--seed", "7", "--units", "8"])
    out = capsys.readouterr().out
    assert exit_.value.code == 1
    assert "parity: PASS" in out
    assert "recovery: FAIL" in out
    assert "verdict: all work recovered" not in out

"""The testbed: realms wire services, users and one shared clock."""

from repro.testbed import Realm


class TestRealmWiring:
    def test_realm_clock_is_shared_by_services(self):
        realm = Realm(seed=b"clock-shared")
        fs = realm.file_server("files")
        bank = realm.accounting_server("bank")
        assert fs.clock is realm.clock
        assert bank.clock is realm.clock

    def test_simulated_time_advances_with_traffic(self):
        realm = Realm(seed=b"time-moves")
        alice = realm.user("alice")
        fs = realm.file_server("files")
        fs.grant_owner(alice.principal)
        fs.put("doc", b"x")
        before = realm.clock.now()
        alice.client_for(fs.principal).request("read", "doc")
        assert realm.clock.now() > before


class TestTestbed:
    def test_user_idempotent(self):
        realm = Realm(seed=b"tb")
        a1 = realm.user("alice")
        a2 = realm.user("alice")
        assert a1 is a2

    def test_deterministic_realms(self):
        r1 = Realm(seed=b"same-seed")
        r2 = Realm(seed=b"same-seed")
        u1 = r1.user("alice")
        u2 = r2.user("alice")
        assert u1.secret_key.secret == u2.secret_key.secret

    def test_different_seeds_differ(self):
        r1 = Realm(seed=b"seed-one")
        r2 = Realm(seed=b"seed-two")
        assert (
            r1.user("alice").secret_key.secret
            != r2.user("alice").secret_key.secret
        )

    def test_federation_helper_shares_fabric(self):
        from repro.testbed import federation

        realms = federation(["F1.ORG", "F2.ORG"], seed=b"tb-fed")
        assert realms["F1.ORG"].network is realms["F2.ORG"].network
        assert realms["F1.ORG"].clock is realms["F2.ORG"].clock

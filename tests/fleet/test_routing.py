"""Rendezvous routing: placement stability and digest semantics."""

from collections import Counter

from repro.fleet import FleetConfig, rendezvous_order, routing_digest
from repro.fleet.supervisor import Replica


class _Proc:
    pid = 0

    def poll(self):
        return None


def _replicas(n):
    return [Replica(index=i, host="127.0.0.1", port=9000 + i,
                    proc=_Proc(), cache_dir=f"/tmp/r{i}",
                    log_path=f"/tmp/r{i}.log") for i in range(n)]


def test_digest_depends_on_content_not_names():
    a = routing_digest([("a.c", "int main(){}")])
    b = routing_digest([("totally-different.c", "int main(){}")])
    assert a == b
    assert a != routing_digest([("a.c", "int main(){ return 1; }")])


def test_digest_is_boundary_safe():
    # Length-prefixed hashing: moving bytes across source boundaries
    # must change the digest.
    left = routing_digest([("a.c", "ab"), ("b.c", "c")])
    right = routing_digest([("a.c", "a"), ("b.c", "bc")])
    assert left != right


def test_order_is_deterministic_and_total():
    replicas = _replicas(4)
    digest = routing_digest([("x.c", "source")])
    order1 = rendezvous_order(digest, replicas)
    order2 = rendezvous_order(digest, replicas)
    assert [r.index for r in order1] == [r.index for r in order2]
    assert sorted(r.index for r in order1) == [0, 1, 2, 3]


def test_minimal_disruption_on_replica_death():
    """Removing one replica only moves the keys it owned; every other
    key keeps its owner — the property plain modulo hashing lacks."""
    replicas = _replicas(4)
    digests = [routing_digest([(f"s{i}.c", f"source {i}")])
               for i in range(64)]
    owner_before = {d: rendezvous_order(d, replicas)[0].index
                    for d in digests}
    dead = 2
    survivors = [r for r in replicas if r.index != dead]
    for digest in digests:
        after = rendezvous_order(digest, survivors)[0].index
        if owner_before[digest] != dead:
            assert after == owner_before[digest]
        else:
            assert after != dead


def test_keys_spread_across_replicas():
    replicas = _replicas(3)
    owners = Counter(
        rendezvous_order(routing_digest([(f"s{i}.c", f"src {i}")]),
                         replicas)[0].index
        for i in range(90))
    # Every replica owns a meaningful share (not a sharpness test —
    # just that routing is not degenerate).
    assert set(owners) == {0, 1, 2}
    assert min(owners.values()) >= 10


def test_failover_successor_is_second_in_order():
    replicas = _replicas(3)
    digest = routing_digest([("x.c", "src")])
    order = rendezvous_order(digest, replicas)
    survivors = [r for r in replicas if r is not order[0]]
    assert rendezvous_order(digest, survivors)[0] is order[1]


def test_fleet_config_validation_and_env(monkeypatch):
    monkeypatch.setenv("REPRO_FLEET_REPLICAS", "5")
    monkeypatch.setenv("REPRO_FLEET_RETRY_AFTER", "7")
    config = FleetConfig.from_env(port=0)
    assert config.replicas == 5
    assert config.retry_after_s == 7
    assert config.port == 0
    # None overrides mean "not given": the env still applies.
    assert FleetConfig.from_env(replicas=None).replicas == 5
    monkeypatch.setenv("REPRO_FLEET_REPLICAS", "banana")
    import warnings as _warnings
    with _warnings.catch_warnings():
        _warnings.simplefilter("ignore")
        assert FleetConfig.from_env().replicas == 2   # malformed → default


def test_supervisor_counts_only_ready_replicas_alive():
    """A respawned process is running before it can serve; health and
    fan-out must not count it until it has answered /healthz."""
    from repro.fleet.supervisor import ReplicaSupervisor

    supervisor = ReplicaSupervisor("model.rpd", FleetConfig(), "cas:0")
    supervisor.replicas = _replicas(3)
    supervisor.replicas[0].ready = True
    supervisor.replicas[2].ready = True
    assert [r.index for r in supervisor.alive()] == [0, 2]

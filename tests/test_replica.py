"""Tests for replica groups: rendezvous routing, pooled clients,
group-wide versioned hot-swap / read-your-writes, crash-and-resync
convergence, the decorrelated-jitter reconnect backoff with its shared
retry budget, and the gate-verdict cache on the batched host executor."""

from __future__ import annotations

import numpy as np
import pytest

from repro import hdcpp as H
from repro.apps.classification import classification_servable
from repro.apps.common import bipolar_random
from repro.backends import compile as hdc_compile
from repro.serving import Servable
from repro.serving.registry import StaleVersionError
from repro.serving.replica import ClientPool, ReplicaGroup, route
from repro.serving.transport import RetryBudget, ServingClient
from repro.serving.update_log import UpdateLog

DIM = 64
FEATURES = 16
CLASSES = 4


def make_updatable(name: str, seed: int = 3) -> Servable:
    """A retrainable classifier whose update rule is a pure function of
    (constants, samples, labels) — the property group-wide swap relies on."""
    rng = np.random.default_rng(seed)
    return classification_servable(
        name,
        dimension=DIM,
        similarity="hamming",
        rp_matrix=bipolar_random(DIM, FEATURES, seed=seed),
        classes=rng.standard_normal((CLASSES, DIM)).astype(np.float32),
    )


def make_frozen(name: str, seed: int = 5, similarity: str = "hamming") -> Servable:
    """A bipolar classifier with no update rule: exact in every path.  Its
    Hamming search is proven row by row by the primitive table; a cosine
    one (``cossim``) is not, so its block route keeps the boundary-row gate."""
    classes = bipolar_random(CLASSES, DIM, seed=seed)

    def build_program(batch_size: int) -> H.Program:
        prog = H.Program(f"{name}_b{batch_size}")

        @prog.define(H.hv(DIM), H.hm(CLASSES, DIM))
        def infer_one(encoding, class_hvs):
            if similarity == "cosine":
                return H.arg_max(H.cossim(encoding, class_hvs))
            return H.arg_min(H.hamming_distance(H.sign(encoding), H.sign(class_hvs)))

        @prog.entry(H.hm(batch_size, DIM), H.hm(CLASSES, DIM))
        def main(encodings, class_hvs):
            return H.inference_loop(infer_one, encodings, class_hvs)

        return prog

    return Servable(
        name=name,
        build_program=build_program,
        constants={"class_hvs": classes},
        query_param="encodings",
        sample_shape=(DIM,),
        supported_targets=("cpu", "gpu"),
    )


def make_group(n: int, update_log=None, **extra) -> ReplicaGroup:
    options = dict(max_batch_size=8, max_wait_seconds=0.001, workers=("cpu",))
    options.update(extra)
    return ReplicaGroup(replicas=n, update_log=update_log, **options)


@pytest.fixture
def samples():
    rng = np.random.default_rng(17)
    return rng.standard_normal((12, FEATURES)).astype(np.float32)


@pytest.fixture
def labels():
    return np.random.default_rng(19).integers(0, CLASSES, 12)


class TestRendezvousRouting:
    def test_route_is_deterministic_and_in_candidates(self):
        for name in ("net-a", "net-b", "net-c"):
            first = route(name, range(4))
            assert first in range(4)
            assert route(name, range(4)) == first

    def test_membership_change_moves_only_the_dead_replicas_models(self):
        names = [f"model-{i}" for i in range(120)]
        before = {name: route(name, range(4)) for name in names}
        dead = 2
        survivors = [i for i in range(4) if i != dead]
        for name in names:
            after = route(name, survivors)
            if before[name] != dead:
                # Minimal disruption: a model whose replica survived
                # must not move — that is rendezvous hashing's point.
                assert after == before[name]
            else:
                assert after in survivors

    def test_routing_spreads_models_across_replicas(self):
        counts = [0] * 4
        for i in range(200):
            counts[route(f"model-{i}", range(4))] += 1
        assert all(count > 0 for count in counts)


class TestGroupSwapSemantics:
    def test_group_update_converges_bit_identically_with_pinned_reads(
        self, tmp_path, samples, labels
    ):
        servable = make_updatable("net-upd")
        log = UpdateLog(str(tmp_path / "group.updatelog"))
        with make_group(3, update_log=log) as group:
            group.register(servable)
            with ClientPool(group, timeout=30.0) as pool:
                baseline = int(pool.infer(servable.name, samples[0]))
                assert baseline in range(CLASSES)
                version = pool.update(servable.name, samples, labels)
                assert version == 2
                # Every replica independently derived the bit-identical
                # new constants — nothing was copied between them.
                offline = servable.updated(samples, labels)
                for replica in group.replicas:
                    live = replica.server.registry.get(servable.name).servable
                    assert np.array_equal(
                        live.constants["class_hvs"], offline.constants["class_hvs"]
                    )
                assert group.model_versions() == [{servable.name: 2}] * 3
                # Read-your-writes: the pinned read is served, and it
                # matches the offline retrain's one-shot execution.
                handle = hdc_compile(offline.build_program(1), target="cpu").bind(
                    **offline.constants
                )
                expected = int(np.asarray(handle.run(queries=samples[:1]).output)[0])
                assert (
                    int(pool.infer(servable.name, samples[0], min_version=version))
                    == expected
                )
        # The round was logged exactly once (not once per replica).
        records = log.read_all()
        assert len(records) == 1
        assert records[0].version == 2

    def test_kill_mid_update_then_resync_converges(self, tmp_path, samples, labels):
        servable = make_updatable("net-crash")
        log = UpdateLog(str(tmp_path / "crash.updatelog"))
        with make_group(3, update_log=log) as group:
            group.register(servable)
            group.kill(1)
            version = group.update(servable.name, samples, labels)
            assert version == 2
            assert group.alive_indices() == [0, 2]
            assert group.model_versions()[1] is None
            # Repair rebuilds from baseline + group log: same versions,
            # bit-identical constants, pinned reads accepted again.
            group.resync(1)
            assert group.alive_indices() == [0, 1, 2]
            assert group.model_versions() == [{servable.name: 2}] * 3
            reference = group.replicas[0].server.registry.get(servable.name).servable
            repaired = group.replicas[1].server.registry.get(servable.name).servable
            assert np.array_equal(
                repaired.constants["class_hvs"], reference.constants["class_hvs"]
            )
            host, port = group.replicas[1].address
            with ServingClient(host, port, timeout=30.0) as client:
                result = int(client.infer(servable.name, samples[0], min_version=version))
                assert result in range(CLASSES)
        assert len(log.read_all()) == 1

    def test_replica_failing_the_round_is_killed_not_left_stale(
        self, samples, labels
    ):
        servable = make_updatable("net-partial")
        with make_group(2) as group:
            group.register(servable)

            def explode(*args, **kwargs):
                raise RuntimeError("injected update failure")

            group.replicas[1].server.update = explode
            version = group.update(servable.name, samples, labels)
            assert version == 2
            # The failed replica must not keep serving version 1 as if
            # nothing happened — it is taken out of the group.
            assert group.alive_indices() == [0]
            assert group.replicas[1].address is None

    def test_stale_min_version_is_a_typed_refusal_over_the_wire(self, samples):
        servable = make_updatable("net-stale")
        with make_group(2) as group:
            group.register(servable)
            host, port = group.replicas[0].address
            with ServingClient(host, port, timeout=30.0) as client:
                with pytest.raises(StaleVersionError) as err:
                    client.infer(servable.name, samples[0], min_version=5)
                assert err.value.model == servable.name
                assert err.value.version == 1
                assert err.value.min_version == 5
                # The refusal is a request error, not a disconnect: the
                # same connection keeps serving un-pinned reads.
                assert int(client.infer(servable.name, samples[0])) in range(CLASSES)

    def test_update_log_replay_rebuilds_a_replica_bit_identically(
        self, tmp_path, samples, labels
    ):
        from repro.serving import InferenceServer

        servable = make_updatable("net-replay")
        log = UpdateLog(str(tmp_path / "replay.updatelog"))
        with make_group(2, update_log=log) as group:
            group.register(servable)
            group.update(servable.name, samples, labels)
            group.update(servable.name, samples[::-1], labels[::-1])
            live = group.replicas[0].server.registry.get(servable.name).servable
            live_versions = group.replicas[0].server.model_versions()
            # A cold stand-in started from the baseline + the group log
            # must reach the exact served state: same versions, same bytes.
            rebuilt = InferenceServer(workers=("cpu",), max_batch_size=8)
            rebuilt.register(make_updatable("net-replay"))
            rebuilt.start()
            try:
                log.replay(rebuilt)
                assert rebuilt.model_versions() == live_versions
                cold = rebuilt.registry.get(servable.name).servable
                assert np.array_equal(
                    cold.constants["class_hvs"], live.constants["class_hvs"]
                )
            finally:
                rebuilt.stop()


class TestClientPool:
    def test_pool_matches_single_server_bit_identically(self):
        servable = make_frozen("net-exact")
        rng = np.random.default_rng(11)
        queries = (rng.integers(0, 2, (20, DIM)) * 2 - 1).astype(np.float32)
        handle = hdc_compile(servable.build_program(1), target="cpu").bind(
            **servable.constants
        )
        expected = [
            int(np.asarray(handle.run(encodings=queries[i : i + 1]).output)[0])
            for i in range(queries.shape[0])
        ]
        with make_group(3) as group:
            group.register(servable)
            with ClientPool(group, timeout=30.0) as pool:
                served = [
                    int(pool.infer(servable.name, queries[i]))
                    for i in range(queries.shape[0])
                ]
        assert served == expected

    def test_models_reroute_only_away_from_dead_replicas(self):
        servables = [make_frozen(f"net-{k}", seed=k) for k in range(6)]
        with make_group(3) as group:
            for servable in servables:
                group.register(servable)
            with ClientPool(group, timeout=30.0) as pool:
                before = {s.name: pool.route_for(s.name) for s in servables}
                victim = before[servables[0].name]
                group.kill(victim)
                for servable in servables:
                    after = pool.route_for(servable.name)
                    if before[servable.name] == victim:
                        assert after != victim
                    else:
                        assert after == before[servable.name]
                    # Still served after the reroute.
                    sample = np.ones(DIM, dtype=np.float32)
                    assert int(pool.infer(servable.name, sample)) in range(CLASSES)

    def test_pool_over_bare_addresses_fans_updates_to_every_replica(
        self, samples, labels
    ):
        servable = make_updatable("net-wire")
        with make_group(2) as group:
            group.register(servable)
            addresses = [address for address in group.addresses() if address]
            with ClientPool(addresses, timeout=30.0) as pool:
                assert pool.update(servable.name, samples, labels) == 2
                assert pool.model_versions() == [{servable.name: 2}] * 2


class _RecordingEvent:
    """Stands in for the client's ``_closing`` event: records each backoff
    sleep instead of actually waiting."""

    def __init__(self):
        self.delays = []

    def wait(self, delay):
        self.delays.append(delay)
        return False  # not closing: keep retrying

    def set(self):
        pass

    def is_set(self):
        return False


def _client_against_restartable_server():
    """A connected client whose server is then stopped, so every request
    takes the reconnect-backoff path."""
    from repro.serving import InferenceServer
    from repro.serving.transport import TransportServer

    server = InferenceServer(workers=("cpu",), max_batch_size=8)
    server.register(make_frozen("net-gone"))
    server.start()
    transport = TransportServer(server)
    host, port = transport.start()
    return server, transport, host, port


class TestDecorrelatedJitterBackoff:
    FLOOR, CAP, RETRIES = 0.01, 0.5, 6

    def _record_backoff_sequence(self):
        """Connect a client, kill its server, record the backoff sleeps
        the next request draws before giving up."""
        server, transport, host, port = _client_against_restartable_server()
        try:
            client = ServingClient(
                host,
                port,
                timeout=5.0,
                max_retries=self.RETRIES,
                backoff_seconds=self.FLOOR,
                max_backoff_seconds=self.CAP,
            )
        finally:
            transport.stop()
            server.stop()
        recorder = _RecordingEvent()
        client._closing = recorder
        with pytest.raises((ConnectionError, OSError)):
            client.ping()
        client.close()
        return recorder.delays

    def test_backoff_draws_are_jittered_bounded_and_decorrelated(self):
        first = self._record_backoff_sequence()
        second = self._record_backoff_sequence()
        assert len(first) == self.RETRIES and len(second) == self.RETRIES
        for delays in (first, second):
            previous = self.FLOOR
            for delay in delays:
                # AWS-style decorrelated jitter: uniform over
                # [floor, 3 * previous], capped.
                assert self.FLOOR <= delay <= self.CAP
                assert delay <= max(previous, self.FLOOR) * 3.0 + 1e-12
                previous = delay
        # Deterministic exponential backoff would make these sequences
        # equal — the whole pool reconnecting in lockstep waves.  Jitter
        # means two clients observing the same outage must diverge.
        assert first != second

    def test_shared_retry_budget_bounds_the_pools_aggregate_attempts(self):
        server, transport, host, port = _client_against_restartable_server()
        budget = RetryBudget(tokens=3.0, refund=0.0)
        try:
            clients = [
                ServingClient(
                    host,
                    port,
                    timeout=5.0,
                    max_retries=10,
                    backoff_seconds=self.FLOOR,
                    max_backoff_seconds=self.CAP,
                    retry_budget=budget,
                )
                for _ in range(2)
            ]
            recorders = []
            for client in clients:
                recorder = _RecordingEvent()
                client._closing = recorder
                recorders.append(recorder)
        finally:
            transport.stop()
            server.stop()
        for client in clients:
            with pytest.raises((ConnectionError, OSError)):
                client.ping()
            client.close()
        total_sleeps = sum(len(recorder.delays) for recorder in recorders)
        # Without the shared budget each client would sleep max_retries
        # times — 20 attempts hammering the dead address.  The budget
        # bounds the *pool's* aggregate, not each client's.
        assert total_sleeps <= 3
        assert budget.exhausted > 0
        assert budget.tokens < 1.0


class TestGateVerdictCache:
    """The batched executor's accepted-verdict cache: the boundary-row
    bit-identity gate is paid once per (bound handle, bucket), elided on
    steady-state batches, and re-probed by a handle bound after a
    serialization round trip (the cache-restore path; hot-swaps are in
    tests/test_broker.py)."""

    def _profile(self, result):
        entries = result.report.notes["stage_profile"]
        assert len(entries) == 1
        return entries[0]

    def test_gate_is_paid_once_then_elided_then_reprobed(self):
        servable = make_frozen("net-gate", similarity="cosine")
        rng = np.random.default_rng(13)
        batch = (rng.integers(0, 2, (8, DIM)) * 2 - 1).astype(np.float32)
        compiled = hdc_compile(servable.build_program(8), target="cpu", batched=True)
        handle = compiled.bind(**servable.constants)

        first = handle.run(encodings=batch)
        probe = self._profile(first)
        assert probe["route"] == "vectorized"
        assert probe["gate_seconds"] > 0.0

        # Same bucket, same compiled program: the verdict is cached, so
        # the reference rows and exact comparisons are skipped entirely.
        steady = handle.run(encodings=batch)
        elided = self._profile(steady)
        assert elided["route"] == "vectorized"
        assert elided["gate_seconds"] == 0.0
        assert np.array_equal(
            np.asarray(steady.output), np.asarray(first.output)
        )

        # The verdict must not outlive the handle: a handle bound to a
        # restored program (the cache-persistence path) re-probes.
        restored = compiled.backend.deserialize_compiled(
            compiled.backend.serialize_compiled(compiled)
        )
        reprobe = self._profile(restored.bind(**servable.constants).run(encodings=batch))
        assert reprobe["route"] == "vectorized"
        assert reprobe["gate_seconds"] > 0.0

"""ClientPool over either backing: a started ReplicaGroup (writes go
through the group, errors raised locally) or the group's bare transport
addresses (every op over the wire, errors crossing it by name).

Each read, write and caller mistake is checked through both backings,
and the same mistake must carry the same reason either way: a
group-wide refusal chains the replica's own error as its cause, and a
wire error names the replica's exception class.
"""

from __future__ import annotations

import numpy as np
import pytest
from test_ops import DIM, MODEL, mutable_servable

from repro.apps.common import bipolar_random
from repro.serving import DeadlineExceeded, Servable, StaleVersionError
from repro.serving.replica import ClientPool, GroupUpdateError, ReplicaGroup
from repro.serving.transport import RemoteServingError

FROZEN = "frozen"
SAMPLES = bipolar_random(3, DIM, seed=21).astype(np.float32)


def frozen_servable() -> Servable:
    """The golden model without its update / append rules."""
    live = mutable_servable(bipolar_random(4, DIM, seed=3))
    return Servable(
        name=FROZEN,
        build_program=live.build_program,
        constants=live.constants,
        query_param=live.query_param,
        sample_shape=live.sample_shape,
        supported_targets=live.supported_targets,
    )


def reason(exc: BaseException) -> str:
    """The class name of the error a replica raised for ``exc``."""
    if isinstance(exc, GroupUpdateError) and exc.__cause__ is not None:
        exc = exc.__cause__
    if isinstance(exc, RemoteServingError):
        return exc.error_type
    return type(exc).__name__


@pytest.fixture
def group():
    group = ReplicaGroup(replicas=2, workers=("cpu",), max_batch_size=8, max_wait_seconds=0.001)
    group.register(mutable_servable(bipolar_random(4, DIM, seed=3)))
    group.register(frozen_servable())
    with group:
        yield group


@pytest.fixture(params=["group", "addresses"])
def pool(request, group):
    """A pool over the group — once through the group object, once
    through its bare transport addresses."""
    backing = group if request.param == "group" else group.addresses()
    with ClientPool(backing, timeout=30.0) as pool:
        yield pool


class TestReadsAndWrites:
    def test_infer_and_infer_batch_match_the_routed_replica(self, pool, group):
        expected = [int(o) for o in group.replicas[0].server.infer_many(MODEL, SAMPLES)]
        assert int(pool.infer(MODEL, SAMPLES[0])) == expected[0]
        outputs = pool.infer_batch(MODEL, SAMPLES, priority=1, min_version=1)
        assert [int(o) for o in outputs] == expected

    def test_update_then_append_advance_every_replica(self, pool, group):
        assert pool.update(MODEL, SAMPLES, [0, 1, 1]) == 2
        assert pool.append(MODEL, SAMPLES[:2]) == 3
        assert [versions[MODEL] for versions in group.model_versions()] == [3, 3]
        grown = group.replicas[1].server.registry.get(MODEL).servable.constants["class_hvs"]
        assert grown.shape == (6, DIM)
        assert int(pool.infer(MODEL, SAMPLES[0], min_version=3)) in range(6)

    def test_model_versions_and_stats_reset(self, pool):
        assert pool.model_versions() == [{FROZEN: 1, MODEL: 1}] * 2
        pool.infer(MODEL, SAMPLES[0])
        stats = pool.stats(reset=True)
        assert len(stats) == 2
        assert sum(snapshot["requests"] for snapshot in stats) == 1
        assert sum(snapshot["requests"] for snapshot in pool.stats()) == 0  # the reset landed


class TestCallerMistakes:
    def test_bad_sample_shape_is_a_value_error(self, pool):
        with pytest.raises(Exception) as err:
            pool.infer(MODEL, np.ones(2, dtype=np.float32))
        assert reason(err.value) == "ValueError"
        assert "shape" in str(err.value)

    def test_float_labels_train_nothing(self, pool, group):
        """Labels reach the integer check as given: 1.7 is refused, not
        truncated to 1, and no replica is taken out for the refusal."""
        with pytest.raises(Exception) as err:
            pool.update(MODEL, SAMPLES[:2], [1.7, 2.2])
        assert reason(err.value) == "ValueError"
        assert "integers" in str(err.value.__cause__ or err.value)
        assert [versions[MODEL] for versions in group.model_versions()] == [1, 1]
        assert group.alive_indices() == [0, 1]

    def test_frozen_model_refuses_update_and_append(self, pool, group):
        with pytest.raises(Exception) as err:
            pool.update(FROZEN, SAMPLES, [0, 1, 1])
        assert reason(err.value) == "NotUpdatableError"
        with pytest.raises(Exception) as err:
            pool.append(FROZEN, SAMPLES)
        assert reason(err.value) == "NotAppendableError"
        assert [versions[FROZEN] for versions in group.model_versions()] == [1, 1]

    def test_unknown_model_is_a_key_error(self, pool):
        for call in (
            lambda: pool.infer("nope", SAMPLES[0]),
            lambda: pool.infer_batch("nope", SAMPLES),
            lambda: pool.update("nope", SAMPLES, [0, 1, 1]),
        ):
            with pytest.raises(Exception) as err:
                call()
            assert reason(err.value) == "KeyError"
            assert "'nope'" in str(err.value.__cause__ or err.value)

    def test_stale_min_version_is_structured(self, pool):
        with pytest.raises(StaleVersionError) as err:
            pool.infer(MODEL, SAMPLES[0], min_version=5)
        assert (err.value.model, err.value.version, err.value.min_version) == (MODEL, 1, 5)
        # A request error, not a disconnect: the pooled client keeps serving.
        assert int(pool.infer(MODEL, SAMPLES[0])) in range(4)

    def test_shed_deadline_is_deadline_exceeded(self, pool):
        with pytest.raises(DeadlineExceeded):
            pool.infer(MODEL, SAMPLES[0], deadline_ms=1e-6)
        assert int(pool.infer(MODEL, SAMPLES[0])) in range(4)


class TestDeadBackends:
    def test_addresses_of_stopped_replicas_raise_connection_errors(self, group):
        with ClientPool(group.addresses(), timeout=5.0) as pool:
            assert pool.model_versions() == [{FROZEN: 1, MODEL: 1}] * 2
            group.stop()
            with pytest.raises(ConnectionError):
                pool.infer(MODEL, SAMPLES[0])
            assert pool.model_versions() == [None, None]

    def test_a_stopped_group_leaves_no_replica_to_route_to(self, group):
        with ClientPool(group, timeout=5.0) as pool:
            assert int(pool.infer(MODEL, SAMPLES[0])) in range(4)
            group.stop()
            with pytest.raises(ValueError, match="no live replicas"):
                pool.infer(MODEL, SAMPLES[0])
            assert pool.model_versions() == []
            with pytest.raises(GroupUpdateError):
                pool.update(MODEL, SAMPLES, [0, 1, 1])

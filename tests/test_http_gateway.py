"""Route tests for the HTTP/JSON gateway (repro.serving.transport.http).

Every POST action and GET route, the happy path plus each status the
gateway maps a typed serving error onto — and the regression the single
error→status table fixes: the same caller mistake answers the same
status whether the pool fronts a :class:`ReplicaGroup` (errors raised
locally) or bare transport addresses (errors crossing the wire by name).
"""

from __future__ import annotations

import json
from urllib.error import HTTPError
from urllib.request import Request, urlopen

import numpy as np
import pytest
from test_ops import DIM, MODEL, mutable_servable

from repro.apps.common import bipolar_random
from repro.serving import Servable
from repro.serving.replica import ClientPool, ReplicaGroup
from repro.serving.transport.http import HttpGateway

FROZEN = "frozen"


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


@pytest.fixture
def group():
    group = ReplicaGroup(replicas=2, workers=("cpu",), max_batch_size=8, max_wait_seconds=0.001)
    group.register(mutable_servable(bipolar_random(4, DIM, seed=3)))
    group.register(frozen_servable())
    with group:
        yield group


@pytest.fixture(params=["group", "addresses"])
def gateway(request, group):
    """A gateway over the group — once through the group object, once
    through its bare transport addresses."""
    backing = group if request.param == "group" else group.addresses()
    with ClientPool(backing, timeout=30.0) as pool, HttpGateway(pool) as gateway:
        yield gateway


def call(gateway: HttpGateway, path: str, body=None, raw: bytes = None):
    """``(status, decoded JSON body)`` of one request (POST when a body is
    given)."""
    data = raw if raw is not None else (None if body is None else json.dumps(body).encode())
    request = Request("http://%s:%d%s" % (*gateway.address, path), data=data)
    try:
        with urlopen(request, timeout=30) as response:
            return response.status, json.load(response)
    except HTTPError as error:
        return error.code, json.load(error)


SAMPLES = bipolar_random(3, DIM, seed=21).astype(np.float32)


class TestPostActions:
    def test_infer_and_infer_batch(self, gateway, group):
        expected = [int(o) for o in group.replicas[0].server.infer_many(MODEL, SAMPLES)]
        status, reply = call(gateway, f"/v1/models/{MODEL}:infer", {"sample": SAMPLES[0].tolist()})
        assert status == 200
        assert reply == {
            "model": MODEL,
            "output": expected[0],
            "replica": gateway.pool.route_for(MODEL),
        }
        status, reply = call(
            gateway,
            f"/v1/models/{MODEL}:infer_batch",
            {"samples": SAMPLES.tolist(), "dtype": "float32", "priority": 1, "min_version": 1},
        )
        assert status == 200
        assert reply == {
            "model": MODEL,
            "outputs": expected,
            "replica": gateway.pool.route_for(MODEL),
        }

    def test_update_then_append_advance_every_replica(self, gateway, group):
        status, reply = call(
            gateway,
            f"/v1/models/{MODEL}:update",
            {"samples": SAMPLES.tolist(), "labels": [0, 1, 1]},
        )
        assert (status, reply) == (200, {"model": MODEL, "model_version": 2})
        status, reply = call(
            gateway, f"/v1/models/{MODEL}:append", {"rows": SAMPLES[:2].tolist()}
        )
        assert (status, reply) == (200, {"model": MODEL, "model_version": 3})
        assert [versions[MODEL] for versions in group.model_versions()] == [3, 3]
        grown = group.replicas[1].server.registry.get(MODEL).servable.constants["class_hvs"]
        assert grown.shape == (6, DIM)


class TestGetRoutes:
    def test_healthz_models_versions_stats(self, gateway):
        assert call(gateway, "/healthz") == (200, {"ok": True, "replicas": 2, "reachable": 2})
        assert call(gateway, "/v1/models") == (200, {"models": {FROZEN: 1, MODEL: 1}})
        status, reply = call(gateway, "/v1/versions")
        assert (status, reply) == (200, {"replicas": [{FROZEN: 1, MODEL: 1}] * 2})
        call(gateway, f"/v1/models/{MODEL}:infer", {"sample": SAMPLES[0].tolist()})
        status, reply = call(gateway, "/v1/stats?reset=1")
        assert status == 200 and len(reply["replicas"]) == 2
        assert sum(stats["requests"] for stats in reply["replicas"]) == 1
        _, reply = call(gateway, "/v1/stats")
        assert sum(stats["requests"] for stats in reply["replicas"]) == 0  # the reset landed


class TestErrorStatuses:
    def test_400_missing_field_bad_json_bad_shape(self, gateway):
        status, reply = call(gateway, f"/v1/models/{MODEL}:infer", {})
        assert status == 400 and "'sample'" in reply["error"]
        status, reply = call(gateway, f"/v1/models/{MODEL}:update", {"samples": SAMPLES.tolist()})
        assert status == 400 and "'labels'" in reply["error"]
        status, reply = call(gateway, f"/v1/models/{MODEL}:infer", raw=b"{not json")
        assert status == 400 and "bad JSON" in reply["error"]
        status, reply = call(gateway, f"/v1/models/{MODEL}:infer", raw=b"[1, 2]")
        assert status == 400
        status, reply = call(gateway, f"/v1/models/{MODEL}:infer", {"sample": [1.0, 2.0]})
        assert status == 400 and reply["error_type"] == "ValueError"

    def test_400_float_labels_train_nothing(self, gateway, group):
        """Labels are decoded as JSON gave them: 1.7 must reach the
        integer check (and be refused), not be truncated to 1 first."""
        status, reply = call(
            gateway,
            f"/v1/models/{MODEL}:update",
            {"samples": SAMPLES[:2].tolist(), "labels": [1.7, 2.2]},
        )
        assert status == 400 and "integers" in reply["error"]
        assert [versions[MODEL] for versions in group.model_versions()] == [1, 1]
        assert group.alive_indices() == [0, 1]

    def test_400_frozen_model_through_either_backing(self, gateway, group):
        """``update`` / ``append`` on a model without the rule is the
        caller's mistake — 400 whether the typed error was raised locally
        (group-backed pool) or crossed the wire by name."""
        status, reply = call(
            gateway, f"/v1/models/{FROZEN}:update", {"samples": SAMPLES.tolist(), "labels": [0, 1, 1]}
        )
        assert (status, reply["error_type"]) == (400, "NotUpdatableError")
        status, reply = call(gateway, f"/v1/models/{FROZEN}:append", {"rows": SAMPLES.tolist()})
        assert (status, reply["error_type"]) == (400, "NotAppendableError")
        assert [versions[FROZEN] for versions in group.model_versions()] == [1, 1]

    def test_404_unknown_model_action_route(self, gateway):
        status, reply = call(gateway, "/v1/models/nope:infer", {"sample": SAMPLES[0].tolist()})
        assert (status, reply["error_type"]) == (404, "KeyError")
        assert call(gateway, f"/v1/models/{MODEL}:teleport", {})[0] == 404
        assert call(gateway, f"/v1/models/{MODEL}:stats", {})[0] == 404  # an op, not an action
        assert call(gateway, f"/v1/models/{MODEL}", {})[0] == 404
        assert call(gateway, "/v2/anything", {})[0] == 404
        assert call(gateway, "/v1/nothing")[0] == 404

    def test_409_stale_min_version_is_structured(self, gateway):
        status, reply = call(
            gateway,
            f"/v1/models/{MODEL}:infer",
            {"sample": SAMPLES[0].tolist(), "min_version": 5},
        )
        assert status == 409
        assert reply["error_type"] == "StaleVersionError"
        assert (reply["model"], reply["version"], reply["min_version"]) == (MODEL, 1, 5)

    def test_504_shed_deadline(self, gateway):
        status, reply = call(
            gateway,
            f"/v1/models/{MODEL}:infer",
            {"sample": SAMPLES[0].tolist(), "deadline_ms": 1e-6},
        )
        assert (status, reply["error_type"]) == (504, "DeadlineExceeded")


def test_503_dead_backend(group):
    addresses = group.addresses()
    with ClientPool(addresses, timeout=5.0) as pool, HttpGateway(pool) as gateway:
        assert call(gateway, "/healthz")[0] == 200
        group.stop()
        status, _ = call(gateway, f"/v1/models/{MODEL}:infer", {"sample": SAMPLES[0].tolist()})
        assert status == 503
        assert call(gateway, "/healthz") == (200, {"ok": False, "replicas": 2, "reachable": 0})

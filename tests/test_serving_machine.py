"""The serving plane as one state machine, its rules derived from ``OPS``.

A started two-replica :class:`ReplicaGroup` with a group-owned
:class:`UpdateLog`, reached through a :class:`ClientPool`, serves five
deployments of ``tests/conftest.py``'s stock servables: the trainable
hamming classifier, its ``binarize`` (packed) and perforated twins, a
2-shard deployment of it, and the growable hashtable.  Hypothesis
interleaves:

* one rule per :data:`OPS` row that names a model (``infer``,
  ``infer_batch``, ``update``, ``append``), built from the row — its
  payload arrays, its ``min_version`` option, its ``scope`` — not listed
  by hand, so a new model op without a strategy for its arrays fails at
  import;
* ``kill`` / ``resync`` of a replica, a restart that replays the log into a
  fresh :class:`InferenceServer`, and ``save_cache`` / ``load_cache``.

The reference is a list of servables per model, one per version, advanced
offline by the servable's own ``updated`` / ``appended`` rule; a write the
rule refuses must be refused by the group and change nothing.  After every
step the invariants below hold: every row resolves and is accounted on the
replica it was routed to under the version that served it, ``drain()``
returns within a fixed bound with no completion slot outstanding, every
live replica serves the reference's versions and bit-identical constants
with one log record per write round, and the packed twin stays packed.
Reads are compared with the reference CPU route (the reference kernels,
per row or by an equal block) of the reference at the served version, under the deployment's approximation config, with no
tolerance.

Tier-1 runs the ``tier1`` profile's bounded, derandomized walk; CI runs
this file again under ``--hypothesis-profile=serving-long``.  The named
cases after the machine run its rules in fixed short sequences — each
model op on each deployment, kill / resync and restart-and-replay around
a write round — with the same invariants after every step.  A
counter-example the machine finds is fixed and pinned by a named
regression test (hypothesis has no ``@example`` for state machines): the
transport shutdown race its teardown check guards is
``tests/test_transport.py::TestTransportShutdown::test_shutdown_cancelling_a_closing_handler_ends_it_quietly``.
"""

from __future__ import annotations

import logging
import logging.handlers
import pathlib
import shutil
import tempfile
from collections import Counter

import numpy as np
import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.serving import InferenceServer, Servable, UpdateLog, merge_server_stats
from repro.serving.replica import ClientPool, GroupUpdateError, ReplicaGroup
from repro.serving.servable import NotAppendableError, NotUpdatableError
from repro.serving.transport.ops import OPS
from repro.transforms import ApproximationConfig, PerforationSpec

PERFORATED = ApproximationConfig(perforations=(PerforationSpec("hamming_distance", stride=2),))
#: Served name -> (stock case, registration options).
MODELS = {
    "exact": ("classification-hamming", {}),
    "packed": ("classification-hamming", {"config": ApproximationConfig(binarize=True)}),
    "perforated": ("classification-hamming", {"config": PERFORATED}),
    "sharded": ("classification-hamming", {"shards": 2}),
    "growing": ("hashtable", {}),
}
SERVER = dict(workers=("cpu",), max_batch_size=8, max_wait_seconds=0.001)
REPLICAS = 2
#: Seconds ``drain()`` may take once every reply is in: a hang bound.
DRAIN_BOUND_S = 10.0
#: The packed residency floor (float32 class memory packs 32x).
MIN_SHRINK = 25

#: A write's reference rule, by op name; what it raises, the group refuses.
DERIVE = {"update": Servable.updated, "append": Servable.appended}
REFUSED = (NotUpdatableError, NotAppendableError)

#: Each payload array an ``OPS`` row names, cut from a stock case's rows.
ARRAYS = {
    "sample": lambda case, rows: case.queries[rows.start],
    "samples": lambda case, rows: case.queries[rows],
    # A case without labels only meets a write its rule refuses.
    "labels": lambda case, rows: np.asarray(
        np.zeros(len(case.queries)) if case.labels is None else case.labels, dtype=np.int64
    )[rows],
    "rows": lambda case, rows: case.queries[rows],
}

#: Contiguous row windows of a 16-row stock query batch.
ROWS = st.tuples(st.integers(0, 15), st.integers(1, 16)).map(
    lambda window: slice(window[0], min(16, window[0] + window[1]))
)


class ServingMachine(RuleBasedStateMachine):
    """One group, one log, one pool; see the module docstring."""

    def __init__(self, cases: dict, per_row):
        super().__init__()
        self.per_row = per_row
        self.cases = {name: cases[key] for name, (key, _) in MODELS.items()}
        #: Per model, the reference servable of each version (index + 1).
        self.reference = {name: [case.servable] for name, case in self.cases.items()}
        #: Per (model, version), the reference labels of the query batch.
        self.labels: dict = {}
        self.rounds = 0
        #: Per replica, the rows routed to it, by (model, version).
        self.served = [Counter() for _ in range(REPLICAS)]
        self.tmp = pathlib.Path(tempfile.mkdtemp(prefix="serving-machine-"))
        self.log = UpdateLog(self.tmp / "group.updatelog")
        self.cache_saved, self.cache_entries = None, 0
        #: What the transports' event loops log as errors (nothing, ever).
        self.loop_errors = logging.handlers.BufferingHandler(capacity=1000)
        self.loop_errors.setLevel(logging.ERROR)
        logging.getLogger("asyncio").addHandler(self.loop_errors)
        self.group = ReplicaGroup(replicas=REPLICAS, update_log=self.log, **SERVER)
        for name, (_, options) in MODELS.items():
            self.group.register(self.cases[name].servable, name=name, **options)
        self.group.start()
        self.pool = ClientPool(self.group, timeout=30.0)

    def teardown(self):
        self.pool.close()
        self.group.stop()
        shutil.rmtree(self.tmp, ignore_errors=True)
        logging.getLogger("asyncio").removeHandler(self.loop_errors)
        assert not self.loop_errors.buffer, [r.getMessage() for r in self.loop_errors.buffer]

    # -- the reference ------------------------------------------------------------
    def version(self, model: str) -> int:
        return len(self.reference[model])

    def expected_labels(self, model: str) -> np.ndarray:
        """The reference CPU route's labels at the model's current version,
        under the deployment's approximation config."""
        key = (model, self.version(model))
        if key not in self.labels:
            servable, config = self.reference[model][-1], MODELS[model][1].get("config")
            self.labels[key] = self.per_row(servable, self.cases[model].queries, config)
        return self.labels[key]

    def live(self):
        return [self.group.replicas[index] for index in self.group.alive_indices()]

    # -- rules derived from OPS: one per model op --------------------------------------
    def read(self, op, model, rows, behind=None):
        case = self.cases[model]
        arrays = [ARRAYS[name](case, rows) for name in op.arrays]
        version = self.version(model)
        options = {} if behind is None else {"min_version": max(1, version - behind)}
        index = self.pool.route_for(model)
        reply = np.asarray(getattr(self.pool, op.name)(model, *arrays, **options)).reshape(-1)
        batch = arrays[0].ndim > len(case.servable.sample_shape)
        assert reply.size == (arrays[0].shape[0] if batch else 1)
        assert np.array_equal(reply, self.expected_labels(model)[rows][: reply.size])
        self.served[index][model, version] += reply.size

    def write(self, op, model, rows):
        arrays = [ARRAYS[name](self.cases[model], rows) for name in op.arrays]
        try:
            derived = DERIVE[op.name](self.reference[model][-1], *arrays)
        except REFUSED:
            with pytest.raises(GroupUpdateError):
                getattr(self.pool, op.name)(model, *arrays)
            return
        version = getattr(self.pool, op.name)(model, *arrays)
        assert version == self.version(model) + 1
        self.reference[model].append(derived)
        self.rounds += 1

    # -- lifecycle rules ----------------------------------------------------------------
    @precondition(lambda self: len(self.group.alive_indices()) == REPLICAS)
    @rule(index=st.integers(0, REPLICAS - 1))
    def kill(self, index):
        self.group.kill(index)
        self.served[index].clear()

    @precondition(lambda self: len(self.group.alive_indices()) < REPLICAS)
    @rule()
    def resync(self):
        (index,) = set(range(REPLICAS)) - set(self.group.alive_indices())
        self.group.resync(index)

    @rule()
    def restart_and_replay(self):
        """A fresh server fed the group log (and the saved compile cache, if
        any) rebuilds every version with byte-identical constants."""
        server = InferenceServer(**SERVER)
        if self.cache_saved is not None:
            server.load_cache(self.cache_saved)
        for name, (_, options) in MODELS.items():
            server.register(self.cases[name].servable, name=name, **options)
        with server:
            replayed = self.log.replay(server)
            assert replayed == [record.version for record in self.log.records()]
            assert server.model_versions() == {name: self.version(name) for name in MODELS}
            self.assert_constants(server)
            for name, case in self.cases.items():
                served = server.infer_many(name, case.queries, timeout=30.0)
                assert np.array_equal(np.asarray(served).reshape(-1), self.expected_labels(name))
            server.drain(DRAIN_BOUND_S)
        assert len(self.log) == self.rounds  # a replay never re-logs

    @rule()
    def save_cache(self):
        path = self.tmp / "compiled.cache"
        self.cache_saved, self.cache_entries = path, self.live()[0].server.save_cache(path)
        assert self.cache_entries >= 1

    @precondition(lambda self: self.cache_saved is not None)
    @rule()
    def load_cache(self):
        """Into the group's shared cache: only the entries it lacks load
        (growth evicted them), and later reads must not change."""
        assert 0 <= self.live()[0].server.load_cache(self.cache_saved) <= self.cache_entries

    # -- invariants -----------------------------------------------------------------
    def assert_constants(self, server):
        for name in MODELS:
            served = server.registry.get(name).servable.constants
            reference = self.reference[name][-1].constants
            assert sorted(served) == sorted(reference)
            for key, value in reference.items():
                assert np.asarray(served[key]).tobytes() == np.asarray(value).tobytes(), name

    @invariant()
    def drains_with_no_slot_outstanding(self):
        self.group.drain(DRAIN_BOUND_S)
        for replica in self.live():
            assert replica.server.broker._outstanding == 0

    @invariant()
    def stats_account_for_every_row(self):
        """One stats snapshot per live replica (``None`` for a dead one):

        * no request failed or was shed, and no stage fell back to the
          per-row loop;
        * the merged histogram counts every row served, and each replica
          counts exactly the rows routed to it, under the version that
          served them (a killed replica's count went with it);
        * the packed twin's class memory is resident at least 25x smaller.
        """
        snapshots = self.group.stats()
        assert len(snapshots) == REPLICAS
        merged = merge_server_stats(snapshots)
        assert merged["failures"] == 0 and merged["deadline_exceeded"] == 0
        assert merged["fallback_stages"] == 0
        live = [self.served[i] if snapshot else Counter() for i, snapshot in enumerate(snapshots)]
        assert merged["latency_histogram"]["count"] == sum(sum(c.values()) for c in live)
        for index, snapshot in enumerate(snapshots):
            if snapshot is None:
                continue
            for name, model_stats in snapshot["model_stats"].items():
                expected = {str(v): n for (m, v), n in live[index].items() if m == name}
                assert model_stats["requests_by_version"] == expected, (index, name)
            assert snapshot["model_stats"]["packed"]["residency"]["shrink_ratio"] >= MIN_SHRINK

    @invariant()
    def replicas_serve_the_reference(self):
        """Every live replica is at the reference's versions with its
        constants byte for byte (appended rows included), and the log holds
        one record per write round."""
        expected = {name: self.version(name) for name in MODELS}
        for replica in self.live():
            assert replica.server.model_versions() == expected
            self.assert_constants(replica.server)
        assert len(self.log) == self.rounds


def _op_rule(op):
    """The rule for one model op: a read routed to one replica, or a swap
    round through the group (its ``scope``)."""
    strategies = dict(model=st.sampled_from(sorted(MODELS)), rows=ROWS)
    if op.scope == "route":
        if "min_version" in op.options:
            strategies["behind"] = st.none() | st.integers(0, 2)
        body = lambda self, **drawn: self.read(op, **drawn)  # noqa: E731
    else:
        assert op.scope == "round" and op.name in DERIVE, op
        body = lambda self, **drawn: self.write(op, **drawn)  # noqa: E731
    body.__name__ = op.name
    return rule(**strategies)(body)


for _op in OPS.values():
    if _op.model:
        assert all(name in ARRAYS for name in _op.arrays), _op
        setattr(ServingMachine, _op.name, _op_rule(_op))


def test_serving_machine(stock, per_row):
    run_state_machine_as_test(
        lambda: ServingMachine(stock, per_row), settings=settings(settings.default, deadline=None)
    )


# -- the rules one at a time, named ------------------------------------------------------
#: The invariants the walk checks after every step, in its order.
INVARIANTS = (
    "drains_with_no_slot_outstanding",
    "stats_account_for_every_row",
    "replicas_serve_the_reference",
)
MODEL_OPS = [op.name for op in OPS.values() if op.model]
WHOLE = slice(0, 16)


@pytest.fixture
def machine(stock, per_row):
    machine = ServingMachine(stock, per_row)
    yield machine
    machine.teardown()


def steps(machine, *calls):
    """Run ``(rule, drawn)`` calls on ``machine``, every invariant after each."""
    for rule_name, drawn in calls:
        getattr(machine, rule_name)(**drawn)
        for name in INVARIANTS:
            getattr(machine, name)()


def writes(model):
    """One ``update`` and one ``append`` round on ``model``; the one its
    servable refuses must be refused by the group."""
    return [(op, dict(model=model, rows=slice(0, 4))) for op in DERIVE]


@pytest.mark.parametrize("model", sorted(MODELS))
@pytest.mark.parametrize("op", MODEL_OPS)
def test_each_model_op_keeps_every_invariant(machine, op, model):
    """Each op rule on each deployment, before and after a write round on
    it: the walk's single steps as named cases (a read asks for the
    version it expects, so it must be served at that version or later)."""
    drawn = dict(model=model, rows=WHOLE)
    if op not in DERIVE and "min_version" in OPS[op].options:
        drawn["behind"] = 0
    steps(machine, (op, drawn), *writes(model), (op, drawn))


@pytest.mark.parametrize("model", sorted(MODELS))
def test_a_killed_replica_resyncs_to_the_rounds_it_missed(machine, model):
    """Kill the replica ``model`` routes to; the rounds land on the
    survivor, reads reroute, and ``resync`` replays what the dead one
    missed before it serves again."""
    index = machine.pool.route_for(model)
    read = ("infer_batch", dict(model=model, rows=WHOLE, behind=0))
    steps(machine, ("kill", dict(index=index)), *writes(model), read, ("resync", {}), read)
    assert machine.group.alive_indices() == list(range(REPLICAS))


@pytest.mark.parametrize("model", sorted(MODELS))
def test_restart_replays_the_rounds_through_the_saved_cache(machine, model):
    """A fresh server fed the saved compile cache and the group log
    rebuilds ``model``'s rounds byte for byte; loading the cache back into
    the group changes no read."""
    read = ("infer_batch", dict(model=model, rows=WHOLE, behind=0))
    steps(
        machine,
        ("save_cache", {}),
        *writes(model),
        ("restart_and_replay", {}),
        ("load_cache", {}),
        read,
    )

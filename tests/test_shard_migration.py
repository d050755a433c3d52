"""Shard-aware session migration: the planner and the live fleet.

Two layers:

* **planner properties** (hypothesis) — :func:`repro.runtime.migration.
  plan_migration` is a pure function of (old placements, new ring,
  live set), so its invariants are checked exhaustively: every placed
  key appears exactly once across moves/unchanged/stranded, every move
  targets the key's first *live* shard in new-ring preference order,
  removing an unrelated shard never moves keys between survivors, and
  adding a shard only ever moves keys *onto* the new shard.
* **live fleet** — a 2 → 3 → 2 shard reshape on the loopback link
  (``tests/shard_loopback.py``: each worker a thread of this process,
  the coordinator's migration code unchanged): pinned sessions keep
  answering on their ring-preferred shard after ``add_shard`` and
  ``remove_shard``, with a background submitter proving no request is
  lost across either reshape.  ``bench-slo --scenario shard-reshape``
  is the same contract on real processes.
"""

import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.runtime.migration import plan_migration
from repro.shard.ring import HashRing

# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
_KEYS = st.text(alphabet="abcdefgh0123456789-", min_size=1, max_size=12)

_SHARD_SETS = st.sets(st.integers(min_value=0, max_value=12),
                      min_size=1, max_size=6)


@st.composite
def _worlds(draw):
    """(placements, old_ring, new_ring) with placements on the old ring."""
    old_shards = sorted(draw(_SHARD_SETS))
    new_shards = sorted(draw(_SHARD_SETS))
    old_ring = HashRing(old_shards)
    new_ring = HashRing(new_shards)
    keys = draw(st.lists(_KEYS, min_size=0, max_size=24,
                         unique=True))
    placements = {key: old_ring.lookup(key) for key in keys}
    return placements, old_ring, new_ring


_SETTINGS = settings(max_examples=80, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


# ----------------------------------------------------------------------
# planner properties
# ----------------------------------------------------------------------
class TestPlanProperties:
    @given(_worlds())
    @_SETTINGS
    def test_every_key_exactly_once(self, world):
        placements, old_ring, new_ring = world
        plan = plan_migration(old_ring, new_ring, placements)
        moved = [move.key for move in plan.moves]
        seen = moved + list(plan.unchanged) + list(plan.stranded)
        assert sorted(seen) == sorted(placements)
        assert len(seen) == len(set(seen))

    @given(_worlds())
    @_SETTINGS
    def test_moves_target_first_live_preference(self, world):
        placements, old_ring, new_ring = world
        plan = plan_migration(old_ring, new_ring, placements)
        for move in plan.moves:
            assert move.to_shard == next(
                iter(new_ring.preference(move.key)))
            assert move.to_shard != move.from_shard
            assert move.from_shard == placements[move.key]
        for key in plan.unchanged:
            assert placements[key] == next(
                iter(new_ring.preference(key)))

    @given(_worlds(), st.sets(st.integers(min_value=0, max_value=12),
                              max_size=3))
    @_SETTINGS
    def test_dead_targets_are_skipped(self, world, dead):
        """With some shards dead, targets come from the live set only."""
        placements, old_ring, new_ring = world
        live = [s for s in new_ring.shards if s not in dead]
        plan = plan_migration(old_ring, new_ring, placements, live=live)
        for move in plan.moves:
            assert move.to_shard in live
        if not live:
            assert not plan.moves
            # nowhere to go: every misplaced key is stranded
            assert sorted(plan.unchanged) + sorted(plan.stranded) or \
                not placements

    @given(st.lists(_KEYS, min_size=1, max_size=24, unique=True),
           st.sets(st.integers(min_value=0, max_value=8), min_size=2,
                   max_size=6))
    @_SETTINGS
    def test_remove_moves_only_off_the_leaver(self, keys, shards):
        """Shrinking by one shard only relocates the leaver's keys."""
        old_ring = HashRing(sorted(shards))
        leaving = min(shards)
        new_ring = HashRing(sorted(shards - {leaving}))
        placements = {key: old_ring.lookup(key) for key in keys}
        plan = plan_migration(old_ring, new_ring, placements)
        for move in plan.moves:
            assert move.from_shard == leaving

    @given(st.lists(_KEYS, min_size=1, max_size=24, unique=True),
           st.sets(st.integers(min_value=0, max_value=8), min_size=1,
                   max_size=6))
    @_SETTINGS
    def test_add_moves_only_onto_the_joiner(self, keys, shards):
        """Growing by one shard only relocates keys onto the joiner.

        The consistent-hash monotonicity property, observed through
        the planner: survivors never shuffle keys among themselves.
        """
        old_ring = HashRing(sorted(shards))
        joining = max(shards) + 1
        new_ring = HashRing(sorted(shards | {joining}))
        placements = {key: old_ring.lookup(key) for key in keys}
        plan = plan_migration(old_ring, new_ring, placements)
        for move in plan.moves:
            assert move.to_shard == joining

    @given(_worlds())
    @_SETTINGS
    def test_plan_is_deterministic(self, world):
        placements, old_ring, new_ring = world
        first = plan_migration(old_ring, new_ring, placements)
        second = plan_migration(old_ring, new_ring, placements)
        assert first == second


# ----------------------------------------------------------------------
# live fleet
# ----------------------------------------------------------------------
class TestLiveMigration:
    def test_sessions_follow_ring_across_add_and_remove(self, loopback):
        from repro.config import ServeConfig
        from repro.shard import ShardModelSpec, ShardedChatGraphServer

        config = ServeConfig(shards=2, workers=1, queue_depth=128)
        server = ShardedChatGraphServer(
            ShardModelSpec(corpus_size=200), config)
        session_ids = [f"user-{i}" for i in range(8)]

        stop = threading.Event()
        background: list = []

        def pump() -> None:
            """Keep sessionless traffic flowing through both reshapes."""
            i = 0
            while not stop.is_set():
                try:
                    pending = server.submit(_request(f"background {i}"))
                except Exception:  # noqa: BLE001 - shedding is fine
                    continue
                background.append(pending)
                i += 1
                stop.wait(0.01)

        def _request(text):
            from repro.serve.engine import ServeRequest
            return ServeRequest(op="ask", text=text,
                                client_id=f"bg-{len(background) % 4}")

        def assert_on_preferred_shards() -> None:
            for session_id in session_ids:
                response = server.ask("how many nodes are there?",
                                      session_id=session_id)
                assert response.ok, response.error
                expected = next(iter(server.ring.preference(
                    server.routing_key(_session_probe(session_id)))))
                assert response.worker.startswith(
                    f"shard-{expected}/"), (
                    f"{session_id} served by {response.worker}, ring "
                    f"prefers shard {expected}")

        def _session_probe(session_id):
            from repro.serve.engine import ServeRequest
            return ServeRequest(op="ask", text="probe",
                                session_id=session_id)

        with server:
            for session_id in session_ids:
                response = server.ask("how many edges are there?",
                                      session_id=session_id)
                assert response.ok, response.error
            pumper = threading.Thread(target=pump, daemon=True)
            pumper.start()
            try:
                report = server.add_shard()
                assert report["ring"] == [0, 1, 2]
                assert report["stranded"] == 0
                assert_on_preferred_shards()

                report = server.remove_shard(0)
                assert report["ring"] == [1, 2]
                assert report["stranded"] == 0
                assert_on_preferred_shards()
            finally:
                stop.set()
                pumper.join(timeout=10.0)

            # zero lost requests: every submitted background request
            # resolves (ok or a clean shed — never a hang, never lost)
            lost = 0
            failed = []
            for pending in background:
                response = pending.result(timeout=60.0)
                if response is None:
                    lost += 1
                elif not response.ok:
                    failed.append(response)
            assert lost == 0
            assert not failed, (
                f"{len(failed)} background requests errored during "
                f"migration; first: {failed[0].error}")

            stats = server.stats()
            assert stats["shards"]["count"] == 2
            assert stats["counters"]["shard_migrations"] == 2
            assert stats["counters"]["sessions_migrated"] >= 1

"""ExemplarStore: slowest-k, priority reservoir, merge invariance."""

import json

import numpy as np
import pytest

from repro.obs.exemplars import ExemplarRecord, ExemplarStore, priority_hash


def make_record(request_id, latency, replica=0):
    return ExemplarRecord(
        replica=replica, request_id=request_id,
        arrival_us=float(request_id) * 10.0, latency_us=float(latency),
        queue_wait_us=1.0, batch_wait_us=2.0,
        execute_us=float(latency) - 3.0,
        batch_index=request_id // 4, batch_size=4)


def canonical(store: ExemplarStore) -> str:
    return json.dumps(store.to_dict(), sort_keys=True)


class TestPriorityHash:
    def test_deterministic_and_uniform_ish(self):
        a = priority_hash(0, 1, 2)
        assert a == priority_hash(0, 1, 2)
        assert 0.0 <= a < 1.0
        values = [priority_hash(7, r, i)
                  for r in range(4) for i in range(250)]
        assert 0.4 < float(np.mean(values)) < 0.6

    def test_seed_changes_sample(self):
        ids = [priority_hash(0, 0, i) for i in range(100)]
        other = [priority_hash(1, 0, i) for i in range(100)]
        assert ids != other


class TestSlowestK:
    def test_keeps_exactly_the_slowest(self):
        rng = np.random.default_rng(0)
        latencies = rng.permutation(np.arange(100.0, 600.0, 5.0))
        store = ExemplarStore(slowest_k=5, reservoir_size=0)
        for i, lat in enumerate(latencies):
            store.offer(make_record(i, lat))
        kept = [r.latency_us for r in store.slowest]
        assert kept == sorted(latencies, reverse=True)[:5]

    def test_tie_break_is_total_order(self):
        store = ExemplarStore(slowest_k=2, reservoir_size=0)
        for rid in (5, 3, 9):
            store.offer(make_record(rid, 100.0))
        # equal latency → lowest (replica, request_id) wins
        assert store.slowest_ids() == [(0, 3), (0, 5)]


class TestMergeInvariance:
    def test_merge_any_order_equals_single_store(self):
        rng = np.random.default_rng(1)
        records = [make_record(i, rng.exponential(200.0), replica=i % 3)
                   for i in range(300)]
        single = ExemplarStore(slowest_k=6, reservoir_size=10, seed=9)
        for r in records:
            single.offer(r)

        def sharded(order):
            shards = []
            for lo in range(0, 300, 100):
                s = ExemplarStore(slowest_k=6, reservoir_size=10, seed=9)
                for r in records[lo:lo + 100]:
                    s.offer(r)
                shards.append(s)
            out = ExemplarStore(slowest_k=6, reservoir_size=10, seed=9)
            for i in order:
                out.merge(shards[i])
            return out

        assert canonical(sharded((0, 1, 2))) == canonical(single)
        assert canonical(sharded((2, 0, 1))) == canonical(single)

    def test_merge_rejects_seed_mismatch(self):
        with pytest.raises(ValueError):
            ExemplarStore(seed=0).merge(ExemplarStore(seed=1))

    def test_reservoir_is_set_function_not_order_function(self):
        records = [make_record(i, 100.0 + i) for i in range(50)]
        fwd = ExemplarStore(reservoir_size=8, seed=3)
        rev = ExemplarStore(reservoir_size=8, seed=3)
        for r in records:
            fwd.offer(r)
        for r in reversed(records):
            rev.offer(r)
        assert canonical(fwd) == canonical(rev)


class TestShortlist:
    @pytest.mark.parametrize("seed", [0, -3, 2 ** 63 + 1])
    def test_offering_the_shortlist_equals_offering_everything(self, seed):
        # three latency levels: hundreds of ties at every top-k boundary
        rng = np.random.default_rng(2)
        latency = rng.choice([100.0, 200.0, 300.0], size=2_000)
        ids = rng.permutation(2_000) + 2 ** 32 - 1_000   # unsorted, wide
        every = ExemplarStore(slowest_k=8, reservoir_size=16, seed=seed)
        for i, lat in zip(ids.tolist(), latency.tolist()):
            every.offer(make_record(i, lat, replica=5))
        picked = ExemplarStore(slowest_k=8, reservoir_size=16, seed=seed)
        order = {i: lat for i, lat in zip(ids.tolist(), latency.tolist())}
        shortlist = picked.shortlist(5, ids, latency).tolist()
        assert len(shortlist) <= 8 + 16
        for i in shortlist:
            picked.offer(make_record(i, order[i], replica=5))
        assert canonical(picked) == canonical(every)

    def test_empty_and_zero_capacity(self):
        store = ExemplarStore(slowest_k=0, reservoir_size=0)
        assert store.shortlist(0, [3, 1], [5.0, 6.0]).size == 0
        assert ExemplarStore().shortlist(0, [], []).size == 0


class TestExport:
    def test_roundtrip(self):
        store = ExemplarStore(slowest_k=3, reservoir_size=4, seed=5)
        for i in range(20):
            store.offer(make_record(i, 50.0 + 13.0 * (i % 7)))
        clone = ExemplarStore.from_dict(store.to_dict())
        assert canonical(clone) == canonical(store)

    def test_record_dict_keys(self):
        row = make_record(1, 100.0).to_dict()
        assert set(row) == {"replica", "request", "arrival_us",
                            "latency_us", "queue_wait_us",
                            "batch_wait_us", "execute_us",
                            "retry_overhead_us", "batch", "batch_size",
                            "status"}

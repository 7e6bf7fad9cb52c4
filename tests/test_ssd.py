"""Tests for repro.ssd: profiles, page store, device model."""

import numpy as np
import pytest

from repro import (
    ConfigError,
    EmbeddingSpec,
    P4510,
    P5800X,
    RAID0_2X_P5800X,
    SimulatedSsd,
    SsdProfile,
    StorageError,
)
from repro.ssd import GENERIC_NAND, PROFILES, PageStore
from repro.ssd.page_store import (
    extract_embedding,
    materialize_layout,
    pack_embeddings,
)
from repro.placement import PageLayout


class TestProfiles:
    def test_paper_figures_for_p5800x(self):
        assert P5800X.read_latency_us == 5.0
        assert P5800X.bandwidth_gb_s > 7.0

    def test_p4510_is_slower_nand(self):
        assert P4510.read_latency_us > P5800X.read_latency_us
        assert P4510.bandwidth_gb_s < P5800X.bandwidth_gb_s

    def test_raid0_doubles_bandwidth(self):
        assert RAID0_2X_P5800X.bandwidth_gb_s == pytest.approx(
            2 * P5800X.bandwidth_gb_s
        )
        assert RAID0_2X_P5800X.read_latency_us == P5800X.read_latency_us

    def test_registry_contains_all(self):
        assert set(PROFILES) == {
            "p5800x", "p4510", "raid0", "nand", "p5800x-ndp"
        }
        assert PROFILES["nand"] is GENERIC_NAND

    def test_transfer_time(self):
        profile = SsdProfile("t", read_latency_us=1.0, bandwidth_gb_s=1.0)
        # 1 GB/s = 1000 bytes/us; a 4096-byte page takes 4.096 us.
        assert profile.transfer_time_us(4096) == pytest.approx(4.096)

    def test_scaled(self):
        doubled = P4510.scaled("2x", 2.0)
        assert doubled.bandwidth_gb_s == pytest.approx(6.4)
        assert doubled.read_latency_us == P4510.read_latency_us

    def test_validation(self):
        with pytest.raises(ConfigError):
            SsdProfile("bad", read_latency_us=0, bandwidth_gb_s=1)
        with pytest.raises(ConfigError):
            SsdProfile("bad", read_latency_us=1, bandwidth_gb_s=0)
        with pytest.raises(ConfigError):
            SsdProfile("bad", 1, 1, queue_depth=0)
        with pytest.raises(ConfigError):
            P5800X.scaled("bad", 0)
        with pytest.raises(ConfigError):
            P5800X.transfer_time_us(-1)


class TestPageStore:
    def test_write_read_round_trip(self):
        store = PageStore(page_size=64, num_pages=4)
        store.write_page(1, b"hello")
        page = store.read_page(1)
        assert page.startswith(b"hello")
        assert len(page) == 64

    def test_unwritten_page_is_zero(self):
        store = PageStore(page_size=16, num_pages=2)
        assert store.read_page(0) == b"\x00" * 16

    def test_rejects_oversized_payload(self):
        store = PageStore(page_size=8, num_pages=1)
        with pytest.raises(StorageError):
            store.write_page(0, b"123456789")

    def test_rejects_bad_page_id(self):
        store = PageStore(page_size=8, num_pages=1)
        with pytest.raises(StorageError):
            store.read_page(1)
        with pytest.raises(StorageError):
            store.write_page(-1, b"")



class TestPackUnpack:
    def test_round_trip(self):
        spec = EmbeddingSpec(dim=4, page_size=64)
        vectors = np.arange(12, dtype=np.float32).reshape(3, 4)
        payload = pack_embeddings(vectors, spec)
        out = np.frombuffer(payload, dtype=np.float32).reshape(3, 4)
        assert np.array_equal(out, vectors)

    def test_pack_rejects_wrong_shape(self):
        spec = EmbeddingSpec(dim=4, page_size=64)
        with pytest.raises(StorageError):
            pack_embeddings(np.zeros((2, 5), dtype=np.float32), spec)

    def test_pack_rejects_too_many(self):
        spec = EmbeddingSpec(dim=4, page_size=32)  # 2 slots
        with pytest.raises(StorageError):
            pack_embeddings(np.zeros((3, 4), dtype=np.float32), spec)

    def test_extract_embedding(self):
        spec = EmbeddingSpec(dim=2, page_size=32)
        vectors = np.array([[1, 2], [3, 4]], dtype=np.float32)
        payload = pack_embeddings(vectors, spec)
        out = extract_embedding(payload, (10, 20), 20, spec)
        assert np.array_equal(out, [3.0, 4.0])
        assert extract_embedding(payload, (10, 20), 99, spec) is None

    def test_materialize_layout(self):
        spec = EmbeddingSpec(dim=2, page_size=32)
        layout = PageLayout(4, 4, [(0, 1), (2, 3, 1)], num_base_pages=2)
        table = np.arange(8, dtype=np.float32).reshape(4, 2)
        store, page_keys = materialize_layout(layout, table, spec)
        assert page_keys == [(0, 1), (2, 3, 1)]
        payload = store.read_page(1)
        assert np.array_equal(
            extract_embedding(payload, page_keys[1], 1, spec), table[1]
        )

    def test_materialize_rejects_wrong_table(self):
        spec = EmbeddingSpec(dim=2, page_size=32)
        layout = PageLayout(2, 4, [(0, 1)])
        with pytest.raises(StorageError):
            materialize_layout(
                layout, np.zeros((3, 2), dtype=np.float32), spec
            )


class TestSimulatedSsd:
    def make_device(self, latency=10.0, bandwidth_gb_s=0.004096, qd=4):
        # 0.004096 GB/s => one 4096-byte page per millisecond.
        profile = SsdProfile(
            "test", read_latency_us=latency,
            bandwidth_gb_s=bandwidth_gb_s, queue_depth=qd,
        )
        return SimulatedSsd(profile, page_size=4096)

    def test_idle_read_completes_after_latency(self):
        dev = self.make_device()
        completion = dev.submit_read(0, now_us=100.0)
        assert completion.completed_at_us == pytest.approx(110.0)
        assert completion.latency_us == pytest.approx(10.0)

    def test_bandwidth_ceiling_serializes_reads(self):
        dev = self.make_device()  # 1 page per 1000 us
        first = dev.submit_read(0, 0.0)
        second = dev.submit_read(1, 0.0)
        assert first.completed_at_us == pytest.approx(10.0)
        # Second read starts only after the first transfer slot (1000 us).
        assert second.completed_at_us == pytest.approx(1010.0)

    def test_idle_gap_resets_service_cursor(self):
        dev = self.make_device()
        dev.submit_read(0, 0.0)
        late = dev.submit_read(1, 5000.0)
        assert late.completed_at_us == pytest.approx(5010.0)

    def test_poll_retires_in_completion_order(self):
        dev = self.make_device()
        dev.submit_read(0, 0.0)
        dev.submit_read(1, 0.0)
        assert dev.inflight == 2
        done = dev.poll(10.0)
        assert [c.page_id for c in done] == [0]
        assert dev.inflight == 1
        assert dev.poll(5000.0)[0].page_id == 1
        assert dev.inflight == 0

    def test_queue_depth_enforced(self):
        dev = self.make_device(qd=2)
        dev.submit_read(0, 0.0)
        dev.submit_read(1, 0.0)
        with pytest.raises(StorageError):
            dev.submit_read(2, 0.0)

    def test_drain_returns_last_completion(self):
        dev = self.make_device()
        dev.submit_read(0, 0.0)
        last = dev.submit_read(1, 0.0)
        assert dev.drain() == pytest.approx(last.completed_at_us)
        assert dev.inflight == 0

    def test_next_completion_time(self):
        dev = self.make_device()
        assert dev.next_completion_time() is None
        c = dev.submit_read(0, 0.0)
        assert dev.next_completion_time() == pytest.approx(c.completed_at_us)

    def test_stats_accumulate(self):
        dev = self.make_device()
        dev.submit_read(0, 0.0)
        dev.submit_read(1, 0.0)
        assert dev.stats.reads == 2
        assert dev.stats.bytes_read == 2 * 4096
        assert dev.stats.total_latency_us > 0

    def test_rejects_bad_args(self):
        dev = self.make_device()
        with pytest.raises(StorageError):
            dev.submit_read(-1, 0.0)
        with pytest.raises(StorageError):
            dev.submit_read(0, -1.0)
        with pytest.raises(StorageError):
            SimulatedSsd(P5800X, page_size=0)

"""Chaos drill: kill an ingestor mid-roll, recover bit-exactly from the log."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.query import AccuracySpec, RangeQuery
from repro.durability import codec
from repro.errors import IngestorCrashError, JournalError, StreamingError
from repro.streaming.journal import (
    WindowLog,
    WindowLogEntry,
    rebuild_window_state,
)
from repro.streaming.runtime import StreamingConfig, build_streaming_cluster
from repro.streaming.window import window_checksum

FLOOR = AccuracySpec(alpha=0.15, delta=0.5)
CONFIG = StreamingConfig(
    shards=4, devices_per_shard=2, window_epochs=3, floor=FLOOR, seed=19
)


def drive(cluster, epochs, per_epoch=128, answer=True):
    """Ingest + roll ``epochs`` epochs, answering once per roll."""
    rng = np.random.default_rng(101)
    for epoch in range(cluster.open_epoch, cluster.open_epoch + epochs):
        values = rng.uniform(0.0, 100.0, per_epoch)
        timestamps = epoch + np.arange(per_epoch) / per_epoch
        cluster.ingest(values, timestamps)
        cluster.roll()
        if answer:
            cluster.broker.answer(
                RangeQuery(low=25.0, high=75.0, dataset=CONFIG.dataset),
                FLOOR,
                "drill",
            )


class TestChaosDrill:
    def test_crash_mid_roll_recovers_bit_exactly(self, tmp_path):
        log_path = tmp_path / "window.journal"
        cluster = build_streaming_cluster(CONFIG, window_log=WindowLog(log_path))
        drive(cluster, epochs=4)
        spent_before = cluster.broker.epoch_accountant.live_total(
            CONFIG.dataset
        )

        # Epoch 4: shard 1 journals its seal, then dies.  Shard 0 sealed
        # fully, shards 2 and 3 never sealed.
        rng = np.random.default_rng(999)
        cluster.ingest(
            rng.uniform(0.0, 100.0, 128), 4.0 + np.arange(128) / 128.0
        )
        with pytest.raises(IngestorCrashError):
            cluster.roll(crash_shard=1)
        cluster.window_log.close()

        # The "process" restarts: fresh cluster, log reloaded from disk.
        revived = build_streaming_cluster(
            CONFIG, window_log=WindowLog.load(log_path)
        )
        snapshot = revived.recover()

        # Every shard resumes after the torn epoch.
        assert all(i.open_epoch == 5 for i in revived.ingestors)
        assert revived.station.store_version == 5
        assert snapshot.live_epochs == (2, 3, 4)

        # The rings are bit-exactly the journal-implied state: replaying
        # the log independently yields identical window checksums.
        windows, _ = rebuild_window_state(
            revived.window_log.entries(), CONFIG.window_epochs
        )
        for ingestor in revived.ingestors:
            if ingestor.shard_id in windows:
                implied = windows[ingestor.shard_id]
                # Shards 2/3 additionally sealed epoch 4 empty on
                # recovery; compare the journaled prefix only.
                journaled = [
                    s for s in ingestor.window.epochs()
                    if any(e.epoch == s.epoch and e.record_count == s.record_count
                           for e in implied.epochs())
                ]
                assert window_checksum(journaled) == window_checksum(
                    implied.epochs()
                )

        # The crashed shard's journaled epoch 4 made it into the window.
        shard1 = revived.ingestors[1]
        assert 4 in [s.epoch for s in shard1.window.epochs()]
        # Shards that never sealed epoch 4 hold it empty.
        for shard_id in (2, 3):
            epoch4 = [
                s for s in revived.ingestors[shard_id].window.epochs()
                if s.epoch == 4
            ]
            assert len(epoch4) == 1 and epoch4[0].is_empty

        # The epoch budgets replayed from charge entries, then expired
        # below the recovered floor: live spend never exceeds pre-crash.
        assert revived.broker.epoch_accountant.live_total(
            CONFIG.dataset
        ) <= spent_before + 1e-12

        # And the revived cluster answers (the drill's point: no data or
        # budget state was lost to the crash).
        answer = revived.broker.answer(
            RangeQuery(low=25.0, high=75.0, dataset=CONFIG.dataset),
            FLOOR,
            "post-recovery",
        )
        assert answer.value >= 0.0

    def test_in_memory_recovery_resumes_rolls(self):
        cluster = build_streaming_cluster(CONFIG)
        drive(cluster, epochs=2, answer=False)
        cluster.ingest([50.0], [2.0])
        with pytest.raises(IngestorCrashError):
            cluster.roll(crash_shard=0)
        cluster.recover()
        assert cluster.open_epoch == 3
        # Life goes on: the next epoch ingests and rolls normally.
        cluster.ingest(
            np.full(8, 60.0), 3.0 + np.arange(8) / 8.0
        )
        snapshot = cluster.roll()
        assert snapshot.live_epochs == (1, 2, 3)

    def test_recover_requires_rolls(self):
        cluster = build_streaming_cluster(CONFIG)
        with pytest.raises(StreamingError):
            cluster.recover()

    def test_recovery_checksum_matches_crash_free_run(self, tmp_path):
        # A crash between journal and apply must be invisible in the
        # final merged window: run the same workload crash-free and
        # compare station checksums.  (The crashed roll tears shards 2/3,
        # whose epoch-2 arrivals die with the process, so we crash a roll
        # of an *empty* epoch -- every shard then seals epoch 2 empty and
        # the journal-implied state is identical to the crash-free one.)
        clean = build_streaming_cluster(CONFIG)
        drive(clean, epochs=2, answer=False)
        clean.roll()  # empty epoch 2

        crashed = build_streaming_cluster(CONFIG)
        drive(crashed, epochs=2, answer=False)
        with pytest.raises(IngestorCrashError):
            crashed.roll(crash_shard=1)  # empty epoch 2, torn
        crashed.recover()

        assert window_checksum(
            crashed.station.snapshot().epochs
        ) == window_checksum(clean.station.snapshot().epochs)
        assert crashed.station.store_version == clean.station.store_version


class TestWindowLogDurability:
    def test_load_tolerates_torn_tail(self, tmp_path):
        path = tmp_path / "log.journal"
        log = WindowLog(path)
        log.append_charge("d", [0, 1], 0.1, "q0")
        log.append_charge("d", [0, 1], 0.2, "q1")
        log.close()
        # A crash mid-write: the first half of one more charge frame.
        extra = WindowLog()
        for label in ("q0", "q1", "q2"):
            extra.append_charge("d", [0, 1], 0.1, label)
        frame = codec.encode_window(
            extra.entries()[2:], codec.StringTable(["d"])
        )
        with path.open("ab") as handle:
            handle.write(frame[: len(frame) // 2])
        reloaded = WindowLog.load(path)
        assert len(reloaded) == 2
        # Appends resume with the next seq after the surviving entries.
        entry = reloaded.append_charge("d", [1, 2], 0.3, "q2")
        reloaded.close()
        assert entry.seq == 3

    def test_load_rejects_corrupt_interior(self, tmp_path):
        path = tmp_path / "log.journal"
        log = WindowLog(path)
        log.append_charge("d", [0], 0.1, "q0")
        log.append_charge("d", [0], 0.1, "q1")
        log.close()
        data = path.read_bytes()
        # Damage the first frame; a whole frame follows it.
        path.write_bytes(data[:9] + b"X" + data[10:])
        with pytest.raises(JournalError, match="CRC"):
            WindowLog.load(path)

    def test_checksum_is_content_addressed(self, tmp_path):
        a = WindowLog()
        b = WindowLog()
        for log in (a, b):
            log.append_charge("d", [0], 0.1, "q0")
        assert a.checksum() == b.checksum()
        b.append_charge("d", [1], 0.1, "q1")
        assert a.checksum() != b.checksum()

    def test_rebuild_rejects_out_of_order_seq(self):
        entries = [
            WindowLogEntry(2, "charge", {"dataset": "d", "epochs": [0],
                                         "epsilon": 0.1, "label": "x"}),
            WindowLogEntry(1, "charge", {"dataset": "d", "epochs": [0],
                                         "epsilon": 0.1, "label": "y"}),
        ]
        with pytest.raises(JournalError):
            rebuild_window_state(entries, window_epochs=2)

    def test_payload_roundtrip(self):
        entry = WindowLogEntry(
            1, "charge",
            {"dataset": "d", "epochs": [3, 4], "epsilon": 0.25, "label": "q"},
        )
        back = WindowLogEntry.from_payload(
            json.loads(json.dumps(entry.to_payload()))
        )
        assert back.seq == entry.seq
        assert back.kind == entry.kind
        assert back.data == entry.data

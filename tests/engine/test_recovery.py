"""Crash-safety: the fault-point matrix, WAL recovery, corruption.

The centrepiece kills a real subprocess running a mixed DML/DDL
workload (``tests/engine/_crash_workload.py``) at *every* registered
fault point, reopens the farm, and asserts the recovered catalog is
byte-identical (SHA-256 digest) to the last acknowledged commit — or
to the one unacknowledged in-flight commit whose WAL record was
already durable when the crash hit.  No acknowledged commit may ever
be lost.
"""

from __future__ import annotations

import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import repro
from repro.catalog import Catalog
from repro.errors import (
    CorruptionError,
    PersistenceError,
    RecoveryWarning,
)
from repro.engine import wal as wal_mod
from repro.engine.database import Database
from repro.gdk import persist
from repro.gdk.atoms import Atom
from repro.gdk.bat import BAT
from repro.gdk.column import Column
from repro.testing import FaultInjected, activate, faultpoints
from repro.testing.verify import catalog_digest

from tests.engine import _crash_workload

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC_DIR = REPO_ROOT / "src"


@pytest.fixture(autouse=True)
def _clean_faultpoints():
    faultpoints.reset()
    yield
    faultpoints.reset()


@pytest.fixture(scope="module")
def expected_digests():
    """Catalog digest after the seed and after each committed op."""
    conn = repro.connect(nr_threads=1)
    _crash_workload.build_seed(conn)
    digests = [catalog_digest(conn.database.catalog)]
    for op in _crash_workload.OPS:
        op(conn)
        digests.append(catalog_digest(conn.database.catalog))
    conn.close()
    return digests


def _seed_farm(tmp_path: Path) -> Path:
    farm = tmp_path / "db"
    seed = repro.connect(nr_threads=1)
    _crash_workload.build_seed(seed)
    seed.save(farm)
    seed.close()
    return farm


def _run_workload(farm: Path, ack: Path, faultpoint: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC_DIR), env.get("PYTHONPATH")) if p
    )
    env[faultpoints.ENV_VAR] = faultpoint
    env["REPRO_WAL_CHECKPOINT_RECORDS"] = _crash_workload.CHECKPOINT_RECORDS
    env["REPRO_NR_THREADS"] = "1"
    return subprocess.run(
        [sys.executable, "-m", "tests.engine._crash_workload", str(farm), str(ack)],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def _acked(ack: Path) -> list[tuple[int, str]]:
    if not ack.exists():
        return []
    entries = []
    for line in ack.read_bytes().decode().splitlines():
        index, _, digest = line.partition(" ")
        if len(digest) == 64:  # ignore a torn final line
            entries.append((int(index), digest))
    return entries


def _reopen_digest(farm: Path) -> str:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RecoveryWarning)
        conn = repro.connect(farm, nr_threads=1)
    try:
        return catalog_digest(conn.database.catalog)
    finally:
        conn.close()


#: the matrix: every registered point at its first hit, plus later
#: hits so crashes also land mid-sequence (after checkpoints ran).
CRASH_SPECS = list(faultpoints.REGISTERED_POINTS) + [
    "wal.synced:5",
    "commit.published:7",
    "checkpoint.before_reset:3",
    "persist.file_staged:15",
    "publish.swapped:2",
]


class TestCrashMatrix:
    @pytest.mark.parametrize("spec", CRASH_SPECS)
    def test_kill_and_recover(self, tmp_path, spec, expected_digests):
        farm = _seed_farm(tmp_path)
        ack = tmp_path / "ack"
        proc = _run_workload(farm, ack, spec)
        assert proc.returncode == faultpoints.CRASH_EXIT_CODE, (
            f"fault point {spec} never fired: "
            f"rc={proc.returncode} stderr={proc.stderr[-2000:]}"
        )
        acked = _acked(ack)
        last = acked[-1][0] if acked else -1
        # Every acknowledged digest must match the parent's replay.
        for index, digest in acked:
            assert digest == expected_digests[index + 1]
        recovered = _reopen_digest(farm)
        allowed = {
            expected_digests[last + 1],  # exactly the last acked commit
            # ... or one fully-logged commit that crashed pre-ack:
            expected_digests[min(last + 2, len(expected_digests) - 1)],
        }
        assert recovered in allowed, (
            f"fault {spec}: recovered state matches neither the last "
            f"acked commit (#{last}) nor the in-flight one"
        )

    def test_recovered_database_stays_usable(self, tmp_path, expected_digests):
        farm = _seed_farm(tmp_path)
        ack = tmp_path / "ack"
        _run_workload(farm, ack, "publish.retired")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            conn = repro.connect(farm, durable=True, nr_threads=1)
        # The crash hit between the farm swap's two renames: reopening
        # must adopt the stranded .retired copy and say so.
        assert any(
            isinstance(w.message, RecoveryWarning) and "adopted" in str(w.message)
            for w in caught
        )
        conn.execute("INSERT INTO obs VALUES (77, 'post')")
        count = conn.execute("SELECT COUNT(*) FROM obs WHERE a = 77").scalar()
        assert count == 1
        conn.close()
        reopened = repro.connect(farm)
        assert (
            reopened.execute("SELECT COUNT(*) FROM obs WHERE a = 77").scalar() == 1
        )
        reopened.close()


class TestWALRecovery:
    @pytest.fixture(autouse=True)
    def _keep_commits_in_the_log(self, monkeypatch):
        # These cases damage the WAL tail, so the commits must still be
        # there: the CI durability leg's REPRO_WAL_CHECKPOINT_RECORDS=2
        # would fold them into the farm first.
        monkeypatch.setenv("REPRO_WAL_CHECKPOINT_RECORDS", "1000000")

    def _commit_some(self, farm, rows):
        conn = repro.connect(farm, durable=True, nr_threads=1)
        for row in rows:
            conn.execute(f"INSERT INTO obs VALUES ({row}, 'r{row}')")
        conn.close()

    def test_torn_tail_is_truncated_with_warning(self, tmp_path):
        farm = _seed_farm(tmp_path)
        self._commit_some(farm, [101, 102])
        wal_path = wal_mod.wal_path_for(farm)
        healthy = wal_path.stat().st_size
        with open(wal_path, "ab") as handle:
            handle.write(b"\x40\x00\x00\x00torn")  # announces 64B, has 4
        with pytest.warns(RecoveryWarning, match="torn"):
            conn = repro.connect(farm, nr_threads=1)
        assert conn.execute(
            "SELECT COUNT(*) FROM obs WHERE a > 100"
        ).scalar() == 2
        conn.close()
        assert wal_path.stat().st_size == healthy  # tail physically gone

    def test_torn_tail_drops_only_the_last_record(self, tmp_path):
        farm = _seed_farm(tmp_path)
        self._commit_some(farm, [101, 102])
        wal_path = wal_mod.wal_path_for(farm)
        with open(wal_path, "r+b") as handle:
            handle.truncate(wal_path.stat().st_size - 3)
        with pytest.warns(RecoveryWarning, match="torn"):
            conn = repro.connect(farm, nr_threads=1)
        rows = conn.execute("SELECT a FROM obs WHERE a > 100").rows()
        assert rows == [(101,)]
        conn.close()

    def test_wal_checksum_protects_against_bitflips(self, tmp_path):
        farm = _seed_farm(tmp_path)
        self._commit_some(farm, [101])
        wal_path = wal_mod.wal_path_for(farm)
        data = bytearray(wal_path.read_bytes())
        data[-5] ^= 0xFF  # flip a payload byte of the last record
        wal_path.write_bytes(bytes(data))
        with pytest.warns(RecoveryWarning, match="checksum"):
            conn = repro.connect(farm, nr_threads=1)
        assert conn.execute(
            "SELECT COUNT(*) FROM obs WHERE a > 100"
        ).scalar() == 0
        conn.close()

    def test_not_a_wal_file_is_rejected(self, tmp_path):
        farm = _seed_farm(tmp_path)
        wal_mod.wal_path_for(farm).write_bytes(b"definitely not a log")
        with pytest.raises(PersistenceError, match="not a write-ahead log"):
            repro.connect(farm)

    def test_checkpoint_folds_and_truncates(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_WAL_CHECKPOINT_RECORDS", "2")
        farm = _seed_farm(tmp_path)
        conn = repro.connect(farm, durable=True, nr_threads=1)
        wal_path = wal_mod.wal_path_for(farm)
        conn.execute("INSERT INTO obs VALUES (201, 'a')")
        assert wal_mod.load_records(wal_path)  # first commit is logged
        conn.execute("INSERT INTO obs VALUES (202, 'b')")
        # The second commit crossed the threshold: the WAL was folded
        # into the farm and truncated.
        assert wal_mod.load_records(wal_path) == []
        database = conn.database
        assert database.version >= 2
        # A plain Catalog.load (no WAL replay) already sees both rows.
        loaded = Catalog.load(farm)
        assert loaded.get_table("obs").count == 4
        conn.close()

    def test_explicit_checkpoint_api(self, tmp_path):
        farm = _seed_farm(tmp_path)
        conn = repro.connect(farm, durable=True, nr_threads=1)
        conn.execute("INSERT INTO obs VALUES (301, 'x')")
        wal_path = wal_mod.wal_path_for(farm)
        assert len(wal_mod.load_records(wal_path)) == 1
        conn.database.checkpoint()
        assert wal_mod.load_records(wal_path) == []
        assert Catalog.load(farm).get_table("obs").count == 3
        conn.close()

    def test_record_roundtrip_all_change_shapes(self):
        import numpy as np

        column = Column.from_pylist(Atom.STR, ["a", None, "c"])
        changes = [
            {"op": "drop", "name": "gone"},
            {
                "op": "mutate",
                "name": "t",
                "ops": [
                    {
                        "method": "replace_values",
                        "payload": {
                            "column": "s",
                            "oids": np.array([0, 2], dtype=np.int64),
                            "values": column,
                        },
                    },
                    {"method": "clear", "payload": {}},
                ],
            },
            {
                "op": "create",
                "name": "t2",
                "kind": "table",
                "columns": [
                    {"name": "a", "atom": "int", "default": None,
                     "has_default": False},
                ],
                "bats": {"a": BAT.from_pylist(Atom.INT, [1, None, 3])},
            },
        ]
        record = wal_mod.decode_record(
            wal_mod.encode_record(7, 3, changes)[8:]  # strip the frame
        )
        assert record["version"] == 7
        assert record["schema_version"] == 3
        decoded = record["changes"]
        assert decoded[0] == {"op": "drop", "name": "gone"}
        payload = decoded[1]["ops"][0]["payload"]
        assert list(payload["oids"]) == [0, 2]
        assert payload["values"] == column
        assert decoded[2]["bats"]["a"] == changes[2]["bats"]["a"]


class TestStrandedFarm:
    def _strand(self, tmp_path) -> Path:
        farm = _seed_farm(tmp_path)
        farm.rename(farm.with_name(farm.name + ".retired"))
        return farm

    def test_catalog_load_adopts_retired(self, tmp_path):
        farm = self._strand(tmp_path)
        with pytest.warns(RecoveryWarning, match="adopted"):
            catalog = Catalog.load(farm)
        assert catalog.get_table("obs").count == 2
        assert farm.exists()
        assert not farm.with_name(farm.name + ".retired").exists()

    def test_database_open_adopts_retired(self, tmp_path):
        farm = self._strand(tmp_path)
        with pytest.warns(RecoveryWarning, match="adopted"):
            database = Database.open(farm)
        assert database.catalog.get_table("obs").count == 2
        database.close()

    def test_publish_never_deletes_the_only_farm(self, tmp_path):
        farm = self._strand(tmp_path)

        def write(staging: Path) -> None:
            (staging / "marker").write_text("new")

        persist.publish_farm(farm, write)
        assert (farm / "marker").exists()
        assert not farm.with_name(farm.name + ".staging").exists()
        assert not farm.with_name(farm.name + ".retired").exists()

    def test_leftover_staging_is_cleaned(self, tmp_path):
        farm = _seed_farm(tmp_path)
        staging = farm.with_name(farm.name + ".staging")
        staging.mkdir()
        (staging / "junk").write_text("half-written")
        assert persist.recover_farm(farm) is None
        assert not staging.exists()
        assert Catalog.load(farm).get_table("obs").count == 2


class TestInProcessFaults:
    def test_failed_publish_leaves_old_farm_intact(self, tmp_path):
        farm = _seed_farm(tmp_path)
        conn = repro.connect(farm, durable=True, nr_threads=1)
        conn.execute("INSERT INTO obs VALUES (501, 'logged')")
        with activate("publish.staged"):
            with pytest.raises(FaultInjected):
                conn.database.checkpoint()
        conn.close()
        # The fault hit before the swap: the farm still holds the
        # pre-checkpoint state and stays openable ...
        assert Catalog.load(farm).get_table("obs").count == 2
        # ... and the commit the failed checkpoint was folding in is
        # still in the log.
        reopened = repro.connect(farm)
        assert (
            reopened.execute("SELECT COUNT(*) FROM obs WHERE a = 501").scalar()
            == 1
        )
        reopened.close()

    def test_fault_before_wal_append_loses_nothing_acked(self, tmp_path):
        farm = _seed_farm(tmp_path)
        conn = repro.connect(farm, durable=True, nr_threads=1)
        conn.execute("INSERT INTO obs VALUES (601, 'ok')")
        with activate("wal.before_append"):
            with pytest.raises(FaultInjected):
                conn.execute("INSERT INTO obs VALUES (602, 'nope')")
        conn.close()
        reopened = repro.connect(farm)
        rows = reopened.execute("SELECT a FROM obs WHERE a > 600").rows()
        assert rows == [(601,)]
        reopened.close()

    def test_unregistered_point_raises(self):
        with pytest.raises(LookupError):
            faultpoints.crash_point("no.such.point")
        with pytest.raises(LookupError):
            with activate("no.such.point"):
                pass

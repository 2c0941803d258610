"""Transactional sessions: BEGIN/COMMIT/ROLLBACK, snapshots, conflicts.

The engine redesign split the old monolithic Connection into a shared
:class:`repro.Database` engine and lightweight sessions.  These tests
pin the single-session transaction semantics; the multi-threaded side
lives in ``test_concurrency.py``.
"""

import gc
import weakref

import numpy as np
import pytest

import repro
from repro.errors import (
    InterfaceError,
    OperationalError,
    ProgrammingError,
)
from repro.mal.program import MALProgram


@pytest.fixture
def db():
    database = repro.Database()
    session = database.connect()
    session.execute("CREATE TABLE t (a INT, s VARCHAR(8))")
    session.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y')")
    return database


def dump(conn, table="t"):
    return conn.execute(f"SELECT * FROM {table} ORDER BY a").rows()


class TestExplicitTransactions:
    def test_commit_publishes_to_other_sessions(self, db):
        writer, reader = db.connect(), db.connect()
        writer.begin()
        writer.execute("INSERT INTO t VALUES (3, 'z')")
        # Staged but uncommitted: invisible to the other session...
        assert len(dump(reader)) == 2
        # ...but visible to the writer itself (reads its own fork).
        assert len(dump(writer)) == 3
        writer.commit()
        assert len(dump(reader)) == 3

    def test_rollback_restores_query_results_exactly(self, db):
        conn = db.connect()
        before = dump(conn)
        conn.begin()
        conn.execute("UPDATE t SET s = 'mut' WHERE a = 1")
        conn.execute("DELETE FROM t WHERE a = 2")
        conn.execute("INSERT INTO t VALUES (9, 'q')")
        assert dump(conn) != before
        conn.rollback()
        assert dump(conn) == before

    def test_rollback_restores_storage_byte_identically(self, db):
        conn = db.connect()
        table = db.catalog.get_table("t")
        before = {
            name: (bat.tail.values.copy(), bat.tail.effective_mask().copy())
            for name, bat in table.bats.items()
        }
        conn.begin()
        conn.execute("UPDATE t SET a = a + 100")
        conn.execute("INSERT INTO t VALUES (7, NULL)")
        conn.rollback()
        after = db.catalog.get_table("t")
        for name, (values, mask) in before.items():
            np.testing.assert_array_equal(after.bats[name].tail.values, values)
            np.testing.assert_array_equal(
                after.bats[name].tail.effective_mask(), mask
            )
        # The committed objects were never touched at all.
        assert after is table

    def test_rollback_discards_staged_ddl(self, db):
        conn = db.connect()
        conn.begin()
        conn.execute("CREATE TABLE staged (v INT)")
        assert "staged" in conn.catalog
        conn.rollback()
        assert "staged" not in conn.catalog
        with pytest.raises(ProgrammingError):
            conn.execute("SELECT v FROM staged")

    def test_ddl_commits_atomically_with_data(self, db):
        a, b = db.connect(), db.connect()
        a.begin()
        a.execute("CREATE TABLE fresh (v INT)")
        a.execute("INSERT INTO fresh VALUES (1), (2)")
        assert "fresh" not in b.catalog
        a.commit()
        assert b.execute("SELECT COUNT(*) FROM fresh").scalar() == 2

    def test_sql_level_transaction_control(self, db):
        conn = db.connect()
        conn.execute("BEGIN")
        assert conn.in_transaction
        conn.execute("INSERT INTO t VALUES (5, 'sql')")
        conn.execute("ROLLBACK")
        assert not conn.in_transaction
        assert len(dump(conn)) == 2
        conn.execute("START TRANSACTION")
        conn.execute("INSERT INTO t VALUES (5, 'sql')")
        conn.execute("COMMIT WORK;")
        assert len(dump(conn)) == 3

    def test_nested_begin_raises(self, db):
        conn = db.connect()
        conn.begin()
        with pytest.raises(ProgrammingError):
            conn.begin()
        conn.rollback()

    def test_transaction_context_manager(self, db):
        conn = db.connect()
        with conn.transaction():
            conn.execute("INSERT INTO t VALUES (4, 'cm')")
        assert len(dump(conn)) == 3
        with pytest.raises(ProgrammingError):
            with conn.transaction():
                conn.execute("INSERT INTO t VALUES (5, 'boom')")
                conn.execute("SELECT nope FROM t")
        assert len(dump(conn)) == 3  # rolled back

    def test_commit_returns_session_to_autocommit(self, db):
        conn = db.connect()
        conn.begin()
        conn.execute("INSERT INTO t VALUES (4, 'w')")
        conn.commit()
        conn.execute("INSERT INTO t VALUES (5, 'auto')")  # autocommit again
        other = db.connect()
        assert len(dump(other)) == 4


class TestConflicts:
    def test_write_write_conflict_first_committer_wins(self, db):
        a, b = db.connect(), db.connect()
        a.begin()
        b.begin()
        a.execute("UPDATE t SET s = 'a' WHERE a = 1")
        b.execute("UPDATE t SET s = 'b' WHERE a = 2")
        a.commit()  # first committer wins
        with pytest.raises(OperationalError):
            b.commit()
        # The loser was rolled back; the winner's write survives.
        rows = dict(dump(db.connect()))
        assert rows[1] == "a" and rows[2] == "y"

    def test_disjoint_writes_merge(self, db):
        session = db.connect()
        session.execute("CREATE TABLE u (v INT)")
        a, b = db.connect(), db.connect()
        a.begin()
        b.begin()
        a.execute("INSERT INTO t VALUES (3, 'a')")
        b.execute("INSERT INTO u VALUES (42)")
        a.commit()
        b.commit()  # disjoint objects: both commits land
        check = db.connect()
        assert len(dump(check)) == 3
        assert check.execute("SELECT COUNT(*) FROM u").scalar() == 1

    def test_create_create_conflict(self, db):
        a, b = db.connect(), db.connect()
        a.begin()
        b.begin()
        a.execute("CREATE TABLE clash (v INT)")
        b.execute("CREATE TABLE clash (v DOUBLE)")
        a.commit()
        with pytest.raises(OperationalError):
            b.commit()

    def test_drop_vs_write_conflict(self, db):
        a, b = db.connect(), db.connect()
        a.begin()
        b.begin()
        a.execute("DROP TABLE t")
        b.execute("INSERT INTO t VALUES (3, 'z')")
        a.commit()
        with pytest.raises(OperationalError):
            b.commit()
        assert "t" not in db.catalog


class TestSnapshotIsolation:
    def test_reader_transaction_keeps_its_snapshot(self, db):
        reader, writer = db.connect(), db.connect()
        reader.begin()
        assert len(dump(reader)) == 2
        writer.execute("INSERT INTO t VALUES (3, 'new')")
        # Still the old snapshot inside the transaction...
        assert len(dump(reader)) == 2
        reader.commit()
        # ...and the committed state afterwards.
        assert len(dump(reader)) == 3

    def test_autocommit_readers_track_the_head(self, db):
        reader, writer = db.connect(), db.connect()
        assert len(dump(reader)) == 2
        writer.execute("INSERT INTO t VALUES (3, 'new')")
        assert len(dump(reader)) == 3

    def test_plan_cache_shared_across_sessions(self, db):
        a, b = db.connect(), db.connect()
        sql = "SELECT s FROM t WHERE a = ?"
        a.execute(sql, (1,))
        before = b.compile_count
        assert b.execute(sql, (2,)).scalar() == "y"
        assert b.compile_count == before  # b reused a's compiled plan
        assert b.cache_hits >= 1

    def test_committed_ddl_retires_stale_plans_everywhere(self, db):
        a, b = db.connect(), db.connect()
        sql = "SELECT COUNT(*) FROM t"
        assert a.execute(sql).scalar() == 2
        b.execute("DROP TABLE t")
        b.execute("CREATE TABLE t (a INT, s VARCHAR(8))")
        assert a.execute(sql).scalar() == 0  # recompiled against new schema

    def test_prepared_statement_revalidates_after_other_sessions_ddl(self, db):
        a, b = db.connect(), db.connect()
        statement = a.prepare("SELECT COUNT(*) FROM t WHERE a = ?")
        assert statement.execute((1,)).scalar() == 1
        b.execute("DROP TABLE t")
        b.execute("CREATE TABLE t (a INT, s VARCHAR(8))")
        assert statement.execute((1,)).scalar() == 0


class TestDurability:
    def test_commit_republishes_the_farm(self, tmp_path):
        farm = tmp_path / "db"
        seed = repro.connect()
        seed.execute("CREATE TABLE t (a INT)")
        seed.save(farm)
        conn = repro.connect(farm, durable=True)
        conn.execute("INSERT INTO t VALUES (1), (2)")
        conn.close()
        reopened = repro.connect(farm)
        assert reopened.execute("SELECT COUNT(*) FROM t").scalar() == 2

    def test_save_swap_is_atomic_over_existing_farm(self, tmp_path):
        farm = tmp_path / "db"
        conn = repro.connect()
        conn.execute("CREATE TABLE t (a INT)")
        conn.save(farm)
        conn.execute("INSERT INTO t VALUES (7)")
        conn.save(farm)  # replaces the previous farm via staged swap
        assert not (tmp_path / "db.staging").exists()
        assert not (tmp_path / "db.retired").exists()
        reopened = repro.connect(farm)
        assert reopened.execute("SELECT a FROM t").rows() == [(7,)]


class TestClosedInterface:
    """Satellite: every operation on a closed object raises InterfaceError."""

    def test_closed_connection_operations(self):
        conn = repro.connect()
        conn.execute("CREATE TABLE t (a INT)")
        cur = conn.cursor()
        conn.close()
        for operation in (
            lambda: conn.execute("SELECT a FROM t"),
            lambda: conn.executemany("INSERT INTO t VALUES (?)", [(1,)]),
            lambda: conn.execute_script("SELECT a FROM t"),
            lambda: conn.cursor(),
            lambda: conn.prepare("SELECT a FROM t"),
            lambda: conn.compile("SELECT a FROM t"),
            lambda: conn.explain("SELECT a FROM t"),
            lambda: conn.explain_unoptimized("SELECT a FROM t"),
            lambda: conn.register_array("x", np.zeros((2, 2))),
            lambda: conn.save("nowhere"),
            conn.begin,
            conn.commit,
            conn.rollback,
            lambda: conn.execute("BEGIN"),
        ):
            with pytest.raises(InterfaceError):
                operation()
        with pytest.raises(InterfaceError):
            cur.execute("SELECT a FROM t")

    def test_closed_cursor_operations(self, db):
        conn = db.connect()
        cur = conn.cursor()
        cur.execute("SELECT a FROM t")
        cur.close()
        for operation in (
            lambda: cur.execute("SELECT a FROM t"),
            lambda: cur.executemany("INSERT INTO t VALUES (?, ?)", [(1, "x")]),
            cur.fetchone,
            cur.fetchmany,
            cur.fetchall,
            cur.fetchnumpy,
            lambda: cur.description,
            lambda: cur.rowcount,
            lambda: cur.setinputsizes([1]),
            lambda: cur.setoutputsize(1),
        ):
            with pytest.raises(InterfaceError):
                operation()

    def test_closing_database_closes_its_sessions(self, db):
        conn = db.connect()
        db.close()
        with pytest.raises(InterfaceError):
            conn.execute("SELECT * FROM t")
        with pytest.raises(InterfaceError):
            db.connect()

    def test_closing_a_session_leaves_the_database_running(self, db):
        a, b = db.connect(), db.connect()
        a.close()
        assert len(dump(b)) == 2

    def test_double_close_is_idempotent(self, db):
        conn = db.connect()
        conn.close()
        conn.close()
        db.close()
        db.close()

    def test_a_closed_database_frees_without_the_cyclic_collector(self):
        # Interned fragmented pipelines and the interpreter hold the
        # database weakly: dropping it frees its columns at once.
        gc.disable()
        try:
            database = repro.Database(nr_threads=2, fragment_rows=64)
            conn = database.connect()
            conn.execute("CREATE TABLE t (a INT, b INT)")
            conn.executemany("INSERT INTO t VALUES (?, ?)", [(i, i % 7) for i in range(500)])
            assert len(conn.execute("SELECT b, SUM(a) FROM t GROUP BY b").rows()) == 7
            conn.register_array("img", np.zeros((32, 32), dtype=np.int32))
            conn.execute("SELECT [x], [y], AVG(v) FROM img GROUP BY img[x-1:x+2][y-1:y+2]")
            conn.close()
            database.close()
            freed = weakref.ref(database)
            del database, conn
            assert freed() is None
        finally:
            gc.enable()

    def test_an_interpreter_that_outlives_its_database_reports_it_closed(self):
        database = repro.Database()
        interpreter = database.interpreter
        database.close()
        del database
        gc.collect()
        with pytest.raises(InterfaceError, match="closed"):
            interpreter.run(MALProgram())


class TestModuleSurface:
    def test_threadsafety_reports_connection_sharing(self):
        assert repro.threadsafety == 2

    def test_database_exported(self):
        assert repro.Database is not None
        with repro.Database() as database:
            session = database.connect()
            session.execute("CREATE TABLE t (a INT)")
            assert database.version >= 1

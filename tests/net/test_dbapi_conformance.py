"""One DB-API contract, two transports.

Every case runs against an in-process session and against a
``repro://`` session on the loopback server, both over the same shared
engine.  The remote session asks for two-row batches, so every fetch
path crosses batch boundaries there.  What is allowed to differ between
the transports is pinned in :class:`TestTransportDifferences` — nothing
else may.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.errors import Error, InterfaceError, ProgrammingError

PEOPLE = [(1, "ada", 9.5), (2, "grace", 8.0), (3, "edsger", None)]


@pytest.fixture(params=["in-process", "repro://"])
def connect(request, db):
    """A factory of fresh sessions of one transport on the shared engine."""
    if request.param == "in-process":
        factory = db.connect
    else:
        url = request.getfixturevalue("server").url + "?batch_rows=2"
        factory = lambda: repro.connect(url)  # noqa: E731
    opened = []

    def _connect():
        opened.append(factory())
        return opened[-1]

    _connect.remote = request.param == "repro://"
    yield _connect
    for conn in opened:
        conn.close()


@pytest.fixture
def session(connect):
    """A session holding ``people`` (3 rows) and ``t`` (4 rows)."""
    conn = connect()
    cur = conn.cursor()
    cur.execute("CREATE TABLE people (id INT, name VARCHAR(30), score DOUBLE)")
    cur.executemany("INSERT INTO people VALUES (?, ?, ?)", PEOPLE)
    cur.execute("CREATE TABLE t (a INT, b STRING, d DOUBLE)")
    cur.execute(
        "INSERT INTO t VALUES (1, 'x', 0.5), (2, 'y', NULL), "
        "(3, NULL, 2.25), (4, 'w', -1.0)"
    )
    return conn


class TestConformance:
    # -- connection ----------------------------------------------------
    def test_exceptions_on_connection(self, session):
        assert session.ProgrammingError is ProgrammingError
        assert session.Error is Error
        with pytest.raises(session.ProgrammingError):
            session.execute("SELECT nope FROM people")

    def test_cursor_factory(self, session):
        assert session.cursor() is not session.cursor()

    def test_commit_outside_transaction_is_noop(self, session):
        session.commit()

    def test_rollback_outside_transaction_is_noop(self, session):
        session.rollback()

    def test_rollback_discards_staged_writes(self, session):
        session.begin()
        session.execute("DELETE FROM people WHERE id = 1")
        assert session.execute("SELECT COUNT(*) FROM people").scalar() == 2
        session.rollback()
        assert session.execute("SELECT COUNT(*) FROM people").scalar() == 3

    def test_close_then_use_raises(self, connect):
        conn = connect()
        cur = conn.cursor()
        conn.close()
        assert conn.closed and cur.closed
        with pytest.raises(InterfaceError):
            conn.execute("SELECT 1")
        with pytest.raises(InterfaceError):
            conn.cursor()
        with pytest.raises(InterfaceError):
            cur.execute("SELECT 1")
        conn.close()  # idempotent

    def test_context_manager_closes(self, connect):
        with connect() as conn:
            conn.execute("CREATE TABLE cm (a INT)")
        with pytest.raises(InterfaceError):
            conn.execute("SELECT a FROM cm")

    # -- description / rowcount ----------------------------------------
    def test_query_description(self, session):
        cur = session.cursor()
        cur.execute("SELECT id, name, score FROM people")
        assert [d[0] for d in cur.description] == ["id", "name", "score"]
        assert [d[1] for d in cur.description] == ["int", "str", "dbl"]
        assert all(len(d) == 7 for d in cur.description)

    def test_ddl_dml_description_is_none(self, session):
        cur = session.cursor()
        cur.execute("CREATE TABLE other (a INT)")
        assert cur.description is None
        cur.execute("INSERT INTO other VALUES (1)")
        assert cur.description is None
        assert cur.rowcount == 1

    def test_no_statement_yet(self, session):
        cur = session.cursor()
        assert cur.description is None
        assert cur.rowcount == -1
        assert cur.result is None

    def test_select_rowcount(self, session):
        cur = session.cursor()
        cur.execute("SELECT * FROM people")
        assert cur.rowcount == 3

    def test_dml_rowcount(self, session):
        cur = session.cursor()
        cur.execute("UPDATE people SET score = 1.0 WHERE id <= ?", (2,))
        assert cur.rowcount == 2
        cur.execute("DELETE FROM people WHERE id = ?", (3,))
        assert cur.rowcount == 1
        cur.execute("UPDATE t SET d = 0.0 WHERE a >= 3")
        assert cur.rowcount == 2
        assert cur.description is None

    def test_executemany_rowcount(self, session):
        cur = session.cursor()
        cur.executemany("UPDATE t SET d = ? WHERE a = ?", [(1.0, 1), (2.0, 9)])
        assert cur.rowcount == 1
        assert cur.description is None

    # -- fetching ------------------------------------------------------
    def test_fetchone_exhausts_to_none(self, session):
        cur = session.cursor()
        cur.execute("SELECT id FROM people ORDER BY id")
        assert cur.fetchone() == (1,)
        assert cur.fetchone() == (2,)
        assert cur.fetchone() == (3,)
        assert cur.fetchone() is None

    def test_fetchmany_default_arraysize(self, session):
        cur = session.cursor()
        cur.execute("SELECT id FROM people ORDER BY id")
        assert cur.fetchmany() == [(1,)]  # arraysize defaults to 1
        cur.arraysize = 2
        assert cur.fetchmany() == [(2,), (3,)]
        assert cur.fetchmany() == []

    def test_fetchone_iteration_arraysize(self, session):
        cur = session.cursor()
        cur.execute("SELECT a FROM t ORDER BY a")
        assert cur.fetchone() == (1,)
        cur.arraysize = 2
        assert cur.fetchmany() == [(2,), (3,)]
        assert cur.fetchmany(10) == [(4,)]
        assert cur.fetchone() is None
        cur.execute("SELECT a FROM t ORDER BY a")
        assert [row for row in cur] == [(1,), (2,), (3,), (4,)]

    def test_fetchall_after_partial(self, session):
        cur = session.cursor()
        cur.execute("SELECT id FROM people ORDER BY id")
        cur.fetchone()
        assert cur.fetchall() == [(2,), (3,)]
        assert cur.fetchall() == []

    def test_iteration(self, session):
        cur = session.cursor()
        cur.execute("SELECT id FROM people ORDER BY id")
        assert [row for row in cur] == [(1,), (2,), (3,)]

    def test_null_becomes_none(self, session):
        cur = session.cursor()
        cur.execute("SELECT score FROM people WHERE id = 3")
        assert cur.fetchone() == (None,)

    def test_fetch_without_result_set_raises(self, session):
        cur = session.cursor()
        for fetch in (cur.fetchone, cur.fetchmany, cur.fetchall, cur.fetchnumpy):
            with pytest.raises(ProgrammingError):
                fetch()
        cur.execute("INSERT INTO people VALUES (4, 'alan', 7.0)")
        with pytest.raises(ProgrammingError):
            cur.fetchall()
        cur.execute("CREATE TABLE u (v INT)")
        assert cur.description is None
        with pytest.raises(ProgrammingError):
            cur.fetchall()

    def test_execute_resets_position(self, session):
        cur = session.cursor()
        cur.execute("SELECT id FROM people ORDER BY id")
        cur.fetchone()
        cur.execute("SELECT id FROM people ORDER BY id")
        assert cur.fetchone() == (1,)

    def test_cursor_close_and_context_manager(self, session):
        cur = session.cursor()
        cur.execute("SELECT id FROM people")
        cur.close()
        with pytest.raises(InterfaceError):
            cur.fetchone()
        with pytest.raises(InterfaceError):
            cur.execute("SELECT 1")
        with session.cursor() as cur2:
            cur2.execute("SELECT id FROM people")
        with pytest.raises(InterfaceError):
            cur2.fetchone()
        # Closing a cursor mid-stream leaves the session usable.
        assert session.execute("SELECT COUNT(*) FROM people").scalar() == 3

    def test_setinputsizes_are_noops(self, session):
        cur = session.cursor()
        cur.setinputsizes([10])
        cur.setoutputsize(10)
        cur.setoutputsize(10, 0)

    def test_interleaved_cursors(self, db, session):
        loader = db.connect()
        loader.register_array("seq", np.arange(1000, dtype=np.int64))
        loader.close()
        a, b = session.cursor(), session.cursor()
        a.execute("SELECT v FROM seq ORDER BY x")
        assert a.fetchone() == (0,)
        # A second statement on the same session must not disturb the
        # first result (over the wire: it drains the first stream
        # client-side); both stay fully readable.
        b.execute("SELECT COUNT(*) FROM seq")
        assert b.fetchone() == (1000,)
        assert a.fetchone() == (1,)
        assert len(a.fetchall()) == 998
        assert b.fetchone() is None

    # -- fetchnumpy / result -------------------------------------------
    def test_columnar_export(self, session):
        cur = session.cursor()
        cur.execute("SELECT id, score FROM people ORDER BY id")
        arrays = cur.fetchnumpy()
        assert arrays["id"].tolist() == [1, 2, 3]
        assert arrays["id"].dtype == np.int32
        # score has a NULL -> float64 with NaN hole
        assert np.isnan(arrays["score"][2])
        # fetchnumpy consumed everything
        assert cur.fetchall() == []
        assert cur.fetchnumpy()["id"].tolist() == []

    def test_fetchnumpy_respects_fetch_position(self, session):
        cur = session.cursor()
        cur.execute("SELECT id FROM people ORDER BY id")
        cur.fetchone()
        assert cur.fetchnumpy()["id"].tolist() == [2, 3]

    def test_partial_fetchmany_then_fetchnumpy(self, session):
        cur = session.cursor()
        cur.execute("SELECT a, b FROM t ORDER BY a")
        assert cur.fetchmany(3) == [(1, "x"), (2, "y"), (3, None)]
        arrays = cur.fetchnumpy()
        assert arrays["a"].tolist() == [4] and arrays["a"].dtype == np.int32
        assert arrays["b"].tolist() == ["w"]
        assert cur.fetchone() is None

    def test_string_nulls_become_none(self, session):
        cur = session.cursor()
        cur.execute("INSERT INTO people VALUES (9, ?, 1.0)", (None,))
        cur.execute("SELECT name FROM people WHERE id = 9")
        assert cur.fetchnumpy()["name"].tolist() == [None]

    def test_result_to_numpy_without_nulls_keeps_dtype(self, session):
        result = session.execute("SELECT id FROM people ORDER BY id")
        assert result.to_numpy()["id"].dtype == np.int32

    def test_empty_result_keeps_types(self, session):
        cur = session.cursor()
        cur.execute("SELECT a, b, d FROM t WHERE a < 0")
        assert [d[1] for d in cur.description] == ["int", "str", "dbl"]
        assert cur.rowcount == 0
        assert cur.fetchall() == []
        arrays = cur.fetchnumpy()
        assert [arrays[name].dtype for name in "abd"] == [
            np.int32, object, np.float64,
        ]
        assert all(len(array) == 0 for array in arrays.values())

    def test_result_is_the_unfetched_remainder(self, session):
        cur = session.cursor()
        cur.execute("SELECT id FROM people ORDER BY id")
        assert cur.result.rows() == [(1,), (2,), (3,)]
        assert cur.fetchone() == (1,)  # reading .result consumed nothing
        assert cur.result.rows() == [(2,), (3,)]
        assert cur.result is cur.result
        assert cur.fetchall() == [(2,), (3,)]
        assert cur.result.rows() == []
        cur.execute("DELETE FROM people WHERE id = 3")
        assert cur.result.affected == 1 and not cur.result.is_query

    # -- parameters ----------------------------------------------------
    def test_executemany_ingest(self, session):
        session.execute("CREATE TABLE ing (a INT, b STRING)")
        result = session.executemany(
            "INSERT INTO ing VALUES (?, ?)",
            [(i, f"s{i}") for i in range(500)] + [(None, None)],
        )
        assert result.affected == 501
        assert session.execute("SELECT COUNT(*) FROM ing").scalar() == 501
        assert session.execute("SELECT b FROM ing WHERE a = 17").scalar() == "s17"

    def test_numpy_scalars_unwrap(self, session):
        sql = "SELECT COUNT(*) FROM t WHERE a = ? AND d = ? AND b = ?"
        params = (np.int64(1), np.float64(0.5), np.str_("x"))
        assert session.execute(sql, params).scalar() == 1

    @pytest.mark.parametrize(
        "value", [[1, 2], (1,), {"k": 1}, object(), b"raw", 1 + 2j]
    )
    def test_non_scalar_parameter_is_programming_error(self, session, value):
        with pytest.raises(ProgrammingError, match="cannot bind a parameter"):
            session.execute("SELECT ?", (value,))
        with pytest.raises(ProgrammingError, match="cannot bind a parameter"):
            session.cursor().execute("SELECT a FROM t WHERE a = :k", {"k": value})
        with pytest.raises(ProgrammingError, match="cannot bind a parameter"):
            session.executemany("INSERT INTO t VALUES (?, 'z', 0.0)", [(value,)])
        with session.prepare("SELECT a FROM t WHERE a = ?") as statement:
            with pytest.raises(ProgrammingError, match="cannot bind a parameter"):
                statement.execute((value,))
        # A rejected binding leaves the session usable.
        assert session.execute("SELECT COUNT(*) FROM t").scalar() == 4

    # -- prepared statements -------------------------------------------
    def test_prepare_execute(self, session):
        ps = session.prepare("SELECT b FROM t WHERE a = :k")
        try:
            assert ps.sql == "SELECT b FROM t WHERE a = :k"
            assert ps.parameters == ("k",)
            assert ps.execute({"k": 1}).rows() == [("x",)]
            assert ps.execute({"k": 3}).rows() == [(None,)]
        finally:
            ps.close()

    def test_prepared_executemany(self, session):
        session.execute("CREATE TABLE p (v INT)")
        ps = session.prepare("INSERT INTO p VALUES (?)")
        try:
            result = ps.executemany([(i,) for i in range(100)])
            assert result.affected == 100
        finally:
            ps.close()
        assert session.execute("SELECT SUM(v) FROM p").scalar() == 4950

    def test_closed_statement_raises(self, session):
        ps = session.prepare("SELECT 1")
        ps.close()
        ps.close()  # idempotent
        with pytest.raises(InterfaceError):
            ps.execute()
        with pytest.raises(InterfaceError):
            ps.executemany([()])

    def test_statement_context_manager(self, session):
        with session.prepare("SELECT a FROM t WHERE a > ?") as ps:
            assert ps.execute((2,)).rows() == [(3,), (4,)]
        with pytest.raises(InterfaceError, match="prepared statement is closed"):
            ps.execute((2,))

    def test_prepared_statement_survives_schema_change(self, session):
        ps = session.prepare("SELECT COUNT(*) FROM t")
        session.execute("DROP TABLE t")
        session.execute("CREATE TABLE t (a INT)")
        assert ps.execute().scalar() == 0  # re-prepared, fresh plan

    def test_prepare_shares_plan_cache(self, db, session):
        before = db.stats()["compile_count"]
        for _ in range(3):
            session.execute("SELECT 41 + 1").scalar()
        after = db.stats()
        assert after["cache_hits"] >= 2
        assert after["compile_count"] <= before + 1


class TestTransportDifferences:
    """The differences that remain on purpose — and nothing else."""

    def test_cursor_execute_return_value(self, connect, session):
        cur = session.cursor()
        returned = cur.execute("SELECT id FROM people")
        if connect.remote:
            # Returning a Result would force the stream into memory.
            assert returned is cur
            assert cur.executemany("DELETE FROM t WHERE a = ?", [(1,)]) is cur
        else:
            assert returned is cur.result
            assert returned.row_count == 3

    def test_unknown_statement_id(self, remote):
        # Statement ids exist on the wire only.
        ps = remote.prepare("SELECT 1")
        ps.close()
        ps._closed = False  # simulate a stale handle after server release
        with pytest.raises(ProgrammingError, match="unknown prepared statement"):
            ps.execute()

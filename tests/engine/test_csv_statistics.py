"""CSV exchange and statistical aggregate tests."""

import numpy as np
import pytest

import repro
from repro.errors import SciQLError
from repro.io import export_csv, import_array_csv, import_csv


class TestCsvExport:
    def test_export_table(self, obs_conn, tmp_path):
        path = tmp_path / "obs.csv"
        written = export_csv(obs_conn, "obs", path)
        assert written == 5
        lines = path.read_text().splitlines()
        assert lines[0] == "station,day,temp"
        assert lines[1] == "ams,1,10.5"

    def test_export_query(self, obs_conn, tmp_path):
        path = tmp_path / "q.csv"
        export_csv(
            obs_conn,
            "SELECT station, COUNT(*) AS n FROM obs GROUP BY station "
            "ORDER BY station",
            path,
        )
        assert path.read_text().splitlines()[1] == "ams,2"

    def test_null_exports_empty(self, obs_conn, tmp_path):
        import csv

        path = tmp_path / "n.csv"
        export_csv(obs_conn, "SELECT temp FROM obs WHERE temp IS NULL", path)
        with path.open(newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows == [["temp"], [""]]

    def test_export_without_header(self, obs_conn, tmp_path):
        path = tmp_path / "h.csv"
        export_csv(obs_conn, "SELECT 1", path, header=False)
        assert path.read_text().splitlines() == ["1"]

    def test_export_ddl_rejected(self, obs_conn, tmp_path):
        with pytest.raises(Exception):
            export_csv(obs_conn, "DROP TABLE obs", tmp_path / "x.csv")


class TestCsvImport:
    def test_import_into_existing(self, conn, tmp_path):
        conn.execute("CREATE TABLE t (a INT, b VARCHAR(10))")
        path = tmp_path / "in.csv"
        path.write_text("a,b\n1,x\n2,\n")
        assert import_csv(conn, "t", path) == 2
        assert conn.execute("SELECT a, b FROM t").rows() == [(1, "x"), (2, None)]

    def test_import_with_create_and_inference(self, conn, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text(
            "id,score,name,flag\n1,1.5,alice,true\n2,2.0,bob,false\n"
        )
        assert import_csv(conn, "people", path, create=True) == 3 - 1
        table = conn.catalog.get_table("people")
        from repro.gdk.atoms import Atom

        assert [c.atom for c in table.columns] == [
            Atom.INT, Atom.DBL, Atom.STR, Atom.BIT,
        ]
        assert conn.execute("SELECT name FROM people WHERE flag").rows() == [
            ("alice",)
        ]

    def test_boolean_fields_parse_like_cast(self, conn, tmp_path):
        conn.execute("CREATE TABLE f (k INT, flag BOOLEAN)")
        path = tmp_path / "flags.csv"
        path.write_text("k,flag\n1,T\n2, false \n3,1\n4,\n")
        assert import_csv(conn, "f", path) == 4
        assert conn.execute("SELECT flag FROM f ORDER BY k").column("flag") == [
            True, False, True, None,
        ]
        path.write_text("k,flag\n5,yes\n")
        with pytest.raises(repro.DataError, match="'yes' to bit"):
            import_csv(conn, "f", path)
        assert conn.execute("SELECT COUNT(*) FROM f").scalar() == 4

    def test_numbers_follow_the_one_rule(self, conn, tmp_path):
        conn.execute("CREATE TABLE g (i INT)")
        path = tmp_path / "ints.csv"
        path.write_text("i\n7\n8589934592\n")
        assert import_csv(conn, "g", path) == 2
        assert conn.execute("SELECT i FROM g").column("i") == [7, None]
        path.write_text("i\nseven\n")
        with pytest.raises(repro.DataError):
            import_csv(conn, "g", path)

    def test_import_bigint_inference(self, conn, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text(f"v\n{2**40}\n")
        import_csv(conn, "big", path, create=True)
        assert conn.execute("SELECT v FROM big").scalar() == 2**40

    def test_inference_types_by_the_one_rule(self, conn, tmp_path):
        """Each column gets the first of INT, BIGINT, DOUBLE, BOOLEAN
        that holds every field: ``-2**31`` fits INT, an int past BIGINT
        loads as the DOUBLE it rounds to instead of NULL."""
        path = tmp_path / "kinds.csv"
        path.write_text(f"i,b,d,t\n{-(2**31)},{2**31},{2**64},1\n0,0,1,t\n")
        import_csv(conn, "kinds", path, create=True)
        atoms = [c.atom.value for c in conn.catalog.get_table("kinds").columns]
        assert atoms == ["int", "lng", "dbl", "bit"]
        assert conn.execute("SELECT i, b, d, t FROM kinds").rows()[0] == (
            -(2**31), 2**31, 2.0**64, True,
        )

    def test_roundtrip(self, obs_conn, tmp_path):
        path = tmp_path / "rt.csv"
        export_csv(obs_conn, "obs", path)
        import_csv(obs_conn, "obs2", path, create=True)
        original = obs_conn.execute("SELECT * FROM obs").rows()
        loaded = obs_conn.execute("SELECT * FROM obs2").rows()
        assert loaded == original

    def test_create_refuses_existing(self, obs_conn, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("a\n1\n")
        with pytest.raises(SciQLError):
            import_csv(obs_conn, "obs", path, create=True)

    def test_empty_file(self, conn, tmp_path):
        conn.execute("CREATE TABLE t (a INT)")
        path = tmp_path / "e.csv"
        path.write_text("")
        assert import_csv(conn, "t", path) == 0

    @pytest.mark.parametrize("bad", ["2", "2,y,extra"], ids=["short", "long"])
    def test_row_width_must_match_the_header(self, conn, tmp_path, bad):
        conn.execute("CREATE TABLE t (a INT, b VARCHAR(10))")
        path = tmp_path / "in.csv"
        path.write_text(f"a,b\n1,x\n{bad}\n")
        with pytest.raises(repro.DataError, match="line 3"):
            import_csv(conn, "t", path)
        assert conn.execute("SELECT COUNT(*) FROM t").scalar() == 0
        with pytest.raises(repro.DataError, match="line 3"):
            import_csv(conn, "fresh", path, create=True)
        assert "fresh" not in conn.catalog


class TestArrayCsv:
    def test_import_cells(self, conn, tmp_path):
        conn.execute("CREATE ARRAY m (x INT DIMENSION[0:1:3], v INT DEFAULT 0)")
        path = tmp_path / "cells.csv"
        path.write_text("x,v\n0,10\n2,30\n")
        assert import_array_csv(conn, "m", path) == 2
        assert conn.execute("SELECT v FROM m").rows() == [(10,), (0,), (30,)]

    def test_out_of_range_cells_skipped(self, conn, tmp_path):
        conn.execute("CREATE ARRAY m (x INT DIMENSION[0:1:2], v INT DEFAULT 0)")
        path = tmp_path / "cells.csv"
        path.write_text("x,v\n0,1\n99,2\n")
        assert import_array_csv(conn, "m", path) == 1

    def test_column_count_checked(self, conn, tmp_path):
        conn.execute("CREATE ARRAY m (x INT DIMENSION[0:1:2], v INT)")
        path = tmp_path / "bad.csv"
        path.write_text("x\n0\n")
        with pytest.raises(SciQLError):
            import_array_csv(conn, "m", path)

    @pytest.mark.parametrize("header", [True, False])
    def test_row_width_must_match(self, conn, tmp_path, header):
        conn.execute("CREATE ARRAY m (x INT DIMENSION[0:1:3], v INT DEFAULT 0)")
        path = tmp_path / "cells.csv"
        path.write_text(("x,v\n" if header else "") + "0,10\n1\n")
        with pytest.raises(repro.DataError, match=f"line {3 if header else 2}"):
            import_array_csv(conn, "m", path, header=header)
        assert conn.execute("SELECT v FROM m").column("v") == [0, 0, 0]

    def test_array_roundtrip_via_table_view(self, conn, tmp_path):
        conn.execute("CREATE ARRAY m (x INT DIMENSION[0:1:4], v INT DEFAULT 0)")
        conn.execute("UPDATE m SET v = x * x")
        path = tmp_path / "m.csv"
        export_csv(conn, "SELECT x, v FROM m", path)
        conn.execute("CREATE ARRAY m2 (x INT DIMENSION[0:1:4], v INT DEFAULT 0)")
        import_array_csv(conn, "m2", path)
        assert (
            conn.execute("SELECT v FROM m2").rows()
            == conn.execute("SELECT v FROM m").rows()
        )


class TestStatisticalAggregates:
    @pytest.fixture
    def stats(self, conn):
        conn.execute("CREATE TABLE t (k INT, v DOUBLE)")
        conn.execute(
            "INSERT INTO t VALUES (1, 1.0), (1, 3.0), (1, 5.0), "
            "(2, 7.0), (2, NULL), (3, 4.0)"
        )
        return conn

    def test_scalar_stddev(self, stats):
        values = [1.0, 3.0, 5.0, 7.0, 4.0]
        expected = float(np.std(values, ddof=1))
        assert stats.execute("SELECT STDDEV(v) FROM t").scalar() == pytest.approx(
            expected
        )

    def test_scalar_median(self, stats):
        assert stats.execute("SELECT MEDIAN(v) FROM t").scalar() == 4.0

    def test_grouped(self, stats):
        result = stats.execute(
            "SELECT k, STDDEV(v), MEDIAN(v) FROM t GROUP BY k ORDER BY k"
        )
        rows = result.rows()
        assert rows[0] == (1, 2.0, 3.0)
        assert rows[1] == (2, None, 7.0)  # single value: stddev undefined
        assert rows[2] == (3, None, 4.0)

    def test_stddev_single_value_is_null(self, conn):
        conn.execute("CREATE TABLE t (v INT)")
        conn.execute("INSERT INTO t VALUES (5)")
        assert conn.execute("SELECT STDDEV(v) FROM t").scalar() is None

    def test_median_even_count_interpolates(self, conn):
        conn.execute("CREATE TABLE t (v INT)")
        conn.execute("INSERT INTO t VALUES (1), (2), (3), (4)")
        assert conn.execute("SELECT MEDIAN(v) FROM t").scalar() == 2.5

    def test_stddev_in_having(self, stats):
        result = stats.execute(
            "SELECT k FROM t GROUP BY k HAVING STDDEV(v) > 1.0"
        )
        assert result.rows() == [(1,)]

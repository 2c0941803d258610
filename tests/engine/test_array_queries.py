"""Engine tests: SciQL array features (tiling, cell refs, coercions)."""

import numpy as np
import pytest

import repro
from repro.errors import SemanticError


class TestStructuralGrouping:
    def test_tile_sum_2x2(self, conn):
        conn.execute("CREATE ARRAY a (x INT DIMENSION[0:1:2], y INT DIMENSION[0:1:2], v INT DEFAULT 0)")
        conn.execute("UPDATE a SET v = x * 2 + y + 1")  # 1,2,3,4
        result = conn.execute(
            "SELECT [x], [y], SUM(v) FROM a GROUP BY a[x:x+2][y:y+2]"
        )
        assert result.grid().reshape(-1).tolist() == [10, 6, 7, 4]

    def test_centered_tile(self, conn):
        conn.execute("CREATE ARRAY a (x INT DIMENSION[0:1:3], v INT DEFAULT 1)")
        result = conn.execute("SELECT [x], SUM(v) FROM a GROUP BY a[x-1:x+2]")
        assert result.grid().tolist() == [2, 3, 2]

    def test_anchor_value_accessible(self, conn):
        """Non-aggregated refs mean the anchor cell's own value."""
        conn.execute("CREATE ARRAY a (x INT DIMENSION[0:1:3], v INT DEFAULT 1)")
        result = conn.execute(
            "SELECT [x], SUM(v) - v FROM a GROUP BY a[x-1:x+2]"
        )
        assert result.grid().tolist() == [1, 2, 1]  # neighbour counts

    def test_having_masks_array_result(self, conn):
        """Array-shaped result keeps all anchors, masking values (Fig 1e)."""
        conn.execute("CREATE ARRAY a (x INT DIMENSION[0:1:4], v INT DEFAULT 1)")
        result = conn.execute(
            "SELECT [x], SUM(v) FROM a GROUP BY a[x:x+2] HAVING x MOD 2 = 0"
        )
        grid = result.grid()
        assert grid[0] == 2 and grid[2] == 2
        assert np.isnan(grid[1]) and np.isnan(grid[3])

    def test_having_filters_table_result(self, conn):
        """Table-shaped result drops non-qualifying anchors."""
        conn.execute("CREATE ARRAY a (x INT DIMENSION[0:1:4], v INT DEFAULT 1)")
        result = conn.execute(
            "SELECT x, SUM(v) FROM a GROUP BY a[x:x+2] HAVING x MOD 2 = 0"
        )
        assert result.rows() == [(0, 2), (2, 2)]

    def test_having_filters_computed_dimensions(self, conn):
        """An array result whose dimension items are computed is not the
        source array: HAVING drops anchors there, as for a table, so no
        NULL row of a dropped anchor shares a cell with a kept one."""
        conn.execute("CREATE ARRAY a (x INT DIMENSION[0:1:4], v INT DEFAULT 1)")
        tile = "FROM a GROUP BY a[x:x+2] HAVING x MOD 2 = 0"
        assert conn.execute(f"SELECT [x / 2], SUM(v) {tile}").rows() == [(0, 2), (1, 2)]
        assert conn.execute(f"SELECT [x / 2], SUM(v) {tile} AND SUM(v) > 0").rows() == [
            (0, 2), (1, 2)
        ]

    def test_insert_of_computed_dimensions_writes_kept_anchors(self, conn):
        conn.execute("CREATE ARRAY a (x INT DIMENSION[0:1:4], v INT DEFAULT 1)")
        conn.execute("CREATE ARRAY b (x INT DIMENSION[0:1:2], v INT)")
        conn.execute(
            "INSERT INTO b SELECT [x / 2], SUM(v) FROM a GROUP BY a[x:x+2] HAVING x MOD 2 = 0"
        )
        assert conn.execute("SELECT x, v FROM b").rows() == [(0, 2), (1, 2)]

    def test_grid_of_computed_dimensions_has_kept_cells_only(self, conn):
        """``[x / 2]`` over 1..4 keeps x = 2, 4: cells 1 and 2, no cell 0."""
        conn.execute("CREATE ARRAY a (x INT DIMENSION[1:1:5], v INT DEFAULT 1)")
        result = conn.execute(
            "SELECT [x / 2], SUM(v) FROM a GROUP BY a[x:x+2] HAVING x MOD 2 = 0"
        )
        assert result.grid().tolist() == [2.0, 1.0]
        (dimension,), _ = result.to_array()
        assert (dimension.start, dimension.step, dimension.stop) == (1, 1, 3)

    def test_aggregate_over_expression(self, conn):
        conn.execute("CREATE ARRAY a (x INT DIMENSION[0:1:3], v INT DEFAULT 2)")
        result = conn.execute(
            "SELECT [x], SUM(v * v) FROM a GROUP BY a[x:x+2]"
        )
        assert result.grid().tolist() == [8, 8, 4]

    def test_multiple_aggregates(self, conn):
        conn.execute("CREATE ARRAY a (x INT DIMENSION[0:1:3], v INT DEFAULT 0)")
        conn.execute("UPDATE a SET v = x")
        result = conn.execute(
            "SELECT x, MIN(v), MAX(v), COUNT(v), AVG(v) FROM a GROUP BY a[x:x+2]"
        )
        assert result.rows()[0] == (0, 0, 1, 2, 0.5)
        assert result.rows()[2] == (2, 2, 2, 1, 2.0)

    def test_count_star_structural(self, conn):
        conn.execute("CREATE ARRAY a (x INT DIMENSION[0:1:3], v INT)")
        result = conn.execute("SELECT x, COUNT(*) FROM a GROUP BY a[x-1:x+2]")
        # all cells are holes but COUNT(*) counts in-bounds tile cells
        assert result.rows() == [(0, 2), (1, 3), (2, 2)]

    def test_holes_ignored(self, conn):
        conn.execute("CREATE ARRAY a (x INT DIMENSION[0:1:3], v INT DEFAULT 5)")
        conn.execute("DELETE FROM a WHERE x = 1")
        result = conn.execute("SELECT x, SUM(v), COUNT(v) FROM a GROUP BY a[x-1:x+2]")
        assert result.rows() == [(0, 5, 1), (1, 10, 2), (2, 5, 1)]

    def test_strided_dimension_tiling(self, conn):
        conn.execute("CREATE ARRAY a (x INT DIMENSION[0:2:8], v INT DEFAULT 1)")
        result = conn.execute("SELECT x, SUM(v) FROM a GROUP BY a[x:x+4]")
        # tile covers dimension-unit offsets 0..3 -> ranks 0..1
        assert result.rows() == [(0, 2), (2, 2), (4, 2), (6, 1)]

    def test_where_with_tiling_rejected(self, conn):
        conn.execute("CREATE ARRAY a (x INT DIMENSION[0:1:3], v INT DEFAULT 1)")
        with pytest.raises(SemanticError):
            conn.execute(
                "SELECT x, SUM(v) FROM a WHERE x > 0 GROUP BY a[x:x+2]"
            )

    def test_tiling_requires_array_from(self, obs_conn):
        with pytest.raises(SemanticError):
            obs_conn.execute("SELECT SUM(temp) FROM obs GROUP BY obs[day:day+1]")

    def test_tile_brackets_follow_declaration_order(self, conn):
        conn.execute("CREATE ARRAY a (x INT DIMENSION[0:1:2], y INT DIMENSION[0:1:2], v INT DEFAULT 0)")
        with pytest.raises(SemanticError):
            conn.execute("SELECT SUM(v) FROM a GROUP BY a[y:y+1][x:x+1]")

    def test_tile_wrong_arity(self, conn):
        conn.execute("CREATE ARRAY a (x INT DIMENSION[0:1:2], y INT DIMENSION[0:1:2], v INT DEFAULT 0)")
        with pytest.raises(SemanticError):
            conn.execute("SELECT SUM(v) FROM a GROUP BY a[x:x+1]")

    def test_single_cell_tile(self, conn):
        conn.execute("CREATE ARRAY a (x INT DIMENSION[0:1:3], v INT DEFAULT 4)")
        result = conn.execute("SELECT x, SUM(v) FROM a GROUP BY a[x]")
        assert result.rows() == [(0, 4), (1, 4), (2, 4)]


class TestCellReferences:
    def test_relative_access_with_null_border(self, conn):
        conn.execute("CREATE ARRAY a (x INT DIMENSION[0:1:3], v INT DEFAULT 0)")
        conn.execute("UPDATE a SET v = x + 1")
        result = conn.execute("SELECT x, a[x-1] FROM a")
        assert result.rows() == [(0, None), (1, 1), (2, 2)]

    def test_absolute_access(self, conn):
        conn.execute("CREATE ARRAY a (x INT DIMENSION[0:1:3], v INT DEFAULT 0)")
        conn.execute("UPDATE a SET v = x * 10")
        result = conn.execute("SELECT x, a[2] FROM a")
        assert result.rows() == [(0, 20), (1, 20), (2, 20)]

    def test_attribute_qualified(self, conn):
        conn.execute("CREATE ARRAY a (x INT DIMENSION[0:1:2], v INT DEFAULT 1, w INT DEFAULT 2)")
        result = conn.execute("SELECT a[x].w FROM a")
        assert result.rows() == [(2,), (2,)]

    def test_unqualified_needs_single_attribute(self, conn):
        conn.execute("CREATE ARRAY a (x INT DIMENSION[0:1:2], v INT, w INT)")
        with pytest.raises(SemanticError):
            conn.execute("SELECT a[x] FROM a")

    def test_wrong_index_arity(self, conn):
        conn.execute("CREATE ARRAY a (x INT DIMENSION[0:1:2], y INT DIMENSION[0:1:2], v INT)")
        with pytest.raises(SemanticError):
            conn.execute("SELECT a[x] FROM a")

    def test_unknown_array(self, obs_conn):
        with pytest.raises(SemanticError):
            obs_conn.execute("SELECT ghost[day] FROM obs")

    def test_in_update(self, conn):
        """Cell refs in UPDATE read the pre-update snapshot."""
        conn.execute("CREATE ARRAY a (x INT DIMENSION[0:1:4], v INT DEFAULT 0)")
        conn.execute("UPDATE a SET v = x")
        conn.execute("UPDATE a SET v = a[x-1] WHERE x > 0")
        assert conn.execute("SELECT v FROM a").rows() == [(0,), (0,), (1,), (2,)]

    def test_edge_detection_pattern(self, conn):
        conn.execute("CREATE ARRAY img (x INT DIMENSION[0:1:3], y INT DIMENSION[0:1:3], v INT DEFAULT 0)")
        conn.execute("UPDATE img SET v = x * 3 + y")
        result = conn.execute(
            "SELECT [x], [y], 2 * img[x][y] - img[x-1][y] - img[x][y-1] FROM img"
        )
        grid = result.grid()
        assert grid[1, 1] == 2 * 4 - 1 - 3
        assert np.isnan(grid[0, 1])


class TestCoercions:
    def test_array_to_table(self, conn):
        conn.execute("CREATE ARRAY a (x INT DIMENSION[0:1:2], y INT DIMENSION[0:1:2], v INT DEFAULT 3)")
        result = conn.execute("SELECT x, y, v FROM a")
        assert result.kind == "table"
        assert result.rows() == [(0, 0, 3), (0, 1, 3), (1, 0, 3), (1, 1, 3)]

    def test_table_to_array(self, conn):
        conn.execute("CREATE TABLE m (x INT, y INT, v INT)")
        conn.execute("INSERT INTO m VALUES (0, 0, 1), (1, 1, 4)")
        result = conn.execute("SELECT [x], [y], v FROM m")
        assert result.kind == "array"
        grid = result.grid()
        assert grid[0, 0] == 1 and grid[1, 1] == 4
        assert np.isnan(grid[0, 1]) and np.isnan(grid[1, 0])

    def test_roundtrip_array_table_array(self, conn):
        conn.execute("CREATE ARRAY a (x INT DIMENSION[0:1:3], v INT DEFAULT 0)")
        conn.execute("UPDATE a SET v = x * x")
        result = conn.execute(
            "SELECT [x], v FROM (SELECT x, v FROM a) AS t"
        )
        assert result.grid().tolist() == [0, 1, 4]

    def test_inferred_strided_dimension(self, conn):
        conn.execute("CREATE TABLE m (x INT, v INT)")
        conn.execute("INSERT INTO m VALUES (0, 1), (10, 2), (20, 3)")
        dims, grids = conn.execute("SELECT [x], v FROM m").to_array()
        assert (dims[0].start, dims[0].step, dims[0].stop) == (0, 10, 30)
        assert grids["v"].tolist() == [1, 2, 3]

    def test_multi_value_array_result(self, conn):
        conn.execute("CREATE ARRAY a (x INT DIMENSION[0:1:2], v INT DEFAULT 1, w INT DEFAULT 2)")
        result = conn.execute("SELECT [x], v, w FROM a")
        _, grids = result.to_array()
        assert grids["v"].tolist() == [1, 1]
        assert grids["w"].tolist() == [2, 2]

    def test_dimension_expression_scaling(self, conn):
        conn.execute("CREATE ARRAY a (x INT DIMENSION[0:1:4], v INT DEFAULT 1)")
        result = conn.execute(
            "SELECT [x / 2], SUM(v) FROM a GROUP BY a[x:x+2] HAVING x MOD 2 = 0"
        )
        assert result.grid().tolist() == [2, 2]

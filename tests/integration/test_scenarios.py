"""Scenario I and II integration tests (experiments E7–E10)."""

import numpy as np
import pytest

import repro
from repro.apps import imaging, rasters
from repro.apps.blob_baseline import BlobImageStore
from repro.apps.life import (
    GameOfLife,
    SQLGameOfLife,
    numpy_life_step,
    place_pattern,
)
from tests.oracles import imaging as image_oracles


class TestGameOfLifeSciQL:
    def test_blinker_oscillates(self, conn):
        game = GameOfLife(conn, 5, 5)
        place_pattern(game, "blinker", (1, 2))
        before = game.board()
        game.step()
        assert not np.array_equal(game.board(), before)
        game.step()
        assert np.array_equal(game.board(), before)

    def test_block_is_still_life(self, conn):
        game = GameOfLife(conn, 6, 6)
        place_pattern(game, "block", (2, 2))
        before = game.board()
        game.run(3)
        assert np.array_equal(game.board(), before)

    def test_glider_moves(self, conn):
        game = GameOfLife(conn, 10, 10)
        place_pattern(game, "glider", (1, 1))
        game.run(4)  # a glider translates by (1,1) every 4 generations
        expected = np.zeros((10, 10), dtype=np.int64)
        for dx, dy in ((1, 0), (2, 1), (0, 2), (1, 2), (2, 2)):
            expected[1 + dx + 1, 1 + dy + 1] = 1
        assert np.array_equal(game.board(), expected)

    def test_matches_numpy_reference(self, conn):
        game = GameOfLife(conn, 12, 12)
        game.seed_random(density=0.4, seed=3)
        reference = game.board()
        for _ in range(6):
            game.step()
            reference = numpy_life_step(reference)
            assert np.array_equal(game.board(), reference)

    def test_population_query(self, conn):
        game = GameOfLife(conn, 5, 5)
        place_pattern(game, "block", (1, 1))
        assert game.population() == 4

    def test_clear(self, conn):
        game = GameOfLife(conn, 5, 5)
        place_pattern(game, "block", (1, 1))
        game.clear()
        assert game.population() == 0

    def test_resize_keeps_cells(self, conn):
        game = GameOfLife(conn, 5, 5)
        place_pattern(game, "block", (1, 1))
        game.resize(8, 8)
        assert game.population() == 4
        assert game.board().shape == (8, 8)

    def test_render(self, conn):
        game = GameOfLife(conn, 4, 4)
        game.seed([(0, 0)])
        art = game.render()
        assert art.splitlines()[-1][0] == "#"

    def test_larger_than_life_matches_reference(self, conn):
        rule = dict(radius=2, birth=(7, 11), survive=(5, 13))
        game = GameOfLife(conn, 14, 14, **rule)
        game.seed_random(density=0.4, seed=3)
        board = game.board()
        for _ in range(3):
            board = numpy_life_step(board, **rule)
            game.step()
            assert np.array_equal(game.board(), board)

    def test_larger_than_life_radius_needs_bigger_board(self, conn):
        with pytest.raises(Exception):
            GameOfLife(conn, 4, 4, radius=2)

    def test_board_too_small_rejected(self, conn):
        with pytest.raises(Exception):
            GameOfLife(conn, 2, 2)


class TestGameOfLifeSQLBaseline:
    def test_agrees_with_sciql(self, conn):
        sciql = GameOfLife(conn, 7, 7)
        sql = SQLGameOfLife(conn, 7, 7)
        for game in (sciql, sql):
            place_pattern(game, "toad", (1, 2))
        for _ in range(3):
            sciql.step()
            sql.step()
            assert np.array_equal(sciql.board(), sql.board())

    def test_population(self, conn):
        sql = SQLGameOfLife(conn, 5, 5)
        place_pattern(sql, "block", (1, 1))
        assert sql.population() == 4


class TestImagingScenario:
    @pytest.fixture
    def building(self, conn):
        image = rasters.building_image(24)
        imaging.load_image(conn, "building", image)
        return conn, image

    def test_load_roundtrip(self, building):
        conn, image = building
        assert np.array_equal(imaging.fetch_image(conn, "building"), image)

    def test_invert(self, building):
        conn, image = building
        processor = imaging.ImageProcessor(conn, "building")
        out = imaging.result_to_image(processor.invert())
        assert np.array_equal(out, imaging.reference_invert(image))

    def test_edge_detect(self, building):
        conn, image = building
        processor = imaging.ImageProcessor(conn, "building")
        out = imaging.result_to_image(processor.edge_detect())
        assert np.array_equal(out, imaging.reference_edge_detect(image))

    def test_smooth(self, building):
        conn, image = building
        processor = imaging.ImageProcessor(conn, "building")
        assert np.allclose(processor.smooth().grid(), imaging.reference_smooth(image))

    def test_smooth_large_radius(self, building):
        conn, image = building
        processor = imaging.ImageProcessor(conn, "building")
        assert np.allclose(
            processor.smooth(5).grid(), imaging.reference_smooth(image, 5)
        )

    def test_erode_dilate(self, building):
        conn, image = building
        processor = imaging.ImageProcessor(conn, "building")
        assert np.array_equal(
            imaging.result_to_image(processor.erode(2)),
            image_oracles.reference_erode(image, 2),
        )
        assert np.array_equal(
            imaging.result_to_image(processor.dilate(3)),
            image_oracles.reference_dilate(image, 3),
        )

    def test_dilate_of_erode_is_opening(self, building):
        conn, image = building
        processor = imaging.ImageProcessor(conn, "building")
        eroded = imaging.result_to_image(processor.erode(1))
        conn.execute("DROP ARRAY IF EXISTS opened")
        imaging.load_image(conn, "opened", eroded)
        opened = imaging.result_to_image(
            imaging.ImageProcessor(conn, "opened").dilate(1)
        )
        # morphological opening never brightens a pixel
        assert (opened <= image_oracles.reference_dilate(eroded, 1)).all()
        assert (eroded <= image).all()

    def test_reduce_resolution(self, building):
        conn, image = building
        processor = imaging.ImageProcessor(conn, "building")
        assert np.allclose(
            processor.reduce_resolution(2).grid(), image_oracles.reference_reduce(image, 2)
        )

    def test_reduce_resolution_factor_3(self, building):
        conn, image = building
        processor = imaging.ImageProcessor(conn, "building")
        assert np.allclose(
            processor.reduce_resolution(3).grid(), image_oracles.reference_reduce(image, 3)
        )

    def test_rotate(self, building):
        conn, image = building
        processor = imaging.ImageProcessor(conn, "building")
        out = imaging.result_to_image(processor.rotate())
        assert np.array_equal(out, image[::-1, :])

    def test_histogram(self, building):
        conn, image = building
        processor = imaging.ImageProcessor(conn, "building")
        assert processor.histogram() == imaging.reference_histogram(image)

    def test_zoom(self, building):
        conn, image = building
        processor = imaging.ImageProcessor(conn, "building")
        out = imaging.result_to_image(processor.zoom(2, 3, 10, 11))
        assert np.array_equal(out, image[2:10, 3:11])

    def test_brighten_clips(self, building):
        conn, image = building
        processor = imaging.ImageProcessor(conn, "building")
        out = imaging.result_to_image(processor.brighten(200))
        assert out.max() == 255
        assert np.array_equal(out, imaging.reference_brighten(image, 200))

    def test_water_filter(self, conn):
        image = rasters.remote_sensing_image(24)
        imaging.load_image(conn, "earth", image)
        processor = imaging.ImageProcessor(conn, "earth")
        water = processor.filter_water(48).grid()
        assert np.array_equal(np.isnan(water), image >= 48)
        assert (image < 48).any()  # the river exists

    def test_remove_water_punches_holes(self, conn):
        image = rasters.remote_sensing_image(24)
        imaging.load_image(conn, "earth", image)
        processor = imaging.ImageProcessor(conn, "earth")
        affected = processor.remove_water(48)
        assert affected == int((image < 48).sum())
        remaining = conn.execute("SELECT COUNT(v) FROM earth").scalar()
        assert remaining == int((image >= 48).sum())

    def test_areas_of_interest_mask(self, conn):
        image = rasters.remote_sensing_image(24)
        imaging.load_image(conn, "earth", image)
        mask = np.zeros((24, 24), dtype=np.int64)
        mask[4:10, 4:10] = 1
        imaging.create_mask(conn, "mask1", mask)
        processor = imaging.ImageProcessor(conn, "earth")
        out = processor.areas_of_interest_mask("mask1").grid()
        assert np.array_equal(np.isnan(out), mask == 0)

    def test_areas_of_interest_boxes(self, conn):
        image = rasters.remote_sensing_image(24)
        imaging.load_image(conn, "earth", image)
        imaging.create_boxes_table(conn, "maskt", [(0, 0, 3, 3)])
        processor = imaging.ImageProcessor(conn, "earth")
        rows = processor.areas_of_interest_boxes("maskt").rows()
        assert len(rows) == 16
        assert all(v == image[x, y] for x, y, v in rows)


class TestBlobBaseline:
    def test_store_fetch_roundtrip(self, conn):
        store = BlobImageStore(conn)
        image = rasters.building_image(16)
        store.store("img", image)
        assert np.array_equal(store.fetch("img"), image)

    def test_operations_match_references(self, conn):
        store = BlobImageStore(conn)
        image = rasters.building_image(16)
        store.store("img", image)
        assert np.array_equal(
            store.edge_detect("img"), imaging.reference_edge_detect(image)
        )
        assert store.histogram("img") == imaging.reference_histogram(image)

    def test_update_writes_back(self, conn):
        store = BlobImageStore(conn)
        image = rasters.building_image(16)
        store.store("img", image)
        store.invert("img")
        assert np.array_equal(store.fetch("img"), imaging.reference_invert(image))

    def test_missing_blob(self, conn):
        store = BlobImageStore(conn)
        with pytest.raises(Exception):
            store.fetch("ghost")


class TestPgmExchange:
    def test_binary_roundtrip(self, tmp_path):
        image = rasters.remote_sensing_image(16)
        rasters.write_pgm(tmp_path / "x.pgm", image)
        assert np.array_equal(rasters.read_pgm(tmp_path / "x.pgm"), image)

    def test_ascii_roundtrip(self, tmp_path):
        image = rasters.checkerboard(8)
        rasters.write_pgm(tmp_path / "x.pgm", image, binary=False)
        assert np.array_equal(rasters.read_pgm(tmp_path / "x.pgm"), image)

    def test_load_pgm_into_database(self, tmp_path, conn):
        image = rasters.building_image(16)
        rasters.write_pgm(tmp_path / "b.pgm", image)
        loaded = rasters.read_pgm(tmp_path / "b.pgm")
        imaging.load_image(conn, "img", loaded)
        assert conn.execute("SELECT COUNT(*) FROM img").scalar() == 256

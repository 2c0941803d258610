"""E8: Scenario II — the six grey-scale image operations as SciQL queries.

Each benchmark runs one demo thumbnail's query on the 64×64 synthetic
building image and asserts pixel-exact agreement with the numpy
reference implementation.
"""

import numpy as np
import pytest

from repro.apps import imaging
from tests.oracles import imaging as image_oracles


@pytest.fixture
def processor(building64):
    conn, image = building64
    return imaging.ImageProcessor(conn, "building"), image


@pytest.mark.benchmark(group="E8-grayscale")
def test_invert(benchmark, processor):
    proc, image = processor
    result = benchmark(proc.invert)
    assert np.array_equal(
        imaging.result_to_image(result), imaging.reference_invert(image)
    )


@pytest.mark.benchmark(group="E8-grayscale")
def test_edge_detect(benchmark, processor):
    proc, image = processor
    result = benchmark(proc.edge_detect)
    assert np.array_equal(
        imaging.result_to_image(result), imaging.reference_edge_detect(image)
    )


@pytest.mark.benchmark(group="E8-grayscale")
def test_smooth(benchmark, processor):
    proc, image = processor
    result = benchmark(proc.smooth)
    assert np.allclose(result.grid(), imaging.reference_smooth(image))


@pytest.mark.benchmark(group="E8-grayscale")
def test_smooth_radius8(benchmark, processor):
    """17×17 box blur — tile-size-independent kernels keep this flat."""
    proc, image = processor
    result = benchmark(proc.smooth, 8)
    assert np.allclose(result.grid(), imaging.reference_smooth(image, 8))


@pytest.mark.benchmark(group="E8-grayscale")
def test_erode(benchmark, processor):
    proc, image = processor
    result = benchmark(proc.erode, 2)
    assert np.array_equal(
        imaging.result_to_image(result), image_oracles.reference_erode(image, 2)
    )


@pytest.mark.benchmark(group="E8-grayscale")
def test_dilate(benchmark, processor):
    proc, image = processor
    result = benchmark(proc.dilate, 2)
    assert np.array_equal(
        imaging.result_to_image(result), image_oracles.reference_dilate(image, 2)
    )


@pytest.mark.benchmark(group="E8-grayscale")
def test_reduce_resolution(benchmark, processor):
    proc, image = processor
    result = benchmark(proc.reduce_resolution, 2)
    assert np.allclose(result.grid(), image_oracles.reference_reduce(image, 2))


@pytest.mark.benchmark(group="E8-grayscale")
def test_rotate(benchmark, processor):
    proc, image = processor
    result = benchmark(proc.rotate)
    assert np.array_equal(imaging.result_to_image(result), image[::-1, :])


@pytest.mark.benchmark(group="E8-grayscale")
def test_load(benchmark, conn):
    from repro.apps import rasters

    image = rasters.building_image(64)
    counter = [0]

    def load():
        imaging.load_image(conn, f"img_{counter[0]}", image)
        counter[0] += 1

    benchmark(load)

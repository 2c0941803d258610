"""Scenario II — in-database image processing with SciQL queries.

"We demonstrate how images (e.g., remote sensing images) are stored in
MonetDB as arrays (instead of BLOBs) and processed using SciQL
queries" (paper, Section 1).  This module implements every operation
the demo GUI shows, each as a SciQL query string executed in the
engine:

grey-scale image: load, intensity inversion, edge detection,
smoothing (any window radius — the tiling kernels are
tile-size-independent), min/max morphology (erode/dilate), resolution
reduction, rotation;
remote-sensing image: load, water filtering, intensity histogram,
zooming in, brightening, areas-of-interest by mask array or by
bounding-box table (the table ⋈ array join the paper highlights).

Loading goes through :func:`load_image`, the stand-in for the GeoTIFF
Data Vault [Ivanova et al., SSDBM 2012]: the image enters as one
ndarray through ``Connection.register_array``, without tuple-at-a-time
SQL.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import SciQLError
from repro.engine import Connection
from repro.engine.result import Result

MAX_INTENSITY = 255


def load_image(connection: Connection, name: str, image: np.ndarray) -> None:
    """Store a (width, height) grey-scale image as a 2-D SciQL array.

    "Each image is stored as a 2D array with x,y dimensions denoting
    the pixel positions in the image, and an integer column v denoting
    the grey-scale intensities of the pixels."  The image enters whole
    through ``register_array``, as the GeoTIFF Data Vault feeds MonetDB
    without INSERT statements: ``v`` takes the atom of the image's
    dtype, and a NaN pixel is NULL.
    """
    if image.ndim != 2:
        raise SciQLError("images must be 2-D (width, height)")
    connection.register_array(name, np.array(image), dims=("x", "y"))


def fetch_image(connection: Connection, name: str) -> np.ndarray:
    """Read an image array back as a (width, height) int array."""
    result = connection.execute(f"SELECT [x], [y], v FROM {name}")
    return np.nan_to_num(result.grid(), nan=0.0).astype(np.int64)


def result_to_image(result: Result, fill: int = 0) -> np.ndarray:
    """Densify an array-shaped query result into an int image."""
    return np.nan_to_num(result.grid(), nan=float(fill)).astype(np.int64)


class ImageProcessor:
    """The Scenario II operation set over one stored image array."""

    def __init__(self, connection: Connection, name: str):
        self.connection = connection
        self.name = name
        array = connection.catalog.get_array(name)
        self.width = array.dimensions[0].size
        self.height = array.dimensions[1].size

    # ------------------------------------------------------------------
    # grey-scale image operations (first six thumbnails)
    # ------------------------------------------------------------------
    def invert(self) -> Result:
        """Intensity inversion: v ← 255 − v."""
        return self.connection.execute(
            f"SELECT [x], [y], {MAX_INTENSITY} - v FROM {self.name}"
        )

    def edge_detect(self) -> Result:
        """The TELEIOS EdgeDetection use case.

        "It requires computing the differences in colour intensities of
        each pixel and its upper and left neighbouring pixels" —
        expressed with SciQL's relative cell addressing; border pixels
        (whose neighbours fall outside the array) yield NULL and are
        rendered as 0.
        """
        a = self.name
        return self.connection.execute(
            f"SELECT [x], [y], "
            f"ABS({a}[x][y] - {a}[x-1][y]) + ABS({a}[x][y] - {a}[x][y-1]) "
            f"FROM {a}"
        )

    def smooth(self, radius: int = 1) -> Result:
        """Box smoothing via structural grouping.

        The window is ``(2·radius+1)²``; since the prefix-sum tiling
        kernels cost O(|array|) regardless of tile size, a 33×33 blur
        runs as fast as the paper's 3×3.
        """
        a = self.name
        r = radius
        return self.connection.execute(
            f"SELECT [x], [y], AVG(v) FROM {a} "
            f"GROUP BY {a}[x-{r}:x+{r + 1}][y-{r}:y+{r + 1}]"
        )

    def erode(self, radius: int = 1) -> Result:
        """Morphological erosion: each pixel becomes its window minimum.

        A sliding-extrema (van Herk–Gil-Werman) tiling query — the
        classic remote-sensing clean-up for speckle noise.
        """
        a = self.name
        r = radius
        return self.connection.execute(
            f"SELECT [x], [y], MIN(v) FROM {a} "
            f"GROUP BY {a}[x-{r}:x+{r + 1}][y-{r}:y+{r + 1}]"
        )

    def dilate(self, radius: int = 1) -> Result:
        """Morphological dilation: each pixel becomes its window maximum."""
        a = self.name
        r = radius
        return self.connection.execute(
            f"SELECT [x], [y], MAX(v) FROM {a} "
            f"GROUP BY {a}[x-{r}:x+{r + 1}][y-{r}:y+{r + 1}]"
        )

    def reduce_resolution(self, factor: int = 2) -> Result:
        """Downsample by averaging non-overlapping ``factor²`` tiles."""
        a = self.name
        return self.connection.execute(
            f"SELECT [x / {factor}], [y / {factor}], AVG(v) FROM {a} "
            f"GROUP BY {a}[x:x+{factor}][y:y+{factor}] "
            f"HAVING x MOD {factor} = 0 AND y MOD {factor} = 0"
        )

    def rotate(self) -> Result:
        """Rotate 90° counter-clockwise by permuting dimensions."""
        return self.connection.execute(
            f"SELECT [{self.width - 1} - x] AS x, [y] AS y, v FROM {self.name}"
        )

    # ------------------------------------------------------------------
    # remote-sensing operations (second six thumbnails)
    # ------------------------------------------------------------------
    def filter_water(self, threshold: int = 48) -> Result:
        """Keep only water pixels (low intensity); land becomes NULL."""
        return self.connection.execute(
            f"SELECT [x], [y], "
            f"CASE WHEN v < {threshold} THEN v ELSE NULL END FROM {self.name}"
        )

    def remove_water(self, threshold: int = 48) -> int:
        """DELETE water cells — punches holes into the stored array."""
        result = self.connection.execute(
            f"DELETE FROM {self.name} WHERE v < {threshold}"
        )
        return result.affected

    def histogram(self, buckets: int = 16) -> list[tuple[int, int]]:
        """Intensity histogram as (bucket, pixel count) rows."""
        width = max(1, (MAX_INTENSITY + 1) // buckets)
        result = self.connection.execute(
            f"SELECT v / {width} AS bucket, COUNT(*) AS pixels "
            f"FROM {self.name} GROUP BY v / {width} ORDER BY bucket"
        )
        return [(int(b), int(c)) for b, c in result.rows()]

    def zoom(self, x0: int, y0: int, x1: int, y1: int) -> Result:
        """Select a rectangular region (half the point of in-DB storage:
        "one can select only the necessary part of the data")."""
        return self.connection.execute(
            f"SELECT [x], [y], v FROM {self.name} "
            f"WHERE x BETWEEN {x0} AND {x1 - 1} AND y BETWEEN {y0} AND {y1 - 1}"
        )

    def brighten(self, amount: int = 50) -> Result:
        """Increase intensity with clipping at 255."""
        return self.connection.execute(
            f"SELECT [x], [y], "
            f"CASE WHEN v + {amount} > {MAX_INTENSITY} THEN {MAX_INTENSITY} "
            f"ELSE v + {amount} END FROM {self.name}"
        )

    def areas_of_interest_mask(self, mask_name: str) -> Result:
        """AoI selection via a bit-mask image stored as another array."""
        a, m = self.name, mask_name
        return self.connection.execute(
            f"SELECT [x], [y], "
            f"CASE WHEN {m}[x][y] = 1 THEN v ELSE NULL END FROM {a}"
        )

    def areas_of_interest_boxes(self, boxes_table: str) -> Result:
        """AoI selection via a bounding-box table — the table ⋈ array join.

        "the bounding boxes of the interested-areas are stored in the
        table maskt. Then, a join between the table and the image array
        is done to filter out the pixel intensities of those areas."
        """
        a, b = self.name, boxes_table
        return self.connection.execute(
            f"SELECT i.x AS x, i.y AS y, i.v AS v FROM {a} i, {b} r "
            f"WHERE i.x BETWEEN r.x1 AND r.x2 AND i.y BETWEEN r.y1 AND r.y2"
        )


def create_mask(connection: Connection, name: str, mask: np.ndarray) -> None:
    """Store a 0/1 mask image as an array (for AoI selection)."""
    load_image(connection, name, mask.astype(np.int64))


def create_boxes_table(
    connection: Connection, name: str, boxes: list[tuple[int, int, int, int]]
) -> None:
    """Store bounding boxes (x1, y1, x2, y2 inclusive) in a table."""
    connection.execute(
        f"CREATE TABLE {name} (x1 INT, y1 INT, x2 INT, y2 INT)"
    )
    if boxes:
        connection.executemany(
            f"INSERT INTO {name} VALUES (?, ?, ?, ?)", boxes
        )


# ----------------------------------------------------------------------
# numpy reference implementations (used by tests and benchmarks)
# ----------------------------------------------------------------------
def reference_invert(image: np.ndarray) -> np.ndarray:
    return MAX_INTENSITY - image


def reference_edge_detect(image: np.ndarray) -> np.ndarray:
    """ABS differences with left/lower neighbours; borders → 0."""
    out = np.zeros_like(image)
    out[1:, 1:] = np.abs(image[1:, 1:] - image[:-1, 1:]) + np.abs(
        image[1:, 1:] - image[1:, :-1]
    )
    return out


def reference_smooth(image: np.ndarray, radius: int = 1) -> np.ndarray:
    """Box average with edge clipping (matches tiling semantics)."""
    acc = np.zeros(image.shape, dtype=np.float64)
    cnt = np.zeros(image.shape, dtype=np.int64)
    w, h = image.shape
    span = range(-radius, radius + 1)
    for dx in span:
        for dy in span:
            xs = slice(max(0, -dx), min(w, w - dx))
            ys = slice(max(0, -dy), min(h, h - dy))
            xd = slice(max(0, dx), min(w, w + dx))
            yd = slice(max(0, dy), min(h, h + dy))
            acc[xs, ys] += image[xd, yd]
            cnt[xs, ys] += 1
    return acc / cnt


def reference_brighten(image: np.ndarray, amount: int = 50) -> np.ndarray:
    return np.clip(image + amount, 0, MAX_INTENSITY)


def reference_histogram(image: np.ndarray, buckets: int = 16) -> list[tuple[int, int]]:
    width = max(1, (MAX_INTENSITY + 1) // buckets)
    values, counts = np.unique(image // width, return_counts=True)
    return [(int(v), int(c)) for v, c in zip(values, counts)]

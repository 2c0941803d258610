"""The tiling ops' metadata constant has one encoder and one decoder.

:class:`~repro.core.tiling.Tile` writes ``{"shape": [...], "box": [[lo,
hi], ...]}`` (plus ``"lattice"`` and ``"compact"``) and reads it back:

* *round trip*: ``from_json(to_json(t)) == t`` over random 1–3-D
  shapes, boxes (negative ``lo``, one-cell boxes, widths past
  ``NARROW_WIDTH``) and lattices;
* *hostile corpus*: every malformed constant is a typed error — the
  decoder raises :class:`MALError`, the plan verifier
  :class:`PlanVerificationError` on ``tileagg`` and ``tilepart`` alike,
  and the interpreter a :class:`MALError` that wraps no ``KeyError``
  or ``TypeError``;
* *one halo rule*: a ``tilepart`` whose dim-0 halo exceeds the array
  fails verification, and a ``tileagg`` that wide does not.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog import Catalog
from repro.core.tiling import NARROW_WIDTH, Tile, TileSpec
from repro.errors import MALError, PlanVerificationError
from repro.gdk.atoms import Atom
from repro.mal import Interpreter, MALProgram, Var, bat_type, scalar_type
from repro.mal.analysis import verify_program


@st.composite
def tiles(draw):
    ndim = draw(st.integers(1, 3))
    shape = tuple(draw(st.integers(0, 9)) for _ in range(ndim))
    box = []
    for _ in range(ndim):
        lo = draw(st.integers(-NARROW_WIDTH - 4, 4))
        box.append((lo, lo + draw(st.sampled_from([0, 1, 2, NARROW_WIDTH, NARROW_WIDTH + 3]))))
    lattice = None
    if draw(st.booleans()):
        moduli = [draw(st.integers(1, 4)) for _ in range(ndim)]
        lattice = tuple((m, draw(st.integers(0, m - 1))) for m in moduli)
    compact = lattice is not None and draw(st.booleans())
    return Tile(shape, TileSpec(tuple(box)), lattice, compact)


class TestRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(tiles())
    def test_decode_inverts_encode(self, tile):
        text = tile.to_json()
        assert Tile.from_json(text) == tile
        assert Tile.from_json(text).to_json() == text

    def test_the_encoding(self):
        tile = Tile((4, 6), TileSpec(((-1, 1), (2, 2))), ((2, 0), (1, 0)), compact=True)
        assert json.loads(tile.to_json()) == {
            "shape": [4, 6],
            "box": [[-1, 1], [2, 2]],
            "lattice": [[2, 0], [1, 0]],
            "compact": True,
        }
        # no lattice, no compact: the keys are left out
        assert json.loads(Tile((4,), TileSpec(((0, 1),))).to_json()) == {
            "shape": [4], "box": [[0, 1]],
        }

    def test_the_dim0_halo(self):
        # max(hi, 0) - min(lo, 0): the anchor's own row is always in the slab
        assert TileSpec(((-1, 1), (0, 5))).halo == 2
        assert TileSpec(((2, 3),)).halo == 3
        assert TileSpec(((-4, -2),)).halo == 4
        assert TileSpec(((0, 0), (-9, 9))).halo == 0


def meta(**keys) -> str:
    """A well-formed 2×2 tile's constant with *keys* overwritten (a key
    set to ``None`` is removed)."""
    decoded = json.loads(Tile((2, 2), TileSpec(((0, 1), (0, 1)))).to_json())
    decoded.update(keys)
    return json.dumps({k: v for k, v in decoded.items() if v is not None})


HOSTILE = {
    "not-json": "{oops",
    "not-an-object": "[[2, 2], [[0, 1], [0, 1]]]",
    "no-box": meta(box=None),
    "no-shape": meta(shape=None),
    "offsets-form": json.dumps({"shape": [2, 2], "offsets": [[0, 1], [0, 1]]}),
    "offsets-beside-box": meta(offsets=[[0, 1], [0, 1]]),
    "shape-not-a-list": meta(shape=4),
    "shape-empty": meta(shape=[], box=[]),
    "shape-negative": meta(shape=[-2, 2]),
    "shape-float": meta(shape=[2.0, 2]),
    "box-arity-short": meta(box=[[0, 1]]),
    "box-arity-long": meta(box=[[0, 1], [0, 1], [0, 1]]),
    "box-not-a-list": meta(box={"x": [0, 1]}),
    "box-pair-short": meta(box=[[0], [0, 1]]),
    "box-pair-long": meta(box=[[0, 1, 2], [0, 1]]),
    "box-pair-empty": meta(box=[[], [0, 1]]),
    "box-float-bound": meta(box=[[0, 1.5], [0, 1]]),
    "box-string-bound": meta(box=[["0", 1], [0, 1]]),
    "box-bool-bound": meta(box=[[False, True], [0, 1]]),
    "box-null-bound": meta(box=[[None, 1], [0, 1]]),
    "box-lo-above-hi": meta(box=[[1, 0], [0, 1]]),
    "lattice-arity": meta(lattice=[[2, 0]]),
    "lattice-zero-modulus": meta(lattice=[[0, 0], [1, 0]]),
    "lattice-negative-modulus": meta(lattice=[[-2, 0], [1, 0]]),
    "lattice-residue-too-big": meta(lattice=[[2, 2], [1, 0]]),
    "lattice-residue-negative": meta(lattice=[[2, -1], [1, 0]]),
    "lattice-float": meta(lattice=[[2.0, 0], [1, 0]]),
    "compact-without-lattice": meta(compact=True),
    "compact-not-a-bool": meta(lattice=[[2, 0], [1, 0]], compact=1),
}


def tiling_plan(function: str, constant: str) -> MALProgram:
    """Four INT cells through one ``array.<function>``, delivered."""
    p = MALProgram()
    cells = p.emit1("bat", "pack", [1, 2, 3, 4], bat_type(Atom.INT))
    args = [Var(cells), "sum", constant] + ([0, 2] if function == "tilepart" else [])
    out = p.emit1("array", function, args, bat_type(Atom.LNG))
    p.emit(
        "sql", "resultSet",
        ["table", json.dumps(["s"]), json.dumps({}), Var(out)],
        [scalar_type(Atom.INT)],
    )
    return p


@pytest.mark.parametrize("constant", HOSTILE.values(), ids=HOSTILE)
class TestHostileCorpus:
    def test_the_decoder_raises_a_typed_error(self, constant):
        with pytest.raises(MALError):
            Tile.from_json(constant)

    @pytest.mark.parametrize("function", ["tileagg", "tilepart"])
    def test_verification_rejects_it(self, constant, function):
        with pytest.raises(PlanVerificationError):
            verify_program(tiling_plan(function, constant), "hostile")

    @pytest.mark.parametrize("function", ["tileagg", "tilepart"])
    def test_the_interpreter_raises_mal_error(self, constant, function):
        with pytest.raises(MALError) as caught:
            Interpreter(Catalog()).run(tiling_plan(function, constant))
        assert not isinstance(caught.value.__cause__, (KeyError, TypeError, IndexError))


@pytest.mark.parametrize("function, sums", [("tileagg", [10, 6, 7, 4]), ("tilepart", [10, 6])])
def test_the_well_formed_plans_run(function, sums):
    program = tiling_plan(function, meta())
    verify_program(program, "well-formed")
    context, _ = Interpreter(Catalog()).run(program)
    assert context.result.bats[0].tail_pylist() == sums


class TestHaloRule:
    def wide(self, box) -> str:
        return Tile((2, 2), TileSpec(box)).to_json()

    @pytest.mark.parametrize("box", [((-3, -3), (0, 0)), ((1, 3), (0, 1)), ((-2, 1), (0, 0))])
    def test_a_tilepart_halo_past_the_array_fails(self, box):
        with pytest.raises(PlanVerificationError, match="exceeds the array"):
            verify_program(tiling_plan("tilepart", self.wide(box)), "halo")

    def test_a_tilepart_halo_of_the_whole_array_passes(self):
        verify_program(tiling_plan("tilepart", self.wide(((-2, -2), (0, 0)))), "halo")

    def test_a_tileagg_may_be_wider_than_its_array(self):
        verify_program(tiling_plan("tileagg", self.wide(((-9, 9), (0, 0)))), "halo")

    def test_a_tilepart_carries_no_lattice(self):
        lattice = Tile((2, 2), TileSpec(((0, 1), (0, 1))), ((2, 0), (1, 0))).to_json()
        with pytest.raises(PlanVerificationError, match="no anchor lattice"):
            verify_program(tiling_plan("tilepart", lattice), "lattice")
        with pytest.raises(MALError, match="no anchor lattice"):
            Interpreter(Catalog()).run(tiling_plan("tilepart", lattice))

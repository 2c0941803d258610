"""The ``mergetable`` optimizer pass: fragment-parallel plans.

MonetDB splits this work between two passes — ``mitosis`` cuts large
scans into horizontal fragments, ``mergetable`` propagates them.  Here
one pass does both.  When it reaches a ``sql.bind`` of a large column
``X`` it sizes the source (:func:`fragment_count`: auto mode makes one
piece per worker thread, each of at least ``2 * PARALLEL_MIN_ROWS``
rows, so every piece reaches the pool; capped by the halo rule of
:func:`halo_caps`), emits the fragment group::

    X#0 := mat.partition(X, 0, N);
    ...
    X#N-1 := mat.partition(X, N-1, N);

and registers the fragments as the row space of ``X``.  Binds of one
object into the same number of pieces share that space, so expressions
over several of its columns stay per fragment.  Partition *bounds* are
computed at run time from the actual row count, so cached plans survive
appends; the fragment *count* is fixed at optimize time from the knobs.
Every later consumer is then rewritten per fragment by rules that
mirror MonetDB's mergetable optimizer:

* element-wise ``batcalc.expr`` expressions stay fragment-parallel
  (fragments keep their global head ranges, so ``algebra.select`` over
  a fragment emits globally valid candidate oids);
* the ``algebra.select`` family turns into per-fragment selections
  whose candidate fragments rejoin with ``bat.mergecand`` (ordered
  union by concatenation);
* ``algebra.projection`` fetches payloads per candidate fragment;
* ``algebra.join``/``leftjoin`` fragment their *left* side — the join
  kernels emit output in canonical left-oid order, so concatenated
  fragment results reproduce the sequential output exactly (their oid
  outputs may repeat and the right side is unsorted, so they rejoin
  with ``mat.pack``, never as candidate lists);
* ``group.group``/``subgroup`` + ``aggr.sub*`` become per-fragment
  groupings with partial aggregates, rejoined by regrouping the
  per-fragment distinct keys and merging the packed partials by the
  one table :data:`MERGES` — ``aggr.submin``/``submax`` of MINs and
  MAXes, ``aggr.subsum`` of COUNTs, and ``aggr.mergesum``/``mergeprod``
  for SUM and PROD, whose partials past ``lng`` must be read exactly.
  AVG needs no rule: malgen lowers it to SUM and COUNT plus the
  element-wise ``aggr.mean``.  Global group ids come out in
  first-appearance order, so results are byte-identical to the
  sequential plan;
* ``array.tileagg`` over a fragmented cell source becomes one
  ``array.tilepart`` *halo fragment* per source fragment: each reads
  the whole value BAT but computes only its own anchor range over a
  slab widened by the tile's dim-0 offset extent.  Fragments use the
  ``mat.partition`` bounds, so results stay in the source's row space
  and downstream element-wise consumers keep running per fragment.
  Only byte-exact combinations fragment (``count``/``count_star``/
  ``min``/``max`` always — which includes the one-cell tile a constant
  cell reference ``A[x-1][y]`` lowers to; ``sum``/``prod``/``avg`` for
  integer cells, whose sums are exact or NULL by the same rule in slab
  and whole and whose products wrap alike) — float prefix sums would
  drift a ulp between slab and whole-array evaluation.  A tile over an
  anchor lattice (HAVING ``x MOD 2 = 0``) runs whole;
* every other consumer forces materialisation: fragments re-merge
  (``mat.pack`` / ``bat.mergecand`` / partial merges) right before the
  unsupported instruction, which keeps the pass semantics-preserving
  for arbitrary plans.

Group ids, candidate order and join order are all preserved, so a
fragmented plan returns *byte-identical* results to the sequential one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.core.tiling import Tile
from repro.errors import CatalogError
from repro.gdk.atoms import Atom
from repro.mal import interpreter
from repro.mal.program import (
    Constant,
    Instruction,
    MALProgram,
    Var,
    bat_type,
    scalar_type,
)
from repro.mal.optimizer.passes import _clone_program

#: never split a source into more fragments than this.
MAX_FRAGMENTS = 64

#: a halo-fragmented tiling source keeps at least this many dim-0 rows
#: per fragment *per halo row*, bounding the duplicated slab work.
HALO_ROWS_FACTOR = 2

#: the element-wise operation: one copy of the expression per fragment
#: is sound whenever every BAT leaf is fragmented over one row space.
ELEMENTWISE = ("batcalc", "expr")

#: selection operators: fragmented input with a global head range emits
#: per-fragment candidate lists.
SELECTS = {
    ("algebra", name)
    for name in ("select", "thetaselect", "rangeselect", "isnilselect", "inselect")
}

#: grouped aggregates whose per-fragment partials merge exactly, and
#: the op that merges them: MIN, MAX and COUNT partials go through the
#: row kernels (MIN of MINs, SUM of COUNTs); SUM and PROD partials past
#: ``lng`` must be read exactly.
MERGES = {
    "sum": "mergesum", "prod": "mergeprod",
    "min": "submin", "max": "submax", "count": "subsum",
}

#: of those, the ones that re-associate +/* — exact for integer atoms
#: (partials are exact integers) but a ulp off for floats, so floating
#: point inputs take the row-level path to stay byte-identical.
REASSOCIATING = {"sum", "prod"}

#: tiling aggregates whose halo-fragment evaluation is bit-exact for
#: every cell atom (selection/counting — no re-associated float math).
TILE_EXACT = {"count", "count_star", "min", "max"}

#: cell atoms whose tiling sums/products are exact under fragmentation
#: (integer sums are exact or NULL, products wrap mod 2^64, identically
#: for slab and whole).
TILE_INT_ATOMS = {Atom.INT, Atom.LNG, Atom.OID, Atom.BIT}


def fragment_count(
    rows: int, fragment_rows: Optional[int], nr_threads: int
) -> int:
    """How many fragments a source of *rows* rows should split into.

    An explicit ``fragment_rows`` knob gives ``ceil(rows /
    fragment_rows)``; auto mode creates only fragments a worker will
    run, ``min(nr_threads, rows // (2 * PARALLEL_MIN_ROWS))``: the 512²
    image and the Life board run whole, a 1M-row scan splits per thread.
    Either way the count is capped at :data:`MAX_FRAGMENTS` and floors
    at 1 (no fragmentation).
    """
    if rows <= 1:
        return 1
    if fragment_rows is None:
        pieces = min(nr_threads, rows // max(1, 2 * interpreter.PARALLEL_MIN_ROWS))
    elif not math.isfinite(fragment_rows) or fragment_rows <= 0:
        return 1
    else:
        pieces = -(-rows // int(fragment_rows))
    return max(1, min(int(pieces), MAX_FRAGMENTS, rows))


def halo_caps(program: MALProgram) -> dict[int, int]:
    """The halo rule: fragment caps per cell count, from the tiling ops.

    An ``array.tileagg`` runs as halo fragments (``array.tilepart``),
    each reading its own dim-0 rows plus the box's dim-0
    :attr:`~repro.core.tiling.TileSpec.halo`.  To keep that duplicated
    halo from dominating a slab, a source of ``rows0`` dim-0 rows splits
    at most ``max(1, rows0 // (HALO_ROWS_FACTOR * (halo + 1)))`` ways.
    Caps are keyed by the tiled array's cell count, which is the row
    count of every bind of that array, so exactly the cell-aligned
    sources are capped and every other scan keeps full fragmentation.
    """
    caps: dict[int, int] = {}
    for instruction in program.instructions:
        if (instruction.module, instruction.function) != ("array", "tileagg"):
            continue
        meta = instruction.args[2] if len(instruction.args) > 2 else None
        if not isinstance(meta, Constant) or not isinstance(meta.value, str):
            continue
        tile = Tile.from_json(meta.value)
        cells = math.prod(tile.shape)
        if tile.lattice is None and cells > 0:  # a lattice runs whole: see _tileagg
            cap = max(1, tile.shape[0] // (HALO_ROWS_FACTOR * (tile.spec.halo + 1)))
            caps[cells] = min(caps.get(cells, cap), cap)
    return caps


class Space:
    """Identity token for one fragmented row space.

    ``aligned`` marks spaces whose fragments still carry their global
    head oids (source partitions and element-wise derivations) —
    selections and left-side joins are only fragmentable there.
    """

    __slots__ = ("aligned",)

    def __init__(self, aligned: bool):
        self.aligned = aligned


@dataclass
class GroupInfo:
    """One per-fragment grouping level (a ``group.group``/``subgroup``)."""

    space: Space
    key_vars: list[str]            # original key var per chain level
    g_parts: list[str]             # per-fragment group-id vars
    e_parts: list[str]             # per-fragment extents vars
    n_parts: list[str]             # per-fragment ngroups scalars
    #: lazily built merge state: (kx_vars per level, g2, e2, n2)
    merged: Optional[tuple] = None
    #: lazily built row-level state: (row-aligned global ids, n2)
    row: Optional[tuple] = None


@dataclass
class Entry:
    """Fragmentation state of one program variable."""

    kind: str                      # val | cand | oids | groups | extents | ngroups | histogram | partial
    parts: list[str] = field(default_factory=list)
    space: Optional[Space] = None
    whole: Optional[str] = None    # var holding the merged value, once known
    result_space: Optional[Space] = None  # row space of projections through this var
    info: Optional[GroupInfo] = None
    agg: Optional[str] = None      # partial: aggregate name


class _Mergetable:
    def __init__(self, program: MALProgram, catalog, fragment_rows, nr_threads):
        self.program = program
        self.catalog = catalog
        self.fragment_rows = fragment_rows
        self.nr_threads = nr_threads
        self.halo_caps = halo_caps(program)
        self.out: list[Instruction] = []
        self.entries: dict[str, Entry] = {}
        self.spaces: dict[Any, Space] = {}  # (object, pieces) -> row space

    # ------------------------------------------------------------------
    # emission helpers
    # ------------------------------------------------------------------
    def emit(self, module, function, results, args, comment=""):
        self.out.append(Instruction(module, function, results, list(args), comment))

    def fresh(self, mal_type, prefix="M") -> str:
        return self.program.fresh(mal_type, prefix)

    def type_of(self, var: str):
        return self.program.types.get(var, bat_type(None))

    # ------------------------------------------------------------------
    # materialisation
    # ------------------------------------------------------------------
    def resolve(self, var: str) -> str:
        """Whole-value variable for *var*, merging fragments on demand."""
        entry = self.entries.get(var)
        if entry is None:
            return var
        if entry.whole is not None:
            return entry.whole
        if entry.kind in ("val", "oids"):
            self.emit("mat", "pack", [var], [Var(p) for p in entry.parts])
        elif entry.kind == "cand":
            self.emit("bat", "mergecand", [var], [Var(p) for p in entry.parts])
        elif entry.kind == "partial":
            self._merge_partial(var, entry)
        elif entry.kind == "groups":
            row_groups, _ = self.ensure_row(entry.info)
            # Re-issue the row-level global ids under the original name.
            self.emit("mat", "pack", [var], [Var(row_groups)])
        elif entry.kind == "extents":
            row_groups, n2 = self.ensure_row(entry.info)
            self.emit("aggr", "firstocc", [var], [Var(row_groups), Var(n2)])
        elif entry.kind == "ngroups":
            _, _, e2, _ = self.ensure_merged(entry.info)
            self.emit("bat", "getcount", [var], [Var(e2)])
        elif entry.kind == "histogram":
            row_groups, n2 = self.ensure_row(entry.info)
            self.emit("aggr", "subcountstar", [var], [Var(row_groups), Var(n2)])
        else:  # pragma: no cover - defensive
            raise AssertionError(f"unmergeable fragment kind {entry.kind}")
        entry.whole = var
        return var

    def _merge_partial(self, var: str, entry: Entry) -> None:
        _, g2, _, n2 = self.ensure_merged(entry.info)
        packed = self.fresh(self.type_of(var))
        self.emit("mat", "pack", [packed], [Var(p) for p in entry.parts])
        self.emit("aggr", MERGES[entry.agg], [var], [Var(packed), Var(g2), Var(n2)])

    def ensure_merged(self, info: GroupInfo) -> tuple:
        """Regroup the per-fragment distinct keys into the global grouping."""
        if info.merged is not None:
            return info.merged
        kx_vars: list[str] = []
        for key_var in info.key_vars:
            key_entry = self.entries[key_var]
            kx_parts = []
            for e_part, key_part in zip(info.e_parts, key_entry.parts):
                kx = self.fresh(self.type_of(key_var))
                self.emit(
                    "algebra", "projection", [kx], [Var(e_part), Var(key_part)]
                )
                kx_parts.append(kx)
            packed = self.fresh(self.type_of(key_var))
            self.emit("mat", "pack", [packed], [Var(p) for p in kx_parts])
            kx_vars.append(packed)
        g2 = e2 = None
        oid = bat_type(Atom.OID)
        for index, packed in enumerate(kx_vars):
            results = [self.fresh(oid), self.fresh(oid), self.fresh(oid)]
            if index == 0:
                self.emit("group", "group", results, [Var(packed)])
            else:
                self.emit("group", "subgroup", results, [Var(packed), Var(g2)])
            g2, e2, _ = results
        n2 = self.fresh(scalar_type(Atom.LNG))
        self.emit("bat", "getcount", [n2], [Var(e2)])
        info.merged = (kx_vars, g2, e2, n2)
        return info.merged

    def ensure_row(self, info: GroupInfo) -> tuple:
        """Row-aligned global group ids (the unsupported-consumer fallback)."""
        if info.row is not None:
            return info.row
        _, g2, _, n2 = self.ensure_merged(info)
        oid = bat_type(Atom.OID)
        shifted = self.fresh(oid)
        args = [Constant(len(info.g_parts))]
        args += [Var(g) for g in info.g_parts]
        args += [Var(n) for n in info.n_parts]
        self.emit("mat", "packgroups", [shifted], args)
        row_groups = self.fresh(oid)
        self.emit("algebra", "projection", [row_groups], [Var(shifted), Var(g2)])
        info.row = (row_groups, n2)
        return info.row

    # ------------------------------------------------------------------
    # per-instruction rules
    # ------------------------------------------------------------------
    def frag_of(self, arg) -> Optional[Entry]:
        if isinstance(arg, Var):
            return self.entries.get(arg.name)
        return None

    def fallback(self, instruction: Instruction) -> None:
        """Materialise every fragmented argument, then emit unchanged."""
        new_args = []
        for arg in instruction.args:
            entry = self.frag_of(arg)
            if entry is not None:
                new_args.append(Var(self.resolve(arg.name)))
            else:
                new_args.append(arg)
        self.emit(
            instruction.module,
            instruction.function,
            instruction.results,
            new_args,
            instruction.comment,
        )

    def result_space_of(self, entry: Entry) -> Space:
        if entry.result_space is None:
            entry.result_space = Space(aligned=False)
        return entry.result_space

    def handle(self, instruction: Instruction) -> None:
        module, function = instruction.module, instruction.function
        key = (module, function)
        if key == ("sql", "bind"):
            self.out.append(instruction)
            self._partition(instruction)
            return

        fragmented = [self.frag_of(arg) for arg in instruction.args]
        if not any(entry is not None for entry in fragmented):
            self.out.append(instruction)
            return

        if key in (ELEMENTWISE, ("array", "cellindex")) and self._elementwise(
            instruction, fragmented
        ):
            return
        if key == ("bat", "project_const") and self._project_const(
            instruction, fragmented
        ):
            return
        if key in SELECTS and self._select(instruction, fragmented):
            return
        if key in (("algebra", "projection"), ("algebra", "projectionsafe")):
            if self._projection(instruction, fragmented):
                return
        if key in (("algebra", "join"), ("algebra", "leftjoin")):
            if self._join(instruction, fragmented):
                return
        if key == ("array", "tileagg") and self._tileagg(instruction, fragmented):
            return
        if key in (("group", "group"), ("group", "subgroup")):
            if self._group(instruction, fragmented):
                return
        if key == ("bat", "getcount") and self._getcount(instruction, fragmented):
            return
        if module == "aggr" and function.startswith("sub"):
            if self._aggregate(instruction, fragmented):
                return
        self.fallback(instruction)

    def _partition(self, bind: Instruction) -> None:
        """Split a large ``sql.bind`` into its fragment group."""
        name, source = bind.args[0], bind.results[0]
        if (
            len(bind.results) != 1
            or not isinstance(name, Constant)
            or source in self.program.pinned
        ):
            return
        try:
            rows = self.catalog.get(name.value).count
        except CatalogError:
            return
        pieces = fragment_count(rows, self.fragment_rows, self.nr_threads)
        pieces = min(pieces, self.halo_caps.get(rows, pieces))
        if pieces < 2:
            return
        mal_type = self.type_of(source)
        parts = []
        for index in range(pieces):
            part = self.fresh(mal_type, prefix="F")
            self.emit(
                "mat", "partition", [part],
                [Var(source), Constant(index), Constant(pieces)],
            )
            parts.append(part)
        space = self.spaces.setdefault((name.value, pieces), Space(aligned=True))
        self.entries[source] = Entry("val", parts=parts, space=space, whole=source)

    def _shared_space(self, fragmented: list[Optional[Entry]]) -> Optional[Space]:
        """The single row space of the fragmented val operands, if any."""
        space = None
        for entry in fragmented:
            if entry is None:
                continue
            if entry.kind != "val" or entry.space is None:
                return None
            if space is None:
                space = entry.space
            elif entry.space is not space:
                return None
        return space

    def _has_unfragmented_bat(self, instruction, fragmented) -> bool:
        """True when an *unfragmented* BAT operand would misalign fragments."""
        for arg, entry in zip(instruction.args, fragmented):
            if entry is not None or not isinstance(arg, Var):
                continue
            mal_type = self.program.types.get(arg.name)
            if mal_type is not None and mal_type.kind == "bat":
                return True
        return False

    def _per_fragment(
        self,
        instruction: Instruction,
        fragmented: list[Optional[Entry]],
        space: Space,
        kind: str = "val",
    ) -> Entry:
        """Emit one copy of *instruction* per fragment; register the entry."""
        pieces = len(next(e.parts for e in fragmented if e is not None))
        result = instruction.results[0]
        mal_type = self.type_of(result)
        parts = []
        for index in range(pieces):
            args = []
            for arg, entry in zip(instruction.args, fragmented):
                if entry is not None:
                    args.append(Var(entry.parts[index]))
                else:
                    args.append(arg)
            part = self.fresh(mal_type)
            self.emit(
                instruction.module, instruction.function, [part], args,
                instruction.comment,
            )
            parts.append(part)
        entry = Entry(kind, parts=parts, space=space)
        self.entries[result] = entry
        return entry

    def _elementwise(self, instruction, fragmented) -> bool:
        """Row-aligned maps (an expression, ``array.cellindex``): one copy
        per fragment when every BAT operand shares one row space."""
        if len(instruction.results) != 1:
            return False
        space = self._shared_space(fragmented)
        if space is None or self._has_unfragmented_bat(instruction, fragmented):
            return False
        self._per_fragment(instruction, fragmented, space)
        return True

    def _project_const(self, instruction, fragmented) -> bool:
        """Constant broadcast follows its reference's fragmentation."""
        if len(instruction.results) != 1:
            return False
        ref = fragmented[0]
        if ref is None or any(e is not None for e in fragmented[1:]):
            return False
        if ref.kind == "val":
            self._per_fragment(instruction, fragmented, ref.space)
            return True
        if ref.kind in ("cand", "oids"):
            entry = self._per_fragment(
                instruction, fragmented, self.result_space_of(ref)
            )
            entry.space = self.result_space_of(ref)
            return True
        return False

    def _select(self, instruction, fragmented) -> bool:
        predicate = fragmented[0]
        if (
            predicate is None
            or predicate.kind != "val"
            or predicate.space is None
            or not predicate.space.aligned
            or self._has_unfragmented_bat(instruction, fragmented)
            or len(instruction.results) != 1
        ):
            return False
        # A trailing candidate list may itself be fragmented, but only
        # as the candidate fragments of the same space: fragment i's
        # candidates lie inside fragment i's head range, so pairing
        # them per index is exact (malgen's select chains have this shape).
        for entry in fragmented[1:]:
            if entry is not None and not (
                entry.kind == "cand" and entry.space is predicate.space
            ):
                return False
        self._per_fragment(instruction, fragmented, predicate.space, kind="cand")
        return True

    def _projection(self, instruction, fragmented) -> bool:
        index_entry = fragmented[0]
        if (
            index_entry is None
            or index_entry.kind not in ("val", "cand", "oids")
            or len(instruction.results) != 1
            or len(instruction.args) != 2
        ):
            return False
        base_arg = instruction.args[1]
        if not isinstance(base_arg, Var):
            return False
        base_entry = fragmented[1]
        if base_entry is not None and base_entry.kind == "extents":
            return False  # grouped-key projection: handled by caller fallback path
        base = self.resolve(base_arg.name)
        result = instruction.results[0]
        mal_type = self.type_of(result)
        parts = []
        for part in index_entry.parts:
            fetched = self.fresh(mal_type)
            self.emit(
                instruction.module, instruction.function, [fetched],
                [Var(part), Var(base)], instruction.comment,
            )
            parts.append(fetched)
        self.entries[result] = Entry(
            "val", parts=parts, space=self.result_space_of(index_entry)
        )
        return True

    def _join(self, instruction, fragmented) -> bool:
        left = fragmented[0]
        if (
            left is None
            or left.kind != "val"
            or left.space is None
            or not left.space.aligned
            or len(instruction.results) != 2
        ):
            return False
        if any(
            isinstance(arg, Var) and self.frag_of(arg) is not None
            for arg in instruction.args[2:]
        ):
            return False
        right = instruction.args[1]
        right_var = self.resolve(right.name) if isinstance(right, Var) else None
        if right_var is None:
            return False
        lresult, rresult = instruction.results
        join_space = Space(aligned=False)
        lparts, rparts = [], []
        oid = bat_type(Atom.OID)
        for part in left.parts:
            lo, ro = self.fresh(oid), self.fresh(oid)
            args = [Var(part), Var(right_var)] + list(instruction.args[2:])
            self.emit(
                instruction.module, instruction.function, [lo, ro], args,
                instruction.comment,
            )
            lparts.append(lo)
            rparts.append(ro)
        self.entries[lresult] = Entry(
            "oids", parts=lparts, space=left.space, result_space=join_space
        )
        self.entries[rresult] = Entry(
            "oids", parts=rparts, space=None, result_space=join_space
        )
        return True

    def _tileagg(self, instruction, fragmented) -> bool:
        """Split a tile aggregate into halo fragments (``array.tilepart``).

        Every fragment consumes the *whole* value BAT (usually free —
        the bound column itself) and computes only its
        ``mat.partition`` anchor range over a halo-widened slab; the
        bind was already split no finer than :func:`halo_caps` allows.
        The result fragments stay in the value's row space, so
        downstream element-wise consumers (e.g. Life's ``SUM(v) - v``)
        keep running per fragment.  A tile over an anchor lattice runs
        whole: its compact rows are not the source's row space, and its
        work is already ``1/∏m`` of the array's.
        """
        entry = fragmented[0]
        if (
            entry is None
            or entry.kind != "val"
            or entry.space is None
            or not entry.space.aligned
            or any(e is not None for e in fragmented[1:])
            or len(instruction.results) != 1
            or len(instruction.args) != 3
        ):
            return False
        agg_arg, meta_arg = instruction.args[1], instruction.args[2]
        if not isinstance(agg_arg, Constant) or not isinstance(agg_arg.value, str):
            return False
        meta = meta_arg.value if isinstance(meta_arg, Constant) else None
        if not isinstance(meta, str) or Tile.from_json(meta).lattice is not None:
            return False
        aggregate = agg_arg.value.lower()
        if aggregate not in TILE_EXACT:
            # Re-associating aggregate: fragment only integer cells,
            # where slab evaluation is bit-exact.
            value_atom = self.type_of(instruction.args[0].name).atom
            if value_atom not in TILE_INT_ATOMS:
                return False
        pieces = len(entry.parts)
        whole = self.resolve(instruction.args[0].name)
        result = instruction.results[0]
        mal_type = self.type_of(result)
        parts = []
        for index in range(pieces):
            part = self.fresh(mal_type)
            self.emit(
                "array", "tilepart",
                [part],
                [Var(whole), agg_arg, meta_arg, Constant(index), Constant(pieces)],
                instruction.comment,
            )
            parts.append(part)
        self.entries[result] = Entry("val", parts=parts, space=entry.space)
        return True

    def _group(self, instruction, fragmented) -> bool:
        if len(instruction.results) != 3:
            return False
        key_entry = fragmented[0]
        if key_entry is None or key_entry.kind != "val":
            return False
        if instruction.function == "subgroup":
            parent = fragmented[1]
            if (
                parent is None
                or parent.kind != "groups"
                or parent.info.space is not key_entry.space
            ):
                return False
            parent_info = parent.info
        else:
            if len(instruction.args) != 1:
                return False
            parent_info = None
        g_var, e_var, h_var = instruction.results
        oid = bat_type(Atom.OID)
        g_parts, e_parts, n_parts = [], [], []
        for index, key_part in enumerate(key_entry.parts):
            results = [self.fresh(oid), self.fresh(oid), self.fresh(oid)]
            if parent_info is None:
                self.emit("group", "group", results, [Var(key_part)])
            else:
                self.emit(
                    "group", "subgroup", results,
                    [Var(key_part), Var(parent_info.g_parts[index])],
                )
            g_parts.append(results[0])
            e_parts.append(results[1])
            n_part = self.fresh(scalar_type(Atom.LNG))
            self.emit("bat", "getcount", [n_part], [Var(results[1])])
            n_parts.append(n_part)
        key_vars = (list(parent_info.key_vars) if parent_info else []) + [
            instruction.args[0].name
        ]
        info = GroupInfo(
            space=key_entry.space,
            key_vars=key_vars,
            g_parts=g_parts,
            e_parts=e_parts,
            n_parts=n_parts,
        )
        self.entries[g_var] = Entry("groups", parts=g_parts, info=info)
        self.entries[e_var] = Entry("extents", parts=e_parts, info=info)
        self.entries[h_var] = Entry("histogram", info=info)
        return True

    def _getcount(self, instruction, fragmented) -> bool:
        entry = fragmented[0]
        if entry is None or entry.kind != "extents":
            return False
        self.entries[instruction.results[0]] = Entry(
            "ngroups", parts=entry.info.n_parts, info=entry.info
        )
        return True

    def _aggregate(self, instruction, fragmented) -> bool:
        function = instruction.function
        star = function == "subcountstar"
        groups_pos = 0 if star else 1
        if len(instruction.args) <= groups_pos:
            return False
        groups_entry = fragmented[groups_pos]
        if groups_entry is None or groups_entry.kind != "groups":
            return False
        info = groups_entry.info
        result = instruction.results[0]
        name = function[3:]  # strip "sub"
        value_entry = None if star else fragmented[0]
        decomposable = star or name in MERGES
        if decomposable and not star and name in REASSOCIATING:
            # Float partials re-associate the accumulation and drift a
            # ulp from the sequential result; integer partials are exact.
            value_atom = (
                self.type_of(instruction.args[0].name).atom
                if isinstance(instruction.args[0], Var)
                else None
            )
            if value_atom not in (Atom.INT, Atom.LNG):
                decomposable = False
        value_ok = star or (
            value_entry is not None
            and value_entry.kind == "val"
            and value_entry.space is info.space
        )
        if decomposable and value_ok:
            mal_type = self.type_of(result)
            parts = []
            for index in range(len(info.g_parts)):
                args = []
                if not star:
                    args.append(Var(value_entry.parts[index]))
                args.append(Var(info.g_parts[index]))
                args.append(Var(info.n_parts[index]))
                part = self.fresh(mal_type)
                self.emit("aggr", function, [part], args)
                parts.append(part)
            self.entries[result] = Entry(
                "partial",
                parts=parts,
                info=info,
                agg="count" if star else name,
            )
            return True
        # Non-decomposable aggregate (or a value the fragments cannot
        # reach): rebuild row-level global group ids and run the plain
        # kernel over the merged rows.
        row_groups, n2 = self.ensure_row(info)
        args = []
        if not star:
            value_arg = instruction.args[0]
            value_var = (
                self.resolve(value_arg.name)
                if isinstance(value_arg, Var)
                else None
            )
            if value_var is None:
                return False
            args.append(Var(value_var))
        args.append(Var(row_groups))
        args.append(Var(n2))
        self.emit("aggr", function, [result], args, instruction.comment)
        return True

    # ------------------------------------------------------------------
    # extents projections (grouped keys)
    # ------------------------------------------------------------------
    def _extents_projection(self, instruction: Instruction) -> bool:
        """``projection(extents, key)`` ⇒ project the merged grouping."""
        if (
            instruction.module != "algebra"
            or instruction.function != "projection"
            or len(instruction.args) != 2
            or len(instruction.results) != 1
        ):
            return False
        extents_arg, key_arg = instruction.args
        if not isinstance(extents_arg, Var) or not isinstance(key_arg, Var):
            return False
        extents_entry = self.entries.get(extents_arg.name)
        if extents_entry is None or extents_entry.kind != "extents":
            return False
        info = extents_entry.info
        if key_arg.name in info.key_vars:
            kx_vars, _, e2, _ = self.ensure_merged(info)
            level = info.key_vars.index(key_arg.name)
            self.emit(
                "algebra", "projection", instruction.results,
                [Var(e2), Var(kx_vars[level])], instruction.comment,
            )
            return True
        return False

    # ------------------------------------------------------------------
    # driver
    # ------------------------------------------------------------------
    def run(self) -> MALProgram:
        for instruction in self.program.instructions:
            if not self._extents_projection(instruction):
                self.handle(instruction)
        # Anything pinned must stay addressable by name.
        for name in self.program.pinned | {
            var for _, var in self.program.result_columns
        }:
            entry = self.entries.get(name)
            if entry is not None and entry.whole is None:
                self.resolve(name)
        return _clone_program(self.program, self.out)


def mergetable(
    catalog, fragment_rows: Optional[int], nr_threads: int
) -> Callable[[MALProgram], MALProgram]:
    """The pass bound to *catalog* (for row counts) and the fragmentation
    knobs: split large scans, then run the plan per fragment."""
    return lambda program: _Mergetable(
        program, catalog, fragment_rows, nr_threads
    ).run()

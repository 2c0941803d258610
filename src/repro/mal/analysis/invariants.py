"""Structural invariants for fragment-parallel plans.

The checks here encode what ``mitosis`` and ``mergetable`` promise each
other and what the kernels silently assume:

* every ``mat.partition`` fragment group covers its source disjointly
  (indexes exactly ``0..pieces-1``, each exactly once per group);
* whenever a ``mat.pack``/``bat.mergecand`` reassembles per-fragment
  results, it consumes one complete group in ascending fragment order
  (candidate concatenation is only sorted if fragments concatenate
  canonically) and no fragment is packed twice;
* instructions never mix two different fragments of the same source
  (a candidate chain of selects must stay within one fragment's
  bounds);
* ``array.tilepart`` halo slabs carry a sane index/pieces pair and
  parseable tile metadata: one non-empty offset list per dimension (a
  one-cell tile included) whose dim-0 halo fits inside the array.

Provenance is tracked as a set of ``(source, index)`` fragment tags per
variable: ``mat.partition`` seeds a tag, element-wise/select/join ops
propagate the union of their argument tags, and merging ops
(``mat.pack``, ``bat.mergecand``, ``mat.packgroups``, ``aggr.merge*``)
clear them.
"""

from __future__ import annotations

import json
from typing import Callable

from repro.mal.program import Constant, Instruction, Var

#: ops that legitimately combine several fragments of one source.
_MERGING = {("mat", "pack"), ("mat", "packgroups"), ("bat", "mergecand")}

FragTag = tuple[str, int]


def _is_merge(module: str, function: str) -> bool:
    return (module, function) in _MERGING or (
        module == "aggr" and function.startswith("merge")
    )


class FragmentState:
    """Per-program fragment bookkeeping driven by the verifier's scan."""

    def __init__(self, fail: Callable[[str], None]):
        self._fail = fail
        #: source var -> pieces declared by its partition group.
        self.group_pieces: dict[str, int] = {}
        #: (source, index) pairs seen, to reject duplicate coverage.
        self._seen: set[FragTag] = set()
        #: partition-result var -> its (source, index) tag.
        self.partition_of: dict[str, FragTag] = {}
        #: var -> fragment tags flowing into it.
        self.tags: dict[str, frozenset[FragTag]] = {}
        #: partition vars already consumed by a reassembling pack.
        self._packed: set[str] = set()

    # ------------------------------------------------------------------
    # per-instruction hooks
    # ------------------------------------------------------------------
    def observe(self, instruction: Instruction) -> None:
        module, function = instruction.module, instruction.function
        if (module, function) == ("mat", "partition"):
            self._observe_partition(instruction)
            return
        if (module, function) in (("mat", "pack"), ("bat", "mergecand")):
            self._observe_reassembly(instruction)
        if (module, function) == ("mat", "packgroups"):
            self._observe_packgroups(instruction)
        if (module, function) == ("array", "tilepart"):
            self._observe_tilepart(instruction)
        self._propagate(instruction)

    def _observe_partition(self, instruction: Instruction) -> None:
        if len(instruction.args) != 3:
            self._fail("mat.partition expects (source, index, pieces)")
        source, index_arg, pieces_arg = instruction.args
        index = index_arg.value if isinstance(index_arg, Constant) else None
        pieces = pieces_arg.value if isinstance(pieces_arg, Constant) else None
        if not isinstance(index, int) or not isinstance(pieces, int):
            self._fail("mat.partition index/pieces must be integer constants")
        if pieces < 1 or not 0 <= index < pieces:
            self._fail(
                f"mat.partition index {index} outside fragment group of {pieces}"
            )
        if not isinstance(source, Var):
            self._fail("mat.partition source must be a variable")
        declared = self.group_pieces.setdefault(source.name, pieces)
        if declared != pieces:
            self._fail(
                f"fragment group of {source.name!r} declared with both "
                f"{declared} and {pieces} pieces"
            )
        tag = (source.name, index)
        if tag in self._seen:
            self._fail(
                f"fragment {index} of {source.name!r} partitioned twice — "
                "group no longer covers its source disjointly"
            )
        self._seen.add(tag)
        result = instruction.results[0]
        self.partition_of[result] = tag
        self.tags[result] = frozenset((tag,))

    def _fragment_sequence(self, instruction: Instruction) -> list[FragTag] | None:
        """Per-arg singleton fragment tags over one source, or ``None``.

        A reassembly is only checkable when every argument carries
        exactly one fragment tag and all tags share a source — exactly
        the shape ``mergetable`` emits.  Anything else (already-merged
        inputs, whole-column packs) is left alone.
        """
        sequence: list[FragTag] = []
        for arg in instruction.args:
            if not isinstance(arg, Var):
                return None
            tags = self.tags.get(arg.name, frozenset())
            if len(tags) != 1:
                return None
            sequence.append(next(iter(tags)))
        sources = {source for source, _ in sequence}
        if len(sources) != 1:
            return None
        return sequence

    def _observe_reassembly(self, instruction: Instruction) -> None:
        op = f"{instruction.module}.{instruction.function}"
        # Direct partition results must be packed exactly once and as a
        # complete, ordered group.
        direct = [
            arg.name
            for arg in instruction.args
            if isinstance(arg, Var) and arg.name in self.partition_of
        ]
        for name in direct:
            if name in self._packed:
                self._fail(f"{op} packs fragment {name!r} twice")
            self._packed.add(name)
        sequence = self._fragment_sequence(instruction)
        if sequence is None:
            if direct and len(direct) != len(instruction.args):
                self._fail(
                    f"{op} mixes raw fragments with non-fragment inputs"
                )
            return
        source = sequence[0][0]
        pieces = self.group_pieces.get(source)
        indexes = [index for _, index in sequence]
        if pieces is not None:
            if indexes != list(range(pieces)):
                self._fail(
                    f"{op} reassembles fragments of {source!r} as {indexes}; "
                    f"a complete group is [0..{pieces - 1}] in order"
                )

    def _observe_packgroups(self, instruction: Instruction) -> None:
        count_arg = instruction.args[0] if instruction.args else None
        if not isinstance(count_arg, Constant) or not isinstance(
            count_arg.value, int
        ):
            self._fail("mat.packgroups expects a leading fragment count constant")
        count = count_arg.value
        if count < 1 or len(instruction.args) - 1 != 2 * count:
            self._fail(
                f"mat.packgroups declares {count} fragments but carries "
                f"{len(instruction.args) - 1} trailing args (want {2 * count})"
            )

    def _observe_tilepart(self, instruction: Instruction) -> None:
        if len(instruction.args) != 5:
            self._fail("array.tilepart expects (values, aggregate, meta, i, n)")
        _, _, meta_arg, index_arg, pieces_arg = instruction.args
        index = index_arg.value if isinstance(index_arg, Constant) else None
        pieces = pieces_arg.value if isinstance(pieces_arg, Constant) else None
        if not isinstance(index, int) or not isinstance(pieces, int):
            self._fail("array.tilepart index/pieces must be integer constants")
        if pieces < 1 or not 0 <= index < pieces:
            self._fail(
                f"array.tilepart slab {index} outside its group of {pieces} — "
                "the halo slab would fall outside the heap"
            )
        if not isinstance(meta_arg, Constant) or not isinstance(meta_arg.value, str):
            self._fail("array.tilepart tile metadata must be a JSON constant")
        try:
            meta = json.loads(meta_arg.value)
        except ValueError:
            self._fail("array.tilepart tile metadata is not valid JSON")
            return
        if not isinstance(meta, dict) or "shape" not in meta or "offsets" not in meta:
            self._fail("array.tilepart tile metadata lacks shape/offsets")
        shape, offsets = meta["shape"], meta["offsets"]
        if (
            not isinstance(shape, list)
            or not shape
            or not isinstance(offsets, list)
            or len(offsets) != len(shape)
            or not all(isinstance(per_dim, list) and per_dim for per_dim in offsets)
        ):
            self._fail(
                "array.tilepart needs one non-empty offset list per dimension "
                "(a single offset is a one-cell tile)"
            )
        # The slab of a fragment is its own dim-0 rows plus the offset
        # extent, the anchor's row included; past the whole array there
        # is nothing left to fragment.
        halo = max(max(offsets[0]), 0) - min(min(offsets[0]), 0)
        if halo > shape[0]:
            self._fail(
                f"array.tilepart halo of {halo} rows exceeds the array's "
                f"{shape[0]} — the slab would be the whole heap for every fragment"
            )

    def _propagate(self, instruction: Instruction) -> None:
        merged: set[FragTag] = set()
        for arg in instruction.args:
            if isinstance(arg, Var):
                merged.update(self.tags.get(arg.name, ()))
        if not merged:
            return
        if not _is_merge(instruction.module, instruction.function):
            by_source: dict[str, int] = {}
            for source, index in merged:
                prior = by_source.setdefault(source, index)
                if prior != index:
                    self._fail(
                        f"{instruction.module}.{instruction.function} mixes "
                        f"fragments {prior} and {index} of {source!r} — "
                        "candidate chains must stay within one fragment"
                    )
            tags = frozenset(merged)
            for result in instruction.results:
                self.tags[result] = tags

    # ------------------------------------------------------------------
    # whole-program checks
    # ------------------------------------------------------------------
    def finish(self) -> None:
        for source, pieces in self.group_pieces.items():
            indexes = {i for s, i in self._seen if s == source}
            if indexes != set(range(pieces)):
                missing = sorted(set(range(pieces)) - indexes)
                self._fail(
                    f"fragment group of {source!r} does not cover its source: "
                    f"missing pieces {missing}"
                )

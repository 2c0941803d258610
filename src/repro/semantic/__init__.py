"""Semantic analysis: name binding and typing, one annotate pass."""

from repro.semantic.binder import (
    Binder,
    BoundColumn,
    Scope,
    SourceInfo,
    is_aggregate_call,
    source_from_catalog,
)

__all__ = [
    "Binder",
    "BoundColumn",
    "Scope",
    "SourceInfo",
    "is_aggregate_call",
    "source_from_catalog",
]

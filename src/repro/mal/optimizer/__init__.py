"""MAL optimizer pipeline (the "MAL Optimizers" box of Figure 2)."""

from repro.mal.optimizer.pipeline import (
    DEFAULT_PIPELINE,
    OptimizerPass,
    build_pipeline,
    optimize,
)

__all__ = [
    "optimize",
    "OptimizerPass",
    "DEFAULT_PIPELINE",
    "build_pipeline",
]

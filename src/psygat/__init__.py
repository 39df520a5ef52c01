"""Persona-conditioned graph attention over psychological expression
units, with causal edge-ranking explanations of detected symptoms.
"""

import os

# One BLAS thread unless the caller chose a count. The model multiplies
# small matrices, where more threads only wait on each other, and worse on
# a loaded host; set before numpy loads, since BLAS reads these only then.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")

__version__ = "0.1.0"

from .datagen import GenConfig, PersonaProfile, generate_corpus, generate_session
from .graph import SessionGraph, build_graph
from .model import ModelConfig, ModelParams, forward
from .peu import CATEGORIES, keyword_extract
from .train import Checkpoint, TrainConfig, fit, train_ensemble

__all__ = [
    "CATEGORIES",
    "Checkpoint",
    "GenConfig",
    "ModelConfig",
    "ModelParams",
    "PersonaProfile",
    "SessionGraph",
    "TrainConfig",
    "build_graph",
    "fit",
    "forward",
    "generate_corpus",
    "generate_session",
    "keyword_extract",
    "train_ensemble",
]

"""Numerical laboratory for reduced focal loss and detection-pipeline plumbing.

Subpackages group by concern: closed-form losses with analytic
gradients (``losses``), synthetic long-tailed data and undersampling
(``sampling``), deterministic SGD trainers (``train``), detection
metrics (``metrics``), tiling and box-level TTA (``geometry``),
detection fusion (``ensemble``), and the config-driven experiment
runner (``experiment``).  The ``rfl-lab`` CLI fronts all of it.
"""

__version__ = "0.1.0"

from .losses import (  # noqa: F401
    LossKind,
    LossParams,
    cutoff_factor,
    loss_at,
)
from .metrics import (  # noqa: F401
    Box,
    Detection,
    GroundTruth,
    average_precision,
    iou,
    map_and_mrecall,
)
from .sampling import (  # noqa: F401
    Dataset,
    SceneSet,
    SynthDatasetSpec,
    UndersamplePolicy,
    generate_synthetic,
    undersample_mask,
)

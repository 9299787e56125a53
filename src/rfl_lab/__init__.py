"""Numerical laboratory for reduced focal loss and detection-pipeline plumbing.

Modules group by concern: closed-form losses with analytic gradients
(``losses``), synthetic long-tailed data and undersampling
(``sampling``), deterministic SGD trainers (``train``), detection
metrics (``metrics``), tiling and box-level TTA (``geometry``),
detection fusion (``ensemble``), SVG charts (``svg``), and the
config-driven experiment runner (``experiment``).  The ``rfl-lab`` CLI
fronts all of it.

Importing the package loads none of them: import each from its module
(``from rfl_lab.metrics import map_and_mrecall``), so that a program
loads only the half of the lab it runs, training or detection.  Only
what both halves' outputs share lives here.
"""

__version__ = "0.1.0"


def round_floats(obj, sig: int = 9):
    """Recursively round floats to ``sig`` significant digits for output."""
    if isinstance(obj, float):
        return float(f"{obj:.{sig}g}")
    if isinstance(obj, dict):
        return {str(k): round_floats(v, sig) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round_floats(v, sig) for v in obj]
    return obj

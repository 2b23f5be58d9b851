"""Operator-facing record of the packed-bit kernel implementation.

Every packed-bit kernel is a direct numpy call, with ``np.bitwise_count``
as the only popcount.  ``metrics``, ``info`` and ``repo-info --json``
carry this record so fleet operators can diff it across nodes.
"""

from __future__ import annotations

import numpy as np


def kernel_runtime() -> dict:
    """JSON-serialisable record: implementation name and numpy version."""
    return {"tier": "numpy", "tier_version": np.__version__}

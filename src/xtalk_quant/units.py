"""dB <-> linear conversions, centralized so no module grows its own variant."""

import numpy as np

LN2 = float(np.log(2.0))
SQRT2 = float(np.sqrt(2.0))


def db_to_linear(db):
    """Power ratio (or mW for dBm inputs) from decibels."""
    return 10.0 ** (np.asarray(db, dtype=float) / 10.0)

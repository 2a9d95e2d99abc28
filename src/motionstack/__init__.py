"""Motion-aware video detection tooling.

Temporal input stacking, first-layer weight surgery, detection metrics,
RoI feature pooling, and tracklet re-identification utilities built around
a small self-describing tensor container. The detector itself is an
external black box exchanged via files.
"""

import os as _os

__version__ = "0.1.0"


def _thread_count(raw: str) -> int:
    """MOTIONSTACK_THREADS as a count if it is digits only, as for --seed, else 0."""
    return int(raw) if raw.isdecimal() else 0


# A positive MOTIONSTACK_THREADS sizes the BLAS pool, which numpy starts on its first import, so
# a process that imported numpy earlier keeps its pool; an explicit BLAS variable still wins.
# Unset or invalid sets nothing: the CLI rejects an invalid value with exit 1.
_threads = _thread_count(_os.environ.get("MOTIONSTACK_THREADS", ""))
if _threads > 0:
    for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_name, str(_threads))

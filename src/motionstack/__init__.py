"""Motion-aware video detection tooling.

Temporal input stacking, first-layer weight surgery, detection metrics,
RoI feature pooling, and tracklet re-identification utilities built around
a small self-describing tensor container. The detector itself is an
external black box exchanged via files.
"""

__version__ = "0.1.0"

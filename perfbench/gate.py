"""The correctness gate: served predictions against a float64 reference.

Served predictions run the float32 serving path.  Each must be finite and
positive, and within :data:`RELATIVE_TOLERANCE` of an independent float64
reference computed through the trainer's unpacked dataset path.
"""

from __future__ import annotations

import math
from typing import Optional

#: float32 serving tolerance against the float64 reference
RELATIVE_TOLERANCE = 1e-4


def check_prediction(served: float, reference: float) -> Optional[str]:
    """``None`` when *served* passes the gate, else the reason it fails."""
    if not math.isfinite(served) or served <= 0.0:
        return f"prediction {served!r} is not finite and positive"
    if not math.isfinite(reference) or reference <= 0.0:
        return f"reference {reference!r} is not finite and positive"
    error = abs(served - reference) / abs(reference)
    if error > RELATIVE_TOLERANCE:
        return (f"prediction {served!r} differs from the float64 reference "
                f"{reference!r} by {error:.3g} (tolerance {RELATIVE_TOLERANCE:g})")
    return None


def reference_prediction(session, spec: dict, platform: str):
    """``(float64 reference, node count)`` of one request spec, computed
    through public calls on a one-graph dataset."""
    from repro.ml.dataset import GraphDataset

    graph = session.encode_source(spec["source"], sizes=spec["sizes"],
                                  num_teams=spec["num_teams"],
                                  num_threads=spec["num_threads"])
    trainer = session.trainer_for(platform)
    value = float(trainer.predict(GraphDataset([graph]), dtype=None)[0])
    return value, int(graph.node_features.shape[0])

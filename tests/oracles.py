"""Independent references that more than one test module checks against."""

from spikestage import detector as det
from spikestage.nn import SpikeClass


def naive_dead_zone(events, zone_ticks):
    """Quadratic reference: drop events inside any retained SS zone."""
    kept = []
    for e in events:
        blocked = any(
            k.klass is SpikeClass.SS
            and k.timestamp < e.timestamp < k.timestamp + zone_ticks
            for k in kept
        )
        if not blocked:
            kept.append(e)
    return kept


def smoothed_energy(x, cfg):
    """The smoothed energy of a whole stream, from one call of each array primitive."""
    return det.smooth(det.neo_stream(det.smooth(x, cfg.alpha_signal)), cfg.alpha_neo)

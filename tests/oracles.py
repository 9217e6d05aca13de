"""Independent references that more than one test module checks against.

The module also holds the builders of test data that more than one module uses.
"""

import json

import numpy as np

from spikestage import detector as det
from spikestage.nn import SpikeClass
from spikestage.train import Dataset


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


def naive_honored(candidates, busy_ticks):
    """The greedy scan as a plain loop: one bisection per honored tick."""
    honored = []
    i = 0
    next_free = 0
    while i < len(candidates):
        t = int(candidates[i])
        if t >= next_free:
            honored.append(t)
            next_free = t + busy_ticks
            i = int(np.searchsorted(candidates, next_free, side="left"))
        else:
            i += 1
    return honored


def smoothed_energy(x, cfg):
    """The smoothed energy of a whole stream, from one call of each array primitive."""
    return det.smooth(det.neo_stream(det.smooth(x, cfg.alpha_signal)), cfg.alpha_neo)


def dataset_jsonl(dataset) -> bytes:
    """A dataset file as json.dumps writes it, one row's dict per line."""
    names = [klass.name for klass in SpikeClass]
    columns = zip(dataset.ticks.tolist(), dataset.labels.tolist(), dataset.waveforms.tolist())
    return "".join(
        json.dumps({"tick": tick, "label": names[label], "waveform": waveform}) + "\n"
        for tick, label, waveform in columns
    ).encode()


def make_cluster_dataset(counts=(20, 20, 20), seed=0, spread=4.0):
    """Three well-separated waveform clusters, one per class."""
    rng = np.random.default_rng(seed)
    centers = {
        SpikeClass.CS: np.linspace(-90.0, 90.0, 40),
        SpikeClass.SS: np.linspace(90.0, -90.0, 40),
        SpikeClass.F: np.zeros(40),
    }
    waveforms, labels = [], []
    for klass, n in zip(SpikeClass, counts):
        for _ in range(n):
            w = np.clip(np.round(centers[klass] + rng.normal(0.0, spread, 40)), -128, 127)
            waveforms.append(w)
            labels.append(klass)
    return Dataset(np.reshape(waveforms, (-1, 40)), labels, 100 * np.arange(len(labels)))

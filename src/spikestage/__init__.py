"""Spike detection, classification, and storage pipeline for neural recordings.

Stages: synthetic recording generation (signal), adaptive-threshold NEO
detection (detector), int8 MLP classification (nn, train), the deployment
state machine tying them together (pipeline), compact event storage
(store), the power and storage budget (budget), and offline scoring
(analysis).

There is no package-level API: import each name from its module, for
example ``from spikestage.store import EventRecord``.
"""

__version__ = "0.1.0"

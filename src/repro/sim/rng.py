"""Deterministic, named random-number streams.

Every stochastic component of a simulation draws from its own named
stream so that (a) runs are reproducible given a root seed and (b)
changing one component's draw pattern does not perturb the others —
the standard variance-reduction discipline for simulation studies.
"""

from __future__ import annotations

import zlib

import numpy as np


def _stable_hash(name: str) -> int:
    """A hash of ``name`` that is stable across interpreter runs."""
    return zlib.crc32(name.encode("utf-8"))


class RandomStreams:
    """A factory of independent, reproducible random generators."""

    def __init__(self, root_seed: int = 0) -> None:
        self.root_seed = int(root_seed)
        self._streams: dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """The generator for ``name`` (created on first use)."""
        generator = self._streams.get(name)
        if generator is None:
            generator = np.random.default_rng([self.root_seed, _stable_hash(name)])
            self._streams[name] = generator
        return generator

    # Convenience draws -------------------------------------------------
    def uniform(self, name: str, low: float = 0.0, high: float = 1.0) -> float:
        return float(self.stream(name).uniform(low, high))

    def exponential(self, name: str, mean: float) -> float:
        if not mean > 0:  # also rejects nan
            raise ValueError(f"mean must be positive, got {mean}")
        return float(self.stream(name).exponential(mean))

    def normal(self, name: str, mean: float = 0.0, std: float = 1.0) -> float:
        return float(self.stream(name).normal(mean, std))

    def integers(self, name: str, low: int, high: int) -> int:
        """Uniform integer in ``[low, high)``."""
        return int(self.stream(name).integers(low, high))

    def choice(self, name: str, options):
        index = int(self.stream(name).integers(0, len(options)))
        return options[index]

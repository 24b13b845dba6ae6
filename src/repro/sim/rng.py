"""Deterministic, named random-number streams.

Every stochastic component of a simulation draws from its own named
stream so that (a) runs are reproducible given a root seed and (b)
changing one component's draw pattern does not perturb the others —
the standard variance-reduction discipline for simulation studies.

A model that is the only reader of its generator draws through
:func:`standard_normals` / :func:`standard_exponentials`: numpy fills a
block of draws in one call and the model reads them one by one, the
same values in the same order as one scalar call per draw.
"""

from __future__ import annotations

import zlib

import numpy as np


def _stable_hash(name: str) -> int:
    """A hash of ``name`` that is stable across interpreter runs."""
    return zlib.crc32(name.encode("utf-8"))


BLOCK = 16  # draws per numpy call of the two block readers below


def standard_normals(generator: np.random.Generator):
    """Successive ``generator.standard_normal()`` values, drawn
    :data:`BLOCK` at a time.

    The generator runs up to ``BLOCK - 1`` draws ahead of what has been
    read, so read a generator this way only when nothing else draws
    from it afterwards.  ``loc + scale * z`` is numpy's own
    ``normal(loc, scale)``, bit for bit.
    """
    while True:
        yield from generator.standard_normal(BLOCK).tolist()


def standard_exponentials(generator: np.random.Generator):
    """Successive ``generator.standard_exponential()`` values, drawn
    :data:`BLOCK` at a time; the same caveat as :func:`standard_normals`.
    ``scale * e`` is numpy's own ``exponential(scale)``, bit for bit.
    """
    while True:
        yield from generator.standard_exponential(BLOCK).tolist()


class RandomStreams:
    """A factory of independent, reproducible random generators."""

    def __init__(self, root_seed: int = 0) -> None:
        self.root_seed = int(root_seed)
        self._streams: dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """The generator for ``name`` (created on first use)."""
        generator = self._streams.get(name)
        if generator is None:
            generator = self._streams[name] = self._generator(name)
        return generator

    def _generator(self, name: str) -> np.random.Generator:
        return np.random.default_rng([self.root_seed, _stable_hash(name)])

    # Convenience draws -------------------------------------------------
    def uniform_once(self, name: str, low: float = 0.0, high: float = 1.0) -> float:
        """The first ``uniform`` draw of stream ``name``, from a
        generator that is dropped afterwards: for a name a run draws
        exactly once (a start coordinate), which then costs no cached
        stream.  Drawing the same name again gives the same value."""
        return float(self._generator(name).uniform(low, high))

    def exponential(self, name: str, mean: float) -> float:
        if not mean > 0:  # also rejects nan
            raise ValueError(f"mean must be positive, got {mean}")
        return float(self.stream(name).exponential(mean))

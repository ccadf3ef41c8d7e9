"""Seeded random streams, and the int64 draw rules that the grower (`grow`)
and the kernels (`urns`, `montecarlo`) share."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .families import FamilySpec
from .trees import check_count


@dataclass
class RngStream:
    """A seeded random stream that can spawn independent child streams.

    The seed, each spawn-key entry and each child index follow the count
    rule of `check_count`: an integer >= 0.  The spawn key is a tuple; any
    other key, seed or index raises ValueError.
    """

    seed: int
    spawn_key: tuple = ()

    def __post_init__(self):
        self.seed = check_count(self.seed, "seed", 0)
        if not isinstance(self.spawn_key, tuple):
            raise ValueError(f"spawn_key must be a tuple, not {self.spawn_key!r}")
        self.spawn_key = tuple(check_count(k, "spawn key entry k", 0) for k in self.spawn_key)
        self.generator = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(self.seed, spawn_key=self.spawn_key)))

    def child(self, index: int) -> "RngStream":
        return RngStream(self.seed, self.spawn_key + (check_count(index, "child index", 0),))

    def integers(self, high) -> int:
        return int(self.generator.integers(high))


def _as_rng(rng) -> RngStream:
    """rng if it is a stream, else the stream of the seed rng."""
    return rng if isinstance(rng, RngStream) else RngStream(rng)


def _draw_dtype(high: int):
    """The integer dtype to draw below `high` in: int32 when it fits.

    Below 2**31 numpy's bounded int32 and int64 draws take the same 32-bit
    words and give the same numbers; int32 is cheaper to fill and compare.
    """
    return np.int32 if high < 2**31 else np.int64


def _check_draw_bound(total: int, spec: FamilySpec, at: str) -> None:
    """Refuse a total weight past 2^63 - 1, which int64 totals and draws cannot hold."""
    if total >= 2**63:
        raise ValueError(f"growth rule {spec.describe()} has total weight {total} {at}, "
                         f"past the int64 draw bound 2^63 - 1")

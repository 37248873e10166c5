"""Synthetic workload ingredients.

§3 characterizes the office/engineering environment: "a large number of
relatively small files (less than 8 kilobytes) whose contents are
accessed sequentially and in their entirety.  The average file life time
is short, less than a day."  These samplers encode that description with
deterministic randomness so benchmark runs are reproducible.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence

from repro.errors import InvalidArgumentError
from repro.units import KIB


class FileSizeSampler:
    """Office/engineering file-size mixture.

    80% of files are small (1–8 KB, the paper's characterization), 15%
    medium (8–64 KB) and 5% large (64 KB–1 MB); sizes within a band are
    log-uniform, the classic shape of file-size distributions.
    """

    def __init__(
        self,
        seed: int = 0,
        bands: Optional[Sequence] = None,
    ) -> None:
        self._rng = random.Random(seed)
        self.bands = list(
            bands
            or [
                (0.80, 1 * KIB, 8 * KIB),
                (0.15, 8 * KIB, 64 * KIB),
                (0.05, 64 * KIB, 1024 * KIB),
            ]
        )
        total = sum(weight for weight, _lo, _hi in self.bands)
        if abs(total - 1.0) > 1e-9:
            raise InvalidArgumentError(f"band weights sum to {total}, not 1")

    def sample(self) -> int:
        roll = self._rng.random()
        acc = 0.0
        for weight, lo, hi in self.bands:
            acc += weight
            if roll <= acc:
                # Log-uniform within the band.
                import math

                return int(
                    math.exp(
                        self._rng.uniform(math.log(lo), math.log(hi))
                    )
                )
        _weight, lo, hi = self.bands[-1]
        return hi


class ZipfPicker:
    """Zipf-ish popularity over a dynamic population.

    Used to pick which live file an operation touches: low ranks are
    exponentially more popular, giving the access locality real
    workloads show (and that the cost-benefit cleaner exploits via
    segment age).
    """

    def __init__(self, seed: int = 0, skew: float = 4.0) -> None:
        if skew <= 0:
            raise InvalidArgumentError(f"skew must be positive: {skew}")
        self._rng = random.Random(seed)
        self.skew = skew

    def pick(self, population: int) -> int:
        """An index in [0, population), biased toward 0.

        Sampling ``population * U^skew`` with uniform U puts
        ``q**(1/skew)`` of the probability mass on the first ``q``
        fraction of indexes — e.g. with the default skew of 4, two
        thirds of accesses hit the first fifth of the population.
        """
        if population <= 0:
            raise InvalidArgumentError("empty population")
        u = self._rng.random()
        index = int(population * (u ** self.skew))
        return min(index, population - 1)

    def coin(self, probability: float) -> bool:
        return self._rng.random() < probability

"""Named, seeded RNG streams — the kernel's randomness bookkeeping.

The experiment layer used to derive per-switch installer RNGs with a
mutable closure counter (``counter["next"] += 1; default_rng(seed + n)``)
— reproducible only as long as nobody reads the stream in a different
order or forgets to copy the idiom.  :class:`RngStreams` centralizes it:
each *named* stream gets a generator derived from the base seed, assigned
in first-request order so existing seeded scenarios stay byte-identical
(the n-th distinct stream is exactly ``default_rng(seed + n)``).

The bookkeeping is pure stdlib; numpy is imported lazily only when a
generator is actually constructed, so the kernel core stays importable
without it.
"""

from __future__ import annotations

from typing import Dict


class RngStreams:
    """A registry of named RNG streams under one base seed.

    Streams are keyed by name; the same name always returns the same
    generator object, so a component can re-request its stream instead of
    threading the object around.  Ordinals are assigned in first-request
    order, reproducing the legacy closure-counter derivation
    (``default_rng(seed + ordinal)``, ordinals from 1) byte-for-byte for
    call sites that request each name once, in a deterministic order.
    """

    def __init__(self, seed: int) -> None:
        """Create the registry for ``seed`` (no generators built yet)."""
        self.seed = int(seed)
        self._ordinals: Dict[str, int] = {}
        self._streams: Dict[str, object] = {}

    def ordinal(self, name: str) -> int:
        """The 1-based ordinal of ``name`` (assigned on first request)."""
        if name not in self._ordinals:
            self._ordinals[name] = len(self._ordinals) + 1
        return self._ordinals[name]

    def stream(self, name: str):
        """The named stream's ``np.random.Generator`` (cached per name)."""
        if name not in self._streams:
            import numpy as np

            self._streams[name] = np.random.default_rng(
                self.seed + self.ordinal(name)
            )
        return self._streams[name]

    def names(self) -> list:
        """Stream names requested so far, in ordinal order."""
        return sorted(self._ordinals, key=self._ordinals.get)

    def __repr__(self) -> str:
        return f"RngStreams(seed={self.seed}, streams={len(self._ordinals)})"

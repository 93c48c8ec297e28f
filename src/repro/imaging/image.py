"""Image container used throughout the platform.

Images are dense RGB arrays of shape ``(height, width, 3)``, read as
``float64`` in ``[0, 1]``.  A thin wrapper (rather than bare ndarrays)
gives us validation, deterministic hashing for deduplication, and
grayscale conversion in one place.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.errors import ImagingError


class Image:
    """An RGB image with float pixels in [0, 1], held as the array it
    was made from: floats, or the bytes :meth:`from_uint8` got (every
    upload and reload; 192 B, not 1,536, at 8x8).  :attr:`pixels` derives
    floats from bytes on each read; :meth:`to_uint8` and the hash read the
    bytes (``round(k / 255 * 255) == k``: one digest per content)."""

    __slots__ = ("_held", "_bytes")

    def __init__(self, pixels: np.ndarray) -> None:
        px = np.asarray(pixels, dtype=np.float64)
        _check_shape(px.shape)
        if np.isnan(px).any():
            raise ImagingError("image contains NaN pixels")
        px = np.clip(px, 0.0, 1.0)
        px.setflags(write=False)
        self._held: np.ndarray = px
        self._bytes: np.ndarray | None = None

    @property
    def pixels(self) -> np.ndarray:
        """The (H, W, 3) float pixels, read-only."""
        if self._bytes is None:
            return self._held
        px = self._bytes / 255.0
        px.setflags(write=False)
        return px

    # -- basic geometry ---------------------------------------------------

    @property
    def height(self) -> int:
        """Image height in pixels."""
        return int(self._held.shape[0])

    @property
    def width(self) -> int:
        """Image width in pixels."""
        return int(self._held.shape[1])

    @property
    def shape(self) -> tuple[int, int]:
        """``(height, width)``."""
        return (self.height, self.width)

    # -- conversions --------------------------------------------------------

    def grayscale(self) -> np.ndarray:
        """Luma (ITU-R BT.601) single-channel view, shape (H, W)."""
        r, g, b = self.pixels[..., 0], self.pixels[..., 1], self.pixels[..., 2]
        return 0.299 * r + 0.587 * g + 0.114 * b

    def to_uint8(self) -> np.ndarray:
        """8-bit representation (for persistence / hashing); read-only
        when the image is held as bytes."""
        if self._bytes is not None:
            return self._bytes
        return np.round(self._held * 255.0).astype(np.uint8)

    @classmethod
    def from_uint8(cls, array: np.ndarray) -> "Image":
        """Build from an 8-bit (H, W, 3) array, held as a read-only copy:
        a byte is never NaN nor outside 0-255, so only the shape is
        checked.  Levels in any other dtype are read as floats."""
        if not isinstance(array, np.ndarray) or array.dtype != np.uint8:
            return cls(np.asarray(array, dtype=np.float64) / 255.0)
        _check_shape(array.shape)
        held = array.copy()
        held.setflags(write=False)
        image = cls.__new__(cls)
        image._held = image._bytes = held
        return image

    # -- identity -----------------------------------------------------------

    def content_hash(self) -> str:
        """Deterministic SHA-1 of the 8-bit pixel content.

        The platform deduplicates uploads by content hash, which the
        paper motivates ("visual data is huge in size and many times
        redundant").
        """
        h = hashlib.sha1(str(self.shape).encode())
        h.update(self.to_uint8())
        return h.hexdigest()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Image):
            return NotImplemented
        return self.shape == other.shape and np.array_equal(
            self.to_uint8(), other.to_uint8()
        )

    def __hash__(self) -> int:
        return hash(self.content_hash())


def _check_shape(shape: tuple[int, ...]) -> None:
    if len(shape) != 3 or shape[2] != 3:
        raise ImagingError(f"expected (H, W, 3) array, got shape {shape}")
    if shape[0] < 1 or shape[1] < 1:
        raise ImagingError(f"image must be at least 1x1, got {shape}")


def solid_color(height: int, width: int, rgb: tuple[float, float, float]) -> Image:
    """A constant-colour image — handy for tests and augment baselines."""
    px = np.empty((height, width, 3), dtype=np.float64)
    px[..., 0], px[..., 1], px[..., 2] = rgb
    return Image(px)

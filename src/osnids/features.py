"""Payload vectors as 20x25 RGB images.

The 1500 byte features map row-major onto 500 pixels of 3 channels:
channel (r, c, k) holds features[3 * (25 * r + c) + k]. The mapping is a
bijection, so images round-trip exactly back to vectors.
"""

from __future__ import annotations

import numpy as np

from .errors import ValueOutOfRange, WrongLength

IMAGE_ROWS = 20
IMAGE_COLS = 25
IMAGE_CHANNELS = 3
IMAGE_SHAPE = (IMAGE_ROWS, IMAGE_COLS, IMAGE_CHANNELS)
VECTOR_LEN = IMAGE_ROWS * IMAGE_COLS * IMAGE_CHANNELS


def to_rgb_image(features) -> np.ndarray:
    """Reshape a 1500-entry byte vector into a (20, 25, 3) uint8 image."""
    vec = np.asarray(features)
    if vec.shape != (VECTOR_LEN,):
        raise WrongLength(f"expected {VECTOR_LEN} features, got shape {vec.shape}")
    if not np.issubdtype(vec.dtype, np.integer):
        if np.issubdtype(vec.dtype, np.floating) and np.all(vec == np.round(vec)):
            vec = vec.astype(np.int64)
        else:
            raise ValueOutOfRange("feature values must be integers")
    if vec.min() < 0 or vec.max() > 255:
        raise ValueOutOfRange("feature values must lie in [0, 255]")
    return vec.astype(np.uint8).reshape(IMAGE_SHAPE)


def from_rgb_image(image: np.ndarray) -> np.ndarray:
    """Exact inverse of to_rgb_image."""
    img = np.asarray(image)
    if img.shape != IMAGE_SHAPE:
        raise WrongLength(f"expected image of shape {IMAGE_SHAPE}, got {img.shape}")
    return img.reshape(VECTOR_LEN).astype(np.uint8)


def normalize(image: np.ndarray) -> np.ndarray:
    """Scale channel values by the fixed constant 255 into [0, 1].

    Stateless by design: train and test inputs get the identical scaling.
    """
    img = np.asarray(image)
    if img.shape != IMAGE_SHAPE:
        raise WrongLength(f"expected image of shape {IMAGE_SHAPE}, got {img.shape}")
    return img.astype(np.float64) / 255.0

"""Payload vectors as 20x25 RGB images.

The 1500 byte features map row-major onto 500 pixels of 3 channels:
channel (r, c, k) holds features[3 * (25 * r + c) + k]. The mapping is a
bijection, so images round-trip exactly back to vectors.
"""

IMAGE_ROWS = 20
IMAGE_COLS = 25
IMAGE_CHANNELS = 3
IMAGE_SHAPE = (IMAGE_ROWS, IMAGE_COLS, IMAGE_CHANNELS)
VECTOR_LEN = IMAGE_ROWS * IMAGE_COLS * IMAGE_CHANNELS

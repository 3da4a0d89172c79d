"""IDX fixture writers shared by the data and CLI tests.

They write the layout :func:`alc.data.load_idx` reads: a big-endian magic
number and dimension sizes, then the raw uint8 payload.
"""

import struct

import numpy as np

from alc.data import IDX_IMAGES_MAGIC, IDX_LABELS_MAGIC


def write_idx_images(path, images):
    """Write a (count, rows, cols) uint8 array in IDX image layout."""
    images = np.asarray(images, dtype=np.uint8)
    assert images.ndim == 3, f"images must be 3-D (count, rows, cols), got {images.shape}"
    path.write_bytes(struct.pack(">IIII", IDX_IMAGES_MAGIC, *images.shape) + images.tobytes())


def write_idx_labels(path, labels):
    """Write a 1-D uint8 label array in IDX label layout."""
    labels = np.asarray(labels, dtype=np.uint8)
    path.write_bytes(struct.pack(">II", IDX_LABELS_MAGIC, labels.size) + labels.tobytes())

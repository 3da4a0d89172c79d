"""Download and verify the datasets that are too large to bundle.

:data:`REMOTE_FILES` is the one list of each fetched dataset's files: the
fetcher writes those cache names and :func:`alc.data.load_dataset` reads
them. Files land under the dataset cache directory, which defaults to
``~/.cache/alc`` and can be overridden with the ``ALC_DATA_DIR`` environment
variable. Every registry entry that carries a SHA-256 digest is verified
after download; a mismatch removes the file and raises. Entries without a
pinned digest (the voice CSV has no stable upstream release) print the
computed digest so it can be recorded. Downloads and decompressions write to
``<name>.part`` and take their final name only when complete, so an
interrupted fetch is redone by the next one.
"""

from __future__ import annotations

import gzip
import hashlib
import os
import shutil
import urllib.request
from pathlib import Path

from .data import BUNDLED_DATASETS, atomic_path
from .errors import IntegrityError, ParameterError

DEFAULT_CACHE = "~/.cache/alc"


def _mirror(base_url, files, suffix=""):
    """``{name: (url, sha256)}`` for files served as ``<base_url><name><suffix>``."""
    return {name: (f"{base_url}{name}{suffix}", sha256) for name, sha256 in files}


# Each fetched dataset's files: cache name -> (url, pinned sha256 or None), in
# the order load_dataset reads them. IDX files come as (images, labels) pairs,
# training split first. A URL ending in .gz is downloaded as <name>.gz, and the
# digest is that of the archive.
REMOTE_FILES = {
    "voice_gender": _mirror(
        "https://raw.githubusercontent.com/primaryobjects/voice-gender/master/",
        [("voice.csv", None)],
    ),
    "mnist": _mirror(
        "https://ossci-datasets.s3.amazonaws.com/mnist/",
        [
            ("train-images-idx3-ubyte", "440fcabf73cc546fa21475e81ea370265605f56be210a4024d2ca8f203523609"),
            ("train-labels-idx1-ubyte", "3552534a0a558bbed6aed32b30c495cca23d567ec52cac8be1a0730e8010255c"),
            ("t10k-images-idx3-ubyte", "8d422c7b0a1c1c79245a5bcf07fe86e33eeafee792b84584aec276f5a2dbc4e6"),
            ("t10k-labels-idx1-ubyte", "f7ae60f92e00ec6debd23a6088c31dbd2371eca3ffa0defaefb259924204aec6"),
        ],
        suffix=".gz",
    ),
}


def cache_root(data_dir=None):
    if data_dir is not None:
        return Path(data_dir).expanduser()
    return Path(os.environ.get("ALC_DATA_DIR", DEFAULT_CACHE)).expanduser()


def dataset_dir(data_dir, dataset_id):
    return cache_root(data_dir) / dataset_id


def sha256_of(path):
    digest = hashlib.sha256()
    with Path(path).open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _download(url, dest):
    with urllib.request.urlopen(url, timeout=60) as response, dest.open("wb") as out:
        shutil.copyfileobj(response, out)


def fetch_dataset(dataset_id, dest_dir=None, registry=None, log=print):
    """Fetch a dataset's files into the cache; returns the final paths.

    ``registry`` has the shape of :data:`REMOTE_FILES`. Bundled datasets are a
    no-op with a notice, and a file already in the cache is skipped. A
    gzipped download is verified against its recorded digest and then
    decompressed to the cache name, next to the archive.
    """
    registry = registry if registry is not None else REMOTE_FILES
    if dataset_id in BUNDLED_DATASETS:
        log(f"{dataset_id} ships with the package; nothing to fetch")
        return []
    if dataset_id not in registry:
        raise ParameterError(
            f"unknown dataset id {dataset_id!r}; expected one of "
            f"{sorted(set(BUNDLED_DATASETS) | set(registry))}"
        )

    target = dataset_dir(dest_dir, dataset_id)
    target.mkdir(parents=True, exist_ok=True)
    final_paths = []
    for name, (url, sha256) in registry[dataset_id].items():
        final = target / name
        final_paths.append(final)
        if final.exists():
            log(f"{name} already present, skipping")
            continue
        archive = target / f"{name}.gz" if url.endswith(".gz") else final
        log(f"downloading {url}")
        with atomic_path(archive) as part:
            _download(url, part)
            digest = sha256_of(part)
            if sha256 is None:
                log(f"warning: no pinned checksum for {archive.name}; got sha256 {digest}")
            elif digest != sha256:
                raise IntegrityError(
                    f"{archive.name}: sha256 {digest} does not match recorded {sha256}"
                )
        if archive != final:
            with atomic_path(final) as part, gzip.open(archive, "rb") as src, part.open("wb") as out:
                shutil.copyfileobj(src, out)
    return final_paths


def dataset_available(dataset_id, data_dir=None):
    """True when the dataset can be loaded locally without network access."""
    if dataset_id in BUNDLED_DATASETS:
        return True
    root = dataset_dir(data_dir, dataset_id)
    return dataset_id in REMOTE_FILES and all(
        (root / name).exists() for name in REMOTE_FILES[dataset_id]
    )

"""Lance ingestion shim (BASELINE.json:input_hint names a Lance table of
image + caption pairs as the canonical input format).

``read_images`` reads the images fact table from EITHER a Lance dataset
(via ``ray.data.read_lance``, when the ``lance`` package is importable and
the path is a Lance dataset) or hive-partitioned / plain parquet (the
stand-in format in this container, where pylance is not installed). The
rest of the pipeline is format-agnostic: everything downstream sees the
same Arrow schema.

Column pruning is pushed into both readers (Lance is columnar like
parquet; ``columns=`` prunes at the fragment read).
"""

from __future__ import annotations

import os

import ray.data as rd


def lance_available() -> bool:
    try:
        import lance  # noqa: F401

        return True
    except ImportError:
        return False


def is_lance_dataset(path: str) -> bool:
    """A Lance dataset is a directory with a ``_versions`` manifest dir
    (or conventionally named ``*.lance``)."""
    if path.endswith(".lance"):
        return True
    return os.path.isdir(os.path.join(path, "_versions"))


def read_images(path: str, columns: list[str] | None = None) -> rd.Dataset:
    """Images fact table → Dataset, Lance-first with parquet fallback.

    - Lance dataset + ``lance`` importable → ``rd.read_lance`` (pruned
      columns).
    - Lance dataset without the package → explicit ImportError (never a
      silent empty read).
    - anything else → ``rd.read_parquet`` (pruned columns). The flagship
      reads parquet through ``ops.ParquetRowRanges`` instead.
    """
    if is_lance_dataset(path):
        if not lance_available():
            raise ImportError(
                f"{path} is a Lance dataset but the 'lance' package is not "
                "installed; install pylance or provide parquet input"
            )
        return rd.read_lance(path, columns=columns)
    return rd.read_parquet(path, columns=columns)

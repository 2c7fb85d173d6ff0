"""Lance ingestion shim: parquet fallback must be transparent; Lance paths
without the package must fail loudly (never a silent empty read)."""

from __future__ import annotations

import pyarrow as pa
import pyarrow.parquet as pq
import pytest


class TestLanceShim:
    def test_parquet_fallback_reads(self, ray_session, tmp_path):
        from citygml2objv2_ray.sources.lance import is_lance_dataset, read_images

        t = pa.table({"a": [1, 2, 3], "b": ["x", "y", "z"]})
        d = tmp_path / "imgs"
        d.mkdir()
        pq.write_table(t, d / "part.parquet")
        assert not is_lance_dataset(str(d))
        ds = read_images(str(d), columns=["a"])
        assert ds.count() == 3
        assert ds.schema().names == ["a"]

    def test_lance_path_without_package_raises(self, tmp_path):
        from citygml2objv2_ray.sources import lance as shim

        d = tmp_path / "ds.lance"
        d.mkdir()
        if shim.lance_available():
            pytest.skip("lance installed in this environment")
        assert shim.is_lance_dataset(str(d))
        with pytest.raises(ImportError, match="Lance"):
            shim.read_images(str(d))

    def test_versions_dir_detected(self, tmp_path):
        from citygml2objv2_ray.sources.lance import is_lance_dataset

        d = tmp_path / "tbl"
        (d / "_versions").mkdir(parents=True)
        assert is_lance_dataset(str(d))

"""The one atomic write (repro.common.files.durable_write)."""

import gzip
import os

import pytest

from repro.common.files import durable_write, open_text


class Boom(Exception):
    pass


class TestDurableWrite:
    def test_replaces_the_target_and_leaves_no_temp_file(self, tmp_path):
        path = tmp_path / "entry.json"
        path.write_text("old")
        with durable_write(str(path)) as handle:
            handle.write("new")
            assert path.read_text() == "old"  # readers still see the old file
        assert path.read_text() == "new"
        assert os.listdir(tmp_path) == ["entry.json"]

    def test_temp_file_sits_beside_the_target_with_its_suffix(self, tmp_path):
        with durable_write(str(tmp_path / "deep" / "out.trace.gz")) as handle:
            (temp,) = os.listdir(tmp_path / "deep")
        assert temp.startswith(".tmp-") and temp.endswith(".gz")
        assert handle.closed

    def test_gz_target_is_gzipped(self, tmp_path):
        path = str(tmp_path / "t.trace.gz")
        with durable_write(path) as handle:
            handle.write("1 2 0\n")
        with gzip.open(path, "rt", encoding="utf-8") as raw:
            assert raw.read() == "1 2 0\n"
        with open_text(path) as handle:
            assert handle.read() == "1 2 0\n"

    def test_an_exception_unlinks_the_temp_file_and_keeps_the_target(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text("old")
        with pytest.raises(Boom):
            with durable_write(str(path)) as handle:
                handle.write("half")
                raise Boom
        assert path.read_text() == "old"
        assert os.listdir(tmp_path) == ["report.json"]

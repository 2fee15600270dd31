import os

import pytest

from tsl._util import atomic_write_text


class TestAtomicWrite:
    def test_writes_and_replaces(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write_text(path, "first\n")
        atomic_write_text(path, "second\n")
        assert path.read_text() == "second\n"
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_failed_replace_keeps_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "out.txt"
        path.write_text("old\n")

        def refuse(src, dst):
            raise OSError("replace refused")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="replace refused"):
            atomic_write_text(path, "new\n")
        assert path.read_text() == "old\n"
        assert not list(tmp_path.glob("*.tmp"))
        assert os.listdir(tmp_path) == ["out.txt"]

"""The one writer of every CLI output: in-place rewrites, creation and the returned digest."""

import hashlib
import os
import stat
from pathlib import Path

import pytest

from mechid.cli import main
from mechid.jsonio import write_text

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
TEXT = '{\n  "label": "λ-stretch",\n  "value": 0.10000000000000001\n}\n'
DATA = TEXT.encode("utf-8")


@pytest.mark.parametrize("old_size", [len(DATA) + 4096, len(DATA) - 7, len(DATA), 0])
def test_a_rewrite_leaves_exactly_the_new_bytes(tmp_path, old_size):
    path = tmp_path / "report.json"
    path.write_bytes(b"#" * old_size)
    write_text(path, TEXT)
    assert path.read_bytes() == DATA


def test_a_write_taken_one_byte_at_a_time_is_complete(tmp_path, monkeypatch):
    path = tmp_path / "report.json"
    path.write_bytes(b"#" * (2 * len(DATA)))
    real_write = os.write
    calls = []

    def one_byte(fd, data):
        calls.append(len(data))
        return real_write(fd, bytes(data[:1]))

    monkeypatch.setattr(os, "write", one_byte)
    digest = write_text(path, TEXT)
    monkeypatch.undo()
    assert path.read_bytes() == DATA
    assert calls == list(range(len(DATA), 0, -1))
    assert digest == hashlib.sha256(DATA).hexdigest()


def test_a_directory_at_the_target_is_an_error(tmp_path, capsys):
    (tmp_path / "report.json").mkdir()
    with pytest.raises(OSError):
        write_text(tmp_path / "report.json", TEXT)
    out = tmp_path / "run"
    (out / "report.json").mkdir(parents=True)
    assert main(["commutant", str(FIXTURES / "commutant_shared.json"), "--output-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out / "report.json") in err and err.count("\n") == 1, err


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
def test_a_new_file_gets_the_mode_write_bytes_gives(tmp_path, umask):
    previous = os.umask(umask)
    try:
        write_text(tmp_path / "written", TEXT)
        (tmp_path / "reference").write_bytes(DATA)
    finally:
        os.umask(previous)
    modes = [stat.S_IMODE((tmp_path / name).stat().st_mode) for name in ("written", "reference")]
    assert modes[0] == modes[1] == 0o666 & ~umask


def test_the_digest_is_the_sha256_of_the_bytes_on_disk(tmp_path):
    path = tmp_path / "table.csv"
    for text in (TEXT, "t,z_1\r\n1,0.5\r\n", ""):
        digest = write_text(path, text)
        assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
        assert path.read_bytes() == text.encode("utf-8")

"""Every text file the package accepts is read by ``artifacts.text_lines``:
the four dataset files, an edge list, a --config file and a checkpoint
manifest.  Each raises its own module's error naming the path when the file
cannot be opened, and naming path:line when a line is not UTF-8."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

from unfoldgnn.artifacts import text_lines
from unfoldgnn.cli import CliError, parse_config_file
from unfoldgnn.data import DatasetError, load_dataset
from unfoldgnn.graph import GraphError, read_edge_list
from unfoldgnn.model import CheckpointError, load_checkpoint, save_checkpoint

SRC = Path(__file__).resolve().parents[1] / "src" / "unfoldgnn"


def _dataset(tmp_path, name):
    d = tmp_path / "data"
    d.mkdir()
    (d / "edges.tsv").write_text("# comment\n0\t1\n1\t2\n")
    (d / "features.csv").write_text("1.0,2.0\n0.5,0.0\n-1.0,3.5\n")
    (d / "labels.csv").write_text("0\n1\n0\n")
    (d / "masks.csv").write_text("1,0,0\n0,1,0\n0,0,1\n")
    return d / name, lambda: load_dataset(d), DatasetError


def _edge_list(tmp_path):
    path = tmp_path / "edges.tsv"
    path.write_text("0\t1\n1\t2\n")
    return path, lambda: read_edge_list(path), GraphError


def _config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("train.epochs=5\nunfold.steps=4\n")
    return path, lambda: parse_config_file(path), CliError


def _manifest(tmp_path):
    save_checkpoint({"w": np.ones((2, 3)), "b": np.zeros(3)}, tmp_path / "ckpt")
    return tmp_path / "ckpt" / "manifest.txt", lambda: load_checkpoint(tmp_path / "ckpt"), \
        CheckpointError


# name -> tmp_path -> (the file, a call that reads it, the error it raises)
INPUTS = {
    **{name: lambda tmp_path, name=name: _dataset(tmp_path, name)
       for name in ("edges.tsv", "features.csv", "labels.csv", "masks.csv")},
    "read_edge_list": _edge_list,
    "--config": _config,
    "manifest": _manifest,
}


@pytest.mark.parametrize("name", INPUTS)
class TestEveryInput:
    def test_valid_file_reads(self, name, tmp_path):
        _, read, _ = INPUTS[name](tmp_path)
        read()

    def test_missing_file_names_its_path(self, name, tmp_path):
        path, read, error = INPUTS[name](tmp_path)
        path.unlink()
        with pytest.raises(error, match=f"^{re.escape(f'cannot read {path}: No such file')}"):
            read()

    def test_directory_names_its_path(self, name, tmp_path):
        path, read, error = INPUTS[name](tmp_path)
        path.unlink()
        path.mkdir()
        with pytest.raises(error, match=f"^{re.escape(f'cannot read {path}: Is a directory')}$"):
            read()

    def test_line_not_utf8_names_path_and_line(self, name, tmp_path):
        # a Latin-1 comment: the file must be UTF-8 throughout
        path, read, error = INPUTS[name](tmp_path)
        first, rest = path.read_bytes().split(b"\n", 1)
        path.write_bytes(first + b"\n# caf\xe9\n" + rest)
        with pytest.raises(error, match=f"^{re.escape(f'{path}:2: not UTF-8 text')}$"):
            read()


class TestTextLines:
    def test_strips_and_skips_but_counts_every_line(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_bytes(b"  a b \n\n# note\r\nc\r\n   \t\nd\re\n")
        assert list(text_lines(path, ValueError)) == [
            (f"{path}:1", "a b"), (f"{path}:4", "c"), (f"{path}:6", "d"), (f"{path}:7", "e")]

    def test_opens_before_any_line_is_asked_for(self, tmp_path):
        with pytest.raises(CliError, match="cannot read"):
            text_lines(tmp_path / "nope.cfg", CliError)

    def test_undecodable_line_past_the_first_read_is_named_exactly(self, tmp_path):
        path = tmp_path / "labels.csv"
        lines = [b"1"] * 5000
        lines[3999] = b"\xc3("
        path.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:4000: not UTF-8 text$"):
            list(text_lines(path, ValueError))

    def test_utf8_beyond_ascii_reads(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("# café\nnaïve\n", encoding="utf-8")
        assert list(text_lines(path, ValueError)) == [(f"{path}:2", "naïve")]


# ---------------------------------------------------------------------------
# reverse check: only artifacts.py reads a text file
# ---------------------------------------------------------------------------

READ_CALLS = {"read_text", "readline", "readlines", "loadtxt", "genfromtxt"}


def _text_reads(source):
    """Line numbers of the calls in source that open a file for reading
    (``open`` in a mode without w, a or x) or read text another way."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name == "open":
            mode = node.args[1] if len(node.args) > 1 else next(
                (kw.value for kw in node.keywords if kw.arg == "mode"), None)
            mode = mode.value if isinstance(mode, ast.Constant) else "r"
            if not set(mode) & set("wax"):
                found.append(node.lineno)
        elif name in READ_CALLS:
            found.append(node.lineno)
    return found


def test_the_check_sees_a_line_reader():
    source = ("with open(path, encoding='utf-8') as fh:\n"
              "    for line in fh:\n"
              "        pass\n"
              "rows = Path(p).read_text().splitlines()\n"
              "with open(path, 'w') as fh:\n"
              "    pass\n")
    assert _text_reads(source) == [1, 4]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")
                                          if p.name != "artifacts.py"))
def test_only_artifacts_reads_text_files(module):
    lines = _text_reads((SRC / module).read_text(encoding="utf-8"))
    assert not lines, (f"{module} reads a file at line(s) {lines}; "
                       f"iterate artifacts.text_lines instead")

import argparse
import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "same_outputs", Path(__file__).resolve().parent.parent / "tools" / "same_outputs.py")
same_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_outputs)


def _tree(root: Path, files: dict) -> Path:
    for name, data in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_bytes(data)
    return root


FILES = {"scan.csv": b"xi_1,intensity\n0,1\n", "lr.json": b"{}\n", "exits.txt": b"scan.csv: exit 0\n"}


def test_identical_directories(tmp_path):
    a, b = _tree(tmp_path / "a", FILES), _tree(tmp_path / "b", FILES)
    assert same_outputs._differing(a, b) == []


def test_directories_differing_in_one_file(tmp_path):
    a = _tree(tmp_path / "a", FILES)
    b = _tree(tmp_path / "b", {**FILES, "scan.csv": b"xi_1,intensity\n0,1.0000000000000002\n"})
    assert same_outputs._differing(a, b) == ["scan.csv"]


def test_a_file_on_one_side_differs(tmp_path):
    a = _tree(tmp_path / "a", FILES)
    b = _tree(tmp_path / "b", {**FILES, "sub/extra.csv": b""})
    assert same_outputs._differing(a, b) == same_outputs._differing(b, a) == ["sub/extra.csv"]


def test_commands_cover_every_leaf_command():
    from quasidiff.cli import _build_parser

    def leaves(parser, path=()):
        subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        return {leaf for a in subs for name, p in a.choices.items() for leaf in leaves(p, (*path, name))} or {path}

    found = leaves(_build_parser())
    assert len(found) == 13
    for leaf in found:
        assert any(argv[: len(leaf)] == leaf for _, argv in same_outputs.COMMANDS), leaf

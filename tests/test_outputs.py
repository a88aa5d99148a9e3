"""Output files: every file the package writes is opened by
`space._open_output`, which replaces a file already at the path instead of
truncating it (its docstring says why), so a rerun into the same directory
gives the bytes of a run into an empty one.  The package's reads of CSV
tables, and its measurements, each have one site too."""

import ast
import os
from pathlib import Path

import pytest

from flashtune.cli import main
from flashtune.space import _open_output, _write_csv

from conftest import load_rig_script

SRC = Path(__file__).resolve().parents[1] / "src" / "flashtune"


def tree_bytes(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_rewriting_an_output_gives_the_bytes_of_a_write_into_an_empty_directory(tmp_path):
    rows = [[0, 0.5], [1, 2.0]]
    fresh, rewritten = tmp_path / "fresh.csv", tmp_path / "rewritten.csv"
    rewritten.write_bytes(b"an earlier, longer file\r\n" * 100)
    _write_csv(fresh, ["a", "b"], rows)
    _write_csv(rewritten, ["a", "b"], rows)
    assert rewritten.read_bytes() == fresh.read_bytes() == b"a,b\n0,0.5\n1,2.0\n"


def test_a_reader_of_the_old_file_keeps_reading_the_old_bytes(tmp_path):
    """Truncating in place would show the reader the new bytes (or none)."""
    path = tmp_path / "out.txt"
    path.write_bytes(b"old\n")
    with open(path, "rb") as old:
        with _open_output(path) as fh:
            fh.write("new\n")
        assert old.read() == b"old\n"
    assert path.read_bytes() == b"new\n"


@pytest.mark.parametrize("kind", ["symlink", "hard link", "read-only file"])
def test_what_sits_at_the_path_is_replaced_by_a_plain_file(tmp_path, kind):
    target, path = tmp_path / "target.txt", tmp_path / "out.txt"
    target.write_bytes(b"target\n")
    if kind == "symlink":
        path.symlink_to(target)
    elif kind == "hard link":
        os.link(target, path)
    else:
        path.write_bytes(b"old\n")
        path.chmod(0o444)
    with _open_output(path) as fh:
        fh.write("new\n")
    assert not path.is_symlink() and path.read_bytes() == b"new\n"
    assert target.read_bytes() == b"target\n"


def test_a_file_that_appears_after_the_unlink_is_not_written_through(tmp_path, monkeypatch):
    """The new file is opened exclusively: one that another writer creates
    between the unlink and the open raises FileExistsError and keeps its bytes."""
    path = tmp_path / "out.txt"
    path.write_bytes(b"old\n")
    unlink = Path.unlink

    def unlink_and_recreate(self, missing_ok=False):
        unlink(self, missing_ok=missing_ok)
        self.write_bytes(b"other writer\n")

    monkeypatch.setattr(Path, "unlink", unlink_and_recreate)
    with pytest.raises(FileExistsError):
        _open_output(path)
    assert path.read_bytes() == b"other writer\n"


def test_a_missing_parent_directory_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        _write_csv(tmp_path / "missing" / "out.csv", ["a"], [])
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("inside", [[], ["kept.txt"]])
def test_a_directory_at_the_output_path_raises_and_is_left_as_it_was(tmp_path, inside):
    """Linux raises IsADirectoryError and macOS PermissionError."""
    path = tmp_path / "out.csv"
    path.mkdir()
    for name in inside:
        (path / name).write_bytes(b"kept\n")
    with pytest.raises(OSError):
        _write_csv(path, ["a"], [])
    assert path.is_dir()
    assert {p.name: p.read_bytes() for p in path.iterdir()} == {name: b"kept\n" for name in inside}


def test_tune_twice_into_one_directory_leaves_the_same_files(tmp_path):
    synth = tmp_path / "synth"
    assert main(["synth", "--kind", "single-peak", "--options", "6", "--out", str(synth)]) == 0
    out = tmp_path / "out"
    args = ["tune", "--manifest", str(synth / "manifest.txt"), "--data", str(synth / "data.csv"),
            "--size", "8", "--budget", "5", "--seed", "1", "--dump-tree", "--out", str(out)]
    assert main(args) == 0
    first = tree_bytes(out)
    assert main(args) == 0
    assert tree_bytes(out) == first
    assert sorted(first) == ["summary.txt", "trace.csv", "tree.txt"]


def test_experiment_twice_into_one_directory_leaves_the_same_files(tmp_path):
    out = tmp_path / "out"
    args = ["experiment", "--kind", "interaction", "--options", "6", "--methods", "flash,random",
            "--repeats", "2", "--size", "8", "--budget", "5", "--seed", "9", "--out", str(out)]
    assert main(args) == 0
    first = tree_bytes(out)
    assert main(args) == 0
    assert tree_bytes(out) == first
    assert len(first) == 4


def test_the_rig_script_twice_into_one_directory_leaves_the_same_files(tmp_path, capsys):
    rig = load_rig_script()
    argv = ["--out", str(tmp_path / "rig"), "--repeats", "1", "--options", "4"]
    assert rig.main(argv) == 0
    first = tree_bytes(tmp_path / "rig")
    assert rig.main(argv) == 0
    assert tree_bytes(tmp_path / "rig") == first
    assert len(first) == 3 * 4


# --- the package's writes, found by reading its source -----------------------

def opens_for_writing(call: ast.Call) -> bool:
    """Whether an `open` call's mode is not a string literal or holds one of
    "w", "a", "x" and "+".  The builtin `open`, `io.open`, `os.open` and
    `os.fdopen` take the mode second; a method such as `Path.open` first."""
    mode = next((kw.value for kw in call.keywords if kw.arg in ("mode", "flags")), None)
    if mode is None:
        f = call.func
        index = 1 if isinstance(f, ast.Name) or (
            isinstance(f.value, ast.Name) and f.value.id in ("io", "os")) else 0
        if len(call.args) <= index:
            return False  # read-only by default
        mode = call.args[index]
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return bool(set(mode.value) & set("wax+"))
    return True


def writes(source: str) -> list[tuple[str, str]]:
    """(enclosing function, call) of each call in `source` that can write a
    file: `write_text`, `write_bytes`, or an `open` for writing."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if isinstance(node, ast.Call):
            f = node.func
            name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
            if name in ("write_text", "write_bytes") or (
                    name in ("open", "fdopen") and opens_for_writing(node)):
                found.append((scope, name))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "<module>")
    return found


@pytest.mark.parametrize("line, expected", [
    ("Path(p).write_text(s)", [("f", "write_text")]),
    ("p.write_bytes(b)", [("f", "write_bytes")]),
    ("open(p, 'w')", [("f", "open")]),
    ("open(p, mode='ab')", [("f", "open")]),
    ("io.open(p, 'x', encoding='utf-8')", [("f", "open")]),
    ("Path(p).open('r+')", [("f", "open")]),
    ("os.open(p, os.O_WRONLY)", [("f", "open")]),
    ("open(p, m)", [("f", "open")]),
    ("os.fdopen(fd, 'w')", [("f", "fdopen")]),
    ("open(p)", []),
    ("open(p, 'rb')", []),
    ("open(p, newline='', encoding='utf-8-sig')", []),
    ("Path(p).open()", []),
])
def test_the_scan_finds_every_kind_of_write(line, expected):
    assert writes(f"def f():\n    {line}\n") == expected


def test_the_package_writes_files_only_through_the_output_helper():
    found = [(path.name, *w) for path in sorted(SRC.glob("*.py"))
             for w in writes(path.read_text(encoding="utf-8"))]
    assert found == [("space.py", "_open_output", "open")]


# --- the package's measurements and CSV reads, found by reading its source -----

def attribute_references(source: str, attr: str) -> list[str]:
    """Dotted class and function scope of each reference in `source` to an
    attribute named `attr`: every call of one, and every alias taken."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = (*scope, node.name)
        if isinstance(node, ast.Attribute) and node.attr == attr:
            found.append(".".join(scope) or "<module>")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


@pytest.mark.parametrize("source, expected", [
    ("def f(o):\n    return o.measure(c)\n", ["f"]),
    ("class A:\n    def g(self):\n        m = self.o.measure\n", ["A.g"]),
    ("x = oracle.measure(c)\n", ["<module>"]),
    ("class A:\n    def measure(self, c):\n        return c\n", []),
])
def test_the_scan_finds_every_measure_reference(source, expected):
    assert attribute_references(source, "measure") == expected


def test_the_package_measures_only_in_the_trace():
    found = sorted(f"{path.stem}.{scope}" for path in SRC.glob("*.py")
                   for scope in attribute_references(path.read_text(encoding="utf-8"), "measure"))
    assert found == ["runs.Trace.take"]


def test_the_package_reads_csv_only_in_the_shared_reader():
    """A data file and a front file are read by one parser, so they follow
    one set of rules: only `space` imports `csv`, and it calls `csv.reader`
    only in `_read_csv`."""
    importers = sorted(path.stem for path in SRC.glob("*.py")
                       for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                       if isinstance(node, ast.Import) and any(a.name == "csv" for a in node.names)
                       or isinstance(node, ast.ImportFrom) and node.module == "csv")
    assert importers == ["space"]
    source = (SRC / "space.py").read_text(encoding="utf-8")
    assert attribute_references(source, "reader") == ["_read_csv", "_read_csv"]

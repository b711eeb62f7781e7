import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from stratselect import cli

ROOT = Path(__file__).resolve().parent.parent
GAME = str(ROOT / "scenarios" / "noise_gap_s10.json")


def compare(a, b, *flags):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "compare_outputs.py"), str(a), str(b), *flags],
        capture_output=True, text=True,
    )


def test_identical_directories_have_no_changed_cells(tmp_path, capsys):
    out = tmp_path / "a"
    out.mkdir()
    assert cli.main(["solve", "--config", GAME]) == 0
    (out / "game.solve.json").write_text(capsys.readouterr().out, encoding="utf-8")
    grid = ["--grid", "100:1000:2:log", "--out", str(out / "dropout.csv")]
    assert cli.main(["dropout", "--config", GAME, *grid]) == 0

    result = compare(out, out)
    assert result.returncode == 0, result.stdout
    rows = [line.split() for line in result.stdout.splitlines()[1:]]
    assert [name for name, _, _ in rows] == ["dropout.csv", "game.solve.json"]
    for _, counts, max_rel in rows:
        changed, total = map(int, counts.split("/"))
        assert changed == 0 < total
        assert float(max_rel) == 0.0

    # One digit moved in one cell is found and measured.
    other = tmp_path / "b"
    shutil.copytree(out, other)
    csv_path = other / "dropout.csv"
    text = csv_path.read_text(encoding="utf-8")
    cell = text.splitlines()[2].split(",")[1]  # first theta_d, a plain decimal
    digit = "1" if cell[-5] != "1" else "2"  # far enough left to move the double
    moved = cell[:-5] + digit + cell[-4:]
    csv_path.write_text(text.replace(cell, moved, 1), encoding="utf-8")
    result = compare(out, other)
    assert result.returncode == 1
    rows = {line.split()[0]: line.split()[1:] for line in result.stdout.splitlines()[1:]}
    assert rows["dropout.csv"][0].startswith("1/")
    a, b = float(cell), float(moved)
    assert float(rows["dropout.csv"][1]) == pytest.approx(abs(a - b) / max(a, b), rel=1e-2)
    assert rows["game.solve.json"][0].startswith("0/")


def test_max_rel_passes_only_small_numeric_changes(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    (a / "x.csv").write_text("t,theta\n1,2.0\n2,4.0\n", encoding="utf-8")
    (b / "x.csv").write_text("t,theta\n1,2.0000000000002\n2,4.0\n", encoding="utf-8")
    assert compare(a, b).returncode == 1
    assert compare(a, b, "--max-rel", "1e-12").returncode == 0
    assert compare(a, b, "--max-rel", "1e-14").returncode == 1
    (b / "x.csv").write_text("t,theta\n1,2.0\n2,nope\n", encoding="utf-8")
    assert compare(a, b, "--max-rel", "1e300").returncode == 1
    (b / "x.csv").write_text("t,theta\n1,2.0\n2,4.0\n", encoding="utf-8")
    (b / "extra.csv").write_text("1\n", encoding="utf-8")
    assert compare(a, b, "--max-rel", "1e300").returncode == 1

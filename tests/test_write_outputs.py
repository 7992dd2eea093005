"""The command list and the value-by-value diff of scripts/write_outputs.py."""

import argparse
import math

from binrisk.cli import build_parser
from write_outputs import COMMANDS, compare_values, report


def test_every_subcommand_has_a_reviewed_output():
    (subcommands,) = (
        action.choices
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    assert set(subcommands) - {command.split()[0] for command in COMMANDS} == set()


def _tree(root, files):
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text)
    return root


def test_compare_values():
    assert compare_values("p,v\n0.1,2\n", "p,v\n0.1,2\n") == (0, 4, 0.0)
    assert compare_values("p,v\n0.1,4\n", "p,v\n0.1,5\n") == (1, 4, 0.2)
    assert compare_values("exit: ok\n", "exit: failed\n") == (1, 2, math.inf)
    assert compare_values("1,2\n", "1,2,3\n") is None


def test_identical_dirs_exit_0(tmp_path, capsys):
    files = {"cmd01.stdout": "x,1.5\n", "figures/a.csv": "p,v\n0.1,2\n"}
    assert report(_tree(tmp_path / "new", files), _tree(tmp_path / "old", files)) == 0
    assert capsys.readouterr().out == "2 of 2 files identical\n"


def test_differing_dirs_list_each_file_and_exit_1(tmp_path, capsys):
    old = {
        "number.csv": "p,v\n0.1,4\n",
        "word.stderr": "error: bad\n",
        "count.stdout": "1,2\n",
        "same.exit": "0\n",
        "gone.exit": "0\n",
    }
    new = {
        "number.csv": "p,v\n0.1,5\n",
        "word.stderr": "error: good\n",
        "count.stdout": "1,2,3\n",
        "same.exit": "0\n",
        "figures/added.csv": "p\n",
    }
    new_dir, old_dir = _tree(tmp_path / "new", new), _tree(tmp_path / "old", old)
    assert report(new_dir, old_dir) == 1
    assert capsys.readouterr().out.splitlines() == [
        "count.stdout: the number of values differs",
        f"figures/added.csv: only in {new_dir}",
        f"gone.exit: only in {old_dir}",
        "number.csv: 1 of 4 values changed, largest relative change 0.2",
        "word.stderr: 1 of 2 values changed, largest relative change inf",
        "1 of 6 files identical",
    ]

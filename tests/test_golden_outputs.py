"""Golden digests: a fast slice of the CLI's outputs must not change.

tests/golden_outputs.json holds, for each command below, its exit status
and the SHA-256 of the bytes it writes to stdout and to its --out CSV (null
for a command without --out). The test reruns every command in process
through cli.main. A change that moves a value on purpose lists the changed
values, as scripts/write_outputs.py --against reports them, and rewrites
the digests with

    PYTHONPATH=src python tests/test_golden_outputs.py --write
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from binrisk.cli import main

GOLDEN = Path(__file__).with_name("golden_outputs.json")

# "F" stands for the CSV path of --out.
COMMANDS = (
    *(
        f"risk-curve --n {n} --p-bar {p_bar} --grid 512 --out F"
        for n in (1, 5, 9)
        for p_bar in (0.1, 0.2, 0.3, 0.4)
    ),
    "dominance --n 5 --p-bar 0.3 --grid 128 --out F",
    "estimate --n 50 --p-bar 0.2 --p 0.1 --mc-samples 100 --out F",
    "threshold --a 2",
    "predictive --n 6 --l 4 --x 2 --p-lo 0.1 --p-bar 0.4 --out F",
    "dominance --n 64 --a 0.5 --b 2 --p-bar 0.5 --out F",
    "dominance --n 40 --a 2 --b 3 --p-lo 0.1 --p-bar 0.3 --out F",
    "risk-curve --n 900 --a 0.5 --b 3 --p-bar 0.5 --grid 64 --out F",
    "estimate --n 5000 --p-bar 0.2 --p 0.01",
)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests() -> dict[str, dict]:
    """Exit status and output digests of every command, run in process."""
    found = {}
    with tempfile.TemporaryDirectory() as tmp:
        csv_path = Path(tmp) / "out.csv"
        for command in COMMANDS:
            csv_path.unlink(missing_ok=True)
            argv = [str(csv_path) if arg == "F" else arg for arg in command.split()]
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                status = main(argv)
            found[command] = {
                "exit": status,
                "stdout_sha256": _sha256(stdout.getvalue().encode()),
                "csv_sha256": _sha256(csv_path.read_bytes()) if csv_path.exists() else None,
            }
    return found


def test_outputs_match_the_golden_digests():
    golden = json.loads(GOLDEN.read_text())
    assert list(golden) == list(COMMANDS)
    found = digests()
    changed = [command for command in COMMANDS if found[command] != golden[command]]
    assert changed == []


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    GOLDEN.write_text(json.dumps(digests(), indent=2) + "\n")
    print(f"wrote {GOLDEN}")

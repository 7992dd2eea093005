"""Golden digests: no reviewed output may change.

tests/golden_outputs.json holds the SHA-256 of every file that
scripts/write_outputs.py writes, by file name, and the test recomputes them
in process through write_outputs.outputs. A change that moves a value on
purpose lists the changed values, as write_outputs.py --against a parent
checkout's outputs reports them, and rewrites the digests with

    PYTHONPATH=scripts python tests/test_golden_outputs.py --write
"""

import hashlib
import json
import sys
from pathlib import Path

from write_outputs import outputs

GOLDEN = Path(__file__).with_name("golden_outputs.json")


def digests() -> dict[str, str]:
    return {name: hashlib.sha256(text.encode()).hexdigest() for name, text in outputs().items()}


def test_outputs_match_the_golden_digests():
    golden, found = json.loads(GOLDEN.read_text()), digests()
    assert [n for n in sorted(golden.keys() | found.keys()) if golden.get(n) != found.get(n)] == []


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    GOLDEN.write_text(json.dumps(digests(), indent=1) + "\n")
    print(f"wrote {GOLDEN}")

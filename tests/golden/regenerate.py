"""Regenerate the golden-output corpus from the current code.

Run it from the repository root after a deliberate output change:

    PYTHONPATH=src python tests/golden/regenerate.py

It prints one line per record or demo whose bytes changed ("moved <id>")
or that is new ("new <id>"), and "no record moved" when none did.

The scene list, ``tests/golden/scenes.json``, is the corpus's input and is
not rewritten.
"""

import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(TESTS), str(TESTS.parent / "src")]

from golden_corpus import regenerate  # noqa: E402

if __name__ == "__main__":
    print("\n".join(regenerate()) or "no record moved")

"""The golden-output corpus: recorded ``newton-flow`` runs, replayed byte for byte.

``tests/golden/scenes.json`` lists every record: an id, the argv of one
in-process ``cli.main`` call, and the scene that the argv's ``{scene}``
names (written to a file before the call).  ``tests/golden/<subcommand>.txt``
holds each record's exit code, stdout and stderr as text, and
``tests/golden/demos/<stem>.txt`` each demo's stdout.  The bytes are those
of the platform named in each file's header; after a deliberate output
change, or on another platform, regenerate them with
``python tests/golden/regenerate.py``, which prints the records that moved.

A block is::

    @@ record <id>
    @@ argv <argv, space-joined>
    @@ exit <code>
    @@ stdout
    <stdout>
    @@ stderr
    <stderr>

A stream that does not end in a newline is followed by the line
``@@ no newline at end``, so that a block gives back both streams exactly.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from newton_flow import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
SCENES = GOLDEN / "scenes.json"
DEMOS = sorted((ROOT / "demos").glob("*.py"))
MARK = "@@ "


def platform_line() -> str:
    return f"{MARK}platform Python {platform.python_version()}, numpy {np.__version__}\n"


def load_records() -> list:
    return json.loads(SCENES.read_text(encoding="utf-8"))["records"]


def expected_path(subcommand: str) -> Path:
    return GOLDEN / f"{subcommand}.txt"


def demo_path(demo: Path) -> Path:
    return GOLDEN / "demos" / f"{demo.stem}.txt"


def run_record(record: dict, workdir: str) -> tuple:
    """(exit code, stdout, stderr) of the record's in-process ``cli.main``
    call, with NEWTON_FLOW_LOG unset and the scene path shown as {scene}."""
    path = os.path.join(workdir, "scene.json")
    if record.get("scene") is not None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record["scene"], fh)
    argv = [path if arg == "{scene}" else arg for arg in record["argv"]]
    out, err = io.StringIO(), io.StringIO()
    saved = os.environ.pop("NEWTON_FLOW_LOG", None)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:       # argparse's own refusals
                code = exc.code
    finally:
        if saved is not None:
            os.environ["NEWTON_FLOW_LOG"] = saved
    return (code, out.getvalue().replace(path, "{scene}"),
            err.getvalue().replace(path, "{scene}"))


def _stream(text: str) -> str:
    if any(line.startswith(MARK) for line in text.splitlines()):
        raise ValueError("a recorded stream has a line that starts with the block mark")
    if text and not text.endswith("\n"):
        return text + "\n" + MARK + "no newline at end\n"
    return text


def render_block(record: dict, code, out: str, err: str) -> str:
    return (f"{MARK}record {record['id']}\n"
            f"{MARK}argv {' '.join(record['argv'])}\n"
            f"{MARK}exit {code}\n"
            f"{MARK}stdout\n{_stream(out)}"
            f"{MARK}stderr\n{_stream(err)}")


def parse_blocks(text: str) -> dict:
    """{record id: block text} of an expected file; the header is skipped."""
    blocks, current = {}, None
    for line in text.splitlines(keepends=True):
        if line.startswith(MARK + "record "):
            current = line[len(MARK + "record "):].rstrip("\n")
            blocks[current] = ""
        if current is not None:
            blocks[current] += line
    return blocks


def by_subcommand(records: list) -> dict:
    groups = {}
    for record in records:
        groups.setdefault(record["argv"][0], []).append(record)
    return groups


def run_demo(demo: Path) -> subprocess.CompletedProcess:
    """The demo run as a fresh process from the source checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)


def what_moved(old: dict, new: dict) -> list:
    """One line per key of new whose text is not old's: "moved <key>", or
    "new <key>" for a key that old lacks; in new's order."""
    return [f"{'moved' if key in old else 'new'} {key}"
            for key, text in new.items() if old.get(key) != text]


def regenerate() -> list:
    """Rewrite every expected file from the current code, and return the
    ``what_moved`` lines of the records and demos (keyed demos/<stem>) against
    the files it rewrote."""
    old, new = {}, {}
    with tempfile.TemporaryDirectory() as workdir:
        for subcommand, records in by_subcommand(load_records()).items():
            path = expected_path(subcommand)
            if path.exists():
                old.update(parse_blocks(path.read_text(encoding="utf-8")))
            blocks = {record["id"]: render_block(record, *run_record(record, workdir))
                      for record in records}
            new.update(blocks)
            path.write_text(platform_line() + "".join(blocks.values()), encoding="utf-8")
    for demo in DEMOS:
        proc = run_demo(demo)
        if proc.returncode != 0 or proc.stderr:
            raise RuntimeError(f"{demo.name} failed: {proc.stderr}")
        key, path = f"demos/{demo.stem}", demo_path(demo)
        if path.exists():
            old[key] = path.read_text(encoding="utf-8")
        new[key] = proc.stdout
        path.write_text(proc.stdout, encoding="utf-8")
    return what_moved(old, new)

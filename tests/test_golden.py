"""No byte moved: every record of the golden-output corpus replays exactly.

Each record of ``tests/golden/scenes.json`` runs through in-process
``cli.main``, and its exit code, stdout and stderr must equal the text in
``tests/golden/<subcommand>.txt`` byte for byte (``golden_corpus`` has the
format).  Demo stdout is compared in ``test_demos.py``.
"""

import difflib

import pytest

from golden_corpus import (
    by_subcommand,
    expected_path,
    load_records,
    parse_blocks,
    render_block,
    run_record,
    what_moved,
)

GROUPS = by_subcommand(load_records())


def test_every_record_has_a_unique_id():
    ids = [record["id"] for record in load_records()]
    assert len(ids) == len(set(ids))


@pytest.mark.parametrize("subcommand", sorted(GROUPS))
def test_outputs_match_the_corpus(subcommand, tmp_path):
    text = expected_path(subcommand).read_text(encoding="utf-8")
    expected = parse_blocks(text)
    records = GROUPS[subcommand]
    assert sorted(expected) == sorted(r["id"] for r in records)
    moved = []
    for record in records:
        block = render_block(record, *run_record(record, str(tmp_path)))
        if block != expected[record["id"]]:
            moved.append("".join(difflib.unified_diff(
                expected[record["id"]].splitlines(keepends=True),
                block.splitlines(keepends=True), "corpus", "now")))
    header = text.splitlines()[0]
    assert not moved, (
        f"{len(moved)} of {len(records)} records moved (corpus {header}; a platform "
        "change may need tests/golden/regenerate.py):\n" + "\n".join(moved[:3]))


def test_what_moved_names_the_changed_and_the_new_records():
    def corpus(*blocks):
        return parse_blocks("@@ platform any\n" + "".join(
            f"@@ record {id_}\n@@ exit {code}\n" for id_, code in blocks))

    old = corpus(("gap/a", 0), ("gap/b", 3), ("gap/c", 0))
    assert what_moved(old, old) == []
    new = corpus(("gap/a", 0), ("gap/b", 0), ("gap/d", 3), ("gap/c", 0))
    assert what_moved(old, new) == ["moved gap/b", "new gap/d"]

"""Every command line of the golden corpus prints what its manifest pins.

The manifest and its recorder are in tests/golden; record.py says how
to re-record the manifest after a declared output change.
"""

import json

from golden.record import MANIFEST, run_corpus

MANIFEST_DATA = json.loads(MANIFEST.read_text(encoding="utf-8"))


def test_corpus_covers_every_command_and_exit_code():
    entries = MANIFEST_DATA["entries"]
    assert len(entries) >= 150
    assert {e["argv"][0] for e in entries if e["argv"]} == {"iterate", "verify", "fuzz", "proposition", "figure"}
    assert {e["exit"] for e in entries} == {0, 1, 2, 3}


def test_every_entry_matches_the_manifest():
    entries = MANIFEST_DATA["entries"]
    got = run_corpus(MANIFEST_DATA["documents"], [e["argv"] for e in entries])
    assert [" ".join(e["argv"]) for e, g in zip(entries, got) if e != g] == []

"""Every output family of every golden case hashes to its pin in
``baselines/outputs.json``; ``golden.py`` builds the corpus and writes the
pins again."""

import json

import golden


def test_outputs_match_pins():
    pinned = json.loads(golden.PINS.read_text())
    problems = golden.mismatches(pinned, golden.digests(golden.outputs()))
    assert not problems, f"{len(problems)} digests differ:\n" + "\n".join(problems[:40])

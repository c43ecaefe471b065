"""The verdicts and the emitted bytes of a fixed request set are those
recorded in ``tests/golden_manifest.json`` (see ``golden``)."""

import json

from golden import MANIFEST, differences, run_all


def test_every_request_prints_the_recorded_bytes():
    recorded = json.loads(MANIFEST.read_text())
    diff = differences(recorded, run_all())
    assert not diff, f"{len(diff)} of {len(recorded)} entries differ from the manifest:\n" + "\n".join(diff)

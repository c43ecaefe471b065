"""The CLI loads a higher layer only for the commands that run it, and a
bundled theory loads through the raw layer alone.

Each case runs ``gtt.cli.main`` (or loads a bundled theory) in a fresh
interpreter and reads back the ``gtt`` modules it imported.  Modules are
counted, not timed.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from corpus import THEORY, nested_pi
from gtt.judgements import EMPTY_CONTEXT
from gtt.jsonio import derivation_to_json, dumps

ROOT = pathlib.Path(__file__).resolve().parents[1]
BASE = ROOT / "fixtures" / "mltt_base.json"

REPORT = """
print(json.dumps([code, sorted(m for m in sys.modules if m == "gtt" or m.startswith("gtt."))]))
"""
CLI_PROBE = """
import json, sys
import gtt.cli
code = gtt.cli.main(sys.argv[1:])
""" + REPORT
BUNDLED_PROBE = """
import json, sys
import gtt.bundled
gtt.bundled.mltt_base()
code = 0
""" + REPORT


def loaded_modules(*argv, probe=CLI_PROBE) -> set[str]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cp = subprocess.run(
        [sys.executable, "-c", probe, *map(str, argv)],
        env=env, capture_output=True, text=True, check=True,
    )
    code, modules = json.loads(cp.stdout.splitlines()[-1])
    assert code == 0, cp.stderr
    return {m.removeprefix("gtt.") for m in modules}


@pytest.fixture(scope="module")
def derivation_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("layers") / "pi.json"
    path.write_text(dumps(derivation_to_json(THEORY, THEORY.signature, nested_pi(EMPTY_CONTEXT, 3).d_type)))
    return path


def test_check_derivation_loads_the_raw_layer_only(derivation_file):
    loaded = loaded_modules("check-derivation", BASE, derivation_file)
    assert {"theories", "jsonio", "cli"} <= loaded
    assert not loaded & {"metatheory", "presentation", "maps", "derive", "bundled", "congruence_witnesses"}


def test_presup_loads_neither_maps_nor_presentation(derivation_file):
    loaded = loaded_modules("presup", BASE, derivation_file)
    assert "metatheory" in loaded
    assert not loaded & {"presentation", "maps"}


def test_bundled_theory_loads_the_raw_layer_only():
    loaded = loaded_modules(probe=BUNDLED_PROBE)
    assert {"bundled", "jsonio", "theories"} <= loaded
    assert not loaded & {"metatheory", "presentation", "maps", "derive", "congruence_witnesses"}

"""The benchmark's traced runs wrap program functions by name.

``e2ebench/spans.py`` times each layer by replacing named methods and
functions (``MappingService._run_job``, ``Supervisor._dispatch``,
``JobLedger.claim``, ...) with timing wrappers.  A rename in the program
would only surface when the benchmark's traced run fails; this test
installs the same wrappers in a fresh interpreter and requires every
target to exist.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json
import spans

tracer = spans.Tracer()
spans.install(tracer, service=True)
print(json.dumps(tracer.missing))
"""


def test_every_wrap_target_exists():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "e2ebench")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    completed = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    missing = json.loads(completed.stdout.strip().splitlines()[-1])
    assert missing == []

"""The narrative demos run and print exactly what they printed before."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# SHA-256 of each demo's stdout; render_figure.py writes a file and is left out.
DEMO_DIGESTS = {
    "hump_arithmetic.py": "3b58961c13ad986e4729a57d9f7be439206e41983ffe010d179a66dcdec66eca",
    "level_set_safari.py": "11088276628b592df74009dd74cc9ae6708925fbe5bb8c434fd5545793ff75c9",
    "signed_walks.py": "cf7e08befefa45e647a18a995079cf1872b3b402e0c3c3397968a99af6c84502",
}


@pytest.mark.parametrize("script", sorted(DEMO_DIGESTS))
def test_demo_output(script):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script)],
        capture_output=True, env=env, check=True, timeout=60,
    )
    assert hashlib.sha256(result.stdout).hexdigest() == DEMO_DIGESTS[script]

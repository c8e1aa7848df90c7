"""Each demo runs to completion and prints exactly its recorded output.

The digests are SHA-256 of each demo's stdout; every demo is seeded, so a
change that moves a printed prefix, verdict, map or measure shows here.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*.py"))
STDOUT_DIGESTS = {
    "01_exact_measures.py": "2f5779798fe01f91807e0cbad3437a7aaaab9d1d841e6f831d297c52090c71e6",
    "02_sampling_exchangeability.py": "298524b2249cfd3d6749510907c4a9af516e9579206857b4480661f854dd6822",
    "03_randomness_tests.py": "204aed0b6baf9b5781c79298c1581bee17e9441b512048af2bba5b31f1abb0bc",
    "04_universal_structures.py": "2d0de9ae53bcbc2a82d469c26cf60fbfb9bac1c012b5bcea2508399f9cc95c24",
    "05_randomizers.py": "e3bb562ebc0e44ab152728b5cf715ec44869ee2fc236b173ed62c54ce2479c4e",
}


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, str(demo)], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    digest = hashlib.sha256(done.stdout.encode()).hexdigest()
    assert digest == STDOUT_DIGESTS[demo.name]

"""The example scripts: each runs at its documented arguments and prints what
it printed when pinned."""

import hashlib
import re
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

# sha256 of stdout, with the scan time in radical_explorer's verdict line
# replaced by "-"
PINNED = {
    ("orbit_demo.py",): "38e59fd0651b87cd7d1fc164f3823643646fb2d6bd5dcb9ab3cbe33f0be1390e",
    ("radical_explorer.py", "--p", "2", "--support", "1"):
        "71b863bdce939a3130fcd5b8f93d120126e66582819b4ef2e681d5eb89725912",
}


@pytest.mark.parametrize("argv", sorted(PINNED), ids=lambda argv: " ".join(argv))
def test_script_output_is_pinned(argv):
    proc = subprocess.run([sys.executable, str(SCRIPTS / argv[0]), *argv[1:]],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = re.sub(r", \d+\.\d+s\)$", ", -)", proc.stdout, flags=re.M)
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED[argv]

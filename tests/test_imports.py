"""What `import harmless.cli` loads.

Every run of the command line starts a fresh interpreter and imports
the package first, so each module it pulls in adds to the start-up time
of every call.  The package needs only the standard library.
"""

import os
import subprocess
import sys
from pathlib import Path

import harmless

SRC = str(Path(harmless.__file__).resolve().parents[1])

LIST_NEW_MODULES = """
import sys
before = set(sys.modules)
import harmless.cli
print(*sorted(set(sys.modules) - before), sep="\\n")
"""


def test_cli_imports_only_the_standard_library():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
    loaded = subprocess.run(
        [sys.executable, "-c", LIST_NEW_MODULES],
        env=env, capture_output=True, text=True, check=True,
    ).stdout.split()
    assert "harmless.cli" in loaded
    outside = [
        name for name in loaded
        if name.partition(".")[0] not in sys.stdlib_module_names | {"harmless"}
    ]
    assert outside == []

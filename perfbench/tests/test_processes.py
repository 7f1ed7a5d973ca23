"""No process the run starts may outlive it."""

from __future__ import annotations

import os
import subprocess
import sys

from perfbench.systems import adopt_orphans, stop_children


def test_stop_children_waits_for_an_orphaned_grandchild():
    adopt_orphans()
    # The child starts a grandchild that sleeps on, then exits at once.
    child = subprocess.run([
        sys.executable, "-c",
        "import subprocess, sys; "
        "print(subprocess.Popen([sys.executable, '-c', "
        "'import time; time.sleep(0.5)'], "
        "stdout=subprocess.DEVNULL).pid)",
    ], capture_output=True, text=True, check=True)
    grandchild = int(child.stdout)
    assert stop_children(timeout_s=30.0) == []
    assert not os.path.exists(f"/proc/{grandchild}")

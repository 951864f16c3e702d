import os
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "fast",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("fast")

# Runs its arguments as a child and prints the child's exit code and peak RSS.
_PEAK_RSS = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


@pytest.fixture
def boswit_peak_rss():
    """Runs ``boswit`` with the given arguments in a fresh process and returns
    its exit code and peak RSS in MiB (ru_maxrss is in KiB on Linux).

    A child's ru_maxrss starts from the resident size of the process that
    spawned it, so the command runs under a small helper, not under pytest.
    """

    def run(*args):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        argv = [sys.executable, "-c", _PEAK_RSS, sys.executable, "-m", "boswit.cli", *args]
        out = subprocess.run(argv, capture_output=True, env=env, check=True, text=True).stdout
        code, peak_kib = map(int, out.split())
        return code, peak_kib / 1024

    return run

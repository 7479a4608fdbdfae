import os
import sys

from gilt.cli import _THREAD_VARS  # imports no numerics

# One BLAS thread, as `GILT_THREADS=1` gives the CLI: on a loaded machine a
# multi-threaded BLAS waits on busy cores. numpy is not loaded yet here, so
# the cap holds for the whole session; a caller's own setting wins.
for _var in _THREAD_VARS:
    os.environ.setdefault(_var, "1")


def pytest_terminal_summary(terminalreporter):
    # acceptance verdicts are collected while the tests run; echo them after
    # capture is torn down so they show up in a plain `pytest` invocation
    mod = next((m for name, m in sys.modules.items()
                if name.rsplit(".", 1)[-1] == "test_acceptance"), None)
    lines = getattr(mod, "VERDICTS", ())
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)

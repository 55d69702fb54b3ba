"""Keep Hypothesis from writing into the checkout.

Even without an example database, Hypothesis caches constants of the
local modules under its home directory (./.hypothesis by default) while
pytest collects.  Point it at a temporary directory for the test run.
"""

import shutil
import tempfile

from hypothesis.configuration import set_hypothesis_home_dir

_home = None


def pytest_configure(config):
    global _home
    _home = tempfile.mkdtemp(prefix="skelcube-hypothesis-")
    set_hypothesis_home_dir(_home)


def pytest_unconfigure(config):
    set_hypothesis_home_dir(None)
    shutil.rmtree(_home, ignore_errors=True)

import shutil
import sys
import tempfile
from pathlib import Path

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

# make the shared gradcheck helper importable from any test module
sys.path.insert(0, str(Path(__file__).parent))

# Property tests draw the same examples on every run, keep no example
# database, and have no per-example time limit (timing is not a property).
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")


def pytest_configure(config):
    """Hypothesis caches what it parses from source files, starting while
    tests are collected; keep that cache in a throwaway directory instead of
    the working tree."""
    home = tempfile.mkdtemp(prefix="hypothesis-")
    set_hypothesis_home_dir(home)
    config.add_cleanup(lambda: shutil.rmtree(home, ignore_errors=True))

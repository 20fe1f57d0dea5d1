"""Hypothesis settings for the whole suite: a fixed, bounded set of examples and no example database."""

import tempfile
from pathlib import Path

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("stopgain", derandomize=True, database=None, deadline=None, max_examples=40)
settings.load_profile("stopgain")
# even without a database hypothesis caches the constants it finds in the
# source under its home directory; keep that cache out of the checkout
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "stopgain-hypothesis")

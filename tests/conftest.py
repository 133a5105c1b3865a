"""Settings shared by the test modules.

Hypothesis keeps its example database and caches in the checkout's
``.hypothesis/`` directory, whatever directory the tests are started from.
"""

from pathlib import Path

from hypothesis.configuration import set_hypothesis_home_dir

set_hypothesis_home_dir(Path(__file__).resolve().parents[1] / ".hypothesis")

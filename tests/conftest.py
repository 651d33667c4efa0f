import sys
from pathlib import Path

from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# one profile for every property test: no per-example deadline, since
# spectral examples at N = 512 vary in cost; max_examples stays per test
settings.register_profile("densgeo", deadline=None)
settings.load_profile("densgeo")

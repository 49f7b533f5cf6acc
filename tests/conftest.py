import os
import sys

from hypothesis import settings

# make the sibling oracle helpers importable regardless of invocation dir
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

# property tests draw the same examples on every run
settings.register_profile("resfluor", derandomize=True, deadline=None, max_examples=50)
settings.load_profile("resfluor")

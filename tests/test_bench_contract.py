"""The benchmark's contract with the package, checked in the main suite.

The tracer in ``perfbench/`` wraps package functions by name and the
Monte Carlo workloads call the fit recipes directly.  These two tests of the
benchmark are collected here as well, so that renaming or deleting a name the
benchmark uses fails the main suite and not only ``python3 -m pytest perfbench``.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))

from test_perfbench import (  # noqa: E402,F401
    test_traced_fits_are_bit_identical,
    test_tracer_wraps_every_binding_and_uninstalls,
)

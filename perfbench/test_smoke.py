"""Smoke test of the benchmark itself: tiny configs, every workload, both modes.

    python3 -m pytest perfbench/test_smoke.py
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import run  # noqa: E402


def test_every_metric_is_emitted_with_its_unit():
    assert run.main(["--smoke"]) == 0

"""Calls and opcodes per op of every library function match ``tools/call_counts.json``.

The table is written by ``tools/call_counts.py --write``; a change that moves
a count regenerates it, and its diff names each moved count.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.skipif(
    sys.version_info[:2] != (3, 11),
    reason="the table counts calls and opcodes as Python 3.11 makes them; 3.12 "
    "inlines comprehensions (PEP 709), so other versions count differently",
)
def test_calls_per_op_match_the_committed_table():
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "call_counts.py"), "--check"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout

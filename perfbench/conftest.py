"""Test set-up for the benchmark's own tests: python3 -m pytest perfbench -q"""

import run

run.prepare()

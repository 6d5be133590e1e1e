"""Wall times of the library runs past the CLI caps, as a Markdown table.

    PYTHONPATH=src python tests/past_caps.py

Each row is one library call with a size no CLI suite accepts: the psi
sweep's exhaustive atoms at n = 4 and n = 5 (85,169 and 1,958,887 atom
tensors), the cocycle at n = 6 with 100 samples per triple and freeness
at n = 4.  Each runs once, in this process, and its row gives the wall
time and whether its report passed; the n = 5 sweep takes most of the
run, 4-6 s of 5-7 s on a 2-core Xeon under Python 3.11.  The table is
for reading, not a gate: the script exits 0 whatever the times and
verdicts.
"""

import platform
import time

from tqps.multipullback import verify_freeness
from tqps.tensor_gluing import cocycle_check, psi_involution_check

RUNS = (
    ("psi_involution_check(4, samples=0)", lambda: psi_involution_check(4, samples=0)["passed"]),
    ("psi_involution_check(5, samples=0)", lambda: psi_involution_check(5, samples=0)["passed"]),
    ("cocycle_check(6, samples=100)", lambda: cocycle_check(6, samples=100)["passed"]),
    ("verify_freeness(4)", lambda: verify_freeness(4).free),
)


def main():
    print("Library runs past the CLI caps (Python %s)" % platform.python_version())
    print()
    print("| run | wall s | passed |")
    print("|---|---:|---|")
    for name, run in RUNS:
        start = time.perf_counter()
        passed = run()
        print("| `%s` | %.3f | %s |" % (name, time.perf_counter() - start, passed))


if __name__ == "__main__":
    main()

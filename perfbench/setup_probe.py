"""Time, in a fresh interpreter, importing rkwave and building its two kernels.

Usage: python3 perfbench/setup_probe.py <path to the src directory>
Prints the elapsed seconds.  Building the closed-form kernels runs the oracle
cross-check, so this is everything a solve needs before its first call.
"""

import sys
import time

if __name__ == "__main__":
    start = time.perf_counter()
    sys.path.insert(0, sys.argv[1])
    import rkwave

    rkwave.closed_form_kernel("R_spatial")
    rkwave.closed_form_kernel("r_temporal")
    print(repr(time.perf_counter() - start))

"""One cold start of orthomono's CLI in a fresh interpreter: import the
package and build the argument parser.  Prints the seconds it took.

Usage: python3 setup_probe.py SRC_DIR
"""

import sys
import time

if __name__ == "__main__":
    sys.path.insert(0, sys.argv[1])
    t0 = time.perf_counter()
    from orthomono import cli
    cli.build_parser()
    print(time.perf_counter() - t0)

"""Tschirnhaus reduction of the general polynomial.

The general degree-n polynomial has n coefficient parameters; shift and
root-scaling transformations cut this to n-2 whenever the characteristic
does not divide n (with tailored one-parameter forms in degrees 2 and 3).
The script reduces a few cases and then certifies one reduction by
specializing the parameters into a finite field and checking that the
composed root map carries f's roots onto h's, as one polynomial identity.

Run:  python3 demos/tschirnhaus_reduction.py
"""

import random

from edim.errors import PoleAtAssignment
from edim.exactfield import fq_context
from edim.tschirnhaus import (general_poly, parameter_count, reduce_general,
                              verify_specialization)


def main():
    for n, char in [(2, 0), (3, 0), (5, 0), (5, 2), (7, 3), (2, 2), (3, 3)]:
        h, record = reduce_general(n, char)
        steps = " , ".join(type(s).__name__ for s in record.steps) or "(none)"
        print("degree %d, char %d:  %d -> %d parameters   via %s"
              % (n, char, n, parameter_count(h), steps))

    n, char = 5, 0
    print()
    print("Certifying the degree-%d reduction by specialization over F_101:"
          % n)
    f = general_poly(n, char)
    h, record = reduce_general(n, char)
    ctx = fq_context(101, 1)
    rng = random.Random(0)
    done = 0
    while done < 5:
        assignment = {"t%d" % (i + 1): ctx.from_int(rng.randrange(101))
                      for i in range(n)}
        try:
            ok = verify_specialization(f, h, record, assignment, ctx)
        except PoleAtAssignment:
            continue  # the transformation has a pole here; resample
        vals = ", ".join("t%d=%s" % (i + 1, assignment["t%d" % (i + 1)])
                         for i in range(n))
        print("  %s  ->  %s" % (vals, "roots match" if ok else "MISMATCH"))
        done += 1


if __name__ == "__main__":
    main()

"""Cross-ratio rewriting and the S_n action.

Every cross-ratio [i,j;k,l] of n >= 5 points can be written as a rational
expression in the n-3 generator cross-ratios t_i = [1,2;3,i].  This pins
the function field K(x_1..x_n)^{PGL_2} down to K(t_4..t_n) and carries a
faithful S_n action.  The script rewrites a few symbols, verifies one
rewrite exactly, shows how a permutation acts on a generator, and runs the
certificate that S_n acts on K(t_4..t_n) faithfully: exact identities for
(1 2), (1 2 ... n) and (1 2 3).

Run:  python3 demos/cross_ratio_rewriting.py
"""

from edim.crossratio import (CRSymbol, apply_action, check_rewrite,
                             cr_rewrite, generator_symbol, sn_action,
                             verify_faithful)
from edim.ratfunc import render


def main():
    n = 5
    print("Rewrites in ambient n = %d (generators t_4, t_5):" % n)
    for idx in [(1, 2, 3, 4), (1, 2, 5, 4), (2, 1, 3, 4), (4, 5, 1, 2),
                (3, 4, 5, 1)]:
        sym = CRSymbol(n, idx)
        print("  [%d,%d;%d,%d]  =  %s" % (*idx, render(cr_rewrite(sym))))

    sym = CRSymbol(5, (4, 5, 1, 2))
    print()
    print("Exact check of the last-but-one rewrite:",
          "sound" if check_rewrite(sym) else "UNSOUND")

    print()
    print("Action of the transposition (1 2) on the generators:")
    sigma = (1, 0, 2, 3, 4)  # 0-based images
    action = sn_action(sigma)
    for i in (4, 5):
        t = cr_rewrite(generator_symbol(n, i))
        print("  t%d  ->  %s" % (i, render(apply_action(action, t))))

    print()
    for m in (5, 6, 7):
        rep = verify_faithful(m)
        print("Faithfulness of the S_%d action: %s (%d identities proven)"
              % (m, "verified" if rep.passed else "FAILED", rep.checked))


if __name__ == "__main__":
    main()

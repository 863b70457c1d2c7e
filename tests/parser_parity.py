"""The command-line parser against the argparse reference on a fixed corpus.

Runs without pytest or hypothesis, so it can check the parity under every
Python version that argparse's behaviour might differ in:

    PYTHONPATH=src python tests/parser_parity.py

It prints the number of command lines checked and every one on which the
parsers disagree, and exits 1 if there is any.
"""

import sys

from helpers import parity_corpus, parity_differences

if __name__ == "__main__":
    corpus = list(parity_corpus())
    differences = parity_differences(corpus)
    print(f"Python {sys.version.split()[0]}: {len(corpus)} command lines, "
          f"{len(differences)} differences", *differences, sep="\n")
    sys.exit(1 if differences else 0)

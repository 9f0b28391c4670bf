"""Reader of the Gaunt table text format, for the round-trip tests.

The header is ``d l n exactness``; each further line is ``i j k value``
for one canonical entry i <= j <= k, 1-based, and stands for all of its
index permutations.
"""

import itertools

import numpy as np


def read_gaunt_text(text: str):
    """(d, l, n, exactness, coefficients) of a table in the text format."""
    header, *lines = text.splitlines()
    d, l, n, exactness = (int(x) for x in header.split())
    coefficients = np.zeros((n, n, n))
    for line in filter(str.strip, lines):
        *abc, value = line.split()
        for idx in itertools.permutations(int(x) - 1 for x in abc):
            coefficients[idx] = float(value)
    return d, l, n, exactness, coefficients

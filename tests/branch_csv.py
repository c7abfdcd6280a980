"""Reads back a branch-weight CSV written by ``model.export_branch_weights``;
the export tests compare it with the parameters it came from."""

import csv

import numpy as np


def import_branch_weights(path: str) -> np.ndarray:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    shape = (int(header[2]), int(header[3]))
    vals = np.array([[float(x) for x in r] for r in rows[1:]], dtype=np.float64)
    if vals.shape != shape:
        raise ValueError(f"csv body {vals.shape} does not match header {shape}")
    return vals

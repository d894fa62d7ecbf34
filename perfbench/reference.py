"""Independent checks of the program's outputs.

Everything here is plain NumPy over raw arrays: CSR parts are expanded
to dense matrices by hand, TSV files are parsed with ``np.loadtxt``, and
the Graph Challenge recurrence is the textbook dense loop.  No function
of the program computes an expected value.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

THRESHOLD = 32.0
# the dense loop and the program sum the same products in different
# orders; activations are multiples of 1/16 clamped at 32, so 1e-9 is far
# above float64 round-off and far below any real difference
ACTIVATION_ATOL = 1e-9


def csr_to_dense(shape, indptr, indices, data) -> np.ndarray:
    """Dense matrix from CSR parts, built without the program's helpers."""
    dense = np.zeros(shape, dtype=np.float64)
    rows = np.repeat(np.arange(shape[0]), np.diff(np.asarray(indptr)))
    dense[rows, np.asarray(indices)] = np.asarray(data)
    return dense


def dense_layers(layers):
    """``(weight, bias)`` pairs as the generator yields them -> dense pairs."""
    for weight, bias in layers:
        yield (
            csr_to_dense(weight.shape, weight.indptr, weight.indices, weight.data),
            np.asarray(bias, dtype=np.float64),
        )


def dense_recurrence(layers, inputs: np.ndarray, threshold: float = THRESHOLD) -> np.ndarray:
    """``Y <- clip(Y W + b on rows with any activity, 0, threshold)`` per layer."""
    y = np.array(inputs, dtype=np.float64)
    for weight, bias in layers:
        active = y.sum(axis=1) > 0
        z = y @ weight
        z[active] += bias
        y = np.clip(z, 0.0, threshold)
    return y


def categories(activations: np.ndarray) -> np.ndarray:
    """Rows whose final activation row is nonzero (the challenge category set)."""
    return np.flatnonzero(activations.sum(axis=1) > 0)


def compare_rows(expected: np.ndarray, got: np.ndarray) -> str | None:
    """Categories exactly, activations within ``ACTIVATION_ATOL``."""
    if not np.array_equal(categories(expected), categories(got)):
        return "categories differ from the dense reference"
    if not np.allclose(expected, got, rtol=0.0, atol=ACTIVATION_ATOL):
        worst = float(np.max(np.abs(expected - got)))
        return f"activations differ from the dense reference by up to {worst:g}"
    return None


def compare_categories(expected: np.ndarray, got) -> str | None:
    """Served categories (request-local row indices) against the reference rows."""
    if not np.array_equal(categories(expected), np.asarray(got, dtype=np.int64)):
        return "served categories differ from the dense reference"
    return None


def check_challenge_files(directory: Path, neurons: int, layers: int, connections: int) -> list[str]:
    """Every written layer: ``connections`` nonzeros per row and column, all
    ``2 / connections``; the meta file's bias is -0.3."""
    problems = []
    weight = 2.0 / connections
    meta = (directory / f"neuron{neurons}-meta.tsv").read_text().split()
    if [int(meta[0]), int(meta[1])] != [neurons, layers]:
        problems.append(f"meta file records {meta[:2]}, expected {[neurons, layers]}")
    if float(meta[3]) != -0.3:
        problems.append(f"meta bias is {meta[3]}, expected -0.3")
    for index in range(1, layers + 1):
        triples = np.loadtxt(directory / f"neuron{neurons}-l{index}.tsv", delimiter="\t", ndmin=2)
        rows = triples[:, 0].astype(np.int64) - 1
        cols = triples[:, 1].astype(np.int64) - 1
        per_row = np.bincount(rows, minlength=neurons)
        per_col = np.bincount(cols, minlength=neurons)
        if per_row.size != neurons or np.any(per_row != connections):
            problems.append(f"layer {index}: row degrees {sorted(set(per_row.tolist()))}")
        if per_col.size != neurons or np.any(per_col != connections):
            problems.append(f"layer {index}: column degrees {sorted(set(per_col.tolist()))}")
        if np.any(triples[:, 2] != weight):
            problems.append(f"layer {index}: weights other than {weight}")
    return problems


def theorem1_holds(submatrices) -> bool:
    """Paper Theorem 1: the product of the 0/1 layer matrices has equal entries
    (every input reaches every output by the same number of paths)."""
    product = None
    for sub in submatrices:
        dense = (csr_to_dense(sub.shape, sub.indptr, sub.indices, sub.data) != 0).astype(np.float64)
        product = dense if product is None else product @ dense
    return bool(np.all(product == product.flat[0]) and product.flat[0] > 0)


def radixnet_edges(radix_systems, widths) -> int:
    """``sum_i N' * Nbar_i * D_{i-1} * D_i`` over the flattened radices."""
    n_prime = int(np.prod(radix_systems[0]))
    radices = [r for system in radix_systems for r in system]
    return int(sum(n_prime * radices[i] * widths[i] * widths[i + 1] for i in range(len(radices))))

"""``contract(spec, *operands)``: the values of ``np.einsum`` for float
operands and explicit specs whose ``...`` leads a term, as unrolled sums
over component views.

Index ranges here are at most a few, so the operands are folded left to
right and each pairwise product is a sum of one ufunc call per term over all
nodes.  An index is summed once no later operand and not the output names
it: order operands so that neighbours share indices, as in
``contract("...gst,...tb,...sa->...gab", Gamma, D, D)``.  Results are laid
out component-major, so the component views of a result are contiguous.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from math import prod

import numpy as np

__all__ = ["contract"]


@lru_cache(maxsize=None)
def _plan(spec: str, shapes: tuple) -> tuple:
    """Operand component views, the (i, j) terms of each component of each
    pairwise step, the output's flat and full shapes and its axes order."""
    inputs, arrow, output = spec.replace(" ", "").partition("->")
    inputs = inputs.split(",")
    if not arrow or len(inputs) != len(shapes):
        raise ValueError(f"contract: {spec!r} needs '->' and one term per operand")
    sizes, labels, views, batches = {}, [], [], []
    for term, shape in zip(inputs, shapes):
        letters = term.removeprefix("...")
        nb = len(shape) - len(letters)
        if nb < 0 or (nb and letters == term) or "." in letters:
            raise ValueError(f"contract: term {term!r} does not fit shape {shape}")
        for c, n in zip(letters, shape[nb:]):
            if sizes.setdefault(c, n) != n:
                raise ValueError(f"contract: index {c!r} has sizes {sizes[c]} and {n}")
        uniq = tuple(dict.fromkeys(letters))       # a repeated letter takes a diagonal
        labels.append(uniq)
        batches.append(shape[:nb])
        views.append(tuple((Ellipsis, *(v[uniq.index(c)] for c in letters))
                           for v in product(*(range(sizes[c]) for c in uniq))))
    out = output.removeprefix("...")
    batch = np.broadcast_shapes(*batches)
    if (batch and out == output) or not set(out) <= set(sizes) or len(set(out)) < len(out):
        raise ValueError(f"contract: bad output {output!r} for {spec!r}")
    steps, acc = [], labels[0]
    for k, rhs in enumerate(labels[1:], start=2):
        both = acc + tuple(c for c in rhs if c not in acc)
        later = set(out).union(*labels[k:])
        keep = tuple(out) if k == len(labels) else tuple(c for c in both if c in later)
        names = keep + tuple(c for c in both if c not in keep)     # kept, then summed
        step = {}              # kept values -> (i, j) positions of each summed term
        for v in product(*(range(sizes[c]) for c in names)):
            at = dict(zip(names, v))
            step.setdefault(v[:len(keep)], []).append(tuple(
                int(np.ravel_multi_index([at[c] for c in lab], [sizes[c] for c in lab]))
                for lab in (acc, rhs)))
        steps.append(tuple(map(tuple, step.values())))
        acc = keep
    dims, nb = tuple(sizes[c] for c in out), len(batch)
    axes = (*range(len(out), len(out) + nb), *range(len(out))) if out else None
    return tuple(views), tuple(steps), (prod(dims),) + batch, dims + batch, axes


def _component(A: list, B: list, terms: tuple, out=None):
    """Sum of A[i] * B[j] over ``terms``, fresh or in ``out``, never in an operand."""
    i, j = terms[0]
    out = np.multiply(A[i], B[j], out=out)
    for i, j in terms[1:]:
        out += A[i] * B[j]
    return out


def contract(spec: str, *operands) -> np.ndarray:
    """np.einsum(spec, *operands), as unrolled sums over component views."""
    if len(operands) == 1:                     # times an exact 1, to fold a pair
        spec, operands = spec.replace("->", ",->"), (operands[0], 1.0)
    operands = [np.asarray(x) for x in operands]
    views, steps, flat, shape, axes = _plan(spec, tuple([x.shape for x in operands]))
    A = [operands[0][v] for v in views[0]]
    for X, idx, step in zip(operands[1:-1], views[1:-1], steps[:-1]):
        B = [X[v] for v in idx]
        A = [_component(A, B, terms) for terms in step]
    B = [operands[-1][v] for v in views[-1]]
    if axes is None:
        return _component(A, B, steps[-1][0])
    buf = np.empty(flat)
    for k, terms in enumerate(steps[-1]):
        _component(A, B, terms, buf[k, ...])
    return buf.reshape(shape).transpose(axes)

"""``contract(spec, *operands)``: the values of ``np.einsum`` for float
operands and explicit specs whose ``...`` leads a term, as unrolled sums
over component views.

Index ranges here are at most a few, so the operands are folded left to
right and each pairwise product is a sum of one ufunc call per term over all
nodes.  An index is summed once no later operand and not the output names
it: order operands so that neighbours share indices, as in
``contract("...gst,...tb,...sa->...gab", Gamma, D, D)``.  Results are laid
out component-major, so the component views of a result are contiguous,
and every result is a fresh array.

An operand whose batch strides are all zero is a constant: a broadcast view
such as a flat metric, or an operand without ``...`` dimensions.  The plan
is specialised on the values of its constant operands.  A term with a zero
factor is dropped, a factor of one is not multiplied, products and sums of
constants alone are taken when the plan is built, and a component that no
output reads is not computed.  So a zero entry of a constant contributes
nothing, also against an infinite or nan factor, where ``einsum`` gives
nan, and a sum that would have added a zero may end in the other signed
zero.  Every other term is computed as without constants, and every sum
adds its terms in the same order.

A plan is generated straight-line code, built once per spec, operand shapes
and constant values.
"""

from __future__ import annotations

import re
from functools import lru_cache, reduce
from itertools import product
from math import prod
from operator import add

import numpy as np

__all__ = ["contract"]

_TEMP = re.compile(r"\bt\d+\b")         # names of the intermediate sums of a plan


@lru_cache(maxsize=None)
def _core_ndims(spec: str) -> tuple:
    """Number of named indices of each input term."""
    inputs = spec.replace(" ", "").partition("->")[0].split(",")
    return tuple(len(term.removeprefix("...")) for term in inputs)


@lru_cache(maxsize=None)
def _layout(spec: str, shapes: tuple) -> tuple:
    """Operand component views, the (i, j) terms of each component of each
    pairwise step, the batch shape of each operand and of the result, and
    the output's flat and full shapes and its axes order."""
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
        views.append(tuple(tuple(v[uniq.index(c)] for c in letters)
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
                reduce(lambda k, c: k * sizes[c] + at[c], lab, 0) for lab in (acc, rhs)))
        steps.append(tuple(map(tuple, step.values())))
        acc = keep
    dims, nb = tuple(sizes[c] for c in out), len(batch)
    axes = (*range(len(out), len(out) + nb), *range(len(out))) if out else None
    return (tuple(views), tuple(steps), tuple(batches), batch,
            (prod(dims),) + batch, dims + batch, axes)


class _Sums:
    """The unrolled sums of one plan as interned nodes: ("v", k, index), a
    component view of operand k; ("c", value), a nonzero constant;
    ("m", a, b), a product; ("s", *terms), a sum in term order.  None is an
    exact zero."""

    def __init__(self):
        self.nodes, self.ids = [], {}

    def node(self, rec) -> int:
        i = self.ids.get(rec)
        if i is None:
            i = self.ids[rec] = len(self.nodes)
            self.nodes.append(rec)
        return i

    def const(self, value: float):
        return None if value == 0 else self.node(("c", value))

    def mul(self, a, b):
        if a is None or b is None:
            return None
        ra, rb = self.nodes[a], self.nodes[b]
        if ra[0] == rb[0] == "c":
            return self.const(ra[1] * rb[1])
        if ra == ("c", 1.0):
            return b
        if rb == ("c", 1.0):
            return a
        return self.node(("m", a, b))

    def sum(self, terms):
        terms = [t for t in terms if t is not None]
        if terms and all(self.nodes[t][0] == "c" for t in terms):
            return self.const(reduce(add, (self.nodes[t][1] for t in terms)))
        if len(terms) < 2:
            return terms[0] if terms else None
        return self.node(("s", *terms))


class _Code:
    """Straight-line code evaluating the output nodes of a ``_Sums``.

    A product is written where it is read; a sum is computed once, into a
    name of its own or into an output component, and adds its terms in
    place."""

    def __init__(self, sums: _Sums):
        self.nodes = sums.nodes
        self.lines, self.names, self.env = [], {}, {}

    def expr(self, i) -> str:
        """An expression for node i: views, constants and sums get a name,
        products are written out."""
        if i in self.names:
            return self.names[i]
        rec = self.nodes[i]
        if rec[0] == "v":
            k, index = rec[1:]
            if not index:
                return f"o{k}"
            name = f"v{i}"
            self.lines.append(f"{name} = o{k}[..., {', '.join(map(str, index))}]")
        elif rec[0] == "c":
            name = f"c{i}"
            self.env[name] = rec[1]
        elif rec[0] == "m":
            return f"({self.expr(rec[1])} * {self.expr(rec[2])})"
        else:
            name = f"t{i}"
            self._into(i, name, temp=True)
        self.names[i] = name
        return name

    def _into(self, i, out: str, temp: bool = False):
        """Evaluate product or sum node i into ``out``: a new name
        (``temp``), or an existing array of the full batch shape."""
        rec = self.nodes[i]
        terms = [i] if rec[0] == "m" else list(rec[1:])
        first = terms.pop(0)
        if self.nodes[first][0] == "m":
            a, b = (self.expr(j) for j in self.nodes[first][1:])
            op, ufunc = "*", "multiply"
        else:                    # a view, constant or sum that others may read
            a, b = self.expr(first), self.expr(terms.pop(0))
            op, ufunc = "+", "add"
        self.lines.append(f"{out} = {a} {op} {b}" if temp else f"{ufunc}({a}, {b}, out={out})")
        for j in terms:
            self.lines.append(f"{out} += {self.expr(j)}")

    def store(self, i, out: str):
        """Write node i into the existing full-batch array ``out``."""
        if i is None:
            self.lines.append(f"{out}[...] = 0.0")
        elif self.nodes[i][0] in "ms" and i not in self.names:
            self._into(i, out)
            self.names[i] = out
        else:
            self.lines.append(f"{out}[...] = {self.expr(i)}")


def _freeing(lines: list) -> list:
    """``lines`` with each temporary deleted after the line that reads it
    last, so that a plan holds no more intermediates than a pairwise fold."""
    last = {name: n for n, line in enumerate(lines) for name in _TEMP.findall(line)}
    dead = {}
    for name, n in last.items():
        dead.setdefault(n, []).append(name)
    out = []
    for n, line in enumerate(lines):
        out.append(line)
        if n in dead and not line.startswith("return"):
            out.append(f"del {', '.join(dead[n])}")
    return out


@lru_cache(maxsize=None)
def _compiled(source: str):
    return compile(source, "<contract plan>", "exec")


@lru_cache(maxsize=1024)
def _plan(spec: str, key: tuple):
    """The function computing ``spec`` for operands of the shapes and the
    constant values (bytes, or None for a varying operand) in ``key``."""
    shapes, consts = key[0::2], key[1::2]
    views, steps, batches, batch, flat, shape, axes = _layout(spec, shapes)
    sums = _Sums()
    operands = []
    for k, (index, c, full) in enumerate(zip(views, consts, shapes)):
        if c is None:
            operands.append([sums.node(("v", k, v)) for v in index])
        else:
            core = np.frombuffer(c).reshape(full[len(batches[k]):])
            operands.append([sums.const(float(core[v])) for v in index])
    A = operands[0]
    for B, step in zip(operands[1:], steps):
        A = [sums.sum([sums.mul(A[i], B[j]) for i, j in terms]) for terms in step]
    code = _Code(sums)
    if axes is None:
        (i,) = A
        varying = np.broadcast_shapes(*(b for b, c in zip(batches, consts) if c is None))
        if i is not None and code.nodes[i][0] in "ms" and varying == batch:
            code.lines.append(f"return {code.expr(i)}")
        else:
            code.lines.append("out = empty(BATCH)")
            code.store(i, "out")
            code.lines.append("return out")
    else:
        code.lines.append("out = empty(FLAT)")
        for k, i in enumerate(A):
            code.lines.append(f"r{k} = out[{k}, ...]")
            code.store(i, f"r{k}")
        code.lines.append("return out.reshape(SHAPE).transpose(AXES)")
    args = ", ".join(f"o{k}" for k in range(len(shapes)))
    source = f"def run({args}):\n" + "".join(f"    {line}\n" for line in _freeing(code.lines))
    env = dict(code.env, empty=np.empty, multiply=np.multiply, add=np.add,
               BATCH=batch, FLAT=flat, SHAPE=shape, AXES=axes)
    exec(_compiled(source), env)
    return env["run"]


def contract(spec: str, *operands) -> np.ndarray:
    """np.einsum(spec, *operands), as unrolled sums over component views."""
    if len(operands) == 1:                     # times an exact 1, to fold a pair
        spec, operands = spec.replace("->", ",->"), (operands[0], 1.0)
    cores = _core_ndims(spec)
    if len(cores) != len(operands):
        raise ValueError(f"contract: {spec!r} needs one term per operand")
    operands = [np.asarray(x, dtype=float) for x in operands]
    key = []
    for x, n in zip(operands, cores):
        s = x.strides                          # a constant: every batch stride 0
        nb = len(s) - n
        key += (x.shape, None if nb > 0 and s[0] or any(s[:nb]) or not x.size
                else x[(0,) * nb].tobytes())
    return _plan(spec, tuple(key))(*operands)

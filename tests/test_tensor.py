"""The dense reference fold ``oracles.contract`` against np.einsum on drawn
specs (hypothesis)."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import contract

LETTERS = "abcde"


@st.composite
def contractions(draw):
    """(spec, shapes): 1-5 operands over indices of size 1-3, each operand
    with or without leading broadcast dimensions (``...``), letters that may
    repeat within an operand, and an output that may be a scalar."""
    sizes = dict(zip(LETTERS, draw(st.lists(st.integers(1, 3), min_size=5, max_size=5))))
    batch = tuple(draw(st.lists(st.integers(1, 3), max_size=2)))
    terms, shapes = [], []
    for _ in range(draw(st.integers(1, 5))):
        letters = "".join(draw(st.lists(st.sampled_from(LETTERS), max_size=3)))
        lead = ()
        if draw(st.booleans()):        # broadcast dims: a suffix of batch, some of size 1
            lead = tuple(1 if draw(st.booleans()) else n
                         for n in batch[draw(st.integers(0, len(batch))):])
        terms.append(("..." if draw(st.booleans()) or lead else "") + letters)
        shapes.append(lead + tuple(sizes[c] for c in letters))
    used = sorted(set("".join(terms).replace(".", "")))
    out = "".join(draw(st.permutations(used))[:draw(st.integers(0, len(used)))])
    ellipsis = "..." if any(t.startswith("...") for t in terms) else ""
    return ",".join(terms) + "->" + ellipsis + out, tuple(shapes)


@settings(max_examples=300, deadline=None)
@given(contractions(), st.integers(0, 2**32 - 1))
@example(("...sa,...gst,...tb->...gab", ((4, 2, 2), (4, 2, 2, 2), (4, 2, 2))), 0)
@example(("...aab,...b->...", ((3, 1, 2, 2, 3), (1, 5, 3))), 1)
@example(("...ab,...cd->...abcd", ((2, 1, 2, 3), (1, 3, 3, 2))), 2)
@example(("a,b,c,d,e->", ((2,), (3,), (1,), (2,), (3,))), 3)
@example(("...ss->...", ((4, 3, 3),)), 4)
@example(("ca,...a->...c", ((3, 2), (5, 2))), 5)
def test_contract_matches_einsum(case, seed):
    spec, shapes = case
    rng = np.random.default_rng(seed)
    operands = [rng.standard_normal(shape) for shape in shapes]
    before = [x.copy() for x in operands]
    got = contract(spec, *operands)
    want = np.einsum(spec, *operands)
    scale = np.einsum(spec, *(np.abs(x) for x in operands))
    assert np.shape(got) == np.shape(want)
    assert np.all(np.abs(got - want) <= 1e-13 * np.max(scale, initial=1e-300))
    for x, y in zip(operands, before):       # no accumulation into an operand
        assert np.array_equal(x, y)


def _constant_operands(spec, shapes, rng):
    """Random operands, about half of them constants: zero-stride views
    (or, without '...', plain arrays) whose entries are 0, 1, -1 or random."""
    operands = []
    for term, shape in zip(spec.partition("->")[0].split(","), shapes):
        core = shape[len(shape) - len(term.removeprefix("...")):]
        if rng.random() < 0.5:
            operands.append(rng.standard_normal(shape))
            continue
        pick = rng.integers(0, 4, core)
        values = np.choose(pick, [0.0, 1.0, -1.0, rng.standard_normal(core)])
        operands.append(np.broadcast_to(values, shape))
    return operands


@settings(max_examples=300, deadline=None)
@given(contractions(), st.integers(0, 2**32 - 1))
@example(("...ab,...bc->...ac", ((3, 2, 2), (1, 2, 2))), 0)
@example(("...ts,...sa,...ab,...tb->...", ((4, 2, 2), (4, 2, 2), (4, 2, 2), (4, 2, 2))), 1)
@example(("...ab,...gab->...g", ((2, 3, 2, 2), (3, 2, 2, 2))), 2)
def test_contract_folds_constant_operands(case, seed):
    spec, shapes = case
    operands = _constant_operands(spec, shapes, np.random.default_rng(seed))
    before = [x.copy() for x in operands]
    got = contract(spec, *operands)
    want = np.einsum(spec, *operands)
    scale = np.einsum(spec, *(np.abs(x) for x in operands))
    assert np.shape(got) == np.shape(want)
    assert np.all(np.abs(got - want) <= 1e-13 * np.max(scale, initial=1e-300))
    again = contract(spec, *operands)
    assert np.array_equal(got, again)
    for x, y in zip(operands, before):       # nothing written, nothing aliased
        assert np.array_equal(x, y)
        assert not np.shares_memory(got, x)
    assert not np.shares_memory(got, again)


@pytest.mark.parametrize("spec, shapes", [
    ("...ab,...b", ((2, 2), (2,))),               # no '->'
    ("...ab->...a", ((2, 2), (2,))),              # one term for two operands
    ("ab->a", ((3, 2, 2),)),                      # leading dims without '...'
    ("ab,bc->ac", ((2, 2), (3, 2))),              # index b of sizes 2 and 3
    ("...ab->a", ((3, 2, 2),)),                   # broadcast dims dropped
    ("...ab->...ac", ((3, 2, 2),)),               # output index not in the inputs
])
def test_contract_rejects_malformed_specs(spec, shapes):
    with pytest.raises(ValueError):
        contract(spec, *(np.ones(s) for s in shapes))

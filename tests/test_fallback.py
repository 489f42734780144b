"""The fallback rule of the elementwise kernels on stacks, kernel by kernel.

A kernel run on float64 arrays with ``_batch._Arrays`` either gives each
element the bits of its scalar call, or raises ``_batch._Fallback`` and so
hands the whole stack to the scalar kernel.  It falls back exactly where
some element's scalar call raises or takes the product or pure branch.
``_batch.stack`` relies on this alone: a stack that does not fall back is
returned as the arrays give it, NaN and infinities among its results.
The stacks are drawn from signed zeros, subnormals, huge values, 1/2 and
its neighbours, NaN and infinities, and a few ordinary values.  Results
compare by ``repr``, which tells every double apart but the NaNs: the sign
of a NaN made from two NaN operands is the first one's, and numpy's loops
may order the operands of a commutative operation either way.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from stsdecay import ReservoirConfig, _batch, cli, core, correlations, verification  # noqa: E402
from stsdecay._accurate import prod_diff  # noqa: E402
from stsdecay.dynamics import _evolved_entries, _margin_at  # noqa: E402

_ADVERSARIAL = [0.0, -0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e308, 0.49999999999999994, 0.5, 0.5000000000000001]
_VALUES = st.sampled_from([*_ADVERSARIAL, math.nan, math.inf, -math.inf, 0.75, 1.0, 2.5, 3.0])
# Admissible evolution times, the adversarial ones among them.
_TIMES = st.sampled_from([0.0, -0.0, 5e-324, 0.5, 3.0, 1e308, math.inf])
_RES = (1.0, 0.2, 2.0, 0.5)
_RESERVOIR = ReservoirConfig(*_RES)
# Elements that the kernels answer on arrays, mixed in so that whole stacks of them occur.
_STATES = [(2.0, 3.0, 1.0), (1.0, 1.0, 0.5), (0.75, 2.5, 0.3), (3.0, 3.0, 2.5)]
_PARAMETERS = [(1.0, 0.5, 1.0), (0.0, 0.0, 2.0), (3.0, 2.5, 0.5)]


def _offsets(b1, b2, c, ops=core._Floats):
    return core._offsets(b1, b2, c)


def _margin(b1, b2, c, t, ops=core._Floats):
    """The evolved margin at ``t`` of the offsets of the entries ``(b1, b2, c)``."""
    a1, a2, _ = core._offsets(b1, b2, c)
    return _margin_at(a1, a2, c, _RES, t, ops)


def _h(a, ops=core._Floats):
    return ops.h(a)


def _product_or_pure(b1, b2, c, *_):
    return c == 0.0 or core._is_pure(b1, b2, c, prod_diff(b1, b2, c, c))


def _evolved(b1, b2, c, t, ops=core._Floats):
    """The entries at ``t`` of the initial entries ``(b1, b2, c)``, checked as an `evolve` row checks them."""
    b1, b2, c = _evolved_entries(SimpleNamespace(b1=b1, b2=b2, c=c), _RESERVOIR, t, ops)
    return (*core._bona_fide(b1, b2, c, ops), c)


def _evolve_row(units):
    """The row kernel of `evolve` in ``units``, of the initial entries and the time of each element."""
    cells = cli._state_cells(cli._STATE_OUTPUTS, units)[1]

    def row(b1, b2, c, t, ops=core._Floats):
        b1, b2, c = _evolved(b1, b2, c, t, ops)
        return (t, b1, b2, c) + cells(b1, b2, c, core._offsets(b1, b2, c)[2], ops)

    return row


def _evolved_product_or_pure(*element):
    return _product_or_pure(*_evolved(*element))


def _product(b1, b2, c, *_):
    return c == 0.0


def _never(*_):
    return False


def _elements(ordinary, *columns):
    return st.one_of(st.sampled_from(ordinary), st.tuples(*columns))


# kernel, its elements, and whether an element's scalar call takes a branch of its own.
_KERNELS = {
    "bona_fide": (core._bona_fide, _elements(_STATES, *[_VALUES] * 3), _never),
    "h": (_h, _elements([(0.25,), (3.0,)], _VALUES), _never),
    "sts_entries": (verification._sts_entries, _elements(_PARAMETERS, *[_VALUES] * 3), _never),
    "spectrum": (core._spectrum, _elements(_STATES, *[_VALUES] * 3), _product),
    "measures": (correlations._measures, _elements(_STATES, *[_VALUES] * 3), _product_or_pure),
    "offsets": (_offsets, _elements(_STATES, *[_VALUES] * 3), _never),
    "margin_at": (_margin, _elements([(*state, 0.5) for state in _STATES], *[_VALUES] * 3, _TIMES), _never),
    **{
        f"evolve_row_{units}": (
            _evolve_row(units),
            _elements([(*state, 0.5) for state in _STATES], *[_VALUES] * 3, _TIMES),
            _evolved_product_or_pure,
        )
        for units in ("nats", "bits")
    },
}


def _scalar(kernel, element):
    """The scalar call's result, or None where it raises."""
    try:
        return kernel(*element)
    except (ValueError, OverflowError):
        return None


@pytest.mark.parametrize("name", sorted(_KERNELS))
@settings(max_examples=120)
@given(data=st.data())
def test_a_stack_is_each_elements_scalar_bits_or_falls_back_where_one_branches(name, data):
    kernel, elements, branches = _KERNELS[name]
    stack = data.draw(st.lists(elements, min_size=1, max_size=4))
    scalar = [_scalar(kernel, element) for element in stack]
    falls_back = any(result is None or branches(*element) for element, result in zip(stack, scalar))
    try:
        with np.errstate(all="ignore"):
            stacked = kernel(*(np.array(column) for column in zip(*stack)), ops=_batch._Arrays)
    except _batch._Fallback:
        assert falls_back, stack
        return
    assert not falls_back, stack
    if not isinstance(stacked, tuple):
        stacked, scalar = (stacked,), [(result,) for result in scalar]
    for got, want in zip(stacked, zip(*scalar)):
        assert list(map(repr, got.tolist())) == list(map(repr, want)), stack


def test_a_stack_returns_non_finite_results_as_they_are_without_the_scalar_kernel():
    # NaN and both infinities, made by the kernel from finite and non-finite
    # elements alike: the arrays' results are the scalar map's, and only
    # the one array call is made.
    calls = []

    def kernel(a, b, ops=core._Floats):
        calls.append(ops)
        return a * b, a + b

    a, b = [1e308, math.nan, math.inf, -math.inf, 1.0], [10.0, 1.0, 1.0, math.inf, 2.0]
    stacked = _batch.stack(kernel, np.array(a), np.array(b))
    assert calls == [_batch._Arrays]
    want = list(zip(*map(kernel, a, b)))
    assert [list(map(repr, got.tolist())) for got in stacked] == [list(map(repr, column)) for column in want]
    assert {"nan", "inf", "-inf"} <= {repr(x) for column in stacked for x in column.tolist()}

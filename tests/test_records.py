"""The six value records behave as the dataclasses they replaced.

`oracles` keeps each record's old dataclass definition under the same name;
both sides are built from the same positional and keyword arguments, some
defaults left out, and must agree on construction errors, repr, ==, hash,
attribute assignment and the freshness of default dicts.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from tropdyn import dynamics, lattice

small_ints = st.integers(-3, 3)
floats = st.floats(-1e3, 1e3) | st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1e308, -1e308])
optional_ints = st.none() | st.integers(-5, 5)
int_dicts = st.dictionaries(st.sampled_from(["calls", "roots", "failed"]), st.integers(0, 9), max_size=2)
int_matrices = st.lists(st.lists(small_ints, min_size=2, max_size=2).map(tuple), max_size=3).map(tuple)


@st.composite
def grid_fields(draw):
    """A valid grid, or one with a part spoilt so that a check of GridSpec fails."""
    n = draw(st.integers(1, 3))
    lows = draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n))
    box = [(lo, lo + draw(st.floats(0.5, 1e3))) for lo in lows]
    resolution = draw(st.lists(st.integers(2, 12), min_size=n, max_size=n))
    delta = draw(st.floats(0, 1e3))
    i = draw(st.integers(0, n - 1))
    spoil = draw(st.sampled_from([None, None, None, "box", "axes", "lengths", "resolution", "budget", "delta"]))
    if spoil == "box":
        bad = st.sampled_from([(math.nan, 1.0), (0.0, math.inf), (1.0, 1.0), (2.0, 1.0), (-1e308, 1e308)])
        box[i] = draw(bad | st.tuples(floats, floats))
    elif spoil == "axes":
        box = box[: draw(st.sampled_from([0, n - 1]))]
    elif spoil == "lengths":
        resolution.append(2)
    elif spoil == "resolution":
        resolution[i] = draw(st.integers(-1, 1))
    elif spoil == "budget":
        resolution[i] = draw(st.integers(10 ** 6 // 2, 2 * 10 ** 6))
    elif spoil == "delta":
        delta = draw(st.sampled_from([-1.0, math.inf, math.nan]) | floats)
    return [tuple(box), tuple(resolution), delta]


@st.composite
def cloud_fields(draw):
    dim = draw(st.integers(1, 3))
    width = draw(st.sampled_from([dim, dim, dim + 1]))
    value = floats if draw(st.booleans()) else st.complex_numbers(max_magnitude=10)
    rows = draw(st.lists(st.lists(value, min_size=width, max_size=width), max_size=3))
    points = np.array(rows) if draw(st.booleans()) else rows
    return [dim, points, draw(optional_ints), draw(optional_ints), draw(int_dicts)]


@st.composite
def report_fields(draw):
    ms = draw(st.lists(st.integers(1, 64), max_size=3).map(tuple))
    errors = draw(st.lists(floats, max_size=3).map(tuple))
    return [draw(st.text(max_size=4)), ms, errors, draw(floats), draw(floats), draw(small_ints), draw(int_dicts)]


@st.composite
def batch_roots_fields(draw):
    rows, d = draw(st.integers(0, 3)), draw(st.integers(1, 2))
    roots = np.array(draw(st.lists(st.complex_numbers(max_magnitude=10), min_size=rows * d, max_size=rows * d)))
    failed = np.array(draw(st.lists(st.booleans(), min_size=rows, max_size=rows)), dtype=bool)
    iterations = np.array(draw(st.lists(st.integers(0, 200), min_size=rows, max_size=rows)), dtype=int)
    return [roots.reshape(rows, d), failed, iterations]


@st.composite
def quotient_fields(draw):
    return [draw(st.integers(0, 3)), draw(int_matrices), draw(int_matrices)]


# name -> (fields in constructor order, how many have defaults, field values, frozen, derived attributes)
RECORDS = {
    "GridSpec": (("box", "resolution", "delta"), 1, grid_fields(), True, ()),
    "PointCloud": (("dim", "points", "m", "seed", "counters"), 3, cloud_fields(), False, ("__len__",)),
    "ConvergenceReport": (
        ("experiment", "ms", "errors", "C", "rho", "seed", "details"), 1, report_fields(), False, (),
    ),
    "BatchRoots": (("roots", "failed", "iterations"), 0, batch_roots_fields(), True, ("__len__",)),
    "SmithDecomposition": (
        ("D", "U_inv"), 0, st.lists(int_matrices, min_size=2, max_size=2), True, ("invariant_factors", "rank"),
    ),
    "QuotientLattice": (
        ("ambient_dim", "sublattice_basis", "complement_basis"), 0, quotient_fields(), True,
        ("rank", "quotient_rank"),
    ),
}
MODULES = {"SmithDecomposition": lattice, "QuotientLattice": lattice}


def _outcome(f, *args):
    """f's value, or the kind and message of what it raised.

    A frozen dataclass raises FrozenInstanceError, a subclass of
    AttributeError, so AttributeErrors count as one kind.
    """
    try:
        return "value", f(*args)
    except AttributeError as exc:
        return AttributeError, str(exc)
    except Exception as exc:
        return type(exc), str(exc)


def _derived(record, attr):
    value = getattr(record, attr)
    return value() if callable(value) else value


@st.composite
def calls(draw, fields, n_defaults, values):
    """A positional prefix of values, the rest as keywords; defaulted fields may be left out."""
    k = draw(st.integers(0, len(fields)))
    required = len(fields) - n_defaults
    kwargs = {
        name: value
        for i, (name, value) in enumerate(zip(fields[k:], values[k:]), start=k)
        if i < required or draw(st.booleans())
    }
    return tuple(values[:k]), kwargs


@pytest.mark.parametrize("name", sorted(RECORDS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_record_matches_its_dataclass(name, data):
    fields, n_defaults, values, frozen, derived = RECORDS[name]
    new_cls = getattr(MODULES.get(name, dynamics), name)
    old_cls = getattr(oracles, name)
    a = data.draw(values)
    args, kwargs = data.draw(calls(fields, n_defaults, a))

    built, expected = _outcome(lambda: new_cls(*args, **kwargs)), _outcome(lambda: old_cls(*args, **kwargs))
    if built[0] != "value" or expected[0] != "value":
        assert built == expected  # the same construction error
        return
    new, old = built[1], expected[1]
    assert repr(new) == repr(old)
    for attr in derived:
        assert _outcome(_derived, new, attr) == _outcome(_derived, old, attr), attr

    # an equal instance, and one with a single field drawn afresh
    twin_new, twin_old = new_cls(*args, **kwargs), old_cls(*args, **kwargs)
    assert _outcome(lambda: new == twin_new) == _outcome(lambda: old == twin_old)
    b = list(a)
    i = data.draw(st.integers(0, len(fields) - 1))
    b[i] = data.draw(values)[i]
    other = _outcome(lambda: (new_cls(*b), old_cls(*b)))
    if other[0] == "value":
        other_new, other_old = other[1]
        assert _outcome(lambda: new == other_new) == _outcome(lambda: old == other_old)
        assert _outcome(lambda: new != other_new) == _outcome(lambda: old != other_old)
    assert (new == old) is False

    assert _outcome(hash, new) == _outcome(hash, old)
    if not frozen:
        assert _outcome(hash, new)[0] is TypeError

    # frozen records refuse assignment; the mutable ones take it (cmd_amoeba sets cloud.seed)
    for field in fields:
        value = data.draw(values)[fields.index(field)]
        assigned = _outcome(setattr, new, field, value)
        assert assigned == _outcome(setattr, old, field, value), field
        assert assigned[0] == (AttributeError if frozen else "value"), field
        if frozen:
            assert _outcome(delattr, new, field) == _outcome(delattr, old, field), field
    assert repr(new) == repr(old)

    # a default dict is fresh for every instance
    for field in fields[len(fields) - n_defaults:]:
        if field in kwargs or fields.index(field) < len(args):
            continue
        default = getattr(twin_new, field)
        if isinstance(default, dict):
            assert default == getattr(twin_old, field) == {}
            assert default is not getattr(new_cls(*args, **kwargs), field)


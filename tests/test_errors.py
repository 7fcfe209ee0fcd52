import math
import warnings

import numpy as np
import pytest

from newton_flow import fd
from newton_flow.catalog import ProfileCurve, Revolution, cylinder_profile, revolution_geometry
from newton_flow.errors import DomainError, as_floats
from newton_flow.gapcheck import evaluate_from_samples
from newton_flow.operators import lr_apply
from newton_flow.symfun import elem_sym_all_rows

NUMERIC = [
    [1.5, -2.0, -0.0, math.nan, math.inf],
    np.array([1.1, 2.2], dtype=np.float32),
    np.array([1e-5, 6e4], dtype=np.float16),
    np.arange(-3, 6),
    np.array([-128, 127], dtype=np.int8),
    np.array([0, 2 ** 64 - 1], dtype=np.uint64),
    [[1, 2], [3, 4]],
    [2 ** 62, -(2 ** 63)],
    np.array([True, False, True]),
    [True, False],
    np.float64(3.25),
    7,
    np.empty((0, 3)),
]


@pytest.mark.parametrize("x", NUMERIC, ids=[f"case{i}" for i in range(len(NUMERIC))])
def test_numeric_input_keeps_the_bytes_of_a_float_conversion(x):
    expect = np.asarray(x, dtype=float)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = as_floats(x, "x")
    assert got.dtype == np.float64 and got.shape == expect.shape
    assert got.tobytes() == expect.tobytes()


def test_a_float64_array_is_not_copied():
    x = np.linspace(0.0, 1.0, 7)
    assert as_floats(x, "x") is x


def test_entry_points_read_integer_and_bool_input_as_its_floats():
    z, f = np.arange(9), np.full(9, 2, dtype=np.int16)
    curve = ProfileCurve(z=z, f=f)
    assert curve.z.tobytes() == np.asarray(z, dtype=float).tobytes()
    assert curve.f.tobytes() == np.asarray(f, dtype=float).tobytes()
    rows = np.array([[1, 0, 1], [0, 1, 1]], dtype=bool)
    assert (elem_sym_all_rows(rows).tobytes()
            == elem_sym_all_rows(rows.astype(float)).tobytes())
    values = np.arange(9) ** 2
    assert (fd.flux_divergence(np.ones(9, dtype=int), values, 0.5).tobytes()
            == fd.flux_divergence(np.ones(9), values.astype(float), 0.5).tobytes())
    geo = revolution_geometry(Revolution(profile=cylinder_profile(1.0, 2.0, 9)))
    for field in (values, np.arange(9) % 2 == 0, [3] * 9):
        assert (lr_apply(geo, field, 2).tobytes()
                == lr_apply(geo, np.asarray(field, dtype=float), 2).tobytes())
    rows, support = [[1, 2], [2, 1]], np.array([-2, -2], dtype=np.int32)
    assert (evaluate_from_samples(rows, support, 1).to_json_dict()
            == evaluate_from_samples(np.asarray(rows, dtype=float), [-2.0, -2.0], 1)
            .to_json_dict())


def test_a_python_int_past_int64_is_refused():
    # numpy makes an object array of it, which no entry point reads as a number
    for x in ([2 ** 64], [1.0, -(2 ** 70)], 10 ** 400):
        with pytest.raises(DomainError, match="x must be a numeric array"):
            as_floats(x, "x")

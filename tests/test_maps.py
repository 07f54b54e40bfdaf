"""Affine maps: their parameter check, composition, powers."""

import numpy as np
import pytest

from mechid import (
    AffineMap,
    AffineMechanism,
    LinearDecoder,
    compose,
    map_power,
)
from mechid.errors import DimensionMismatchError, NonFiniteSampleError, SingularMapError
from mechid.rng import stream

from conftest import TransformedDecoder, inverse_map, random_invertible


def test_affine_roundtrip_and_batch():
    gen = stream(1, 0)
    a = AffineMap(random_invertible(gen, 3), gen.standard_normal(3))
    z = gen.standard_normal((10, 3))
    assert np.allclose(inverse_map(a)(a(z)), z, atol=1e-10)
    assert np.allclose(a(z[0]), a(z)[0])  # single points and batches agree


def test_transformed_decoder_decodes_a_stack_like_its_slices():
    a = AffineMap(np.array([[2.0, 1.0], [0.0, 1.0]]), np.array([0.5, -1.0]))
    decoder = TransformedDecoder(LinearDecoder([[1.0, 1.0], [0.0, 1.0], [0.5, -0.5]]), a)
    z = np.arange(8.0).reshape(2, 2, 2)
    x = decoder.decode(z)
    assert x.shape == (2, 2, 3)
    for i in range(2):
        assert np.array_equal(x[i], decoder.decode(z[i]))
    assert np.allclose(decoder.encode(x), z, atol=1e-12)


def test_singular_matrix_rejected():
    with pytest.raises(SingularMapError):
        AffineMap(np.array([[1.0, 2.0], [2.0, 4.0]]), np.zeros(2))


@pytest.mark.parametrize("cls, m, v", [(AffineMap, "A", "p"), (AffineMechanism, "M", "b")])
def test_one_parameter_check_names_each_class_fields(cls, m, v):
    nan_row = np.array([[1.0, 0.0], [np.nan, 1.0]])
    cases = [
        # a 0 x 0 map is not square and nonempty, for a map as for a mechanism
        (np.zeros((0, 0)), np.zeros(0), DimensionMismatchError, f"{m} must be square and nonempty, got shape (0, 0)"),
        (np.zeros((2, 3)), np.zeros(2), DimensionMismatchError, f"{m} must be square and nonempty, got shape (2, 3)"),
        (np.eye(2), np.zeros(3), DimensionMismatchError, f"{v} has dimension 3, {m} is 2x2"),
        (nan_row, np.zeros(2), NonFiniteSampleError, f"non-finite values produced at {m}[1]"),
        (np.eye(2), np.array([0.0, np.inf]), NonFiniteSampleError, f"non-finite values produced at {v}"),
        (np.diag([1.0, 0.0]), np.zeros(2), SingularMapError, f"{m} is singular to working tolerance"),
    ]
    for matrix, offset, error, message in cases:
        with pytest.raises(error) as err:
            cls(matrix, offset)
        assert str(err.value) == message
    made = cls(np.eye(2), [1, 2])
    for array in (getattr(made, m), getattr(made, v)):
        assert array.dtype == float and not array.flags.writeable


def test_invertibility_is_judged_at_each_class_threshold():
    # a smallest relative singular value of 1e-10 passes the map's 1e-12, not the mechanism's 1e-9
    nearly = np.diag([1.0, 1e-10])
    assert AffineMap(nearly, np.zeros(2)).dim == 2
    with pytest.raises(SingularMapError):
        AffineMechanism(nearly, np.zeros(2))


def test_compose_affine_stays_affine():
    gen = stream(3, 0)
    f = AffineMap(random_invertible(gen, 2), gen.standard_normal(2))
    g = AffineMap(random_invertible(gen, 2), gen.standard_normal(2))
    h = compose(f, g)
    assert isinstance(h, AffineMap)
    z = gen.standard_normal((6, 2))
    assert np.allclose(h(z), f(g(z)), atol=1e-12)
    assert np.allclose(inverse_map(h)(h(z)), z, atol=1e-10)


def test_compose_rejects_a_map_that_is_not_affine():
    a = AffineMap(np.diag([2.0, 0.5]), np.zeros(2))
    with pytest.raises(TypeError, match=r"^outer: compose takes an AffineMap, got ufunc$"):
        compose(np.exp, a)
    with pytest.raises(TypeError, match=r"^inner: compose takes an AffineMap, got function$"):
        compose(a, lambda z: z)


def test_map_power_matches_repeated_application():
    gen = stream(5, 0)
    a = AffineMap(random_invertible(gen, 2, cond_cap=5.0), gen.standard_normal(2))
    z = gen.standard_normal(2)
    out = z
    for _ in range(4):
        out = a(out)
    assert np.allclose(map_power(a, 4)(z), out, atol=1e-10)
    assert isinstance(map_power(a, 1), AffineMap)



@pytest.mark.parametrize("k", [2.5, True])
def test_map_power_takes_a_positive_integer_count(k):
    # 2.5 raised "'float' object cannot be interpreted as an integer", and True gave a itself
    with pytest.raises(ValueError, match="^k must"):
        map_power(AffineMap(np.eye(2), np.zeros(2)), k)

"""Affine and functional bijections: inversion, composition, powers."""

import numpy as np
import pytest

from mechid import (
    AffineMap,
    FunctionBijection,
    LinearDecoder,
    compose,
    map_power,
)
from mechid.errors import SingularMapError
from mechid.rng import stream

from conftest import TransformedDecoder, random_invertible


def test_affine_roundtrip_and_batch():
    gen = stream(1, 0)
    a = AffineMap(random_invertible(gen, 3), gen.standard_normal(3))
    z = gen.standard_normal((10, 3))
    assert np.allclose(a.inverse(a(z)), z, atol=1e-10)
    assert np.allclose(a(z[0]), a(z)[0])  # single points and batches agree


def test_inverse_acts_on_the_last_axis_of_a_stack():
    # solving against (x - p).T reversed every axis of a 3-D stack: the
    # largest entry of |a(a^-1(x)) - x| was 13.5 on this input
    a = AffineMap(np.array([[2.0, 1.0], [0.0, 1.0]]), np.array([0.5, -1.0]))
    x = np.arange(8.0).reshape(2, 2, 2)
    z = a.inverse(x)
    assert z.shape == x.shape
    assert np.allclose(a(z), x, atol=1e-12)
    for i in range(2):
        assert np.array_equal(z[i], a.inverse(x[i]))  # each slice as its own batch
    gen = stream(1, 1)
    stack = gen.standard_normal((3, 4, 5, 2))
    assert np.allclose(a(a.inverse(stack)), stack, atol=1e-12)


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


def test_inverse_map_is_explicit_inverse():
    gen = stream(2, 0)
    a = AffineMap(random_invertible(gen, 2), gen.standard_normal(2))
    inv = a.inverse_map()
    z = gen.standard_normal((5, 2))
    assert np.allclose(inv(a(z)), z, atol=1e-12)
    assert np.allclose(a(inv(z)), z, atol=1e-12)


def test_compose_affine_stays_affine():
    gen = stream(3, 0)
    f = AffineMap(random_invertible(gen, 2), gen.standard_normal(2))
    g = AffineMap(random_invertible(gen, 2), gen.standard_normal(2))
    h = compose(f, g)
    assert isinstance(h, AffineMap)
    z = gen.standard_normal((6, 2))
    assert np.allclose(h(z), f(g(z)), atol=1e-12)
    assert np.allclose(h.inverse(h(z)), z, atol=1e-10)


def test_compose_function_bijection():
    exp = FunctionBijection(np.exp, np.log, dim=2)
    gen = stream(4, 0)
    a = AffineMap(np.diag([2.0, 0.5]), np.zeros(2))
    h = compose(exp, a)
    z = gen.uniform(-1, 1, (8, 2))
    assert np.allclose(h(z), np.exp(a(z)))
    assert np.allclose(h.inverse(h(z)), z, atol=1e-12)


def test_map_power_matches_repeated_application():
    gen = stream(5, 0)
    a = AffineMap(random_invertible(gen, 2, cond_cap=5.0), gen.standard_normal(2))
    z = gen.standard_normal(2)
    out = z
    for _ in range(4):
        out = a(out)
    assert np.allclose(map_power(a, 4)(z), out, atol=1e-10)
    assert isinstance(map_power(a, 1), AffineMap)


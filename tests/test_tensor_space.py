"""The product kernels of W and W_hat, and the 2-D quadrature inner products.

The solve never evaluates a product kernel: it uses that the W kernel is
R(x, y) r(t, s), through Kronecker products of 1-D kernel matrices.  These
tests check that factorization and the 2-D references the Gram and
orthonormality checks are built on.
"""

import numpy as np
import pytest

from rkwave.kernels import closed_form_kernel, eval_kernel_grid

from conftest import Separable, poly, sinusoid
from oracles import DiagonalDerivativeUndefined, inner_product_2d, tensor_section

# test functions in W: separable sums, each factor satisfying the factor
# space's constraints (x: f(0)=f(1)=0; t: g(0)=g'(0)=0)
W_MEMBERS = [
    Separable((poly(0, 1, -1), poly(0, 0, 1))),                      # x(1-x) t^2
    Separable((sinusoid(np.pi), poly(0, 0, 0, 1))),                  # sin(pi x) t^3
    Separable((poly(0, 0, 1, -1), poly(0, 0, 1, 1)), (poly(0, 1, -1), poly(0, 0, 0, 0, 1))),
]
W_HAT_MEMBERS = [
    Separable((poly(0, 1), poly(0, 1))),                             # x t
    Separable((sinusoid(1.1, 0.3), poly(1, 0, 0.5))),
]


def test_factorization_is_exact_product():
    # the W kernel at random point pairs against the product of the
    # package's 1-D kernel matrices, the factorization the Gram assembly uses
    rng = np.random.default_rng(5)
    x, t, y, s = rng.random((4, 20))
    space = eval_kernel_grid(closed_form_kernel("R_spatial"), x, y)
    time = eval_kernel_grid(closed_form_kernel("r_temporal"), t, s)
    for i in range(20):
        for j in range(20):
            want = tensor_section("W", (y[j], s[j]))(x[i], t[i])
            assert abs(space[i, j] * time[i, j] - want) <= 1e-15


def test_vanishes_on_dead_edges():
    K = tensor_section("W", (0.3, 0.7))
    assert K(0.0, 0.4) == 0.0
    assert K(0.3, 0.0) == 0.0
    assert abs(K(1.0, 0.4)) < 1e-15


def test_argument_parameter_symmetry():
    for space, p, q in (("W", (0.2, 0.7), (0.6, 0.1)), ("W_hat", (0.25, 0.9), (0.8, 0.35))):
        assert abs(tensor_section(space, q)(*p) - tensor_section(space, p)(*q)) < 1e-12


def test_diagonal_guard_propagates():
    with pytest.raises(DiagonalDerivativeUndefined):
        tensor_section("W", (0.5, 0.8))(0.5, 0.3, 5, 0)


def test_reproducing_property_w():
    params = [(0.5, 0.5), (0.3, 0.8), (0.85, 0.25)]
    for u in W_MEMBERS:
        for (y, s) in params:
            got = inner_product_2d("W", u, tensor_section("W", (y, s)),
                                   split_x=(y,), split_t=(s,))
            assert abs(got - float(u(y, s))) < 1e-6, (y, s)


def test_reproducing_property_w_example_value():
    u = Separable((poly(0, 1, -1), poly(0, 0, 1)))
    got = inner_product_2d("W", u, tensor_section("W", (0.5, 0.5)),
                           split_x=(0.5,), split_t=(0.5,))
    assert got == pytest.approx(0.0625, abs=1e-10)


def test_reproducing_property_w_hat():
    for u in W_HAT_MEMBERS:
        for (y, s) in [(0.4, 0.9), (0.7, 0.2)]:
            got = inner_product_2d("W_hat", u, tensor_section("W_hat", (y, s)),
                                   split_x=(y,), split_t=(s,))
            assert abs(got - float(u(y, s))) < 1e-6


def test_reproducing_property_w_hat_example_value():
    u = Separable((poly(0, 1), poly(0, 1)))
    got = inner_product_2d("W_hat", u, tensor_section("W_hat", (0.4, 0.9)),
                           split_x=(0.4,), split_t=(0.9,))
    assert got == pytest.approx(0.36, abs=1e-10)


def test_zero_function():
    zero = Separable()
    assert inner_product_2d("W", zero, tensor_section("W", (0.4, 0.6))) == 0.0


def test_unknown_space_rejected():
    zero = Separable()
    for call in (lambda: inner_product_2d("V", zero, zero), lambda: tensor_section("V", (0, 0))):
        with pytest.raises(ValueError):
            call()

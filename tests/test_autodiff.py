import math
import weakref

import numpy as np
import pytest
from numpy.testing import assert_allclose

from geoseg.autodiff import GradientTape, Var, _row_reduce, masked_cross_entropy

IGNORE = 0xFFFF


def finite_difference(f, arr: np.ndarray, step: float = 1e-6) -> np.ndarray:
    """Central differences of a scalar function w.r.t. every entry of arr."""
    grad = np.zeros_like(arr, dtype=np.float64)
    flat = arr.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        hi = f()
        flat[i] = orig - step
        lo = f()
        flat[i] = orig
        gflat[i] = (hi - lo) / (2.0 * step)
    return grad


def contract(v: Var, weights: np.ndarray) -> Var:
    """Scalar-valued probe sum(v * weights), recorded as a tape op of its own."""
    weights = weights.reshape(v.value.shape)
    out = Var(np.sum(v.value * weights), v.tape)

    def backward():
        v.grad += out.grad * weights

    v.tape.record(backward)
    return out


def test_var_starts_with_zero_grad():
    tape = GradientTape()
    v = tape.leaf(np.ones((2, 3)))
    assert v.value.dtype == np.float64
    assert np.array_equal(v.grad, np.zeros((2, 3)))


def test_backward_requires_scalar_target():
    tape = GradientTape()
    v = tape.leaf(np.ones((2, 2)))
    with pytest.raises(ValueError, match="scalar"):
        tape.backward([(v, 1.0)])
    with pytest.raises(ValueError, match="scalar"):
        tape.backward([(tape.leaf(1.0), 1.0), (v, 2.0)])


def test_untouched_leaf_keeps_exact_zero_grad(rng):
    tape = GradientTape()
    x = tape.leaf(rng.normal(size=(3, 2)))
    unused = tape.leaf(rng.normal(size=(4, 4)))
    tape.backward([(contract(x, rng.normal(size=6)), 2.0)])
    assert np.array_equal(unused.grad, np.zeros((4, 4)))


def test_backward_releases_the_graph():
    # Intermediate Vars must die by refcount alone once backward ran;
    # a lingering closure would pin every activation of the step.
    tape = GradientTape()
    x = tape.leaf(np.ones((4, 4)))
    out = contract(x, np.ones(16))
    ref = weakref.ref(out)
    tape.backward([(out, 2.0)])
    del out
    assert ref() is None


def test_shared_leaf_accumulates():
    tape = GradientTape()
    x = tape.leaf(np.array([[2.0]]))
    y = contract(x, np.array([1.0]))
    z = contract(x, np.array([3.0]))
    tape.backward([(y, 1.0), (z, 1.0)])
    assert x.grad[0, 0] == 4.0


def test_backward_seeds_each_term_with_its_weight(rng):
    x0 = rng.normal(size=(2, 4))
    probes = rng.normal(size=(3, 8))
    weights = (1.0, 0.5, 2.5)

    def value():
        total = 0.0
        for w, probe in zip(weights, probes):
            total = total + w * float(x0.ravel() @ probe)
        return total

    tape = GradientTape()
    x = tape.leaf(x0)
    terms = [(contract(x, p), w) for w, p in zip(weights, probes)]
    tape.backward(terms)
    assert [float(v.grad) for v, _ in terms] == list(weights)
    assert_allclose(x.grad, finite_difference(value, x0), atol=1e-7)


def test_backward_seeds_a_repeated_term_with_its_weights_summed():
    tape = GradientTape()
    x = tape.leaf(np.array([[2.0]]))
    y = contract(x, np.array([3.0]))
    tape.backward([(y, 0.5), (y, 2.0)])
    assert float(y.grad) == 2.5
    assert x.grad[0, 0] == 7.5


# ------------------------------------------------------- masked cross-entropy


def ce_oracle(logits: np.ndarray, labels: np.ndarray) -> float:
    """Scalar-arithmetic reference: mean -log softmax over valid points."""
    total = 0.0
    count = 0
    for row, y in zip(logits, labels):
        if y == IGNORE:
            continue
        denom = sum(math.exp(v - max(row)) for v in row)
        total += -(row[y] - max(row) - math.log(denom))
        count += 1
    return total / count


def test_saturated_softmax_has_negligible_loss():
    logits = np.zeros((3, 5))
    labels = np.array([1, 2, 0], dtype=np.uint16)
    logits[np.arange(3), labels] = 50.0
    tape = GradientTape()
    out = masked_cross_entropy(tape.leaf(logits), labels)
    assert float(out.value) < 1e-8


def test_uniform_softmax_loss_is_log_c():
    tape = GradientTape()
    out = masked_cross_entropy(tape.leaf(np.zeros((4, 19))), np.zeros(4, dtype=np.uint16))
    assert_allclose(float(out.value), math.log(19.0), atol=1e-12)


def test_all_ignored_returns_none():
    tape = GradientTape()
    labels = np.full(3, IGNORE, dtype=np.uint16)
    assert masked_cross_entropy(tape.leaf(np.ones((3, 2))), labels) is None


def test_matches_scalar_oracle_and_ignores_masked(rng):
    logits0 = rng.normal(size=(6, 3))
    labels = np.array([0, 2, IGNORE, 1, IGNORE, 2], dtype=np.uint16)
    tape = GradientTape()
    logits = tape.leaf(logits0)
    out = masked_cross_entropy(logits, labels)
    assert_allclose(float(out.value), ce_oracle(logits0, labels), atol=1e-10)
    tape.backward([(out, 1.0)])
    fd = finite_difference(lambda: ce_oracle(logits0, labels), logits0)
    assert_allclose(logits.grad, fd, atol=1e-7)
    # Ignored rows receive exactly zero gradient.
    assert np.array_equal(logits.grad[2], np.zeros(3))
    assert np.array_equal(logits.grad[4], np.zeros(3))


def ce_value_and_grad(logits0: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    tape = GradientTape()
    logits = tape.leaf(logits0)
    out = masked_cross_entropy(logits, labels)
    tape.backward([(out, 1.0)])
    return float(out.value), logits.grad


@pytest.mark.parametrize("classes", [2, 6, 19])
def test_appended_ignored_rows_change_no_bit(classes, rng):
    # Without an ignored label the rows are read in place; with one they
    # are gathered. Both give the same loss and the same valid gradients.
    logits0 = rng.normal(size=(500, classes))
    labels = rng.integers(0, classes, size=500).astype(np.uint16)
    loss, grad = ce_value_and_grad(logits0, labels)
    padded = np.vstack([logits0, rng.normal(size=(37, classes))])
    padded_labels = np.concatenate([labels, np.full(37, IGNORE, dtype=np.uint16)])
    padded_loss, padded_grad = ce_value_and_grad(padded, padded_labels)
    assert padded_loss.hex() == loss.hex()
    assert padded_grad[:500].tobytes() == grad.tobytes()


def test_ignored_rows_get_exactly_zero_gradient(rng):
    logits0 = rng.normal(size=(300, 6)) * 10.0
    labels = rng.integers(0, 6, size=300).astype(np.uint16)
    ignored = rng.random(300) < 0.3
    labels[ignored] = IGNORE
    _, grad = ce_value_and_grad(logits0, labels)
    assert np.all(grad[ignored] == 0.0)
    assert np.all(np.any(grad[~ignored] != 0.0, axis=1))


@pytest.mark.parametrize("shape", [(1, 1), (7, 1), (2400, 6), (50, 19)])
def test_row_reduce_equals_the_axis_reduction(shape, rng):
    z = rng.normal(size=shape)
    z[::3, -1] = z[::3, 0]  # ties
    z[1::5] = -np.inf
    assert _row_reduce(np.maximum, z).tobytes() == np.max(z, axis=1).tobytes()
    assert _row_reduce(np.minimum, z).tobytes() == np.min(z, axis=1).tobytes()
    strided = rng.normal(size=(shape[0], 2 * shape[1]))[:, ::2]
    assert _row_reduce(np.maximum, strided).tobytes() == np.max(strided, axis=1).tobytes()
    if shape[1] < 8:  # numpy adds a row this short in order, too
        assert _row_reduce(np.add, z).tobytes() == np.sum(z, axis=1).tobytes()


def test_gradient_scales_with_upstream_factor(rng):
    logits0 = rng.normal(size=(4, 3))
    labels = np.array([0, 1, 2, 0], dtype=np.uint16)

    def grads(factor):
        tape = GradientTape()
        logits = tape.leaf(logits0)
        out = masked_cross_entropy(logits, labels)
        tape.backward([(out, factor)])
        return logits.grad

    assert_allclose(grads(3.0), 3.0 * grads(1.0), atol=1e-12)

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracksfm import autodiff as ad
from tracksfm.autodiff import (
    NumericError,
    SegmentIndexError,
    ShapeError,
    backward,
    grad_check,
    zero_grads,
)

from oracles import gatv2_oracle, leaky_relu, reshape


def fd_check(build, params, tol=1e-6, step=1e-5):
    report = grad_check(build, params, step=step, tol=tol)
    assert report.passed, report.worst()


class TestPrimitiveGradients:
    """Every primitive against central finite differences on smooth random
    inputs away from kinks."""

    def test_matmul(self, rng):
        x = ad.parameter(rng.normal(size=(4, 3)))
        w = ad.parameter(rng.normal(size=(3, 5)))
        c = ad.constant(rng.normal(size=(4, 5)))
        fd_check(lambda: ad.tsum(ad.matmul(x, w) * c), {"x": x, "w": w})

    def test_add_mul_div_broadcast(self, rng):
        a = ad.parameter(rng.normal(size=(4, 3)))
        b = ad.parameter(rng.normal(size=(3,)))
        c = ad.parameter(rng.uniform(1.5, 2.5, size=(4, 1)))
        fd_check(lambda: ad.tsum((a + b) * b / c), {"a": a, "b": b, "c": c})

    def test_concat_narrow_reshape(self, rng):
        a = ad.parameter(rng.normal(size=(3, 2)))
        b = ad.parameter(rng.normal(size=(3, 4)))

        def build():
            z = ad.concat([a, b], axis=1)
            z = ad.narrow(z, 1, 1, 4)
            return ad.tsum(reshape(z, (-1,)) * ad.constant(np.arange(12.0)))
        fd_check(build, {"a": a, "b": b})

    def test_gather_segment_sum(self, rng):
        x = ad.parameter(rng.normal(size=(5, 3)))
        idx = np.array([0, 0, 2, 4, 4, 4])
        seg = np.array([0, 1, 1, 0, 2, 2])

        def build():
            rows = ad.gather(x, idx)
            pooled = ad.segment_sum(rows, seg, 3)
            return ad.tsum(pooled * pooled)
        fd_check(build, {"x": x})

    def test_segment_softmax(self, rng):
        s = ad.parameter(rng.normal(size=(7, 2)))
        seg = np.array([0, 0, 0, 1, 1, 2, 2])
        weights = ad.constant(rng.normal(size=(7, 2)))
        fd_check(lambda: ad.tsum(ad.segment_softmax(s, seg, 3) * weights), {"s": s})

    def test_activations(self, rng):
        x = ad.parameter(rng.normal(size=(4, 4)) + 0.05)  # keep away from kinks
        fd_check(lambda: ad.tsum(leaky_relu(x, 0.2) + ad.relu(x)), {"x": x})

    def test_layer_norm(self, rng):
        x = ad.parameter(rng.normal(size=(6, 8)))
        g = ad.parameter(rng.uniform(0.5, 1.5, size=(8,)))
        b = ad.parameter(rng.normal(size=(8,)))
        c = ad.constant(rng.normal(size=(6, 8)))
        report = grad_check(lambda: ad.tsum(ad.layer_norm(x, g, b) * c),
                            {"x": x, "g": g, "b": b}, step=1e-5, tol=1e-5)
        assert report.passed, report.worst()

    def test_gatv2(self, rng):
        src = ad.parameter(rng.normal(size=(7, 6)))
        tgt = ad.parameter(rng.normal(size=(3, 6)))
        w = ad.parameter(rng.normal(size=(12, 8)) / 3.0)
        a = ad.parameter(rng.normal(size=(8,)))
        c = ad.constant(rng.normal(size=(3, 8)))
        edge_tgt = np.array([2, 0, 1, 1, 2, 0, 2])
        fd_check(lambda: ad.tsum(ad.gatv2(src, tgt, w, a, edge_tgt, 3, 4, 0.2)[0] * c),
                 {"src": src, "tgt": tgt, "w": w, "a": a})

    def test_sqrt_where_reductions(self, rng):
        x = ad.parameter(rng.uniform(0.5, 2.0, size=(5, 3)))
        y = ad.parameter(rng.normal(size=(5, 3)))
        mask = rng.random((5, 3)) > 0.5
        fd_check(lambda: ad.tmean(ad.where(mask, ad.sqrt(x), y * y)),
                 {"x": x, "y": y})

    def test_linear_map_matches_fd(self, rng):
        """d/dx of x.W at random (x, W) to relative 1e-6, step 1e-5."""
        x = ad.parameter(rng.normal(size=(3, 4)))
        w = ad.parameter(rng.normal(size=(4, 2)))
        fd_check(lambda: ad.tsum(ad.matmul(x, w)), {"x": x, "w": w}, tol=1e-6)


class TestSegmentSoftmaxValues:
    def test_singleton_group(self):
        s = ad.constant([[3.7]])
        out = ad.segment_softmax(s, np.array([0]), 1)
        np.testing.assert_allclose(out.values, [[1.0]])

    def test_two_equal_scores(self):
        s = ad.constant([[1.3], [1.3]])
        out = ad.segment_softmax(s, np.array([0, 0]), 1)
        np.testing.assert_allclose(out.values, [[0.5], [0.5]])

    def test_distribution_property(self, rng):
        s = ad.constant(rng.normal(size=(20, 4)))
        seg = rng.integers(0, 5, size=20)
        seg[:5] = np.arange(5)  # no empty segments
        alpha = ad.segment_softmax(s, seg, 5).values
        assert (alpha >= 0).all()
        sums = np.zeros((5, 4))
        np.add.at(sums, seg, alpha)
        np.testing.assert_allclose(sums, 1.0, atol=1e-12)

    def test_empty_segment_rejected(self):
        with pytest.raises(SegmentIndexError):
            ad.segment_softmax(ad.constant([[1.0]]), np.array([0]), 2)

    def test_bad_indices_rejected(self):
        with pytest.raises(SegmentIndexError):
            ad.segment_sum(ad.constant([[1.0]]), np.array([5]), 2)


def _gatv2_run(fn, edge_tgt, values, weights):
    """Forward, weights and the four input gradients of one attention."""
    src, tgt, w, a = (ad.parameter(v.copy()) for v in values)
    out, alpha = fn(src, tgt, w, a, edge_tgt, len(weights), 4, 0.2)
    backward(ad.tsum(out * ad.constant(weights)))
    alpha = alpha.values if isinstance(alpha, ad.Tensor) else alpha
    return [out.values, alpha] + [t.grad for t in (src, tgt, w, a)]


class TestGatv2:
    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(d1=st.sampled_from([2, 3, 4, 8]), n_tgt=st.integers(1, 6),
           extra=st.lists(st.integers(0, 5), max_size=12),
           seed=st.integers(0, 2**32 - 1))
    def test_bit_identical_to_composed_oracle(self, d1, n_tgt, extra, seed):
        """On random bipartite graphs (every target with an in-edge, edges
        shuffled) the fused primitive reproduces the composed attention's
        output, weights and all four input gradients exactly."""
        rng = np.random.default_rng(seed)
        edge_tgt = np.concatenate([np.arange(n_tgt), np.asarray(extra, dtype=np.int64) % n_tgt])
        edge_tgt = edge_tgt[rng.permutation(len(edge_tgt))]
        da = 4 * ((d1 + 3) // 4)
        values = [rng.normal(size=(len(edge_tgt), d1)), rng.normal(size=(n_tgt, d1)),
                  rng.normal(size=(2 * d1, da)) / np.sqrt(d1), rng.normal(size=(da,))]
        weights = rng.normal(size=(n_tgt, da))
        fused = _gatv2_run(ad.gatv2, edge_tgt, values, weights)
        composed = _gatv2_run(gatv2_oracle, edge_tgt, values, weights)
        for got, want in zip(fused, composed):
            np.testing.assert_array_equal(got, want)

    def test_segment_checks(self):
        src, tgt = ad.constant(np.ones((2, 4))), ad.constant(np.ones((2, 4)))
        w, a = ad.constant(np.ones((8, 4))), ad.constant(np.ones(4))
        with pytest.raises(SegmentIndexError):
            ad.gatv2(src, tgt, w, a, np.array([0, 2]), 2, 4, 0.2)
        with pytest.raises(SegmentIndexError):
            ad.gatv2(src, tgt, w, a, np.array([1, 1]), 2, 4, 0.2)
        with pytest.raises(ShapeError):
            ad.gatv2(src, tgt, w, a, np.array([0, 0]), 1, 4, 0.2)


class TestBackward:
    def test_sum_gives_ones(self):
        x = ad.parameter(np.arange(6.0).reshape(2, 3))
        backward(ad.tsum(x))
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_disconnected_leaf_zero_buffer(self):
        x = ad.parameter(np.ones(3))
        y = ad.parameter(np.ones(3))
        backward(ad.tsum(x * 2.0), params=[x, y])
        np.testing.assert_array_equal(y.grad, np.zeros(3))

    def test_non_scalar_root_rejected(self):
        x = ad.parameter(np.ones(3))
        with pytest.raises(ShapeError):
            backward(x * 1.0)

    def test_repeat_rejected(self):
        """A second backward through the same root raises and leaves the
        first pass's gradient as it was."""
        x = ad.parameter(np.ones(3))
        root = ad.tsum(x)
        backward(root)
        with pytest.raises(RuntimeError):
            backward(root)
        np.testing.assert_array_equal(x.grad, np.ones(3))

    def test_independent_subgraphs_concatenate(self, rng):
        """backward of a sum of independent subgraphs equals the
        concatenation of independent backwards."""
        xv, yv = rng.normal(size=(3,)), rng.normal(size=(4,))
        x1, y1 = ad.parameter(xv), ad.parameter(yv)
        backward(ad.tsum(x1 * x1) + ad.tsum(ad.sqrt(ad.constant(np.abs(yv) + 1) * y1 * y1)))
        x2, y2 = ad.parameter(xv), ad.parameter(yv)
        backward(ad.tsum(x2 * x2))
        backward(ad.tsum(ad.sqrt(ad.constant(np.abs(yv) + 1) * y2 * y2)))
        np.testing.assert_array_equal(x1.grad, x2.grad)
        np.testing.assert_array_equal(y1.grad, y2.grad)

    def test_tape_topological_order(self):
        x = ad.parameter(np.ones(2))
        y = x * 2.0
        z = y + x
        root = ad.tsum(z * y)
        nodes = ad._trace(root)
        assert len(nodes) == 5 and nodes[-1] is root
        pos = {id(n): k for k, n in enumerate(nodes)}
        for node in nodes:
            for parent in node._parents:
                if id(parent) in pos:
                    assert pos[id(parent)] < pos[id(node)]

    def test_forward_determinism(self, rng):
        vals = rng.normal(size=(8, 8))
        def run():
            x = ad.constant(vals)
            ln = ad.layer_norm(ad.matmul(x, x) / 3.0, ad.constant(np.ones(8)),
                               ad.constant(np.zeros(8)))
            return ad.tsum(ln).values.copy()
        np.testing.assert_array_equal(run(), run())


class TestScatterAdd:
    @pytest.mark.parametrize("shape", [(7, 3), (20, 1024), (50, 6, 6), (3000, 16),
                                       (0, 3), (5, 0)])
    def test_bit_identical_to_add_at(self, rng, shape):
        """Both the one-bincount path (small inputs) and the per-column
        path add rows in input order; magnitudes spread over 16 decades
        make any other order show."""
        index = rng.integers(0, 11, size=shape[0])
        scale = 10.0 ** rng.integers(-8, 8, size=(shape[0],) + (1,) * (len(shape) - 1))
        values = rng.normal(size=shape) * scale
        expect = np.zeros((11,) + shape[1:])
        np.add.at(expect, index, values)
        got = ad.scatter_add(index, values, 11)
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, expect)


def assert_distinct_grads(*leaves):
    for i, a in enumerate(leaves):
        for b in leaves[i + 1:]:
            assert not np.shares_memory(a.grad, b.grad)


class TestGradientBuffers:
    """Adjoints passed through unchanged (add, reshape, concat slices) are
    copied into a leaf's buffer, while freshly computed ones are kept; each
    case must still match central differences, with no shared buffers."""

    def test_self_add(self, rng):
        x = ad.parameter(rng.normal(size=(3, 4)))
        c = ad.constant(rng.normal(size=(3, 4)))
        fd_check(lambda: ad.tsum((x + x) * c), {"x": x})
        np.testing.assert_array_equal(x.grad, 2.0 * c.values)

    def test_add_then_reuse(self, rng):
        a = ad.parameter(rng.normal(size=(4, 3)))
        b = ad.parameter(rng.normal(size=(4, 3)))
        c = ad.constant(rng.normal(size=(4, 3)))

        def build():
            y = a + b                        # both parents receive the same adjoint
            return ad.tsum(y * c) + ad.tsum(ad.matmul(a, reshape(a, (3, 4))))
        fd_check(build, {"a": a, "b": b})
        assert_distinct_grads(a, b)
        np.testing.assert_array_equal(b.grad, c.values)

    def test_reshape_and_narrow_of_shared_leaf(self, rng):
        x = ad.parameter(rng.normal(size=(4, 6)))
        y = ad.parameter(rng.normal(size=(24,)))
        w = ad.constant(rng.normal(size=(24,)))

        def build():
            flat = reshape(x, (24,)) + y
            left = ad.narrow(x, 1, 0, 4)
            mid = ad.narrow(x, 1, 2, 3)
            return (ad.tsum(flat * w) + ad.tsum(left * left)
                    + ad.tsum(ad.matmul(mid, reshape(ad.narrow(y, 0, 3, 6), (3, 2)))))
        fd_check(build, {"x": x, "y": y})
        assert_distinct_grads(x, y)


class TestShapeErrors:
    def test_matmul_mismatch(self):
        with pytest.raises(ShapeError):
            ad.matmul(ad.constant(np.ones((2, 3))), ad.constant(np.ones((2, 3))))

    def test_add_mismatch(self):
        with pytest.raises(ShapeError):
            ad.constant(np.ones((2, 3))) + ad.constant(np.ones((4, 5)))

    def test_narrow_out_of_range(self):
        with pytest.raises(ShapeError):
            ad.narrow(ad.constant(np.ones((2, 3))), 1, 2, 5)


class TestGradCheck:
    def test_quadratic_exact(self, rng):
        """Central differences are exact for quadratics."""
        theta = ad.parameter(rng.normal(size=(5,)))
        report = grad_check(lambda: ad.tsum(theta * theta), {"theta": theta},
                            step=1e-5, tol=1e-9)
        assert report.passed
        assert report.max_relative < 1e-10

    def test_discontinuity_reported(self):
        """A jump at the evaluation point must show up as a failure, not
        pass silently."""
        theta = ad.parameter(np.array([0.0]))   # sits exactly on the jump

        def build():
            jump = ad.where(theta.values < 0, ad.constant([5.0]), ad.constant([0.0]))
            return ad.tsum(theta * theta + jump)
        report = grad_check(build, {"theta": theta}, step=1e-5, tol=1e-4)
        assert not report.passed

    def test_nonfinite_objective_raises(self):
        theta = ad.parameter(np.array([0.0]))
        with np.errstate(invalid="ignore"), pytest.raises(NumericError):
            grad_check(lambda: ad.tsum(theta / theta), {"theta": theta})

    def test_coordinate_sampling_covers_all_params(self, rng):
        a = ad.parameter(rng.normal(size=(10,)))
        b = ad.parameter(rng.normal(size=(2,)))
        report = grad_check(lambda: ad.tsum(a * a) + ad.tsum(b * b * b),
                            {"a": a, "b": b}, max_coords_per_param=3)
        assert set(report.per_param) == {"a", "b"}


class TestZeroGrads:
    def test_reset(self):
        x = ad.parameter(np.ones(2))
        backward(ad.tsum(x))
        assert x.grad is not None
        zero_grads([x])
        assert x.grad is None

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from tracksfm import autodiff as ad
from tracksfm import network
from tracksfm.network import (
    LayerNumericError,
    ModelParams,
    NetConfig,
    _att_dim,
    forward,
    graph_cross_attention,
    init_params,
    normalize_camera_matrices,
    param_shapes,
    parameter_count,
    update_global_feat,
    update_point_feats,
    update_proj_feats,
    update_view_feats,
)
from tracksfm.objective import loss

from conftest import make_scene
from oracles import gatv2_oracle, layer_norm_oracle

TINY = NetConfig(layers=2, d_p=8, d_v=32, d_s=16, d_g=64)


def tiny_params(seed=0, cfg=TINY):
    return init_params(cfg, seed)


def make_gat_params(d1, seed=0, prefix="gat"):
    """Standalone attention parameter block for direct layer tests."""
    rng = np.random.default_rng(seed)
    da = _att_dim(d1)
    tensors = {
        f"{prefix}.att.w": ad.parameter(rng.normal(size=(2 * d1, da)) / np.sqrt(2 * d1)),
        f"{prefix}.att.a": ad.parameter(rng.normal(size=(da,))),
    }
    return network._ParamView(tensors, prefix)


def attend(src, tgt, edge_tgt, n_tgt, pv):
    """The network's attention with the parameters of `pv`: the output and
    the (E, heads) weights."""
    return ad.gatv2(src, tgt, pv["att.w"], pv["att.a"], edge_tgt, n_tgt,
                    network.NUM_HEADS, network.LEAKY_SLOPE)


class TestParameterCount:
    def test_full_scale_configuration(self):
        """The full-scale dimensions come to 145,176,240 learned scalars,
        within 2% of the nominal 145M; the exact value is locked."""
        cfg = NetConfig(layers=12, d_p=32, d_v=1024, d_s=64, d_g=2048)
        count = parameter_count(cfg)
        assert count == 145_176_240
        assert abs(count - 145e6) / 145e6 < 0.02

    def test_tiny_count_against_symbolic_oracle(self):
        """Independent closed-form recount of every block for the tiny
        configuration."""
        L, dp, dv, ds, dg = 2, 8, 32, 16, 64

        def lin(a, b):
            return a * b + b

        def gca(d1, d2, tgt):
            n = 2 * d1 + (2 * d2 + (lin(d2, d1) if d1 != d2 else 0) if tgt else 0)
            da = 4 * ((d1 + 3) // 4)
            n += da * 2 * d1 + da
            return n + (lin(da, d2) if da != d2 else 0)

        def node(src, d, tgt):
            return gca(src, d, tgt) + 2 * d + lin(d, d)

        def glob(tgt):
            return gca(dv, dg, tgt) + gca(ds, dg, tgt) + 2 * dg + lin(dg, dg)

        def proj(dpin):
            return 2 * (dv + ds + dg + dpin) + lin(dv + ds + dg + dpin, dp)

        expected = lin(2, 2)
        expected += node(2, dv, False) + node(2, ds, False) + glob(False)
        expected += proj(2) + (L - 1) * proj(dp + 2)
        expected += L * (node(dp, dv, True) + node(dp, ds, True))
        expected += (L - 1) * glob(True)
        expected += 2 * lin(dv, dv) + lin(dv, 7) + 2 * lin(ds, ds) + lin(ds, 3)
        assert parameter_count(TINY) == expected

    def test_projective_head_width(self):
        cfg_e = NetConfig(layers=2, d_p=8, d_v=32, d_s=16, d_g=64, mode="euclidean")
        cfg_p = NetConfig(layers=2, d_p=8, d_v=32, d_s=16, d_g=64, mode="projective")
        assert parameter_count(cfg_p) - parameter_count(cfg_e) == 5 * 32 + 5


class TestInitParams:
    def test_deterministic(self):
        a = tiny_params(seed=9)
        b = tiny_params(seed=9)
        for name in a.tensors:
            np.testing.assert_array_equal(a[name].values, b[name].values)

    def test_bias_zero_gain_one(self):
        params = tiny_params()
        np.testing.assert_array_equal(params["embed.b"].values, np.zeros(2))
        np.testing.assert_array_equal(params["layer0.view.ln.g"].values, np.ones(32))
        np.testing.assert_array_equal(params["layer0.view.ln.b"].values, np.zeros(32))

    def test_weight_bounds(self):
        params = tiny_params()
        w = params["layer0.view.ffn.w"].values
        assert np.abs(w).max() <= 1.0 / np.sqrt(32)


class TestParameterArena:
    def test_values_are_views_of_one_buffer(self):
        params = tiny_params()
        base = params.flat.__array_interface__["data"][0]
        offset = 0
        for name, shape in param_shapes(TINY).items():
            values = params[name].values
            assert values.shape == shape and values.flags.c_contiguous
            assert values.__array_interface__["data"][0] == base + 8 * offset, name
            assert np.shares_memory(values, params.flat)
            offset += values.size
        assert offset == params.flat.size == parameter_count(TINY)

    def test_init_equals_per_tensor_uniform_draws(self):
        """Drawing into the buffer gives the values of one rng.uniform
        call per tensor in canonical order, bit for bit."""
        cfg = NetConfig(layers=1, d_p=4, d_v=8, d_s=4, d_g=8)
        params = init_params(cfg, 7)
        rng = np.random.default_rng(7)
        for name, shape in param_shapes(cfg).items():
            leaf = name.rsplit(".", 1)[-1]
            if leaf == "b":
                expected = np.zeros(shape)
            elif leaf == "g":
                expected = np.ones(shape)
            else:
                fan_in = shape[0] // 4 if leaf == "a" else shape[0]
                expected = rng.uniform(-1.0 / np.sqrt(fan_in), 1.0 / np.sqrt(fan_in),
                                       size=shape)
            np.testing.assert_array_equal(params[name].values, expected)

    def test_given_buffer_is_adopted(self, rng):
        """A given buffer becomes `flat` itself, not a copy, so writes to
        a parameter land in it; a buffer of another size or dtype, or a
        strided one, is rejected."""
        flat = rng.normal(size=parameter_count(TINY))
        params = ModelParams(TINY, flat)
        assert params.flat is flat
        np.testing.assert_array_equal(params["embed.w"].values.ravel(), flat[:4])
        params["point_head.l2.b"].values[...] = 7.0
        np.testing.assert_array_equal(flat[-3:], 7.0)
        for bad in (flat[:-1], flat.astype(np.float32), np.repeat(flat, 2)[::2]):
            with pytest.raises(ValueError, match="contiguous float64 parameter values"):
                ModelParams(TINY, bad)

    def test_backward_writes_into_the_gradient_buffer(self):
        """Two consecutive backward passes leave every .grad its view of
        `params.grad`, and neither makes an array as large as the largest
        weight (init_global.ffn.w, 512 KiB of the model's 617 KiB): each
        weight's adjoint is written into its view. Both passes give the
        same gradients."""
        cfg = NetConfig(layers=1, d_p=8, d_v=16, d_s=8, d_g=256)
        params = init_params(cfg, 0)
        scene, _, _ = make_scene(num_views=4, num_points=12, seed=0)
        tensors = params.tensors.values()
        largest = params["init_global.ffn.w"].values.nbytes
        grads = []
        for _ in range(2):
            ad.zero_grads(tensors)
            total, _ = loss(scene, forward(scene, params))
            tracemalloc.start()
            ad.backward(total, params=tensors)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            assert peak < largest
            for name, p in params.tensors.items():
                assert p.grad is p.grad_buffer and np.shares_memory(p.grad, params.grad), name
            grads.append(params.grad.copy())
        np.testing.assert_array_equal(grads[0], grads[1])


def composed_attention(src, tgt, w, a, edge_tgt, n_tgt, heads, slope):
    """`ad.gatv2`'s signature over the composed oracle."""
    out, alpha = gatv2_oracle(src, tgt, w, a, edge_tgt, n_tgt, heads, slope)
    return out, alpha.values


def composed_ln_affine(x, pv, name):
    sub = pv.sub(name)
    return layer_norm_oracle(x, sub["g"], sub["b"], network.LN_EPS)


class TestFusedPrimitivesInNetwork:
    @pytest.mark.parametrize("mode", ["euclidean", "projective"])
    def test_gradients_bit_identical_to_composed(self, monkeypatch, mode):
        """Forward, loss and every parameter gradient with the fused
        attention and layer norm equal the composed forms exactly: the
        fused nodes keep the composition's tape order, so adjoints reach
        features with several consumers in the same order."""
        scene, _, _ = make_scene(num_views=4, num_points=14, visibility=0.8, seed=3,
                                 mode=mode)
        cfg = replace(TINY, mode=mode)

        def run():
            params = init_params(cfg, seed=1)
            total, _ = loss(scene, forward(scene, params))
            ad.backward(total, params=params.tensors.values())
            return total.values, {name: p.grad for name, p in params.tensors.items()}

        fused_loss, fused = run()
        monkeypatch.setattr(ad, "gatv2", composed_attention)
        monkeypatch.setattr(network, "_ln_affine", composed_ln_affine)
        composed_loss, composed = run()
        np.testing.assert_array_equal(fused_loss, composed_loss)
        for name, grad in composed.items():
            np.testing.assert_array_equal(fused[name], grad, err_msg=name)


class TestGatv2Attention:
    def test_single_neighbor_identity(self, rng):
        """With one in-edge the softmax weight is 1, so the output is that
        neighbor's source projection."""
        d = 8
        pv = make_gat_params(d)
        src = ad.constant(rng.normal(size=(1, d)))
        tgt = ad.constant(rng.normal(size=(1, d)))
        out, _ = attend(src, tgt, np.array([0]), 1, pv)
        expected = src.values @ pv["att.w"].values[d:]
        np.testing.assert_allclose(out.values, expected, atol=1e-14)

    def test_identical_neighbors_half_weight(self, rng):
        d = 8
        pv = make_gat_params(d)
        feat = rng.normal(size=(1, d))
        src = ad.constant(np.vstack([feat, feat]))
        tgt = ad.constant(rng.normal(size=(1, d)))
        _, alpha = attend(src, tgt, np.array([0, 0]), 1, pv)
        np.testing.assert_allclose(alpha, 0.5, atol=1e-15)

    def test_weights_are_distribution(self, rng):
        d = 8
        pv = make_gat_params(d, seed=3)
        src = ad.constant(rng.normal(size=(6, d)))
        tgt = ad.constant(rng.normal(size=(2, d)))
        edge_tgt = np.array([0, 0, 0, 1, 1, 1])
        _, alpha = attend(src, tgt, edge_tgt, 2, pv)
        assert (alpha >= 0).all()
        sums = np.zeros((2, alpha.shape[1]))
        np.add.at(sums, edge_tgt, alpha)
        np.testing.assert_allclose(sums, 1.0, atol=1e-12)

    def test_dense_bipartite_against_reference(self, rng):
        """5x5 dense bipartite case against an explicit per-edge, per-head
        loop implementing the score/softmax/average equations directly."""
        d = 8
        pv = make_gat_params(d, seed=5)
        src_v = rng.normal(size=(5, d))
        tgt_v = rng.normal(size=(5, d))
        edge_src, edge_tgt = np.meshgrid(np.arange(5), np.arange(5))
        edge_src, edge_tgt = edge_src.ravel(), edge_tgt.ravel()
        out, _ = attend(ad.constant(src_v[edge_src]), ad.constant(tgt_v), edge_tgt, 5, pv)

        W = pv["att.w"].values            # (2d, da) row convention
        a = pv["att.a"].values
        da = W.shape[1]
        hd = da // 4
        expected = np.zeros((5, da))
        for t in range(5):
            for h in range(4):
                Wh = W[:, h * hd:(h + 1) * hd]
                ah = a[h * hd:(h + 1) * hd]
                scores = []
                msgs = []
                for s in range(5):
                    pre = np.concatenate([tgt_v[t], src_v[s]]) @ Wh
                    pre = np.where(pre > 0, pre, 0.2 * pre)
                    scores.append(ah @ pre)
                    msgs.append(src_v[s] @ Wh[d:])
                scores = np.asarray(scores)
                e = np.exp(scores - scores.max())
                alpha = e / e.sum()
                expected[t, h * hd:(h + 1) * hd] = alpha @ np.asarray(msgs)
        assert np.abs(out.values - expected).max() < 1e-12

    def test_isolated_target_rejected(self, rng):
        d = 8
        pv = make_gat_params(d)
        src = ad.constant(rng.normal(size=(2, d)))
        tgt = ad.constant(rng.normal(size=(2, d)))
        with pytest.raises(ad.SegmentIndexError):
            attend(src, tgt, np.array([0, 0]), 2, pv)

    def test_one_source_row_per_edge(self, rng):
        d = 8
        pv = make_gat_params(d)
        src = ad.constant(rng.normal(size=(1, d)))
        tgt = ad.constant(rng.normal(size=(1, d)))
        with pytest.raises(ad.ShapeError):
            attend(src, tgt, np.array([0, 0]), 1, pv)


class TestGraphCrossAttention:
    def _gca_params(self, d1, d2, has_tgt, seed=0):
        rng = np.random.default_rng(seed)
        from tracksfm.network import _gca_shapes
        tensors = {}
        for name, shape in _gca_shapes("g", d1, d2, has_tgt):
            leaf = name.rsplit(".", 1)[-1]
            if leaf == "b":
                values = np.zeros(shape)
            elif leaf == "g":
                values = np.ones(shape)
            else:
                values = rng.normal(size=shape) / np.sqrt(shape[0])
            tensors[name] = ad.parameter(values)
        return network._ParamView(tensors, "g")

    def test_absent_targets_equal_zero_queries(self, rng):
        """With d1 == d2 and no previous targets, the wrapper reduces to
        attention with zero query features over normalized sources."""
        d = 8
        pv = self._gca_params(d, d, has_tgt=False)
        h1 = ad.constant(rng.normal(size=(4, d)))
        edge_tgt = np.zeros(4, dtype=np.int64)
        out = graph_cross_attention(h1, None, edge_tgt, 1, pv)
        h1n = ad.relu(ad.layer_norm(h1, ad.constant(np.ones(d)), ad.constant(np.zeros(d))))
        direct, _ = attend(h1n, ad.constant(np.zeros((1, d))), edge_tgt, 1, pv)
        np.testing.assert_array_equal(out.values, direct.values)

    def test_equal_dims_allocate_no_projections(self):
        from tracksfm.network import _gca_shapes
        names = [n for n, _ in _gca_shapes("g", 8, 8, True)]
        assert not any("proj_in" in n or "proj_out" in n for n in names)
        names = [n for n, _ in _gca_shapes("g", 8, 16, True)]
        assert any("proj_in" in n for n in names) and any("proj_out" in n for n in names)

    def test_attention_is_dynamic(self, rng):
        """Changing the previous target features changes the output while
        the sources stay fixed."""
        d1, d2 = 8, 8
        pv = self._gca_params(d1, d2, has_tgt=True, seed=2)
        h1 = ad.constant(rng.normal(size=(5, d1)))
        edge_tgt = np.array([0, 0, 0, 1, 1])
        out_a = graph_cross_attention(h1, ad.constant(rng.normal(size=(2, d2))),
                                      edge_tgt, 2, pv)
        out_b = graph_cross_attention(h1, ad.constant(rng.normal(size=(2, d2))),
                                      edge_tgt, 2, pv)
        assert np.abs(out_a.values - out_b.values).max() > 1e-8


class TestUpdateProcedures:
    def test_single_view_aggregates_everything(self, rng):
        params = tiny_params()
        p = ad.constant(rng.normal(size=(7, TINY.d_p)))
        v = update_view_feats(p, np.zeros(7, dtype=np.int64), 1,
                              ad.constant(rng.normal(size=(1, TINY.d_v))),
                              params.view("layer0.view"))
        assert v.shape == (1, TINY.d_v)

    def test_first_call_ignores_missing_residual(self, rng):
        params = tiny_params()
        p0 = ad.constant(rng.normal(size=(6, 2)))
        v = update_view_feats(p0, np.array([0, 0, 0, 1, 1, 1]), 2, None,
                              params.view("init_view"))
        assert v.shape == (2, TINY.d_v)

    def test_point_permutation_equivariance_of_updates(self, rng):
        """Permuting point indices leaves view features unchanged and
        permutes point features accordingly."""
        params = tiny_params(seed=4)
        n_obs, n_pts, n_views = 12, 4, 3
        p = rng.normal(size=(n_obs, TINY.d_p))
        view_idx = rng.integers(0, n_views, size=n_obs)
        view_idx[:n_views] = np.arange(n_views)
        point_idx = rng.integers(0, n_pts, size=n_obs)
        point_idx[:n_pts] = np.arange(n_pts)
        v_prev = rng.normal(size=(n_views, TINY.d_v))
        s_prev = rng.normal(size=(n_pts, TINY.d_s))

        perm = rng.permutation(n_pts)          # old point index -> new
        inv = np.argsort(perm)
        v1 = update_view_feats(ad.constant(p), view_idx, n_views,
                               ad.constant(v_prev), params.view("layer0.view"))
        s1 = update_point_feats(ad.constant(p), point_idx, n_pts,
                                ad.constant(s_prev), params.view("layer0.point"))
        v2 = update_view_feats(ad.constant(p), view_idx, n_views,
                               ad.constant(v_prev), params.view("layer0.view"))
        s2 = update_point_feats(ad.constant(p), perm[point_idx], n_pts,
                                ad.constant(s_prev[inv]), params.view("layer0.point"))
        np.testing.assert_allclose(v1.values, v2.values, atol=1e-12)
        np.testing.assert_allclose(s2.values, s1.values[inv], atol=1e-12)

    def test_global_invariant_to_permutations(self, rng):
        params = tiny_params(seed=5)
        v = rng.normal(size=(5, TINY.d_v))
        s = rng.normal(size=(7, TINY.d_s))
        g = rng.normal(size=(1, TINY.d_g))
        pv = params.view("layer0.global")
        g1 = update_global_feat(ad.constant(v), ad.constant(s), ad.constant(g), pv)
        g2 = update_global_feat(ad.constant(v[rng.permutation(5)]),
                                ad.constant(s[rng.permutation(7)]),
                                ad.constant(g), pv)
        np.testing.assert_allclose(g1.values, g2.values, atol=1e-10)

    def test_global_first_call_omits_residual(self, rng):
        params = tiny_params()
        v = ad.constant(rng.normal(size=(3, TINY.d_v)))
        s = ad.constant(rng.normal(size=(4, TINY.d_s)))
        g = update_global_feat(v, s, None, params.view("init_global"))
        assert g.shape == (1, TINY.d_g)

    def test_global_zeroed_point_branch(self, rng):
        """Zeroing the point-aggregation output projection makes the global
        update independent of the point features."""
        params = tiny_params(seed=6)
        pv = params.view("layer0.global")
        pv["gca_s.proj_out.w"].values[:] = 0.0
        pv["gca_s.proj_out.b"].values[:] = 0.0
        v = ad.constant(rng.normal(size=(3, TINY.d_v)))
        g = ad.constant(rng.normal(size=(1, TINY.d_g)))
        g1 = update_global_feat(v, ad.constant(rng.normal(size=(5, TINY.d_s))), g, pv)
        g2 = update_global_feat(v, ad.constant(rng.normal(size=(5, TINY.d_s))), g, pv)
        np.testing.assert_array_equal(g1.values, g2.values)

    def test_proj_update_shares_view_contribution(self, rng):
        """Observations of the same view see the identical view-feature
        block in their concatenated input."""
        params = tiny_params(seed=7)
        pv = params.view("layer1.proj")
        n_obs = 6
        p_prev = ad.constant(rng.normal(size=(n_obs, TINY.d_p)))
        p_in = ad.constant(rng.normal(size=(n_obs, TINY.d_p + 2)))
        v = ad.constant(rng.normal(size=(2, TINY.d_v)))
        s = ad.constant(rng.normal(size=(6, TINY.d_s)))
        g = ad.constant(rng.normal(size=(1, TINY.d_g)))
        view_idx = np.array([0, 0, 0, 1, 1, 1])
        point_idx = np.arange(6)
        out1 = update_proj_feats(p_prev, p_in, v, s, g, view_idx, point_idx, pv)
        # perturb view 1 only, along the feature (a constant shift would be
        # removed by ln_v); observations of view 0 must not move
        v2 = v.values.copy()
        v2[1] += rng.normal(size=TINY.d_v)
        out2 = update_proj_feats(p_prev, p_in, ad.constant(v2), s, g,
                                 view_idx, point_idx, pv)
        np.testing.assert_array_equal(out1.values[:3], out2.values[:3])
        assert np.abs(out1.values[3:] - out2.values[3:]).max(axis=1).min() > 1e-6

    def test_proj_residual_identity_with_zero_ffn(self, rng):
        params = tiny_params(seed=8)
        pv = params.view("layer1.proj")
        pv["ffn.w"].values[:] = 0.0
        pv["ffn.b"].values[:] = 0.0
        p_prev = ad.constant(rng.normal(size=(4, TINY.d_p)))
        p_in = ad.constant(rng.normal(size=(4, TINY.d_p + 2)))
        out = update_proj_feats(p_prev, p_in,
                                ad.constant(rng.normal(size=(2, TINY.d_v))),
                                ad.constant(rng.normal(size=(4, TINY.d_s))),
                                ad.constant(rng.normal(size=(1, TINY.d_g))),
                                np.array([0, 0, 1, 1]), np.arange(4), pv)
        np.testing.assert_array_equal(out.values, p_prev.values)


def proj_update_concat_oracle(p_prev, p_in, v, s, g, view_idx, point_idx, pv):
    """The projection update as written in the model's definition: gather
    every feature onto the observations, concatenate, then one linear map."""
    def norm(x, name):
        sub = pv.sub(name)
        return ad.relu(ad.layer_norm(x, sub["g"], sub["b"], 1e-5))
    z = ad.concat([
        ad.gather(norm(v, "ln_v"), view_idx),
        ad.gather(norm(s, "ln_s"), point_idx),
        ad.gather(norm(g, "ln_g"), np.zeros(p_in.shape[0], dtype=np.int64)),
        norm(p_in, "ln_p"),
    ], axis=1)
    delta = ad.matmul(z, pv["ffn.w"]) + pv["ffn.b"]
    return p_prev + delta if p_prev is not None else delta


class TestProjUpdateAgainstConcat:
    """update_proj_feats multiplies each feature by its block of ffn.w
    before gathering; the concatenated form is the oracle."""

    @pytest.mark.parametrize("mode", ["euclidean", "projective"])
    def test_forward_matches_oracle(self, monkeypatch, mode):
        net = NetConfig(layers=2, d_p=8, d_v=16, d_s=8, d_g=16, mode=mode)
        params = init_params(net, seed=1)
        rng = np.random.default_rng(2024)
        outputs = ("quats", "centers", "points") if mode == "euclidean" else ("matrices", "points")
        for trial in range(10):
            scene, _, _ = make_scene(num_views=int(rng.integers(3, 9)),
                                     num_points=int(rng.integers(10, 41)),
                                     visibility=0.8, seed=trial, mode=mode)
            new = forward(scene, params)
            with monkeypatch.context() as mp:
                mp.setattr(network, "update_proj_feats", proj_update_concat_oracle)
                old = forward(scene, params)
            for name in outputs:
                np.testing.assert_allclose(getattr(new, name).values,
                                           getattr(old, name).values, rtol=0, atol=1e-12)

    def test_gradients(self, rng):
        params = tiny_params(seed=9)
        pv = params.view("layer1.proj")
        view_idx = np.array([0, 0, 1, 2, 2, 1, 0])
        point_idx = np.array([0, 1, 1, 2, 3, 3, 4])
        n_obs = len(view_idx)
        leaves = {
            "p_prev": ad.parameter(rng.normal(size=(n_obs, TINY.d_p))),
            "p_in": ad.parameter(rng.normal(size=(n_obs, TINY.d_p + 2))),
            "v": ad.parameter(rng.normal(size=(3, TINY.d_v))),
            "s": ad.parameter(rng.normal(size=(5, TINY.d_s))),
            "g": ad.parameter(rng.normal(size=(1, TINY.d_g))),
        }
        weights = {name: params[f"layer1.proj.{name}"]
                   for name in ("ln_v.g", "ln_s.b", "ln_g.g", "ln_p.b", "ffn.w", "ffn.b")}
        c = ad.constant(rng.normal(size=(n_obs, TINY.d_p)))

        def objective(update):
            a = leaves
            return ad.tsum(update(a["p_prev"], a["p_in"], a["v"], a["s"], a["g"],
                                  view_idx, point_idx, pv) * c)

        checked = {**leaves, **weights}
        report = ad.grad_check(lambda: objective(update_proj_feats), checked,
                               tol=1e-6, max_coords_per_param=40)
        assert report.passed, report.worst()
        ours = {name: t.grad.copy() for name, t in checked.items()}
        ad.zero_grads(checked.values())
        ad.backward(objective(proj_update_concat_oracle), params=checked.values())
        for name, t in checked.items():
            np.testing.assert_allclose(ours[name], t.grad, rtol=0, atol=1e-12)


class TestForward:
    def test_shape_contract(self):
        scene, _, _ = make_scene(num_views=3, num_points=8, seed=0)
        params = tiny_params()
        out = forward(scene, params)
        assert out.quats.shape == (3, 4)
        assert out.centers.shape == (3, 3)
        assert out.points.shape == (8, 3)

    def test_unit_quaternions(self):
        scene, _, _ = make_scene(num_views=4, num_points=12, seed=1)
        out = forward(scene, tiny_params(seed=1))
        norms = np.linalg.norm(out.quats.values, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-9)

    def test_determinism(self):
        scene, _, _ = make_scene(num_views=4, num_points=12, seed=2)
        params = tiny_params(seed=2)
        a = forward(scene, params)
        b = forward(scene, params)
        np.testing.assert_array_equal(a.points.values, b.points.values)
        np.testing.assert_array_equal(a.quats.values, b.quats.values)

    def test_joint_permutation_equivariance(self, rng):
        """The architecture's central design claim: permuting views and
        points permutes the outputs identically."""
        scene, _, _ = make_scene(num_views=5, num_points=14, visibility=0.8, seed=3)
        params = tiny_params(seed=3)
        base = forward(scene, params)

        pv = rng.permutation(scene.num_views)
        pp = rng.permutation(scene.num_points)
        permuted = replace(
            scene,
            view_idx=pv[scene.view_idx],
            point_idx=pp[scene.point_idx],
            gt_quats=None, gt_centers=None, gt_points=None,
        )
        out = forward(permuted, params)
        np.testing.assert_allclose(out.quats.values[pv], base.quats.values, atol=1e-9)
        np.testing.assert_allclose(out.centers.values[pv], base.centers.values, atol=1e-9)
        np.testing.assert_allclose(out.points.values[pp], base.points.values, atol=1e-9)

    def test_nan_failure_carries_layer(self):
        scene, _, _ = make_scene(num_views=3, num_points=8, seed=4)
        params = tiny_params(seed=4)
        params["layer1.view.ffn.w"].values[0, 0] = np.inf
        with (pytest.warns(RuntimeWarning, match="invalid value"),
              pytest.raises(LayerNumericError) as exc):
            forward(scene, params)
        assert exc.value.layer == 1

    def test_mode_mismatch_rejected(self):
        scene, _, _ = make_scene(num_views=3, num_points=8, seed=5)
        params = init_params(NetConfig(layers=1, d_p=8, d_v=16, d_s=8, d_g=16,
                                       mode="projective"), seed=0)
        with pytest.raises(ValueError):
            forward(scene, params)


class TestRegistryMatchesForward:
    CONFIGS = [
        TINY,
        NetConfig(layers=2, d_p=8, d_v=8, d_s=8, d_g=8),     # no proj_in/proj_out
        NetConfig(layers=2, d_p=4, d_v=4, d_s=4, d_g=4),     # init updates: no proj_out
        NetConfig(layers=2, d_p=6, d_v=12, d_s=5, d_g=9),    # odd widths
    ]

    def test_every_registered_parameter_gets_a_gradient(self):
        """forward reads which projections to apply from the blocks that
        param_shapes allocates, so every registered parameter must be used
        and receive a gradient with a nonzero entry."""
        for mode in ("euclidean", "projective"):
            scene, _, _ = make_scene(num_views=5, num_points=14, visibility=0.8,
                                     seed=3, mode=mode)
            for cfg in self.CONFIGS:
                cfg = replace(cfg, mode=mode)
                params = init_params(cfg, seed=0)
                total, _ = loss(scene, forward(scene, params))
                ad.backward(total, params=params.tensors.values())
                for name in param_shapes(cfg):
                    grad = params[name].grad
                    assert grad is not None and np.any(grad != 0), (cfg, name)


class TestProjectiveHead:
    def test_normalization_convention(self, rng):
        raw = ad.constant(rng.normal(size=(5, 12)))
        out = normalize_camera_matrices(raw).values
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-9)
        lead = out[np.arange(5), np.argmax(np.abs(out), axis=1)]
        assert (lead > 0).all()

    def test_projective_forward(self):
        scene, _, _ = make_scene(num_views=3, num_points=8, seed=6, mode="projective")
        from tracksfm.scene import normalize_hartley
        scene_n, _ = normalize_hartley(scene)
        cfg = NetConfig(layers=1, d_p=8, d_v=16, d_s=8, d_g=16, mode="projective")
        out = forward(scene_n, init_params(cfg, seed=0))
        assert out.matrices.shape == (3, 12)
        recon = out.reconstruction()
        assert recon.matrices.shape == (3, 3, 4)

//! LSTM cell forward/backward (BPTT building block).
//!
//! Weight layout follows the paper's §III-A RNN formulation generalised to
//! LSTM gates: per layer there is an input matrix `W_x ∈ R^{4H×in}` (with
//! bundled bias) and a **recurrent** matrix `W_h ∈ R^{4H×H}` — the
//! recurrent connections FedBIAD can drop but FedDrop/AFD cannot. Gate
//! order inside the 4H dimension is `\[i, f, g, o\]` (input, forget, cell
//! candidate, output).
//!
//! Dropped rows simply hold zero weights, so the corresponding gate
//! pre-activation contribution vanishes — exactly the spike-and-slab
//! semantics of eq. (4) (weights are zeroed, not activations).

use fedbiad_tensor::{math, ops, Matrix};

/// Per-timestep forward cache required by the backward pass.
#[derive(Clone, Debug, Default)]
pub struct StepCache {
    /// Input vector for the step.
    pub x: Vec<f32>,
    /// Previous hidden state.
    pub h_prev: Vec<f32>,
    /// Previous cell state.
    pub c_prev: Vec<f32>,
    /// Post-activation gates `\[i, f, g, o\]`, length 4H.
    pub gates: Vec<f32>,
    /// New cell state.
    pub c: Vec<f32>,
    /// tanh(c), cached for the backward pass.
    pub tanh_c: Vec<f32>,
    /// New hidden state.
    pub h: Vec<f32>,
}

/// One LSTM cell step. `wx: 4H×in`, `bias: 4H`, `wh: 4H×H`.
/// Fills `cache` (reusing its buffers) and leaves the new `h`/`c` there.
pub fn cell_forward(
    wx: &Matrix,
    bias: &[f32],
    wh: &Matrix,
    x: &[f32],
    h_prev: &[f32],
    c_prev: &[f32],
    cache: &mut StepCache,
) {
    let h4 = wx.rows();
    debug_assert_eq!(h4 % 4, 0, "gate matrix rows must be 4H");
    let h = h4 / 4;
    debug_assert_eq!(wh.rows(), h4);
    debug_assert_eq!(wh.cols(), h);
    debug_assert_eq!(h_prev.len(), h);
    debug_assert_eq!(c_prev.len(), h);

    cache.x.clear();
    cache.x.extend_from_slice(x);
    cache.h_prev.clear();
    cache.h_prev.extend_from_slice(h_prev);
    cache.c_prev.clear();
    cache.c_prev.extend_from_slice(c_prev);

    // z = Wx·x + b + Wh·h_prev
    cache.gates.resize(h4, 0.0);
    ops::gemv(wx, x, bias, &mut cache.gates);
    let mut rec = vec![0.0f32; h4];
    ops::gemv(wh, h_prev, &[], &mut rec);
    ops::axpy(1.0, &rec, &mut cache.gates);

    // Gate nonlinearities: σ on i/f/o, tanh on g — the scalar definitions,
    // one element at a time (the batched block runs the slice forms).
    let (ifg, o) = cache.gates.split_at_mut(3 * h);
    let (i_f, g) = ifg.split_at_mut(2 * h);
    for v in i_f.iter_mut() {
        *v = math::sigmoid(*v);
    }
    for v in g.iter_mut() {
        *v = math::tanh(*v);
    }
    for v in o.iter_mut() {
        *v = math::sigmoid(*v);
    }

    cache.c.resize(h, 0.0);
    cache.tanh_c.resize(h, 0.0);
    cache.h.resize(h, 0.0);
    // Hard length check: iterating a short `c_prev` would silently truncate
    // the state update and leave stale tail values in the resized caches.
    assert_eq!(c_prev.len(), h, "cell_forward: c_prev length");
    for (k, &cp) in c_prev.iter().enumerate() {
        let i = cache.gates[k];
        let f = cache.gates[h + k];
        let g = cache.gates[2 * h + k];
        let o = cache.gates[3 * h + k];
        let c = f * cp + i * g;
        cache.c[k] = c;
        let tc = math::tanh(c);
        cache.tanh_c[k] = tc;
        cache.h[k] = o * tc;
    }
}

/// Backward through one cell step.
///
/// * `dh` — ∂L/∂h for this step (upstream + future-step contribution).
/// * `dc_next` — ∂L/∂c flowing back from the next step (zeros for the last).
/// * Accumulates into `dwx`, `dbias`, `dwh`; writes `dx`, `dh_prev`,
///   `dc_prev` (overwritten, not accumulated).
#[allow(clippy::too_many_arguments)]
pub fn cell_backward(
    wx: &Matrix,
    wh: &Matrix,
    cache: &StepCache,
    dh: &[f32],
    dc_next: &[f32],
    dwx: &mut Matrix,
    dbias: &mut [f32],
    dwh: &mut Matrix,
    dx: &mut [f32],
    dh_prev: &mut [f32],
    dc_prev: &mut [f32],
) {
    let h = cache.h.len();
    let h4 = 4 * h;
    let mut dz = vec![0.0f32; h4];
    for k in 0..h {
        let i = cache.gates[k];
        let f = cache.gates[h + k];
        let g = cache.gates[2 * h + k];
        let o = cache.gates[3 * h + k];
        let tc = cache.tanh_c[k];

        let do_ = dh[k] * tc;
        let dc = dc_next[k] + dh[k] * o * (1.0 - tc * tc);

        let di = dc * g;
        let df = dc * cache.c_prev[k];
        let dg = dc * i;
        dc_prev[k] = dc * f;

        dz[k] = di * i * (1.0 - i);
        dz[h + k] = df * f * (1.0 - f);
        dz[2 * h + k] = dg * (1.0 - g * g);
        dz[3 * h + k] = do_ * o * (1.0 - o);
    }

    ops::ger(dwx, 1.0, &dz, &cache.x);
    if !dbias.is_empty() {
        ops::axpy(1.0, &dz, dbias);
    }
    ops::ger(dwh, 1.0, &dz, &cache.h_prev);
    ops::gemv_t(wx, &dz, dx);
    ops::gemv_t(wh, &dz, dh_prev);
}

/// Batched gate fusion: nonlinearities + state update for `nb` stacked
/// windows at one timestep.
///
/// `gates` holds `nb` rows of 4H pre-activations `[i, f, g, o]` (already
/// `Wx·x + b + Wh·h_prev`); `c_prev` holds `nb` rows of H. Writes the new
/// cell state, its tanh and the hidden state row-aligned. Every element
/// runs the exact computation of [`cell_forward`] — the nonlinearities
/// through `math`'s slice forms, which return the scalar definitions'
/// bits — so a row is bit-identical to the per-window step.
pub fn cell_forward_block(
    gates: &mut [f32],
    c_prev: &[f32],
    c: &mut [f32],
    tanh_c: &mut [f32],
    h_out: &mut [f32],
    nb: usize,
    hd: usize,
) {
    debug_assert_eq!(gates.len(), nb * 4 * hd);
    debug_assert_eq!(c_prev.len(), nb * hd);
    debug_assert_eq!(c.len(), nb * hd);
    debug_assert_eq!(tanh_c.len(), nb * hd);
    debug_assert_eq!(h_out.len(), nb * hd);
    for w in 0..nb {
        let grow = &mut gates[w * 4 * hd..(w + 1) * 4 * hd];
        let (i_f, go) = grow.split_at_mut(2 * hd);
        let (g, o) = go.split_at_mut(hd);
        math::sigmoid_slice(i_f);
        math::tanh_slice(g);
        math::sigmoid_slice(o);
        let cw = &mut c[w * hd..(w + 1) * hd];
        for (k, &cpk) in c_prev[w * hd..(w + 1) * hd].iter().enumerate() {
            cw[k] = i_f[hd + k] * cpk + i_f[k] * g[k];
        }
    }
    // tanh(c) for the whole block in one call, then h = o · tanh(c).
    tanh_c.copy_from_slice(c);
    math::tanh_slice(tanh_c);
    for w in 0..nb {
        let o = &gates[w * 4 * hd + 3 * hd..(w + 1) * 4 * hd];
        let hw = &mut h_out[w * hd..(w + 1) * hd];
        for (k, &tc) in tanh_c[w * hd..(w + 1) * hd].iter().enumerate() {
            hw[k] = o[k] * tc;
        }
    }
}

/// Batched adjoint of [`cell_forward_block`]: computes the gate
/// pre-activation deltas `dz` (`nb×4H`) and overwrites `dc_prev`
/// (`nb×hd`) from the cached post-activation gates, `tanh(c)`, `c_prev`,
/// the incoming `dh` and the next step's `dc`. Element math is exactly
/// [`cell_backward`]'s dz computation; the matrix products
/// (`dwx`/`dwh`/`dx`/`dh_prev`) are the caller's GEMMs.
#[allow(clippy::too_many_arguments)]
pub fn cell_backward_block(
    gates: &[f32],
    tanh_c: &[f32],
    c_prev: &[f32],
    dh: &[f32],
    dc_next: &[f32],
    dz: &mut [f32],
    dc_prev: &mut [f32],
    nb: usize,
    hd: usize,
) {
    debug_assert_eq!(gates.len(), nb * 4 * hd);
    debug_assert_eq!(dz.len(), nb * 4 * hd);
    debug_assert_eq!(dh.len(), nb * hd);
    debug_assert_eq!(dc_next.len(), nb * hd);
    debug_assert_eq!(dc_prev.len(), nb * hd);
    for w in 0..nb {
        let grow = &gates[w * 4 * hd..(w + 1) * 4 * hd];
        let dzrow = &mut dz[w * 4 * hd..(w + 1) * 4 * hd];
        for k in 0..hd {
            let i = grow[k];
            let f = grow[hd + k];
            let g = grow[2 * hd + k];
            let o = grow[3 * hd + k];
            let tc = tanh_c[w * hd + k];

            let do_ = dh[w * hd + k] * tc;
            let dc = dc_next[w * hd + k] + dh[w * hd + k] * o * (1.0 - tc * tc);

            let di = dc * g;
            let df = dc * c_prev[w * hd + k];
            let dg = dc * i;
            dc_prev[w * hd + k] = dc * f;

            dzrow[k] = di * i * (1.0 - i);
            dzrow[hd + k] = df * f * (1.0 - f);
            dzrow[2 * hd + k] = dg * (1.0 - g * g);
            dzrow[3 * hd + k] = do_ * o * (1.0 - o);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedbiad_tensor::rng::{stream, StreamTag};
    use fedbiad_tensor::{init, Matrix};

    /// Scalar loss used by the gradient checks: L = ½‖h‖² after one step.
    fn loss_one_step(
        wx: &Matrix,
        bias: &[f32],
        wh: &Matrix,
        x: &[f32],
        h0: &[f32],
        c0: &[f32],
    ) -> f32 {
        let mut cache = StepCache::default();
        cell_forward(wx, bias, wh, x, h0, c0, &mut cache);
        0.5 * cache.h.iter().map(|v| v * v).sum::<f32>()
    }

    #[test]
    fn lstm_cell_gradcheck() {
        let (inp, h) = (3usize, 2usize);
        let mut rng = stream(5, StreamTag::Init, 0, 0);
        let mut wx = Matrix::zeros(4 * h, inp);
        let mut wh = Matrix::zeros(4 * h, h);
        init::uniform(&mut wx, 0.5, &mut rng);
        init::uniform(&mut wh, 0.5, &mut rng);
        let bias: Vec<f32> = (0..4 * h).map(|i| 0.01 * i as f32).collect();
        let x = vec![0.3, -0.6, 0.2];
        let h0 = vec![0.1, -0.2];
        let c0 = vec![0.05, 0.3];

        let mut cache = StepCache::default();
        cell_forward(&wx, &bias, &wh, &x, &h0, &c0, &mut cache);
        let dh: Vec<f32> = cache.h.clone(); // dL/dh = h
        let dc0v = vec![0.0; h];
        let mut dwx = Matrix::zeros(4 * h, inp);
        let mut dbias = vec![0.0; 4 * h];
        let mut dwh = Matrix::zeros(4 * h, h);
        let mut dx = vec![0.0; inp];
        let mut dh_prev = vec![0.0; h];
        let mut dc_prev = vec![0.0; h];
        cell_backward(
            &wx,
            &wh,
            &cache,
            &dh,
            &dc0v,
            &mut dwx,
            &mut dbias,
            &mut dwh,
            &mut dx,
            &mut dh_prev,
            &mut dc_prev,
        );

        let eps = 1e-3;
        // Check a representative subset of each gradient tensor.
        for (r, c) in [(0, 0), (3, 2), (5, 1), (7, 0)] {
            let mut p = wx.clone();
            p.set(r, c, p.get(r, c) + eps);
            let mut m = wx.clone();
            m.set(r, c, m.get(r, c) - eps);
            let fd = (loss_one_step(&p, &bias, &wh, &x, &h0, &c0)
                - loss_one_step(&m, &bias, &wh, &x, &h0, &c0))
                / (2.0 * eps);
            assert!(
                (dwx.get(r, c) - fd).abs() < 2e-3,
                "dwx[{r},{c}]: {} vs {fd}",
                dwx.get(r, c)
            );
        }
        for (r, c) in [(0, 0), (4, 1), (6, 0)] {
            let mut p = wh.clone();
            p.set(r, c, p.get(r, c) + eps);
            let mut m = wh.clone();
            m.set(r, c, m.get(r, c) - eps);
            let fd = (loss_one_step(&wx, &bias, &p, &x, &h0, &c0)
                - loss_one_step(&wx, &bias, &m, &x, &h0, &c0))
                / (2.0 * eps);
            assert!((dwh.get(r, c) - fd).abs() < 2e-3, "dwh[{r},{c}]");
        }
        for r in [0usize, 2, 5, 7] {
            let mut p = bias.clone();
            p[r] += eps;
            let mut m = bias.clone();
            m[r] -= eps;
            let fd = (loss_one_step(&wx, &p, &wh, &x, &h0, &c0)
                - loss_one_step(&wx, &m, &wh, &x, &h0, &c0))
                / (2.0 * eps);
            assert!((dbias[r] - fd).abs() < 2e-3, "dbias[{r}]");
        }
        for i in 0..inp {
            let mut p = x.clone();
            p[i] += eps;
            let mut m = x.clone();
            m[i] -= eps;
            let fd = (loss_one_step(&wx, &bias, &wh, &p, &h0, &c0)
                - loss_one_step(&wx, &bias, &wh, &m, &h0, &c0))
                / (2.0 * eps);
            assert!((dx[i] - fd).abs() < 2e-3, "dx[{i}]");
        }
        for i in 0..h {
            let mut p = h0.clone();
            p[i] += eps;
            let mut m = h0.clone();
            m[i] -= eps;
            let fd = (loss_one_step(&wx, &bias, &wh, &x, &p, &c0)
                - loss_one_step(&wx, &bias, &wh, &x, &m, &c0))
                / (2.0 * eps);
            assert!((dh_prev[i] - fd).abs() < 2e-3, "dh_prev[{i}]");
            let mut pc = c0.clone();
            pc[i] += eps;
            let mut mc = c0.clone();
            mc[i] -= eps;
            let fd = (loss_one_step(&wx, &bias, &wh, &x, &h0, &pc)
                - loss_one_step(&wx, &bias, &wh, &x, &h0, &mc))
                / (2.0 * eps);
            assert!((dc_prev[i] - fd).abs() < 2e-3, "dc_prev[{i}]");
        }
    }

    #[test]
    fn forward_shapes_and_gate_ranges() {
        let (inp, h) = (4usize, 3usize);
        let mut rng = stream(6, StreamTag::Init, 0, 0);
        let mut wx = Matrix::zeros(4 * h, inp);
        let mut wh = Matrix::zeros(4 * h, h);
        init::uniform(&mut wx, 1.0, &mut rng);
        init::uniform(&mut wh, 1.0, &mut rng);
        let bias = vec![0.0; 4 * h];
        let mut cache = StepCache::default();
        cell_forward(&wx, &bias, &wh, &[1.0; 4], &[0.0; 3], &[0.0; 3], &mut cache);
        assert_eq!(cache.h.len(), h);
        assert_eq!(cache.gates.len(), 4 * h);
        // σ gates in (0,1), tanh gate in (-1,1).
        for k in 0..h {
            assert!(cache.gates[k] > 0.0 && cache.gates[k] < 1.0);
            assert!(cache.gates[3 * h + k] > 0.0 && cache.gates[3 * h + k] < 1.0);
            assert!(cache.gates[2 * h + k].abs() < 1.0);
            assert!(cache.h[k].abs() <= 1.0);
        }
    }

    #[test]
    fn zero_recurrent_rows_decouple_history() {
        // With W_h = 0 (all recurrent rows dropped) the step must not depend
        // on h_prev — the spike-and-slab "dropped recurrent connection".
        let (inp, h) = (2usize, 2usize);
        let mut rng = stream(8, StreamTag::Init, 0, 0);
        let mut wx = Matrix::zeros(4 * h, inp);
        init::uniform(&mut wx, 0.7, &mut rng);
        let wh = Matrix::zeros(4 * h, h);
        let bias = vec![0.1; 4 * h];
        let mut a = StepCache::default();
        let mut b = StepCache::default();
        cell_forward(
            &wx,
            &bias,
            &wh,
            &[0.5, -0.5],
            &[0.9, -0.9],
            &[0.0; 2],
            &mut a,
        );
        cell_forward(
            &wx,
            &bias,
            &wh,
            &[0.5, -0.5],
            &[-0.3, 0.3],
            &[0.0; 2],
            &mut b,
        );
        assert_eq!(a.h, b.h);
    }
}

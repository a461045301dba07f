//! The paper's next-word-prediction model (§V-A): an embedding layer, a
//! stack of LSTM layers and a fully-connected head over the vocabulary.
//! Paper configuration: 300-dim embedding, two LSTM layers with 300 hidden
//! units; with a 10k vocabulary this is exactly the 29.8 MB PTB/Reddit
//! model of Table I.

use crate::lstm::{self, cell_backward, cell_forward, StepCache};
use crate::mask::KeptRows;
use crate::model::{Batch, EvalAccum, Model, RowWork};
use crate::params::{ArchInfo, EntryMeta, LayerKind, ParamSet};
use crate::softmax;
use fedbiad_tensor::{init, ops, stats, Matrix, Workspace};
use rand::rngs::StdRng;

/// Embedding + stacked-LSTM + FC-head language model.
#[derive(Clone, Debug)]
pub struct LstmLmModel {
    /// Vocabulary size.
    pub vocab: usize,
    /// Embedding dimension.
    pub embed: usize,
    /// LSTM hidden width H.
    pub hidden: usize,
    /// Number of stacked LSTM layers (paper: 2).
    pub layers: usize,
}

impl LstmLmModel {
    /// Convenience constructor.
    pub fn new(vocab: usize, embed: usize, hidden: usize, layers: usize) -> Self {
        assert!(layers >= 1, "need at least one LSTM layer");
        Self {
            vocab,
            embed,
            hidden,
            layers,
        }
    }

    /// Paper-scale PTB/Reddit model (Table I: 29.8 MB). The vocabulary is
    /// 10,600 — the value that makes emb(V×300) + 2×LSTM(300) + head(300×V)
    /// total exactly 29.8 MB of f32 weights; the paper's PTB vocabulary is
    /// "10k-ish" and the exact count is not stated, so we pin it to the
    /// reported upload size.
    pub fn paper_ptb() -> Self {
        Self::new(10_600, 300, 300, 2)
    }

    /// Paper-scale WikiText-2 model (Table I: 75.3 MB; "a vocabulary of
    /// more than 30,000 words").
    pub fn paper_wikitext2() -> Self {
        Self::new(30_442, 300, 300, 2)
    }

    /// ParamSet entry index of the embedding table.
    pub fn emb_entry(&self) -> usize {
        0
    }

    /// ParamSet entry index of layer `l`'s input matrix W_x.
    pub fn wx_entry(&self, l: usize) -> usize {
        1 + 2 * l
    }

    /// ParamSet entry index of layer `l`'s recurrent matrix W_h.
    pub fn wh_entry(&self, l: usize) -> usize {
        2 + 2 * l
    }

    /// ParamSet entry index of the output head.
    pub fn head_entry(&self) -> usize {
        1 + 2 * self.layers
    }

    /// Forward one window, filling per-(layer, step) caches and per-step
    /// logits. Returns the number of predictions made.
    fn forward_window(
        &self,
        params: &ParamSet,
        window: &[u32],
        caches: &mut Vec<Vec<StepCache>>,
        logits: &mut Vec<Vec<f32>>,
    ) -> usize {
        let steps = window.len() - 1;
        let h = self.hidden;
        caches.clear();
        caches.resize_with(self.layers, Vec::new);
        for lc in caches.iter_mut() {
            lc.resize_with(steps, StepCache::default);
        }
        logits.clear();
        logits.resize_with(steps, || vec![0.0f32; self.vocab]);

        let mut h_state = vec![vec![0.0f32; h]; self.layers];
        let mut c_state = vec![vec![0.0f32; h]; self.layers];
        let emb = params.mat(self.emb_entry());
        let mut x_buf = vec![0.0f32; self.embed.max(h)];

        for t in 0..steps {
            let tok = window[t] as usize;
            debug_assert!(tok < self.vocab, "token out of vocabulary");
            x_buf[..self.embed].copy_from_slice(emb.row(tok));
            let mut x_len = self.embed;
            for l in 0..self.layers {
                let wx = params.mat(self.wx_entry(l));
                let bias = params.bias(self.wx_entry(l));
                let wh = params.mat(self.wh_entry(l));
                let cache = &mut caches[l][t];
                cell_forward(
                    wx,
                    bias,
                    wh,
                    &x_buf[..x_len],
                    &h_state[l],
                    &c_state[l],
                    cache,
                );
                h_state[l].copy_from_slice(&cache.h);
                c_state[l].copy_from_slice(&cache.c);
                // Next layer's input is this layer's hidden state.
                x_buf[..h].copy_from_slice(&cache.h);
                x_len = h;
            }
            let head = params.mat(self.head_entry());
            let hb = params.bias(self.head_entry());
            ops::gemv(head, &caches[self.layers - 1][t].h, hb, &mut logits[t]);
        }
        steps
    }
}

impl Model for LstmLmModel {
    fn name(&self) -> &str {
        "lstm_lm"
    }

    fn arch(&self) -> ArchInfo {
        let mut n = self.vocab * self.embed; // embedding
        for l in 0..self.layers {
            let input = if l == 0 { self.embed } else { self.hidden };
            n += 4 * self.hidden * input + 4 * self.hidden; // W_x + bias
            n += 4 * self.hidden * self.hidden; // W_h
        }
        n += self.vocab * self.hidden + self.vocab; // head
        ArchInfo {
            total_weights: n,
            depth: self.layers + 2,
            width: self.hidden,
            input_dim: self.embed,
        }
    }

    fn init_params(&self, rng: &mut StdRng) -> ParamSet {
        let mut p = ParamSet::new();
        let mut emb = Matrix::zeros(self.vocab, self.embed);
        init::uniform(&mut emb, 0.08, rng);
        p.push_entry(
            emb,
            None,
            EntryMeta::new("emb", LayerKind::Embedding, false, true),
        );
        for l in 0..self.layers {
            let input = if l == 0 { self.embed } else { self.hidden };
            let mut wx = Matrix::zeros(4 * self.hidden, input);
            init::xavier(&mut wx, input, self.hidden, rng);
            // Forget-gate bias initialised to 1.0 — standard LSTM practice
            // so early training does not forget everything.
            let mut bias = vec![0.0f32; 4 * self.hidden];
            for b in bias.iter_mut().skip(self.hidden).take(self.hidden) {
                *b = 1.0;
            }
            // gate_groups = 4: one droppable unit = the hidden unit's
            // 4 gate rows, so dropping it silences the whole activation
            // (spike-and-slab rows ↔ activations, paper §III-C).
            p.push_entry(
                wx,
                Some(bias),
                EntryMeta {
                    gate_groups: 4,
                    ..EntryMeta::new(format!("lstm{l}.wx"), LayerKind::LstmInput, true, true)
                },
            );
            let mut wh = Matrix::zeros(4 * self.hidden, self.hidden);
            init::xavier(&mut wh, self.hidden, self.hidden, rng);
            p.push_entry(
                wh,
                None,
                EntryMeta {
                    gate_groups: 4,
                    ..EntryMeta::new(format!("lstm{l}.wh"), LayerKind::LstmRecurrent, false, true)
                },
            );
        }
        let mut head = Matrix::zeros(self.vocab, self.hidden);
        init::xavier(&mut head, self.hidden, self.vocab, rng);
        p.push_entry(
            head,
            Some(vec![0.0; self.vocab]),
            EntryMeta::new("head", LayerKind::DenseOutput, true, true),
        );
        p
    }

    fn loss_grad(&self, params: &ParamSet, batch: &Batch<'_>, grads: &mut ParamSet) -> f32 {
        let windows = match batch {
            Batch::Seq { windows } => *windows,
            Batch::Dense { .. } => panic!("LstmLmModel expects Batch::Seq"),
        };
        assert!(!windows.is_empty(), "empty batch");
        let total_preds: usize = windows.iter().map(|w| w.len() - 1).sum();
        let inv = 1.0 / total_preds as f32;
        let h = self.hidden;

        let mut caches: Vec<Vec<StepCache>> = Vec::new();
        let mut logits: Vec<Vec<f32>> = Vec::new();
        let mut loss_sum = 0.0f32;

        for window in windows {
            assert!(window.len() >= 2, "window needs at least 2 tokens");
            let steps = self.forward_window(params, window, &mut caches, &mut logits);

            // Per-step loss + dlogits (in place).
            for t in 0..steps {
                let target = window[t + 1] as usize;
                loss_sum += softmax::softmax_xent_grad(&mut logits[t], target);
                for g in logits[t].iter_mut() {
                    *g *= inv;
                }
            }

            // BPTT: t descending; carries flow t+1 → t per layer.
            let mut dh_carry = vec![vec![0.0f32; h]; self.layers];
            let mut dc_carry = vec![vec![0.0f32; h]; self.layers];
            let mut dh_buf = vec![0.0f32; h];
            let mut dx_buf = vec![0.0f32; self.embed.max(h)];
            let mut dh_prev = vec![0.0f32; h];
            let mut dc_prev = vec![0.0f32; h];

            for t in (0..steps).rev() {
                // Head backward: dW += dlogits ⊗ h_top, db += dlogits,
                // dh_top = headᵀ dlogits.
                let top_h = &caches[self.layers - 1][t].h;
                {
                    let (wg, bg) = grads.mat_bias_mut(self.head_entry());
                    ops::ger(wg, 1.0, &logits[t], top_h);
                    ops::axpy(1.0, &logits[t], bg);
                }
                ops::gemv_t(params.mat(self.head_entry()), &logits[t], &mut dh_buf);

                for l in (0..self.layers).rev() {
                    // Total dh = upstream (head or layer above) + future step.
                    ops::axpy(1.0, &dh_carry[l], &mut dh_buf);
                    let in_dim = if l == 0 { self.embed } else { h };
                    {
                        let wx = params.mat(self.wx_entry(l));
                        let wh = params.mat(self.wh_entry(l));
                        let ((dwx, dbias), (dwh, _)) =
                            grads.entries_mut2(self.wx_entry(l), self.wh_entry(l));
                        cell_backward(
                            wx,
                            wh,
                            &caches[l][t],
                            &dh_buf,
                            &dc_carry[l],
                            dwx,
                            dbias,
                            dwh,
                            &mut dx_buf[..in_dim],
                            &mut dh_prev,
                            &mut dc_prev,
                        );
                    }
                    dh_carry[l].copy_from_slice(&dh_prev);
                    dc_carry[l].copy_from_slice(&dc_prev);
                    if l > 0 {
                        dh_buf.copy_from_slice(&dx_buf[..h]);
                    } else {
                        let tok = window[t] as usize;
                        let erow = grads.mat_mut(self.emb_entry()).row_mut(tok);
                        ops::axpy(1.0, &dx_buf[..self.embed], erow);
                    }
                }
            }
        }
        loss_sum * inv
    }

    fn evaluate(&self, params: &ParamSet, batch: &Batch<'_>, k: usize) -> EvalAccum {
        let windows = match batch {
            Batch::Seq { windows } => *windows,
            Batch::Dense { .. } => panic!("LstmLmModel expects Batch::Seq"),
        };
        let mut caches: Vec<Vec<StepCache>> = Vec::new();
        let mut logits: Vec<Vec<f32>> = Vec::new();
        let mut acc = EvalAccum::default();
        for window in windows {
            let steps = self.forward_window(params, window, &mut caches, &mut logits);
            for t in 0..steps {
                let target = window[t + 1] as usize;
                if stats::in_top_k(&logits[t], target, k) {
                    acc.correct += 1;
                }
                acc.loss_sum += softmax::softmax_xent_loss(&mut logits[t], target) as f64;
                acc.count += 1;
            }
        }
        acc
    }

    fn loss_grad_batched(
        &self,
        params: &ParamSet,
        batch: &Batch<'_>,
        grads: &mut ParamSet,
        ws: &mut Workspace,
    ) -> f32 {
        self.loss_grad_kept(params, None, batch, grads, ws, &mut RowWork::default())
    }

    fn loss_grad_kept(
        &self,
        params: &ParamSet,
        kept: Option<&KeptRows>,
        batch: &Batch<'_>,
        grads: &mut ParamSet,
        ws: &mut Workspace,
        work: &mut RowWork,
    ) -> f32 {
        let windows = match batch {
            Batch::Seq { windows } => *windows,
            Batch::Dense { .. } => panic!("LstmLmModel expects Batch::Seq"),
        };
        assert!(!windows.is_empty(), "empty batch");
        let Some(s) = uniform_steps(windows) else {
            // Ragged window lengths: the batched time loop needs one
            // uniform step count; fall back to the per-window reference,
            // which is dense through any zeroed rows.
            work.count(params, None);
            return self.loss_grad(params, batch, grads);
        };
        let n = windows.len();
        let _gemm_span = fedbiad_telemetry::span!("nn.batch.loss_grad", n = n, steps = s);
        fedbiad_telemetry::gauge!("nn.ws_churn", ws.churn());
        debug_assert!(
            kept.is_none_or(|k| k.dropped_rows_are_zero(params)),
            "a dropped row of θ is not +0.0"
        );
        work.count(params, kept);
        let rows = |e: usize| kept.and_then(|k| k.entry(e));
        let mut fwd = BatchedForward::run(self, params, kept, windows, s, ws);
        let _backward_span = fedbiad_telemetry::span!("nn.lstm.backward");
        let (h, e) = (self.hidden, self.embed);
        let inv = 1.0 / (n * s) as f32;

        // Per-row softmax + mean-reduce scaling. Individual losses are
        // staged so the final fold can replay the reference's running-sum
        // order (window-major, step-ascending).
        let mut loss_buf = ws.take(s * n);
        for t in 0..s {
            for (wi, win) in windows.iter().enumerate() {
                let row = &mut fwd.logits.row_mut(t * n + wi)[..];
                loss_buf[t * n + wi] = softmax::softmax_xent_grad(row, win[t + 1] as usize);
                for g in row.iter_mut() {
                    *g *= inv;
                }
            }
        }
        let mut loss_sum = 0.0f32;
        for wi in 0..n {
            for t in 0..s {
                loss_sum += loss_buf[t * n + wi];
            }
        }
        ws.give(loss_buf);

        // BPTT over step blocks: carries flow t+1 → t per layer exactly as
        // in the reference; gate deltas land in dz_all for the ordered
        // accumulation below.
        let mut dz_all = ws.take_shell();
        for _ in 0..self.layers {
            dz_all.push(ws.take_matrix(s * n, 4 * h));
        }
        let mut dx0 = ws.take_matrix(s * n, e);
        let mut dh_carry = ws.take_shell();
        let mut dc_carry = ws.take_shell();
        for _ in 0..self.layers {
            dh_carry.push(ws.take_matrix(n, h));
            dc_carry.push(ws.take_matrix(n, h));
        }
        let mut dh_mat = ws.take(n * h);
        let mut prev_tmp = ws.take_matrix(n, h);
        let head = params.mat(self.head_entry());
        for t in (0..s).rev() {
            let dlog = &fwd.logits.as_slice()[t * n * self.vocab..(t + 1) * n * self.vocab];
            ops::gemm_nn(dlog, head, n, rows(self.head_entry()), &mut dh_mat);
            for l in (0..self.layers).rev() {
                ops::axpy(1.0, dh_carry[l].as_slice(), &mut dh_mat);
                let gates_t = &fwd.gates[l].as_slice()[t * n * 4 * h..(t + 1) * n * 4 * h];
                let tanh_t = &fwd.tanh_c[l].as_slice()[t * n * h..(t + 1) * n * h];
                let c_prev_t = &fwd.c_all[l].as_slice()[t * n * h..(t + 1) * n * h];
                let dz_t = &mut dz_all[l].as_mut_slice()[t * n * 4 * h..(t + 1) * n * 4 * h];
                lstm::cell_backward_block(
                    gates_t,
                    tanh_t,
                    c_prev_t,
                    &dh_mat,
                    dc_carry[l].as_slice(),
                    dz_t,
                    prev_tmp.as_mut_slice(),
                    n,
                    h,
                );
                std::mem::swap(&mut dc_carry[l], &mut prev_tmp);
                let dz_t = &dz_all[l].as_slice()[t * n * 4 * h..(t + 1) * n * 4 * h];
                ops::gemm_nn(
                    dz_t,
                    params.mat(self.wh_entry(l)),
                    n,
                    rows(self.wh_entry(l)),
                    prev_tmp.as_mut_slice(),
                );
                std::mem::swap(&mut dh_carry[l], &mut prev_tmp);
                let (wx, wx_rows) = (params.mat(self.wx_entry(l)), rows(self.wx_entry(l)));
                if l > 0 {
                    ops::gemm_nn(dz_t, wx, n, wx_rows, &mut dh_mat);
                } else {
                    let dx0_t = &mut dx0.as_mut_slice()[t * n * e..(t + 1) * n * e];
                    ops::gemm_nn(dz_t, wx, n, wx_rows, dx0_t);
                }
            }
        }

        // Gradient accumulation replaying the sequential reference's
        // association order: window-major, step-descending.
        let mut order = ws.take_usize(s * n);
        {
            let mut i = 0;
            for wi in 0..n {
                for t in (0..s).rev() {
                    order[i] = t * n + wi;
                    i += 1;
                }
            }
        }
        {
            let (hw, hb) = grads.mat_bias_mut(self.head_entry());
            // h_top of step t lives in block t+1 of h_all ⇒ row offset n.
            ops::gemm_tn_acc_ord(
                fwd.logits.as_slice(),
                fwd.h_all[self.layers - 1].as_slice(),
                &order,
                n,
                rows(self.head_entry()),
                hw,
            );
            ops::add_row_sums_ord(fwd.logits.as_slice(), &order, hb);
        }
        // Indexing by layer is the natural shape here: `l` addresses four
        // parallel per-layer buffer vectors plus the entry registry.
        #[allow(clippy::needless_range_loop)]
        for l in 0..self.layers {
            let (x_buf, x_off) = if l == 0 {
                (fwd.emb_x.as_slice(), 0)
            } else {
                (fwd.h_all[l - 1].as_slice(), n)
            };
            let (wx, wh) = (self.wx_entry(l), self.wh_entry(l));
            let ((dwx, dbias), (dwh, _)) = grads.entries_mut2(wx, wh);
            let dz = dz_all[l].as_slice();
            ops::gemm_tn_acc_ord(dz, x_buf, &order, x_off, rows(wx), dwx);
            ops::add_row_sums_ord(dz, &order, dbias);
            ops::gemm_tn_acc_ord(dz, fwd.h_all[l].as_slice(), &order, 0, rows(wh), dwh);
        }
        // Embedding rows can collide across (window, step); scatter in the
        // same window-major, step-descending order. A dropped token's
        // gradient row is left as zeroed, like any dropped gradient row.
        let emb_g = grads.mat_mut(self.emb_entry());
        let emb_rows = rows(self.emb_entry());
        for (wi, win) in windows.iter().enumerate() {
            for t in (0..s).rev() {
                if emb_rows.is_none_or(|kept| kept.binary_search(&win[t]).is_ok()) {
                    ops::axpy(1.0, dx0.row(t * n + wi), emb_g.row_mut(win[t] as usize));
                }
            }
        }

        ws.give_usize(order);
        ws.give_matrix(prev_tmp);
        ws.give(dh_mat);
        ws.give_shell(dh_carry);
        ws.give_shell(dc_carry);
        ws.give_matrix(dx0);
        ws.give_shell(dz_all);
        fwd.release(ws);
        loss_sum * inv
    }

    fn evaluate_batched(
        &self,
        params: &ParamSet,
        batch: &Batch<'_>,
        k: usize,
        ws: &mut Workspace,
    ) -> EvalAccum {
        let windows = match batch {
            Batch::Seq { windows } => *windows,
            Batch::Dense { .. } => panic!("LstmLmModel expects Batch::Seq"),
        };
        if windows.is_empty() {
            return EvalAccum::default();
        }
        let Some(s) = uniform_steps(windows) else {
            return self.evaluate(params, batch, k);
        };
        let n = windows.len();
        let _gemm_span = fedbiad_telemetry::span!("nn.batch.eval", n = n, steps = s);
        fedbiad_telemetry::gauge!("nn.ws_churn", ws.churn());
        let mut fwd = BatchedForward::run(self, params, None, windows, s, ws);
        // The reference folds loss window-major, step-ascending; stage
        // per-row losses and replay that order.
        let mut loss_buf = ws.take(s * n);
        let mut correct = 0u64;
        for t in 0..s {
            for (wi, win) in windows.iter().enumerate() {
                let row = &mut fwd.logits.row_mut(t * n + wi)[..];
                let target = win[t + 1] as usize;
                if stats::in_top_k(row, target, k) {
                    correct += 1;
                }
                loss_buf[t * n + wi] = softmax::softmax_xent_loss(row, target);
            }
        }
        let mut acc = EvalAccum {
            correct,
            count: (n * s) as u64,
            ..EvalAccum::default()
        };
        for wi in 0..n {
            for t in 0..s {
                acc.loss_sum += loss_buf[t * n + wi] as f64;
            }
        }
        ws.give(loss_buf);
        fwd.release(ws);
        acc
    }
}

/// Workspace-backed state of a batched LSTM forward pass: one matrix per
/// (layer, quantity), with step `t`'s rows in block `t` (state buffers
/// carry an extra leading zero block, so step `t` reads block `t` and
/// writes block `t+1`).
struct BatchedForward {
    /// Layer-0 inputs: `s·n × embed` gathered embedding rows.
    emb_x: Matrix,
    /// Per layer: post-activation gates, `s·n × 4H`.
    gates: Vec<Matrix>,
    /// Per layer: `tanh(c)`, `s·n × H`.
    tanh_c: Vec<Matrix>,
    /// Per layer: hidden states, `(s+1)·n × H`.
    h_all: Vec<Matrix>,
    /// Per layer: cell states, `(s+1)·n × H`.
    c_all: Vec<Matrix>,
    /// Head outputs, `s·n × vocab` (raw logits; the backward turns them
    /// into deltas in place).
    logits: Matrix,
}

/// The step count every window shares, or `None` when the windows are
/// ragged or empty (the batched time loop needs one uniform count).
fn uniform_steps(windows: &[&[u32]]) -> Option<usize> {
    let s = windows.first()?.len().checked_sub(1)?;
    (s > 0 && windows.iter().all(|w| w.len() == s + 1)).then_some(s)
}

impl BatchedForward {
    /// Run the forward pass over `windows` of `s` steps each
    /// ([`uniform_steps`]); `kept` as in [`Model::loss_grad_kept`].
    fn run(
        model: &LstmLmModel,
        params: &ParamSet,
        kept: Option<&KeptRows>,
        windows: &[&[u32]],
        s: usize,
        ws: &mut Workspace,
    ) -> BatchedForward {
        let _forward_span = fedbiad_telemetry::span!("nn.lstm.forward");
        let n = windows.len();
        let rows = |e: usize| kept.and_then(|k| k.entry(e));
        let (h, e, v) = (model.hidden, model.embed, model.vocab);
        let mut emb_x = ws.take_matrix(s * n, e);
        let emb = params.mat(model.emb_entry());
        for (wi, win) in windows.iter().enumerate() {
            for (t, &tok) in win[..s].iter().enumerate() {
                debug_assert!((tok as usize) < v, "token out of vocabulary");
                emb_x
                    .row_mut(t * n + wi)
                    .copy_from_slice(emb.row(tok as usize));
            }
        }
        let (mut gates, mut tanh_c) = (ws.take_shell(), ws.take_shell());
        let (mut h_all, mut c_all) = (ws.take_shell(), ws.take_shell());
        for _ in 0..model.layers {
            gates.push(ws.take_matrix(s * n, 4 * h));
            tanh_c.push(ws.take_matrix(s * n, h));
            h_all.push(ws.take_matrix((s + 1) * n, h));
            c_all.push(ws.take_matrix((s + 1) * n, h));
        }
        let mut logits = ws.take_matrix(s * n, v);
        let mut rec = ws.take(n * 4 * h);

        for t in 0..s {
            for l in 0..model.layers {
                let (wx_e, wh_e) = (model.wx_entry(l), model.wh_entry(l));
                let (wx, bias, wh) = (params.mat(wx_e), params.bias(wx_e), params.mat(wh_e));
                // Split h_all so layer l's state is writable while layer
                // l−1's output block stays readable.
                let (below, cur) = h_all.split_at_mut(l);
                let x_t = if l == 0 {
                    &emb_x.as_slice()[t * n * e..(t + 1) * n * e]
                } else {
                    &below[l - 1].as_slice()[(t + 1) * n * h..(t + 2) * n * h]
                };
                let gates_t = &mut gates[l].as_mut_slice()[t * n * 4 * h..(t + 1) * n * 4 * h];
                // Gate fusion across the batch: z = X·Wxᵀ + b + H_prev·Whᵀ,
                // each term in the reference's association order.
                ops::gemm_nt(x_t, wx, n, rows(wx_e), gates_t);
                ops::add_bias_cols(gates_t, bias);
                let hl = &mut cur[0];
                let h_prev = &hl.as_slice()[t * n * h..(t + 1) * n * h];
                ops::gemm_nt(h_prev, wh, n, rows(wh_e), &mut rec);
                ops::axpy(1.0, &rec, gates_t);
                let (_, h_next_part) = hl.as_mut_slice().split_at_mut((t + 1) * n * h);
                let (c_prev_part, c_next_part) =
                    c_all[l].as_mut_slice().split_at_mut((t + 1) * n * h);
                lstm::cell_forward_block(
                    gates_t,
                    &c_prev_part[t * n * h..],
                    &mut c_next_part[..n * h],
                    &mut tanh_c[l].as_mut_slice()[t * n * h..(t + 1) * n * h],
                    &mut h_next_part[..n * h],
                    n,
                    h,
                );
            }
            let top = &h_all[model.layers - 1].as_slice()[(t + 1) * n * h..(t + 2) * n * h];
            let logits_t = &mut logits.as_mut_slice()[t * n * v..(t + 1) * n * v];
            let head_e = model.head_entry();
            ops::gemm_nt(top, params.mat(head_e), n, rows(head_e), logits_t);
            ops::add_bias_cols(logits_t, params.bias(head_e));
        }
        ws.give(rec);
        BatchedForward {
            emb_x,
            gates,
            tanh_c,
            h_all,
            c_all,
            logits,
        }
    }

    /// Return every buffer to the arena.
    fn release(self, ws: &mut Workspace) {
        ws.give_matrix(self.emb_x);
        ws.give_matrix(self.logits);
        ws.give_shell(self.gates);
        ws.give_shell(self.tanh_c);
        ws.give_shell(self.h_all);
        ws.give_shell(self.c_all);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedbiad_tensor::rng::{stream, StreamTag};

    fn toy() -> (LstmLmModel, ParamSet) {
        let m = LstmLmModel::new(5, 3, 4, 2);
        let mut rng = stream(21, StreamTag::Init, 0, 0);
        let p = m.init_params(&mut rng);
        (m, p)
    }

    #[test]
    fn entry_layout_and_arch_agree() {
        let (m, p) = toy();
        assert_eq!(p.num_entries(), 1 + 2 * 2 + 1);
        assert_eq!(p.total_params(), m.arch().total_weights);
        assert_eq!(p.meta(m.wh_entry(1)).kind, LayerKind::LstmRecurrent);
        // J = vocab + Σ(H wx-units + H wh-units) + vocab — gate-grouped:
        // one unit owns all 4 gate rows of a hidden unit.
        assert_eq!(p.num_row_units(), 5 + 4 + 4 + 4 + 4 + 5);
        // A wx unit carries 4 rows × (3 cols + bias) parameters.
        assert_eq!(p.row_unit_params(5), 4 * (3 + 1));
    }

    #[test]
    fn paper_models_match_table1_sizes() {
        let ptb = LstmLmModel::paper_ptb();
        let mb = ptb.arch().total_weights as f64 * 4.0 / (1024.0 * 1024.0);
        assert!(
            (mb - 29.8).abs() < 0.1,
            "PTB model should be 29.8 MB, got {mb:.2}"
        );
        let wt2 = LstmLmModel::paper_wikitext2();
        let mb = wt2.arch().total_weights as f64 * 4.0 / (1024.0 * 1024.0);
        assert!(
            (mb - 75.3).abs() < 0.1,
            "WikiText-2 model should be 75.3 MB, got {mb:.2}"
        );
    }

    #[test]
    fn loss_grad_matches_finite_difference() {
        let (m, p) = toy();
        let w1 = [0u32, 2, 4, 1, 3];
        let w2 = [1u32, 1, 0, 2, 2];
        let windows: Vec<&[u32]> = vec![&w1, &w2];
        let batch = Batch::Seq { windows: &windows };

        let mut grads = p.zeros_like();
        let _ = m.loss_grad(&p, &batch, &mut grads);

        let eps = 1e-2;
        // Spot checks across every entry kind: emb, wx0, wh0, wx1, wh1, head.
        let checks: Vec<(usize, usize, usize)> = vec![
            (m.emb_entry(), 2, 1),
            (m.wx_entry(0), 0, 0),
            (m.wx_entry(0), 7, 2),
            (m.wh_entry(0), 3, 3),
            (m.wx_entry(1), 10, 1),
            (m.wh_entry(1), 15, 0),
            (m.head_entry(), 4, 2),
        ];
        for (e, r, c) in checks {
            let mut pp = p.clone();
            let v = pp.mat(e).get(r, c);
            pp.mat_mut(e).set(r, c, v + eps);
            let mut pm = p.clone();
            pm.mat_mut(e).set(r, c, v - eps);
            let mut g = p.zeros_like();
            let fp = m.loss_grad(&pp, &batch, &mut g);
            g.zero();
            let fm = m.loss_grad(&pm, &batch, &mut g);
            let fd = (fp - fm) / (2.0 * eps);
            let got = grads.mat(e).get(r, c);
            assert!(
                (got - fd).abs() < 3e-2,
                "entry {e} [{r},{c}]: analytic {got} vs fd {fd}"
            );
        }
        // Bias checks (wx0 forget gate and head).
        for (e, r) in [(m.wx_entry(0), 5usize), (m.head_entry(), 3)] {
            let mut pp = p.clone();
            pp.bias_mut(e)[r] += eps;
            let mut pm = p.clone();
            pm.bias_mut(e)[r] -= eps;
            let mut g = p.zeros_like();
            let fp = m.loss_grad(&pp, &batch, &mut g);
            g.zero();
            let fm = m.loss_grad(&pm, &batch, &mut g);
            let fd = (fp - fm) / (2.0 * eps);
            let got = grads.bias(e)[r];
            assert!((got - fd).abs() < 3e-2, "bias {e}[{r}]: {got} vs {fd}");
        }
    }

    #[test]
    fn training_learns_a_deterministic_cycle() {
        // Tokens cycle 0→1→2→3→4→0…; an LSTM must learn it quickly.
        let (m, mut p) = toy();
        let stream_tokens: Vec<u32> = (0..40).map(|i| (i % 5) as u32).collect();
        let windows: Vec<&[u32]> = stream_tokens.chunks(8).collect();
        let batch = Batch::Seq { windows: &windows };
        let mut grads = p.zeros_like();
        let first = m.loss_grad(&p, &batch, &mut grads);
        for _ in 0..300 {
            grads.zero();
            let _ = m.loss_grad(&p, &batch, &mut grads);
            grads.clip_global_norm(5.0);
            p.axpy(-0.5, &grads);
        }
        grads.zero();
        let last = m.loss_grad(&p, &batch, &mut grads);
        assert!(last < first * 0.3, "no learning: {first} -> {last}");
        let acc = m.evaluate(&p, &batch, 1);
        assert!(acc.accuracy() > 0.9, "accuracy {}", acc.accuracy());
    }

    #[test]
    fn batched_engine_is_bit_identical_to_reference() {
        let (m, p) = toy();
        // 3 windows (odd, exercising the dot4 remainder), 2 layers, 6 steps.
        let w1 = [0u32, 2, 4, 1, 3, 0, 2];
        let w2 = [1u32, 1, 0, 2, 2, 4, 3];
        let w3 = [4u32, 0, 1, 1, 2, 3, 4];
        let windows: Vec<&[u32]> = vec![&w1, &w2, &w3];
        let batch = Batch::Seq { windows: &windows };

        let mut gr = p.zeros_like();
        let lr = m.loss_grad(&p, &batch, &mut gr);
        let mut ws = Workspace::new();
        let mut gb = p.zeros_like();
        let lb = m.loss_grad_batched(&p, &batch, &mut gb, &mut ws);
        assert_eq!(lr.to_bits(), lb.to_bits(), "loss: {lr} vs {lb}");
        for (e, (a, b)) in gr.flatten().iter().zip(gb.flatten().iter()).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "grad[{e}]: {a} vs {b}");
        }

        let er = m.evaluate(&p, &batch, 3);
        let eb = m.evaluate_batched(&p, &batch, 3, &mut ws);
        assert_eq!(er.loss_sum.to_bits(), eb.loss_sum.to_bits());
        assert_eq!((er.correct, er.count), (eb.correct, eb.count));

        // Second call reuses the warm arena without allocating.
        let churn = ws.churn();
        gb.zero();
        let _ = m.loss_grad_batched(&p, &batch, &mut gb, &mut ws);
        let _ = m.evaluate_batched(&p, &batch, 3, &mut ws);
        assert_eq!(ws.churn(), churn, "steady-state arena must not allocate");
    }

    #[test]
    fn batched_engine_falls_back_on_ragged_windows() {
        let (m, p) = toy();
        let w1 = [0u32, 2, 4, 1];
        let w2 = [1u32, 1, 0];
        let windows: Vec<&[u32]> = vec![&w1, &w2];
        let batch = Batch::Seq { windows: &windows };
        let mut gr = p.zeros_like();
        let lr = m.loss_grad(&p, &batch, &mut gr);
        let mut ws = Workspace::new();
        let mut gb = p.zeros_like();
        let lb = m.loss_grad_batched(&p, &batch, &mut gb, &mut ws);
        assert_eq!(lr.to_bits(), lb.to_bits());
        assert_eq!(gr.flatten(), gb.flatten());
        let er = m.evaluate(&p, &batch, 2);
        let eb = m.evaluate_batched(&p, &batch, 2, &mut ws);
        assert_eq!(er.loss_sum.to_bits(), eb.loss_sum.to_bits());
    }

    #[test]
    fn evaluate_top3_at_least_top1() {
        let (m, p) = toy();
        let w = [0u32, 1, 2, 3, 4, 0, 1];
        let windows: Vec<&[u32]> = vec![&w];
        let batch = Batch::Seq { windows: &windows };
        let a1 = m.evaluate(&p, &batch, 1).accuracy();
        let a3 = m.evaluate(&p, &batch, 3).accuracy();
        assert!(a3 >= a1);
    }
}

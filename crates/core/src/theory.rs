//! Theorem 1 calculator: the generalization-error bound of FedBIAD
//! (paper §IV-F, eqs. (13)–(18)).
//!
//! * [`epsilon_bound`] — ε_{S,L,D}(m_r), eq. (15);
//! * [`generalization_bound`] — the right-hand side of eq. (14);
//! * [`minimax_rate`] / [`holder_upper_bound`] — the m_r^{−2γ/(2γ+d)}
//!   envelope of eqs. (17)/(18) showing the rate is minimax-optimal up to
//!   a squared logarithmic factor.
//!
//! The `theory_bound` example evaluates these alongside a measured
//! generalization gap to validate the *shape* (monotone decrease in
//! rounds, rate envelope).

use fedbiad_nn::ArchInfo;
use serde::{Deserialize, Serialize};

/// Inputs of Theorem 1.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct TheoryParams {
    /// Non-zero weight count S.
    pub s: f64,
    /// Depth L.
    pub l: f64,
    /// Width D.
    pub d_width: f64,
    /// Input dimension d.
    pub d_in: f64,
    /// Assumption-2 weight bound B ≥ 2.
    pub b: f64,
    /// Tempering exponent α ∈ (0,1).
    pub alpha: f64,
    /// Likelihood variance σ².
    pub sigma2: f64,
}

impl TheoryParams {
    /// Build from an architecture and a dropout rate.
    pub fn from_arch(arch: &ArchInfo, dropout_rate: f64) -> Self {
        Self {
            s: (arch.total_weights as f64 * (1.0 - dropout_rate)).max(1.0),
            l: arch.depth as f64,
            d_width: arch.width as f64,
            d_in: arch.input_dim as f64,
            b: 2.0,
            alpha: 0.5,
            sigma2: 1.0,
        }
    }
}

/// Eq. (15):
/// ε_{S,L,D}(m_r) = (SL/m)·log(2BD) + (3S/m)·log(LD) + S·B²/(2m)
///                 + (2S/m)·log(4·d·max(m/S, 1)).
pub fn epsilon_bound(p: &TheoryParams, m_r: f64) -> f64 {
    assert!(m_r >= 1.0, "need at least one sample");
    let m = m_r;
    let s = p.s;
    (s * p.l / m) * (2.0 * p.b * p.d_width).ln()
        + (3.0 * s / m) * (p.l * p.d_width).ln()
        + s * p.b * p.b / (2.0 * m)
        + (2.0 * s / m) * (4.0 * p.d_in * (m / s).max(1.0)).ln()
}

/// Eq. (14) right-hand side:
/// (2σ²/(α(1−α)))·(1 + α/σ²)·ε_{S,L,D}(m_r) + (2/(K(1−α)))·Σ_k ξ_k,
/// with `xi_mean` = (1/K)·Σ ξ_k.
pub fn generalization_bound(p: &TheoryParams, m_r: f64, xi_mean: f64) -> f64 {
    assert!((0.0..1.0).contains(&p.alpha) && p.alpha > 0.0, "α ∈ (0,1)");
    let eps = epsilon_bound(p, m_r);
    let first = (2.0 * p.sigma2 / (p.alpha * (1.0 - p.alpha))) * (1.0 + p.alpha / p.sigma2) * eps;
    let second = 2.0 / (1.0 - p.alpha) * xi_mean;
    first + second
}

/// The minimax rate m_r^{−2γ/(2γ+d)} (eq. (18) lower-bound envelope up to
/// the constant C₂).
pub fn minimax_rate(m_r: f64, gamma: f64, d: f64) -> f64 {
    assert!(gamma > 0.0 && d > 0.0);
    m_r.powf(-2.0 * gamma / (2.0 * gamma + d))
}

/// The γ-Hölder upper bound envelope C₁·m_r^{−2γ/(2γ+d)}·log²(m_r)
/// (eq. (17)).
pub fn holder_upper_bound(m_r: f64, gamma: f64, d: f64, c1: f64) -> f64 {
    let lg = m_r.max(std::f64::consts::E).ln();
    c1 * minimax_rate(m_r, gamma, d) * lg * lg
}

/// m_r = r·V·min_k|D_k| (§IV-F).
pub fn m_r(round_one_based: usize, local_iters: usize, min_dk: usize) -> f64 {
    (round_one_based.max(1) * local_iters.max(1) * min_dk.max(1)) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> TheoryParams {
        TheoryParams {
            s: 80_000.0,
            l: 2.0,
            d_width: 128.0,
            d_in: 784.0,
            b: 2.0,
            alpha: 0.5,
            sigma2: 1.0,
        }
    }

    #[test]
    fn epsilon_decreases_with_data() {
        let p = params();
        let seq: Vec<f64> = [1e3, 1e4, 1e5, 1e6]
            .iter()
            .map(|&m| epsilon_bound(&p, m))
            .collect();
        assert!(seq.windows(2).all(|w| w[1] < w[0]), "{seq:?}");
        assert!(seq.iter().all(|&e| e > 0.0));
    }

    #[test]
    fn epsilon_increases_with_model_size() {
        let small = params();
        let mut big = params();
        big.s *= 10.0;
        assert!(epsilon_bound(&big, 1e5) > epsilon_bound(&small, 1e5));
    }

    #[test]
    fn generalization_bound_dominates_epsilon_and_adds_xi() {
        let p = params();
        let no_xi = generalization_bound(&p, 1e5, 0.0);
        let with_xi = generalization_bound(&p, 1e5, 0.1);
        assert!(no_xi > epsilon_bound(&p, 1e5));
        // ξ term: 2/(1−α)·0.1 = 0.4 at α = 0.5.
        assert!((with_xi - no_xi - 0.4).abs() < 1e-9);
    }

    #[test]
    fn bound_decreases_over_rounds_theorem1_shape() {
        // The headline claim: as rounds grow, the bound decreases and
        // FedBIAD converges.
        let p = params();
        let bounds: Vec<f64> = (1..=60)
            .map(|r| generalization_bound(&p, m_r(r, 10, 120), 0.0))
            .collect();
        assert!(bounds.windows(2).all(|w| w[1] < w[0]));
    }

    #[test]
    fn minimax_envelope_sandwiches_holder_bound() {
        // C₂·rate ≤ C₁·rate·log²m — same m-exponent, log² gap only.
        let (gamma, d) = (1.5, 10.0);
        for &m in &[1e3, 1e5, 1e7] {
            let lower = minimax_rate(m, gamma, d);
            let upper = holder_upper_bound(m, gamma, d, 1.0);
            assert!(upper >= lower);
            let ratio = upper / lower;
            let lg = m.ln();
            assert!((ratio - lg * lg).abs() < 1e-6, "ratio is exactly log²m");
        }
    }

    #[test]
    fn rate_exponent_matches_formula() {
        let (gamma, d) = (2.0, 8.0);
        let r1 = minimax_rate(1e4, gamma, d);
        let r2 = minimax_rate(1e6, gamma, d);
        // Exponent −2γ/(2γ+d) = −1/3: ×100 data ⇒ rate ÷ 100^(1/3).
        let expect = 100f64.powf(-1.0 / 3.0);
        assert!((r2 / r1 - expect).abs() < 1e-9);
    }

    #[test]
    fn from_arch_applies_dropout_to_s() {
        let arch = ArchInfo {
            total_weights: 1000,
            depth: 2,
            width: 16,
            input_dim: 8,
        };
        let p = TheoryParams::from_arch(&arch, 0.5);
        assert_eq!(p.s, 500.0);
    }
}

//! LTTR and Time-To-Accuracy (TTA) accounting (§V-C).
//!
//! TTA "comprises local running time, parameter transmission time, and
//! parameter aggregation time": per round the critical path is
//! `max_k(LTTR_k) + upload_max/uplink + download/downlink + aggregation`,
//! accumulated until the global model first reaches the target accuracy.
//! When the link carries a per-message round-trip latency
//! ([`NetworkModel::rtt_seconds`]), each round additionally pays one RTT
//! for the downlink broadcast and one for the uplink upload; the default
//! RTT of 0.0 keeps all historical numbers identical.

use crate::metrics::RoundRecord;
use crate::network::NetworkModel;
use std::time::Instant;

/// Shared **wall-clock** stopwatch for the observational timing fields
/// (`local_seconds_*`, `agg_seconds` in lockstep mode).
///
/// Two clocks coexist in this workspace and must not be conflated:
///
/// * the **virtual clock** — the simulator's deterministic event time,
///   priced by its cost model; bit-identical across machines and runs;
/// * the **wall clock** — `Instant`-measured host time, explicitly
///   *excluded* from determinism digests.
///
/// The lock-step LTTR/TTA accounting ([`round_seconds`],
/// [`time_to_accuracy`]) is **not** on the virtual clock: it adds
/// `local_seconds_max` and `agg_seconds`, which are readings of this
/// stopwatch, to the modelled transmission time. Lock-step TTA therefore
/// moves between runs and machines; ROADMAP.md item 2 replaces those
/// readings with a deterministic cost.
///
/// Every wall-clock measurement goes through this one helper instead of
/// ad-hoc `Instant` arithmetic so the exclusion rule has a single home.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Start timing now.
    pub fn start() -> Self {
        Stopwatch {
            start: Instant::now(),
        }
    }

    /// Monotonic seconds since [`Stopwatch::start`].
    pub fn seconds(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

/// One round's critical path: the wall-clock local and aggregation
/// seconds plus the modelled upload and download time.
pub fn round_seconds(rec: &RoundRecord, net: &NetworkModel) -> f64 {
    rec.local_seconds_max
        + net.upload_message_seconds(rec.upload_bytes_max)
        + net.download_message_seconds(rec.download_bytes)
        + rec.agg_seconds
}

/// Cumulative time until `target_acc` is first reached; `None` if never.
pub fn time_to_accuracy(
    records: &[RoundRecord],
    target_acc: f64,
    net: &NetworkModel,
) -> Option<f64> {
    let mut t = 0.0;
    for rec in records {
        t += round_seconds(rec, net);
        if rec.test_acc >= target_acc {
            return Some(t);
        }
    }
    None
}

/// Total simulated wall-clock of the whole run.
pub fn total_seconds(records: &[RoundRecord], net: &NetworkModel) -> f64 {
    records.iter().map(|r| round_seconds(r, net)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(acc: f64, up: u64, local: f64) -> RoundRecord {
        RoundRecord {
            round: 0,
            train_loss: 0.0,
            test_loss: 0.0,
            test_acc: acc,
            upload_bytes_mean: up,
            upload_bytes_max: up,
            download_bytes: 0,
            local_seconds_mean: local,
            local_seconds_max: local,
            agg_seconds: 0.0,
            peak_rss_bytes: 0,
            rss_bytes: 0,
            contributors: 1,
        }
    }

    fn mbps8() -> NetworkModel {
        // 1 MB/s symmetric, zero latency.
        NetworkModel {
            uplink_mbps: 8.0,
            downlink_mbps: 8.0,
            rtt_seconds: 0.0,
        }
    }

    #[test]
    fn tta_stops_at_first_crossing() {
        let net = mbps8();
        let records = vec![
            rec(0.1, 1_000_000, 1.0),
            rec(0.6, 1_000_000, 1.0),
            rec(0.9, 1_000_000, 1.0),
        ];
        // Each round costs 1 s local + 1 s upload = 2 s.
        let tta = time_to_accuracy(&records, 0.5, &net).unwrap();
        assert!((tta - 4.0).abs() < 1e-9, "{tta}");
        assert!(time_to_accuracy(&records, 0.95, &net).is_none());
    }

    #[test]
    fn smaller_uploads_give_smaller_tta() {
        let net = NetworkModel::t_mobile_5g();
        let fat = vec![rec(0.9, 10_000_000, 1.0)];
        let slim = vec![rec(0.9, 5_000_000, 1.0)];
        let t_fat = time_to_accuracy(&fat, 0.5, &net).unwrap();
        let t_slim = time_to_accuracy(&slim, 0.5, &net).unwrap();
        assert!(t_slim < t_fat);
    }

    #[test]
    fn total_time_sums_rounds() {
        let net = mbps8();
        let records = vec![rec(0.0, 0, 1.5), rec(0.0, 0, 0.5)];
        assert!((total_seconds(&records, &net) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn rtt_adds_two_latencies_per_round() {
        let records = vec![rec(0.9, 1_000_000, 1.0)];
        let flat = time_to_accuracy(&records, 0.5, &mbps8()).unwrap();
        let lagged = time_to_accuracy(&records, 0.5, &mbps8().with_rtt(0.1)).unwrap();
        // One uplink message + one downlink message ⇒ +2·RTT.
        assert!((lagged - flat - 0.2).abs() < 1e-12, "{flat} vs {lagged}");
    }

    #[test]
    fn target_never_reached_is_none() {
        let net = mbps8();
        assert!(time_to_accuracy(&[], 0.1, &net).is_none());
        let records = vec![rec(0.2, 0, 1.0), rec(0.3, 0, 1.0), rec(0.29, 0, 1.0)];
        assert!(time_to_accuracy(&records, 0.31, &net).is_none());
    }

    #[test]
    fn eval_every_gaps_cross_at_the_carried_record() {
        // eval_every = 2: round 1 carries round 0's accuracy, round 3
        // carries round 2's. The crossing lands on the FIRST record whose
        // (possibly carried) accuracy clears the target — round 2 here —
        // and its cumulative time includes the skipped round's cost.
        let net = mbps8();
        let records = vec![
            rec(0.10, 0, 1.0), // round 0: evaluated
            rec(0.10, 0, 1.0), // round 1: carried
            rec(0.80, 0, 1.0), // round 2: evaluated, crosses
            rec(0.80, 0, 1.0), // round 3: carried
        ];
        let tta = time_to_accuracy(&records, 0.5, &net).unwrap();
        assert!((tta - 3.0).abs() < 1e-9, "{tta}");
    }

    #[test]
    fn target_hit_exactly_on_final_round_counts_full_time() {
        let net = mbps8();
        let records = vec![rec(0.1, 0, 1.0), rec(0.2, 0, 1.0), rec(0.5, 0, 1.0)];
        // `>=` comparison: hitting the target exactly on the last record
        // still returns Some, with the WHOLE run's time.
        let tta = time_to_accuracy(&records, 0.5, &net).unwrap();
        let total = total_seconds(&records, &net);
        assert!((tta - total).abs() < 1e-12);
        assert!((tta - 3.0).abs() < 1e-9);
    }
}

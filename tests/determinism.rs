//! Reproducibility contract: identical seeds give bit-identical experiment
//! logs regardless of rayon scheduling; different seeds differ.

use fedbiad::prelude::*;

fn run_once(seed: u64) -> ExperimentLog {
    let bundle = build(Workload::MnistLike, Scale::Smoke, seed);
    let cfg = ExperimentConfig {
        rounds: 5,
        client_fraction: 0.4,
        seed,
        train: bundle.train,
        eval_topk: 1,
        eval_every: 1,
        eval_max_samples: 0,
        ..Default::default()
    };
    let algo = FedBiad::new(FedBiadConfig::paper(bundle.dropout_rate, 3));
    Experiment::new(bundle.model.as_ref(), &bundle.data, algo, cfg).run()
}

#[test]
fn same_seed_bitwise_identical() {
    let a = run_once(101);
    let b = run_once(101);
    for (ra, rb) in a.records.iter().zip(&b.records) {
        assert_eq!(
            ra.test_acc.to_bits(),
            rb.test_acc.to_bits(),
            "round {}",
            ra.round
        );
        assert_eq!(ra.train_loss.to_bits(), rb.train_loss.to_bits());
        assert_eq!(ra.upload_bytes_mean, rb.upload_bytes_mean);
    }
}

#[test]
fn different_seed_differs() {
    let a = run_once(101);
    let b = run_once(202);
    let same = a
        .records
        .iter()
        .zip(&b.records)
        .all(|(x, y)| x.test_acc == y.test_acc && x.train_loss == y.train_loss);
    assert!(!same, "different seeds should produce different runs");
}

#[test]
fn workload_generation_is_seed_deterministic() {
    for w in Workload::all() {
        let a = build(w, Scale::Smoke, 7);
        let b = build(w, Scale::Smoke, 7);
        assert_eq!(a.data.num_clients(), b.data.num_clients());
        match (&a.data.clients[0], &b.data.clients[0]) {
            (ClientData::Image(x), ClientData::Image(y)) => assert_eq!(x.x, y.x),
            (ClientData::Text(x), ClientData::Text(y)) => assert_eq!(x.tokens, y.tokens),
            _ => panic!("mismatched kinds"),
        }
    }
}

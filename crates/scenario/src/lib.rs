//! # fedbiad-scenario
//!
//! The **declarative scenario engine**: experiment shapes as data
//! instead of code.
//!
//! A scenario is a TOML (or JSON) file that composes every layer of the
//! stack — dataset + partitioner (`fedbiad-data`), method and FedBIAD
//! hyper-parameters (`fedbiad-core`), sketched compressor
//! (`fedbiad-compress`), network model (`fedbiad-fl`), and server policy
//! × heterogeneity profile (`fedbiad-sim`) — and sweeps any axis by
//! listing several values:
//!
//! ```toml
//! name = "demo"
//! mode = "sim"
//!
//! [run]
//! rounds = 15
//! seed = 42
//! seed_mode = "per-run"           # distinct derived seed per grid cell
//!
//! [sweep]
//! workload = "mnist"
//! method = ["fedavg", "fedbiad"]  # any axis expands the grid
//! policy = ["sync", "fedbuff"]
//! profile = "stragglers"
//! ```
//!
//! * [`spec`] — the strict schema: unknown fields are rejected with the
//!   expected-field list, numbers are range-checked, and every name is
//!   resolved against the registries at load time;
//! * [`grid`] — cross-product expansion in a fixed axis order, with
//!   per-run seeds derived from the spec's content hash through the
//!   dedicated `StreamTag::Scenario` RNG stream;
//! * [`engine`] — parallel execution (deterministic across thread
//!   counts) returning one `ExperimentLog` per run, plus virtual-clock
//!   extras for `mode = "sim"`;
//! * [`methods`] / [`simrun`] — the method registry and the simulation
//!   runner, which `fedbiad-bench`'s `scenario` binary drives for every
//!   bundled spec in `scenarios/` (the paper's tables and figures among
//!   them).
//!
//! ## End to end
//!
//! ```
//! use fedbiad_scenario::{execute, ScenarioSpec};
//!
//! let spec = ScenarioSpec::from_toml_str(
//!     "name = \"doc\"\n\
//!      [run]\nrounds = 1\nscale = \"smoke\"\nfraction = 0.5\n\
//!      [sweep]\nworkload = \"mnist\"\nmethod = [\"fedavg\", \"fedbiad\"]\n",
//! )
//! .unwrap();
//! let outcomes = execute(&spec).unwrap();
//! assert_eq!(outcomes.len(), 2); // one run per method
//! assert_eq!(outcomes[0].log.records.len(), 1);
//! ```

#![warn(missing_docs)]

pub mod engine;
pub mod grid;
pub mod methods;
pub mod simrun;
pub mod spec;
pub mod toml;

pub use engine::{execute, execute_traced, RunOutcome, SimMeta};
pub use grid::{expand, spec_hash, MaterializedRun};
pub use methods::{run_method, run_method_composed, CompressorChoice, Method, RunOpts};
pub use simrun::{run_sim_method, run_sim_method_composed, PolicyChoice};
pub use spec::{Mode, Overrides, ProfileChoice, ScenarioSpec, SeedMode, SpecError};

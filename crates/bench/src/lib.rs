//! # fedbiad-bench
//!
//! Experiment harness for the paper's evaluation (§V). Three binaries:
//!
//! | binary       | what it runs |
//! |--------------|--------------|
//! | `scenario`   | any declarative spec from `scenarios/` — every paper artifact is one: `table1`, `table2` (Tables I/II), `fig2`, `fig6`, `fig7`, `fig8` (Figs. 2, 6–8), plus `sim_tta` and the beyond-paper stress specs |
//! | `ablation`   | FedBIAD's design-choice variants (`FedBiadConfig` fields no spec key reaches) |
//! | `bench_perf` | the kernel perf report and its `--gate` against `BENCH_kernels.json` |
//!
//! `scenario` prints one roll-up per spec: accuracy, upload size, save
//! ratio, LTTR and time-to-accuracy per run, plus the paper's published
//! accuracy / upload / save ratio ([`paper`]) beside every run that has
//! one. Theorem 1's bound is the `theory_bound` example, the centralized
//! LSTM ceiling the `lm_ceiling` example.
//!
//! Every binary accepts `--rounds`, `--seed`, `--scale smoke|lab` and
//! writes machine-readable JSON under `target/experiments/`.

pub mod cli;
pub mod gate;
pub mod output;
pub mod paper;

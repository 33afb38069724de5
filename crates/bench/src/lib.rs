//! # kvmatch-bench — the experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation (§VIII).
//! Each experiment is a binary under `src/bin/` printing the same columns
//! the paper reports (plus a JSON line per row for machine consumption);
//! reduced-scale Criterion benches under `benches/` mirror them.
//!
//! | binary | reproduces |
//! |---|---|
//! | `table3_rsm_ed` | Table III — RSM-ED: GMatch vs KV-match_DP |
//! | `table4_rsm_dtw` | Table IV — RSM-DTW: DMatch vs KV-match_DP |
//! | `table5_cnsm_ed` | Table V — cNSM-ED: KVM-DP (α, β′ grid) vs UCR/FAST |
//! | `table6_cnsm_dtw` | Table VI — cNSM-DTW grid |
//! | `table7_window_candidates` | Table VII — per-window vs final candidates, KV-match vs FRM |
//! | `table8_window_size` | Table VIII — index size & build time vs `w` |
//! | `fig8_index_build` | Fig. 8 — size & build time vs data length (DMatch vs KVM-DP) |
//! | `fig9_scalability` | Fig. 9 — cNSM scalability (UCR vs KVM, ED & DTW) |
//! | `fig10_dp_vs_basic` | Fig. 10 — KV-match_DP vs single-`w` KV-match |
//! | `ablation_optimizations` | §VI-C optimizations in isolation (row cache, reorder by cost, partial windows) |
//! | `backend_portability` | §VII-C — the same workload over the memory, file, sharded and LSM stores |
//!
//! Scale knobs (environment variables): `KVM_N` (series length),
//! `KVM_QUERIES` (queries per point), `KVM_SEED`. The paper's selectivity
//! axis is mapped to equal *match counts* (`sel × n`), see DESIGN.md §5.

pub mod calibrate;
pub mod harness;
pub mod workload;

pub use calibrate::{calibrate_epsilon, CalibrationTarget};
pub use harness::{env_f64, env_usize, geo_mean, ExperimentEnv, Row, Table};
pub use workload::{make_series, sample_queries};

//! Distance measures and lower bounds for subsequence matching.
//!
//! Implements everything the matching layer and the baselines need:
//!
//! * [`ed`](mod@ed) — Euclidean distance, plain / squared / early-abandoning /
//!   normalize-on-the-fly variants (the UCR Suite verification kernels),
//! * [`dtw`] — Sakoe–Chiba band-constrained Dynamic Time Warping with
//!   early abandoning (`ρ = 0` degenerates to ED, Definition §II-A),
//! * [`envelope`] — Keogh query envelopes `L`/`U` computed with a
//!   monotonic-deque sliding min/max (O(m) regardless of ρ),
//! * [`lower_bounds`] — LB_Kim-FL, LB_Keogh and LB_PAA (Eq. 3), the
//!   cascading filters used during verification,
//! * [`cascade`] — the shared verification cascade (LB_Kim-FL → LB_Keogh →
//!   early-abandoning banded DTW) with per-stage pruning statistics and
//!   best-so-far threshold threading for top-k queries,
//! * [`lp`] — Lp-norm kernels (Manhattan, general finite p, Chebyshev)
//!   with early abandoning, the "more distance measures" of §X,
//! * [`gdtw`] — generalized DTW over arbitrary point costs (GDTW \[21\]),
//! * [`normalize`] — z-normalization kernels, self-contained so this crate
//!   has no dependencies,
//! * [`scratch`] — [`KernelScratch`], the per-worker grow-only buffer pool
//!   that makes steady-state verification allocation-free.
//!
//! # Conventions
//!
//! All *thresholds* passed into early-abandoning kernels are **squared**
//! distances (`ε²`), because every kernel accumulates squared terms; public
//! entry points returning a distance always return the *unsquared* value.
//!
//! # Optimized kernels and their oracles
//!
//! The hot kernels (banded DTW, ED, LB_Keogh) ship in an optimized form —
//! branch-peeled, chunked, scratch-reusing — alongside their
//! pre-optimization scalar twins (`*_scalar`), which are kept as
//! **bit-identity oracles**: the property suite asserts
//! `optimized(x).map(f64::to_bits) == scalar(x).map(f64::to_bits)` across
//! random inputs, and `benches/distance_kernels.rs` times old vs. new from
//! the same exports.

pub mod cascade;
pub mod dtw;
pub mod ed;
pub mod envelope;
pub mod gdtw;
pub mod lower_bounds;
pub mod lp;
pub mod normalize;
pub mod scratch;

pub use cascade::{AdaptivePolicy, BestSoFar, CascadeStats, LbCascade};
pub use dtw::{
    dtw_banded, dtw_banded_early_abandon, dtw_banded_early_abandon_scalar,
    dtw_banded_early_abandon_scratch,
};
pub use ed::{
    ed, ed_early_abandon, ed_early_abandon_scalar, ed_norm_early_abandon,
    ed_norm_early_abandon_scalar, ed_sq,
};
pub use envelope::keogh_envelope;
pub use gdtw::{gdtw_banded, gdtw_banded_early_abandon, gdtw_banded_early_abandon_scratch};
pub use lower_bounds::{
    lb_keogh_sq, lb_keogh_sq_early_abandon, lb_keogh_sq_early_abandon_scalar, lb_kim_fl_sq,
    lb_paa_sq,
};
pub use lp::{lp_distance, lp_pow, LpExponent};
pub use normalize::{mean_std, z_normalize, z_normalized};
pub use scratch::KernelScratch;

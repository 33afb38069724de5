//! Reusable kernel scratch memory.
//!
//! [`KernelScratch`] owns every buffer the verification kernels need —
//! DTW DP rows, Keogh envelope outputs (plus the monotonic-deque index
//! queues behind them) and the z-normalization buffer — so a warm worker
//! verifies candidates with **zero heap allocations**. One instance is
//! owned per executor worker thread and threaded by `&mut` through
//! `LbCascade::verify` → `PreparedQuery::verify_within` →
//! `verify_range`; it is never shared across threads.
//!
//! # Invariants
//!
//! * Buffers only ever **grow**: once a buffer's capacity covers the
//!   largest `(m, ρ)` seen, no kernel call allocates again. Each growth
//!   is counted in [`KernelScratch::alloc_events`], which is how the
//!   zero-allocation tests prove the steady state is allocation-free.
//! * Contents are *undefined between calls*: every kernel fully
//!   initializes the region it reads. Callers must never assume a
//!   buffer retains values from a previous candidate.
//! * The z-norm buffer is handed out by value ([`KernelScratch::take_norm`])
//!   and returned ([`KernelScratch::restore_norm`]) so a caller can hold
//!   the normalized candidate *and* keep lending the DP rows to the
//!   cascade without aliasing the borrow. Dropping the taken buffer
//!   instead of restoring it is safe but forfeits its capacity (the next
//!   take re-grows and counts an allocation event).

use std::collections::VecDeque;

/// Per-worker scratch memory for the distance kernels. See the module
/// docs for the ownership and growth invariants.
#[derive(Clone, Debug, Default)]
pub struct KernelScratch {
    /// DTW DP row for the previous matrix row (band-relative layout).
    prev: Vec<f64>,
    /// DTW DP row for the current matrix row.
    curr: Vec<f64>,
    /// Candidate z-normalization buffer (cNSM verification).
    norm: Vec<f64>,
    /// Lower Keogh envelope output.
    lower: Vec<f64>,
    /// Upper Keogh envelope output.
    upper: Vec<f64>,
    /// Monotonic-deque index queue for the sliding minimum.
    min_dq: VecDeque<usize>,
    /// Monotonic-deque index queue for the sliding maximum.
    max_dq: VecDeque<usize>,
    /// Number of buffer growths since construction.
    alloc_events: u64,
}

impl KernelScratch {
    /// An empty scratch; the first kernel calls grow it to fit.
    pub fn new() -> Self {
        Self::default()
    }

    /// A scratch pre-grown for queries up to length `m` at band radius
    /// `rho`, so even the first verification performs no allocation.
    pub fn with_query_capacity(m: usize, rho: usize) -> Self {
        let mut s = Self::default();
        if m > 0 {
            let band = rho.min(m - 1);
            let _ = s.dp_rows(2 * band + 3);
            s.grow(Grow::Norm, m);
            s.grow(Grow::Lower, m);
            s.grow(Grow::Upper, m);
            Self::grow_deque(&mut s.min_dq, m, &mut s.alloc_events);
            Self::grow_deque(&mut s.max_dq, m, &mut s.alloc_events);
        }
        s.alloc_events = 0;
        s
    }

    /// How many times any buffer grew since construction. Stable across
    /// calls ⇔ the kernels ran allocation-free.
    pub fn alloc_events(&self) -> u64 {
        self.alloc_events
    }

    /// The two DTW DP rows, each exactly `len` long. Contents are
    /// arbitrary — the DTW core initializes every cell it reads.
    pub(crate) fn dp_rows(&mut self, len: usize) -> (&mut [f64], &mut [f64]) {
        self.grow(Grow::Prev, len);
        self.grow(Grow::Curr, len);
        (&mut self.prev[..len], &mut self.curr[..len])
    }

    /// Takes the z-norm buffer out of the scratch, loaded with a copy of
    /// `src`. Pair with [`KernelScratch::restore_norm`] so the capacity
    /// survives to the next candidate.
    pub fn take_norm(&mut self, src: &[f64]) -> Vec<f64> {
        self.grow(Grow::Norm, src.len());
        let mut buf = std::mem::take(&mut self.norm);
        buf.clear();
        buf.extend_from_slice(src);
        buf
    }

    /// Returns a buffer obtained from [`KernelScratch::take_norm`].
    pub fn restore_norm(&mut self, buf: Vec<f64>) {
        self.norm = buf;
    }

    /// The Keogh envelope of `q` at band radius `rho`, computed into the
    /// scratch-owned `(lower, upper)` buffers — the allocation-free
    /// counterpart of [`keogh_envelope`](crate::envelope::keogh_envelope).
    pub fn envelope(&mut self, q: &[f64], rho: usize) -> (&[f64], &[f64]) {
        let m = q.len();
        self.grow(Grow::Lower, m);
        self.grow(Grow::Upper, m);
        Self::grow_deque(&mut self.min_dq, m, &mut self.alloc_events);
        Self::grow_deque(&mut self.max_dq, m, &mut self.alloc_events);
        self.min_dq.clear();
        self.max_dq.clear();
        crate::envelope::envelope_core(
            q,
            rho,
            &mut self.lower[..m],
            &mut self.upper[..m],
            &mut self.min_dq,
            &mut self.max_dq,
        );
        (&self.lower[..m], &self.upper[..m])
    }

    fn grow(&mut self, which: Grow, len: usize) {
        let buf = match which {
            Grow::Prev => &mut self.prev,
            Grow::Curr => &mut self.curr,
            Grow::Norm => &mut self.norm,
            Grow::Lower => &mut self.lower,
            Grow::Upper => &mut self.upper,
        };
        if buf.capacity() < len {
            self.alloc_events += 1;
            buf.reserve(len - buf.len());
        }
        if buf.len() < len {
            buf.resize(len, 0.0);
        }
    }

    fn grow_deque(dq: &mut VecDeque<usize>, len: usize, events: &mut u64) {
        if dq.capacity() < len {
            *events += 1;
            dq.reserve(len - dq.len());
        }
    }
}

#[derive(Clone, Copy)]
enum Grow {
    Prev,
    Curr,
    Norm,
    Lower,
    Upper,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::keogh_envelope;

    #[test]
    fn dp_rows_grow_once() {
        let mut s = KernelScratch::new();
        let _ = s.dp_rows(16);
        let after_first = s.alloc_events();
        assert!(after_first >= 1, "cold rows must count their growth");
        for _ in 0..10 {
            let (p, c) = s.dp_rows(16);
            assert_eq!(p.len(), 16);
            assert_eq!(c.len(), 16);
        }
        let _ = s.dp_rows(8); // shrinking reuses the larger buffer
        assert_eq!(s.alloc_events(), after_first, "warm rows must not grow");
        let _ = s.dp_rows(64);
        assert!(s.alloc_events() > after_first, "larger request grows again");
    }

    #[test]
    fn with_query_capacity_is_pre_grown() {
        let mut s = KernelScratch::with_query_capacity(128, 8);
        assert_eq!(s.alloc_events(), 0, "pre-growth is not an event");
        let _ = s.dp_rows(2 * 8 + 3);
        let q: Vec<f64> = (0..128).map(|i| i as f64).collect();
        let _ = s.envelope(&q, 8);
        let buf = s.take_norm(&q);
        s.restore_norm(buf);
        assert_eq!(s.alloc_events(), 0, "pre-grown scratch never allocates");
    }

    #[test]
    fn take_restore_norm_round_trips_capacity() {
        let mut s = KernelScratch::new();
        let src = [1.0, 2.0, 3.0];
        let buf = s.take_norm(&src);
        assert_eq!(buf, vec![1.0, 2.0, 3.0]);
        let events = s.alloc_events();
        s.restore_norm(buf);
        for _ in 0..5 {
            let buf = s.take_norm(&src);
            s.restore_norm(buf);
        }
        assert_eq!(s.alloc_events(), events, "warm norm buffer must not grow");
    }

    #[test]
    fn scratch_envelope_matches_allocating_envelope() {
        let q: Vec<f64> = (0..97).map(|i| (((i * 37) % 23) as f64) * 0.7 - 8.0).collect();
        let mut s = KernelScratch::new();
        for rho in [0usize, 1, 5, 48, 200] {
            let (le, ue) = keogh_envelope(&q, rho);
            let (ls, us) = s.envelope(&q, rho);
            assert_eq!(ls, &le[..], "lower mismatch rho={rho}");
            assert_eq!(us, &ue[..], "upper mismatch rho={rho}");
        }
        let warm = s.alloc_events();
        let _ = s.envelope(&q, 3);
        assert_eq!(s.alloc_events(), warm, "warm envelope must not allocate");
    }

    #[test]
    fn empty_envelope() {
        let mut s = KernelScratch::new();
        let (l, u) = s.envelope(&[], 4);
        assert!(l.is_empty() && u.is_empty());
    }
}

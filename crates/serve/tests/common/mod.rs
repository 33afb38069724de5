//! Test support shared by the serving suites. Each suite uses a subset.
#![allow(dead_code)]

use std::sync::{Arc, Condvar, Mutex};

use kvmatch_core::catalog::{CatalogBackend, GenerationInput};
use kvmatch_core::{CoreError, MemoryCatalogBackend};
use kvmatch_storage::SeriesId;

/// A parking gate for backend hooks. Once armed, every [`Gate::enter`] —
/// called from inside `seal_generation`, a data store's `fetch`, … —
/// parks until [`Gate::release`], and announces that it parked. Release
/// also disarms, so later calls pass straight through.
#[derive(Default)]
pub struct Gate {
    state: Mutex<GateState>,
    cv: Condvar,
}

#[derive(Default)]
struct GateState {
    armed: bool,
    parked: bool,
    released: bool,
}

impl Gate {
    pub fn arm(&self) {
        self.state.lock().unwrap().armed = true;
    }

    /// Blocks until a caller has parked at the gate.
    pub fn wait_until_parked(&self) {
        let mut s = self.state.lock().unwrap();
        while !s.parked {
            s = self.cv.wait(s).unwrap();
        }
    }

    pub fn is_parked(&self) -> bool {
        self.state.lock().unwrap().parked
    }

    pub fn release(&self) {
        let mut s = self.state.lock().unwrap();
        s.released = true;
        s.armed = false;
        self.cv.notify_all();
    }

    pub fn enter(&self) {
        let mut s = self.state.lock().unwrap();
        if !s.armed {
            return;
        }
        s.parked = true;
        self.cv.notify_all();
        while !s.released {
            s = self.cv.wait(s).unwrap();
        }
        s.parked = false;
    }
}

/// A volatile backend whose generation sealing parks at `gate` while it
/// is armed — a stand-in for an arbitrarily slow index build or
/// compaction.
pub struct SealGatedBackend {
    pub inner: MemoryCatalogBackend,
    pub gate: Arc<Gate>,
}

impl SealGatedBackend {
    pub fn new(gate: &Arc<Gate>) -> Self {
        Self { inner: MemoryCatalogBackend, gate: Arc::clone(gate) }
    }
}

impl CatalogBackend for SealGatedBackend {
    type Store = <MemoryCatalogBackend as CatalogBackend>::Store;
    type Data = <MemoryCatalogBackend as CatalogBackend>::Data;

    fn seal_generation(&mut self, input: GenerationInput<'_>) -> Result<Self::Store, CoreError> {
        self.gate.enter();
        self.inner.seal_generation(input)
    }

    fn data_store(&mut self, series: SeriesId, xs: &[f64]) -> Result<Self::Data, CoreError> {
        self.inner.data_store(series, xs)
    }
}

//! Versioned, arena-backed snapshot/fork support for the simulator.
//!
//! The simulator's bulk state lives in copy-on-write [`Page`]s: the whole
//! [`MemorySystem`] (cell maps, position tables, checkout-ledger bit sets,
//! vacancy-index rings) behind one coarse page, the dense ready-time tables
//! behind their own. The granularity is deliberate — each run detaches its
//! pages **once** up front, so the instruction loop mutates plain structures
//! with zero per-operation refcount traffic. Cloning a page is a
//! reference-count bump, so both operations here are O(pages), independent
//! of qubit count or grid size:
//!
//! * [`Simulator::snapshot`](crate::Simulator::snapshot) captures the
//!   architectural and scheduler state as a [`Snapshot`] handle;
//!   [`Simulator::restore`](crate::Simulator::restore) rewinds to it. A
//!   future service checkpoint lands on the same handle.
//! * [`Simulator::fork`](crate::Simulator::fork) clones a whole simulator.
//!   The fork shares every unmodified page with its parent and copies a page
//!   only on its first write, so `Experiment::run_batch` warms **one**
//!   simulator per architecture (paying placement and vacancy-ring
//!   construction once) and forks it into N policy variants.
//!
//! The process-wide counters below are the observability hook for that
//! contract: the CLI prints them after every sweep and CI asserts a
//! warm-store rerun performs zero warm-ups, exactly like the existing
//! `trace engine: 0 lowered` assertion.

use std::sync::OnceLock;

use lsqca_arch::{MagicStateSupply, MemorySystem};
use lsqca_lattice::{Beats, Page};

/// Registry counter of full simulator warm-ups (constructions) in this
/// process: every successful pass through the private
/// `Simulator::construct` behind
/// [`SimulatorBuilder::build`](crate::SimulatorBuilder::build).
pub(crate) fn builds_counter() -> &'static lsqca_telemetry::Counter {
    static COUNTER: OnceLock<&'static lsqca_telemetry::Counter> = OnceLock::new();
    COUNTER.get_or_init(|| lsqca_telemetry::counter("sim.warmed"))
}

/// Registry counter of copy-on-write forks taken in this process (every
/// entry into [`Simulator::fork`](crate::Simulator::fork), including via
/// [`Simulator::fork_with_policy`](crate::Simulator::fork_with_policy)).
pub(crate) fn forks_counter() -> &'static lsqca_telemetry::Counter {
    static COUNTER: OnceLock<&'static lsqca_telemetry::Counter> = OnceLock::new();
    COUNTER.get_or_init(|| lsqca_telemetry::counter("sim.forked"))
}

/// Total full simulator warm-ups (constructions) performed by this process
/// (the registry's `sim.warmed` counter).
pub fn warm_count() -> u64 {
    builds_counter().get()
}

/// Total copy-on-write simulator forks performed by this process (the
/// registry's `sim.forked` counter).
pub fn fork_count() -> u64 {
    forks_counter().get()
}

/// An O(pages) capture of one simulator's architectural and scheduler state.
///
/// Created by [`Simulator::snapshot`](crate::Simulator::snapshot) and
/// consumed by [`Simulator::restore`](crate::Simulator::restore). The
/// snapshot holds copy-on-write handles, not deep copies: taking one bumps
/// reference counts, and the simulator's next write to any captured page
/// detaches that page only. The migration policy and instruction budget are
/// deliberately *not* captured — the policy is re-initialized on restore
/// (mirroring [`Simulator::reset`](crate::Simulator::reset)) and the budget
/// belongs to the process, not to one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    pub(crate) memory: Page<MemorySystem>,
    pub(crate) magic: MagicStateSupply,
    pub(crate) mem_ready: Page<Vec<Beats>>,
    pub(crate) slot_ready: Vec<Beats>,
    pub(crate) classical_ready: Page<Vec<Beats>>,
    pub(crate) bank_ready: Vec<Beats>,
    pub(crate) skip_guard: Option<Beats>,
    pub(crate) dirty: bool,
}

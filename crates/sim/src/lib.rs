//! Flit-level interconnection-network simulator.
//!
//! This is the FlexSim-equivalent substrate of the reproduction: a
//! cycle-driven, flit-level model of a k-ary n-cube router network with
//!
//! * per-physical-channel **virtual channels** with edge buffers of
//!   configurable depth at the receiving router — depth 2 gives classic
//!   wormhole, depth ≥ message length gives virtual cut-through, anything
//!   between is buffered wormhole (§3.4);
//! * **exclusive VC ownership** from header acquisition to tail release,
//!   which is the resource discipline that makes channel-wait-for-graph
//!   knots meaningful;
//! * one-flit-per-cycle physical links, shared among their VCs by
//!   round-robin arbitration;
//! * one injection and one reception channel per node (§3);
//! * pluggable routing relations from `icn-routing`, consulted both for VC
//!   allocation and for the wait-for arcs of blocked headers;
//! * **recovery drains**: a message named as a deadlock victim is removed
//!   flit-by-flit through a synthesized Disha-style recovery lane;
//! * link-fault injection (the Figure 2 discussion) for tests and
//!   extension experiments.
//!
//! The engine is deterministic: identical call sequences produce identical
//! states. Traffic generation and deadlock detection are deliberately kept
//! *outside* (in `icn-traffic` / `icn-cwg`, orchestrated by `flexsim`) so
//! tests can build exact scenarios — including the paper's Figures 1–4 —
//! by enqueueing specific messages and stepping.
//!
//! # Example: wedging a unidirectional ring
//!
//! ```
//! use icn_sim::{Network, SimConfig};
//! use icn_routing::Dor;
//! use icn_topology::{KAryNCube, NodeId};
//!
//! let mut net = Network::new(
//!     KAryNCube::torus(4, 1, false),
//!     Box::new(Dor),
//!     SimConfig { vcs_per_channel: 1, buffer_depth: 2, msg_len: 8 },
//! );
//! for i in 0..4 {
//!     net.enqueue(NodeId(i), NodeId((i + 2) % 4));
//! }
//! for _ in 0..30 {
//!     net.step();
//! }
//! assert_eq!(net.blocked_count(), 4); // the classic ring deadlock
//!
//! // Disha-style recovery: drain one victim, the rest unblock.
//! let victim = net.active_ids()[0];
//! assert!(net.start_recovery(victim));
//! ```

mod config;
mod events;
pub mod faults;
mod message;
mod network;
mod snapshot;
mod trace;

pub use config::SimConfig;
pub use events::{DeliveredMsg, StepEvents};
pub use faults::{FaultEvent, FaultKind, FaultPlan};
pub use message::{MessageId, MessageInfo, MsgPhase};
pub use network::Network;
pub use snapshot::{ArenaMsg, SnapshotArena, SnapshotMsg, WaitSnapshot, WaitUpdate};
pub use trace::TraceEvent;

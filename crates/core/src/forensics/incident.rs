//! The self-contained incident record and its JSON form.

use icn_cwg::jsonio::{obj, parse, u64_arr, Json, ParseError};
use icn_cwg::{analyses_equal, Analysis, WaitGraph};
use icn_sim::{SimConfig, SnapshotArena, TraceEvent};
use icn_topology::{ChannelId, NodeId};
use icn_traffic::{MsgLenDist, Pattern};

use crate::spec::{DetectionMode, RecoveryPolicy, RoutingSpec, TopologySpec};
use crate::{ForensicsConfig, RunConfig};

use super::timeline::{final_block_cycle, injected_cycle, TimelineIndex};

/// One message of a [`CwgSnapshot`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CwgMsg {
    /// Message id.
    pub id: u64,
    /// Vertices the message holds (acquisition order).
    pub chain: Vec<u32>,
    /// Vertices the message is blocked waiting for.
    pub requests: Vec<u32>,
}

/// An owned copy of one epoch's channel wait-for graph, as data. The
/// incident keeps this rather than a [`WaitGraph`] because recovery
/// mutates the live graph in place; the snapshot arena it was built from
/// is immutable, so the record is pre-recovery by construction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CwgSnapshot {
    /// Total vertex count (VCs plus reception channels).
    pub num_vertices: usize,
    /// Per-message ownership chains and request sets.
    pub messages: Vec<CwgMsg>,
}

impl CwgSnapshot {
    pub(crate) fn from_arena(arena: &SnapshotArena) -> Self {
        CwgSnapshot {
            num_vertices: arena.num_vertices(),
            messages: arena
                .messages()
                .map(|m| CwgMsg {
                    id: m.id,
                    chain: m.chain.to_vec(),
                    requests: m.requests.to_vec(),
                })
                .collect(),
        }
    }

    /// Rebuilds the live graph this snapshot describes, ready for
    /// re-analysis.
    pub fn build_graph(&self) -> WaitGraph {
        let mut g = WaitGraph::new(self.num_vertices);
        for m in &self.messages {
            g.add_chain(m.id, &m.chain);
        }
        for m in &self.messages {
            if !m.requests.is_empty() {
                g.add_requests(m.id, &m.requests);
            }
        }
        g
    }

    /// Serializes in the same shape as [`WaitGraph::to_json`].
    pub fn to_json(&self) -> Json {
        let messages: Vec<Json> = self
            .messages
            .iter()
            .map(|m| {
                obj(vec![
                    ("id", Json::U64(m.id)),
                    ("chain", u64_arr(m.chain.iter().map(|&v| v as u64))),
                    ("requests", u64_arr(m.requests.iter().map(|&v| v as u64))),
                ])
            })
            .collect();
        obj(vec![
            ("num_vertices", Json::U64(self.num_vertices as u64)),
            ("messages", Json::Arr(messages)),
        ])
    }

    /// Parses and re-validates a snapshot. Validation goes through
    /// [`WaitGraph::from_json`], so a parsed snapshot can never describe a
    /// graph the detector could not build.
    pub fn from_json(v: &Json) -> Result<Self, ParseError> {
        let g = WaitGraph::from_json(v)?;
        Ok(CwgSnapshot {
            num_vertices: g.num_vertices(),
            messages: g
                .messages()
                .map(|id| CwgMsg {
                    id,
                    chain: g.chain(id).unwrap_or(&[]).to_vec(),
                    requests: g.requests_of(id).unwrap_or(&[]).to_vec(),
                })
                .collect(),
        })
    }
}

/// The recorded event log of one deadlock-set member.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MemberTimeline {
    /// Message id.
    pub id: u64,
    /// Lifecycle events in emission order: injection, VC acquisitions,
    /// blocking episodes (with failed candidates), recovery.
    pub events: Vec<TraceEvent>,
}

impl MemberTimeline {
    /// Cycle the message left its source queue.
    pub fn injected_at(&self) -> Option<u64> {
        injected_cycle(&self.events)
    }

    /// VCs acquired before the final block.
    pub fn hops(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Acquired { .. }))
            .count()
    }

    /// The final blocking episode: `(cycle, node, failed candidates)`.
    /// Empty candidates mean the message waits for a reception channel.
    pub fn final_block(&self) -> Option<(u64, u32, &[ChannelId])> {
        self.events.iter().rev().find_map(|ev| match ev {
            TraceEvent::Blocked {
                cycle,
                at,
                candidates,
                ..
            } => Some((*cycle, at.0, candidates.as_slice())),
            _ => None,
        })
    }
}

/// How the runner resolved the incident's knots.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecoveryOutcome {
    /// Victim-selection policy in force.
    pub policy: RecoveryPolicy,
    /// Messages dispatched to the recovery lane at this epoch, in
    /// dispatch order (empty under [`RecoveryPolicy::None`]).
    pub victims: Vec<u64>,
}

/// A self-contained record of one knot-bearing detection epoch: enough to
/// re-render, deterministically replay ([`replay`](super::replay)) and
/// minimize ([`minimize`](super::minimize)) the deadlock with no other
/// state.
#[derive(Clone, Debug)]
pub struct DeadlockIncident {
    /// Capture ordinal within the run (0-based, counts epochs with knots).
    pub seq: u32,
    /// Cycle of the detection epoch that found the knot(s).
    pub cycle: u64,
    /// Exact formation cycle: the latest block stamp across the epoch's
    /// deadlock-set members — when the last participant wedged. At most
    /// [`cycle`](Self::cycle); the gap is the detection lag the
    /// incremental detector eliminates from recovery dispatch.
    pub formation_cycle: u64,
    /// The exact configuration — including the seed — that produced it.
    pub config: RunConfig,
    /// Blocked-wait-state fingerprint of the capture epoch.
    pub fingerprint: u64,
    /// The full pre-recovery CWG.
    pub cwg: CwgSnapshot,
    /// The epoch's knot analysis (deadlock/resource sets, densities,
    /// dependents).
    pub analysis: Analysis,
    /// Formation timelines of every deadlock-set member, sorted by id.
    pub timelines: Vec<MemberTimeline>,
    /// Recovery outcome at this epoch.
    pub recovery: RecoveryOutcome,
    /// Trace events dropped before capture (0 = timelines complete).
    pub trace_dropped: u64,
}

impl DeadlockIncident {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn capture(
        seq: u32,
        cycle: u64,
        formation_cycle: u64,
        cfg: &RunConfig,
        arena: &SnapshotArena,
        analysis: &Analysis,
        victims: &[u64],
        timeline: &TimelineIndex,
        trace_dropped: u64,
    ) -> Self {
        let mut members: Vec<u64> = analysis
            .deadlocks
            .iter()
            .flat_map(|d| d.deadlock_set.iter().copied())
            .collect();
        members.sort_unstable();
        members.dedup();
        let timelines = members
            .iter()
            .map(|&m| MemberTimeline {
                id: m,
                events: timeline.events_of(m).to_vec(),
            })
            .collect();
        DeadlockIncident {
            seq,
            cycle,
            formation_cycle,
            config: cfg.clone(),
            fingerprint: arena.fingerprint(),
            cwg: CwgSnapshot::from_arena(arena),
            analysis: analysis.clone(),
            timelines,
            recovery: RecoveryOutcome {
                policy: cfg.recovery,
                victims: victims.to_vec(),
            },
            trace_dropped,
        }
    }

    /// Every deadlock-set member across the epoch's knots, sorted.
    pub fn members(&self) -> Vec<u64> {
        self.timelines.iter().map(|t| t.id).collect()
    }

    /// The deadlock sets, one per knot.
    pub fn deadlock_sets(&self) -> Vec<Vec<u64>> {
        self.analysis
            .deadlocks
            .iter()
            .map(|d| d.deadlock_set.clone())
            .collect()
    }

    /// Cycle the knot closed — the first cycle boundary at which every
    /// member was blocked, i.e. the shortest run prefix that exhibits the
    /// knot. Trace events are stamped with the in-progress cycle (one
    /// less than the post-step cycle counter [`cycle`](Self::cycle) uses),
    /// so this is one past the last member's final `Blocked` event.
    /// Falls back to the detection cycle when timelines are empty.
    pub fn closure_cycle(&self) -> u64 {
        self.timelines
            .iter()
            .filter_map(|t| final_block_cycle(&t.events))
            .max()
            .map(|c| c + 1)
            .unwrap_or(self.cycle)
    }

    /// The timeline of member `id`.
    pub fn timeline_of(&self, id: u64) -> Option<&MemberTimeline> {
        self.timelines.iter().find(|t| t.id == id)
    }

    /// Knot-highlighted Graphviz rendering, titled with the config label
    /// and capture cycle.
    pub fn to_dot(&self) -> String {
        let g = self.cwg.build_graph();
        let title = format!("{} @ cycle {}", self.config.label(), self.cycle);
        g.to_dot_titled(&title, Some(&self.analysis))
    }

    /// Serializes the incident as a JSON value.
    pub fn to_json(&self) -> Json {
        obj(vec![
            ("seq", Json::U64(self.seq as u64)),
            ("cycle", Json::U64(self.cycle)),
            ("formation_cycle", Json::U64(self.formation_cycle)),
            ("fingerprint", Json::U64(self.fingerprint)),
            ("config", config_to_json(&self.config)),
            ("cwg", self.cwg.to_json()),
            ("analysis", self.analysis.to_json()),
            (
                "timelines",
                Json::Arr(
                    self.timelines
                        .iter()
                        .map(|t| {
                            obj(vec![
                                ("id", Json::U64(t.id)),
                                (
                                    "events",
                                    Json::Arr(t.events.iter().map(event_to_json).collect()),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "recovery",
                obj(vec![
                    (
                        "policy",
                        Json::Str(recovery_name(self.recovery.policy).to_string()),
                    ),
                    ("victims", u64_arr(self.recovery.victims.iter().copied())),
                ]),
            ),
            ("trace_dropped", Json::U64(self.trace_dropped)),
        ])
    }

    /// Compact JSON text of [`to_json`](Self::to_json).
    pub fn to_json_string(&self) -> String {
        self.to_json().to_string()
    }

    /// Rebuilds an incident from its JSON form.
    pub fn from_json(v: &Json) -> Result<Self, ParseError> {
        let mut timelines = Vec::new();
        for t in get(v, "timelines")?
            .as_arr()
            .ok_or_else(|| bad("`timelines` must be an array"))?
        {
            let mut events = Vec::new();
            for e in get(t, "events")?
                .as_arr()
                .ok_or_else(|| bad("`events` must be an array"))?
            {
                events.push(event_from_json(e)?);
            }
            timelines.push(MemberTimeline {
                id: get_u64(t, "id")?,
                events,
            });
        }
        let rec = get(v, "recovery")?;
        let policy = match get(rec, "policy")?.as_str() {
            Some(s) => recovery_from_name(s)?,
            None => return Err(bad("`policy` must be a string")),
        };
        let cycle = get_u64(v, "cycle")?;
        Ok(DeadlockIncident {
            seq: get_u64(v, "seq")? as u32,
            cycle,
            // Records from before formation tracking default to the
            // detection cycle (zero measured lag).
            formation_cycle: match get_u64(v, "formation_cycle") {
                Ok(f) => f,
                Err(_) => cycle,
            },
            config: config_from_json(get(v, "config")?)?,
            fingerprint: get_u64(v, "fingerprint")?,
            cwg: CwgSnapshot::from_json(get(v, "cwg")?)?,
            analysis: Analysis::from_json(get(v, "analysis")?)?,
            timelines,
            recovery: RecoveryOutcome {
                policy,
                victims: get_u64_vec(rec, "victims")?,
            },
            trace_dropped: get_u64(v, "trace_dropped")?,
        })
    }

    /// Parses an incident from JSON text.
    pub fn from_json_str(text: &str) -> Result<Self, ParseError> {
        Self::from_json(&parse(text)?)
    }
}

/// Structural equality of two incidents (the nested [`Analysis`] carries
/// no `PartialEq`; round-trip tests compare through this).
pub fn incidents_equal(a: &DeadlockIncident, b: &DeadlockIncident) -> bool {
    a.seq == b.seq
        && a.cycle == b.cycle
        && a.formation_cycle == b.formation_cycle
        && a.config == b.config
        && a.fingerprint == b.fingerprint
        && a.cwg == b.cwg
        && analyses_equal(&a.analysis, &b.analysis)
        && a.timelines == b.timelines
        && a.recovery == b.recovery
        && a.trace_dropped == b.trace_dropped
}

// ---------------------------------------------------------------------
// JSON helpers (shared with the rest of the orchestration layer).

use crate::jsonio::{bad, get, get_bool, get_f64, get_str, get_u64, get_u64_vec};

// ---------------------------------------------------------------------
// Trace-event serialization.

fn event_to_json(ev: &TraceEvent) -> Json {
    match ev {
        TraceEvent::Injected {
            cycle,
            id,
            src,
            dst,
            len,
        } => obj(vec![
            ("t", Json::Str("injected".into())),
            ("cycle", Json::U64(*cycle)),
            ("id", Json::U64(*id)),
            ("src", Json::U64(src.0 as u64)),
            ("dst", Json::U64(dst.0 as u64)),
            ("len", Json::U64(*len as u64)),
        ]),
        TraceEvent::Acquired {
            cycle,
            id,
            channel,
            vc,
        } => obj(vec![
            ("t", Json::Str("acquired".into())),
            ("cycle", Json::U64(*cycle)),
            ("id", Json::U64(*id)),
            ("channel", Json::U64(channel.0 as u64)),
            ("vc", Json::U64(*vc as u64)),
        ]),
        TraceEvent::Blocked {
            cycle,
            id,
            at,
            candidates,
        } => obj(vec![
            ("t", Json::Str("blocked".into())),
            ("cycle", Json::U64(*cycle)),
            ("id", Json::U64(*id)),
            ("at", Json::U64(at.0 as u64)),
            ("candidates", u64_arr(candidates.iter().map(|c| c.0 as u64))),
        ]),
        TraceEvent::EjectStart { cycle, id } => obj(vec![
            ("t", Json::Str("eject-start".into())),
            ("cycle", Json::U64(*cycle)),
            ("id", Json::U64(*id)),
        ]),
        TraceEvent::RecoveryStart { cycle, id } => obj(vec![
            ("t", Json::Str("recovery-start".into())),
            ("cycle", Json::U64(*cycle)),
            ("id", Json::U64(*id)),
        ]),
        TraceEvent::Delivered {
            cycle,
            id,
            recovered,
        } => obj(vec![
            ("t", Json::Str("delivered".into())),
            ("cycle", Json::U64(*cycle)),
            ("id", Json::U64(*id)),
            ("recovered", Json::Bool(*recovered)),
        ]),
        TraceEvent::FaultLoss { cycle, id } => obj(vec![
            ("t", Json::Str("fault-loss".into())),
            ("cycle", Json::U64(*cycle)),
            ("id", Json::U64(*id)),
        ]),
    }
}

fn event_from_json(v: &Json) -> Result<TraceEvent, ParseError> {
    let cycle = get_u64(v, "cycle")?;
    let id = get_u64(v, "id")?;
    Ok(match get_str(v, "t")? {
        "injected" => TraceEvent::Injected {
            cycle,
            id,
            src: NodeId(get_u64(v, "src")? as u32),
            dst: NodeId(get_u64(v, "dst")? as u32),
            len: get_u64(v, "len")? as u32,
        },
        "acquired" => TraceEvent::Acquired {
            cycle,
            id,
            channel: ChannelId(get_u64(v, "channel")? as u32),
            vc: get_u64(v, "vc")? as u8,
        },
        "blocked" => TraceEvent::Blocked {
            cycle,
            id,
            at: NodeId(get_u64(v, "at")? as u32),
            candidates: get_u64_vec(v, "candidates")?
                .into_iter()
                .map(|c| ChannelId(c as u32))
                .collect(),
        },
        "eject-start" => TraceEvent::EjectStart { cycle, id },
        "recovery-start" => TraceEvent::RecoveryStart { cycle, id },
        "fault-loss" => TraceEvent::FaultLoss { cycle, id },
        "delivered" => TraceEvent::Delivered {
            cycle,
            id,
            recovered: get_bool(v, "recovered")?,
        },
        other => return Err(bad(&format!("unknown trace event `{other}`"))),
    })
}

// ---------------------------------------------------------------------
// Config serialization. The incident must be replayable from disk, so
// the whole RunConfig — seed included — round-trips through JSON.

fn recovery_name(p: RecoveryPolicy) -> &'static str {
    match p {
        RecoveryPolicy::None => "none",
        RecoveryPolicy::RemoveOldest => "remove-oldest",
        RecoveryPolicy::RemoveYoungest => "remove-youngest",
    }
}

fn recovery_from_name(s: &str) -> Result<RecoveryPolicy, ParseError> {
    Ok(match s {
        "none" => RecoveryPolicy::None,
        "remove-oldest" => RecoveryPolicy::RemoveOldest,
        "remove-youngest" => RecoveryPolicy::RemoveYoungest,
        other => return Err(bad(&format!("unknown recovery policy `{other}`"))),
    })
}

fn routing_to_json(r: RoutingSpec) -> Json {
    let kind = |s: &str| vec![("kind", Json::Str(s.to_string()))];
    match r {
        RoutingSpec::Dor => obj(kind("dor")),
        RoutingSpec::Tfar => obj(kind("tfar")),
        RoutingSpec::DatelineDor => obj(kind("dateline-dor")),
        RoutingSpec::Duato => obj(kind("duato")),
        RoutingSpec::WestFirst => obj(kind("west-first")),
        RoutingSpec::NegativeFirst => obj(kind("negative-first")),
        RoutingSpec::Misroute { budget } => obj(vec![
            ("kind", Json::Str("misroute".to_string())),
            ("budget", Json::U64(budget as u64)),
        ]),
    }
}

fn routing_from_json(v: &Json) -> Result<RoutingSpec, ParseError> {
    Ok(match get_str(v, "kind")? {
        "dor" => RoutingSpec::Dor,
        "tfar" => RoutingSpec::Tfar,
        "dateline-dor" => RoutingSpec::DatelineDor,
        "duato" => RoutingSpec::Duato,
        "west-first" => RoutingSpec::WestFirst,
        "negative-first" => RoutingSpec::NegativeFirst,
        "misroute" => RoutingSpec::Misroute {
            budget: get_u64(v, "budget")? as u8,
        },
        other => return Err(bad(&format!("unknown routing `{other}`"))),
    })
}

fn pattern_to_json(p: &Pattern) -> Json {
    let kind = |s: &str| vec![("kind", Json::Str(s.to_string()))];
    match p {
        Pattern::Uniform => obj(kind("uniform")),
        Pattern::BitReversal => obj(kind("bit-reversal")),
        Pattern::Transpose => obj(kind("transpose")),
        Pattern::PerfectShuffle => obj(kind("perfect-shuffle")),
        Pattern::BitComplement => obj(kind("bit-complement")),
        Pattern::HotSpot { hot, fraction } => obj(vec![
            ("kind", Json::Str("hot-spot".to_string())),
            ("hot", Json::U64(hot.0 as u64)),
            ("fraction", Json::F64(*fraction)),
        ]),
    }
}

fn pattern_from_json(v: &Json) -> Result<Pattern, ParseError> {
    Ok(match get_str(v, "kind")? {
        "uniform" => Pattern::Uniform,
        "bit-reversal" => Pattern::BitReversal,
        "transpose" => Pattern::Transpose,
        "perfect-shuffle" => Pattern::PerfectShuffle,
        "bit-complement" => Pattern::BitComplement,
        "hot-spot" => Pattern::HotSpot {
            hot: NodeId(get_u64(v, "hot")? as u32),
            fraction: get_f64(v, "fraction")?,
        },
        other => return Err(bad(&format!("unknown pattern `{other}`"))),
    })
}

fn len_dist_to_json(d: &MsgLenDist) -> Json {
    match *d {
        MsgLenDist::Fixed(len) => obj(vec![
            ("kind", Json::Str("fixed".to_string())),
            ("len", Json::U64(len as u64)),
        ]),
        MsgLenDist::Bimodal {
            short,
            long,
            long_frac,
        } => obj(vec![
            ("kind", Json::Str("bimodal".to_string())),
            ("short", Json::U64(short as u64)),
            ("long", Json::U64(long as u64)),
            ("long_frac", Json::F64(long_frac)),
        ]),
    }
}

fn len_dist_from_json(v: &Json) -> Result<MsgLenDist, ParseError> {
    Ok(match get_str(v, "kind")? {
        "fixed" => MsgLenDist::Fixed(get_u64(v, "len")? as usize),
        "bimodal" => MsgLenDist::Bimodal {
            short: get_u64(v, "short")? as usize,
            long: get_u64(v, "long")? as usize,
            long_frac: get_f64(v, "long_frac")?,
        },
        other => return Err(bad(&format!("unknown length distribution `{other}`"))),
    })
}

/// Serializes a full [`RunConfig`] — the canonical machine-readable
/// config form, used inside incidents, campaign-server job submissions,
/// and cache keys.
pub fn config_to_json(cfg: &RunConfig) -> Json {
    obj(vec![
        (
            "topology",
            obj(vec![
                ("k", Json::U64(cfg.topology.k as u64)),
                ("n", Json::U64(cfg.topology.n as u64)),
                ("torus", Json::Bool(cfg.topology.torus)),
                ("bidirectional", Json::Bool(cfg.topology.bidirectional)),
            ]),
        ),
        ("routing", routing_to_json(cfg.routing)),
        (
            "sim",
            obj(vec![
                ("vcs_per_channel", Json::U64(cfg.sim.vcs_per_channel as u64)),
                ("buffer_depth", Json::U64(cfg.sim.buffer_depth as u64)),
                ("msg_len", Json::U64(cfg.sim.msg_len as u64)),
            ]),
        ),
        ("pattern", pattern_to_json(&cfg.pattern)),
        ("len_dist", len_dist_to_json(&cfg.len_dist)),
        ("load", Json::F64(cfg.load)),
        ("warmup", Json::U64(cfg.warmup)),
        ("measure", Json::U64(cfg.measure)),
        ("detection_interval", Json::U64(cfg.detection_interval)),
        ("detection", Json::Str(cfg.detection.name().to_string())),
        (
            "count_cycles_every",
            match cfg.count_cycles_every {
                Some(n) => Json::U64(n),
                None => Json::Null,
            },
        ),
        ("cycle_cap", Json::U64(cfg.cycle_cap)),
        ("density_cap", Json::U64(cfg.density_cap)),
        ("fingerprint_skip", Json::Bool(cfg.fingerprint_skip)),
        (
            "recovery",
            Json::Str(recovery_name(cfg.recovery).to_string()),
        ),
        ("seed", Json::U64(cfg.seed)),
        (
            "forensics",
            match cfg.forensics {
                Some(f) => obj(vec![
                    ("max_incidents", Json::U64(f.max_incidents as u64)),
                    ("trace_capacity", Json::U64(f.trace_capacity as u64)),
                ]),
                None => Json::Null,
            },
        ),
        ("faults", crate::faults::plan_to_json(&cfg.faults)),
        // Retired knobs, written as the literal 1 so the canonical text —
        // and every cache key derived from it — stays byte-identical.
        ("transfer_threads", Json::U64(1)),
        ("shards", Json::U64(1)),
        (
            "stall_threshold",
            match cfg.stall_threshold {
                Some(t) => Json::U64(t),
                None => Json::Null,
            },
        ),
    ])
}

/// Rebuilds a [`RunConfig`] from [`config_to_json`] output.
pub fn config_from_json(v: &Json) -> Result<RunConfig, ParseError> {
    let topo = get(v, "topology")?;
    let sim = get(v, "sim")?;
    let count_cycles_every = match get(v, "count_cycles_every")? {
        Json::Null => None,
        j => Some(
            j.as_u64()
                .ok_or_else(|| bad("`count_cycles_every` must be null or u64"))?,
        ),
    };
    let forensics = match get(v, "forensics")? {
        Json::Null => None,
        j => Some(ForensicsConfig {
            max_incidents: get_u64(j, "max_incidents")? as usize,
            trace_capacity: get_u64(j, "trace_capacity")? as usize,
        }),
    };
    Ok(RunConfig {
        topology: TopologySpec {
            k: get_u64(topo, "k")? as u16,
            n: get_u64(topo, "n")? as usize,
            torus: get_bool(topo, "torus")?,
            bidirectional: get_bool(topo, "bidirectional")?,
        },
        routing: routing_from_json(get(v, "routing")?)?,
        sim: SimConfig {
            vcs_per_channel: get_u64(sim, "vcs_per_channel")? as usize,
            buffer_depth: get_u64(sim, "buffer_depth")? as usize,
            msg_len: get_u64(sim, "msg_len")? as usize,
        },
        pattern: pattern_from_json(get(v, "pattern")?)?,
        len_dist: len_dist_from_json(get(v, "len_dist")?)?,
        load: get_f64(v, "load")?,
        warmup: get_u64(v, "warmup")?,
        measure: get_u64(v, "measure")?,
        detection_interval: get_u64(v, "detection_interval")?,
        // Absent in records written before the incremental detector;
        // snapshot is the semantic default either way.
        detection: match get(v, "detection") {
            Ok(j) => match j.as_str() {
                Some("snapshot") => DetectionMode::Snapshot,
                Some("incremental") => DetectionMode::Incremental,
                _ => return Err(bad("`detection` must be `snapshot` or `incremental`")),
            },
            Err(_) => DetectionMode::Snapshot,
        },
        count_cycles_every,
        cycle_cap: get_u64(v, "cycle_cap")?,
        density_cap: get_u64(v, "density_cap")?,
        fingerprint_skip: get_bool(v, "fingerprint_skip")?,
        recovery: recovery_from_name(get_str(v, "recovery")?)?,
        seed: get_u64(v, "seed")?,
        forensics,
        faults: crate::faults::plan_from_json(get(v, "faults")?)?,
        // Retired engine knobs: older records carry these keys with any
        // value; they are accepted and ignored.
        transfer_threads: 1,
        shards: 1,
        stall_threshold: match get(v, "stall_threshold")? {
            Json::Null => None,
            j => Some(
                j.as_u64()
                    .ok_or_else(|| bad("`stall_threshold` must be null or u64"))?,
            ),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_round_trips_exactly() {
        let mut cfg = RunConfig::small_default();
        cfg.topology = TopologySpec::torus(8, 2, false);
        cfg.routing = RoutingSpec::Misroute { budget: 3 };
        cfg.pattern = Pattern::HotSpot {
            hot: NodeId(5),
            fraction: 0.15,
        };
        cfg.len_dist = MsgLenDist::Bimodal {
            short: 4,
            long: 32,
            long_frac: 0.33,
        };
        cfg.load = 0.87;
        cfg.count_cycles_every = Some(7);
        cfg.forensics = Some(ForensicsConfig::default());
        cfg.faults.link_outage(2, 50, 90).node_stall(120, 9, 40);
        cfg.transfer_threads = 3;
        cfg.shards = 4;
        cfg.stall_threshold = Some(500);
        cfg.detection = DetectionMode::Incremental;
        let text = config_to_json(&cfg).to_string();
        let back = config_from_json(&parse(&text).unwrap()).unwrap();
        // The retired engine knobs are written as 1 and ignored on decode.
        assert!(text.contains("\"transfer_threads\":1,\"shards\":1"));
        let want = RunConfig {
            transfer_threads: 1,
            shards: 1,
            ..cfg
        };
        assert_eq!(want, back);
    }

    #[test]
    fn seeds_survive_the_full_u64_range() {
        let mut cfg = RunConfig::small_default();
        cfg.seed = u64::MAX;
        let back = config_from_json(&config_to_json(&cfg)).unwrap();
        assert_eq!(back.seed, u64::MAX);
    }

    #[test]
    fn trace_events_round_trip() {
        let events = vec![
            TraceEvent::Injected {
                cycle: 3,
                id: 9,
                src: NodeId(1),
                dst: NodeId(6),
                len: 32,
            },
            TraceEvent::Acquired {
                cycle: 4,
                id: 9,
                channel: ChannelId(12),
                vc: 1,
            },
            TraceEvent::Blocked {
                cycle: 5,
                id: 9,
                at: NodeId(2),
                candidates: vec![ChannelId(3), ChannelId(7)],
            },
            TraceEvent::EjectStart { cycle: 8, id: 9 },
            TraceEvent::RecoveryStart { cycle: 9, id: 9 },
            TraceEvent::Delivered {
                cycle: 11,
                id: 9,
                recovered: true,
            },
        ];
        for ev in &events {
            let text = event_to_json(ev).to_string();
            let back = event_from_json(&parse(&text).unwrap()).unwrap();
            assert_eq!(*ev, back);
        }
    }

    #[test]
    fn corrupt_incident_json_is_rejected() {
        for text in [
            "{}",
            "not json",
            "{\"seq\":0}",
            "{\"seq\":0,\"cycle\":1,\"fingerprint\":2,\"config\":{},\"cwg\":{},\
             \"analysis\":{},\"timelines\":[],\"recovery\":{},\"trace_dropped\":0}",
        ] {
            assert!(DeadlockIncident::from_json_str(text).is_err());
        }
    }
}

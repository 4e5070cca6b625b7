//! Experiment harness: setting up and running whole broadcasts.
//!
//! The harness owns everything that happens *around* the per-node state
//! machines: forming the DC-net groups, deriving the pairwise keys,
//! instantiating one [`FlexNode`] per overlay node, kicking off the
//! broadcast and condensing the simulator metrics into a per-phase
//! [`FlexReport`]. It also provides [`ProtocolKind`], a small abstraction
//! that lets the comparison experiments (E1, E10) run all four
//! dissemination strategies — flood, Dandelion, adaptive diffusion and the
//! flexible protocol — through one call.

use crate::config::FlexConfig;
use crate::keycache::GroupKeyCache;
use crate::message::{PHASE1_KINDS, PHASE2_KINDS, PHASE3_KINDS};
use crate::node::{FlexNode, GroupMembership};
use fnp_crypto::dh::KeyPair;
use fnp_dcnet::RoundScratch;
use fnp_diffusion::{AdParams, AdaptiveDiffusionNode};
use fnp_gossip::{DandelionParams, StemLine};
use fnp_groups::{form_groups, FormationError, Group};
use fnp_netsim::{Graph, Metrics, NodeId, SimConfig, Simulator, TrialArena};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

/// Result of one flexible-protocol broadcast.
#[derive(Clone, Debug)]
pub struct FlexReport {
    /// Raw simulator metrics.
    pub metrics: Metrics,
    /// The members of the originator's DC-net group.
    pub origin_group: Vec<NodeId>,
    /// Messages sent in phase 1 (DC-net).
    pub phase1_messages: u64,
    /// Messages sent in phase 2 (adaptive diffusion, incl. the final spread).
    pub phase2_messages: u64,
    /// Messages sent in phase 3 (flood and prune).
    pub phase3_messages: u64,
    /// Bytes sent in phase 1.
    pub phase1_bytes: u64,
    /// Bytes sent in phase 2.
    pub phase2_bytes: u64,
    /// Bytes sent in phase 3.
    pub phase3_bytes: u64,
}

impl FlexReport {
    fn from_metrics(metrics: Metrics, origin_group: Vec<NodeId>) -> Self {
        let sum_messages = |kinds: &[&str]| kinds.iter().map(|k| metrics.messages_of_kind(k)).sum();
        let sum_bytes = |kinds: &[&str]| kinds.iter().map(|k| metrics.bytes_of_kind(k)).sum();
        Self {
            phase1_messages: sum_messages(PHASE1_KINDS),
            phase2_messages: sum_messages(PHASE2_KINDS),
            phase3_messages: sum_messages(PHASE3_KINDS),
            phase1_bytes: sum_bytes(PHASE1_KINDS),
            phase2_bytes: sum_bytes(PHASE2_KINDS),
            phase3_bytes: sum_bytes(PHASE3_KINDS),
            origin_group,
            metrics,
        }
    }

    /// Fraction of nodes that received the transaction.
    pub fn coverage(&self) -> f64 {
        self.metrics.coverage()
    }

    /// Total messages across all phases.
    pub fn total_messages(&self) -> u64 {
        self.metrics.messages_sent
    }
}

/// Errors raised while setting up a flexible broadcast.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HarnessError {
    /// The protocol configuration is invalid.
    Config(crate::config::ConfigError),
    /// DC-net groups could not be formed over the overlay.
    Formation(FormationError),
    /// The requested origin node does not exist in the overlay.
    OriginOutOfRange {
        /// The requested origin.
        origin: NodeId,
        /// Number of overlay nodes.
        nodes: usize,
    },
}

impl fmt::Display for HarnessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HarnessError::Config(inner) => write!(f, "{inner}"),
            HarnessError::Formation(inner) => write!(f, "{inner}"),
            HarnessError::OriginOutOfRange { origin, nodes } => {
                write!(f, "origin {origin} outside overlay of {nodes} nodes")
            }
        }
    }
}

impl std::error::Error for HarnessError {}

impl From<crate::config::ConfigError> for HarnessError {
    fn from(value: crate::config::ConfigError) -> Self {
        HarnessError::Config(value)
    }
}

impl From<FormationError> for HarnessError {
    fn from(value: FormationError) -> Self {
        HarnessError::Formation(value)
    }
}

/// Derives the deterministic long-term key pair of an overlay node.
///
/// Real deployments would generate keys independently; deriving them from
/// the node index keeps experiments reproducible without changing any of
/// the protocol logic (the pads still cancel, the election still works).
pub fn node_key_pair(node: NodeId, key_seed: u64) -> KeyPair {
    KeyPair::from_secret(key_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (node.index() as u64 + 1))
}

/// Builds the [`GroupMembership`] handed to each member of `group`.
///
/// Delegates to the worker's [`GroupKeyCache`]: the first trial to see this
/// group composition pays the pairwise DH/HKDF derivations, later trials
/// (same key seed, same members) reuse the cached pad keys. The member list
/// and identity table are shared (reference-counted) between all `k`
/// memberships rather than deep-copied per member.
fn build_memberships(
    group: &Group,
    key_cache: &mut GroupKeyCache,
) -> Vec<(NodeId, GroupMembership)> {
    key_cache.memberships(group)
}

/// Per-worker state carried across trials in the arena's extension slot:
/// the group-key cache plus the DC-round buffer pool the trial's nodes
/// share.
#[derive(Debug)]
struct HarnessExtras {
    key_cache: GroupKeyCache,
    scratch: Rc<RefCell<RoundScratch>>,
}

/// Checks the worker's harness extras out of the arena extension slot.
///
/// A missing slot or a slot holding some other extension type falls back
/// to fresh state; a key cache derived under a different key seed is
/// replaced (stale pad keys must never leak between seeds) while the
/// scratch pool — plain zeroed buffers — survives any seed change.
/// Correctness never depends on what the slot contains.
fn take_extras(
    arena: &mut TrialArena,
    key_seed: u64,
) -> (GroupKeyCache, Rc<RefCell<RoundScratch>>) {
    match arena
        .take_extension()
        .and_then(|boxed| boxed.downcast::<HarnessExtras>().ok())
    {
        Some(extras) => {
            let HarnessExtras { key_cache, scratch } = *extras;
            let key_cache = if key_cache.key_seed() == key_seed {
                key_cache
            } else {
                GroupKeyCache::new(key_seed)
            };
            (key_cache, scratch)
        }
        None => (
            GroupKeyCache::new(key_seed),
            Rc::new(RefCell::new(RoundScratch::new())),
        ),
    }
}

/// The setup shared by both flexible-protocol entry points: validates
/// `config`, partitions the `n` overlay nodes into DC-net groups of size
/// `config.k` to `2·config.k − 1` (setup RNG seeded with
/// `seed ^ 0xD1F7_BEEF`) and derives every member's [`GroupMembership`],
/// reusing any key material the previous trial on this worker derived for
/// the same groups. Returns the groups and one configured [`FlexNode`] per
/// overlay node, in node order.
fn form_flex_nodes(
    arena: &mut TrialArena,
    n: usize,
    config: FlexConfig,
    seed: u64,
) -> Result<(Vec<Group>, impl Iterator<Item = FlexNode>), HarnessError> {
    config.validate()?;
    let mut setup_rng = StdRng::seed_from_u64(seed ^ 0xD1F7_BEEF);
    let all_nodes: Vec<NodeId> = (0..n).map(NodeId::new).collect();
    let groups = form_groups(&all_nodes, config.k, &mut setup_rng)?;

    let (mut key_cache, scratch) = take_extras(arena, seed);
    let mut memberships: Vec<Option<GroupMembership>> = (0..n).map(|_| None).collect();
    for group in &groups {
        for (node, membership) in build_memberships(group, &mut key_cache) {
            memberships[node.index()] = Some(membership);
        }
    }
    arena.store_extension(Box::new(HarnessExtras {
        key_cache,
        scratch: Rc::clone(&scratch),
    }));

    let nodes = memberships
        .into_iter()
        .map(move |membership| FlexNode::with_scratch(config, membership, Rc::clone(&scratch)));
    Ok((groups, nodes))
}

/// Sets up and runs one flexible-protocol broadcast of `payload` from
/// `origin` over `graph`, checking the simulator storage out of `arena`
/// (recycle the report's [`Metrics`] via [`TrialArena::recycle_metrics`]
/// once aggregated).
///
/// The overlay is partitioned into DC-net groups of size `config.k` to
/// `2·config.k − 1`; every node participates in exactly one group. The
/// configuration's `record_trace` flag is forced on so that adversary
/// estimators can replay the broadcast.
///
/// # Errors
///
/// Returns a [`HarnessError`] if the origin is out of range, the
/// configuration is invalid or groups cannot be formed (network smaller
/// than `k`).
pub fn run_flexible_broadcast_in(
    arena: &mut TrialArena,
    graph: Graph,
    origin: NodeId,
    payload: Vec<u8>,
    config: FlexConfig,
    sim_config: SimConfig,
) -> Result<FlexReport, HarnessError> {
    let n = graph.node_count();
    if origin.index() >= n {
        return Err(HarnessError::OriginOutOfRange { origin, nodes: n });
    }
    let (groups, flex_nodes) = form_flex_nodes(arena, n, config, sim_config.seed)?;
    let origin_group = groups
        .iter()
        .find(|group| group.contains(origin))
        .map_or_else(Vec::new, Group::member_vec);
    let mut nodes: Vec<FlexNode> = arena.take_nodes();
    nodes.extend(flex_nodes);

    let mut traced_config = sim_config;
    traced_config.record_trace = true;
    let mut sim = Simulator::new_in(arena, graph, nodes, traced_config);
    // `trigger` takes a `FnOnce`, so the payload can be moved in directly.
    sim.trigger(origin, move |node, view, out| {
        node.start_broadcast(payload, view, out);
    });
    sim.run();
    let (nodes, metrics) = sim.into_parts_in(arena);
    arena.store_nodes(nodes);
    Ok(FlexReport::from_metrics(metrics, origin_group))
}

/// Builds one configured [`FlexNode`] per overlay node — the prototypes a
/// steady-state session spawns per-transaction instances from.
///
/// The group formation, pairwise-key derivation and scratch pooling are
/// the ones [`run_flexible_broadcast_in`] runs (same `seed ^ 0xD1F7_BEEF`
/// setup RNG, same arena-pooled [`GroupKeyCache`]), so a steady-state trial
/// sees exactly the group landscape a single-broadcast trial at the same
/// seed would.
///
/// # Errors
///
/// Returns a [`HarnessError`] if the configuration is invalid or groups
/// cannot be formed (network smaller than `k`).
pub fn flex_steady_prototypes_in(
    arena: &mut TrialArena,
    n: usize,
    config: FlexConfig,
    seed: u64,
) -> Result<Vec<FlexNode>, HarnessError> {
    let (_, nodes) = form_flex_nodes(arena, n, config, seed)?;
    Ok(nodes.collect())
}

/// The four dissemination strategies the experiments compare.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ProtocolKind {
    /// Plain flood-and-prune (no privacy).
    Flood,
    /// Dandelion stem/fluff.
    Dandelion(DandelionParams),
    /// Adaptive diffusion run to full dissemination.
    AdaptiveDiffusion(AdParams),
    /// The paper's flexible three-phase protocol.
    Flexible(FlexConfig),
}

impl fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolKind::Flood => write!(f, "flood"),
            ProtocolKind::Dandelion(_) => write!(f, "dandelion"),
            ProtocolKind::AdaptiveDiffusion(_) => write!(f, "adaptive-diffusion"),
            ProtocolKind::Flexible(config) => write!(f, "{config}"),
        }
    }
}

/// Runs one broadcast of `kind` from `origin` over `graph` and returns the
/// simulator metrics (with tracing enabled, so adversary estimators can be
/// applied to the result). The simulator storage is checked out of
/// `arena` (recycle the returned [`Metrics`] via
/// [`TrialArena::recycle_metrics`] once aggregated).
///
/// # Errors
///
/// Only [`ProtocolKind::Flexible`] can fail (invalid config / group
/// formation); the baselines always succeed.
pub fn run_protocol_in(
    arena: &mut TrialArena,
    kind: ProtocolKind,
    graph: Graph,
    origin: NodeId,
    sim_config: SimConfig,
) -> Result<Metrics, HarnessError> {
    let mut traced = sim_config;
    traced.record_trace = true;
    match kind {
        ProtocolKind::Flood => Ok(fnp_gossip::run_flood_in(arena, graph, origin, 1, traced)),
        ProtocolKind::Dandelion(params) => {
            let mut rng = StdRng::seed_from_u64(traced.seed ^ 0xDA4D_E110_u64);
            let line = StemLine::random(graph.node_count(), &mut rng);
            Ok(
                fnp_gossip::run_dandelion_in(arena, graph, &line, origin, 1, params, traced)
                    .metrics,
            )
        }
        ProtocolKind::AdaptiveDiffusion(params) => {
            let node_count = graph.node_count();
            let mut nodes: Vec<AdaptiveDiffusionNode> = arena.take_nodes();
            nodes.extend((0..node_count).map(|_| AdaptiveDiffusionNode::new(params)));
            let mut sim = Simulator::new_in(arena, graph, nodes, traced);
            sim.trigger(origin, |node, view, out| node.start_broadcast(view, out));
            sim.run();
            let (nodes, metrics) = sim.into_parts_in(arena);
            arena.store_nodes(nodes);
            Ok(metrics)
        }
        ProtocolKind::Flexible(config) => {
            let payload = b"flexible broadcast payload".to_vec();
            run_flexible_broadcast_in(arena, graph, origin, payload, config, traced)
                .map(|report| report.metrics)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fnp_netsim::topology;

    fn overlay(n: usize, seed: u64) -> Graph {
        let mut rng = StdRng::seed_from_u64(seed);
        topology::random_regular(n, 8, &mut rng).unwrap()
    }

    #[test]
    fn flexible_broadcast_reaches_every_node() {
        let graph = overlay(200, 1);
        let report = run_flexible_broadcast_in(
            &mut TrialArena::new(),
            graph,
            NodeId::new(17),
            b"pay 3 tokens to bob".to_vec(),
            FlexConfig::default(),
            SimConfig {
                seed: 1,
                ..SimConfig::default()
            },
        )
        .unwrap();
        assert_eq!(
            report.coverage(),
            1.0,
            "metrics: {:?}",
            report.metrics.counters()
        );
        // All three phases actually ran.
        assert!(report.phase1_messages > 0, "phase 1 silent");
        assert!(report.phase2_messages > 0, "phase 2 silent");
        assert!(report.phase3_messages > 0, "phase 3 silent");
        assert_eq!(report.metrics.counter("flex-elected-vs"), 1);
        assert!(report.origin_group.contains(&NodeId::new(17)));
        assert!(report.origin_group.len() >= FlexConfig::default().k);
    }

    #[test]
    fn dc_phase_cost_scales_quadratically_with_k() {
        let graph = overlay(120, 2);
        let run = |k: usize| {
            run_flexible_broadcast_in(
                &mut TrialArena::new(),
                graph.clone(),
                NodeId::new(0),
                b"tx".to_vec(),
                FlexConfig::default().with_k(k),
                SimConfig {
                    seed: 2,
                    ..SimConfig::default()
                },
            )
            .unwrap()
            .phase1_messages
        };
        let small = run(4);
        let large = run(8);
        // Phase-1 cost grows superlinearly in k (quadratic per round, and the
        // group absorbs more rounds); allow a generous band around 4×.
        assert!(large > 2 * small, "k=4: {small}, k=8: {large}");
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        let graph = overlay(50, 3);
        let err = run_flexible_broadcast_in(
            &mut TrialArena::new(),
            graph.clone(),
            NodeId::new(0),
            b"tx".to_vec(),
            FlexConfig::default().with_k(1),
            SimConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, HarnessError::Config(_)));

        let err = run_flexible_broadcast_in(
            &mut TrialArena::new(),
            graph.clone(),
            NodeId::new(999),
            b"tx".to_vec(),
            FlexConfig::default(),
            SimConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, HarnessError::OriginOutOfRange { .. }));

        // Network smaller than k.
        let tiny = topology::complete(3).unwrap();
        let err = run_flexible_broadcast_in(
            &mut TrialArena::new(),
            tiny,
            NodeId::new(0),
            b"tx".to_vec(),
            FlexConfig::default().with_k(5),
            SimConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, HarnessError::Formation(_)));
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn all_protocol_kinds_deliver_everywhere() {
        let graph = overlay(150, 4);
        let kinds = [
            ProtocolKind::Flood,
            ProtocolKind::Dandelion(DandelionParams::default()),
            ProtocolKind::AdaptiveDiffusion(AdParams {
                max_rounds: 64,
                ..AdParams::default()
            }),
            ProtocolKind::Flexible(FlexConfig::default()),
        ];
        for kind in kinds {
            let metrics = run_protocol_in(
                &mut TrialArena::new(),
                kind,
                graph.clone(),
                NodeId::new(5),
                SimConfig {
                    seed: 4,
                    ..SimConfig::default()
                },
            )
            .unwrap_or_else(|e| panic!("{kind}: {e}"));
            assert_eq!(metrics.coverage(), 1.0, "{kind} did not reach everyone");
            assert!(!metrics.trace.is_empty(), "{kind} should be traced");
        }
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let graph = overlay(100, 5);
        let run = || {
            run_flexible_broadcast_in(
                &mut TrialArena::new(),
                graph.clone(),
                NodeId::new(3),
                b"tx".to_vec(),
                FlexConfig::default(),
                SimConfig {
                    seed: 77,
                    ..SimConfig::default()
                },
            )
            .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.total_messages(), b.total_messages());
        assert_eq!(a.metrics.delivered_at, b.metrics.delivered_at);
        assert_eq!(a.origin_group, b.origin_group);
    }

    #[test]
    fn warm_key_cache_reproduces_cold_cache_broadcasts() {
        let graph = overlay(100, 6);
        let config = SimConfig {
            seed: 21,
            ..SimConfig::default()
        };
        let run = |arena: &mut TrialArena| {
            run_flexible_broadcast_in(
                arena,
                graph.clone(),
                NodeId::new(9),
                b"tx".to_vec(),
                FlexConfig::default(),
                config.clone(),
            )
            .unwrap()
        };

        let fresh = run(&mut TrialArena::new());
        let mut arena = TrialArena::new();
        let cold = run(&mut arena); // derives and populates the cache
        let warm = run(&mut arena); // must hit the cache for every group
        for report in [&cold, &warm] {
            assert_eq!(report.total_messages(), fresh.total_messages());
            assert_eq!(report.metrics.delivered_at, fresh.metrics.delivered_at);
            assert_eq!(report.origin_group, fresh.origin_group);
        }

        // The pooled extras must carry the key seed the cache was derived
        // under, and the scratch pool must have recycled round buffers.
        let extras = *arena
            .take_extension()
            .expect("broadcast pools its harness extras")
            .downcast::<HarnessExtras>()
            .expect("extension slot holds the harness extras");
        assert_eq!(extras.key_cache.key_seed(), 21);
        assert!(!extras.key_cache.is_empty());
        assert!(
            extras.scratch.borrow().pooled() > 0,
            "resolved DC rounds should have recycled their buffers"
        );
    }

    #[test]
    fn key_cache_is_discarded_when_the_seed_changes() {
        let graph = overlay(100, 6);
        let run = |arena: &mut TrialArena, seed: u64| {
            run_flexible_broadcast_in(
                arena,
                graph.clone(),
                NodeId::new(9),
                b"tx".to_vec(),
                FlexConfig::default(),
                SimConfig {
                    seed,
                    ..SimConfig::default()
                },
            )
            .unwrap()
        };
        let mut arena = TrialArena::new();
        run(&mut arena, 1); // populates a seed-1 cache
        let reseeded = run(&mut arena, 2); // must not reuse seed-1 material
        let fresh = run(&mut TrialArena::new(), 2);
        assert_eq!(reseeded.total_messages(), fresh.total_messages());
        assert_eq!(reseeded.metrics.delivered_at, fresh.metrics.delivered_at);
    }

    #[test]
    fn steady_flexible_broadcasts_overlap_and_cover() {
        use fnp_proto::steady::{run_steady_in, Arrival};
        let n = 60;
        let graph = overlay(n, 8);
        let mut arena = TrialArena::new();
        let prototypes =
            flex_steady_prototypes_in(&mut arena, n, FlexConfig::default(), 8).unwrap();
        // Two transactions injected half a second apart: the second arrives
        // while the first is still in its DC-net phase, so their rounds
        // genuinely overlap on the origin's group.
        let arrivals = [
            Arrival {
                at: 1,
                origin: NodeId::new(10),
            },
            Arrival {
                at: 500_000,
                origin: NodeId::new(10),
            },
            Arrival {
                at: 700_000,
                origin: NodeId::new(33),
            },
        ];
        let (metrics, report) = run_steady_in(
            &mut arena,
            graph,
            prototypes,
            &arrivals,
            &[NodeId::new(5)],
            3,
            SimConfig {
                seed: 8,
                ..SimConfig::default()
            },
        );
        for (tx, outcome) in report.per_tx.iter().enumerate() {
            assert_eq!(
                outcome.delivered_count, n,
                "tx {tx} did not reach the whole overlay"
            );
            assert!(outcome.first_miner_delivery.is_some(), "tx {tx}");
            assert!(outcome.completed_at.is_some(), "tx {tx} never drained");
        }
        assert!(report.peak_concurrent >= 2, "broadcasts should overlap");
        // Each transaction pays its own DC-net phase: at least two rounds'
        // worth of contributions crossed the wire.
        assert!(metrics.messages_of_kind("flex-dc") > 0);
    }

    #[test]
    fn node_key_pairs_are_deterministic_and_distinct() {
        let a = node_key_pair(NodeId::new(1), 7);
        let b = node_key_pair(NodeId::new(1), 7);
        let c = node_key_pair(NodeId::new(2), 7);
        assert_eq!(a.public_key(), b.public_key());
        assert_ne!(a.public_key(), c.public_key());
    }

    #[test]
    fn protocol_kind_display() {
        assert_eq!(ProtocolKind::Flood.to_string(), "flood");
        assert!(ProtocolKind::Flexible(FlexConfig::default())
            .to_string()
            .contains("k=5"));
    }
}

//! # fnp-blockchain — the blockchain substrate behind the paper's scenario
//!
//! The paper's scenario section (§II) motivates the whole protocol with the
//! mechanics of a blockchain system: wallets broadcast *transactions* into a
//! peer-to-peer network; *miners* collect them into *blocks*, earn the block
//! reward plus the *transaction fees*, and therefore care about receiving
//! every transaction with low latency — "each transaction needs to be
//! broadcast to all miners with low latency, such that each miner has the
//! same chance to earn the associated transaction fee". Privacy mechanisms
//! that delay dissemination trade exactly against this fairness.
//!
//! The paper never builds that substrate (it argues about it analytically);
//! this crate builds it so the trade-off can be *measured*:
//!
//! * [`transaction`] — transactions with sizes, fees and originators, hashed
//!   into stable identifiers with the `fnp-crypto` SHA-256.
//! * [`mempool`] — a fee-rate-ordered memory pool with capacity eviction,
//!   the structure miners draw from when building blocks.
//! * [`block`] — blocks, block hashing and reward accounting (subsidy plus
//!   fees).
//! * [`chain`] — an append-only validated chain with per-miner earnings and
//!   transaction-inclusion queries.
//! * [`miner`] — a set of miners with hash-rate shares and an exponential
//!   block-interval race model (the standard Poisson model of proof-of-work).
//! * [`fairness`] — Jain's fairness index and Gini coefficient over fee
//!   earnings, the quantitative form of §II's fairness argument.
//! * [`scenario`] — the bridge to the broadcast protocols: given per-node
//!   delivery times of a transaction (a [`fnp_netsim::Metrics`] produced by
//!   any of the protocols in this workspace), race the miners and report who
//!   earned the fee, how unfair the outcome was and how long inclusion took.
//! * [`steady`] — the sustained-load counterpart of [`scenario`]: replay a
//!   whole stream of miner deliveries against an exponential block process
//!   and report mempool occupancy, eviction and inclusion delays.
//!
//! The experiment binaries in `fnp-bench` (experiment E12/tab7) combine this
//! crate with `fnp_core::run_protocol_in` to quantify the latency-fairness cost
//! of each privacy mechanism — flooding, Dandelion, adaptive diffusion and
//! the paper's flexible three-phase protocol.
//!
//! # Example
//!
//! ```
//! use fnp_blockchain::{Mempool, Transaction};
//! use fnp_netsim::NodeId;
//!
//! let mut pool = Mempool::new(1_000_000);
//! let tx = Transaction::new(NodeId::new(3), 250, 500, 0);
//! pool.insert(tx.clone()).unwrap();
//! assert!(pool.contains(&tx.id()));
//! let block_txs = pool.select_for_block(1_000);
//! assert_eq!(block_txs.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod block;
pub mod chain;
pub mod fairness;
pub mod mempool;
pub mod miner;
pub mod scenario;
pub mod steady;
pub mod transaction;

pub use block::{Block, BlockHeader, BLOCK_SUBSIDY};
pub use chain::{Blockchain, ChainError};
pub use fairness::{gini_coefficient, jain_fairness_index, FairnessReport};
pub use mempool::{Mempool, MempoolError};
pub use miner::{Miner, MinerSet, MinerSetError};
pub use scenario::{race_transaction, InclusionRace, RaceConfig, RaceOutcome};
pub use steady::{replay_steady_mempool, MinerDelivery, SteadyMempoolConfig, SteadyMempoolReport};
pub use transaction::{Transaction, TxId};

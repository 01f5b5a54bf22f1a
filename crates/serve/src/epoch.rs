//! Epoch-swap serving: keep answering queries from an immutable shard set while a
//! background rebuild prepares the next one, then publish atomically.
//!
//! The whole serving stack is built on *immutable* oracles — that is what makes the serving
//! threads coordination-free. Churn must not break that: instead of mutating shards in place,
//! each network change produces a brand-new [`ShardedOracle`] (usually through the
//! incremental path, [`ShardedOracle::rebuild_bk_csr`]) wrapped in an [`Epoch`], and
//! [`EpochOracle::publish`] swaps one `Arc` pointer. Readers never block on a rebuild and a
//! rebuild never blocks on readers.
//!
//! # The epoch invariant
//!
//! Every batch is answered **entirely by one epoch**. [`EpochOracle`] overrides
//! [`RouteOracle::query_batch_routed`] to resolve the current epoch once per batch and route
//! every query of the batch through that pinned `Arc` — so a swap landing mid-batch changes
//! which epoch *later* batches see, never the consistency of the one in flight. Between the
//! event arriving and `publish` returning, answers legitimately describe the pre-event
//! graph; that interval is the *staleness window* the churn metrics record.
//!
//! The slot's `RwLock` comes from [`msrp_check::sync`] (a plain `std::sync::RwLock`
//! re-export in normal builds), so `crates/check/tests/model_epoch.rs` can exhaustively
//! interleave `publish` against pinned batches and prove the epoch invariant.

use msrp_check::sync::{Arc, RwLock};

use msrp_graph::Distance;

use crate::service::{Query, RouteOracle, ShardedOracle};

/// One immutable generation of the serving state: an id (monotonically increasing from 0)
/// and the shard set every batch pinned to this epoch is answered from.
#[derive(Debug)]
pub struct Epoch {
    /// Epoch id; 0 is the initially built oracle, each publish increments by 1.
    pub id: u64,
    /// The immutable shard set of this epoch.
    pub oracle: ShardedOracle,
}

/// A [`RouteOracle`] whose shard set can be atomically replaced while a
/// [`QueryService`](crate::QueryService) serves from it.
///
/// Readers clone an `Arc<Epoch>` out of the slot (one `RwLock` read acquisition per batch);
/// [`publish`](Self::publish) write-locks only for the pointer swap. Old epochs stay alive
/// exactly as long as some batch still holds their `Arc` — there is no epoch reclamation
/// protocol to get wrong.
#[derive(Debug)]
pub struct EpochOracle {
    current: RwLock<Arc<Epoch>>,
}

impl EpochOracle {
    /// Wraps an initially built shard set as epoch 0.
    pub fn new(oracle: ShardedOracle) -> Self {
        EpochOracle { current: RwLock::new(Arc::new(Epoch { id: 0, oracle })) }
    }

    /// The currently served epoch (a cheap `Arc` clone; the epoch stays valid for as long
    /// as the caller holds it, across any number of later publishes).
    pub fn current(&self) -> Arc<Epoch> {
        Arc::clone(&self.current.read().expect("epoch slot poisoned"))
    }

    /// Id of the currently served epoch.
    pub fn epoch_id(&self) -> u64 {
        self.current.read().expect("epoch slot poisoned").id
    }

    /// Atomically publishes `oracle` as the next epoch and returns it. Batches pinned
    /// before the swap finish against the old epoch; every batch pinned after sees the new
    /// one.
    ///
    /// # Panics
    ///
    /// Panics if the new shard set changes the shard count or vertex count — routing, the
    /// per-shard metrics, and protocol-level id validation all assume those are stable
    /// across epochs (churn toggles edges, never vertices or sources).
    pub fn publish(&self, oracle: ShardedOracle) -> Arc<Epoch> {
        let mut slot = self.current.write().expect("epoch slot poisoned");
        assert_eq!(
            oracle.shard_count(),
            slot.oracle.shard_count(),
            "epochs must keep the shard count stable"
        );
        assert_eq!(
            oracle.vertex_count(),
            slot.oracle.vertex_count(),
            "epochs must keep the vertex set stable"
        );
        let next = Arc::new(Epoch { id: slot.id + 1, oracle });
        *slot = Arc::clone(&next);
        next
    }
}

impl RouteOracle for EpochOracle {
    type Answer = Distance;

    fn shard_count(&self) -> usize {
        self.current.read().expect("epoch slot poisoned").oracle.shard_count()
    }

    fn vertex_count(&self) -> usize {
        self.current.read().expect("epoch slot poisoned").oracle.vertex_count()
    }

    fn query_routed(&self, q: Query) -> (Option<usize>, Option<Distance>) {
        self.current().oracle.query_routed(q)
    }

    /// The epoch invariant lives here: one `current()` resolution pins the whole batch to a
    /// single epoch, no matter how many publishes land while it is being answered.
    fn query_batch_routed(&self, queries: &[Query]) -> Vec<(Option<usize>, Option<Distance>)> {
        let epoch = self.current();
        queries.iter().map(|&q| epoch.oracle.query_routed(q)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{QueryService, ServiceConfig};
    use msrp_graph::generators::connected_gnm;
    use msrp_graph::Edge;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn two_epochs() -> (EpochOracle, ShardedOracle, Edge) {
        let mut rng = StdRng::seed_from_u64(91);
        let mut g = connected_gnm(20, 50, &mut rng).unwrap();
        let sources = [0usize, 7, 14];
        let epochs = EpochOracle::new(ShardedOracle::build_bk_csr(&g.freeze(), &sources, 2));
        let e = g.edge_vec()[3];
        let (u, v) = e.endpoints();
        g.remove_edge(u, v).unwrap();
        let (next, _) = epochs.current().oracle.rebuild_bk_csr(&g.freeze(), e);
        (epochs, next, e)
    }

    #[test]
    fn publish_advances_the_epoch_and_keeps_old_handles_valid() {
        let (epochs, next, _) = two_epochs();
        let old = epochs.current();
        assert_eq!(old.id, 0);
        assert_eq!(epochs.epoch_id(), 0);
        let published = epochs.publish(next);
        assert_eq!(published.id, 1);
        assert_eq!(epochs.epoch_id(), 1);
        // The old handle still answers from the pre-swap shard set.
        assert_eq!(old.id, 0);
        let q = Query::new(0, 13, Edge::new(0, 1));
        let _ = old.oracle.query(q); // must not have been torn down
    }

    #[test]
    fn batches_are_pinned_to_one_epoch() {
        let (epochs, next, _) = two_epochs();
        let old = epochs.current();
        let new = epochs.publish(next);
        // After the swap, the batch hook answers from the new epoch — and bit-for-bit so.
        let queries: Vec<Query> = (0..20).map(|t| Query::new(0, t, Edge::new(0, 1))).collect();
        let batch = epochs.query_batch_routed(&queries);
        for (q, (_, a)) in queries.iter().zip(&batch) {
            assert_eq!(*a, new.oracle.query(*q), "q={q:?}");
        }
        // Both epochs are internally consistent answer sets a batch may legally equal.
        let old_batch: Vec<_> = queries.iter().map(|&q| old.oracle.query(q)).collect();
        assert_eq!(old_batch.len(), batch.len());
    }

    #[test]
    fn a_service_over_an_epoch_oracle_swaps_live() {
        let (epochs, next, _) = two_epochs();
        let service = QueryService::start(epochs, &ServiceConfig { workers: 2 });
        let queries: Vec<Query> = (0..20).map(|t| Query::new(7, t, Edge::new(0, 1))).collect();
        let before = service.answer_batch(&queries);
        let old = service.oracle().current();
        for (q, a) in queries.iter().zip(&before) {
            assert_eq!(*a, old.oracle.query(*q));
        }
        // Publish through the service's own handle: the oracle accessor is enough, no
        // service restart, no worker coordination.
        let new = service.oracle().publish(next);
        let after = service.answer_batch(&queries);
        for (q, a) in queries.iter().zip(&after) {
            assert_eq!(*a, new.oracle.query(*q));
        }
        let metrics = service.shutdown();
        assert_eq!(metrics.queries_total, 2 * queries.len() as u64);
    }

    #[test]
    #[should_panic(expected = "shard count")]
    fn publishing_a_different_shard_count_is_rejected() {
        let mut rng = StdRng::seed_from_u64(92);
        let g = connected_gnm(12, 24, &mut rng).unwrap().freeze();
        let epochs = EpochOracle::new(ShardedOracle::build_bk_csr(&g, &[0, 5, 10], 3));
        let _ = epochs.publish(ShardedOracle::build_bk_csr(&g, &[0, 5, 10], 1));
    }
}

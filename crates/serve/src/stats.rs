//! Serving-layer counters.

/// Cumulative counters describing what the server has done; snapshot with
/// [`Server::stats`](crate::Server::stats).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ServeStats {
    /// Evaluation requests served (successful or failed).
    pub requests: u64,
    /// Requests that came back as failed responses.
    pub failed: u64,
    /// Batch ticks that executed at least one request.
    pub batches: u64,
    /// Largest batch a single tick executed.
    pub max_batch: usize,
    /// Sessions opened over the server's lifetime.
    pub sessions_opened: u64,
    /// Requests load-shed by the bounded admission queue (returned
    /// `Overloaded`, never queued).
    pub shed: u64,
    /// Sessions evicted by the tenant table's LRU bound.
    pub sessions_evicted: u64,
    /// Kernel nodes recorded across all batch graphs.
    pub recorded_kernels: u64,
    /// Kernel launches the batch plans actually issued.
    pub planned_launches: u64,
    /// Launches eliminated by elementwise fusion — including chains that
    /// fused **across tenant boundaries** inside a batch.
    pub fused_kernels: u64,
    /// Batch ticks whose plan came from the server's plan cache (zero
    /// planning work — the steady-state fast path).
    pub plan_cache_hits: u64,
    /// Batch ticks that ran the full planning pass.
    pub plan_cache_misses: u64,
    /// Requests served per device shard (index = device; length =
    /// `num_devices`).
    pub per_device_requests: Vec<u64>,
    /// Planned kernel launches replayed per device shard.
    pub per_device_launches: Vec<u64>,
    /// Per-device stream occupancy over the stats window, filled at
    /// snapshot time from each device's simulator ledger.
    pub per_device_occupancy: Vec<f64>,
    /// Sessions reconstructed from a snapshot stream by
    /// [`Server::restore`](crate::Server::restore) (key material re-loaded,
    /// ids and weights preserved).
    pub restored_sessions: u64,
    /// Plan-cache hits whose entry was pre-planned — restored from a
    /// snapshot or built by [`Server::warmup`](crate::Server::warmup) —
    /// rather than planned by earlier live traffic. A warm restart shows
    /// these on its very first ticks.
    pub warm_plan_hits: u64,
    /// Tenants migrated between devices on sustained load imbalance.
    pub migrations: u64,
    /// Key-material bytes re-uploaded over the interconnect by those
    /// migrations.
    pub migration_bytes: u64,
    /// Wall microseconds the admission phases spent in planning sections
    /// (canonicalisation, cache lookup, and the planning passes for misses).
    /// With parallel per-shard planning this is the *elapsed* time of the
    /// fan-out, not the sum of the workers' time — compare against
    /// [`ServeStats::per_device_plan_us`] to see the overlap.
    pub plan_us: u64,
    /// Wall microseconds each device shard's planning passes took,
    /// measured inside the (possibly parallel) per-shard pass. The sum is
    /// the sequential-equivalent planning cost; the per-tick max is the
    /// parallel critical path.
    pub per_device_plan_us: Vec<u64>,
    /// Wall microseconds execution phases spent replaying planned
    /// launches onto the simulated devices.
    pub replay_us: u64,
    /// Wall microseconds spent flushing responses — filling ticket slots
    /// after the tick lock is released, plus (behind the socket front)
    /// serializing and writing response frames. Never overlaps the tick
    /// lock by construction.
    pub flush_us: u64,
}

impl ServeStats {
    /// Mean requests per executed batch.
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.requests as f64 / self.batches as f64
        }
    }

    /// Fraction of planned ticks served from the plan cache.
    pub fn plan_cache_hit_rate(&self) -> f64 {
        let total = self.plan_cache_hits + self.plan_cache_misses;
        if total == 0 {
            0.0
        } else {
            self.plan_cache_hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_batch_handles_empty() {
        assert_eq!(ServeStats::default().mean_batch(), 0.0);
        let s = ServeStats {
            requests: 32,
            batches: 4,
            ..Default::default()
        };
        assert_eq!(s.mean_batch(), 8.0);
    }
}

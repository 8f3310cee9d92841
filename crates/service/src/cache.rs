//! Content-addressed design cache: route once, score many times.
//!
//! A design registered with the service is routed exactly once; the
//! routed [`ClockTopo`] (with its `TreeCsr` adjacency pre-warmed)
//! becomes an immutable [`CachedDesign`] artifact
//! keyed by a content hash of the placement — not the design *name* —
//! so two tenants submitting byte-identical placements under different
//! names share one routed artifact. Jobs borrow the artifact read-only;
//! each job attempt clones the topology and runs
//! [`DsCts::try_run_routed`] on its clone (insertion consumes a
//! topology), which is what keeps cached-design job results
//! bit-identical to direct [`DsCts`] staged-driver calls.
//!
//! The cache is scoped to one service instance (one routing
//! configuration), so the key does not need to mix in pipeline config:
//! within a service, identical placements always route identically.

use dscts_core::{ClockTopo, CtsError, DsCts};
use dscts_netlist::Design;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Content hash identifying a routed design artifact within one service.
///
/// Derived from the placement content (die/core boxes, clock root, sink
/// positions and pin caps, macro keep-outs, cell count, utilization) —
/// deliberately *not* from [`Design::name`], so renamed but identical
/// placements deduplicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DesignKey(u64);

impl DesignKey {
    /// The content hash of `design`'s placement.
    pub fn of(design: &Design) -> DesignKey {
        let mut h = Fnv1a::new();
        for r in [&design.die, &design.core] {
            h.write_i64(r.xlo);
            h.write_i64(r.ylo);
            h.write_i64(r.xhi);
            h.write_i64(r.yhi);
        }
        h.write_i64(design.clock_root.x);
        h.write_i64(design.clock_root.y);
        h.write_u64(design.sinks.len() as u64);
        for s in &design.sinks {
            h.write_i64(s.pos.x);
            h.write_i64(s.pos.y);
            h.write_u64(s.cap_ff.to_bits());
        }
        h.write_u64(design.macros.len() as u64);
        for m in &design.macros {
            h.write_i64(m.rect.xlo);
            h.write_i64(m.rect.ylo);
            h.write_i64(m.rect.xhi);
            h.write_i64(m.rect.yhi);
        }
        h.write_u64(design.num_cells as u64);
        h.write_u64(design.utilization.to_bits());
        DesignKey(h.finish())
    }

    /// The raw 64-bit hash value.
    pub fn raw(&self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for DesignKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// FNV-1a, 64-bit. Hand-rolled: `std`'s hasher is not stable across
/// releases and the workspace adds no external dependencies.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn write_u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn write_i64(&mut self, v: i64) {
        self.write_u64(v as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// An immutable routed-design artifact shared read-only by every job
/// scoring the design.
#[derive(Debug)]
pub struct CachedDesign {
    /// The content key this artifact is cached under.
    pub key: DesignKey,
    /// Name of the design that first populated the entry (diagnostic
    /// only — the key is content-addressed).
    pub name: String,
    /// Sink count, for capacity planning and reporting.
    pub sinks: usize,
    /// The routed (and subdivided) topology, CSR adjacency pre-warmed.
    pub topo: ClockTopo,
    /// Wall clock the one routing run cost (seconds).
    pub route_s: f64,
}

/// Route-once cache over [`CachedDesign`] artifacts.
///
/// Each key maps to a `OnceLock` slot: concurrent registrations of the
/// same placement race to one slot, exactly one performs the routing
/// run (the others block on `get_or_init` and then share the artifact).
/// Routing *failures* are reported to every waiter but not cached — the
/// slot is removed so a later registration retries (a transient injected
/// fault must not poison a design forever).
pub(crate) struct DesignCache {
    slots: Mutex<HashMap<DesignKey, Arc<Slot>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// One cache slot: concurrent registrants race to initialize it once.
type Slot = OnceLock<Result<Arc<CachedDesign>, CtsError>>;

impl DesignCache {
    pub(crate) fn new() -> Self {
        DesignCache {
            slots: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Looks up (or routes and inserts) the artifact for `design`.
    /// Returns the artifact and whether this was a cache hit.
    pub(crate) fn get_or_route(
        &self,
        base: &DsCts,
        design: &Design,
    ) -> (Result<Arc<CachedDesign>, CtsError>, bool) {
        let key = DesignKey::of(design);
        let slot = {
            let mut slots = self.slots.lock().unwrap_or_else(|p| p.into_inner());
            Arc::clone(slots.entry(key).or_default())
        };
        let mut routed_here = false;
        let result = slot
            .get_or_init(|| {
                routed_here = true;
                let t0 = Instant::now();
                base.route(design).map(|topo| {
                    // Warm the CSR adjacency while the artifact is still
                    // exclusively ours; every job thereafter borrows it.
                    let _ = topo.csr();
                    Arc::new(CachedDesign {
                        key,
                        name: design.name.clone(),
                        sinks: design.sinks.len(),
                        topo,
                        route_s: t0.elapsed().as_secs_f64(),
                    })
                })
            })
            .clone();
        if routed_here {
            self.misses.fetch_add(1, Ordering::Relaxed);
            dscts_telemetry::count("cache.misses", 1);
            if let Ok(artifact) = &result {
                dscts_telemetry::observe("span.register_route", artifact.route_s);
            }
            if result.is_err() {
                // Do not cache failures: drop the slot so a later
                // registration retries the routing run.
                let mut slots = self.slots.lock().unwrap_or_else(|p| p.into_inner());
                if slots.get(&key).is_some_and(|s| Arc::ptr_eq(s, &slot)) {
                    slots.remove(&key);
                }
            }
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
            dscts_telemetry::count("cache.hits", 1);
        }
        (result, !routed_here)
    }

    /// The cached artifact for `key`, when present and successfully
    /// routed.
    pub(crate) fn get(&self, key: DesignKey) -> Option<Arc<CachedDesign>> {
        let slots = self.slots.lock().unwrap_or_else(|p| p.into_inner());
        let slot = slots.get(&key)?;
        match slot.get() {
            Some(Ok(artifact)) => Some(Arc::clone(artifact)),
            _ => None,
        }
    }

    pub(crate) fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    pub(crate) fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

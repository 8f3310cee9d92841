//! Sink clustering for hierarchical clock routing.
//!
//! §III-B of the paper clusters clock sinks at two levels before routing:
//! *high-level* clusters of size `Hc` (3 000 in the experiments) and, inside
//! each, *low-level* clusters of size `Lc` (30). Both steps use k-means as
//! the backbone; the centroids become the leaf and root terminals of the
//! hierarchical DME step.
//!
//! This crate provides:
//!
//! * [`KMeans`] — seeded k-means++ with Lloyd iterations and an optional
//!   hard **size cap** per cluster (the paper's `Hc`/`Lc` are capacity
//!   bounds, not cluster counts);
//! * [`Clustering`] — the assignment + centroid result, with intra-cluster
//!   wirelength metrics;
//! * [`DualHierarchy`] — the two-level structure consumed by the router.
//!
//! # Exact bounded Lloyd iterations
//!
//! A Lloyd pass assigns each point to its nearest centroid (L1, lowest
//! index wins ties), yet after the first few passes almost no point
//! changes cluster. [`KMeans::run`] therefore keeps Hamerly's bounds per
//! point (Hamerly 2010, "Making k-means even faster"): `upper`, at least
//! the distance to the assigned centroid `a`, and `lower`, at most the
//! distance to any other centroid. When the centroids move, `upper` grows
//! by how far `a` moved and `lower` shrinks by the largest move of any
//! other centroid. A point is skipped when `upper < lower`, or when
//! `2·upper` is below the distance from `a` to its nearest other centroid.
//! Both tests are strict and every distance is an integer, so a skipped
//! point's nearest centroid is unique and is the one it already has. A
//! point that might be tied is rescanned, and the rescan keeps the
//! lowest-index tie-break. Every pass therefore produces the plain loop's
//! assignment, and every [`Clustering`] is bit-identical to it.
//!
//! From 16 centroids on, a rescan walks a uniform grid over the centroids
//! rather than scanning all of them, and the grid's ring bound supplies
//! the new `lower` at no extra cost. The grid is what makes the bounds pay
//! at the 1M-sink high-level run (k = 334): with naive rescans there, the
//! bounded loop is slower than the plain loop with the grid.
//!
//! # Example
//!
//! ```
//! use dscts_cluster::{DualHierarchy, KMeans};
//! use dscts_geom::Point;
//!
//! let sinks: Vec<Point> = (0..200)
//!     .map(|i| Point::new((i % 20) * 1000, (i / 20) * 1000))
//!     .collect();
//! let h = DualHierarchy::build(&sinks, 3000, 30, 42);
//! // 200 sinks with Hc=3000 -> a single high cluster; Lc=30 -> ceil(200/30)=7 low clusters.
//! assert_eq!(h.high.k(), 1);
//! assert_eq!(h.low_clusters().count(), 7);
//! let km = KMeans::new(4).with_seed(7).with_cap(60);
//! let c = km.run(&sinks);
//! assert!(c.sizes().iter().all(|&s| s <= 60));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use dscts_geom::Point;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

/// Above this point count, k-means++ seeding scans a deterministic stride
/// subsample instead of every point. Chosen above every Table II preset and
/// the property-test sizes so their seeding (and thus every downstream
/// result) stays bit-identical to the dense scan; only the new `scaled`
/// 100k+-sink designs take the subsampled path.
const SEED_SAMPLE_LIMIT: usize = 65_536;

/// Below this centroid count a rescan scans every centroid instead of
/// walking the centroid grid; the two paths compute the same exact argmin
/// either way.
const GRID_MIN_K: usize = 16;

/// From this point count on, an assignment pass splits the points into one
/// contiguous chunk per thread. Only the high-level runs of 100k+ sinks
/// reach it: the low-level runs hold at most `Hc` points each and already
/// run in parallel with each other inside [`DualHierarchy::build`].
const PAR_ASSIGN_MIN: usize = 65_536;

/// Seeded k-means++ clustering with optional per-cluster size caps.
///
/// The algorithm is deterministic for a given `(points, k, seed, cap)`
/// configuration, which keeps every downstream experiment reproducible.
/// The Lloyd iterations skip every point whose assignment Hamerly's bounds
/// prove unchanged (see the [crate docs](crate)); the result is the plain
/// loop's, bit for bit, at any thread count.
#[derive(Debug, Clone)]
pub struct KMeans {
    k: usize,
    max_iter: usize,
    seed: u64,
    cap: Option<usize>,
}

impl KMeans {
    /// Creates a k-means runner for `k` clusters.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "k must be positive");
        KMeans {
            k,
            max_iter: 40,
            seed: 0,
            cap: None,
        }
    }

    /// Sets the RNG seed (default 0).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the Lloyd iteration budget (default 40).
    pub fn with_max_iter(mut self, iters: usize) -> Self {
        self.max_iter = iters.max(1);
        self
    }

    /// Enforces a hard maximum cluster size.
    ///
    /// # Panics
    ///
    /// Panics if `cap == 0`.
    pub fn with_cap(mut self, cap: usize) -> Self {
        assert!(cap > 0, "cap must be positive");
        self.cap = Some(cap);
        self
    }

    /// Runs clustering over `points`.
    ///
    /// # Panics
    ///
    /// Panics if `points` is empty, or if a size cap is configured and
    /// `k * cap < points.len()` (infeasible).
    pub fn run(&self, points: &[Point]) -> Clustering {
        assert!(!points.is_empty(), "cannot cluster zero points");
        if let Some(cap) = self.cap {
            assert!(
                self.k.saturating_mul(cap) >= points.len(),
                "infeasible: k*cap ({} * {cap}) < n ({})",
                self.k,
                points.len()
            );
        }
        let k = self.k.min(points.len());
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let mut centroids = kmeanspp_seed(points, k, &mut rng);
        let mut assignment = vec![0u32; points.len()];
        let mut bounds = vec![Bound::UNKNOWN; points.len()];
        let mut drift = vec![0; k];
        for _ in 0..self.max_iter {
            let pass = AssignPass::new(&centroids, drift, points.len());
            let changed = pass.assign(points, &mut assignment, &mut bounds);
            let before = centroids.clone();
            recentre(points, &assignment, &mut centroids);
            if !changed {
                break;
            }
            drift = before
                .iter()
                .zip(&centroids)
                .map(|(a, b)| a.manhattan(*b))
                .collect();
        }
        let mut clustering = Clustering {
            centroids,
            assignment,
        };
        if let Some(cap) = self.cap {
            rebalance(points, &mut clustering, cap);
            recentre(points, &clustering.assignment, &mut clustering.centroids);
        }
        clustering
    }
}

/// The result of a clustering run: per-point assignment plus centroids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Clustering {
    centroids: Vec<Point>,
    assignment: Vec<u32>,
}

impl Clustering {
    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.centroids.len()
    }

    /// Centroid of cluster `c`.
    pub fn centroid(&self, c: usize) -> Point {
        self.centroids[c]
    }

    /// All centroids.
    pub fn centroids(&self) -> &[Point] {
        &self.centroids
    }

    /// Cluster index of point `i`.
    pub fn cluster_of(&self, i: usize) -> usize {
        self.assignment[i] as usize
    }

    /// The raw assignment vector.
    pub fn assignment(&self) -> &[u32] {
        &self.assignment
    }

    /// Point indices belonging to each cluster.
    pub fn members(&self) -> Vec<Vec<u32>> {
        let mut m = vec![Vec::new(); self.k()];
        for (i, &c) in self.assignment.iter().enumerate() {
            m[c as usize].push(i as u32);
        }
        m
    }

    /// Cluster cardinalities.
    pub fn sizes(&self) -> Vec<usize> {
        let mut s = vec![0usize; self.k()];
        for &c in &self.assignment {
            s[c as usize] += 1;
        }
        s
    }

    /// Total intra-cluster wirelength: Σ L1(point, its centroid). This is
    /// the quantity the paper's high-level clustering approximately
    /// minimises.
    pub fn intra_wirelength(&self, points: &[Point]) -> i64 {
        self.assignment
            .iter()
            .enumerate()
            .map(|(i, &c)| points[i].manhattan(self.centroids[c as usize]))
            .sum()
    }
}

/// k-means++ seeding. For huge inputs the D²-weighted scan is O(n·k) —
/// quadratic once k grows with n — so past [`SEED_SAMPLE_LIMIT`] the seeds
/// are drawn from a deterministic stride subsample. Seeds only steer the
/// Lloyd iterations, which still see every point, so quality is unaffected;
/// determinism is preserved because the stride depends only on `n`.
fn kmeanspp_seed(points: &[Point], k: usize, rng: &mut SmallRng) -> Vec<Point> {
    if points.len() > SEED_SAMPLE_LIMIT {
        let stride = points.len().div_ceil(SEED_SAMPLE_LIMIT);
        let sample: Vec<Point> = points.iter().copied().step_by(stride).collect();
        if sample.len() >= k {
            return kmeanspp_seed_dense(&sample, k, rng);
        }
    }
    kmeanspp_seed_dense(points, k, rng)
}

fn kmeanspp_seed_dense(points: &[Point], k: usize, rng: &mut SmallRng) -> Vec<Point> {
    let first = points[rng.random_range(0..points.len())];
    let mut centroids = vec![first];
    let mut d2: Vec<f64> = points
        .iter()
        .map(|p| {
            let d = p.manhattan(first) as f64;
            d * d
        })
        .collect();
    while centroids.len() < k {
        let total: f64 = d2.iter().sum();
        let next = if total <= 0.0 {
            // All points coincide with existing centroids; any point works.
            points[rng.random_range(0..points.len())]
        } else {
            let mut target = rng.random_range(0.0..total);
            let mut chosen = points.len() - 1;
            for (i, &w) in d2.iter().enumerate() {
                if target < w {
                    chosen = i;
                    break;
                }
                target -= w;
            }
            points[chosen]
        };
        centroids.push(next);
        for (i, p) in points.iter().enumerate() {
            let d = p.manhattan(next) as f64;
            d2[i] = d2[i].min(d * d);
        }
    }
    centroids
}

/// Hamerly bounds for one point, in the same integer L1 units as the
/// coordinates: `upper ≥ d(p, c_a)` for the assigned centroid `a`, and
/// `lower ≤ d(p, c_j)` for every other centroid `j`.
#[derive(Debug, Clone, Copy)]
struct Bound {
    upper: i64,
    lower: i64,
}

impl Bound {
    /// Before the first pass nothing is known: every point is measured
    /// against centroid 0 (its initial assignment) and, unless that alone
    /// proves it nearest, rescanned.
    const UNKNOWN: Bound = Bound {
        upper: i64::MAX,
        lower: 0,
    };
}

/// One bounded assignment pass over fixed centroids: everything a point
/// needs to decide whether its assigned centroid is still provably its
/// unique nearest one, and the query that rescans it when not.
struct AssignPass<'a> {
    centroids: &'a [Point],
    /// Present from [`GRID_MIN_K`] centroids on; rescans then walk it
    /// instead of scanning every centroid.
    grid: Option<CentroidGrid>,
    /// `drift[j]`: how far centroid `j` moved in the last `recentre`.
    drift: Vec<i64>,
    /// The centroid that drifted most, its drift, and the largest drift
    /// of any other centroid: the most any point's `lower` can shrink.
    top_drift: (usize, i64, i64),
    /// `⌈sep_j / 2⌉`, where `sep_j` is the distance from centroid `j` to
    /// its nearest other centroid. A point with `d(p, c_j) < ⌈sep_j / 2⌉`,
    /// that is `2·d(p, c_j) < sep_j`, is strictly closer to `c_j` than to
    /// any other centroid, by the triangle inequality.
    half_sep: Vec<i64>,
}

impl<'a> AssignPass<'a> {
    /// Prepares a pass over `centroids`, which moved by `drift` since the
    /// previous pass (all zeros before the first).
    fn new(centroids: &'a [Point], drift: Vec<i64>, n_points: usize) -> Self {
        let grid = (centroids.len() >= GRID_MIN_K && n_points >= 64)
            .then(|| CentroidGrid::build(centroids));
        let mut top_drift = (0, 0, 0);
        for (j, &d) in drift.iter().enumerate() {
            if d > top_drift.1 {
                top_drift = (j, d, top_drift.1);
            } else if d > top_drift.2 {
                top_drift.2 = d;
            }
        }
        // Every pair once: at most 55k distances at k = 334, small beside
        // the pass over the points.
        let mut sep = vec![i64::MAX; centroids.len()];
        for (i, &a) in centroids.iter().enumerate() {
            for (j, &b) in centroids.iter().enumerate().skip(i + 1) {
                let d = a.manhattan(b);
                sep[i] = sep[i].min(d);
                sep[j] = sep[j].min(d);
            }
        }
        AssignPass {
            centroids,
            grid,
            drift,
            top_drift,
            half_sep: sep.into_iter().map(|s| s / 2 + s % 2).collect(),
        }
    }

    /// Reassigns every point to its nearest centroid (L1, lowest index
    /// wins ties) and returns whether any assignment changed. From
    /// [`PAR_ASSIGN_MIN`] points on, contiguous chunks run in parallel;
    /// points are independent, so the result is the same at any thread
    /// count.
    fn assign(&self, points: &[Point], assignment: &mut [u32], bounds: &mut [Bound]) -> bool {
        if points.len() < PAR_ASSIGN_MIN {
            return self.assign_chunk(points, assignment, bounds);
        }
        let chunk = points.len().div_ceil(rayon::current_num_threads());
        let mut parts: Vec<_> = points
            .chunks(chunk)
            .zip(assignment.chunks_mut(chunk))
            .zip(bounds.chunks_mut(chunk))
            .map(|((pts, asn), bnd)| (pts, asn, bnd, false))
            .collect();
        parts.par_iter_mut().for_each(|(pts, asn, bnd, changed)| {
            *changed = self.assign_chunk(pts, asn, bnd);
        });
        parts.iter().any(|part| part.3)
    }

    fn assign_chunk(&self, points: &[Point], assignment: &mut [u32], bounds: &mut [Bound]) -> bool {
        let (top, top_d, second_d) = self.top_drift;
        let mut changed = false;
        for ((p, asn), b) in points.iter().zip(assignment).zip(bounds) {
            let a = *asn as usize;
            let mut upper = b.upper + self.drift[a];
            let mut lower = b.lower - if a == top { second_d } else { top_d };
            // Both tests are strict, so a skipped point has a unique
            // nearest centroid and ties always reach the rescan below.
            let skip_below = lower.max(self.half_sep[a]);
            if upper >= skip_below {
                upper = p.manhattan(self.centroids[a]);
                if upper >= skip_below {
                    let (best, best_d, second) = self.nearest(*p);
                    if best != *asn {
                        *asn = best;
                        changed = true;
                    }
                    upper = best_d;
                    lower = second;
                }
            }
            *b = Bound { upper, lower };
        }
        changed
    }

    /// `(nearest, its distance, a lower bound on the second-nearest
    /// distance)`, the nearest chosen by `(distance, index)`.
    fn nearest(&self, p: Point) -> (u32, i64, i64) {
        match &self.grid {
            Some(grid) => grid.nearest(p, self.centroids),
            None => nearest_naive(p, self.centroids),
        }
    }
}

/// The naive O(k) scan: the nearest centroid by `(distance, index)`, its
/// distance, and the exact second-nearest distance (`i64::MAX` when
/// `k = 1`).
fn nearest_naive(p: Point, centroids: &[Point]) -> (u32, i64, i64) {
    let (mut best, mut best_d, mut second) = (0u32, i64::MAX, i64::MAX);
    for (c, ctr) in centroids.iter().enumerate() {
        let d = p.manhattan(*ctr);
        if d < best_d {
            second = best_d;
            best_d = d;
            best = c as u32;
        } else if d < second {
            second = d;
        }
    }
    (best, best_d, second)
}

/// A uniform grid over the centroid bounding box for exact nearest-centroid
/// queries in roughly O(1) per point (vs the naive O(k) scan).
///
/// The query expands square rings of cells outward from the query point's
/// cell. Any centroid in a ring `r ≥ 1` cell is at L1 distance at least
/// `(r-1)·cell` from the query point, so the search stops as soon as that
/// lower bound strictly exceeds the best distance found — equality must
/// keep searching because a tied centroid with a *lower index* would win
/// under the naive scan's tie-break, and bit-identity with that scan is
/// load-bearing for reproducibility.
///
/// The same ring bound is what makes the grid worth keeping under
/// Hamerly's bounds: a rescan at k = 334 (the 1M-sink high-level run)
/// touches a few cells instead of every centroid, and leaves the
/// second-nearest lower bound for free.
struct CentroidGrid {
    x0: i64,
    y0: i64,
    cell: i64,
    gw: usize,
    gh: usize,
    /// CSR offsets into `idx`, one slot per grid cell (row-major).
    off: Vec<u32>,
    /// Centroid indices, grouped by cell, ascending within each cell.
    idx: Vec<u32>,
}

impl CentroidGrid {
    fn build(centroids: &[Point]) -> Self {
        let (mut min_x, mut min_y) = (i64::MAX, i64::MAX);
        let (mut max_x, mut max_y) = (i64::MIN, i64::MIN);
        for c in centroids {
            min_x = min_x.min(c.x);
            min_y = min_y.min(c.y);
            max_x = max_x.max(c.x);
            max_y = max_y.max(c.y);
        }
        // ~1 centroid per cell on average: sqrt(k) cells per side.
        let side_cells = ((centroids.len() as f64).sqrt().ceil() as i64).max(1);
        let span = (max_x - min_x).max(max_y - min_y).max(1);
        let cell = (span / side_cells).max(1);
        let gw = ((max_x - min_x) / cell) as usize + 1;
        let gh = ((max_y - min_y) / cell) as usize + 1;
        // Counting sort by cell keeps indices ascending within each cell.
        let cell_of = |p: Point| -> usize {
            let cx = ((p.x - min_x) / cell) as usize;
            let cy = ((p.y - min_y) / cell) as usize;
            cy * gw + cx
        };
        let mut off = vec![0u32; gw * gh + 1];
        for c in centroids {
            off[cell_of(*c) + 1] += 1;
        }
        for i in 1..off.len() {
            off[i] += off[i - 1];
        }
        let mut idx = vec![0u32; centroids.len()];
        let mut cursor = off.clone();
        for (i, c) in centroids.iter().enumerate() {
            let slot = cell_of(*c);
            idx[cursor[slot] as usize] = i as u32;
            cursor[slot] += 1;
        }
        CentroidGrid {
            x0: min_x,
            y0: min_y,
            cell,
            gw,
            gh,
            off,
            idx,
        }
    }

    /// Exact nearest centroid to `p` — minimum by `(distance, index)`, the
    /// same total order the naive scan realises — with its distance and a
    /// lower bound on the second-nearest distance: the smaller of the
    /// second-best distance scanned and `(r-1)·cell`, where `r` is the
    /// first ring left unscanned.
    fn nearest(&self, p: Point, centroids: &[Point]) -> (u32, i64, i64) {
        let cx = (((p.x - self.x0) / self.cell).max(0) as usize).min(self.gw - 1);
        let cy = (((p.y - self.y0) / self.cell).max(0) as usize).min(self.gh - 1);
        let mut best = u32::MAX;
        let mut best_d = i64::MAX;
        let mut second = i64::MAX;
        let max_ring = cx.max(self.gw - 1 - cx).max(cy).max(self.gh - 1 - cy);
        for r in 0..=max_ring {
            let unscanned = (r as i64 - 1) * self.cell;
            if best != u32::MAX && unscanned > best_d {
                return (best, best_d, second.min(unscanned));
            }
            let lo_x = cx.saturating_sub(r);
            let hi_x = (cx + r).min(self.gw - 1);
            let lo_y = cy.saturating_sub(r);
            let hi_y = (cy + r).min(self.gh - 1);
            let mut scan_cell = |gx: usize, gy: usize| {
                let slot = gy * self.gw + gx;
                for &c in &self.idx[self.off[slot] as usize..self.off[slot + 1] as usize] {
                    let d = p.manhattan(centroids[c as usize]);
                    if d < best_d || (d == best_d && c < best) {
                        second = best_d;
                        best_d = d;
                        best = c;
                    } else if d < second {
                        second = d;
                    }
                }
            };
            for gy in lo_y..=hi_y {
                if r == 0 || gy + r == cy || gy == cy + r {
                    // Top/bottom edges of the ring: full row span. A row
                    // clamped at the grid border is interior, not an edge:
                    // scanning it whole would revisit inner-ring cells.
                    for gx in lo_x..=hi_x {
                        scan_cell(gx, gy);
                    }
                } else {
                    // Interior rows: only the left/right ring columns, and
                    // only when they actually lie on this ring (not clamped
                    // away at the grid border).
                    if cx >= r {
                        scan_cell(lo_x, gy);
                    }
                    if cx + r < self.gw {
                        scan_cell(hi_x, gy);
                    }
                }
            }
        }
        (best, best_d, second)
    }
}

fn recentre(points: &[Point], assignment: &[u32], centroids: &mut [Point]) {
    let k = centroids.len();
    let mut sx = vec![0i128; k];
    let mut sy = vec![0i128; k];
    let mut n = vec![0i64; k];
    for (i, &c) in assignment.iter().enumerate() {
        sx[c as usize] += points[i].x as i128;
        sy[c as usize] += points[i].y as i128;
        n[c as usize] += 1;
    }
    for c in 0..k {
        if n[c] > 0 {
            centroids[c] = Point::new((sx[c] / n[c] as i128) as i64, (sy[c] / n[c] as i128) as i64);
        }
        // Empty clusters keep their previous centroid; the next assignment
        // pass may repopulate them.
    }
}

/// Moves overflow points (farthest from their centroid first) to the
/// nearest cluster with spare capacity.
fn rebalance(points: &[Point], clustering: &mut Clustering, cap: usize) {
    let k = clustering.k();
    let mut sizes = clustering.sizes();
    // Collect overflow points, farthest-first so the cheapest stay.
    let members = clustering.members();
    let mut overflow: Vec<u32> = Vec::new();
    for (c, mut mem) in members.into_iter().enumerate() {
        if mem.len() > cap {
            let ctr = clustering.centroids[c];
            mem.sort_by_key(|&i| std::cmp::Reverse(points[i as usize].manhattan(ctr)));
            let excess = mem.len() - cap;
            overflow.extend(mem.into_iter().take(excess));
            sizes[c] = cap;
        }
    }
    for i in overflow {
        let p = points[i as usize];
        let mut best: Option<(i64, usize)> = None;
        for (c, &size) in sizes.iter().enumerate().take(k) {
            if size < cap {
                let d = p.manhattan(clustering.centroids[c]);
                if best.is_none_or(|(bd, _)| d < bd) {
                    best = Some((d, c));
                }
            }
        }
        let (_, c) = best.expect("feasibility checked in run()");
        clustering.assignment[i as usize] = c as u32;
        sizes[c] += 1;
    }
}

/// A low-level cluster inside the dual hierarchy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LowCluster {
    /// Index of the parent high-level cluster.
    pub high: u32,
    /// Centroid of this low-level cluster (a DME leaf terminal).
    pub centroid: Point,
    /// Global sink indices belonging to this cluster.
    pub sinks: Vec<u32>,
}

/// The dual-level clustering of §III-B: high-level clusters of size ≤ `Hc`,
/// each subdivided into low-level clusters of size ≤ `Lc`.
#[derive(Debug, Clone)]
pub struct DualHierarchy {
    /// High-level clustering over all sinks.
    pub high: Clustering,
    low: Vec<LowCluster>,
}

impl DualHierarchy {
    /// Builds the hierarchy. `hc`/`lc` are **maximum cluster sizes** (the
    /// paper uses 3 000 and 30); cluster counts are `ceil(n/size)`.
    ///
    /// # Panics
    ///
    /// Panics if `sinks` is empty or `hc`/`lc` are zero.
    pub fn build(sinks: &[Point], hc: usize, lc: usize, seed: u64) -> Self {
        assert!(!sinks.is_empty(), "cannot cluster zero sinks");
        assert!(hc > 0 && lc > 0, "cluster size bounds must be positive");
        let k_high = sinks.len().div_ceil(hc);
        let high = KMeans::new(k_high).with_seed(seed).with_cap(hc).run(sinks);
        // The per-high-cluster low-level runs are independent (each gets a
        // seed derived only from `h`), so fan them out. The collect is
        // order-preserving and the groups are flattened in high-cluster
        // order, making the result bit-identical to the sequential loop at
        // any thread count.
        let indexed: Vec<(usize, Vec<u32>)> = high.members().into_iter().enumerate().collect();
        let groups: Vec<Vec<LowCluster>> = indexed
            .par_iter()
            .map(|(h, members)| {
                if members.is_empty() {
                    return Vec::new();
                }
                let pts: Vec<Point> = members.iter().map(|&i| sinks[i as usize]).collect();
                let k_low = pts.len().div_ceil(lc);
                let lowc = KMeans::new(k_low)
                    .with_seed(seed.wrapping_add(*h as u64 + 1))
                    .with_cap(lc)
                    .run(&pts);
                let mut out = Vec::new();
                for (c, local) in lowc.members().into_iter().enumerate() {
                    if local.is_empty() {
                        continue;
                    }
                    out.push(LowCluster {
                        high: *h as u32,
                        centroid: lowc.centroid(c),
                        sinks: local.iter().map(|&j| members[j as usize]).collect(),
                    });
                }
                out
            })
            .collect();
        let low: Vec<LowCluster> = groups.into_iter().flatten().collect();
        DualHierarchy { high, low }
    }

    /// Iterates over the low-level clusters (DME leaf terminals).
    pub fn low_clusters(&self) -> impl ExactSizeIterator<Item = &LowCluster> {
        self.low.iter()
    }

    /// Low-level clusters grouped by their parent high-level cluster.
    pub fn low_by_high(&self) -> Vec<Vec<&LowCluster>> {
        let mut groups = vec![Vec::new(); self.high.k()];
        for lc in &self.low {
            groups[lc.high as usize].push(lc);
        }
        groups
    }

    /// Total number of sinks covered (for invariant checks).
    pub fn sink_count(&self) -> usize {
        self.low.iter().map(|l| l.sinks.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid(n: usize, pitch: i64) -> Vec<Point> {
        let side = (n as f64).sqrt().ceil() as usize;
        (0..n)
            .map(|i| Point::new((i % side) as i64 * pitch, (i / side) as i64 * pitch))
            .collect()
    }

    #[test]
    fn kmeans_is_deterministic() {
        let pts = grid(300, 500);
        let a = KMeans::new(7).with_seed(11).run(&pts);
        let b = KMeans::new(7).with_seed(11).run(&pts);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_may_differ_but_cover_all() {
        let pts = grid(100, 500);
        let c = KMeans::new(5).with_seed(3).run(&pts);
        assert_eq!(c.assignment().len(), 100);
        assert_eq!(c.sizes().iter().sum::<usize>(), 100);
    }

    #[test]
    fn cap_is_respected() {
        let pts = grid(100, 10);
        let c = KMeans::new(10).with_seed(1).with_cap(12).run(&pts);
        assert!(c.sizes().iter().all(|&s| s <= 12), "sizes {:?}", c.sizes());
    }

    #[test]
    #[should_panic(expected = "infeasible")]
    fn infeasible_cap_panics() {
        let pts = grid(100, 10);
        let _ = KMeans::new(2).with_cap(10).run(&pts);
    }

    #[test]
    fn k_larger_than_n_clamps() {
        let pts = grid(3, 10);
        let c = KMeans::new(10).run(&pts);
        assert!(c.k() <= 3);
    }

    #[test]
    fn clustering_reduces_wirelength_vs_single_cluster() {
        let pts = grid(400, 1000);
        let one = KMeans::new(1).run(&pts);
        let many = KMeans::new(16).with_seed(5).run(&pts);
        assert!(many.intra_wirelength(&pts) < one.intra_wirelength(&pts) / 2);
    }

    #[test]
    fn dual_hierarchy_counts_match_paper_formula() {
        // 4380 sinks (C1 jpeg): Hc=3000 -> 2 high clusters; the low count is
        // near ceil(4380/30)=146 (caps can split a few extra).
        let pts = grid(4380, 700);
        let h = DualHierarchy::build(&pts, 3000, 30, 42);
        assert_eq!(h.high.k(), 2);
        let lows = h.low_clusters().len();
        assert!(
            (146..=165).contains(&lows),
            "expected ~146 low clusters, got {lows}"
        );
        assert_eq!(h.sink_count(), 4380);
    }

    #[test]
    fn low_clusters_partition_sinks() {
        let pts = grid(500, 333);
        let h = DualHierarchy::build(&pts, 120, 16, 9);
        let mut seen = vec![false; pts.len()];
        for lc in h.low_clusters() {
            assert!(lc.sinks.len() <= 16);
            for &s in &lc.sinks {
                assert!(!seen[s as usize], "sink {s} in two low clusters");
                seen[s as usize] = true;
            }
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn low_by_high_groups_consistently() {
        let pts = grid(200, 100);
        let h = DualHierarchy::build(&pts, 80, 10, 1);
        let groups = h.low_by_high();
        assert_eq!(groups.len(), h.high.k());
        let total: usize = groups
            .iter()
            .flat_map(|g| g.iter())
            .map(|l| l.sinks.len())
            .sum();
        assert_eq!(total, 200);
    }

    #[test]
    fn single_point_everything() {
        let pts = vec![Point::new(5, 5)];
        let h = DualHierarchy::build(&pts, 3000, 30, 0);
        assert_eq!(h.low_clusters().len(), 1);
        let lc = h.low_clusters().next().unwrap();
        assert_eq!(lc.centroid, Point::new(5, 5));
    }

    #[test]
    fn coincident_points_do_not_crash() {
        let pts = vec![Point::new(7, 7); 50];
        let c = KMeans::new(4).with_seed(2).run(&pts);
        assert_eq!(c.assignment().len(), 50);
    }

    /// xorshift64*: the deterministic stream behind the seeded cases.
    struct XorShift(u64);

    impl XorShift {
        /// The next value, reduced into `0..n`.
        fn below(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) % n
        }

        fn coord(&mut self, span: i64) -> i64 {
            self.below(span as u64) as i64
        }
    }

    /// Pseudo-random (deterministic) points that do not sit on a lattice,
    /// so distance ties and cell-boundary cases actually occur.
    fn scatter(n: usize, seed: u64) -> Vec<Point> {
        let mut rng = XorShift(seed | 1);
        (0..n)
            .map(|_| Point::new(rng.coord(100_000), rng.coord(100_000)))
            .collect()
    }

    /// The plain Lloyd loop every point scans every centroid in, on every
    /// iteration: the oracle [`KMeans::run`] must reproduce exactly.
    fn lloyd_oracle(km: &KMeans, points: &[Point]) -> Clustering {
        let k = km.k.min(points.len());
        let mut rng = SmallRng::seed_from_u64(km.seed);
        let mut centroids = kmeanspp_seed(points, k, &mut rng);
        let mut assignment = vec![0u32; points.len()];
        for _ in 0..km.max_iter {
            let changed = assign_naive(points, &centroids, &mut assignment);
            recentre(points, &assignment, &mut centroids);
            if !changed {
                break;
            }
        }
        let mut clustering = Clustering {
            centroids,
            assignment,
        };
        if let Some(cap) = km.cap {
            rebalance(points, &mut clustering, cap);
            recentre(points, &clustering.assignment, &mut clustering.centroids);
        }
        clustering
    }

    fn assign_naive(points: &[Point], centroids: &[Point], assignment: &mut [u32]) -> bool {
        let mut changed = false;
        for (i, p) in points.iter().enumerate() {
            let mut best = 0u32;
            let mut best_d = i64::MAX;
            for (c, ctr) in centroids.iter().enumerate() {
                let d = p.manhattan(*ctr);
                if d < best_d {
                    best_d = d;
                    best = c as u32;
                }
            }
            if assignment[i] != best {
                assignment[i] = best;
                changed = true;
            }
        }
        changed
    }

    /// Brute force: `(nearest by (distance, index), its distance, the
    /// exact second-nearest distance)`.
    fn brute_nearest(p: Point, centroids: &[Point]) -> (u32, i64, i64) {
        let (best, best_d) = centroids
            .iter()
            .enumerate()
            .map(|(c, ctr)| (c as u32, p.manhattan(*ctr)))
            .min_by_key(|&(c, d)| (d, c))
            .expect("at least one centroid");
        let second = centroids
            .iter()
            .enumerate()
            .filter(|&(c, _)| c as u32 != best)
            .map(|(_, ctr)| p.manhattan(*ctr))
            .min()
            .unwrap_or(i64::MAX);
        (best, best_d, second)
    }

    /// The rescan query (grid walk and naive scan) against brute force:
    /// the same nearest centroid and distance, a lower bound that is at
    /// most the true second-nearest distance.
    fn check_rescans(pts: &[Point], centroids: &[Point]) {
        let grid = CentroidGrid::build(centroids);
        for &p in pts {
            let (best, best_d, second) = brute_nearest(p, centroids);
            let (g, gd, glower) = grid.nearest(p, centroids);
            assert_eq!((g, gd), (best, best_d), "grid vs brute force at {p:?}");
            assert!(glower <= second, "grid lower {glower} > second {second}");
            assert_eq!(nearest_naive(p, centroids), (best, best_d, second));
        }
    }

    #[test]
    fn grid_assign_matches_naive_exactly() {
        let pts = scatter(5_000, 42);
        for k in [16usize, 40, 128] {
            let centroids: Vec<Point> = pts.iter().copied().step_by(pts.len() / k).collect();
            assert!(
                centroids.len() >= GRID_MIN_K,
                "gate must take the grid path"
            );
            let pass = AssignPass::new(&centroids, vec![0; centroids.len()], pts.len());
            assert!(pass.grid.is_some(), "rescans must walk the grid");
            check_rescans(&pts, &centroids);
            let mut bounded = vec![0u32; pts.len()];
            let mut naive = vec![0u32; pts.len()];
            pass.assign(&pts, &mut bounded, &mut vec![Bound::UNKNOWN; pts.len()]);
            assign_naive(&pts, &centroids, &mut naive);
            assert_eq!(bounded, naive, "bounded vs naive diverged at k={k}");
        }
    }

    #[test]
    fn grid_assign_breaks_ties_by_lowest_index() {
        // Coincident centroids: every point is tied between all of them
        // and must pick 0, exactly like the naive scan, with a lower bound
        // no greater than its (equal) distance to the others.
        let pts = scatter(500, 7);
        let centroids = vec![Point::new(50_000, 50_000); GRID_MIN_K];
        check_rescans(&pts, &centroids);
        // Start every point on the last centroid: all must move to 0, and
        // a tie must leave `lower` no greater than `upper`, so the next
        // pass rescans instead of skipping.
        let pass = AssignPass::new(&centroids, vec![0; GRID_MIN_K], pts.len());
        let mut asn = vec![GRID_MIN_K as u32 - 1; pts.len()];
        let mut bounds = vec![Bound::UNKNOWN; pts.len()];
        assert!(pass.assign(&pts, &mut asn, &mut bounds));
        assert!(asn.iter().all(|&c| c == 0));
        assert!(bounds.iter().all(|b| b.lower <= b.upper));
    }

    #[test]
    fn grid_assign_handles_points_outside_centroid_bbox() {
        let mut pts = scatter(200, 3);
        // Far outside the centroid bounding box on every side.
        pts.push(Point::new(-5_000_000, -5_000_000));
        pts.push(Point::new(9_000_000, 123));
        let centroids: Vec<Point> = pts.iter().copied().take(20).collect();
        check_rescans(&pts, &centroids);
        let pass = AssignPass::new(&centroids, vec![0; centroids.len()], pts.len());
        let mut bounded = vec![0u32; pts.len()];
        let mut naive = vec![0u32; pts.len()];
        pass.assign(&pts, &mut bounded, &mut vec![Bound::UNKNOWN; pts.len()]);
        assign_naive(&pts, &centroids, &mut naive);
        assert_eq!(bounded, naive);
    }

    /// One seeded oracle case: up to 800 points in one of four shapes,
    /// `k` from 1 to 400, with or without a feasible size cap.
    fn oracle_case(rng: &mut XorShift) -> (Vec<Point>, KMeans) {
        let n = 1 + rng.below(800) as usize;
        let pts: Vec<Point> = match rng.below(4) {
            // Scatter over a random span; small spans force ties.
            0 => {
                let span = 1 + rng.coord(100_000);
                let shift = rng.coord(2) * span / 2;
                (0..n)
                    .map(|_| Point::new(rng.coord(span) - shift, rng.coord(span) - shift))
                    .collect()
            }
            // A lattice: equidistant neighbours everywhere.
            1 => grid(n, 1 + rng.coord(1_000)),
            // 8×8 distinct positions, so most points are duplicates.
            2 => (0..n)
                .map(|_| Point::new(rng.coord(8) * 1_000, rng.coord(8) * 1_000))
                .collect(),
            // Dense banks over a sparse background.
            _ => {
                let banks: Vec<Point> = (0..1 + rng.below(12))
                    .map(|_| Point::new(rng.coord(200_000), rng.coord(200_000)))
                    .collect();
                (0..n)
                    .map(|_| {
                        if rng.below(5) == 0 {
                            Point::new(rng.coord(200_000), rng.coord(200_000))
                        } else {
                            let b = banks[rng.below(banks.len() as u64) as usize];
                            Point::new(b.x + rng.coord(2_000), b.y + rng.coord(2_000))
                        }
                    })
                    .collect()
            }
        };
        let k = 1 + if rng.below(2) == 0 {
            rng.below(400)
        } else {
            rng.below(n as u64 / 8 + 1)
        } as usize;
        let mut km = KMeans::new(k).with_seed(rng.below(1 << 32));
        if rng.below(2) == 0 {
            km = km.with_cap(n.div_ceil(k) + rng.below(4) as usize);
        }
        (pts, km)
    }

    #[test]
    fn bounded_lloyd_equals_plain_loop_oracle() {
        let mut rng = XorShift(0x5DEE_CE66_D1CE_5EED);
        let (mut grid_cases, mut naive_cases) = (0, 0);
        for case in 0..500 {
            let (pts, km) = oracle_case(&mut rng);
            assert_eq!(
                km.run(&pts),
                lloyd_oracle(&km, &pts),
                "case {case}: {km:?} over {} points",
                pts.len()
            );
            if km.k.min(pts.len()) >= GRID_MIN_K && pts.len() >= 64 {
                grid_cases += 1;
            } else {
                naive_cases += 1;
            }
        }
        assert!(
            grid_cases >= 200 && naive_cases >= 50,
            "{grid_cases} / {naive_cases}"
        );
    }

    #[test]
    fn chunked_assignment_equals_plain_loop_oracle() {
        // Past PAR_ASSIGN_MIN points every pass runs in per-thread chunks.
        let pts = scatter(PAR_ASSIGN_MIN + 4_321, 5);
        for km in [
            KMeans::new(3).with_seed(1).with_max_iter(6),
            KMeans::new(40)
                .with_seed(2)
                .with_cap(2_000)
                .with_max_iter(6),
        ] {
            assert_eq!(km.run(&pts), lloyd_oracle(&km, &pts), "{km:?}");
        }
    }

    #[test]
    fn subsampled_seeding_is_deterministic_and_covers() {
        let pts = scatter(SEED_SAMPLE_LIMIT + 5_000, 11);
        let a = KMeans::new(4).with_seed(9).with_max_iter(3).run(&pts);
        let b = KMeans::new(4).with_seed(9).with_max_iter(3).run(&pts);
        assert_eq!(a, b);
        assert_eq!(a.sizes().iter().sum::<usize>(), pts.len());
    }

    #[test]
    fn dual_hierarchy_is_thread_count_invariant_by_construction() {
        // The parallel low-level fan-out must be order-preserving: the
        // result may not depend on how many threads the shim uses.
        let pts = grid(2_000, 311);
        let base = DualHierarchy::build(&pts, 400, 25, 5);
        let again = DualHierarchy::build(&pts, 400, 25, 5);
        assert_eq!(base.high, again.high);
        assert_eq!(
            base.low_clusters().collect::<Vec<_>>(),
            again.low_clusters().collect::<Vec<_>>()
        );
    }
}

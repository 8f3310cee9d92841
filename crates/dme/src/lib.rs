//! Deferred-merge embedding (DME) clock routing.
//!
//! DME builds a zero-skew (under Elmore delay) routed clock tree in two
//! passes over a given binary *topology*:
//!
//! 1. **bottom-up**: each subtree is summarised by a *merging segment* (a
//!    Manhattan arc, represented as a [`dscts_geom::TiltedRect`]) — the locus
//!    of tapping points that preserve zero skew — together with the tapping
//!    delay and subtree capacitance. Merging two children splits the
//!    distance between their segments into edge lengths `ea + eb = d` that
//!    equalise Elmore delay, resorting to *wire snaking* (detour wire,
//!    `ea = 0, eb > d`) when one subtree is too slow to balance within `d`
//!    (Boese–Kahng / Edahiro, refs. \[13\], \[14\] of the paper);
//! 2. **top-down**: starting from the point of the root merging segment
//!    nearest the clock source, each child embeds at the point of its
//!    merging segment nearest its parent.
//!
//! The crate provides the [`Topology`] builders (nearest-neighbour
//! *matching*, the classic approach the paper compares against, plus a
//! center-of-mass balanced bisection), the [`ZstDme`] router, and the
//! [`RoutedTree`] result with its own Elmore evaluation used by tests and
//! by the synthesis core.
//!
//! [`Topology::matching`] finds each level's greedy pairs by mutual
//! nearest neighbours instead of sorting every pair: the pairs and the
//! node order are the same as the sorted greedy sweep's, and a level of
//! `m` anchors needs O(m) memory instead of O(m²).
//!
//! # Example
//!
//! ```
//! use dscts_dme::{Terminal, Topology, ZstDme};
//! use dscts_geom::Point;
//! use dscts_tech::{Side, Technology};
//!
//! let tech = Technology::asap7();
//! let terminals: Vec<Terminal> = (0..8)
//!     .map(|i| Terminal::new(Point::new(i * 10_000, (i % 3) * 8_000), 2.0))
//!     .collect();
//! let topo = Topology::matching(&terminals);
//! let tree = ZstDme::new(tech.rc(Side::Front)).run(&topo, &terminals, Point::new(0, -20_000));
//! // Zero skew by construction (within integer-rounding noise):
//! let arrivals = tree.sink_arrivals(tech.rc(Side::Front));
//! let max = arrivals.iter().cloned().fold(f64::MIN, f64::max);
//! let min = arrivals.iter().cloned().fold(f64::MAX, f64::min);
//! assert!(max - min < 0.05, "skew {} ps", max - min);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod routed;
mod topology;
mod zst;

pub use routed::{RoutedNode, RoutedTree};
pub use topology::{Topology, TopologyNode};
pub use zst::{Terminal, ZstDme};

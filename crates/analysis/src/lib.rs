//! # treegion-analysis
//!
//! CFG analyses for the treegion scheduling reproduction: cached
//! predecessor/successor views and traversal orders ([`Cfg`]), dominator
//! trees ([`DomTree`]), per-block register liveness ([`Liveness`]), and
//! back-edge/natural-loop detection ([`Loops`]).
//!
//! Region formation uses [`Cfg::is_merge_point`] (treegion boundaries are
//! merge points), the scheduler uses [`Liveness`] for renaming decisions
//! and [`DomTree`] for dominator-parallelism checks, and the workload
//! generators use [`Loops`] to validate generated control flow.
//!
//! ## Example
//!
//! ```
//! use treegion_analysis::{Cfg, DomTree, Liveness};
//! use treegion_ir::{FunctionBuilder, Op};
//!
//! let mut b = FunctionBuilder::new("f");
//! let (bb0, bb1) = (b.block(), b.block());
//! let x = b.gpr();
//! b.push(bb0, Op::movi(x, 1));
//! b.jump(bb0, bb1, 1.0);
//! b.ret(bb1, Some(x));
//! let f = b.finish();
//!
//! let cfg = Cfg::new(&f);
//! let dom = DomTree::new(&cfg);
//! let live = Liveness::new(&f, &cfg);
//! assert!(dom.dominates(bb0, bb1));
//! assert!(live.live_out(bb0).contains(&x));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod cfg;
mod dom;
mod liveness;
mod loops;

pub use cfg::Cfg;
pub use dom::DomTree;
pub use liveness::{terminator_uses, LiveSet, Liveness};
pub use loops::{BackEdge, Loops, NaturalLoop};

//! Unified region formation: the [`RegionFormer`] trait and its
//! [`FormOutcome`].
//!
//! The paper's Fig. 2/3 flow begins with region formation, but the repo
//! historically exposed five free functions with three different return
//! shapes (`RegionSet`, `SuperblockResult`, `TailDupResult`). Every
//! driver — eval harness, CLI, examples — then re-implemented the
//! same dispatch-and-normalise dance. This module collapses the trio into
//! one [`FormOutcome`] and puts every former behind one trait so the
//! [`crate::Pipeline`] driver (and anything else) can treat formation as a
//! single pluggable stage.

use crate::form::{
    form_basic_blocks, form_slrs, form_superblocks, form_treegions, form_treegions_td,
    TailDupLimits,
};
use crate::region::RegionSet;
use treegion_ir::{BlockId, Function};

/// The result of any region formation: the (possibly transformed)
/// function, its region partition, the per-block origin map, and enough
/// of the original function's shape to compute duplication statistics.
///
/// Replaces the former ad-hoc `RegionSet` / `SuperblockResult` /
/// `TailDupResult` trio: non-transforming formers (basic blocks, SLRs,
/// plain treegions) return a clone of the input with an identity origin
/// map, which lowers identically to the historical `origin = None` path.
#[derive(Clone, Debug)]
pub struct FormOutcome {
    /// The (possibly tail-duplicated) function; duplicates are appended,
    /// original block ids are unchanged.
    pub function: Function,
    /// The region partition of `function`.
    pub regions: RegionSet,
    /// `origin[b]` is the original block that block `b` is a copy of
    /// (identity for original blocks and for non-transforming formers).
    pub origin: Vec<BlockId>,
    /// Op count of the original, untransformed function.
    pub original_ops: usize,
    /// Block count of the original, untransformed function.
    pub original_blocks: usize,
}

impl FormOutcome {
    /// Wraps a partition over an *untransformed* function: clones `f` and
    /// records an identity origin map.
    pub fn unchanged(f: &Function, regions: RegionSet) -> Self {
        FormOutcome {
            function: f.clone(),
            regions,
            origin: f.block_ids().collect(),
            original_ops: f.num_ops(),
            original_blocks: f.num_blocks(),
        }
    }

    /// Static code expansion: ops after formation over original ops.
    pub fn code_expansion(&self) -> f64 {
        self.function.num_ops() as f64 / self.original_ops.max(1) as f64
    }

    /// Number of blocks created by tail duplication.
    pub fn duplicated_blocks(&self) -> usize {
        self.function.num_blocks() - self.original_blocks
    }

    /// `true` if formation transformed the function (tail duplication).
    pub fn is_transformed(&self) -> bool {
        self.duplicated_blocks() > 0 || self.origin.iter().enumerate().any(|(i, b)| b.index() != i)
    }
}

/// A region formation algorithm, as a pluggable pipeline stage.
///
/// Implementors must be [`Sync`]: the [`crate::Pipeline`] driver fans
/// whole functions out across the `treegion_par` worker budget and shares
/// the former between threads.
pub trait RegionFormer: Sync {
    /// Short label for reports and profiles (e.g. `"tree(2.0)"`).
    fn name(&self) -> String;

    /// Forms regions over a copy of `f` (the input is never modified).
    fn form(&self, f: &Function) -> FormOutcome;
}

/// Which region formation to run — the one config enum shared by the
/// pipeline driver, the eval harness, and the CLI.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum RegionConfig {
    /// One region per basic block (the scheduling baseline).
    BasicBlock,
    /// Simple linear regions (Section 3).
    Slr,
    /// Superblocks (traces + tail duplication; Hwu et al.).
    Superblock,
    /// Treegions without tail duplication (Figure 2).
    Treegion,
    /// Treegions with tail duplication under the given limits (Figure 11).
    TreegionTd(TailDupLimits),
}

impl RegionConfig {
    /// Short label for report tables.
    pub fn label(&self) -> String {
        match self {
            RegionConfig::BasicBlock => "bb".into(),
            RegionConfig::Slr => "slr".into(),
            RegionConfig::Superblock => "sb".into(),
            RegionConfig::Treegion => "tree".into(),
            RegionConfig::TreegionTd(l) => format!("tree({:.1})", l.code_expansion),
        }
    }
}

impl RegionFormer for RegionConfig {
    fn name(&self) -> String {
        self.label()
    }

    fn form(&self, f: &Function) -> FormOutcome {
        match self {
            RegionConfig::BasicBlock => FormOutcome::unchanged(f, form_basic_blocks(f)),
            RegionConfig::Slr => FormOutcome::unchanged(f, form_slrs(f)),
            RegionConfig::Treegion => FormOutcome::unchanged(f, form_treegions(f)),
            RegionConfig::Superblock => form_superblocks(f),
            RegionConfig::TreegionTd(limits) => form_treegions_td(f, limits),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::figure1_cfg;

    #[test]
    fn labels_include_expansion_limit() {
        assert_eq!(RegionConfig::BasicBlock.label(), "bb");
        assert_eq!(
            RegionConfig::TreegionTd(TailDupLimits::expansion_3_0()).label(),
            "tree(3.0)"
        );
    }

    #[test]
    fn unchanged_formers_report_identity() {
        let (f, _) = figure1_cfg();
        for cfg in [
            RegionConfig::BasicBlock,
            RegionConfig::Slr,
            RegionConfig::Treegion,
        ] {
            let out = cfg.form(&f);
            assert!(!out.is_transformed(), "{cfg:?}");
            assert_eq!(out.origin.len(), f.num_blocks());
            assert_eq!(out.original_ops, f.num_ops());
            assert!((out.code_expansion() - 1.0).abs() < 1e-12);
            assert!(out.regions.is_partition_of(&out.function), "{cfg:?}");
        }
    }

    #[test]
    fn tail_duplicating_formers_report_expansion() {
        let (f, _) = figure1_cfg();
        let out = RegionConfig::TreegionTd(TailDupLimits::expansion_2_0()).form(&f);
        assert!(out.regions.is_partition_of(&out.function));
        assert_eq!(out.original_blocks, f.num_blocks());
        assert!(out.code_expansion() >= 1.0);
        if out.duplicated_blocks() > 0 {
            assert!(out.is_transformed());
        }
    }
}

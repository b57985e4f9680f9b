//! # treegion-machine
//!
//! Machine models for the reproduction of *"Treegion Scheduling for Wide
//! Issue Processors"* (HPCA 1998).
//!
//! The paper evaluates on statically-scheduled VLIW machines with
//! *universal*, fully-pipelined functional units:
//!
//! * **1U** — single-issue baseline (the speedup denominator),
//! * **4U** — four-issue,
//! * **8U** — eight-issue.
//!
//! All operations have unit latency except loads (2 cycles), floating-point
//! multiply (3 cycles), and floating-point divide (9 cycles). Memory
//! operations are serialized because no aliasing information is available,
//! but — the machines being PlayDoh-style — a store and a dependent memory
//! operation may be scheduled in the same cycle (dependence latency 0).
//!
//! ## Example
//!
//! ```
//! use treegion_machine::MachineModel;
//! use treegion_ir::Opcode;
//!
//! let m4 = MachineModel::model_4u();
//! assert_eq!(m4.issue_width(), 4);
//! assert_eq!(m4.latency(Opcode::Load), 2);
//! assert_eq!(m4.latency(Opcode::FDiv), 9);
//! assert_eq!(m4.latency(Opcode::Add), 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod hazard;

pub use hazard::{HazardAutomaton, OpClass};

use std::fmt;
use std::sync::Arc;
use treegion_ir::{Opcode, RegClass};

/// Per-class architectural register file sizes.
///
/// `None` for a class means the paper's model: unbounded compile-time
/// renaming registers, the default for every preset (schedules stay
/// byte-identical to the register-oblivious pipeline). `Some(k)` caps the
/// number of simultaneously live values of that class at `k`; the list
/// scheduler then tracks live-range pressure, defers issue at the
/// ceiling, and the lowering layer spills GPRs when deferral alone cannot
/// fit the region.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct RegisterFile {
    caps: [Option<u32>; RegClass::ALL.len()],
}

impl RegisterFile {
    /// The unbounded (paper-model) register file: no class is capped.
    pub const UNBOUNDED: RegisterFile = RegisterFile {
        caps: [None; RegClass::ALL.len()],
    };

    /// A file with the same cap on every class.
    pub fn uniform(cap: u32) -> Self {
        RegisterFile {
            caps: [Some(cap); RegClass::ALL.len()],
        }
    }

    /// Sets one class's cap, builder-style.
    pub fn with(mut self, class: RegClass, cap: Option<u32>) -> Self {
        self.caps[class.index()] = cap;
        self
    }

    /// The cap of one class (`None` = unbounded).
    #[inline]
    pub fn cap(&self, class: RegClass) -> Option<u32> {
        self.caps[class.index()]
    }

    /// `true` if no class is capped (pressure tracking never defers).
    #[inline]
    pub fn is_unbounded(&self) -> bool {
        self.caps.iter().all(Option::is_none)
    }
}

impl Default for RegisterFile {
    fn default() -> Self {
        RegisterFile::UNBOUNDED
    }
}

/// A statically-scheduled VLIW machine description.
///
/// Use the named constructors for the paper's models, or
/// [`MachineModel::builder`] for ablation variants.
///
/// Per-cycle structural resources are a vector of per-class unit counts
/// ([`OpClass`]): `None` means the class draws only on the shared issue
/// width (a universal unit), `Some(k)` caps the class at `k` ops per
/// cycle. The legacy `branch_limit`/`mem_port_limit` knobs are views of
/// the branch and memory entries of that vector. At construction the
/// vector is compiled into a [`HazardAutomaton`] — the dense transition
/// table the list scheduler probes instead of per-op limit conditionals.
#[derive(Clone)]
pub struct MachineModel {
    name: String,
    issue_width: usize,
    load_latency: u32,
    fmul_latency: u32,
    fdiv_latency: u32,
    mem_dep_same_cycle: bool,
    class_units: [Option<usize>; OpClass::COUNT],
    reg_file: RegisterFile,
    /// Derived from the fields above; excluded from `Eq`/`Debug`. Shared
    /// behind an `Arc` so model clones stay two-words-plus-strings cheap.
    automaton: Arc<HazardAutomaton>,
}

impl PartialEq for MachineModel {
    fn eq(&self, other: &Self) -> bool {
        // Configuration only: the automaton is a pure function of it.
        self.name == other.name
            && self.issue_width == other.issue_width
            && self.load_latency == other.load_latency
            && self.fmul_latency == other.fmul_latency
            && self.fdiv_latency == other.fdiv_latency
            && self.mem_dep_same_cycle == other.mem_dep_same_cycle
            && self.class_units == other.class_units
            && self.reg_file == other.reg_file
    }
}

impl Eq for MachineModel {}

impl fmt::Debug for MachineModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Configuration fields only — the serve engine keys its cache on
        // `{:?}` of the model, so the derived transition table must not
        // leak into (and bloat) the fingerprint.
        f.debug_struct("MachineModel")
            .field("name", &self.name)
            .field("issue_width", &self.issue_width)
            .field("load_latency", &self.load_latency)
            .field("fmul_latency", &self.fmul_latency)
            .field("fdiv_latency", &self.fdiv_latency)
            .field("mem_dep_same_cycle", &self.mem_dep_same_cycle)
            .field("class_units", &self.class_units)
            .field("reg_file", &self.reg_file)
            .finish()
    }
}

impl MachineModel {
    /// The single-issue baseline machine (1U). Program performance under
    /// basic-block scheduling on this machine is the paper's speedup
    /// denominator.
    pub fn model_1u() -> Self {
        MachineModel::builder("1U", 1).build()
    }

    /// The four-issue machine (4U).
    pub fn model_4u() -> Self {
        MachineModel::builder("4U", 4).build()
    }

    /// The eight-issue machine (8U).
    pub fn model_8u() -> Self {
        MachineModel::builder("8U", 8).build()
    }

    /// An asymmetric four-issue machine: 2 memory ports, 1 branch unit,
    /// 1 floating-point divider, ALUs otherwise universal. The realistic
    /// per-class configuration a wide-issue implementation would actually
    /// build — expressible only through the per-class unit vector (the
    /// old three-counter scheme had no fdiv knob).
    pub fn model_4u_asym() -> Self {
        MachineModel::builder("4U-asym", 4)
            .mem_ports(Some(2))
            .branch_limit(Some(1))
            .units(OpClass::FDiv, Some(1))
            .build()
    }

    /// The four-issue machine with a realistic 64-entry GPR file (the
    /// size of PlayDoh's static general-purpose file). Predicate and
    /// branch-target files stay unbounded — they are cheap one-bit /
    /// few-entry structures, and the pipeline has no way to spill them.
    pub fn model_4u_r64() -> Self {
        MachineModel::model_4u().with_gpr_file(64)
    }

    /// The eight-issue machine with a 64-entry GPR file.
    pub fn model_8u_r64() -> Self {
        MachineModel::model_8u().with_gpr_file(64)
    }

    /// Derives a copy of this machine whose GPR file is capped at `cap`
    /// simultaneously-live registers (name suffixed `+r<cap>`, so cache
    /// fingerprints and reports distinguish the variant). Other classes
    /// keep their existing caps.
    pub fn with_gpr_file(&self, cap: u32) -> MachineModel {
        let mut m = self.clone();
        m.reg_file = m.reg_file.with(RegClass::Gpr, Some(cap));
        m.name = format!("{}+r{cap}", m.name);
        m
    }

    /// Starts building a custom machine named `name` with the given issue
    /// width, using the paper's latency defaults.
    ///
    /// # Panics
    ///
    /// Panics if `issue_width` is zero.
    pub fn builder(name: impl Into<String>, issue_width: usize) -> MachineModelBuilder {
        assert!(issue_width > 0, "issue width must be positive");
        MachineModelBuilder {
            name: name.into(),
            issue_width,
            load_latency: 2,
            fmul_latency: 3,
            fdiv_latency: 9,
            mem_dep_same_cycle: true,
            class_units: [None; OpClass::COUNT],
            reg_file: RegisterFile::UNBOUNDED,
        }
    }

    /// The machine's name (`"4U"` etc.).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Operations issued per cycle (MultiOp width).
    pub fn issue_width(&self) -> usize {
        self.issue_width
    }

    /// The latency, in cycles, from issue of `op` to availability of its
    /// results. Unit latency for everything except loads (reloads load),
    /// `fmul`, `fdiv`.
    pub fn latency(&self, op: Opcode) -> u32 {
        match op {
            Opcode::Load | Opcode::Reload => self.load_latency,
            Opcode::FMul => self.fmul_latency,
            Opcode::FDiv => self.fdiv_latency,
            _ => 1,
        }
    }

    /// Latency of a memory-serialization dependence (store → dependent
    /// memory op). 0 on PlayDoh-style machines — they may share a cycle —
    /// otherwise 1.
    pub fn mem_dep_latency(&self) -> u32 {
        if self.mem_dep_same_cycle {
            0
        } else {
            1
        }
    }

    /// Maximum branches per cycle, or `None` for unlimited (the paper:
    /// "providing the architecture allows it").
    pub fn branch_limit(&self) -> Option<usize> {
        self.class_units[OpClass::Branch.index()]
    }

    /// Maximum memory operations (loads/stores/calls) per cycle, or
    /// `None` for unlimited. The paper's machines have universal units;
    /// this knob models the memory-ported machines an implementation
    /// would actually build, for the ablation sweeps of
    /// `examples/custom_machine.rs`.
    pub fn mem_port_limit(&self) -> Option<usize> {
        self.class_units[OpClass::Mem.index()]
    }

    /// Per-class unit counts, indexed by [`OpClass::index`]; `None` means
    /// the class is limited only by the issue width.
    pub fn class_units(&self) -> &[Option<usize>; OpClass::COUNT] {
        &self.class_units
    }

    /// Units available to one class ([`MachineModel::class_units`] entry).
    pub fn unit_limit(&self, class: OpClass) -> Option<usize> {
        self.class_units[class.index()]
    }

    /// The machine's register file sizes (unbounded by default).
    pub fn reg_file(&self) -> &RegisterFile {
        &self.reg_file
    }

    /// The cap of one register class (`None` = unbounded renaming).
    #[inline]
    pub fn reg_cap(&self, class: RegClass) -> Option<u32> {
        self.reg_file.cap(class)
    }

    /// `true` when any register class is finite, i.e. the scheduler must
    /// track live-range pressure and enforce the ceiling.
    #[inline]
    pub fn has_finite_regs(&self) -> bool {
        !self.reg_file.is_unbounded()
    }

    /// The precomputed resource-hazard automaton for this machine.
    #[inline]
    pub fn hazard_automaton(&self) -> &HazardAutomaton {
        &self.automaton
    }
}

impl fmt::Display for MachineModel {
    /// `4U (4-issue universal)` when every class draws only on the issue
    /// width, otherwise the capped classes in table order, as in
    /// `4U-asym (4-issue; 2 mem, 1 branch, 1 fdiv)`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let capped: Vec<String> = OpClass::ALL
            .into_iter()
            .filter_map(|c| Some(format!("{} {}", self.class_units[c.index()]?, c.name())))
            .collect();
        let (name, width) = (&self.name, self.issue_width);
        if capped.is_empty() {
            write!(f, "{name} ({width}-issue universal)")
        } else {
            write!(f, "{name} ({width}-issue; {})", capped.join(", "))
        }
    }
}

/// Builder for custom [`MachineModel`]s (ablation studies).
#[derive(Clone, Debug)]
pub struct MachineModelBuilder {
    name: String,
    issue_width: usize,
    load_latency: u32,
    fmul_latency: u32,
    fdiv_latency: u32,
    mem_dep_same_cycle: bool,
    class_units: [Option<usize>; OpClass::COUNT],
    reg_file: RegisterFile,
}

impl MachineModelBuilder {
    /// Sets the register file sizes (default: unbounded, the paper's
    /// model).
    pub fn reg_file(mut self, rf: RegisterFile) -> Self {
        self.reg_file = rf;
        self
    }

    /// Sets the load latency (paper default: 2).
    pub fn load_latency(mut self, cycles: u32) -> Self {
        self.load_latency = cycles;
        self
    }

    /// Sets the floating-point multiply latency (paper default: 3).
    pub fn fmul_latency(mut self, cycles: u32) -> Self {
        self.fmul_latency = cycles;
        self
    }

    /// Sets the floating-point divide latency (paper default: 9).
    pub fn fdiv_latency(mut self, cycles: u32) -> Self {
        self.fdiv_latency = cycles;
        self
    }

    /// Sets whether a store and a dependent memory op may share a cycle
    /// (PlayDoh behaviour; paper default: true).
    pub fn mem_dep_same_cycle(mut self, yes: bool) -> Self {
        self.mem_dep_same_cycle = yes;
        self
    }

    /// Caps one resource class at `limit` units per cycle (`None` =
    /// limited only by the issue width; the default for every class).
    pub fn units(mut self, class: OpClass, limit: Option<usize>) -> Self {
        self.class_units[class.index()] = limit;
        self
    }

    /// Limits branches per cycle (paper default: unlimited). Shorthand
    /// for [`MachineModelBuilder::units`] on [`OpClass::Branch`].
    pub fn branch_limit(self, limit: Option<usize>) -> Self {
        self.units(OpClass::Branch, limit)
    }

    /// Limits memory operations per cycle (paper default: unlimited).
    /// Shorthand for [`MachineModelBuilder::units`] on [`OpClass::Mem`].
    pub fn mem_ports(self, limit: Option<usize>) -> Self {
        self.units(OpClass::Mem, limit)
    }

    /// Finishes the model: compiles the unit vector into the hazard
    /// automaton and freezes everything.
    pub fn build(self) -> MachineModel {
        let automaton = Arc::new(HazardAutomaton::build(self.issue_width, &self.class_units));
        MachineModel {
            name: self.name,
            issue_width: self.issue_width,
            load_latency: self.load_latency,
            fmul_latency: self.fmul_latency,
            fdiv_latency: self.fdiv_latency,
            mem_dep_same_cycle: self.mem_dep_same_cycle,
            class_units: self.class_units,
            reg_file: self.reg_file,
            automaton,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use treegion_ir::Cond;

    #[test]
    fn paper_models_have_paper_parameters() {
        for (m, w) in [
            (MachineModel::model_1u(), 1),
            (MachineModel::model_4u(), 4),
            (MachineModel::model_8u(), 8),
        ] {
            assert_eq!(m.issue_width(), w);
            assert_eq!(m.latency(Opcode::Load), 2);
            assert_eq!(m.latency(Opcode::FMul), 3);
            assert_eq!(m.latency(Opcode::FDiv), 9);
            assert_eq!(m.latency(Opcode::Add), 1);
            assert_eq!(m.latency(Opcode::Store), 1);
            assert_eq!(m.latency(Opcode::Cmpp(Cond::Gt)), 1);
            assert_eq!(m.mem_dep_latency(), 0);
            assert_eq!(m.branch_limit(), None);
            assert_eq!(m.mem_port_limit(), None);
        }
    }

    #[test]
    fn builder_overrides_apply() {
        let m = MachineModel::builder("custom", 6)
            .load_latency(4)
            .mem_dep_same_cycle(false)
            .branch_limit(Some(2))
            .mem_ports(Some(2))
            .build();
        assert_eq!(m.issue_width(), 6);
        assert_eq!(m.latency(Opcode::Load), 4);
        assert_eq!(m.mem_dep_latency(), 1);
        assert_eq!(m.branch_limit(), Some(2));
        assert_eq!(m.mem_port_limit(), Some(2));
        assert_eq!(m.name(), "custom");
    }

    #[test]
    fn asym_preset_has_per_class_units() {
        let m = MachineModel::model_4u_asym();
        assert_eq!(m.issue_width(), 4);
        assert_eq!(m.branch_limit(), Some(1));
        assert_eq!(m.mem_port_limit(), Some(2));
        assert_eq!(m.unit_limit(OpClass::FDiv), Some(1));
        assert_eq!(m.unit_limit(OpClass::Alu), None);
        assert_eq!(m.class_units(), &[None, Some(2), Some(1), Some(1)]);
        // Latencies stay the paper's defaults.
        assert_eq!(m.latency(Opcode::Load), 2);
        assert_eq!(m.latency(Opcode::FDiv), 9);
    }

    #[test]
    fn equality_and_debug_cover_configuration_not_the_automaton() {
        let a = MachineModel::model_4u_asym();
        let b = MachineModel::model_4u_asym();
        assert_eq!(a, b);
        assert_ne!(a, MachineModel::model_4u());
        // The derived transition table stays out of the Debug rendering
        // (the serve cache fingerprints models via `{:?}`).
        let dbg = format!("{a:?}");
        assert!(dbg.contains("class_units"), "{dbg}");
        assert!(dbg.contains("reg_file"), "{dbg}");
        assert!(!dbg.contains("table"), "{dbg}");
        // A finite register file is part of the configuration identity:
        // it must split both equality and the cache fingerprint.
        let r32 = MachineModel::model_4u().with_gpr_file(32);
        assert_ne!(r32, MachineModel::model_4u());
        assert_ne!(
            format!("{r32:?}"),
            format!("{:?}", MachineModel::model_4u())
        );
    }

    #[test]
    fn register_files_default_unbounded_and_derive_cleanly() {
        let m = MachineModel::model_4u();
        assert!(m.reg_file().is_unbounded());
        assert!(!m.has_finite_regs());
        assert_eq!(m.reg_cap(RegClass::Gpr), None);

        let r32 = m.with_gpr_file(32);
        assert!(r32.has_finite_regs());
        assert_eq!(r32.reg_cap(RegClass::Gpr), Some(32));
        assert_eq!(r32.reg_cap(RegClass::Pred), None);
        assert_eq!(r32.name(), "4U+r32");
        // The automaton (per-cycle issue resources) is untouched by the
        // register file, which constrains liveness across cycles instead.
        assert_eq!(
            r32.hazard_automaton().state_count(),
            m.hazard_automaton().state_count()
        );

        let p = MachineModel::model_4u_r64();
        assert_eq!(p.reg_cap(RegClass::Gpr), Some(64));
        assert_eq!(p.name(), "4U+r64");
        assert_eq!(
            MachineModel::model_8u_r64().reg_cap(RegClass::Gpr),
            Some(64)
        );

        let rf = RegisterFile::uniform(16).with(RegClass::Pred, None);
        assert_eq!(rf.cap(RegClass::Gpr), Some(16));
        assert_eq!(rf.cap(RegClass::Pred), None);
        assert_eq!(rf.cap(RegClass::Btr), Some(16));
        assert!(!rf.is_unbounded());
        assert_eq!(RegisterFile::default(), RegisterFile::UNBOUNDED);
        let custom = MachineModel::builder("fin", 2).reg_file(rf).build();
        assert_eq!(custom.reg_cap(RegClass::Btr), Some(16));
    }

    #[test]
    #[should_panic(expected = "issue width")]
    fn zero_issue_width_panics() {
        let _ = MachineModel::builder("bad", 0);
    }

    #[test]
    fn display_is_informative() {
        assert_eq!(
            MachineModel::model_4u().to_string(),
            "4U (4-issue universal)"
        );
        assert_eq!(
            MachineModel::model_8u_r64().to_string(),
            "8U+r64 (8-issue universal)"
        );
        assert_eq!(
            MachineModel::model_4u_asym().to_string(),
            "4U-asym (4-issue; 2 mem, 1 branch, 1 fdiv)"
        );
    }
}

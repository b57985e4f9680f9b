//! Seeded request inputs: the functions of the eight SPECint95-style
//! programs, each wrapped alone in a module whose name makes its digest
//! new.
//!
//! Requests are drawn in cycles: every cycle is a fresh seeded
//! permutation of all the suite's functions, so any stretch of the stream
//! follows the programs' real size spread, and the first cycle — the
//! fixed request set — holds every function exactly once. The seed
//! changes the order and the names, never the set, so code-quality sums
//! over the fixed set are the same for every seed.

use crate::stats::SplitMix;
use treegion_ir::{print_module, Function, Module};
use treegion_workloads::generate_suite;

/// One function of the suite: `(program index, function index)`.
pub type Unit = (usize, usize);

/// The generated suite and its flattened function list.
pub struct Corpus {
    /// One module per program, in suite order.
    pub programs: Vec<Module>,
    /// Every function, program by program.
    pub units: Vec<Unit>,
}

impl Corpus {
    /// Generates the eight programs.
    pub fn load() -> Self {
        let programs = generate_suite();
        let units = programs
            .iter()
            .enumerate()
            .flat_map(|(p, m)| (0..m.functions().len()).map(move |k| (p, k)))
            .collect();
        Corpus { programs, units }
    }

    /// The function behind a unit.
    pub fn function(&self, u: Unit) -> &Function {
        &self.programs[u.0].functions()[u.1]
    }

    /// The tir text of a one-function module named `name` holding `u`.
    pub fn module_text(&self, u: Unit, name: &str) -> String {
        let mut m = Module::new(name);
        m.add_function(self.function(u).clone());
        print_module(&m)
    }
}

/// An endless seeded stream of requests over a corpus.
pub struct Draw {
    rng: SplitMix,
    seed: u64,
    tag: &'static str,
    order: Vec<usize>,
    pos: usize,
    issued: u64,
}

/// One drawn request: which function, and its module text.
#[derive(Clone, Debug)]
pub struct Drawn {
    /// Index into [`Corpus::units`].
    pub unit: usize,
    /// The module's tir text (a name nobody has sent before).
    pub text: String,
}

impl Draw {
    /// A stream seeded with `seed`; `tag` keeps the names of different
    /// streams apart.
    pub fn new(seed: u64, tag: &'static str) -> Self {
        Draw {
            rng: SplitMix::new(seed ^ 0x7472_6565_6769_6f6e),
            seed,
            tag,
            order: Vec::new(),
            pos: 0,
            issued: 0,
        }
    }

    /// The next request.
    pub fn next(&mut self, corpus: &Corpus) -> Drawn {
        if self.pos == self.order.len() {
            self.order = self.rng.permutation(corpus.units.len());
            self.pos = 0;
        }
        let unit = self.order[self.pos];
        self.pos += 1;
        self.issued += 1;
        let u = corpus.units[unit];
        let name = format!(
            "{}_{}_s{}_r{}",
            corpus.programs[u.0].name(),
            self.tag,
            self.seed,
            self.issued
        );
        Drawn {
            unit,
            text: corpus.module_text(u, &name),
        }
    }

    /// The next `n` requests.
    pub fn take(&mut self, corpus: &Corpus, n: usize) -> Vec<Drawn> {
        (0..n).map(|_| self.next(corpus)).collect()
    }
}

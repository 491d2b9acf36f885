//! The lookup FEM computes each ROM word on read. These tests pin it to
//! the tabulated ROM the paper fills offline: word for word at every
//! address, and run for run through the cycle-accurate system.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ga_engine::Workload;
use ga_ip::ga_ehw::{Fault, Vrc, SHIPPED_TARGETS};
use ga_ip::ga_fitness::fem::{Fem, FemIn};
use ga_ip::ga_fitness::rom::FitnessRom;
use ga_ip::prelude::*;

/// All six paper functions plus six heal (target, fault) pairs: every
/// shipped target, each with a stuck-at and a wrong-function fault.
fn workloads() -> Vec<Workload> {
    let faults = [
        ["stuck0@0", "nand@5"],
        ["stuck1@3", "xor@7"],
        ["stuck0@6", "and@1"],
    ];
    let mut out: Vec<Workload> = TestFunction::ALL
        .iter()
        .map(|&f| Workload::Function(f))
        .collect();
    for (&(_, config), names) in SHIPPED_TARGETS.iter().zip(faults) {
        let target = Vrc::new(config).truth_table();
        for name in names {
            let fault = Fault::parse_wire(name).expect("valid fault name");
            out.push(Workload::VrcHeal { target, fault });
        }
    }
    out
}

/// The table the paper's offline flow would load into block ROM.
fn tabulated(w: Workload) -> FitnessRom {
    match w {
        Workload::Function(f) => FitnessRom::tabulate(f),
        Workload::VrcHeal { target, fault } => {
            FitnessRom::tabulate_fn(|c| healing_fitness(c, target, Some(fault)))
        }
    }
}

/// The FEM the `rtl` backend serves `w` with, counting its reads.
fn on_read(w: Workload, reads: Arc<AtomicU64>) -> LookupFem {
    LookupFem::from_fn(move |c| {
        reads.fetch_add(1, Ordering::Relaxed);
        w.eval_u16(c)
    })
}

/// One full request/valid handshake; returns the fitness word.
fn read_word(fem: &mut LookupFem, candidate: u16) -> u16 {
    let request = FemIn {
        fit_request: true,
        candidate: candidate.into(),
    };
    while !fem.out().fit_valid {
        fem.eval(request);
        fem.commit();
    }
    let v = fem.out().fit_value;
    while fem.out().fit_valid {
        fem.eval(FemIn::default());
        fem.commit();
    }
    v
}

#[test]
fn on_read_fem_equals_the_tabulated_rom_at_every_address() {
    for w in workloads() {
        let rom = tabulated(w);
        let reads = Arc::new(AtomicU64::new(0));
        let mut fem = on_read(w, reads.clone());
        fem.reset();
        for c in 0..=u16::MAX {
            assert_eq!(read_word(&mut fem, c), rom.lookup(c), "{w:?} at {c:#06x}");
        }
        assert_eq!(reads.load(Ordering::Relaxed), 1 << 16, "{w:?}");
    }
}

#[test]
fn rtl_runs_are_identical_on_the_table_and_on_read() {
    let shapes = [
        GaParams::new(16, 8, 10, 1, 0x2961),
        GaParams::new(24, 16, 12, 2, 0x061F),
        GaParams::new(32, 32, 10, 1, 0xB342),
    ];
    let first_heal = workloads()[TestFunction::ALL.len()];
    let picked = [
        Workload::Function(TestFunction::MShubert2D),
        Workload::Function(TestFunction::Bf6),
        first_heal,
    ];
    for params in shapes {
        for w in picked {
            let run = |fem: LookupFem| {
                GaSystem::new(FemBank::new(vec![FemSlot::Lookup(fem)]))
                    .program_and_run(&params, 100_000_000)
                    .expect("run reaches GA_done")
            };
            let table = run(LookupFem::new(tabulated(w)));
            let reads = Arc::new(AtomicU64::new(0));
            let live = run(on_read(w, reads.clone()));
            let at = format!("{w:?} pop {} gens {}", params.pop_size, params.n_gens);
            assert_eq!(live.best, table.best, "{at}");
            assert_eq!(live.history, table.history, "{at}");
            assert_eq!(live.cycles, table.cycles, "{at}");
            assert_eq!(live.rng_draws, table.rng_draws, "{at}");
            // One ROM read per fitness request: no re-tabulation, no
            // reads on idle cycles.
            assert_eq!(
                reads.load(Ordering::Relaxed),
                params.evaluations_per_run(),
                "{at}"
            );
        }
    }
}

#[test]
fn integer_f2_and_f3_words_equal_the_rounded_reference() {
    use ga_ip::ga_fitness::functions::quantize;
    for f in [TestFunction::F2, TestFunction::F3] {
        for c in 0..=u16::MAX {
            assert_eq!(f.eval_u16(c), quantize(f.eval_f64(c)), "{f:?} at {c:#06x}");
        }
    }
}

#[test]
fn table_cos_bf6_and_mbf6_2_words_equal_the_rounded_reference() {
    use ga_ip::ga_fitness::functions::quantize;
    for f in [TestFunction::Bf6, TestFunction::Mbf6_2] {
        for c in 0..=u16::MAX {
            assert_eq!(f.eval_u16(c), quantize(f.eval_f64(c)), "{f:?} at {c:#06x}");
        }
    }
}

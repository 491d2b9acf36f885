//! Cross-crate integration tests: the full system exercised the way a
//! user (or the paper's experimental setup) drives it.

use ga_ip::ga_core::rngmod::RngModule;
use ga_ip::ga_core::{GaSystem32Hw, Port};
use ga_ip::ga_ehw::vrc::PERFECT_FITNESS;
use ga_ip::prelude::*;

/// Switching between fitness functions at runtime (the multi-FEM bank)
/// produces results consistent with dedicated single-function systems.
#[test]
fn fitfunc_select_switches_without_state_leakage() {
    let slots: Vec<FemSlot> = TestFunction::ALL
        .iter()
        .map(|&f| FemSlot::Lookup(LookupFem::for_function(f)))
        .collect();
    let mut shared = GaSystem::new(FemBank::new(slots));
    let params = GaParams::new(16, 8, 10, 1, 0x2961);

    for (select, &f) in TestFunction::ALL.iter().enumerate() {
        shared.fitfunc_select = select as u8;
        let shared_run = shared.program_and_run(&params, 100_000_000).unwrap();

        let mut dedicated = GaSystem::new(FemBank::new(vec![FemSlot::Lookup(
            LookupFem::for_function(f),
        )]));
        let dedicated_run = dedicated.program_and_run(&params, 100_000_000).unwrap();
        assert_eq!(
            shared_run.best,
            dedicated_run.best,
            "{}: bank result differs from dedicated system",
            f.name()
        );
        assert_eq!(shared_run.history, dedicated_run.history);
    }
}

/// The external-FEM path (hybrid EHW, Fig. 5) gives the same results as
/// an internal FEM computing the same function.
#[test]
fn external_fem_equals_internal_fem() {
    let target = Vrc::new(0x1B26).truth_table();
    let fault = Some(Fault::StuckAt {
        cell: 6,
        value: false,
    });
    let params = GaParams::new(16, 8, 10, 1, 0x061F);

    // Internal: tabulated healing fitness in block ROM.
    let rom =
        ga_ip::ga_fitness::rom::FitnessRom::tabulate_fn(|cfg| healing_fitness(cfg, target, fault));
    let mut internal = GaSystem::new(FemBank::new(vec![FemSlot::Lookup(LookupFem::new(rom))]));
    let run_i = internal.program_and_run(&params, 200_000_000).unwrap();

    // External: the VRC fabric behind the ext ports.
    let mut external = GaSystem::new(FemBank::new(vec![FemSlot::External]))
        .with_external_fem(Box::new(VrcFem::new(target, fault)));
    let run_e = external.program_and_run(&params, 200_000_000).unwrap();

    assert_eq!(run_i.best, run_e.best);
    assert_eq!(run_i.history, run_e.history);
    // The external path is slower per evaluation (16-pattern sweep +
    // port hops) — that cost must be visible in the cycle counts.
    assert!(run_e.cycles > run_i.cycles);
}

/// The GA core works unchanged with a different RNG implementation
/// (§III-B.7: "the operation of the GA core is independent of the RNG
/// implementation").
#[test]
fn lfsr_rng_module_drives_the_core() {
    let params = GaParams::new(32, 32, 10, 1, 0x2961);
    let mut ca = GaSystem::new(FemBank::new(vec![FemSlot::Lookup(
        LookupFem::for_function(TestFunction::F3),
    )]));
    let mut lfsr = GaSystem::new(FemBank::new(vec![FemSlot::Lookup(
        LookupFem::for_function(TestFunction::F3),
    )]))
    .with_rng(RngModule::new_lfsr(1));

    let run_ca = ca.program_and_run(&params, 200_000_000).unwrap();
    let run_lfsr = lfsr.program_and_run(&params, 200_000_000).unwrap();
    // Different generators ⇒ different trajectories, but both optimize.
    assert_ne!(run_ca.history, run_lfsr.history);
    assert!(run_ca.best.fitness >= 2900);
    assert!(run_lfsr.best.fitness >= 2900);
}

/// Preset modes run without any initialization (§III-C.1's ASIC
/// fault-tolerance path) and match the Table IV parameters.
#[test]
fn preset_modes_bypass_initialization() {
    let mut sys = GaSystem::new(FemBank::new(vec![FemSlot::Lookup(
        LookupFem::for_function(TestFunction::F2),
    )]));
    sys.preset = 0b01; // Small: pop 32, 512 gens, 12/1
    let run = sys.run(500_000_000).unwrap();
    assert_eq!(
        run.history.len(),
        513,
        "512 generations + initial population"
    );
    let programmed = sys.modules().core.programmed_params();
    assert_eq!(programmed, GaParams::preset(PresetMode::Small).unwrap());
    assert!(
        run.best.fitness >= 3000,
        "F2 after 512 generations: {}",
        run.best.fitness
    );
}

/// Full intrinsic-healing mission: fault strikes, GA restores function.
#[test]
fn ehw_healing_mission_recovers() {
    let target = Vrc::new(0x1B26).truth_table();
    let fault = Fault::StuckAt {
        cell: 6,
        value: false,
    };
    assert!(
        healing_fitness(0x1B26, target, Some(fault)) < PERFECT_FITNESS,
        "fault must degrade the golden configuration"
    );
    let mut sys = GaSystem::new(FemBank::new(vec![FemSlot::External]))
        .with_external_fem(Box::new(VrcFem::new(target, Some(fault))));
    let params = GaParams::new(64, 64, 10, 2, 0xB342);
    let run = sys.program_and_run(&params, 2_000_000_000).unwrap();
    assert_eq!(
        run.best.fitness, PERFECT_FITNESS,
        "healing failed: best {:#06X} scores {}",
        run.best.chrom, run.best.fitness
    );
}

/// The engine table serves every backend end to end — all seven names
/// with their pinned capability rows, every 16-bit engine bit-identical
/// to behavioral on *both* workload kinds (classic fitness function and
/// VRC healing), the 32-bit composite self-consistent on its own width,
/// and healing correctly refused where it cannot run.
#[test]
fn registry_matrix_covers_all_seven_backends_and_both_workloads() {
    use ga_engine::{BackendKind, Capabilities, Limits, RunSpec, Workload};

    // Each name's row: widths, pack width, stepping handle, fallback.
    let row = |widths: &'static [u8], pack_width, stepping, degrades_to| Capabilities {
        widths,
        pack_width,
        stepping,
        degrades_to,
    };
    let behavioral = Some(BackendKind::Behavioral);
    let rows = [
        (BackendKind::Behavioral, row(&[16], 1, true, None)),
        (BackendKind::RtlInterp, row(&[16], 1, false, None)),
        (BackendKind::BitSim64, row(&[16], 64, true, behavioral)),
        (BackendKind::BitSim128, row(&[16], 128, true, behavioral)),
        (BackendKind::BitSim256, row(&[16], 256, true, behavioral)),
        (BackendKind::Swga, row(&[16], 1, false, None)),
        (BackendKind::Rtl32, row(&[32], 1, false, None)),
    ];
    assert_eq!(BackendKind::ALL, rows.map(|(kind, _)| kind));
    let names = BackendKind::ALL.map(BackendKind::name);
    assert_eq!(
        names,
        [
            "behavioral",
            "rtl",
            "bitsim64",
            "bitsim128",
            "bitsim256",
            "swga",
            "rtl32"
        ]
    );
    let params = GaParams::new(16, 8, 10, 1, 0x2961);
    for (kind, caps) in rows {
        let engine = kind.engine();
        assert_eq!(engine.kind(), kind);
        assert_eq!(engine.capabilities(), caps, "{}", kind.name());
        // A stepping handle exists exactly where the row says.
        let spec = RunSpec {
            width: caps.widths[0],
            workload: Workload::Function(TestFunction::F3),
            params,
            deadline_ms: None,
        };
        let prepared = engine.prepare(spec).expect("admitted at its own width");
        assert_eq!(
            engine.stepper(&prepared, &Limits::default()).is_ok(),
            caps.stepping,
            "{}",
            kind.name()
        );
    }

    let heal = Workload::VrcHeal {
        target: Vrc::new(0x1B26).truth_table(),
        fault: Fault::StuckAt {
            cell: 2,
            value: true,
        },
    };
    let run16 = |kind: BackendKind, workload: Workload| {
        let engine = kind.engine();
        let spec = RunSpec {
            width: 16,
            workload,
            params,
            deadline_ms: None,
        };
        let prepared = engine.prepare(spec).expect("16-bit spec admitted");
        engine.run(&prepared, &Limits::default()).expect("runs")
    };

    for workload in [Workload::Function(TestFunction::F3), heal] {
        let reference = run16(BackendKind::Behavioral, workload);
        assert_eq!(
            workload.eval_u16(reference.best_chrom as u16),
            reference.best_fitness,
            "reported best must re-evaluate to its fitness"
        );
        for kind in BackendKind::supporting_width(16) {
            let got = run16(kind, workload);
            assert_eq!(
                got.trajectory,
                reference.trajectory,
                "{} diverged from behavioral on {workload:?}",
                kind.name()
            );
            assert_eq!(
                (got.best_chrom, got.best_fitness),
                (reference.best_chrom, reference.best_fitness)
            );
        }
    }

    // The 32-bit composite runs function workloads at its own width…
    let engine = BackendKind::Rtl32.engine();
    let spec = RunSpec {
        width: 32,
        workload: ga_engine::Workload::Function(TestFunction::Mbf6_2),
        params,
        deadline_ms: None,
    };
    let prepared = engine.prepare(spec).expect("32-bit function admitted");
    let wide = engine.run(&prepared, &Limits::default()).expect("runs");
    assert_eq!(
        TestFunction::Mbf6_2.eval_u32_split(wide.best_chrom),
        wide.best_fitness
    );

    // …but refuses the healing workload: a VRC configuration is 16
    // bits, so width-32 admission must fail with a typed error.
    assert!(
        engine
            .prepare(RunSpec {
                width: 32,
                workload: heal,
                params,
                deadline_ms: None,
            })
            .is_err(),
        "rtl32 must not admit a 16-bit healing chromosome at width 32"
    );
}

/// Scan-chain test mode through the full system: freezing the core and
/// rotating the chain leaves a subsequent run unchanged.
#[test]
fn scan_rotation_is_transparent_to_operation() {
    let params = GaParams::new(8, 4, 10, 1, 0xAAAA);
    let mk = || {
        GaSystem::new(FemBank::new(vec![FemSlot::Lookup(
            LookupFem::for_function(TestFunction::F3),
        )]))
    };
    let mut plain = mk();
    let baseline = plain.program_and_run(&params, 100_000_000).unwrap();

    let mut scanned = mk();
    scanned.program(&params);
    // Enter test mode and rotate the full chain with scanout → scanin
    // loopback. The scanout register lags the pop by one cycle, so a
    // lossless rotation takes SCAN_LENGTH + 1 shifts (the first
    // fed bit is junk and falls off the far end).
    let mut feedback = false;
    for _ in 0..=ga_ip::ga_core::GaCoreHw::SCAN_LENGTH {
        scanned.step(UserIn {
            test: true,
            scanin: feedback,
            ..Default::default()
        });
        feedback = scanned.modules().core.out().scanout;
    }
    scanned.step(UserIn {
        test: false,
        ..Default::default()
    });
    let after_scan = scanned.run(100_000_000).unwrap();
    assert_eq!(baseline.best, after_scan.best);
    assert_eq!(baseline.history, after_scan.history);
}

/// VCD waveform capture of a full run: the document must contain the
/// interface signals and real activity (the ModelSim/GTKWave view of
/// the paper's verification flow).
#[test]
fn vcd_capture_of_a_run() {
    assert_vcd_captures_a_run(
        16,
        GaSystem::new(FemBank::new(vec![FemSlot::Lookup(
            LookupFem::for_function(TestFunction::F3),
        )])),
    );
    assert_vcd_captures_a_run(
        32,
        GaSystem32Hw::new(|c: u32| TestFunction::F3.eval_u32_split(c)),
    );
}

/// A VCD of a short run on `sys`, whose candidate bus is `width` bits.
fn assert_vcd_captures_a_run<P: Port>(width: u32, mut sys: GaSystem<P>) {
    sys.start_vcd();
    let params = GaParams::new(8, 2, 10, 1, 0x2961);
    sys.program_and_run(&params, 1_000_000).unwrap();
    let vcd = sys.finish_vcd().expect("capture was enabled");
    for var in ["candidate", "fit_request", "GA_done", "mem_address", "rn"] {
        assert!(
            vcd.contains(var),
            "width {width}: missing declared var {var}"
        );
    }
    let candidate = vcd
        .lines()
        .find(|l| l.ends_with(" candidate $end"))
        .expect("candidate declared");
    assert!(
        candidate.starts_with(&format!("$var wire {width} ")),
        "{candidate}"
    );
    // Activity: candidate bus toggles many times, GA_done rises once.
    assert!(
        vcd.matches('#').count() > 100,
        "width {width}: too few timestamped changes"
    );
    assert!(vcd.contains("$enddefinitions $end"));
    // Capture is one-shot: a second finish returns None.
    assert!(sys.finish_vcd().is_none());
}

/// The optimizer's trajectory is invariant to fitness-module latency:
/// the handshake decouples *when* a fitness arrives from *what* the GA
/// does with it, so lookup / CORDIC / wire-delayed modules must produce
/// identical histories (only cycle counts differ).
#[test]
fn results_invariant_to_fem_latency() {
    let params = GaParams::new(16, 8, 10, 1, 0x2961);
    let f = TestFunction::Mbf6_2;
    let run = |fem: FemSlot| {
        let mut sys = GaSystem::new(FemBank::new(vec![fem]));
        sys.program_and_run(&params, 1_000_000_000).unwrap()
    };
    let lookup = run(FemSlot::Lookup(LookupFem::for_function(f)));
    let delayed = {
        let mut sys =
            GaSystem::new(FemBank::new(vec![FemSlot::External])).with_external_fem(Box::new(
                ga_ip::ga_fitness::LatencyFem::new(LookupFem::for_function(f), 17),
            ));
        sys.program_and_run(&params, 1_000_000_000).unwrap()
    };
    assert_eq!(
        lookup.history, delayed.history,
        "latency changed the search"
    );
    assert_eq!(lookup.best, delayed.best);
    assert!(delayed.cycles > lookup.cycles);

    // CORDIC agrees wherever its ±1-LSB rounding doesn't flip a
    // comparison; assert the weaker invariant that it still finds a
    // best within 1 LSB of the lookup run's.
    let cordic = run(FemSlot::Cordic(CordicFem::new(f)));
    let d = (cordic.best.fitness as i32 - lookup.best.fitness as i32).abs();
    assert!(
        d <= 100,
        "CORDIC best diverged: {} vs {}",
        cordic.best.fitness,
        lookup.best.fitness
    );
}

/// The paper's DCM clocking: GA module at 50 MHz, application modules
/// at 200 MHz (ratio 4). The faster FEM domain must not change the
/// search trajectory — only shorten the handshakes in GA cycles.
#[test]
fn fast_application_clock_domain_preserves_results() {
    let params = GaParams::new(16, 8, 10, 1, 0x2961);
    let f = TestFunction::Mbf6_2;
    let run_with_ratio = |ratio: u32| {
        let mut sys = GaSystem::new(FemBank::new(vec![FemSlot::Lookup(
            LookupFem::for_function(f),
        )]));
        sys.fast_domain_ratio = ratio;
        sys.program_and_run(&params, 1_000_000_000).unwrap()
    };
    let base = run_with_ratio(1);
    let dcm = run_with_ratio(4);
    assert_eq!(base.history, dcm.history, "clock ratio changed the search");
    assert_eq!(base.best, dcm.best);
    assert!(
        dcm.cycles < base.cycles,
        "4x application clock should shorten fitness handshakes: {} vs {}",
        dcm.cycles,
        base.cycles
    );

    // The effect is larger when the FEM itself is slow (CORDIC).
    let slow = |ratio: u32| {
        let mut sys = GaSystem::new(FemBank::new(vec![FemSlot::Cordic(CordicFem::new(f))]));
        sys.fast_domain_ratio = ratio;
        sys.program_and_run(&params, 1_000_000_000).unwrap().cycles
    };
    let s1 = slow(1);
    let s4 = slow(4);
    assert!(
        (s1 - s4) as f64 / s1 as f64 > 0.15,
        "CORDIC at 4x clock should save >15% of cycles: {s1} vs {s4}"
    );
}

/// §III-C.1: "failure of the GA parameter initialization logic can be
/// tolerated by running the GA core in one of the three preset modes."
/// We induce the failure by scanning an all-zero pattern into every
/// register (pop = 0, gens = 0, seed = 0) and show that user mode is
/// degenerate while preset mode recovers fully.
#[test]
fn preset_mode_recovers_from_corrupted_parameters() {
    let mk = || {
        GaSystem::new(FemBank::new(vec![FemSlot::Lookup(
            LookupFem::for_function(TestFunction::F2),
        )]))
    };
    let corrupt = |sys: &mut GaSystem| {
        // Scan in zeros over the whole chain (the SEU storm).
        for _ in 0..=ga_ip::ga_core::GaCoreHw::SCAN_LENGTH {
            sys.step(UserIn {
                test: true,
                scanin: false,
                ..Default::default()
            });
        }
        sys.step(UserIn::default());
        let p = sys.modules().core.programmed_params();
        assert_eq!(p.pop_size, 0, "corruption did not land");
        assert_eq!(p.n_gens, 0);
    };

    // User mode with zeroed registers: degenerate (0 generations —
    // GA_done fires with no populations ever evaluated).
    let mut broken = mk();
    corrupt(&mut broken);
    let run = broken.run(10_000_000).unwrap();
    // pop = 0 makes the init-population counter wrap through 256 before
    // the (gen 0 == n_gens 0) exit: one degenerate "generation", no
    // evolution at all.
    assert!(run.history.len() <= 1, "zeroed parameters evolved anyway");

    // Preset mode on the same corrupted core: full recovery.
    let mut healed = mk();
    corrupt(&mut healed);
    healed.preset = 0b01; // Table IV Small
    let run = healed.run(500_000_000).unwrap();
    assert_eq!(run.history.len(), 513);
    assert!(
        run.best.fitness >= 3000,
        "preset run result: {}",
        run.best.fitness
    );
}

/// The fitness handshake obeys its four-phase contract for every FEM
/// implementation, checked cycle-by-cycle by the protocol monitor
/// (the executable form of the paper's "simplicity of all the
/// interfacing protocols" claim).
#[test]
fn fitness_protocol_holds_for_all_fem_kinds() {
    for (name, slot) in [
        (
            "lookup",
            FemSlot::Lookup(LookupFem::for_function(TestFunction::Mbf6_2)),
        ),
        (
            "cordic",
            FemSlot::Cordic(CordicFem::new(TestFunction::Mbf6_2)),
        ),
    ] {
        assert_fitness_protocol_holds(16, name, GaSystem::new(FemBank::new(vec![slot])));
    }
    // The 32-bit GA's shared block ROM, on the concatenated candidate.
    assert_fitness_protocol_holds(
        32,
        "lookup",
        GaSystem32Hw::new(|c: u32| TestFunction::Mbf6_2.eval_u32_split(c)),
    );
}

/// A monitored pop-16, 6-generation run on `sys` sees one clean
/// transaction per fitness evaluation.
fn assert_fitness_protocol_holds<P: Port>(width: u32, name: &str, mut sys: GaSystem<P>) {
    let params = GaParams::new(16, 6, 10, 1, 0x2961);
    sys.enable_protocol_monitor();
    sys.program_and_run(&params, 1_000_000_000).unwrap();
    let mon = sys.protocol_monitor().unwrap();
    assert!(
        mon.violations().is_empty(),
        "width {width} {name}: {:?}",
        mon.violations()
    );
    assert_eq!(
        mon.transactions(),
        16 + 6 * 15,
        "width {width} {name}: one transaction per fitness evaluation"
    );
}

/// Mid-run `start_GA` pulses and initialization-bus noise are ignored:
/// the optimizer only honors them in Idle/Done (robustness the paper's
/// drop-in-IP story depends on).
#[test]
fn core_ignores_spurious_inputs_mid_run() {
    let params = GaParams::new(16, 8, 10, 1, 0xB342);
    let mk = || {
        GaSystem::new(FemBank::new(vec![FemSlot::Lookup(
            LookupFem::for_function(TestFunction::F2),
        )]))
    };
    let mut clean = mk();
    let baseline = clean.program_and_run(&params, 1_000_000_000).unwrap();

    let mut noisy = mk();
    noisy.program(&params);
    noisy.step(UserIn {
        start_ga: true,
        ..Default::default()
    });
    let mut k = 0u64;
    while !noisy.modules().core.out().ga_done {
        // Glitch the user-side inputs every few cycles.
        let glitch = k % 7 == 3;
        noisy.step(UserIn {
            start_ga: glitch,
            data_valid: glitch,
            index: 5,
            value: 0xDEAD,
            ..Default::default()
        });
        k += 1;
        assert!(k < 1_000_000_000, "noisy run hung");
    }
    assert_eq!(noisy.modules().core.out().candidate, baseline.best.chrom);
    assert_eq!(
        noisy.modules().core.programmed_params(),
        params,
        "init-bus noise must not reprogram a running core"
    );
}

/// Every fitness value the core ever consumes is checked against the
/// ROM ground truth with a transaction scoreboard — not just the final
/// answer (the UVM-style completeness check).
#[test]
fn scoreboard_checks_every_fitness_transaction() {
    use ga_ip::hwsim::Scoreboard;

    let f = TestFunction::Mbf7_2;
    let params = GaParams::new(16, 6, 10, 1, 0x061F);
    let mut sys = GaSystem::new(FemBank::new(vec![FemSlot::Lookup(
        LookupFem::for_function(f),
    )]));
    sys.program(&params);

    let mut sb: Scoreboard<u16, u16> = Scoreboard::new();
    let mut prev_req = false;
    let mut prev_valid = false;
    sys.step(UserIn {
        start_ga: true,
        ..Default::default()
    });
    let mut guard = 0u64;
    while !sys.modules().core.out().ga_done {
        let o = sys.modules().core.out();
        let fem_o = sys.modules().fems.out(0, 0, false);
        if o.fit_request && !prev_req {
            sb.expect(o.candidate, f.eval_u16(o.candidate));
        }
        if fem_o.fit_valid && !prev_valid {
            sb.observe(fem_o.fit_value);
        }
        prev_req = o.fit_request;
        prev_valid = fem_o.fit_valid;
        sys.step(UserIn::default());
        guard += 1;
        assert!(guard < 100_000_000, "run hung");
    }
    sb.assert_clean();
    assert_eq!(
        sb.completed(),
        16 + 6 * 15,
        "one transaction per evaluation"
    );
}

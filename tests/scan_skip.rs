//! The selection-scan skip is invisible, cycle for cycle.
//!
//! `GaSystem::advance` and `GaSystem32Hw::advance` jump a whole
//! selection-scan window in one host step. Each test here drives one
//! system through `advance` and a reference system through `step()`,
//! one clock at a time, and requires the two to agree on everything a
//! clock edge can change: the cycle count, every core register (the
//! core's derived `Debug` covers the 408 scan-chain bits plus the FSM
//! state, multiplier counter, selection phase, cycle profile and draw
//! count), the GA memories with their read registers, and the RNG
//! state. The watchdog and scheduled scan faults must trip on the cycle
//! they trip on with single steps, even when it falls inside a window.

use carng::seeds::PRESET_SEEDS;
use ga_core::{GaCoreHw, GaSystem32Hw};
use ga_engine::{BackendKind, EngineError, Limits, RunSpec, Workload};
use ga_ip::prelude::*;
use hwsim::{BitFault, ScanBitOp, SimError};

/// The quick conformance matrix: two fitness modules × the Table IV
/// preset shapes × the preset seeds, four generations.
fn quick_matrix() -> Vec<(TestFunction, GaParams)> {
    let shapes: [(u8, u8, u8); 3] = [(32, 12, 1), (64, 13, 2), (128, 14, 3)];
    let mut cells = Vec::new();
    for f in [TestFunction::F3, TestFunction::Mbf6_2] {
        for &(pop, xt, mt) in &shapes {
            for &seed in &PRESET_SEEDS {
                cells.push((f, GaParams::new(pop, 4, xt, mt, seed)));
            }
        }
    }
    cells
}

fn system16(fem: FemSlot) -> GaSystem {
    GaSystem::new(FemBank::new(vec![fem]))
}

fn lookup(f: TestFunction) -> FemSlot {
    FemSlot::Lookup(LookupFem::for_function(f))
}

/// Everything a clock edge changes in a 16-bit system, as text.
fn state16(sys: &GaSystem) -> String {
    let m = sys.modules();
    format!(
        "cycles {} core {:?} mem {:?} rng {:?}",
        sys.cycles(),
        m.core,
        m.mem,
        m.rng
    )
}

/// Everything a clock edge changes in the dual-core system, as text.
fn state32<F: FnMut(u32) -> u16>(sys: &GaSystem32Hw<F>) -> String {
    format!("cycles {} halves {:?}", sys.cycles(), sys.halves())
}

/// Drive `fast` through `advance` and `slow` through single steps to
/// `GA_done`, comparing after every jump. Returns (jumps, jumped cycles).
fn lockstep16(fast: &mut GaSystem, slow: &mut GaSystem, params: &GaParams) -> (u64, u64) {
    fast.program(params);
    slow.program(params);
    fast.step(start());
    slow.step(start());
    let (mut jumps, mut jumped) = (0, 0);
    while !fast.modules().core.out().ga_done {
        let n = fast.advance(u64::MAX);
        for _ in 0..n {
            slow.step(UserIn::default());
        }
        if n > 1 {
            jumps += 1;
            jumped += n;
            assert_eq!(state16(fast), state16(slow), "after a {n}-cycle jump");
        }
    }
    assert!(slow.modules().core.out().ga_done);
    assert_eq!(state16(fast), state16(slow), "at GA_done");
    (jumps, jumped)
}

#[test]
fn scan_jumps_match_single_steps_at_width_16() {
    for (f, params) in quick_matrix() {
        let (jumps, jumped) =
            lockstep16(&mut system16(lookup(f)), &mut system16(lookup(f)), &params);
        let what = format!("{f:?} pop {} seed {:#06x}", params.pop_size, params.seed);
        // One jump per parent: the elite is copied, the rest selected.
        let parents = 2 * u64::from(params.n_gens) * u64::from(params.pop_size - 1).div_ceil(2);
        assert_eq!(jumps, parents, "{what}: every scan jumped");
        assert!(jumped > 0, "{what}");
    }
}

#[test]
fn scan_jumps_match_single_steps_on_the_cordic_fem() {
    // The iterative FEM is busy for dozens of cycles per evaluation;
    // it is idle again before every scan, so jumps still apply.
    let params = GaParams::new(32, 4, 12, 1, 0x2961);
    let cordic = || FemSlot::Cordic(CordicFem::new(TestFunction::Mbf6_2));
    let (jumps, _) = lockstep16(&mut system16(cordic()), &mut system16(cordic()), &params);
    assert!(jumps > 0);
}

#[test]
fn scan_jumps_match_single_steps_at_width_32() {
    for (f, params) in quick_matrix() {
        let fit = move |c: u32| f.eval_u32_split(c);
        let mut fast = GaSystem32Hw::new(fit);
        let mut slow = GaSystem32Hw::new(fit);
        fast.program(&params);
        slow.program(&params);
        fast.step(start());
        slow.step(start());
        let mut jumps = 0;
        let done = |s: &GaSystem32Hw<_>| s.halves().iter().all(|(c, _, _)| c.out().ga_done);
        while !done(&fast) {
            let n = fast.advance(u64::MAX);
            for _ in 0..n {
                slow.step(UserIn::default());
            }
            if n > 1 {
                jumps += 1;
                assert_eq!(state32(&fast), state32(&slow), "after a {n}-cycle jump");
            }
        }
        assert!(done(&slow));
        assert_eq!(state32(&fast), state32(&slow), "at GA_done");
        assert!(jumps > 0, "{f:?} pop {}: no scan jumped", params.pop_size);
    }
}

/// `start_GA` for one cycle.
fn start() -> UserIn {
    UserIn {
        start_ga: true,
        ..Default::default()
    }
}

/// A programmed 16-bit mBF6_2 system one cycle into its run.
fn started16(params: &GaParams) -> GaSystem {
    let mut sys = system16(lookup(TestFunction::Mbf6_2));
    sys.program(params);
    sys.step(start());
    sys
}

/// A programmed dual-core mBF6_2 system one cycle into its run.
fn started32(params: &GaParams) -> GaSystem32Hw<impl FnMut(u32) -> u16> {
    let mut sys = GaSystem32Hw::new(|c: u32| TestFunction::Mbf6_2.eval_u32_split(c));
    sys.program(params);
    sys.step(start());
    sys
}

/// The `nth` scan window of at least nine cycles met by `advance`,
/// called on a system one cycle into its run: `(first cycle, length)`,
/// counted from `start_GA` as the run loops' watchdog counts.
fn nth_window(nth: usize, mut advance: impl FnMut(u64) -> u64) -> (u64, u64) {
    let (mut at, mut seen) = (1, 0);
    loop {
        assert!(at < 10_000_000, "fewer than {nth} scan windows jumped");
        let n = advance(u64::MAX);
        if n >= 9 {
            seen += 1;
            if seen == nth {
                return (at, n);
            }
        }
        at += n;
    }
}

fn run_engine(kind: BackendKind, params: GaParams, watchdog: u64) -> Result<u64, EngineError> {
    let engine = ga_engine::global().get(kind).expect("backend registered");
    let spec = RunSpec {
        width: engine.capabilities().widths[0],
        workload: Workload::Function(TestFunction::Mbf6_2),
        params,
        deadline_ms: None,
    };
    let prepared = engine.prepare(spec).expect("admitted");
    let limits = Limits {
        sim_watchdog_cycles: watchdog,
        ..Limits::default()
    };
    engine
        .run(&prepared, &limits)
        .map(|o| o.cycles.unwrap_or_default())
}

#[test]
fn watchdog_inside_a_scan_window_trips_on_the_same_cycle() {
    let params = GaParams::new(32, 8, 10, 1, 0xB342);

    // rtl: single steps reach the bound mid-run, so the stepped loop
    // stops with Timeout { cycles: watchdog }; the skipping one must too.
    let mut fast = started16(&params);
    let (at, n) = nth_window(40, |limit| fast.advance(limit));
    let watchdog = at + n / 2 + 1;
    let mut slow = started16(&params);
    for _ in 1..watchdog {
        slow.step(UserIn::default());
    }
    assert!(!slow.modules().core.out().ga_done, "run ended early");
    assert_eq!(
        run_engine(BackendKind::RtlInterp, params, watchdog),
        Err(EngineError::Watchdog { cycles: watchdog })
    );

    // rtl32: the same bound against the dual-core system's own window.
    let mut fast = started32(&params);
    let (at, n) = nth_window(40, |limit| fast.advance(limit));
    let watchdog = at + n / 2 + 1;
    let mut slow = started32(&params);
    for _ in 1..watchdog {
        slow.step(UserIn::default());
    }
    assert!(!slow.halves()[0].0.out().ga_done, "run ended early");
    assert_eq!(
        run_engine(BackendKind::Rtl32, params, watchdog),
        Err(EngineError::Watchdog { cycles: watchdog })
    );

    // A bound one cycle short of the window's end keeps single steps;
    // a bound on its end lets the jump land on it.
    let mut fast = started16(&params);
    let (at, n) = nth_window(40, |limit| fast.advance(limit));
    for watchdog in [at + n - 1, at + n] {
        assert_eq!(
            run_engine(BackendKind::RtlInterp, params, watchdog),
            Err(EngineError::Watchdog { cycles: watchdog })
        );
    }
}

/// `GaSystem::run_with_faults` driven one `step()` at a time: the
/// reference the skipping run loop must match.
fn run_with_faults_stepped(
    sys: &mut GaSystem,
    max_cycles: u64,
    at_cycle: u64,
    ops: &[ScanBitOp],
) -> (Result<u64, SimError>, bool) {
    let t0 = sys.cycles();
    let mut injected = false;
    sys.step(start());
    let mut guard = sys.cycles() - t0;
    while !sys.modules().core.out().ga_done {
        if guard >= max_cycles {
            return (Err(SimError::Timeout { cycles: guard }), injected);
        }
        if !injected && guard >= at_cycle {
            sys.scan_inject(ops);
            injected = true;
        } else {
            sys.step(UserIn::default());
        }
        guard = sys.cycles() - t0;
    }
    (Ok(guard), injected)
}

#[test]
fn fault_inside_a_scan_window_lands_on_the_same_cycle() {
    let params = GaParams::new(32, 6, 10, 1, 0x061F);
    // Flip bits of cum, scan_idx and the threshold: the FSM resumes
    // mid-walk from the corrupted registers and the jumps after it
    // start there. The parent flips are masked only when the hit's data
    // cycle has not run yet, so a fault one cycle late shows.
    let ops = [
        ScanBitOp {
            position: scan_position("parent1"),
            kind: BitFault::Flip,
        },
        ScanBitOp {
            position: scan_position("parent2"),
            kind: BitFault::Flip,
        },
        ScanBitOp {
            position: scan_position("cum") + 3,
            kind: BitFault::Flip,
        },
        ScanBitOp {
            position: scan_position("scan_idx") + 1,
            kind: BitFault::Flip,
        },
        ScanBitOp {
            position: scan_position("threshold") + 31,
            kind: BitFault::Flip,
        },
    ];
    // A first-parent and a second-parent scan.
    let windows = [24, 25].map(|nth| {
        let mut sys = started16(&params);
        nth_window(nth, |limit| sys.advance(limit))
    });
    for at_cycle in windows
        .iter()
        .flat_map(|&(at, n)| [at + 1, at + n / 2, at + n - 1])
    {
        let mut fast = system16(lookup(TestFunction::Mbf6_2));
        fast.program(&params);
        let got = fast.run_with_faults(50_000_000, at_cycle, &ops);
        let mut slow = system16(lookup(TestFunction::Mbf6_2));
        slow.program(&params);
        let (want, want_injected) = run_with_faults_stepped(&mut slow, 50_000_000, at_cycle, &ops);
        let (run, injected) = got.expect("the fault leaves a finishing run");
        assert!(injected && want_injected, "fault at {at_cycle} landed");
        assert_eq!(Ok(run.cycles), want, "fault at {at_cycle}");
        assert_eq!(run.best.chrom, slow.modules().core.out().candidate);
        assert_eq!(state16(&fast), state16(&slow), "fault at {at_cycle}");
    }
}

/// First scan-chain position of the named field.
fn scan_position(field: &str) -> usize {
    let mut pos = 0;
    for &(name, width) in GaCoreHw::SCAN_FIELDS {
        if name == field {
            return pos;
        }
        pos += width;
    }
    panic!("no scan field {field}")
}

#[test]
fn zeroed_pop_size_fault_never_panics() {
    // Forcing every pop_size bit to 0 mid-run: the scan's fall-through
    // compare `scan_idx == pop_size − 1` must wrap like the 8-bit
    // comparator (to 255), not overflow.
    let params = GaParams::new(16, 4, 10, 1, 0x2961);
    let base = scan_position("pop_size");
    let ops: Vec<ScanBitOp> = (base..base + 8)
        .map(|position| ScanBitOp {
            position,
            kind: BitFault::Force0,
        })
        .collect();
    for at_cycle in [300, 2_000, 5_000] {
        let mut sys = system16(lookup(TestFunction::F3));
        sys.program(&params);
        let got = match sys.run_with_faults(2_000_000, at_cycle, &ops) {
            Ok((run, _)) => Ok(run.cycles),
            Err(e @ SimError::Timeout { .. }) => Err(e),
            Err(e) => panic!("fault at {at_cycle}: unexpected {e:?}"),
        };
        // Single steps run every scan compare the jump computes.
        let mut slow = system16(lookup(TestFunction::F3));
        slow.program(&params);
        let (want, _) = run_with_faults_stepped(&mut slow, 2_000_000, at_cycle, &ops);
        assert_eq!(got, want, "fault at {at_cycle}");
        assert_eq!(state16(&sys), state16(&slow), "fault at {at_cycle}");
    }
}

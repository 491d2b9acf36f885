//! Run-window jumps are invisible, cycle for cycle.
//!
//! `GaSystem::advance` and `GaSystem32Hw::advance` jump a whole run
//! window in one host step where one starts and fits the limit: a
//! generation from `ElitWrite` through `GenEnd`'s edge, or the initial
//! population from its first `InitPopDraw` through the last
//! `InitPopUpdate`. Anywhere else they take one `step()`. Each test here
//! drives one system through `advance` and a reference system through
//! `step()`, one clock at a time, and requires the two to agree on
//! everything a clock edge can change: the cycle count, every core
//! register (the core's derived `Debug` covers the 408 scan-chain bits
//! plus the FSM state, bank bases, multiplier counter, selection and
//! offspring phases, cycle profile and draw count), the GA memories with
//! their read registers, the RNG state and the fitness modules. The
//! tests compare after each run window, at `GA_done`, at each `SelDraw`
//! or at their probe cycles, not after every stepped cycle: formatting
//! the whole system costs far more than the cycle. The watchdog and scheduled scan faults
//! must trip on the cycle they trip on with single steps, even when it
//! falls inside a run window, where the run loop steps instead. The
//! probe cycles (inside a parent selection's multiplier wait or scan, an
//! initial member's handshake, an offspring) are found by single steps
//! ([`states`]).

use carng::seeds::PRESET_SEEDS;
use ga_core::{GaCoreHw, GaSystem32Hw, Port};
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

/// A served heal job's workload: the demo target with a stuck cell.
fn heal() -> Workload {
    Workload::VrcHeal {
        target: Vrc::new(0x1B26).truth_table(),
        fault: Fault::StuckAt {
            cell: 2,
            value: true,
        },
    }
}

/// The block ROM a served `rtl` job runs on: its per-job word source
/// read through `LookupFem::from_fn`.
fn served(workload: Workload) -> FemSlot {
    FemSlot::Lookup(LookupFem::from_fn(workload.words()))
}

/// The dual-core system on the split-average extension of `f`.
fn system32(f: TestFunction) -> GaSystem32Hw<impl Fn(u32) -> u16 + Send + Sync + 'static> {
    GaSystem32Hw::new(move |c: u32| f.eval_u32_split(c))
}

/// The current value of register `field` in a core's `Debug` text.
fn reg<'a>(dbg: &'a str, field: &str) -> &'a str {
    let key = format!("{field}: Reg {{ cur: ");
    let at = dbg.find(&key).expect("register in the core's Debug") + key.len();
    let rest = &dbg[at..];
    &rest[..rest.find(',').expect("Reg prints cur, nxt")]
}

/// The FSM state a core is in.
fn fsm(core: &GaCoreHw) -> String {
    reg(&format!("{core:?}"), "state").to_string()
}

/// `GA_done` on every core.
fn done<P>(sys: &GaSystem<P>) -> bool {
    sys.halves().iter().all(|(c, _, _)| c.out().ga_done)
}

/// The trace samples the generation events stamp.
fn samples<P>(sys: &GaSystem<P>) -> [Option<hwsim::TraceSeries>; 2] {
    ["best_fitness", "sum_fitness"].map(|name| sys.trace().series(name).cloned())
}

/// Drive `runs` through `advance` with no limit and `slow` through
/// single steps to `GA_done`, and require both to agree after each run
/// window and at `GA_done`, on every register and on the trace samples.
/// Returns the state core 1 was in at each `advance` call, and whether
/// the call jumped a run window.
fn assert_run_windows_match<P: Port>(
    new: impl Fn() -> GaSystem<P>,
    params: &GaParams,
) -> Vec<(String, bool)> {
    let [mut runs, mut slow] = [new(), new()];
    for sys in [&mut runs, &mut slow] {
        sys.program(params);
        sys.step(start());
    }
    let mut calls = Vec::new();
    while !done(&runs) {
        let at = fsm(runs.halves()[0].0);
        let n = runs.advance(u64::MAX);
        for _ in 0..n {
            slow.step(UserIn::default());
        }
        calls.push((at.clone(), n > 1));
        if n > 1 {
            assert_eq!(format!("{runs:?}"), format!("{slow:?}"), "after {at}");
            assert_eq!(samples(&runs), samples(&slow), "after {at}");
        }
    }
    assert!(done(&slow));
    assert_eq!(format!("{runs:?}"), format!("{slow:?}"), "at GA_done");
    assert_eq!(samples(&runs), samples(&slow), "at GA_done");
    assert_eq!(runs.host_steps(), calls.len() as u64);
    calls
}

/// The `advance` calls of a run: the `Start` cycle stepped, the initial
/// population jumped, then a `GenCheck` step and a generation jumped per
/// generation, and the last `GenCheck` stepped.
fn one_window_per_generation(params: &GaParams) -> Vec<(String, bool)> {
    let call = |at: &str, jumped| (at.to_string(), jumped);
    let mut calls = vec![call("Start", false), call("InitPopDraw", true)];
    for _ in 0..params.n_gens {
        calls.extend([call("GenCheck", false), call("ElitWrite", true)]);
    }
    calls.push(call("GenCheck", false));
    calls
}

#[test]
fn run_windows_land_where_one_window_jumps_land_at_width_16() {
    // Each function's block ROM, and on every shape and seed a heal
    // job's, whose words come from its per-job source.
    for (f, params) in quick_matrix() {
        let mut modules = vec![(format!("{f:?}"), lookup(f))];
        if f == TestFunction::F3 {
            modules.push(("heal".to_string(), served(heal())));
        }
        for (module, fem) in modules {
            let calls = assert_run_windows_match(|| system16(fem.clone()), &params);
            let what = format!("{module} pop {} seed {:#06x}", params.pop_size, params.seed);
            assert_eq!(calls, one_window_per_generation(&params), "{what}");
        }
    }
}

#[test]
fn run_windows_land_where_one_window_jumps_land_at_width_32() {
    for (f, params) in quick_matrix() {
        let calls = assert_run_windows_match(|| system32(f), &params);
        let what = format!("{f:?} pop {} seed {:#06x}", params.pop_size, params.seed);
        assert_eq!(calls, one_window_per_generation(&params), "{what}");
    }
}

/// A limit no run window of `params` fits: the longest parent
/// selection, a scan through the whole bank, takes `5 + 3 × pop_size`
/// cycles, while the initial population alone takes `7 × pop_size` and
/// a generation far more.
fn below_every_run_window(params: &GaParams) -> u64 {
    5 + 3 * u64::from(params.pop_size)
}

/// Drive `fast` through `advance(limit)` and `slow` through single
/// steps to `GA_done`. Every call must take exactly one step, and the
/// two must agree on the cores, RNGs and memories at each `SelDraw`
/// (the cycle after each generation's elite write and after each
/// first parent's hit, so every scan is checked by the next one's
/// draw) and on everything at `GA_done`. Returns the `SelDraw` cycles
/// compared.
fn assert_every_scan_stepped<P: Port>(
    new: impl Fn() -> GaSystem<P>,
    params: &GaParams,
    limit: u64,
) -> u64 {
    let [mut fast, mut slow] = [new(), new()];
    for sys in [&mut fast, &mut slow] {
        sys.program(params);
    }
    let t0 = fast.cycles();
    for sys in [&mut fast, &mut slow] {
        sys.step(start());
    }
    let mut draws = 0;
    while !done(&fast) {
        assert_eq!(fast.advance(limit), 1, "at cycle {}", fast.cycles());
        slow.step(UserIn::default());
        if fast.halves()[0].0.is_sel_draw() {
            draws += 1;
            assert_eq!(fast.cycles(), slow.cycles());
            assert_eq!(
                format!("{:?}", fast.halves()),
                format!("{:?}", slow.halves()),
                "at cycle {}",
                fast.cycles()
            );
        }
    }
    assert!(done(&slow));
    assert_eq!(format!("{fast:?}"), format!("{slow:?}"), "at GA_done");
    assert_eq!(samples(&fast), samples(&slow), "at GA_done");
    assert_eq!(fast.host_steps() + 1, fast.cycles() - t0, "no run window");
    draws
}

/// The parent selections of a run of `params`: the elite is copied,
/// the rest selected in pairs.
fn selections_per_run(params: &GaParams) -> u64 {
    let (pop, gens) = (u64::from(params.pop_size), u64::from(params.n_gens));
    2 * gens * (pop - 1).div_ceil(2)
}

#[test]
fn scan_jumps_match_single_steps_at_width_16() {
    // Under a limit no run window fits, `advance` steps through every
    // cycle of every scan, and each scan ends where single steps end it.
    for (f, params) in quick_matrix() {
        let limit = below_every_run_window(&params);
        let draws = assert_every_scan_stepped(|| system16(lookup(f)), &params, limit);
        let what = format!("{f:?} pop {} seed {:#06x}", params.pop_size, params.seed);
        assert_eq!(draws, selections_per_run(&params), "{what}");
    }
}

#[test]
fn scan_jumps_match_single_steps_at_width_32() {
    for (f, params) in quick_matrix() {
        let limit = below_every_run_window(&params);
        let draws = assert_every_scan_stepped(|| system32(f), &params, limit);
        let what = format!("{f:?} pop {} seed {:#06x}", params.pop_size, params.seed);
        assert_eq!(draws, selections_per_run(&params), "{what}");
    }
}

#[test]
fn scan_jumps_match_single_steps_on_the_cordic_fem() {
    // The iterative FEM is busy for dozens of cycles per evaluation, so
    // even with no limit every `advance` is one step, and every scan
    // ends where single steps end it.
    let params = GaParams::new(32, 4, 12, 1, 0x2961);
    let cordic = || system16(FemSlot::Cordic(CordicFem::new(TestFunction::Mbf6_2)));
    let draws = assert_every_scan_stepped(cordic, &params, u64::MAX);
    assert_eq!(draws, selections_per_run(&params));
}

#[test]
fn run_windows_keep_the_cordic_fem_and_a_fast_fem_clock_on_one_window_jumps() {
    // A module that answers in no fixed number of edges, or one in a
    // faster clock domain, keeps every run window on the fallback: each
    // `advance` where one would start, `InitPopDraw` or `ElitWrite`, is
    // one step, and the run lands where single steps land it.
    let params = GaParams::new(32, 4, 12, 1, 0x2961);
    let cordic = || system16(FemSlot::Cordic(CordicFem::new(TestFunction::Mbf6_2)));
    let fast_domain = || {
        let mut sys = system16(lookup(TestFunction::Mbf6_2));
        sys.fast_domain_ratio = 4;
        sys
    };
    for (what, new) in [
        ("cordic", &cordic as &dyn Fn() -> GaSystem),
        ("ratio 4", &fast_domain),
    ] {
        let calls = assert_run_windows_match(new, &params);
        assert!(calls.iter().all(|(_, jumped)| !jumped), "{what}");
        let from = |at: &str| calls.iter().filter(|(c, _)| c == at).count() as u64;
        assert_eq!(from("InitPopDraw"), u64::from(params.pop_size), "{what}");
        assert_eq!(from("ElitWrite"), u64::from(params.n_gens), "{what}");
    }
}

#[test]
fn served_shapes_take_one_run_window_per_generation() {
    // The shapes the served `rtl` and `rtl32` jobs run, on the modules
    // they run on: a function or a heal fitness computed on read. Every
    // run takes `3 + 2 × gens` host steps (see
    // `one_window_per_generation`), so a change that refuses run windows
    // on a served shape fails here instead of quietly stepping every
    // cycle.
    for pop in [16, 24, 32] {
        for gens in [8, 16, 24, 32] {
            let params = GaParams::new(pop, gens, 10, 1, 0x2961);
            let want = 3 + 2 * u64::from(gens);
            for (what, fem) in [
                ("function", served(TestFunction::Mbf6_2.into())),
                ("heal", served(heal())),
            ] {
                let mut sys = system16(fem);
                sys.program_and_run(&params, u64::MAX).expect("finishes");
                assert_eq!(sys.host_steps(), want, "{what} pop {pop} gens {gens}");
            }
            let mut sys = system32(TestFunction::Mbf6_2);
            sys.program_and_run(&params, u64::MAX).expect("finishes");
            assert_eq!(sys.host_steps(), want, "width 32 pop {pop} gens {gens}");
        }
    }
}

#[test]
fn handshakes_jump_only_on_the_block_rom_at_the_ga_clock() {
    // A module that answers in no fixed number of edges, one on the
    // Table II external ports, and the block ROM in a faster application
    // clock domain: every `advance` is one step, and the run ends where
    // single steps end it.
    let params = GaParams::new(32, 4, 12, 1, 0x2961);
    let cordic = || system16(FemSlot::Cordic(CordicFem::new(TestFunction::Mbf6_2)));
    let external = || {
        GaSystem::new(FemBank::new(vec![FemSlot::External]))
            .with_external_fem(Box::new(LookupFem::for_function(TestFunction::Mbf6_2)))
    };
    let fast_domain = || {
        let mut sys = system16(lookup(TestFunction::Mbf6_2));
        sys.fast_domain_ratio = 4;
        sys
    };
    for (what, new) in [
        ("cordic", &cordic as &dyn Fn() -> GaSystem),
        ("external", &external),
        ("ratio 4", &fast_domain),
    ] {
        let mut fast = new();
        fast.program(&params);
        let run = fast.run(u64::MAX).expect("finishes");
        assert_eq!(fast.host_steps() + 1, run.cycles, "{what}: no run window");
        let mut slow = new();
        slow.program(&params);
        let (want, _) = run_with_faults_stepped(&mut slow, u64::MAX, u64::MAX, &[]);
        assert_eq!(Ok(run.cycles), want, "{what}");
        assert_eq!(format!("{fast:?}"), format!("{slow:?}"), "{what}");
        assert_eq!(samples(&fast), samples(&slow), "{what}");
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

/// Core 1's FSM state on each of the first `cycles` cycles of a run of
/// `params` on `sys`, by single steps, counted as the run loops'
/// watchdog and fault schedule count: entry `k` is the state the cycle
/// after the first `k` runs in, entry 0 the `start_GA` cycle's. Stops
/// early at `GA_done`.
fn states<P: Port>(mut sys: GaSystem<P>, params: &GaParams, cycles: usize) -> Vec<String> {
    sys.program(params);
    let mut states = Vec::with_capacity(cycles);
    while states.len() < cycles && !done(&sys) {
        states.push(fsm(sys.halves()[0].0));
        sys.step(if states.len() == 1 {
            start()
        } else {
            UserIn::default()
        });
    }
    states
}

/// `(first cycle, length)` of a stretch of a run, counted as [`states`]
/// counts.
type Span = (u64, u64);

/// Each stretch of `s` from a cycle `starts` accepts through the first
/// cycle from there that `ends` accepts.
fn spans(s: &[String], starts: impl Fn(usize) -> bool, ends: impl Fn(usize) -> bool) -> Vec<Span> {
    (0..s.len())
        .filter(|&k| starts(k))
        .filter_map(|at| {
            let end = (at..s.len() - 1).find(|&k| ends(k))?;
            Some((at as u64, (end - at + 1) as u64))
        })
        .collect()
}

/// Each generation, `ElitWrite` through `GenEnd`.
fn generations(s: &[String]) -> Vec<Span> {
    spans(s, |k| s[k] == "ElitWrite", |k| s[k] == "GenEnd")
}

/// Each parent selection that walks at least two members, `SelDraw`
/// through the hit's `SelScanData` (`5 + 3 ×` members walked cycles).
fn selections(s: &[String]) -> Vec<Span> {
    let hit = |k: usize| s[k] == "SelScanData" && s[k + 1] != "SelScanAddr";
    let all = spans(s, |k| s[k] == "SelDraw", hit);
    all.into_iter().filter(|&(_, n)| n >= 11).collect()
}

/// Each initial member's fitness handshake, `InitPopFitReq` through the
/// cycle that latches `fit_valid`.
fn handshakes(s: &[String]) -> Vec<Span> {
    spans(
        s,
        |k| s[k] == "InitPopFitReq",
        |k| s[k + 1] == "InitPopStore",
    )
}

/// Each pair's first offspring, `XoverDecide` through its `OffUpdate`.
fn first_offspring(s: &[String]) -> Vec<Span> {
    spans(s, |k| s[k] == "XoverDecide", |k| s[k] == "OffUpdate")
}

/// Each pair's second offspring, `MutDecide` through its `OffUpdate`.
fn second_offspring(s: &[String]) -> Vec<Span> {
    let second = |k: usize| k > 0 && s[k] == "MutDecide" && s[k - 1] == "OffUpdate";
    spans(s, second, |k| s[k] == "OffUpdate")
}

/// The `nth` (from 1) of `spans`.
fn nth(spans: Vec<Span>, nth: usize) -> Span {
    *spans.get(nth - 1).expect("the run has that many")
}

#[test]
fn watchdog_inside_a_generation_window_trips_on_the_same_cycle() {
    // Inside the third generation, on its last cycle and one short of
    // it: the run loop steps the generation instead and stops on the
    // bound, with the registers single steps leave.
    let params = GaParams::new(32, 8, 10, 1, 0xB342);
    let s16 = states(system16(lookup(TestFunction::Mbf6_2)), &params, 8_000);
    let (at, n) = nth(generations(&s16), 3);
    for watchdog in [at + 1, at + n / 2, at + n - 1, at + n] {
        let mut fast = system16(lookup(TestFunction::Mbf6_2));
        fast.program(&params);
        let got = fast.run(watchdog).map(|r| r.cycles);
        let mut slow = system16(lookup(TestFunction::Mbf6_2));
        slow.program(&params);
        let (want, _) = run_with_faults_stepped(&mut slow, watchdog, u64::MAX, &[]);
        assert_eq!(got, want, "watchdog {watchdog}");
        assert_eq!(got, Err(SimError::Timeout { cycles: watchdog }));
        assert_eq!(
            format!("{fast:?}"),
            format!("{slow:?}"),
            "watchdog {watchdog}"
        );
    }
    // The dual-core system stops on the same bound.
    let s32 = states(system32(TestFunction::Mbf6_2), &params, 8_000);
    let (at, n) = nth(generations(&s32), 3);
    let watchdog = at + n / 2;
    assert_eq!(
        run_engine(BackendKind::Rtl32, params, watchdog),
        Err(EngineError::Watchdog { cycles: watchdog })
    );
}

fn run_engine(kind: BackendKind, params: GaParams, watchdog: u64) -> Result<u64, EngineError> {
    let engine = kind.engine();
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
    // Mid-scan, inside the multiplier wait, inside an initial member's
    // handshake, and on every cycle inside a first and a second
    // offspring, at both widths; on the 16-bit core also one cycle
    // short of each one's end and on it. Each falls inside a run window,
    // so the run loop steps there; each engine stops with `Watchdog` on
    // exactly the bound, before the stepped reference finishes.
    let params = GaParams::new(32, 8, 10, 1, 0xB342);
    let s16 = states(system16(lookup(TestFunction::Mbf6_2)), &params, 8_000);
    let s32 = states(system32(TestFunction::Mbf6_2), &params, 8_000);
    for (kind, s) in [(BackendKind::RtlInterp, &s16), (BackendKind::Rtl32, &s32)] {
        let mut bounds = Vec::new();
        let (at, n) = nth(selections(s), 40);
        bounds.extend([at + n / 2 + 1, at + 2]);
        bounds.push(nth(selections(s), 41).0 + 4);
        let (at, _) = nth(handshakes(s), 25);
        bounds.extend((1..4).map(|k| at + k));
        for (at, n) in [nth(first_offspring(s), 20), nth(second_offspring(s), 20)] {
            bounds.extend((1..n).map(|k| at + k));
        }
        if kind == BackendKind::RtlInterp {
            for (at, n) in [
                nth(selections(s), 40),
                nth(handshakes(s), 25),
                nth(first_offspring(s), 40),
                nth(second_offspring(s), 40),
            ] {
                bounds.extend([at + n - 1, at + n]);
            }
        }
        for watchdog in bounds {
            assert!(watchdog < s.len() as u64, "the run ends past the bound");
            assert_eq!(
                run_engine(kind, params, watchdog),
                Err(EngineError::Watchdog { cycles: watchdog }),
                "{kind:?}"
            );
        }
    }
}

/// `GaSystem::run_with_faults` driven one `step()` at a time: the
/// reference the jumping run loop must match.
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

/// The FSM states of the first 6 000 cycles of the 16-bit mBF6_2 run
/// the fault tests inject into.
fn fault_run(params: &GaParams) -> Vec<String> {
    states(system16(lookup(TestFunction::Mbf6_2)), params, 6_000)
}

#[test]
fn fault_inside_a_generation_window_lands_on_the_same_cycle() {
    // Flips of the fill index, the fitness sums, a parent and the
    // threshold, scheduled inside a generation: the run loop steps that
    // generation, and the run windows after it start from the corrupted
    // registers.
    let params = GaParams::new(32, 6, 10, 1, 0x061F);
    let ops = [
        ("idx", 1),
        ("new_sum", 4),
        ("fit_sum", 9),
        ("parent2", 6),
        ("threshold", 12),
    ]
    .map(|(field, bit)| flip(field, bit));
    let (at, n) = nth(generations(&fault_run(&params)), 2);
    for at_cycle in [at + 1, at + n / 3, at + n - 1] {
        assert_fault_lands_alike(&params, at_cycle, &ops);
    }
}

#[test]
fn fault_inside_a_scan_window_lands_on_the_same_cycle() {
    let params = GaParams::new(32, 6, 10, 1, 0x061F);
    // Flip bits of cum, scan_idx and the threshold: the FSM resumes
    // mid-scan from the corrupted registers. The parent flips are masked
    // only when the hit's data cycle has not run yet, so a fault one
    // cycle late shows; the candidate and fitness flips likewise show
    // only on one side of a handshake's request and latch cycles.
    let ops = [
        ("parent1", 0),
        ("parent2", 0),
        ("cum", 3),
        ("scan_idx", 1),
        ("threshold", 31),
        ("cand", 2),
        ("fit_reg", 5),
    ]
    .map(|(field, bit)| flip(field, bit));
    // A first-parent and a second-parent scan, each in its multiplier
    // wait and its scan, and a handshake in each of its cycles.
    let s = fault_run(&params);
    let mut at_cycles = Vec::new();
    for k in [24, 25] {
        let (at, n) = nth(selections(&s), k);
        at_cycles.extend([at + 1, at + 3, at + n / 2, at + n - 1]);
    }
    for k in [30, 31] {
        let (at, _) = nth(handshakes(&s), k);
        at_cycles.extend([at + 1, at + 2, at + 3]);
    }
    for at_cycle in at_cycles {
        assert_fault_lands_alike(&params, at_cycle, &ops);
    }
}

#[test]
fn fault_inside_an_offspring_window_lands_on_the_same_cycle() {
    let params = GaParams::new(32, 6, 10, 1, 0x061F);
    // Flip the fitness latch, the fill index, both offspring, the
    // candidate and the new population's sum, on the cycle a first and
    // a second offspring start in and on every cycle inside them.
    let ops = [
        ("fit_reg", 5),
        ("idx", 0),
        ("off1", 3),
        ("off2", 12),
        ("cand", 7),
        ("new_sum", 2),
    ]
    .map(|(field, bit)| flip(field, bit));
    let s = fault_run(&params);
    for (at, n) in [nth(first_offspring(&s), 40), nth(second_offspring(&s), 40)] {
        for at_cycle in at..at + n {
            assert_fault_lands_alike(&params, at_cycle, &ops);
        }
    }
}

#[test]
fn a_store_onto_the_read_address_reads_before_it_writes() {
    // An offspring's `OffStore` cycle reads the memory at the address of
    // the last read or store, then `OffUpdate`'s cycle writes the
    // offspring. Faults in the fill index make the write land on that
    // very address; the generations after it, jumped whole, must start
    // from the memory single steps leave.
    let params = GaParams::new(32, 6, 10, 1, 0x061F);
    // Within the new bank: a generation's second offspring starts with
    // idx 2; flipping its two low bits stores it onto the first
    // offspring's word, at idx 1.
    let at = cycle_where(&params, |core| {
        reg(core, "state") == "MutDecide" && reg(core, "idx") == "2"
    });
    assert_jumps_after_fault_match(&params, at, &[flip("idx", 0), flip("idx", 1)]);
    // Across the banks: flipping idx's top bit moves a first offspring's
    // store into the current population, onto parent 2's word when
    // parent 2 sits at the same offset (and differs from parent 1, so
    // the offspring's word differs from parent 2's).
    let at = cycle_where(&params, |core| {
        reg(core, "state") == "XoverDecide"
            && reg(core, "idx") == reg(core, "scan_idx")
            && reg(core, "parent1") != reg(core, "parent2")
    });
    assert_jumps_after_fault_match(&params, at, &[flip("idx", 7)]);
}

/// `ops` injected through the scan chain `at` cycles into a 16-bit
/// mBF6_2 run of `params` on a jumping and a stepped system: the two
/// agree after every run window that follows, and at `GA_done`.
fn assert_jumps_after_fault_match(params: &GaParams, at: u64, ops: &[ScanBitOp]) {
    let mut fast = started16(params);
    let mut slow = started16(params);
    let mut now = 1;
    while now < at {
        let n = fast.advance(at - now);
        for _ in 0..n {
            slow.step(UserIn::default());
        }
        now += n;
    }
    fast.scan_inject(ops);
    slow.scan_inject(ops);
    let mut jumps = 0;
    while !fast.modules().core.out().ga_done {
        let n = fast.advance(u64::MAX);
        for _ in 0..n {
            slow.step(UserIn::default());
        }
        if n > 1 {
            jumps += 1;
            assert_eq!(
                format!("{fast:?}"),
                format!("{slow:?}"),
                "after a {n}-cycle jump, fault at {at}"
            );
        }
    }
    assert!(jumps > 0, "fault at {at}: no run window followed");
    assert_eq!(
        format!("{fast:?}"),
        format!("{slow:?}"),
        "at GA_done, fault at {at}"
    );
}

/// A bit flip at the named scan field's bit `bit`.
fn flip(field: &str, bit: usize) -> ScanBitOp {
    ScanBitOp {
        position: scan_position(field) + bit,
        kind: BitFault::Flip,
    }
}

/// The first cycle of a 16-bit mBF6_2 run of `params` whose core
/// registers `pick` accepts (given the core's `Debug` text), by single
/// steps, counted as [`states`] counts.
fn cycle_where(params: &GaParams, pick: impl Fn(&str) -> bool) -> u64 {
    let mut sys = started16(params);
    let mut at = 1;
    loop {
        let core = &sys.modules().core;
        assert!(!core.out().ga_done, "no cycle fits");
        if pick(&format!("{core:?}")) {
            return at;
        }
        sys.step(UserIn::default());
        at += 1;
    }
}

/// `ops` injected `at_cycle` cycles into a 16-bit mBF6_2 run of
/// `params`: the jumping run loop and single steps finish on the same
/// cycle with the same registers.
fn assert_fault_lands_alike(params: &GaParams, at_cycle: u64, ops: &[ScanBitOp]) {
    let mut fast = system16(lookup(TestFunction::Mbf6_2));
    fast.program(params);
    let got = fast.run_with_faults(50_000_000, at_cycle, ops);
    let mut slow = system16(lookup(TestFunction::Mbf6_2));
    slow.program(params);
    let (want, want_injected) = run_with_faults_stepped(&mut slow, 50_000_000, at_cycle, ops);
    let (run, injected) = got.expect("the fault leaves a finishing run");
    assert!(injected && want_injected, "fault at {at_cycle} landed");
    assert_eq!(Ok(run.cycles), want, "fault at {at_cycle}");
    assert_eq!(run.best.chrom, slow.modules().core.out().candidate);
    assert_eq!(
        format!("{fast:?}"),
        format!("{slow:?}"),
        "fault at {at_cycle}"
    );
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
        // Single steps run every scan compare the run loop may skip.
        let mut slow = system16(lookup(TestFunction::F3));
        slow.program(&params);
        let (want, _) = run_with_faults_stepped(&mut slow, 2_000_000, at_cycle, &ops);
        assert_eq!(got, want, "fault at {at_cycle}");
        assert_eq!(
            format!("{sys:?}"),
            format!("{slow:?}"),
            "fault at {at_cycle}"
        );
    }
}

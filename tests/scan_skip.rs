//! Quiet-window jumps are invisible, cycle for cycle.
//!
//! `GaSystem::advance` and `GaSystem32Hw::advance` jump a whole run
//! window in one host step where one starts and fits the limit: a
//! generation from `ElitWrite` through `GenEnd`'s edge, or the initial
//! population from its first `InitPopDraw` through the last `InitPopUpdate`.
//! Otherwise they jump one quiet window: a parent selection from
//! `SelDraw`, `SelMulWait` or `SelScanAddr` through the hit's data
//! cycle, an offspring from `XoverDecide`, `MutDecide` or `OffFitReq`
//! through `OffUpdate`, or an initial-population handshake from
//! `InitPopFitReq` through the cycle that latches `fit_valid`. Each test
//! here drives one system through `advance` and a reference system
//! through `step()`, one clock at a time, and requires the two to agree
//! on everything a clock edge can change: the cycle count, every core
//! register (the core's derived `Debug` covers the 408 scan-chain bits
//! plus the FSM state, bank bases, multiplier counter, selection and
//! offspring phases, cycle profile and draw count), the GA memories with
//! their read registers, the RNG state and the fitness modules. Tests of
//! the one-window jumps pass `advance` a limit no run window fits
//! ([`window_limit`]). The watchdog and scheduled scan faults must trip
//! on the cycle they trip on with single steps, even when it falls
//! inside a window.

use std::collections::BTreeMap;

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

/// Everything a clock edge changes in a 16-bit system, as text.
fn state16(sys: &GaSystem) -> String {
    let m = sys.modules();
    format!(
        "cycles {} core {:?} mem {:?} rng {:?} fems {:?} ext {:?}",
        sys.cycles(),
        m.core,
        m.mem,
        m.rng,
        m.fems,
        m.ext_fem.as_ref().map(|e| e.out())
    )
}

/// Everything a clock edge changes in the dual-core system, as text.
fn state32<F: FnMut(u32) -> u16>(sys: &GaSystem32Hw<F>) -> String {
    format!("{sys:?}")
}

/// The current value of register `field` in a core's `Debug` text.
fn reg<'a>(dbg: &'a str, field: &str) -> &'a str {
    let key = format!("{field}: Reg {{ cur: ");
    let at = dbg.find(&key).expect("register in the core's Debug") + key.len();
    let rest = &dbg[at..];
    &rest[..rest.find(',').expect("Reg prints cur, nxt")]
}

/// Where a window would start: the core's FSM state, with the
/// multiplier count in `SelMulWait` and a `+write` mark while a memory
/// write is pending.
fn window_start(core: &GaCoreHw) -> String {
    let dbg = format!("{core:?}");
    let mut at = reg(&dbg, "state").to_string();
    if at == "SelMulWait" {
        at = format!("{at}/{}", reg(&dbg, "mult_cnt"));
    }
    if reg(&dbg, "mem_wr") == "true" {
        at.push_str("+write");
    }
    at
}

/// Every state a quiet window may start in.
const ACCEPTED: [&str; 10] = [
    "SelDraw",
    "SelMulWait/3",
    "SelMulWait/2",
    "SelMulWait/1",
    "SelMulWait/0",
    "SelScanAddr",
    "XoverDecide",
    "MutDecide",
    "OffFitReq",
    "InitPopFitReq",
];

/// The cycles of an offspring window that no window starts in: the
/// handshake waits, `OffStore`, and `OffUpdate` with its pending write.
const INSIDE_OFFSPRING: [&str; 3] = ["OffFitWait", "OffStore", "OffUpdate+write"];

/// `advance` calls by the state they were made in: `[stepped, jumped]`.
type Tally = BTreeMap<String, [u64; 2]>;

fn merge(into: &mut Tally, from: Tally) {
    for (at, [stepped, jumped]) in from {
        let e = into.entry(at).or_default();
        e[0] += stepped;
        e[1] += jumped;
    }
}

fn jumped(t: &Tally, at: &str) -> u64 {
    t.get(at).map_or(0, |e| e[1])
}

fn stepped(t: &Tally, at: &str) -> u64 {
    t.get(at).map_or(0, |e| e[0])
}

/// Single steps to take before the next `advance`: none with `stagger`
/// off; with it on, 0..=8 in turn at each `SelDraw` and at each
/// `XoverDecide`. So windows start in `SelDraw`, at every multiplier
/// count, at the top of the scan and part way through it, and at each
/// of `XoverDecide`, `MutDecide` and `OffFitReq`; `advance` is also
/// called in every other cycle of an offspring (each handshake wait,
/// `OffStore`, `OffUpdate`).
#[derive(Default)]
struct Lead {
    stagger: bool,
    selections: u64,
    offspring: u64,
}

impl Lead {
    fn before(&mut self, at: &str) -> u64 {
        let count = match at {
            "SelDraw" => &mut self.selections,
            "XoverDecide" => &mut self.offspring,
            _ => return 0,
        };
        if !self.stagger {
            return 0;
        }
        *count += 1;
        *count % 9
    }
}

/// A limit each one-window jump of a run of `params` fits and no run
/// window does: the longest selection, a scan through the whole bank,
/// takes `5 + 3 × pop_size` cycles, while the initial population alone
/// takes `7 × pop_size` and a generation far more.
fn window_limit(params: &GaParams) -> u64 {
    5 + 3 * u64::from(params.pop_size)
}

/// Drive `fast` through `advance` (after the [`Lead`] steps) and `slow`
/// through single steps to `GA_done`, comparing after every jump.
/// `advance` gets the [`window_limit`], so it jumps one window at a
/// time.
fn lockstep16(fast: &mut GaSystem, slow: &mut GaSystem, params: &GaParams, stagger: bool) -> Tally {
    fast.program(params);
    slow.program(params);
    fast.step(start());
    slow.step(start());
    let mut lead = Lead {
        stagger,
        ..Lead::default()
    };
    let mut tally = Tally::new();
    while !fast.modules().core.out().ga_done {
        for _ in 0..lead.before(&window_start(&fast.modules().core)) {
            fast.step(UserIn::default());
            slow.step(UserIn::default());
        }
        if fast.modules().core.out().ga_done {
            break;
        }
        let at = window_start(&fast.modules().core);
        let n = fast.advance(window_limit(params));
        for _ in 0..n {
            slow.step(UserIn::default());
        }
        tally.entry(at.clone()).or_default()[usize::from(n > 1)] += 1;
        if n > 1 {
            assert_eq!(
                state16(fast),
                state16(slow),
                "after a {n}-cycle jump from {at}"
            );
        }
    }
    assert!(slow.modules().core.out().ga_done);
    assert_eq!(state16(fast), state16(slow), "at GA_done");
    tally
}

/// [`lockstep16`] for the dual-core system.
fn lockstep32<F: FnMut(u32) -> u16>(
    fast: &mut GaSystem32Hw<F>,
    slow: &mut GaSystem32Hw<F>,
    params: &GaParams,
    stagger: bool,
) -> Tally {
    fast.program(params);
    slow.program(params);
    fast.step(start());
    slow.step(start());
    let done = |s: &GaSystem32Hw<F>| s.halves().iter().all(|(c, _, _)| c.out().ga_done);
    let mut lead = Lead {
        stagger,
        ..Lead::default()
    };
    let mut tally = Tally::new();
    while !done(fast) {
        for _ in 0..lead.before(&window_start(fast.halves()[0].0)) {
            fast.step(UserIn::default());
            slow.step(UserIn::default());
        }
        if done(fast) {
            break;
        }
        let at = window_start(fast.halves()[0].0);
        let n = fast.advance(window_limit(params));
        for _ in 0..n {
            slow.step(UserIn::default());
        }
        tally.entry(at.clone()).or_default()[usize::from(n > 1)] += 1;
        if n > 1 {
            assert_eq!(
                state32(fast),
                state32(slow),
                "after a {n}-cycle jump from {at}"
            );
        }
    }
    assert!(done(slow));
    assert_eq!(state32(fast), state32(slow), "at GA_done");
    tally
}

/// One jump per parent (the elite is copied, the rest selected) and
/// one per fitness evaluation (an offspring, or an initial member's
/// handshake).
fn windows_per_run(params: &GaParams) -> u64 {
    let (pop, gens) = (u64::from(params.pop_size), u64::from(params.n_gens));
    let parents = 2 * gens * (pop - 1).div_ceil(2);
    parents + params.evaluations_per_run()
}

/// Each accepted start state jumped; the `SelDraw` edge that still
/// carries the elite's write, and every cycle inside an offspring, were
/// reached and never jumped.
fn assert_every_start_jumped(t: &Tally) {
    for at in ACCEPTED {
        assert!(jumped(t, at) > 0, "no window jumped from {at}: {t:?}");
    }
    for at in INSIDE_OFFSPRING.iter().chain(&["SelDraw+write"]) {
        assert_eq!(jumped(t, at), 0, "{at}: {t:?}");
        assert!(stepped(t, at) > 0, "{at}: {t:?}");
    }
}

#[test]
fn scan_jumps_match_single_steps_at_width_16() {
    for (f, params) in quick_matrix() {
        let t = lockstep16(
            &mut system16(lookup(f)),
            &mut system16(lookup(f)),
            &params,
            false,
        );
        let what = format!("{f:?} pop {} seed {:#06x}", params.pop_size, params.seed);
        let jumps: u64 = t.values().map(|e| e[1]).sum();
        assert_eq!(
            jumps,
            windows_per_run(&params),
            "{what}: every window jumped"
        );
    }
}

#[test]
fn windows_from_every_accepted_state_match_single_steps_at_width_16() {
    let mut all = Tally::new();
    for (f, params) in quick_matrix() {
        let t = lockstep16(
            &mut system16(lookup(f)),
            &mut system16(lookup(f)),
            &params,
            true,
        );
        merge(&mut all, t);
    }
    assert_every_start_jumped(&all);
}

#[test]
fn scan_jumps_match_single_steps_on_the_cordic_fem() {
    // The iterative FEM is busy for dozens of cycles per evaluation and
    // keeps single steps through every handshake; it is idle again
    // before every selection, so those windows still jump.
    let params = GaParams::new(32, 4, 12, 1, 0x2961);
    let cordic = || FemSlot::Cordic(CordicFem::new(TestFunction::Mbf6_2));
    let t = lockstep16(
        &mut system16(cordic()),
        &mut system16(cordic()),
        &params,
        true,
    );
    assert_handshakes_stepped(&t);
}

/// No handshake or offspring jumped, each was stepped, and selections
/// still jumped.
fn assert_handshakes_stepped(t: &Tally) {
    for at in ["XoverDecide", "MutDecide", "OffFitReq", "InitPopFitReq"] {
        assert_eq!(jumped(t, at), 0, "{at}: {t:?}");
        assert!(stepped(t, at) > 0, "{at}: {t:?}");
    }
    assert!(jumped(t, "SelDraw") > 0, "{t:?}");
}

#[test]
fn handshakes_jump_only_on_the_block_rom_at_the_ga_clock() {
    let params = GaParams::new(32, 4, 10, 1, 0xB342);
    // An external module on the Table II ports.
    let external = || {
        GaSystem::new(FemBank::new(vec![FemSlot::External]))
            .with_external_fem(Box::new(LookupFem::for_function(TestFunction::Mbf6_2)))
    };
    let t = lockstep16(&mut external(), &mut external(), &params, true);
    assert_handshakes_stepped(&t);
    // The block ROM in a faster application clock domain.
    let fast_domain = || {
        let mut sys = system16(lookup(TestFunction::Mbf6_2));
        sys.fast_domain_ratio = 4;
        sys
    };
    let t = lockstep16(&mut fast_domain(), &mut fast_domain(), &params, true);
    assert_handshakes_stepped(&t);
}

#[test]
fn scan_jumps_match_single_steps_at_width_32() {
    for (f, params) in quick_matrix() {
        let fit = move |c: u32| f.eval_u32_split(c);
        let t = lockstep32(
            &mut GaSystem32Hw::new(fit),
            &mut GaSystem32Hw::new(fit),
            &params,
            false,
        );
        let jumps: u64 = t.values().map(|e| e[1]).sum();
        assert_eq!(
            jumps,
            windows_per_run(&params),
            "{f:?} pop {}: every window jumped",
            params.pop_size
        );
    }
}

#[test]
fn windows_from_every_accepted_state_match_single_steps_at_width_32() {
    let mut all = Tally::new();
    for (f, params) in quick_matrix() {
        let fit = move |c: u32| f.eval_u32_split(c);
        let t = lockstep32(
            &mut GaSystem32Hw::new(fit),
            &mut GaSystem32Hw::new(fit),
            &params,
            true,
        );
        merge(&mut all, t);
    }
    assert_every_start_jumped(&all);
}

/// Drive `runs` through `advance` with no limit, `windows` through
/// `advance` at the [`window_limit`] and `slow` through single steps to
/// `GA_done`, and require all three to agree after each of `runs`'
/// steps, on every register and on the trace samples the generation
/// events stamp. Returns `runs`' tally.
fn assert_run_windows_match<P: Port>(new: impl Fn() -> GaSystem<P>, params: &GaParams) -> Tally {
    let [mut runs, mut windows, mut slow] = [new(), new(), new()];
    for sys in [&mut runs, &mut windows, &mut slow] {
        sys.program(params);
        sys.step(start());
    }
    let done = |s: &GaSystem<P>| s.halves().iter().all(|(c, _, _)| c.out().ga_done);
    let samples = |s: &GaSystem<P>| {
        ["best_fitness", "sum_fitness"].map(|name| s.trace().series(name).cloned())
    };
    let mut tally = Tally::new();
    while !done(&runs) {
        let at = window_start(runs.halves()[0].0);
        let n = runs.advance(u64::MAX);
        tally.entry(at.clone()).or_default()[usize::from(n > 1)] += 1;
        while windows.cycles() < runs.cycles() {
            windows.advance(window_limit(params).min(runs.cycles() - windows.cycles()));
        }
        for _ in 0..n {
            slow.step(UserIn::default());
        }
        let want = format!("{slow:?}");
        assert_eq!(
            format!("{windows:?}"),
            want,
            "one-window jumps to a {n}-cycle jump from {at}"
        );
        assert_eq!(
            format!("{runs:?}"),
            want,
            "after a {n}-cycle jump from {at}"
        );
        assert_eq!(
            samples(&runs),
            samples(&slow),
            "after a {n}-cycle jump from {at}"
        );
    }
    assert!(done(&slow));
    tally
}

/// One run window for the initial population and one per generation,
/// and only `GenCheck` and the `Start` cycle stepped between them.
fn assert_one_jump_per_generation(t: &Tally, params: &GaParams, what: &str) {
    assert_eq!(t.get("InitPopDraw"), Some(&[0, 1]), "{what}: {t:?}");
    let gens = u64::from(params.n_gens);
    assert_eq!(t.get("ElitWrite"), Some(&[0, gens]), "{what}: {t:?}");
    assert_eq!(t.get("GenCheck"), Some(&[gens + 1, 0]), "{what}: {t:?}");
    assert_eq!(t.get("Start"), Some(&[1, 0]), "{what}: {t:?}");
    assert_eq!(t.len(), 4, "{what}: {t:?}");
}

#[test]
fn run_windows_land_where_one_window_jumps_land_at_width_16() {
    for (f, params) in quick_matrix() {
        let t = assert_run_windows_match(|| system16(lookup(f)), &params);
        let what = format!("{f:?} pop {} seed {:#06x}", params.pop_size, params.seed);
        assert_one_jump_per_generation(&t, &params, &what);
    }
}

#[test]
fn run_windows_land_where_one_window_jumps_land_at_width_32() {
    for (f, params) in quick_matrix() {
        let fit = move |c: u32| f.eval_u32_split(c);
        let t = assert_run_windows_match(|| GaSystem32Hw::new(fit), &params);
        let what = format!("{f:?} pop {} seed {:#06x}", params.pop_size, params.seed);
        assert_one_jump_per_generation(&t, &params, &what);
    }
}

#[test]
fn run_windows_keep_the_cordic_fem_and_a_fast_fem_clock_on_one_window_jumps() {
    // A module that answers in no fixed number of edges, or one in a
    // faster clock domain, keeps every run window on one-window jumps
    // and single steps.
    let params = GaParams::new(32, 4, 12, 1, 0x2961);
    let cordic = || system16(FemSlot::Cordic(CordicFem::new(TestFunction::Mbf6_2)));
    let fast_domain = || {
        let mut sys = system16(lookup(TestFunction::Mbf6_2));
        sys.fast_domain_ratio = 4;
        sys
    };
    for new in [&cordic as &dyn Fn() -> GaSystem, &fast_domain] {
        let t = assert_run_windows_match(new, &params);
        assert_eq!(
            jumped(&t, "ElitWrite") + jumped(&t, "InitPopDraw"),
            0,
            "{t:?}"
        );
        assert!(jumped(&t, "SelDraw") > 0, "{t:?}");
    }
}

/// A generation window of a 16-bit mBF6_2 run of `params`, met by
/// unlimited `advance` calls: `(first cycle, length)`, counted as
/// [`nth_window`] counts.
fn generation_window(params: &GaParams, nth: usize) -> (u64, u64) {
    let mut sys = started16(params);
    nth_window(
        nth,
        |from, _| from == "ElitWrite",
        u64::MAX,
        |limit| advance16(&mut sys, limit),
    )
}

#[test]
fn watchdog_inside_a_generation_window_trips_on_the_same_cycle() {
    // Inside the third generation, on its last cycle and one short of
    // it: the run loop falls back to one-window jumps and single steps
    // and stops on the bound, with the registers single steps leave.
    let params = GaParams::new(32, 8, 10, 1, 0xB342);
    let (at, n) = generation_window(&params, 3);
    for watchdog in [at + 1, at + n / 2, at + n - 1, at + n] {
        let mut fast = system16(lookup(TestFunction::Mbf6_2));
        fast.program(&params);
        let got = fast.run(watchdog).map(|r| r.cycles);
        let mut slow = system16(lookup(TestFunction::Mbf6_2));
        slow.program(&params);
        let (want, _) = run_with_faults_stepped(&mut slow, watchdog, u64::MAX, &[]);
        assert_eq!(got, want, "watchdog {watchdog}");
        assert_eq!(got, Err(SimError::Timeout { cycles: watchdog }));
        assert_eq!(state16(&fast), state16(&slow), "watchdog {watchdog}");
    }
    // The dual-core system stops on the same bound.
    let mut fast = started32(&params);
    let (at, n) = nth_window(
        3,
        |from, _| from == "ElitWrite",
        u64::MAX,
        |limit| advance32(&mut fast, limit),
    );
    let watchdog = at + n / 2;
    assert_eq!(
        run_engine(BackendKind::Rtl32, params, watchdog),
        Err(EngineError::Watchdog { cycles: watchdog })
    );
}

#[test]
fn fault_inside_a_generation_window_lands_on_the_same_cycle() {
    // Flips of the fill index, the fitness sums, a parent and the
    // threshold, scheduled inside a generation: the run loop falls back
    // before it, and the run windows after it start from the corrupted
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
    let (at, n) = generation_window(&params, 2);
    for at_cycle in [at + 1, at + n / 3, at + n - 1] {
        assert_fault_lands_alike(&params, at_cycle, &ops);
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

/// The `nth` window that passes `kind`, met by `advance` called with
/// `limit` on a system one cycle into its run: `(first cycle, length)`,
/// counted from `start_GA` as the run loops' watchdog counts. `advance`
/// returns the state it started in ([`window_start`]) and the cycles it
/// took.
fn nth_window(
    nth: usize,
    kind: fn(&str, u64) -> bool,
    limit: u64,
    mut advance: impl FnMut(u64) -> (String, u64),
) -> (u64, u64) {
    let (mut at, mut seen) = (1, 0);
    loop {
        assert!(at < 10_000_000, "fewer than {nth} windows jumped");
        let (from, n) = advance(limit);
        if n > 1 && kind(&from, n) {
            seen += 1;
            if seen == nth {
                return (at, n);
            }
        }
        at += n;
    }
}

/// A selection window that walks at least two members: with plain
/// `advance` calls one that walks one member is 7 or 8 cycles long.
fn selection(_: &str, n: u64) -> bool {
    n >= 9
}

/// An initial-population member's fitness handshake (4 cycles).
fn handshake(from: &str, _: u64) -> bool {
    from == "InitPopFitReq"
}

/// An offspring's first window, from `XoverDecide` (8 cycles).
fn first_offspring(from: &str, _: u64) -> bool {
    from == "XoverDecide"
}

/// An offspring's second window, from `MutDecide` (7 cycles).
fn second_offspring(from: &str, _: u64) -> bool {
    from == "MutDecide"
}

/// `advance` on a 16-bit system, with the state it started in.
fn advance16(sys: &mut GaSystem, limit: u64) -> (String, u64) {
    let from = window_start(&sys.modules().core);
    (from, sys.advance(limit))
}

/// `advance` on a dual-core system, with core 1's start state.
fn advance32<F: FnMut(u32) -> u16>(sys: &mut GaSystem32Hw<F>, limit: u64) -> (String, u64) {
    let from = window_start(sys.halves()[0].0);
    (from, sys.advance(limit))
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

/// The watchdog bound `offset` cycles into the `nth` window of `kind`,
/// on both widths: the stepped reference has not finished there, and
/// each engine stops with `Watchdog` on exactly that cycle.
fn assert_watchdog_trips_inside(
    nth: usize,
    kind: fn(&str, u64) -> bool,
    offset: impl Fn(u64) -> u64,
) {
    let params = GaParams::new(32, 8, 10, 1, 0xB342);

    // rtl: single steps reach the bound mid-run, so the stepped loop
    // stops with Timeout { cycles: watchdog }; the jumping one must too.
    let mut fast = started16(&params);
    let (at, n) = nth_window(nth, kind, window_limit(&params), |limit| {
        advance16(&mut fast, limit)
    });
    let watchdog = at + offset(n);
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
    let (at, n) = nth_window(nth, kind, window_limit(&params), |limit| {
        advance32(&mut fast, limit)
    });
    let watchdog = at + offset(n);
    let mut slow = started32(&params);
    for _ in 1..watchdog {
        slow.step(UserIn::default());
    }
    assert!(!slow.halves()[0].0.out().ga_done, "run ended early");
    assert_eq!(
        run_engine(BackendKind::Rtl32, params, watchdog),
        Err(EngineError::Watchdog { cycles: watchdog })
    );
}

#[test]
fn watchdog_inside_a_scan_window_trips_on_the_same_cycle() {
    // Mid-scan, inside the multiplier wait, inside an initial member's
    // handshake, and on every cycle inside both offspring windows.
    assert_watchdog_trips_inside(40, selection, |n| n / 2 + 1);
    assert_watchdog_trips_inside(40, selection, |_| 2);
    assert_watchdog_trips_inside(41, selection, |_| 4);
    for offset in 1..4 {
        assert_watchdog_trips_inside(25, handshake, |_| offset);
    }
    for offset in 1..8 {
        assert_watchdog_trips_inside(20, first_offspring, |_| offset);
    }
    for offset in 1..7 {
        assert_watchdog_trips_inside(20, second_offspring, |_| offset);
    }

    // A bound one cycle short of the window's end keeps single steps;
    // a bound on its end lets the jump land on it.
    let params = GaParams::new(32, 8, 10, 1, 0xB342);
    for (nth, kind) in [
        (40, selection as fn(&str, u64) -> bool),
        (25, handshake),
        (40, first_offspring),
        (40, second_offspring),
    ] {
        let mut fast = started16(&params);
        let (at, n) = nth_window(nth, kind, window_limit(&params), |limit| {
            advance16(&mut fast, limit)
        });
        for watchdog in [at + n - 1, at + n] {
            assert_eq!(
                run_engine(BackendKind::RtlInterp, params, watchdog),
                Err(EngineError::Watchdog { cycles: watchdog })
            );
        }
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
    // cycle has not run yet, so a fault one cycle late shows; the
    // candidate and fitness flips likewise show only on one side of a
    // handshake's request and latch cycles.
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
    let mut at_cycles = Vec::new();
    for nth in [24, 25] {
        let mut sys = started16(&params);
        let (at, n) = nth_window(nth, selection, window_limit(&params), |limit| {
            advance16(&mut sys, limit)
        });
        at_cycles.extend([at + 1, at + 3, at + n / 2, at + n - 1]);
    }
    for nth in [30, 31] {
        let mut sys = started16(&params);
        let (at, _) = nth_window(nth, handshake, window_limit(&params), |limit| {
            advance16(&mut sys, limit)
        });
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
    // a second offspring window start in (the window is then walked
    // from the corrupted registers) and on every cycle inside them.
    let ops = [
        ("fit_reg", 5),
        ("idx", 0),
        ("off1", 3),
        ("off2", 12),
        ("cand", 7),
        ("new_sum", 2),
    ]
    .map(|(field, bit)| flip(field, bit));
    for kind in [first_offspring, second_offspring] {
        let mut sys = started16(&params);
        let (at, n) = nth_window(40, kind, window_limit(&params), |limit| {
            advance16(&mut sys, limit)
        });
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
    // very address, so right after the window the read register must
    // still hold the old word (the next cycle's read replaces it, so
    // only a comparison after the jump sees the order).
    let params = GaParams::new(32, 6, 10, 1, 0x061F);
    // Within the new bank: a generation's second offspring starts with
    // idx 2; flipping its two low bits stores it onto the first
    // offspring's word, at idx 1.
    let at = window_where(&params, "MutDecide", |core| reg(core, "idx") == "2");
    assert_jumps_after_fault_match(&params, at, &[flip("idx", 0), flip("idx", 1)]);
    // Across the banks: flipping idx's top bit moves a first offspring's
    // store into the current population, onto parent 2's word when
    // parent 2 sits at the same offset (and differs from parent 1, so
    // the offspring's word differs from parent 2's).
    let at = window_where(&params, "XoverDecide", |core| {
        reg(core, "idx") == reg(core, "scan_idx") && reg(core, "parent1") != reg(core, "parent2")
    });
    assert_jumps_after_fault_match(&params, at, &[flip("idx", 7)]);
}

/// `ops` injected through the scan chain `at` cycles into a 16-bit
/// mBF6_2 run of `params` on a jumping and a stepped system: the two
/// agree after every jump that follows, and at `GA_done`.
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
    while !fast.modules().core.out().ga_done {
        let from = window_start(&fast.modules().core);
        let n = fast.advance(u64::MAX);
        for _ in 0..n {
            slow.step(UserIn::default());
        }
        if n > 1 {
            assert_eq!(
                state16(&fast),
                state16(&slow),
                "after a {n}-cycle jump from {from}, fault at {at}"
            );
        }
    }
    assert_eq!(state16(&fast), state16(&slow), "at GA_done, fault at {at}");
}

/// A bit flip at the named scan field's bit `bit`.
fn flip(field: &str, bit: usize) -> ScanBitOp {
    ScanBitOp {
        position: scan_position(field) + bit,
        kind: BitFault::Flip,
    }
}

/// The first cycle of the first window that starts in `from` with core
/// registers `pick` accepts (given the core's `Debug` text), on a 16-bit
/// mBF6_2 run of `params`, counted as [`nth_window`] counts.
fn window_where(params: &GaParams, from: &str, pick: impl Fn(&str) -> bool) -> u64 {
    let mut sys = started16(params);
    let mut at = 1;
    loop {
        let core = &sys.modules().core;
        assert!(!core.out().ga_done, "no window from {from} fits");
        if window_start(core) == from && pick(&format!("{core:?}")) {
            return at;
        }
        at += sys.advance(window_limit(params));
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
    assert_eq!(state16(&fast), state16(&slow), "fault at {at_cycle}");
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

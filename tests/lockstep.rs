//! Randomised lockstep: run windows against single steps, and both
//! against the behavioural engine at the same width.
//!
//! Each case draws a parameter set (any population from 2 to
//! `GaParams::MAX_POP`, 1–12 generations, any thresholds, any seed with
//! 0 and `0xFFFF` drawn often, so either core's CA starts on its fixed
//! point), a Table IV preset mode, a width and a block-ROM fitness
//! module: a test function, or at width 16 a heal job's word source.
//! It may also draw a watchdog bound inside the run; a preset run, which
//! lasts hundreds of generations, always gets one inside its first three
//! generations.
//!
//! One system advances with the run loop's limits (`GaSystem::advance`,
//! unlimited but for the watchdog) and a reference steps every cycle
//! (`GaSystem::step`), the independent model. After every run window and
//! where the run stops, the two must agree on the cycle count, every
//! core register, RNG, memory and fitness module (the system's `Debug`),
//! the history (`Port::report`) and the trace; both must stop with the
//! result `GaSystem::run` gives. The behavioural engine at the same
//! width (`GaEngine` or `GaEngine32`), stepped generation by
//! generation, must reproduce the system's history, and a run that
//! completes must report the engine's best, and its RNG draws at width
//! 16 or its evaluation count at width 32.

use std::fmt::Debug;

use ga_core::behavioral::GenStats;
use ga_core::scaling::{GaRun32, GenStats32};
use ga_core::{GaSystem32Hw, Port};
use ga_engine::Workload;
use ga_ip::prelude::*;
use hwsim::SimError;
use proptest::prelude::*;

/// `GA_done` on every core.
fn done<P>(sys: &GaSystem<P>) -> bool {
    sys.halves().iter().all(|(c, _, _)| c.out().ga_done)
}

/// Generation events the trace holds.
fn events<P>(sys: &GaSystem<P>) -> usize {
    sys.trace()
        .series("best_fitness")
        .map_or(0, |s| s.samples.len())
}

/// What a system is compared on: its registers and modules, its history
/// and its trace.
fn state<P: Port>(sys: &GaSystem<P>, start: u64) -> String
where
    P::Run: Debug,
{
    let trace = ["best_fitness", "sum_fitness"].map(|name| sys.trace().series(name).cloned());
    let report = P::report(sys, sys.cycles() - start);
    format!("{sys:?}\n{report:?}\n{trace:?}")
}

/// A system programmed with `params` and put on `preset`, its cycle
/// count just before `start_GA`.
fn ready<P: Port>(
    new: &impl Fn() -> GaSystem<P>,
    params: &GaParams,
    preset: u8,
) -> (GaSystem<P>, u64) {
    let mut sys = new();
    sys.program(params);
    sys.preset = preset;
    let start = sys.cycles();
    (sys, start)
}

/// `start_GA` for one cycle.
fn start_ga<P: Port>(sys: &mut GaSystem<P>) {
    sys.step(UserIn {
        start_ga: true,
        ..Default::default()
    });
}

/// Cycles from `start_GA` to `GA_done`, or, for a preset run, to the
/// end of its third generation event.
fn run_length<P: Port>(new: &impl Fn() -> GaSystem<P>, params: &GaParams, preset: u8) -> u64 {
    let (mut sys, start) = ready(new, params, preset);
    start_ga(&mut sys);
    while !done(&sys) && (preset == 0 || events(&sys) < 3) {
        sys.advance(u64::MAX);
    }
    sys.cycles() - start
}

/// Drive one system through `advance` under the run loop's watchdog and
/// a reference through single steps, comparing them after every run
/// window and where they stop, and both against `GaSystem::run`.
/// Returns the reference's result and history.
fn assert_lockstep<P: Port>(
    new: impl Fn() -> GaSystem<P>,
    params: &GaParams,
    preset: u8,
    watchdog: u64,
) -> (Result<u64, SimError>, P::Run)
where
    P::Run: Debug,
{
    let (mut fast, start) = ready(&new, params, preset);
    let (mut slow, _) = ready(&new, params, preset);
    start_ga(&mut fast);
    start_ga(&mut slow);
    let mut guard = 1;
    let fast_result = loop {
        if done(&fast) {
            break Ok(guard);
        }
        if guard >= watchdog {
            break Err(SimError::Timeout { cycles: guard });
        }
        let n = fast.advance(watchdog - guard);
        guard += n;
        for _ in 0..n {
            slow.step(UserIn::default());
        }
        if n > 1 {
            assert_eq!(state(&fast, start), state(&slow, start), "after a window");
        }
    };
    // The reference decides on its own where the run stops.
    let mut cycles = slow.cycles() - start;
    let slow_result = loop {
        if done(&slow) {
            break Ok(cycles);
        }
        if cycles >= watchdog {
            break Err(SimError::Timeout { cycles });
        }
        slow.step(UserIn::default());
        cycles += 1;
    };
    assert_eq!(fast_result, slow_result);
    assert_eq!(
        state(&fast, start),
        state(&slow, start),
        "where the run stops"
    );
    let (mut run, _) = ready(&new, params, preset);
    let got = run.run(watchdog).map(|_| run.cycles() - start);
    assert_eq!(got, slow_result, "GaSystem::run");
    assert_eq!(state(&run, start), state(&slow, start), "GaSystem::run");
    (slow_result, P::report(&slow, cycles))
}

/// The behavioural engine's history over `n` generation events.
fn history16(params: GaParams, words: impl FnMut(u16) -> u16, n: usize) -> Vec<GenStats> {
    let mut e = GaEngine::new(params, CaRng::new(params.seed), words);
    let mut h = vec![e.init_population()];
    while h.len() < n {
        h.push(e.step_generation());
    }
    h.truncate(n);
    h
}

/// [`history16`] at width 32.
fn history32(params: GaParams, f: impl FnMut(u32) -> u16, n: usize) -> Vec<GenStats32> {
    let mut e = GaEngine::new32(params, CaRng::new(params.seed), f);
    let mut h = vec![e.init_population()];
    while h.len() < n {
        h.push(e.step_generation());
    }
    h.truncate(n);
    h
}

const MODES: [PresetMode; 4] = [
    PresetMode::User,
    PresetMode::Small,
    PresetMode::Medium,
    PresetMode::Large,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn run_windows_single_steps_and_the_engine_agree(
        pop in 2u8..=GaParams::MAX_POP,
        gens in 1u32..=12,
        xover in 0u8..=15,
        mutation in 0u8..=15,
        seed in prop_oneof![Just(0u16), Just(0xFFFFu16), any::<u16>(), any::<u16>()],
        mode in 0usize..8,
        wide in any::<bool>(),
        heal in (any::<bool>(), any::<u16>(), 0usize..8, any::<bool>()),
        f in 0usize..TestFunction::ALL.len(),
        watch in (any::<bool>(), any::<u64>()),
    ) {
        let params = GaParams::new(pop, gens, xover, mutation, seed);
        // User parameters in five cases of eight, each preset in one.
        let mode = MODES[mode.saturating_sub(4)];
        let preset = mode as u8;
        let ran = GaParams::preset(mode).unwrap_or(params);
        let f = TestFunction::ALL[f];
        let (heal, target, cell, value) = heal;
        let workload = if heal && !wide {
            let target = Vrc::new(target).truth_table();
            let fault = Fault::StuckAt { cell, value };
            Workload::VrcHeal { target, fault }
        } else {
            Workload::Function(f)
        };
        let what = format!("{ran:?} preset {preset} width {} {workload:?}", if wide { 32 } else { 16 });
        let bounded = |length: u64| {
            let (watched, at) = watch;
            if watched || preset != 0 { 1 + at % length } else { u64::MAX }
        };
        if wide {
            let new = || GaSystem32Hw::new(move |c: u32| f.eval_u32_split(c));
            let watchdog = bounded(run_length(&new, &params, preset));
            let (result, run): (_, GaRun32) = assert_lockstep(new, &params, preset, watchdog);
            let want = history32(ran, |c| f.eval_u32_split(c), run.history.len());
            prop_assert_eq!(&run.history, &want, "{}", what);
            if result.is_ok() {
                prop_assert_eq!(run.best, want[want.len() - 1].best, "{}", what);
                let engine = GaEngine::new32(ran, CaRng::new(ran.seed), |c| f.eval_u32_split(c)).run();
                prop_assert_eq!(run.evaluations, engine.evaluations, "{}", what);
            }
        } else {
            let words = workload.words();
            let new = || GaSystem::new(FemBank::new(vec![FemSlot::Lookup(LookupFem::from_fn(words))]));
            let watchdog = bounded(run_length(&new, &params, preset));
            let (result, run) = assert_lockstep(new, &params, preset, watchdog);
            let want = history16(ran, words, run.history.len());
            prop_assert_eq!(&run.history, &want, "{}", what);
            if result.is_ok() {
                let engine = GaEngine::new(ran, CaRng::new(ran.seed), words).run();
                prop_assert_eq!(run.best, engine.best, "{}", what);
                prop_assert_eq!(run.rng_draws, engine.rng_draws, "{}", what);
            }
        }
    }
}

//! Lane streams are produced on demand on the CA-RNG netlist
//! specialised for `consume`, and lanes are gathered with an 8×8 bit
//! transpose. These tests pin both halves: every lane the producer
//! yields equals `carng::CaRng` draw for draw past the CA's 65 535-step
//! period, at every lane width, and the specialised op stream computes
//! the full netlist's next register state from any register state while
//! `ctl` holds `consume`. They also pin the engine on top: a stepper
//! restored at any generation, wherever its RNG position falls among the
//! producer's 64-draw blocks, continues exactly as behavioral does, and
//! a pack runs at the narrowest lane width whatever kind it was sent as.

use carng::{CaRng, Rng16};
use ga_core::GaParams;
use ga_engine::{try_ca_lane_streams_wide, BackendKind, Limits, Prepared, RunSpec, Workload};
use ga_fitness::TestFunction;
use ga_synth::gadesign::elaborate_ca_rng;
use ga_synth::CompiledNetlist;

/// Longer than the CA's 65 535-draw period, so every stream wraps.
const DRAWS: usize = 70_000;

/// 256 distinct seeds with the guard-remapped zero in lane 0 and 0xFFFF
/// in lane 1; the rest are spread over the seed space.
fn seeds() -> Vec<u16> {
    let mut s: Vec<u16> = (0..256u16)
        .map(|i| i.wrapping_mul(0x9E37) ^ 0x2961)
        .collect();
    s[0] = 0;
    s[1] = 0xFFFF;
    s
}

fn check_width<const W: usize>(reference: &[Vec<u16>]) {
    let seeds = seeds();
    for lanes in [1, 18, 21, 64, 256].into_iter().filter(|&n| n <= 64 * W) {
        let streams = try_ca_lane_streams_wide::<W>(&seeds[..lanes], DRAWS, u64::MAX)
            .expect("unbounded extraction");
        assert_eq!(streams.len(), lanes);
        for (lane, (stream, want)) in streams.iter().zip(reference).enumerate() {
            if let Some(k) = (0..DRAWS).find(|&k| stream[k] != want[k]) {
                panic!(
                    "W={W} with {lanes} lanes: lane {lane} (seed {:#06x}) diverged at draw {k}",
                    seeds[lane]
                );
            }
            assert_eq!(stream.len(), DRAWS, "W={W} lanes {lanes} lane {lane}");
        }
    }
}

#[test]
fn extracted_lanes_equal_the_reference_rng_at_every_width() {
    let reference: Vec<Vec<u16>> = seeds()
        .iter()
        .map(|&seed| {
            let mut rng = CaRng::new(seed);
            (0..DRAWS).map(|_| rng.next_u16()).collect()
        })
        .collect();
    assert_eq!(reference[0][0], 1, "seed 0 takes the guard remap");
    check_width::<1>(&reference);
    check_width::<2>(&reference);
    check_width::<4>(&reference);
}

/// Deterministic 64-bit words for random register states.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[test]
fn consume_specialisation_keeps_every_next_state() {
    let full = CompiledNetlist::compile(&elaborate_ca_rng()).expect("CA-RNG compiles");
    let ctl = full.input_bus("ctl").expect("ctl bus").to_vec();
    let seed_bus = full.input_bus("seed").expect("seed bus").to_vec();
    let consume = full.specialize(&[(ctl[0], false), (ctl[1], true)]);
    assert_eq!(
        consume.ops_per_pass(),
        22,
        "24 rule XORs less the two edge cells"
    );
    assert_eq!(full.regs().len(), consume.regs().len());

    let mut state = 0x2961;
    for round in 0..64 {
        // 256 random register states per round; the seed bus carries
        // noise too, which the held `consume` mode must ignore.
        let mut a = full.sim_wide::<4>();
        let mut b = consume.sim_wide::<4>();
        for r in full.regs() {
            let words = std::array::from_fn(|_| splitmix(&mut state));
            a.set_net_words(r.q, words);
            b.set_net_words(r.q, words);
        }
        for &n in &seed_bus {
            a.set_net_words(n, std::array::from_fn(|_| splitmix(&mut state)));
        }
        a.set_bus_all(&ctl, 0b10);
        for step in 0..4 {
            a.step();
            b.step();
            for (i, r) in full.regs().iter().enumerate() {
                assert_eq!(
                    a.net_words(r.q),
                    b.net_words(r.q),
                    "round {round} step {step}: register {i} diverged"
                );
            }
        }
    }
}

fn spec(params: GaParams) -> RunSpec {
    RunSpec {
        width: 16,
        workload: Workload::Function(TestFunction::F2),
        params,
        deadline_ms: None,
    }
}

#[test]
fn restores_at_every_generation_continue_like_behavioral() {
    // Pop 12 draws 12 + 29·g by generation g: the positions fall inside
    // the first block, land exactly on the block edge 128 at g = 4, and
    // straddle the edges at 64, 192, 256 and 320.
    let params = GaParams::new(12, 12, 10, 1, 0x2961);
    let limits = Limits::default();
    let stepper = |kind: BackendKind| {
        let engine = kind.engine();
        let prepared = engine.prepare(spec(params)).expect("admits");
        engine.stepper(&prepared, &limits).expect("steps")
    };
    let mut reference = stepper(BackendKind::Behavioral);
    reference.init_population();
    let mut snapshots = vec![reference.snapshot()];
    for _ in 0..params.n_gens {
        reference.step_generation();
        snapshots.push(reference.snapshot());
    }
    let end = snapshots.last().expect("final snapshot").clone();
    assert!(snapshots.iter().any(|s| s.rng_draws == 128));
    for snap in &snapshots {
        let mut member = stepper(BackendKind::BitSim64);
        member.restore(snap).expect("restores");
        for _ in snap.gen..params.n_gens {
            member.step_generation();
        }
        assert_eq!(
            member.snapshot(),
            end,
            "restored at generation {}",
            snap.gen
        );
    }
}

#[test]
fn a_small_bitsim256_pack_equals_solo_bitsim64_runs() {
    // 18 jobs fit one 64-lane word, so the pack runs at W = 1.
    let wide = BackendKind::BitSim256.engine();
    let narrow = BackendKind::BitSim64.engine();
    let packed: Vec<Prepared> = (0..18u16)
        .map(|i| {
            let seed = i.wrapping_mul(0x9E37) ^ 0xB342;
            wide.prepare(spec(GaParams::new(24, 10, 10, 1, seed)))
                .expect("admits")
        })
        .collect();
    let pack = wide.run_pack(&packed, &Limits::default());
    assert_eq!(pack.len(), 18);
    for (p, r) in packed.iter().zip(pack) {
        let solo = narrow.run(p, &Limits::default());
        assert_eq!(r, solo, "seed {:#06x}", p.spec().params.seed);
    }
}

//! Criterion micro/macro benchmarks for the reproduction.
//!
//! These quantify the simulation infrastructure itself (they are *not*
//! the paper's experiments — those are the `table*`/`fig*`/`speedup`
//! binaries): engine throughput per generation, the software GA step
//! per individual and fitness evaluation per call, RNG kernels, FEM
//! handshake latency in simulated cycles per wall-second, the
//! cycle-accurate system, and the synthesis flow.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use carng::{CaRng, Lfsr16, Rng16};
use ga_core::{GaEngine, GaParams, GaSystem};
use ga_engine::{BackendKind, Limits, RunSpec, Workload};
use ga_fitness::fem::{Fem, FemIn};
use ga_fitness::rom::FitnessRom;
use ga_fitness::{CordicFem, FemBank, FemSlot, LookupFem, TestFunction};
use hwsim::Clocked;
use swga::{CountingGa, PpcCostModel};

fn bench_rng(c: &mut Criterion) {
    let mut g = c.benchmark_group("rng");
    g.bench_function("ca_1000_draws", |b| {
        let mut rng = CaRng::new(0x2961);
        b.iter(|| {
            let mut acc = 0u32;
            for _ in 0..1000 {
                acc = acc.wrapping_add(rng.next_u16() as u32);
            }
            black_box(acc)
        })
    });
    g.bench_function("lfsr_1000_draws", |b| {
        let mut rng = Lfsr16::new(0x2961);
        b.iter(|| {
            let mut acc = 0u32;
            for _ in 0..1000 {
                acc = acc.wrapping_add(rng.next_u16() as u32);
            }
            black_box(acc)
        })
    });
    g.finish();
}

fn bench_engine(c: &mut Criterion) {
    let mut g = c.benchmark_group("behavioral_engine");
    for pop in [32u8, 64, 128] {
        g.bench_with_input(BenchmarkId::new("one_generation", pop), &pop, |b, &pop| {
            let rom = FitnessRom::tabulate(TestFunction::Mbf6_2);
            let params = GaParams::new(pop, 1, 10, 1, 0x2961);
            b.iter(|| {
                let mut e = GaEngine::new(params, CaRng::new(params.seed), |c| rom.lookup(c));
                e.init_population();
                black_box(e.step_generation())
            })
        });
    }
    g.finish();
}

/// One behavioral generation per iteration on a long-running engine
/// over tabulated F3, reported per individual: with prefix-sum
/// selection the per-individual cost is nearly flat in the population
/// size, where a linear selection scan grows with it.
fn bench_ga_step(c: &mut Criterion) {
    let rom = FitnessRom::tabulate(TestFunction::F3);
    let mut g = c.benchmark_group("ga_step");
    for pop in [16u8, 64, 128] {
        g.throughput(Throughput::Elements(pop as u64));
        let params = GaParams::new(pop, 1, 10, 1, 0x2961);
        let mut e = GaEngine::new(params, CaRng::new(params.seed), |c| rom.lookup(c));
        e.init_population();
        g.bench_function(format!("pop{pop}"), |b| b.iter(|| e.step_generation()));
    }
    g.finish();
}

/// Each test function over all 65 536 chromosomes per iteration,
/// reported per evaluation (the `eval_u16` every software backend calls).
fn bench_fitness_eval(c: &mut Criterion) {
    let mut g = c.benchmark_group("fitness_eval");
    g.throughput(Throughput::Elements(1 << 16));
    for f in TestFunction::ALL {
        g.bench_function(f.name(), |b| {
            b.iter(|| (0..=u16::MAX).fold(0u64, |acc, c| acc + f.eval_u16(black_box(c)) as u64))
        });
    }
    g.finish();
}

fn bench_hw_system(c: &mut Criterion) {
    let mut g = c.benchmark_group("cycle_accurate_system");
    g.sample_size(20);
    g.bench_function("pop32_gen8_mbf6_2", |b| {
        let params = GaParams::new(32, 8, 10, 1, 0x2961);
        b.iter(|| {
            let mut sys = GaSystem::new(FemBank::new(vec![FemSlot::Lookup(
                LookupFem::for_function(TestFunction::Mbf6_2),
            )]));
            black_box(sys.program_and_run(&params, 100_000_000).unwrap().cycles)
        })
    });
    // A served `rtl` job end to end, as the `rtl` backend runs it:
    // build the lookup FEM for the workload, then run to GA_done.
    let heal = Workload::VrcHeal {
        target: ga_ehw::Vrc::new(ga_ehw::SHIPPED_TARGETS[0].1).truth_table(),
        fault: ga_ehw::Fault::StuckAt {
            cell: 6,
            value: false,
        },
    };
    for (name, workload) in [
        ("mShubert2D", Workload::Function(TestFunction::MShubert2D)),
        ("heal", heal),
    ] {
        let spec = RunSpec {
            width: 16,
            workload,
            params: GaParams::new(32, 32, 10, 1, 0x2961),
            deadline_ms: None,
        };
        let rtl = BackendKind::RtlInterp.engine();
        let job = rtl.prepare(spec).unwrap();
        g.bench_with_input(
            BenchmarkId::new("rtl job: FEM build + GaSystem run", name),
            &job,
            |b, job| b.iter(|| black_box(rtl.run(job, &Limits::default()).unwrap())),
        );
    }
    g.finish();
}

fn bench_fems(c: &mut Criterion) {
    let mut g = c.benchmark_group("fem_transaction");
    fn transact(fem: &mut impl Fem, cand: u16) -> u16 {
        loop {
            fem.eval(FemIn {
                fit_request: true,
                candidate: cand.into(),
            });
            fem.commit();
            if fem.out().fit_valid {
                break;
            }
        }
        let v = fem.out().fit_value;
        loop {
            fem.eval(FemIn::default());
            fem.commit();
            if !fem.out().fit_valid {
                return v;
            }
        }
    }
    g.bench_function("lookup", |b| {
        let mut fem = LookupFem::for_function(TestFunction::Mbf6_2);
        fem.reset();
        b.iter(|| black_box(transact(&mut fem, 0x1234)))
    });
    g.bench_function("cordic", |b| {
        let mut fem = CordicFem::new(TestFunction::Mbf6_2);
        fem.reset();
        b.iter(|| black_box(transact(&mut fem, 0x1234)))
    });
    g.finish();
}

/// The simulation-engine comparison behind this PR's acceptance
/// criterion: the compiled engine must beat the HashMap interpreter's
/// `step_seq` loop by ≥20× on the elaborated CA-RNG netlist — and the
/// bit-sliced modes multiply that by the lane count again (every bench
/// runs the same 64-cycle free-running workload; `bitsim_64lane`
/// completes 64 independent streams in that time, the widened
/// `bitsim_128lane`/`bitsim_256lane` rows 128 and 256).
fn bench_netlist_sim(c: &mut Criterion) {
    use ga_synth::bitsim::CompiledNetlist;
    use ga_synth::gadesign::elaborate_ca_rng;
    use ga_synth::netlist::u64_to_bus;
    use std::collections::HashMap;

    let nl = elaborate_ca_rng();
    let cn = CompiledNetlist::compile(&nl).expect("CA RNG netlist compiles");
    let seed_bus = nl.input_bus("seed").unwrap().to_vec();
    let ctl_bus = nl.input_bus("ctl").unwrap().to_vec();
    const CYCLES: usize = 64;

    let mut g = c.benchmark_group("netlist_sim");
    g.bench_function("interpreter_step_seq_64_cycles", |b| {
        let mut inputs = HashMap::new();
        u64_to_bus(&seed_bus, 0x2961, &mut inputs);
        inputs.insert(ctl_bus[0], false);
        inputs.insert(ctl_bus[1], true);
        let regs0: HashMap<_, _> = nl.regs.iter().map(|r| (r.q, false)).collect();
        b.iter(|| {
            let mut regs = regs0.clone();
            for _ in 0..CYCLES {
                regs = nl.step_seq(&inputs, &regs);
            }
            black_box(regs)
        })
    });
    g.bench_function("compiled_dropin_step_seq_64_cycles", |b| {
        // Same HashMap-in/HashMap-out contract as the interpreter, but
        // over the compiled op list (compile cost excluded — it is paid
        // once per netlist, not per run).
        let mut inputs = HashMap::new();
        u64_to_bus(&seed_bus, 0x2961, &mut inputs);
        inputs.insert(ctl_bus[0], false);
        inputs.insert(ctl_bus[1], true);
        let regs0: HashMap<_, _> = nl.regs.iter().map(|r| (r.q, false)).collect();
        b.iter(|| {
            let mut regs = regs0.clone();
            for _ in 0..CYCLES {
                regs = cn.step_seq(&inputs, &regs);
            }
            black_box(regs)
        })
    });
    g.bench_function("bitsim_64lane_64_cycles", |b| {
        b.iter(|| {
            let mut sim = cn.sim();
            sim.set_bus_all(&seed_bus, 0x2961);
            sim.set_bus_all(&ctl_bus, 0b01);
            sim.step();
            sim.set_bus_all(&ctl_bus, 0b10);
            for _ in 0..CYCLES {
                sim.step();
            }
            black_box(sim.bus_lane(cn.output_bus("rn").unwrap(), 0))
        })
    });
    // The widened simulator: the same 64-cycle free run at 2 and 4
    // words per net — 128 and 256 independent streams per pass. The
    // per-pass cost should grow far slower than the lane count (one
    // vectorizable array op per gate word), which is the whole case
    // for the wide backends.
    fn wide_run<const W: usize>(
        cn: &ga_synth::bitsim::CompiledNetlist,
        seed_bus: &[ga_synth::netlist::NetId],
        ctl_bus: &[ga_synth::netlist::NetId],
        cycles: usize,
    ) -> [u64; W] {
        let mut sim = cn.sim_wide::<W>();
        sim.set_bus_all(seed_bus, 0x2961);
        sim.set_bus_all(ctl_bus, 0b01);
        sim.step();
        sim.set_bus_all(ctl_bus, 0b10);
        for _ in 0..cycles {
            sim.step();
        }
        sim.net_words(cn.output_bus("rn").unwrap()[0])
    }
    g.bench_function("bitsim_128lane_64_cycles", |b| {
        b.iter(|| black_box(wide_run::<2>(&cn, &seed_bus, &ctl_bus, CYCLES)))
    });
    g.bench_function("bitsim_256lane_64_cycles", |b| {
        b.iter(|| black_box(wide_run::<4>(&cn, &seed_bus, &ctl_bus, CYCLES)))
    });
    g.finish();
}

/// Lane-stream extraction as a bitsim pack runs it: the seed-load edge
/// on the full CA-RNG netlist, then 40 960 draws (one pop 128 / gens
/// 128 job) per lane on the `consume`-specialised netlist, gathered
/// into per-lane streams. Rows cover the served workload's typical
/// 18-lane pack and a full pack at each width.
fn bench_pack_extract(c: &mut Criterion) {
    use ga_engine::{draws_per_run, try_ca_lane_streams_wide};

    let draws = draws_per_run(&GaParams::new(128, 128, 10, 1, 1)) as usize;
    assert_eq!(draws, 40_960);
    let seeds: Vec<u16> = (0..256u16)
        .map(|i| i.wrapping_mul(0x9E37) ^ 0x2961)
        .collect();
    fn rows<const W: usize>(
        g: &mut criterion::BenchmarkGroup<'_>,
        name: &str,
        seeds: &[u16],
        draws: usize,
    ) {
        for (label, lanes) in [("18 lanes", 18), ("full", 64 * W)] {
            g.bench_function(format!("{name}/{label}"), |b| {
                b.iter(|| {
                    black_box(try_ca_lane_streams_wide::<W>(
                        &seeds[..lanes],
                        draws,
                        u64::MAX,
                    ))
                })
            });
        }
    }
    let mut g = c.benchmark_group("pack_extract");
    g.sample_size(10);
    rows::<1>(&mut g, "bitsim64", &seeds, draws);
    rows::<2>(&mut g, "bitsim128", &seeds, draws);
    rows::<4>(&mut g, "bitsim256", &seeds, draws);
    g.finish();
}

fn bench_synthesis(c: &mut Criterion) {
    let mut g = c.benchmark_group("synthesis_flow");
    g.sample_size(10);
    g.bench_function("elaborate_map_time_ga_core", |b| {
        b.iter(|| black_box(ga_synth::elaborate_ga_core().1))
    });
    g.finish();
}

fn bench_software_model(c: &mut Criterion) {
    let mut g = c.benchmark_group("software_cost_model");
    g.bench_function("counting_ga_pop32_gen32", |b| {
        let rom = FitnessRom::tabulate(TestFunction::Mbf6_2);
        let params = GaParams::new(32, 32, 10, 1, 0x2961);
        let model = PpcCostModel::default();
        b.iter(|| {
            let run = CountingGa::new(params, |c| rom.lookup(c)).run();
            black_box(model.seconds(&run.ops))
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_rng,
    bench_engine,
    bench_ga_step,
    bench_fitness_eval,
    bench_hw_system,
    bench_fems,
    bench_netlist_sim,
    bench_pack_extract,
    bench_synthesis,
    bench_software_model
);
criterion_main!(benches);

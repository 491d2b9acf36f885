//! The traced replay: a workload's generated jobs run in-process, with
//! a span around every call the benchmark makes into a layer's public
//! functions. Three passes replay the same jobs at three depths, and two
//! probes time single layers in isolation:
//!
//! * serve path — `jsonl::parse_job`, `backend::run_single` /
//!   `backend::run_pack`, `jsonl::result_line`;
//! * engine — `Engine::prepare`, `Engine::run` / `Engine::run_pack`;
//! * core — `LookupFem::for_function` / `FitnessRom::tabulate_fn` and
//!   `GaSystem::run_with_deadline` for `rtl`, `GaSystem32Hw` for
//!   `rtl32`, `try_ca_lane_streams_wide::<W>` for bitsim packs, and
//!   `GaEngine::init_population` / `step_generation` for every lane;
//! * fitness probe — `TestFunction::eval_u16` / `Workload::eval_u16`
//!   over all 65 536 chromosomes, and one ROM build per function;
//! * core probe — `step_generation` at pop 16 and pop 128 over a
//!   table fitness, which isolates selection's growth with population.
//!
//! Jobs are grouped into units the way the server would: within each
//! window of `gather` consecutive jobs, pack-eligible jobs of one
//! backend and `(pop, gens)` key share a pack of at most the backend's
//! pack width.

use std::hint::black_box;
use std::time::Instant;

use carng::{CaRng, Rng16};
use ga_core::{GaEngine, GaParams, GaSystem, GaSystem32Hw};
use ga_engine::{
    draws_per_run, try_ca_lane_streams_wide, BackendKind, IslandsEngine, Limits, Prepared,
    StreamRng, Workload,
};
use ga_fitness::rom::FitnessRom;
use ga_fitness::{FemBank, FemSlot, LookupFem, TestFunction};
use ga_serve::{backend, jsonl, GaJob, ServeConfig};

use crate::stats::{m, Metric};
use crate::trace::{self, Tracer};

/// Jobs that may share a pack: same backend and `(pop, gens)`.
type PackKey = (BackendKind, (u8, u32));

/// One schedulable unit: indices into the replayed jobs.
struct Unit {
    kind: BackendKind,
    members: Vec<usize>,
    pack: bool,
}

/// What one replay measured besides its spans.
pub struct Replay {
    pub tracer: Tracer,
    pub wall_s: f64,
    /// Span index ranges of the three passes and the probes.
    pub serve_pass: std::ops::Range<usize>,
    pub engine_pass: std::ops::Range<usize>,
    pub core_pass: std::ops::Range<usize>,
    pub probes: std::ops::Range<usize>,
    /// Jobs replayed per backend.
    pub jobs_per_backend: Vec<(BackendKind, u64)>,
    /// Σ `RunOutcome::evaluations` of the engine pass (exact).
    pub evaluations: u64,
    /// Σ simulated cycles of the core pass's `rtl`/`rtl32` runs (exact).
    pub rtl_cycles: u64,
    /// Σ lanes × draws extracted by the core pass.
    pub lane_draws: u64,
    /// Steps and population of each core-probe size, for ns/individual.
    pub probe_steps: [(u64, u64); 2],
}

/// The fixed per-backend probe jobs appended to every replay, so every
/// backend's per-layer timing exists on every workload.
fn probe_jobs() -> Vec<String> {
    BackendKind::ALL
        .iter()
        .map(|&b| {
            let width = if b == BackendKind::Rtl32 { 32 } else { 16 };
            format!(
                "{{\"fn\":\"F3\",\"backend\":\"{}\",\"width\":{width},\"pop\":16,\"gens\":8,\"xover\":10,\"mut\":1,\"seed\":2961}}",
                b.name()
            )
        })
        .collect()
}

fn plan(jobs: &[GaJob], gather: usize) -> Vec<Unit> {
    let mut units = Vec::new();
    for (w, window) in jobs.chunks(gather.max(1)).enumerate() {
        let base = w * gather.max(1);
        let mut groups: Vec<(PackKey, usize, Vec<usize>)> = Vec::new();
        for (i, job) in window.iter().enumerate() {
            let width = ga_engine::global()
                .get(job.backend)
                .map_or(1, |e| e.capabilities().pack_width);
            if width > 1 && job.islands.is_none() && job.validate().is_ok() {
                let key = (job.backend, job.pack_key());
                match groups.iter_mut().find(|(k, _, _)| *k == key) {
                    Some((_, _, m)) => m.push(base + i),
                    None => groups.push((key, width, vec![base + i])),
                }
            } else {
                units.push(Unit {
                    kind: job.backend,
                    members: vec![base + i],
                    pack: false,
                });
            }
        }
        for ((kind, _), width, members) in groups {
            for chunk in members.chunks(width) {
                units.push(Unit {
                    kind,
                    members: chunk.to_vec(),
                    pack: true,
                });
            }
        }
    }
    units
}

fn tag_of(w: Workload) -> &'static str {
    match w {
        Workload::Function(f) => f.name(),
        Workload::VrcHeal { .. } => "heal",
    }
}

fn lookup_fem(w: Workload) -> LookupFem {
    match w {
        Workload::Function(f) => LookupFem::for_function(f),
        Workload::VrcHeal { .. } => LookupFem::new(FitnessRom::tabulate_fn(|c| w.eval_u16(c))),
    }
}

/// `init_population` + `step_generation` × gens under spans.
fn core_run<R: Rng16>(tr: &mut Tracer, id: u64, tag: &'static str, job: &GaJob, rng: R) -> u64 {
    let w = job.workload;
    let mut e = GaEngine::new(job.params, rng, move |c| w.eval_u16(c));
    tr.span("core.init", tag, id, |_| black_box(e.init_population()));
    for _ in 0..job.params.n_gens {
        tr.span("core.step", tag, id, |_| black_box(e.step_generation()));
    }
    e.evaluations()
}

fn extract(kind: BackendKind, seeds: &[u16], draws: usize) -> Vec<Vec<u16>> {
    let streams = match kind {
        BackendKind::BitSim128 => try_ca_lane_streams_wide::<2>(seeds, draws, u64::MAX),
        BackendKind::BitSim256 => try_ca_lane_streams_wide::<4>(seeds, draws, u64::MAX),
        _ => try_ca_lane_streams_wide::<1>(seeds, draws, u64::MAX),
    };
    streams.expect("an unbounded extraction cannot trip its watchdog")
}

/// Replay `requests` (plus the probe jobs) through every pass, with
/// spans recorded when `traced`.
pub fn replay(requests: &[String], gather: usize, traced: bool) -> Replay {
    let mut all: Vec<String> = requests.to_vec();
    all.extend(probe_jobs());
    let jobs: Vec<GaJob> = all
        .iter()
        .enumerate()
        .map(|(i, l)| jsonl::parse_job(l, i).expect("generated jobs parse"))
        .collect();
    let units = plan(&jobs, gather);
    let mut jobs_per_backend: Vec<(BackendKind, u64)> =
        BackendKind::ALL.iter().map(|&b| (b, 0)).collect();
    for j in &jobs {
        if let Some(slot) = jobs_per_backend.iter_mut().find(|(b, _)| *b == j.backend) {
            slot.1 += 1;
        }
    }

    let mut tr = Tracer::new(traced);
    let cfg = ServeConfig {
        threads: 1,
        ..ServeConfig::default()
    };
    let limits = Limits::default();
    let t = Instant::now();

    // Pass 1: the serve path a server worker takes, minus the network.
    let serve_start = tr.spans().len();
    for u in &units {
        let id = u.members[0] as u64;
        tr.span("replay.unit", u.kind.name(), id, |tr| {
            let parsed: Vec<GaJob> = u
                .members
                .iter()
                .map(|&m| {
                    tr.span("jsonl.parse", "", m as u64, |_| {
                        jsonl::parse_job(&all[m], m).expect("generated jobs parse")
                    })
                })
                .collect();
            let results = if u.pack {
                let idxs: Vec<usize> = (0..parsed.len()).collect();
                tr.span("backend.run_pack", u.kind.name(), id, |_| {
                    backend::run_pack(&parsed, &idxs, &cfg)
                })
            } else {
                tr.span("backend.run_single", u.kind.name(), id, |_| {
                    vec![backend::run_single(&parsed[0], u.members[0], &cfg)]
                })
            };
            for r in &results {
                tr.span("jsonl.encode", "", id, |_| black_box(jsonl::result_line(r)));
            }
        });
    }
    let serve_pass = serve_start..tr.spans().len();

    // Pass 2: the engine layer, through the registry.
    let mut evaluations = 0u64;
    let engine_start = tr.spans().len();
    for u in &units {
        let id = u.members[0] as u64;
        let engine = ga_engine::global()
            .get(u.kind)
            .expect("every kind is registered");
        let name = u.kind.name();
        evaluations += tr.span("replay.unit", name, id, |tr| {
            let members: Vec<&GaJob> = u.members.iter().map(|&m| &jobs[m]).collect();
            if let Some(cfg) = members[0].islands {
                let spec = members[0].spec();
                return tr.span("engine.run", name, id, |_| {
                    IslandsEngine::new(engine, cfg)
                        .and_then(|ring| ring.run(spec))
                        .map_or(0, |r| r.evaluations)
                });
            }
            let prepared: Vec<Prepared> = members
                .iter()
                .map(|j| {
                    tr.span("engine.prepare", name, id, |_| engine.prepare(j.spec()))
                        .expect("generated jobs are admitted")
                })
                .collect();
            let outcomes = if u.pack {
                tr.span("engine.run_pack", name, id, |_| {
                    engine.run_pack(&prepared, &limits)
                })
            } else {
                vec![tr.span("engine.run", name, id, |_| {
                    engine.run(&prepared[0], &limits)
                })]
            };
            outcomes
                .iter()
                .map(|o| o.as_ref().map_or(0, |o| o.evaluations))
                .sum::<u64>()
        });
    }
    let engine_pass = engine_start..tr.spans().len();

    // Pass 3: the core and fitness layers the engines sit on.
    let (mut rtl_cycles, mut lane_draws) = (0u64, 0u64);
    let core_start = tr.spans().len();
    for u in &units {
        let id = u.members[0] as u64;
        let members: Vec<&GaJob> = u.members.iter().map(|&m| &jobs[m]).collect();
        if members[0].islands.is_some() {
            continue; // the ring composite has no single core run
        }
        tr.span("replay.unit", u.kind.name(), id, |tr| match u.kind {
            BackendKind::RtlInterp => {
                for j in &members {
                    let fem = tr.span("fitness.rom_build", tag_of(j.workload), id, |_| {
                        lookup_fem(j.workload)
                    });
                    rtl_cycles += tr.span("core.rtl_run", "rtl", id, |_| {
                        let mut sys = GaSystem::new(FemBank::new(vec![FemSlot::Lookup(fem)]));
                        sys.program(&j.params);
                        sys.run_with_deadline(limits.sim_watchdog_cycles, None)
                            .map_or(0, |r| r.cycles)
                    });
                }
            }
            BackendKind::Rtl32 => {
                for j in &members {
                    let w = j.workload;
                    rtl_cycles += tr.span("core.rtl_run", "rtl32", id, |_| {
                        let mut sys = GaSystem32Hw::new(move |c: u32| w.eval_u32_split(c));
                        sys.program(&j.params);
                        let start = sys.cycles();
                        match sys.run_with_deadline(limits.sim_watchdog_cycles, None) {
                            Ok(_) => sys.cycles() - start,
                            Err(_) => 0,
                        }
                    });
                }
            }
            BackendKind::BitSim64 | BackendKind::BitSim128 | BackendKind::BitSim256 => {
                let draws = draws_per_run(&members[0].params) as usize;
                let seeds: Vec<u16> = members.iter().map(|j| j.params.seed).collect();
                lane_draws += (seeds.len() * draws) as u64;
                let streams = tr.span("engine.extract", u.kind.name(), id, |_| {
                    extract(u.kind, &seeds, draws)
                });
                for (j, s) in members.iter().zip(streams) {
                    core_run(tr, id, u.kind.name(), j, StreamRng::new(s));
                }
            }
            // The behavioral engine; swga replays it too, since the
            // reference GA runs the same algorithm on the same stream.
            _ => {
                for j in &members {
                    core_run(tr, id, u.kind.name(), j, CaRng::new(j.params.seed));
                }
            }
        });
    }
    let core_pass = core_start..tr.spans().len();

    // Probes: fitness per function, and core stepping at two sizes.
    let probe_start = tr.spans().len();
    tr.span("probe.fitness", "", u64::MAX, |tr| {
        let heal = Workload::VrcHeal {
            target: 0x9B9B,
            fault: ga_ehw::Fault::StuckAt {
                cell: 2,
                value: true,
            },
        };
        let workloads = TestFunction::ALL
            .iter()
            .map(|&f| Workload::Function(f))
            .chain([heal]);
        for w in workloads {
            tr.span("fitness.eval", tag_of(w), u64::MAX, |_| {
                (0..=u16::MAX).fold(0u64, |acc, c| acc + w.eval_u16(black_box(c)) as u64)
            });
            tr.span("fitness.rom_build", tag_of(w), u64::MAX, |_| {
                black_box(lookup_fem(w))
            });
        }
    });
    let table = FitnessRom::tabulate(TestFunction::F3);
    let mut probe_steps = [(0u64, 0u64); 2];
    tr.span("probe.core", "", u64::MAX, |tr| {
        for round in 0..3u16 {
            for (slot, (tag, pop)) in [("small", 16u8), ("large", 128u8)].into_iter().enumerate() {
                let params = GaParams::new(pop, 48, 10, 1, 0x2961 ^ round);
                let mut e = GaEngine::new(params, CaRng::new(params.seed), |c| table.lookup(c));
                e.init_population();
                for _ in 0..params.n_gens {
                    tr.span("core.step", tag, u64::MAX, |_| {
                        black_box(e.step_generation())
                    });
                }
                probe_steps[slot].0 += params.n_gens as u64;
                probe_steps[slot].1 = pop as u64;
            }
        }
    });
    let probes = probe_start..tr.spans().len();

    Replay {
        tracer: tr,
        wall_s: t.elapsed().as_secs_f64(),
        serve_pass,
        engine_pass,
        core_pass,
        probes,
        jobs_per_backend,
        evaluations,
        rtl_cycles,
        lane_draws,
        probe_steps,
    }
}

/// The per-layer metrics of a traced replay.
pub fn metrics(r: &Replay) -> Vec<Metric> {
    let all = r.tracer.spans();
    let serve = &all[r.serve_pass.clone()];
    let engine = &all[r.engine_pass.clone()];
    let core = &all[r.core_pass.clone()];
    let probes = &all[r.probes.clone()];
    let mean = |(ns, n): (u64, u64)| if n == 0 { 0.0 } else { ns as f64 / n as f64 };
    let add = |a: (u64, u64), b: (u64, u64)| (a.0 + b.0, a.1 + b.1);
    let mut out = vec![
        m(
            "jsonl.parse_us",
            mean(trace::sum(serve, "jsonl.parse", None)) / 1e3,
            "us",
        ),
        m(
            "jsonl.encode_us",
            mean(trace::sum(serve, "jsonl.encode", None)) / 1e3,
            "us",
        ),
    ];
    for (layer, solo, pack, pass) in [
        ("backend", "backend.run_single", "backend.run_pack", serve),
        ("engine", "engine.run", "engine.run_pack", engine),
    ] {
        for &(b, jobs) in &r.jobs_per_backend {
            let tag = Some(b.name());
            let ns = trace::sum(pass, solo, tag).0 + trace::sum(pass, pack, tag).0;
            let us = ns as f64 / jobs.max(1) as f64 / 1e3;
            out.push(m(format!("{layer}.run_us.{}", b.name()), us, "us"));
        }
    }
    out.push(m(
        "engine.prepare_us",
        mean(trace::sum(engine, "engine.prepare", None)) / 1e3,
        "us",
    ));
    let extract = trace::sum(core, "engine.extract", None).0;
    out.push(m(
        "engine.extract_ns_per_lane_draw",
        extract as f64 / r.lane_draws as f64,
        "ns",
    ));
    let per_indiv = |slot: usize, tag: &str| {
        let (steps, pop) = r.probe_steps[slot];
        trace::sum(probes, "core.step", Some(tag)).0 as f64 / (steps * pop) as f64
    };
    let (small, large) = (per_indiv(0, "small"), per_indiv(1, "large"));
    out.push(m("core.step_ns_per_indiv.small", small, "ns"));
    out.push(m("core.step_ns_per_indiv.large", large, "ns"));
    out.push(m("core.select_scaling", large / small, "ratio"));
    let rtl_ns = trace::sum(core, "core.rtl_run", None).0;
    out.push(m(
        "core.rtl_ns_per_cycle",
        rtl_ns as f64 / r.rtl_cycles as f64,
        "ns",
    ));
    out.push(m("core.rtl_cycles", r.rtl_cycles as f64, "count"));
    out.push(m("core.evaluations", r.evaluations as f64, "count"));
    let tags = TestFunction::ALL.iter().map(|f| f.name()).chain(["heal"]);
    for t in tags.clone() {
        let ns = trace::sum(probes, "fitness.eval", Some(t)).0;
        out.push(m(
            format!("fitness.eval_ns.{t}"),
            ns as f64 / 65_536.0,
            "ns",
        ));
    }
    for t in tags {
        let builds = add(
            trace::sum(core, "fitness.rom_build", Some(t)),
            trace::sum(probes, "fitness.rom_build", Some(t)),
        );
        out.push(m(
            format!("fitness.rom_build_ms.{t}"),
            mean(builds) / 1e6,
            "ms",
        ));
    }
    let rom = trace::sum(core, "fitness.rom_build", None).0 as f64;
    let rtl = trace::sum(core, "core.rtl_run", Some("rtl")).0 as f64;
    out.push(m("fitness.rom_share", rom / (rom + rtl), "fraction"));
    let totals = trace::layer_totals(all);
    for layer in ["jsonl", "backend", "engine", "core", "fitness"] {
        let t = totals
            .iter()
            .find(|(l, _)| *l == layer)
            .map(|(_, t)| *t)
            .unwrap_or_default();
        out.push(m(format!("layer.{layer}.calls"), t.calls as f64, "count"));
        out.push(m(
            format!("layer.{layer}.busy_ms"),
            t.busy_ns as f64 / 1e6,
            "ms",
        ));
        out.push(m(
            format!("layer.{layer}.self_ms"),
            t.self_ns as f64 / 1e6,
            "ms",
        ));
    }
    out.push(m(
        "trace.unattributed_share",
        trace::unattributed_share(all),
        "fraction",
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_packs_within_windows_only() {
        let line = |b: &str, gens: u32| {
            format!("{{\"fn\":\"F3\",\"backend\":\"{b}\",\"pop\":8,\"gens\":{gens},\"xover\":10,\"mut\":1,\"seed\":1}}")
        };
        let lines = [
            line("bitsim64", 2),
            line("bitsim64", 2),
            line("behavioral", 2),
            line("bitsim64", 3),
            line("bitsim64", 2),
        ];
        let jobs: Vec<GaJob> = lines
            .iter()
            .map(|l| jsonl::parse_job(l, 0).expect("parses"))
            .collect();
        let sizes = |units: Vec<Unit>| {
            units
                .iter()
                .map(|u| (u.pack, u.members.len()))
                .collect::<Vec<_>>()
        };
        // Window 4: {0,1} pack, 2 solo, {3} pack; window 2: {4} pack.
        assert_eq!(
            sizes(plan(&jobs, 4)),
            vec![(false, 1), (true, 2), (true, 1), (true, 1)]
        );
        assert_eq!(
            sizes(plan(&jobs, 5)),
            vec![(false, 1), (true, 3), (true, 1)]
        );
    }

    #[test]
    fn replay_counts_are_exact_and_repeat() {
        let requests: Vec<String> = (0..24)
            .map(|k| crate::gen::stream_job(3, k).line())
            .collect();
        let a = replay(&requests, 4, true);
        let b = replay(&requests, 4, false);
        assert_eq!(a.evaluations, b.evaluations);
        assert_eq!(a.rtl_cycles, b.rtl_cycles);
        assert!(
            a.rtl_cycles > 0,
            "the rtl probe job and rtl32 jobs report cycles"
        );
        assert!(b.tracer.spans().is_empty());
        let spans = a.tracer.spans();
        assert_eq!(trace::sum(spans, "jsonl.parse", None).1, 24 + 7);
        assert_eq!(trace::sum(spans, "jsonl.encode", None).1, 24 + 7);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
    }
}

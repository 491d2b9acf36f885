//! The behavioral GA engine — the algorithm of Fig. 2, draw-for-draw
//! identical to the cycle-accurate hardware core.
//!
//! This is the model the authors wrote first ("the behavior of the GA
//! optimizer was modeled in VHDL and simulated to test its
//! correctness") and it is the reference the hardware FSM is checked
//! against: the differential tests in `tests/` assert that both models
//! produce the same populations, the same best individual, and consume
//! the same number of RNG draws for every parameter set.
//!
//! One optimization cycle (Fig. 2):
//!
//! 1. generate a random initial population and evaluate it;
//! 2. per generation: copy the elite into the new population, then fill
//!    it with offspring bred by proportionate selection, single-point
//!    crossover and single-bit mutation;
//! 3. after the programmed number of generations, output the best
//!    individual found.

use carng::{Rng16, SnapshotRng};

use crate::ops;
use crate::params::GaParams;
use crate::scaling::{concat, GaRun32, GenStats32, Individual32};
use crate::snapshot::{EngineSnapshot, SnapshotError};

/// A chromosome and its fitness, as stored in one 32-bit GA-memory word.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Individual {
    /// 16-bit chromosome encoding.
    pub chrom: u16,
    /// 16-bit fitness value.
    pub fitness: u16,
}

/// Per-generation statistics — what the paper's Chipscope probes
/// recorded ("best fitness" and "sum of fitness" per generation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenStats {
    /// Generation index; 0 is the initial random population.
    pub gen: u32,
    /// Best individual in this population.
    pub best: Individual,
    /// Sum of all fitness values in this population.
    pub fit_sum: u32,
    /// Population size (for computing the average).
    pub pop_size: u8,
}

impl GenStats {
    /// Average fitness of the population.
    pub fn avg(&self) -> f64 {
        self.fit_sum as f64 / self.pop_size as f64
    }
}

/// Result of a complete optimization run.
#[derive(Debug, Clone, PartialEq)]
pub struct GaRun {
    /// Best individual found over the whole run.
    pub best: Individual,
    /// Statistics for generation 0 (initial population) through the
    /// final generation.
    pub history: Vec<GenStats>,
    /// Number of fitness evaluations requested.
    pub evaluations: u64,
    /// Number of 16-bit random numbers consumed.
    pub rng_draws: u64,
}

impl GaRun {
    /// Table V's "convergence" column: "the generation number when the
    /// difference in average fitness between the current generation and
    /// next generation is less than 5%". Interpreted as *settled
    /// permanently*: the first generation after which every subsequent
    /// generation-to-generation change stays below 5% (a single quiet
    /// window early in a still-improving run is not convergence).
    /// Returns `None` if the run never settled.
    pub fn convergence_generation(&self) -> Option<u32> {
        if self.history.len() < 2 {
            return None;
        }
        // Walk backward to find the last window that still moved ≥ 5%.
        let mut settled_from = 0usize;
        for (i, w) in self.history.windows(2).enumerate() {
            let (a, b) = (w[0].avg(), w[1].avg());
            let moved = a <= 0.0 || ((b - a).abs() / a) >= 0.05;
            if moved {
                settled_from = i + 1;
            }
        }
        if settled_from + 1 >= self.history.len() {
            None
        } else {
            Some(self.history[settled_from.max(1)].gen)
        }
    }
}

pub use crate::ops::FieldMode;

/// The behavioral GA engine, generic over the RNG implementation (the
/// paper: "the operation of the GA core is independent of the RNG
/// implementation") and the fitness function. `H` is core 2 of the
/// 32-bit GA ([`GaEngine32`]); the 16-bit engine has none.
pub struct GaEngine<R: Rng16, F, H = ()> {
    params: GaParams,
    rng: R,
    fitness: F,
    /// Each member: its chromosome (the MSB half at width 32) and its
    /// fitness.
    cur: Vec<Individual>,
    /// The next generation's buffer, swapped with `cur` at the end of
    /// every generation so breeding reuses one allocation.
    next: Vec<Individual>,
    /// Cumulative fitness of `cur` ([`ops::selection_prefix`]), rebuilt
    /// at the top of every generation so `inject` and `restore` between
    /// generations need not touch it.
    prefix: Vec<u32>,
    best: Individual,
    fit_sum: u32,
    gen: u32,
    evaluations: u64,
    rng_draws: u64,
    elitism: bool,
    field_mode: FieldMode,
    lsb: H,
}

/// The 32-bit GA of Fig. 6 (§III-D): two 16-bit cores, core 1 holding
/// the MSB half of every member and core 2 ([`Lsb`]) the LSB half.
/// Core 1 selects; core 2 breeds from its own RNG, seeded with the
/// complemented seed, its selections forced to core 1's members
/// (`scalingLogic_parSel`). Each offspring's halves are concatenated
/// and evaluated once, in offspring order.
pub type GaEngine32<R, F> = GaEngine<R, F, Lsb<R>>;

/// Core 2 of [`GaEngine32`].
pub struct Lsb<R> {
    rng: R,
    /// The LSB half of each member of the current population.
    cur: Vec<u16>,
    /// The next generation's halves, swapped with `cur`.
    next: Vec<u16>,
    /// Core 1's pick at each selection of the generation.
    hits: Vec<Option<usize>>,
    /// The LSB half of the best member.
    best: u16,
}

/// The member proportionate selection picks under draw `rn`: the first
/// whose cumulative fitness in `prefix` exceeds the threshold, or
/// `None` when none does (an all-zero population).
#[inline]
fn pick(fit_sum: u32, prefix: &[u32], rn: u16) -> Option<usize> {
    ops::selection_pick(prefix, ops::selection_threshold(fit_sum, rn))
}

impl<R: Rng16, F, H> GaEngine<R, F, H> {
    /// An engine with core 2 `lsb`. The RNG is reseeded with
    /// `params.seed`.
    fn with_lsb(params: GaParams, mut rng: R, fitness: F, lsb: H) -> Self {
        params.validate().expect("invalid GA parameters");
        rng.reseed(params.seed);
        GaEngine {
            params,
            rng,
            fitness,
            cur: Vec::with_capacity(params.pop_size as usize),
            next: Vec::with_capacity(params.pop_size as usize),
            prefix: Vec::with_capacity(params.pop_size as usize),
            best: Individual::default(),
            fit_sum: 0,
            gen: 0,
            evaluations: 0,
            rng_draws: 0,
            elitism: true,
            field_mode: FieldMode::SharedDraw,
            lsb,
        }
    }

    /// Draw and evaluate generation 0 (Fig. 2, step 1): core 1's
    /// halves one draw per member ([`ops::sow`]), member `k` evaluated
    /// by `eval(fitness, k, chrom)`. Returns the index of its best
    /// member, the first of the fittest.
    fn seed(&mut self, mut eval: impl FnMut(&mut F, usize, u16) -> u16) -> usize {
        let mut chroms = Vec::new();
        ops::sow(self.params.pop_size as usize, &mut chroms, || {
            self.rng.next_u16()
        });
        self.rng_draws += chroms.len() as u64;
        self.evaluations += chroms.len() as u64;
        let fitness = &mut self.fitness;
        self.cur.clear();
        self.cur
            .extend((0..).zip(chroms).map(|(k, chrom)| Individual {
                chrom,
                fitness: eval(fitness, k, chrom),
            }));
        self.gen = 0;
        self.fit_sum = self.cur.iter().map(|i| i.fitness as u32).sum();
        let fittest = (0..self.cur.len()).fold(0, |best, k| {
            if self.cur[k].fitness > self.cur[best].fitness {
                k
            } else {
                best
            }
        });
        self.best = self.cur[fittest];
        fittest
    }

    /// Open a generation: rebuild the selection sums, start the new
    /// population with the elite, and breed core 1's offspring into it
    /// through the generation loop ([`ops::breed`]), their fitness
    /// still 0. Each selection's pick goes to `on_pick`, in draw order.
    fn breed(&mut self, mut on_pick: impl FnMut(Option<usize>)) -> Vec<Individual> {
        ops::selection_prefix(self.cur.iter().map(|i| i.fitness), &mut self.prefix);
        let mut new_pop = std::mem::take(&mut self.next);
        new_pop.clear();
        // Elitism: the best individual survives unmodified in slot 0;
        // the ablation replaces the whole population.
        new_pop.extend(self.elitism.then_some(self.best));
        let GaEngine {
            params,
            rng,
            cur,
            prefix,
            fit_sum,
            rng_draws,
            field_mode,
            ..
        } = self;
        let offspring = params.pop_size as usize - new_pop.len();
        let thresholds = (params.xover_threshold, params.mut_threshold);
        let draw = || {
            *rng_draws += 1;
            rng.next_u16()
        };
        let select = |rn| {
            let hit = pick(*fit_sum, prefix, rn);
            on_pick(hit);
            cur[hit.unwrap_or(cur.len() - 1)].chrom
        };
        let sink = |chrom| new_pop.push(Individual { chrom, fitness: 0 });
        match field_mode {
            FieldMode::SharedDraw => ops::breed(offspring, thresholds, draw, select, sink),
            FieldMode::ConsecutiveDraws => {
                ops::breed(offspring, thresholds, ops::Consecutive(draw), select, sink)
            }
        };
        new_pop
    }

    /// Close a generation: evaluate each offspring of `new_pop` in
    /// order, member `k` by `eval(fitness, k, chrom)`, and make it the
    /// current population. Returns the index of the offspring that
    /// became the best, if one did.
    fn evaluate(
        &mut self,
        mut new_pop: Vec<Individual>,
        mut eval: impl FnMut(&mut F, usize, u16) -> u16,
    ) -> Option<usize> {
        // Without elitism (ablation) the best-so-far is tracked only
        // for reporting.
        let elite = new_pop.first().copied().filter(|_| self.elitism);
        let mut sum = elite.map_or(0, |e| e.fitness as u32);
        let (mut best, mut fittest) = (elite.unwrap_or_default(), None);
        for (k, member) in (0..).zip(&mut new_pop).skip(usize::from(elite.is_some())) {
            self.evaluations += 1;
            member.fitness = eval(&mut self.fitness, k, member.chrom);
            sum += member.fitness as u32;
            if member.fitness > best.fitness {
                best = *member;
                fittest = Some(k);
            }
        }
        self.next = std::mem::replace(&mut self.cur, new_pop);
        self.fit_sum = sum;
        self.best = best;
        self.gen += 1;
        fittest
    }

    fn stats(&self) -> GenStats {
        GenStats {
            gen: self.gen,
            best: self.best,
            fit_sum: self.fit_sum,
            pop_size: self.params.pop_size,
        }
    }
}

impl<R: Rng16, F: FnMut(u16) -> u16> GaEngine<R, F> {
    /// Create an engine. The RNG is reseeded with `params.seed`.
    pub fn new(params: GaParams, rng: R, fitness: F) -> Self {
        Self::with_lsb(params, rng, fitness, ())
    }

    /// Current population (testing / differential checks).
    pub fn population(&self) -> &[Individual] {
        &self.cur
    }

    /// Best individual so far.
    pub fn best(&self) -> Individual {
        self.best
    }

    /// Number of RNG draws consumed so far.
    pub fn rng_draws(&self) -> u64 {
        self.rng_draws
    }

    /// Number of fitness evaluations so far.
    pub fn evaluations(&self) -> u64 {
        self.evaluations
    }

    /// The parameter set in force.
    pub fn params(&self) -> GaParams {
        self.params
    }

    /// Disable elitism (ablation only — the IP core is always elitist,
    /// which is what gives it Rudolph's convergence guarantee \[17\]).
    pub fn with_elitism(mut self, elitism: bool) -> Self {
        self.elitism = elitism;
        self
    }

    /// Select the field-extraction mode (ablation only).
    pub fn with_field_mode(mut self, mode: FieldMode) -> Self {
        self.field_mode = mode;
        self
    }

    /// Generate and evaluate the random initial population (generation 0).
    pub fn init_population(&mut self) -> GenStats {
        self.seed(|fitness, _, chrom| fitness(chrom));
        self.stats()
    }

    /// Breed one full generation (Fig. 2's inner loop) and swap
    /// populations. Returns the new population's statistics.
    pub fn step_generation(&mut self) -> GenStats {
        self.step_generation_with(|_| {})
    }

    /// [`GaEngine::step_generation`], passing each parent selection's
    /// pick to `on_pick` in draw order: `Some(k)` for a hit at index k,
    /// `None` for the all-zero fall-through to the last individual.
    /// The software baseline's op tally reads its scan lengths here.
    pub fn step_generation_with(&mut self, on_pick: impl FnMut(Option<usize>)) -> GenStats {
        let new_pop = self.breed(on_pick);
        self.evaluate(new_pop, |fitness, _, chrom| fitness(chrom));
        self.stats()
    }

    /// Run the full optimization cycle.
    pub fn run(mut self) -> GaRun {
        // `n_gens` comes off the wire: grow the history, never size it.
        let mut history = vec![self.init_population()];
        for _ in 0..self.params.n_gens {
            history.push(self.step_generation());
        }
        // With elitism the final generation's best IS the best ever;
        // without it (ablation) the best can be lost, so report the
        // best over the whole run.
        let best = history
            .iter()
            .map(|s| s.best)
            .fold(Individual::default(), |a, b| {
                if b.fitness > a.fitness {
                    b
                } else {
                    a
                }
            });
        GaRun {
            best,
            history,
            evaluations: self.evaluations,
            rng_draws: self.rng_draws,
        }
    }

    /// Capture the full engine state at a generation boundary. Requires
    /// an initialized population (like [`GaEngine::inject`]); restoring
    /// the snapshot — into this engine, a fresh one, or one on a
    /// different [`SnapshotRng`] backend — continues the run
    /// bit-identically.
    pub fn snapshot(&self) -> EngineSnapshot
    where
        R: SnapshotRng,
    {
        assert!(!self.cur.is_empty(), "snapshot before init_population");
        EngineSnapshot {
            params: self.params,
            elitism: self.elitism,
            field_mode: self.field_mode,
            gen: self.gen,
            fit_sum: self.fit_sum,
            evaluations: self.evaluations,
            rng_draws: self.rng_draws,
            rng_next: self.rng.save(),
            best: self.best,
            population: self.cur.clone(),
        }
    }

    /// Install a snapshot, replacing the engine's entire state (the
    /// fitness function stays — the caller is responsible for restoring
    /// into an engine serving the same workload). Fails with a typed
    /// error, leaving the engine untouched, when the snapshot is
    /// internally inconsistent or its RNG position is unreachable for
    /// this backend.
    pub fn restore(&mut self, snap: &EngineSnapshot) -> Result<(), SnapshotError>
    where
        R: SnapshotRng,
    {
        if snap.params.validate().is_err() {
            return Err(SnapshotError::BadValue {
                what: "invalid GA parameters",
            });
        }
        if snap.population.len() != snap.params.pop_size as usize {
            return Err(SnapshotError::BadValue {
                what: "population length disagrees with pop_size",
            });
        }
        self.rng
            .load(snap.rng_draws, snap.rng_next)
            .map_err(|what| SnapshotError::BadValue { what })?;
        self.params = snap.params;
        self.elitism = snap.elitism;
        self.field_mode = snap.field_mode;
        self.cur.clone_from(&snap.population);
        self.best = snap.best;
        self.fit_sum = snap.fit_sum;
        self.gen = snap.gen;
        self.evaluations = snap.evaluations;
        self.rng_draws = snap.rng_draws;
        Ok(())
    }

    /// Replace the worst individual with `migrant` (island-model
    /// migration): the incoming individual takes the slot of the
    /// current population's minimum-fitness member, and the fitness sum
    /// is updated so subsequent proportionate selections stay exact.
    pub fn inject(&mut self, migrant: Individual) {
        assert!(!self.cur.is_empty(), "inject before init_population");
        let worst = self
            .cur
            .iter()
            .enumerate()
            .min_by_key(|(_, i)| i.fitness)
            .map(|(k, _)| k)
            .expect("population non-empty");
        self.fit_sum = self.fit_sum - self.cur[worst].fitness as u32 + migrant.fitness as u32;
        self.cur[worst] = migrant;
        if migrant.fitness > self.best.fitness {
            self.best = migrant;
        }
    }
}

impl<R: Rng16, F: FnMut(u32) -> u16> GaEngine32<R, F> {
    /// Create the 32-bit engine. `rng` is reseeded with `params.seed`
    /// for core 1, and a copy with the complemented seed drives core 2,
    /// so the two halves start decorrelated from one programmed seed.
    /// Both halves cross and mutate at `params`' thresholds.
    pub fn new32(params: GaParams, rng: R, fitness: F) -> Self
    where
        R: Clone,
    {
        let mut rng2 = rng.clone();
        rng2.reseed(!params.seed);
        let lsb = Lsb {
            rng: rng2,
            cur: Vec::new(),
            next: Vec::new(),
            hits: Vec::new(),
            best: 0,
        };
        Self::with_lsb(params, rng, fitness, lsb)
    }

    /// Generate and evaluate the random initial population (generation
    /// 0): each core's RNG draws one half of every member (Fig. 6(a)).
    pub fn init_population(&mut self) -> GenStats32 {
        let lsb = &mut self.lsb;
        let members = self.params.pop_size as usize;
        ops::sow(members, &mut lsb.cur, || lsb.rng.next_u16());
        let halves = std::mem::take(&mut lsb.cur);
        let fittest = self.seed(|fitness, k, chrom| fitness(concat(chrom, halves[k])));
        self.lsb.best = halves[fittest];
        self.lsb.cur = halves;
        self.stats32()
    }

    /// Breed one full generation: core 1 selects and breeds its halves,
    /// then core 2 breeds its own from core 1's picks (Fig. 6(b)–(d)),
    /// and each offspring is evaluated on its concatenated halves.
    pub fn step_generation(&mut self) -> GenStats32 {
        let mut hits = std::mem::take(&mut self.lsb.hits);
        hits.clear();
        let new_pop = self.breed(|hit| hits.push(hit));
        let thresholds = (self.params.xover_threshold, self.params.mut_threshold);
        let lsb = &mut self.lsb;
        let mut halves = std::mem::take(&mut lsb.next);
        halves.clear();
        halves.push(lsb.best);
        // Core 2 draws its own threshold, but scalingLogic_parSel forces
        // its scan to stop at core 1's member.
        let (last, mut selection) = (lsb.cur.len() - 1, 0);
        ops::breed(
            new_pop.len() - 1,
            thresholds,
            || lsb.rng.next_u16(),
            |_| {
                selection += 1;
                lsb.cur[hits[selection - 1].unwrap_or(last)]
            },
            |half| halves.push(half),
        );
        let fittest = self.evaluate(new_pop, |fitness, k, chrom| {
            fitness(concat(chrom, halves[k]))
        });
        if let Some(k) = fittest {
            self.lsb.best = halves[k];
        }
        self.lsb.next = std::mem::replace(&mut self.lsb.cur, halves);
        self.lsb.hits = hits;
        self.stats32()
    }

    fn stats32(&self) -> GenStats32 {
        GenStats32 {
            gen: self.gen,
            best: Individual32 {
                chrom: concat(self.best.chrom, self.lsb.best),
                fitness: self.best.fitness,
            },
            fit_sum: self.fit_sum,
        }
    }

    /// Run the full 32-bit optimization.
    pub fn run(mut self) -> GaRun32 {
        // `n_gens` comes off the wire: grow the history, never size it.
        let mut history = vec![self.init_population()];
        for _ in 0..self.params.n_gens {
            history.push(self.step_generation());
        }
        GaRun32 {
            best: self.stats32().best,
            history,
            evaluations: self.evaluations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use carng::CaRng;
    use ga_fitness::TestFunction;

    fn engine(f: TestFunction, params: GaParams) -> GaEngine<CaRng, impl FnMut(u16) -> u16> {
        GaEngine::new(params, CaRng::new(params.seed), move |c| f.eval_u16(c))
    }

    #[test]
    fn initial_population_is_the_rng_stream() {
        let params = GaParams::new(8, 4, 10, 1, 0x2961);
        let mut e = engine(TestFunction::F3, params);
        e.init_population();
        // First draw after reseed is the seed itself, then the CA stream.
        let mut rng = CaRng::new(0x2961);
        for ind in e.population() {
            assert_eq!(ind.chrom, rng.next_u16());
        }
    }

    #[test]
    fn elitism_keeps_best_monotone() {
        let params = GaParams::new(32, 32, 10, 1, 0xB342);
        let run = engine(TestFunction::Bf6, params).run();
        let mut prev = 0u16;
        for s in &run.history {
            assert!(
                s.best.fitness >= prev,
                "best fitness regressed at gen {}",
                s.gen
            );
            prev = s.best.fitness;
        }
    }

    #[test]
    fn elite_is_stored_in_slot_zero() {
        let params = GaParams::new(16, 3, 10, 1, 0x061F);
        let mut e = engine(TestFunction::F2, params);
        e.init_population();
        let elite = e.best();
        e.step_generation();
        assert_eq!(e.population()[0], elite);
    }

    #[test]
    fn easy_function_reaches_optimum() {
        // Table V/Fig. 12: F3 is solved with small populations and few
        // generations.
        let params = GaParams::new(32, 32, 10, 1, 1567);
        let run = engine(TestFunction::F3, params).run();
        assert_eq!(run.best.fitness, 3060, "F3 optimum not found");
    }

    #[test]
    fn f2_near_optimal_for_all_paper_seeds_optimal_for_some() {
        // Table V runs #6–#9: F2's optimum 3060 is found for some
        // parameter settings and seeds. Our CA rule vector differs from
        // the authors' (theirs is unpublished), so the *specific* seed
        // that succeeds differs too; we assert the paper's qualitative
        // claim — every seed gets within 1%, at least one setting finds
        // the exact optimum.
        let mut exact = 0;
        for seed in carng::seeds::TABLE5_SEEDS {
            for pop in [32u8, 64] {
                let params = GaParams::new(pop, 32, 10, 1, seed);
                let run = engine(TestFunction::F2, params).run();
                // Within ~2% of the optimum for every seed (the paper's
                // own hardware results are within 3.7% on the hard
                // functions).
                assert!(
                    run.best.fitness >= 3000,
                    "seed {seed} pop {pop}: {}",
                    run.best.fitness
                );
                if run.best.fitness == 3060 {
                    exact += 1;
                }
            }
        }
        assert!(exact >= 1, "no setting found the F2 optimum");
    }

    #[test]
    fn history_has_one_entry_per_generation_plus_initial() {
        let params = GaParams::new(8, 10, 10, 1, 7);
        let run = engine(TestFunction::F3, params).run();
        assert_eq!(run.history.len(), 11);
        assert_eq!(run.history[0].gen, 0);
        assert_eq!(run.history.last().unwrap().gen, 10);
    }

    #[test]
    fn evaluation_count_matches_formula() {
        // Initial pop + (pop − 1) offspring per generation (slot 0 is
        // the unevaluated elite copy).
        let params = GaParams::new(16, 5, 10, 1, 3);
        let run = engine(TestFunction::F3, params).run();
        assert_eq!(run.evaluations, 16 + 5 * 15);
    }

    #[test]
    fn fitness_sum_is_sum_of_population() {
        let params = GaParams::new(16, 4, 12, 2, 0xAAAA);
        let mut e = engine(TestFunction::Mbf6_2, params);
        e.init_population();
        for _ in 0..4 {
            let s = e.step_generation();
            let manual: u32 = e.population().iter().map(|i| i.fitness as u32).sum();
            assert_eq!(s.fit_sum, manual);
        }
    }

    #[test]
    fn zero_crossover_zero_mutation_clones_parents() {
        // With both operators disabled, every offspring is a selected
        // parent, so every chromosome in gen 1 already exists in gen 0.
        let params = GaParams::new(16, 1, 0, 0, 0x1234);
        let mut e = engine(TestFunction::Mbf7_2, params);
        e.init_population();
        let gen0: Vec<u16> = e.population().iter().map(|i| i.chrom).collect();
        e.step_generation();
        for ind in e.population() {
            assert!(gen0.contains(&ind.chrom));
        }
    }

    #[test]
    fn same_seed_same_run_different_seed_different_run() {
        let p1 = GaParams::new(32, 8, 10, 1, 0x2961);
        let r1 = engine(TestFunction::Bf6, p1).run();
        let r2 = engine(TestFunction::Bf6, p1).run();
        assert_eq!(r1, r2, "determinism");
        let p2 = GaParams { seed: 0x061F, ..p1 };
        let r3 = engine(TestFunction::Bf6, p2).run();
        assert_ne!(r1.history, r3.history, "seed must matter (§II-C)");
    }

    #[test]
    fn convergence_generation_detects_settling() {
        let params = GaParams::new(32, 32, 10, 1, 10593);
        let run = engine(TestFunction::Bf6, params).run();
        let conv = run.convergence_generation();
        assert!(conv.is_some(), "a 32-generation run settles (Table V)");
        assert!(conv.unwrap() <= 32);
    }

    #[test]
    fn all_zero_fitness_population_does_not_panic() {
        let params = GaParams::new(8, 3, 10, 1, 0x5555);
        let run = GaEngine::new(params, CaRng::new(params.seed), |_| 0u16).run();
        assert_eq!(run.best.fitness, 0);
        assert_eq!(run.history.len(), 4);
    }

    #[test]
    fn odd_population_size_fills_exactly() {
        let params = GaParams::new(15, 3, 10, 1, 0x2961);
        let mut e = engine(TestFunction::F3, params);
        e.init_population();
        for _ in 0..3 {
            e.step_generation();
            assert_eq!(e.population().len(), 15);
        }
    }

    #[test]
    fn non_elitist_ablation_can_regress_per_generation() {
        let params = GaParams::new(16, 32, 12, 2, 0x2961);
        let run = GaEngine::new(params, CaRng::new(params.seed), |c| {
            TestFunction::Bf6.eval_u16(c)
        })
        .with_elitism(false)
        .run();
        // The per-generation best must regress at least once over 32
        // generations without the elite copy...
        let regressed = run
            .history
            .windows(2)
            .any(|w| w[1].best.fitness < w[0].best.fitness);
        assert!(regressed, "non-elitist run never regressed — suspicious");
        // ...and the reported overall best is still the max over history.
        let max = run.history.iter().map(|s| s.best.fitness).max().unwrap();
        assert_eq!(run.best.fitness, max);
    }

    #[test]
    fn consecutive_draw_field_mode_cripples_mutation_on_f3() {
        // The ablation that motivated ops::xover_fields: with fields
        // taken from consecutive CA draws, the conditional mutation
        // point is nearly deterministic and F3 stalls below optimum.
        let params = GaParams::new(32, 200, 10, 1, 1567);
        let shared = GaEngine::new(params, CaRng::new(params.seed), |c| {
            TestFunction::F3.eval_u16(c)
        })
        .run();
        let naive = GaEngine::new(params, CaRng::new(params.seed), |c| {
            TestFunction::F3.eval_u16(c)
        })
        .with_field_mode(FieldMode::ConsecutiveDraws)
        .run();
        assert_eq!(
            shared.best.fitness, 3060,
            "shared-draw mode must solve F3 in 200 gens"
        );
        assert!(
            naive.best.fitness < 3060,
            "naive mode unexpectedly solved F3 (got {})",
            naive.best.fitness
        );
    }

    #[test]
    fn snapshot_resume_is_bit_identical() {
        let params = GaParams::new(16, 12, 10, 1, 0x2961);
        let mut reference = engine(TestFunction::Bf6, params);
        reference.init_population();
        for _ in 0..12 {
            reference.step_generation();
        }
        // Interrupt at generation 5, snapshot, restore into a FRESH
        // engine seeded with something unrelated, and finish the run.
        let mut first = engine(TestFunction::Bf6, params);
        first.init_population();
        for _ in 0..5 {
            first.step_generation();
        }
        let snap = first.snapshot();
        let wire = snap.to_hex();
        let back = EngineSnapshot::from_hex(&wire).expect("wire round trip");
        let mut resumed = engine(
            TestFunction::Bf6,
            GaParams {
                seed: 0xFFFF,
                ..params
            },
        );
        resumed.restore(&back).expect("restores");
        for _ in 0..7 {
            resumed.step_generation();
        }
        assert_eq!(resumed.population(), reference.population());
        assert_eq!(resumed.best(), reference.best());
        assert_eq!(resumed.rng_draws(), reference.rng_draws());
        assert_eq!(resumed.evaluations(), reference.evaluations());
    }

    #[test]
    fn restore_rejects_inconsistent_snapshots() {
        let params = GaParams::new(8, 4, 10, 1, 0x061F);
        let mut e = engine(TestFunction::F3, params);
        e.init_population();
        let mut snap = e.snapshot();
        snap.population.pop();
        let before = e.snapshot();
        assert!(e.restore(&snap).is_err(), "short population rejected");
        assert_eq!(e.snapshot(), before, "failed restore leaves state alone");
        let mut zero = before.clone();
        zero.rng_next = 0;
        assert!(e.restore(&zero).is_err(), "unreachable RNG state rejected");
    }

    /// The hardware's selection as the C baseline writes it: a linear
    /// cumulative scan returning the first hit, or `None` when nothing
    /// exceeds the threshold.
    fn linear_scan_pick(pop: &[Individual], threshold: u32) -> Option<usize> {
        let mut cum = 0u32;
        pop.iter().position(|ind| {
            cum += ind.fitness as u32;
            ops::selection_hit(cum, threshold)
        })
    }

    /// Breed `gens` generations from `pop` with crossover and mutation
    /// off, so each offspring is the parent its selection handed on, and
    /// hold every selection to the linear scan under the same draw: the
    /// hit `step_generation_with` reports and the parent bred from. Per
    /// pair the engine draws twice to select, once for the crossover
    /// fields and once per offspring it keeps for the mutation fields.
    fn assert_select_is_the_linear_scan(pop: &[Individual], seed: u16, gens: usize) {
        let params = GaParams::new(GaParams::MAX_POP, 1, 0, 0, seed);
        let mut e = engine(TestFunction::F3, params);
        let fit_sum = pop.iter().map(|i| i.fitness as u32).sum();
        let scan = |rn| linear_scan_pick(pop, ops::selection_threshold(fit_sum, rn));
        let offspring = params.pop_size as usize - 1;
        let mut rng = CaRng::new(seed);
        let mut draw = |drawn: &mut u64| {
            *drawn += 1;
            rng.next_u16()
        };
        let mut drawn = 0;
        for _ in 0..gens {
            e.cur = pop.to_vec();
            e.fit_sum = fit_sum;
            let mut hits = Vec::new();
            e.step_generation_with(|hit| hits.push(hit));
            let (mut want_hits, mut want_chroms) = (Vec::new(), Vec::new());
            for bred in (0..offspring).step_by(2) {
                let pair = [scan(draw(&mut drawn)), scan(draw(&mut drawn))];
                draw(&mut drawn);
                want_hits.extend(pair);
                for hit in pair.into_iter().take(offspring - bred) {
                    draw(&mut drawn);
                    want_chroms.push(pop[hit.unwrap_or(pop.len() - 1)].chrom);
                }
            }
            let chroms: Vec<u16> = e.population()[1..].iter().map(|i| i.chrom).collect();
            assert_eq!(hits, want_hits, "pop {} seed {seed:#06x}", pop.len());
            assert_eq!(chroms, want_chroms, "pop {} seed {seed:#06x}", pop.len());
            assert_eq!(e.rng_draws(), drawn);
        }
    }

    #[test]
    fn select_pick_equals_the_linear_scan() {
        for (pop_n, seed) in [
            (1usize, 1u16),
            (2, 0x2961),
            (15, 0x061F),
            (64, 7919),
            (255, 45890),
        ] {
            // Fitness from the CA stream, every third member zeroed so
            // hits land on runs of equal prefix sums.
            let mut rng = CaRng::new(seed ^ 0x5A5A);
            let pop: Vec<Individual> = (0..pop_n)
                .map(|i| {
                    let chrom = rng.next_u16();
                    let fitness = if i % 3 == 1 { 0 } else { chrom >> 4 };
                    Individual { chrom, fitness }
                })
                .collect();
            assert_select_is_the_linear_scan(&pop, seed, 2);
        }
    }

    #[test]
    fn all_zero_select_reports_the_fall_through() {
        let pop: Vec<Individual> = (0..16u16)
            .map(|chrom| Individual { chrom, fitness: 0 })
            .collect();
        assert_select_is_the_linear_scan(&pop, 0xB342, 1);
        let mut e = engine(TestFunction::F3, GaParams::new(16, 1, 10, 1, 0xB342));
        e.init_population();
        e.cur = pop;
        e.fit_sum = 0;
        let mut picks = Vec::new();
        e.step_generation_with(|hit| picks.push(hit));
        assert_eq!(picks, vec![None; 16], "one fall-through per parent");
        // At width 32 each core hands on its half of the last member.
        let params = GaParams::new(16, 1, 0, 0, 0xB342);
        let mut e = GaEngine::new32(params, CaRng::new(params.seed), |_| 0);
        e.init_population();
        let last = (e.cur[15].chrom, e.lsb.cur[15]);
        e.step_generation();
        for k in 1..16 {
            assert_eq!((e.cur[k].chrom, e.lsb.cur[k]), last, "member {k}");
        }
    }

    #[test]
    fn lfsr_rng_also_works() {
        use carng::Lfsr16;
        let params = GaParams::new(32, 16, 10, 1, 0x2961);
        let run = GaEngine::new(params, Lfsr16::new(params.seed), |c| {
            TestFunction::F3.eval_u16(c)
        })
        .run();
        assert!(run.best.fitness >= 2800, "LFSR-driven GA still optimizes");
    }

    /// A separable 32-bit test function: maximize both halves.
    fn sum_halves(c: u32) -> u16 {
        let msb = (c >> 16) as u16;
        let lsb = c as u16;
        ((msb as u32 + lsb as u32) / 2) as u16
    }

    #[test]
    fn dual_core_optimizes_32bit_function() {
        let params = GaParams::new(32, 64, 10, 2, 0x2961);
        let run = GaEngine::new32(params, CaRng::new(1), sum_halves).run();
        assert!(
            run.best.fitness > 60_000,
            "32-bit GA should approach the optimum, got {}",
            run.best.fitness
        );
        assert_eq!(run.history.len(), 65);
    }

    #[test]
    fn parents_are_never_mixed_across_individuals() {
        // With crossover and mutation disabled, every offspring must be
        // an existing 32-bit individual — the scalingLogic_parSel
        // guarantee (§III-D(b)).
        let params = GaParams::new(16, 4, 0, 0, 0xB342);
        let f: fn(u32) -> u16 = sum_halves;
        let mut engine = GaEngine::new32(params, CaRng::new(3), f);
        let members = |e: &GaEngine32<CaRng, fn(u32) -> u16>| -> Vec<u32> {
            (e.cur.iter().zip(&e.lsb.cur))
                .map(|(m, &l)| concat(m.chrom, l))
                .collect()
        };
        engine.init_population();
        let gen0 = members(&engine);
        engine.step_generation();
        for chrom in members(&engine) {
            assert!(
                gen0.contains(&chrom),
                "offspring {chrom:#010x} is not a gen-0 individual: halves were mixed"
            );
        }
    }

    #[test]
    fn elitism_monotone_in_32bit_runs() {
        let params = GaParams::new(16, 16, 12, 3, 0xAAAA);
        let run = GaEngine::new32(params, CaRng::new(5), sum_halves).run();
        let mut prev = 0;
        for s in &run.history {
            assert!(s.best.fitness >= prev);
            assert_eq!(s.best.fitness, sum_halves(s.best.chrom));
            prev = s.best.fitness;
        }
    }
}

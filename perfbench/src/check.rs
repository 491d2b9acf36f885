//! The output check.
//!
//! Every reply line must answer its request exactly once, in line
//! order, with `"ok":true`. A seeded sample of replies must also equal,
//! byte for byte, the result line of an in-process run of the same job
//! through `ga_engine::global()` (`prepare` + `run`); `rtl` cycle
//! counts are part of that line, so they must match exactly.

use ga_core::islands::IslandConfig;
use ga_engine::{IslandsEngine, Limits};
use ga_serve::{jsonl, GaJob, HealReport, JobOutput, JobResult, ServeError};

use crate::gen::Rng;

/// The result line a correct server sends for `request`, read as input
/// line `line`, computed in-process.
pub fn reference_line(request: &str, line: usize) -> Result<String, String> {
    let job =
        jsonl::parse_job(request, line).map_err(|e| format!("request does not parse: {e}"))?;
    let engine = ga_engine::global()
        .get(job.backend)
        .ok_or_else(|| format!("backend {} is not registered", job.backend.name()))?;
    let outcome: Result<JobOutput, ServeError> = match job.islands {
        Some(cfg) => run_islands(&job, cfg),
        None => engine
            .prepare(job.spec())
            .and_then(|p| engine.run(&p, &Limits::default()))
            .map_err(ServeError::from),
    };
    let heal = match (&job.workload, &outcome) {
        (ga_serve::Workload::VrcHeal { .. }, Ok(o)) => Some(HealReport::from_outcome(o)),
        _ => None,
    };
    Ok(jsonl::result_line(&JobResult {
        job: line,
        backend: job.backend,
        outcome,
        micros: 0,
        degraded: None,
        heal,
    }))
}

/// An island job answers with the ring-wide best and summed
/// evaluations; its trajectory and convergence are per-island and
/// absent from the line.
fn run_islands(job: &GaJob, cfg: IslandConfig) -> Result<JobOutput, ServeError> {
    let engine = ga_engine::global()
        .get(job.backend)
        .ok_or_else(|| ServeError::InvalidJob {
            msg: "unregistered backend".into(),
        })?;
    let run = IslandsEngine::new(engine, cfg)?.run(job.spec())?;
    Ok(JobOutput {
        best_chrom: run.best.chrom as u32,
        best_fitness: run.best.fitness,
        generations: job.params.n_gens,
        evaluations: run.evaluations,
        conv_gen: None,
        cycles: None,
        rng_draws: None,
        trajectory: Vec::new(),
    })
}

/// Structural check of one reply: it answers input line `line` and is
/// `ok`. Returns a description of the first problem.
pub fn check_shape(reply: &str, line: usize) -> Result<(), String> {
    let prefix = format!("{{\"job\":{line},");
    if !reply.starts_with(&prefix) {
        return Err(format!("expected the reply to line {line}, got {reply}"));
    }
    if !reply.contains("\"ok\":true") {
        return Err(format!("line {line} failed: {reply}"));
    }
    Ok(())
}

/// The `cycles` field of a result line, if present.
pub fn cycles(reply: &str) -> Option<u64> {
    let at = reply.find("\"cycles\":")? + "\"cycles\":".len();
    let digits: String = reply[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// Whether job `index` is in the reference sample: a seeded
/// one-in-`every` draw, the same for every run of a seed.
pub fn sampled(seed: u64, index: u64, every: u64) -> bool {
    let mut r = Rng::new(seed ^ 0x4348_4543_4B00);
    r = Rng::new(r.next_u64() ^ index);
    r.next_u64().is_multiple_of(every)
}

/// Compare `reply` to the in-process reference for `request`.
pub fn check_reference(request: &str, reply: &str, line: usize) -> Result<(), String> {
    let want = reference_line(request, line)?;
    if reply == want {
        Ok(())
    } else {
        Err(format!(
            "line {line} differs from the in-process run:\n  got  {reply}\n  want {want}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn reference_agrees_with_the_committed_style_of_result_line() {
        let job = gen::rtl_job(3, 0);
        let want = reference_line(&job.line(), 4).expect("reference runs");
        assert!(want.starts_with("{\"job\":4,\"backend\":\"rtl\",\"ok\":true"));
        assert!(cycles(&want).is_some_and(|c| c > 0));
        assert_eq!(check_reference(&job.line(), &want, 4), Ok(()));
        assert_eq!(check_shape(&want, 4), Ok(()));
    }

    #[test]
    fn corrupted_replies_are_rejected() {
        for job in [
            gen::rtl_job(9, 2),
            gen::stream_job(9, 1),
            gen::batch(9, 0)[0].clone(),
        ] {
            let good = reference_line(&job.line(), 0).expect("reference runs");
            // Flip one digit of the best fitness.
            let at = good.find("\"best_fitness\":").expect("field") + "\"best_fitness\":".len();
            let mut bad = good.clone().into_bytes();
            bad[at] = if bad[at] == b'9' { b'1' } else { bad[at] + 1 };
            let bad = String::from_utf8(bad).expect("ascii");
            assert!(check_reference(&job.line(), &bad, 0).is_err(), "{bad}");
            assert!(check_shape(&good, 1).is_err(), "wrong line number");
            assert!(check_shape(&good.replace("\"ok\":true", "\"ok\":false"), 0).is_err());
        }
        let rtl = gen::rtl_job(9, 0);
        let good = reference_line(&rtl.line(), 0).expect("reference runs");
        let c = cycles(&good).expect("rtl reports cycles");
        let bad = good.replace(&format!("\"cycles\":{c}"), &format!("\"cycles\":{}", c + 1));
        assert!(check_reference(&rtl.line(), &bad, 0).is_err());
    }

    #[test]
    fn sample_is_seeded() {
        let pick = |seed| {
            (0..400)
                .filter(|&i| sampled(seed, i, 4))
                .collect::<Vec<_>>()
        };
        assert_eq!(pick(1), pick(1));
        assert_ne!(pick(1), pick(2));
        let n = pick(1).len();
        assert!((60..140).contains(&n), "about one in four: {n}");
    }
}

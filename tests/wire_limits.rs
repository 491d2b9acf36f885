//! Job lines whose generation counts imply terabytes of RNG stream or
//! history must get a typed reply, never abort the server. Both lines
//! below used to kill `gaserved` (SIGABRT on a failed allocation): the
//! island job asked its bitsim stepper for the whole stream with no
//! watchdog, and the plain job, once its pack watchdog degraded it to
//! behavioral, preallocated one history slot per generation.

use ga_serve::jsonl::{parse_job, result_line};
use ga_serve::{serve_batch, ServeConfig, ServeError};

const ISLAND_LINE: &str = r#"{"fn":"F3","backend":"bitsim64","width":16,"pop":128,"gens":4294901760,"xover":10,"mut":1,"seed":5,"islands":2,"epoch":65535,"epochs":65536,"deadline_ms":50}"#;
const PLAIN_LINE: &str = r#"{"fn":"F3","backend":"bitsim64","width":16,"pop":128,"gens":4294901760,"xover":10,"mut":1,"seed":5,"deadline_ms":50}"#;

#[test]
fn oversized_generation_counts_get_one_typed_reply_per_line() {
    let jobs = [ISLAND_LINE, PLAIN_LINE]
        .iter()
        .enumerate()
        .map(|(i, line)| parse_job(line, i).expect("well-formed job line"))
        .collect::<Vec<_>>();
    let out = serve_batch(&jobs, &ServeConfig::default());
    assert_eq!(out.results.len(), 2, "one reply per line");
    for (i, r) in out.results.iter().enumerate() {
        assert_eq!(r.job, i);
        let line = result_line(r);
        assert!(line.contains("\"ok\":false"), "line {i}: {line}");
    }
    // The island stepper's stream watchdog trips before extraction.
    assert!(
        matches!(out.results[0].outcome, Err(ServeError::Watchdog { .. })),
        "island line: {:?}",
        out.results[0].outcome
    );
    // The plain job degrades to behavioral and runs into its deadline.
    assert_eq!(
        out.results[1].outcome.as_ref().map(|_| ()),
        Err(&ServeError::DeadlineExceeded)
    );
    assert!(
        out.results[1].degraded.is_some(),
        "watchdog degraded the pack"
    );
}

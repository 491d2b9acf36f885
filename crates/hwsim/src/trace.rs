//! Per-cycle / per-event signal tracing.
//!
//! The paper instrumented the FPGA with Chipscope Pro cores to record the
//! "best fitness" and "sum of fitness" values for each generation
//! (Figs. 13–16 are plotted from those captures). [`Trace`] plays the
//! same role for the simulation: named series of (time, value) samples
//! with CSV export for the figure-generation binaries.

use std::fmt::Write as _;

/// One named sample series.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceSeries {
    /// (sample time — cycle number or generation index, value) pairs in
    /// non-decreasing time order.
    pub samples: Vec<(u64, u64)>,
}

impl TraceSeries {
    /// Append a sample; times must be non-decreasing.
    pub fn push(&mut self, t: u64, v: u64) {
        if let Some(&(last, _)) = self.samples.last() {
            debug_assert!(t >= last, "trace samples must be time-ordered");
        }
        self.samples.push((t, v));
    }

    /// Values only, in time order.
    pub fn values(&self) -> impl Iterator<Item = u64> + '_ {
        self.samples.iter().map(|&(_, v)| v)
    }

    /// Last recorded value, if any.
    pub fn last(&self) -> Option<u64> {
        self.samples.last().map(|&(_, v)| v)
    }

    /// Maximum recorded value, if any.
    pub fn max(&self) -> Option<u64> {
        self.values().max()
    }
}

/// A set of named series keyed by signal name.
///
/// Recording is the hot path — the GA system records two series per
/// generation — so series are stored in a flat vector in first-recorded
/// order, and a [`Trace::record`] finds its series by comparing names
/// along it: with the handful of series a trace holds, that is cheaper
/// than hashing the name, and a repeated record allocates nothing. Name
/// ordering (for [`Trace::iter`] and [`Trace::to_csv`]) is reconstructed
/// only at read time.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Series in first-recorded order.
    series: Vec<(String, TraceSeries)>,
}

impl Trace {
    /// New, empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record `value` for `name` at time `t` (creating the series on
    /// first use).
    pub fn record(&mut self, name: &str, t: u64, value: u64) {
        let slot = self.slot(name).unwrap_or_else(|| {
            self.series.push((name.to_owned(), TraceSeries::default()));
            self.series.len() - 1
        });
        self.series[slot].1.push(t, value);
    }

    /// The slot in `series` of the series named `name`.
    fn slot(&self, name: &str) -> Option<usize> {
        self.series.iter().position(|(n, _)| n == name)
    }

    /// Look up a series by name.
    pub fn series(&self, name: &str) -> Option<&TraceSeries> {
        self.slot(name).map(|slot| &self.series[slot].1)
    }

    /// Slots sorted by series name (the presentation order every
    /// reader uses, matching the former sorted-map layout).
    fn slots_by_name(&self) -> Vec<usize> {
        let mut slots: Vec<usize> = (0..self.series.len()).collect();
        slots.sort_by(|&a, &b| self.series[a].0.cmp(&self.series[b].0));
        slots
    }

    /// Iterate over all (name, series) pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &TraceSeries)> {
        self.slots_by_name()
            .into_iter()
            .map(|slot| (self.series[slot].0.as_str(), &self.series[slot].1))
    }

    /// Number of series.
    pub fn len(&self) -> usize {
        self.series.len()
    }

    /// True if no series have been recorded.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }

    /// Render the trace as CSV with one row per distinct sample time and
    /// one column per series (empty cell when a series has no sample at
    /// that time), columns in name order. This is the format consumed by
    /// the fig* binaries.
    pub fn to_csv(&self) -> String {
        let slots = self.slots_by_name();
        let mut times: Vec<u64> = self
            .series
            .iter()
            .flat_map(|(_, s)| s.samples.iter().map(|&(t, _)| t))
            .collect();
        times.sort_unstable();
        times.dedup();

        let mut out = String::new();
        out.push_str("time");
        for &slot in &slots {
            let _ = write!(out, ",{}", self.series[slot].0);
        }
        out.push('\n');

        // Per-series cursor for a single linear merge pass.
        let mut cursors: Vec<usize> = vec![0; slots.len()];
        for &t in &times {
            let _ = write!(out, "{t}");
            for (ci, &slot) in slots.iter().enumerate() {
                let s = &self.series[slot].1;
                let cur = &mut cursors[ci];
                let mut cell: Option<u64> = None;
                while *cur < s.samples.len() && s.samples[*cur].0 == t {
                    cell = Some(s.samples[*cur].1);
                    *cur += 1;
                }
                match cell {
                    Some(v) => {
                        let _ = write!(out, ",{v}");
                    }
                    None => out.push(','),
                }
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_query() {
        let mut t = Trace::new();
        t.record("best", 0, 100);
        t.record("best", 1, 120);
        t.record("avg", 0, 50);
        assert_eq!(t.len(), 2);
        assert_eq!(t.series("best").unwrap().last(), Some(120));
        assert_eq!(t.series("best").unwrap().max(), Some(120));
        assert_eq!(t.series("avg").unwrap().samples.len(), 1);
        assert!(t.series("nope").is_none());
    }

    #[test]
    fn csv_merges_on_time_axis() {
        let mut t = Trace::new();
        t.record("a", 0, 1);
        t.record("a", 2, 3);
        t.record("b", 0, 10);
        t.record("b", 1, 11);
        let csv = t.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "time,a,b");
        assert_eq!(lines[1], "0,1,10");
        assert_eq!(lines[2], "1,,11");
        assert_eq!(lines[3], "2,3,");
    }

    #[test]
    fn duplicate_time_keeps_last_sample_in_csv() {
        let mut t = Trace::new();
        t.record("x", 5, 1);
        t.record("x", 5, 2);
        let csv = t.to_csv();
        assert!(csv.lines().any(|l| l == "5,2"));
    }

    #[test]
    fn csv_is_invariant_under_insertion_order() {
        // Series are stored in first-recorded order; CSV (and iter)
        // must still come out in name order.
        let mut fwd = Trace::new();
        fwd.record("avg", 0, 50);
        fwd.record("best", 0, 100);
        fwd.record("best", 1, 120);

        let mut rev = Trace::new();
        rev.record("best", 0, 100);
        rev.record("avg", 0, 50);
        rev.record("best", 1, 120);

        assert_eq!(fwd.to_csv(), rev.to_csv());
        assert_eq!(rev.to_csv().lines().next(), Some("time,avg,best"));
        let names: Vec<&str> = rev.iter().map(|(n, _)| n).collect();
        assert_eq!(names, ["avg", "best"]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic]
    fn out_of_order_samples_panic_in_debug() {
        let mut s = TraceSeries::default();
        s.push(5, 0);
        s.push(4, 0);
    }
}

//! Output checks and the in-memory span log.
//!
//! Every answer a layer gives is checked as it arrives (values must be
//! [`value_of`] their key, scans sorted and in their window), and the
//! answers of successful inserts and deletes are summed so the final
//! contents can be checked against them — the paper's key-sum validation.

use std::io::Write;
use std::time::Instant;

use crate::measure::Windowed;
use crate::spec::{value_of, Kind};

/// Expected change of the stored key set, built from the layer's answers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Sum of inserted keys minus sum of deleted keys.
    pub key_sum: i128,
    /// Inserted minus deleted keys.
    pub keys: i64,
    /// Insert and delete attempts.
    pub updates: u64,
    /// Inserts that inserted plus deletes that deleted.
    pub effective: u64,
    /// Answers that failed a check.
    pub failed: u64,
}

impl Tally {
    /// Books the answer to a point op; returns whether it passed.
    #[inline]
    pub fn point(&mut self, kind: Kind, key: u64, answer: Option<u64>) -> bool {
        let ok = answer.is_none_or(|v| v == value_of(key));
        match (kind, answer) {
            (Kind::Put, None) => {
                self.key_sum += key as i128;
                self.keys += 1;
                self.effective += 1;
            }
            (Kind::Delete, Some(_)) => {
                self.key_sum -= key as i128;
                self.keys -= 1;
                self.effective += 1;
            }
            _ => {}
        }
        if matches!(kind, Kind::Put | Kind::Delete) {
            self.updates += 1;
        }
        self.failed += u64::from(!ok);
        ok
    }

    /// Books a multi-get answer; returns whether it passed.
    pub fn mget(&mut self, keys: &[u64], answers: &[Option<u64>]) -> bool {
        let ok = keys.len() == answers.len()
            && keys
                .iter()
                .zip(answers)
                .all(|(&k, a)| a.is_none_or(|v| v == value_of(k)));
        self.failed += u64::from(!ok);
        ok
    }

    /// Books a scan of `[lo, lo + len - 1]`; returns whether it passed.
    pub fn scan(&mut self, lo: u64, len: u64, entries: &[(u64, u64)]) -> bool {
        let hi = lo.saturating_add(len - 1);
        let ok = entries.len() as u64 <= len
            && entries.windows(2).all(|w| w[0].0 < w[1].0)
            && entries
                .iter()
                .all(|&(k, v)| (lo..=hi).contains(&k) && v == value_of(k));
        self.failed += u64::from(!ok);
        ok
    }

    /// Books an answer that is wrong whatever it holds (an overload, a
    /// crash, a protocol error, a short frame).
    pub fn reject(&mut self, n: u64) {
        self.failed += n;
    }

    pub fn merge(&mut self, other: &Tally) {
        self.key_sum += other.key_sum;
        self.keys += other.keys;
        self.updates += other.updates;
        self.effective += other.effective;
        self.failed += other.failed;
    }
}

/// The contents a structure must hold after a run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Expected {
    pub key_sum: u128,
    pub keys: u64,
}

impl Expected {
    /// The prefilled keys, changed by the tallied answers.
    pub fn after(prefill: &[u64], tally: &Tally) -> Self {
        let base: i128 = prefill.iter().map(|&k| k as i128).sum();
        Self {
            key_sum: (base + tally.key_sum) as u128,
            keys: (prefill.len() as i64 + tally.keys) as u64,
        }
    }

    /// Compares a structure's key sum with the expected one.
    pub fn check_sum(&self, what: &str, actual: u128) -> Result<(), String> {
        if actual == self.key_sum {
            Ok(())
        } else {
            Err(format!(
                "{what}: key sum {actual}, expected {}",
                self.key_sum
            ))
        }
    }

    /// Compares a structure's key count with the expected one.
    pub fn check_keys(&self, what: &str, actual: u64) -> Result<(), String> {
        if actual == self.keys {
            Ok(())
        } else {
            Err(format!("{what}: {actual} keys, expected {}", self.keys))
        }
    }
}

/// A named call site: the layer called and the call made.
#[derive(Debug, PartialEq, Eq)]
pub struct Site {
    pub layer: &'static str,
    pub op: &'static str,
}

/// One timed call into a layer, recorded from the benchmark's side.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Spans of one request share this id.
    pub request: u64,
    /// Start, in ns since the log's epoch.
    pub start_ns: u64,
    pub dur_ns: u32,
    /// Index + 1 of the enclosing span in the same log, 0 for none.
    pub parent: u32,
    pub site: &'static Site,
}

/// Spans kept in memory until the run ends.  Past `cap` spans are still
/// timed but no longer stored, and counted in `dropped`.  Every recorded
/// duration, stored or not, also feeds a uniform reservoir per call site,
/// so the quantiles cover the whole traced phase.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
    cap: usize,
    pub dropped: u64,
    by_site: Vec<(&'static Site, Windowed)>,
}

impl SpanLog {
    pub fn new(epoch: Instant, cap: usize) -> Self {
        Self {
            epoch,
            spans: Vec::new(),
            cap,
            dropped: 0,
            by_site: Vec::new(),
        }
    }

    /// Records a span from `start` to `end`; returns the handle child spans
    /// name as their parent (0 if the span was dropped).
    #[inline]
    pub fn record(
        &mut self,
        request: u64,
        parent: u32,
        site: &'static Site,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let dur_ns = end.duration_since(start).as_nanos().min(u32::MAX as u128) as u32;
        self.reservoir(site).push(1, u64::from(dur_ns));
        if self.spans.len() >= self.cap {
            self.dropped += 1;
            return 0;
        }
        self.spans.push(Span {
            request,
            start_ns: start.duration_since(self.epoch).as_nanos() as u64,
            dur_ns,
            parent,
            site,
        });
        self.spans.len() as u32
    }

    fn reservoir(&mut self, site: &'static Site) -> &mut Windowed {
        let at = match self.by_site.iter().position(|(s, _)| *s == site) {
            Some(at) => at,
            None => {
                self.by_site.push((site, Windowed::new(1)));
                self.by_site.len() - 1
            }
        };
        &mut self.by_site[at].1
    }

    /// Moves another log's spans into this one, re-basing their parents.
    pub fn absorb(&mut self, other: SpanLog) {
        let base = self.spans.len() as u32;
        self.dropped += other.dropped;
        for (site, durations) in other.by_site {
            self.reservoir(site).merge(durations);
        }
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != 0 {
                s.parent += base;
            }
            s
        }));
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The `q` quantile of the durations recorded at `site`; 0 if none.
    pub fn quantile(&self, site: &Site, q: f64) -> f64 {
        self.by_site
            .iter()
            .find(|(s, _)| *s == site)
            .map_or(0.0, |(_, durations)| durations.clone().quantile(q))
    }

    /// Writes the spans as tab-separated rows.
    pub fn write_tsv(&self, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(out, "id\tparent\trequest\tlayer\top\tstart_ns\tdur_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}",
                i + 1,
                s.parent,
                s.request,
                s.site.layer,
                s.site.op,
                s.start_ns,
                s.dur_ns
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_wrong_expected_key_sum_is_reported() {
        let prefill = [3u64, 5, 9];
        let mut tally = Tally::default();
        assert!(tally.point(Kind::Put, 4, None));
        assert!(tally.point(Kind::Delete, 5, Some(value_of(5))));
        assert!(tally.point(Kind::Put, 9, Some(value_of(9))));
        let right = Expected::after(&prefill, &tally);
        assert_eq!(
            right,
            Expected {
                key_sum: 16,
                keys: 3
            }
        );
        assert!(right.check_sum("tree", 16).is_ok());
        let wrong = Expected {
            key_sum: right.key_sum + 1,
            ..right
        };
        assert!(wrong.check_sum("tree", 16).is_err());
        assert_eq!(tally.effective, 2);
        assert_eq!(tally.updates, 3);
    }

    #[test]
    fn wrong_answers_count_as_failed() {
        let mut tally = Tally::default();
        assert!(!tally.point(Kind::Get, 7, Some(1)));
        assert!(!tally.scan(10, 4, &[(12, value_of(12)), (11, value_of(11))]));
        assert!(!tally.scan(10, 4, &[(14, value_of(14))]));
        assert!(tally.scan(10, 4, &[(10, value_of(10)), (13, value_of(13))]));
        assert!(!tally.mget(&[1, 2], &[None]));
        tally.reject(8);
        assert_eq!(tally.failed, 12);
    }

    #[test]
    fn spans_link_to_their_parent_and_stop_at_the_cap() {
        static CALL: Site = Site {
            layer: "net",
            op: "call",
        };
        static ENC: Site = Site {
            layer: "codec",
            op: "enc",
        };
        let epoch = Instant::now();
        let at = |ns| epoch + std::time::Duration::from_nanos(ns);
        let mut log = SpanLog::new(epoch, 16);
        let parent = log.record(0, 0, &CALL, at(0), at(100));
        log.record(0, parent, &ENC, at(0), at(30));
        log.record(0, parent, &ENC, at(40), at(60));
        assert_eq!(parent, 1);
        assert_eq!(log.quantile(&CALL, 0.5), 100.0);
        assert_eq!(log.quantile(&ENC, 0.99), 30.0);
        let mut tsv = Vec::new();
        log.write_tsv(&mut tsv).expect("write to a Vec");
        let tsv = String::from_utf8(tsv).expect("utf-8");
        assert!(tsv.contains("\n2\t1\t0\tcodec\tenc\t0\t30\n"), "{tsv}");
        let mut capped = SpanLog::new(epoch, 1);
        capped.record(0, 0, &CALL, at(0), at(1));
        assert_eq!(capped.record(0, 0, &CALL, at(0), at(1)), 0);
        assert_eq!(capped.dropped, 1);
        assert_eq!(
            capped.quantile(&CALL, 1.0),
            1.0,
            "dropped spans still count"
        );
    }
}

//! Output checks: the result digest, the exact counters, and the pinned
//! values they are compared against.

use crate::spans::{Layer, Tracer};
use crate::workload::Workload;
use hsm_runtime::cache::CacheKey;
use hsm_runtime::codec::{decode_entry, encode_entry};
use hsm_scenario::runner::ScenarioConfig;
use hsm_trace::summary::FlowSummary;
use std::path::Path;

/// The pinned digests and counters, fixed when the benchmark is built.
pub const PINS_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/pins.txt");

/// Streamed 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn feed(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// A campaign's results reduced to hashes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    /// FNV-1a over the `codec::encode_entry` bytes of every summary, in
    /// campaign order: the result digest.
    pub digest: u64,
    /// FNV-1a of each flow's entry bytes on its own, so a mismatch can
    /// be counted per flow.
    pub flows: Vec<u64>,
    /// Flows whose entry did not decode back to the same bytes.
    pub codec_failures: u64,
}

impl Fingerprint {
    /// Encodes every summary under its flow's cache key, decodes it back
    /// and hashes the bytes. Each flow's calls sit in a `check` span.
    pub fn of<'a>(
        configs: &[ScenarioConfig],
        summaries: impl Iterator<Item = &'a FlowSummary>,
        tracer: &mut Tracer,
    ) -> Fingerprint {
        let mut digest = Fnv::new();
        let mut flows = Vec::with_capacity(configs.len());
        let mut codec_failures = 0;
        for (i, (config, summary)) in configs.iter().zip(summaries).enumerate() {
            let flow = u32::try_from(i).expect("fewer than 2^32 flows");
            let root = tracer.open(Layer::Check, flow);
            let key = CacheKey::of(config).0;
            let bytes = tracer.span(Layer::CodecEncode, flow, || encode_entry(key, summary));
            let decoded = tracer.span(Layer::CodecDecode, flow, || decode_entry(&bytes));
            let round_trips =
                decoded.is_some_and(|(k, back)| k == key && encode_entry(k, &back) == bytes);
            tracer.close(root);
            if !round_trips {
                codec_failures += 1;
            }
            digest.feed(&bytes);
            let mut one = Fnv::new();
            one.feed(&bytes);
            flows.push(one.0);
        }
        Fingerprint {
            digest: digest.0,
            flows,
            codec_failures,
        }
    }

    /// Flows whose hash differs from `reference` (a length mismatch
    /// counts every flow).
    pub fn flows_differing_from(&self, reference: &Fingerprint) -> u64 {
        if self.flows.len() != reference.flows.len() {
            return self.flows.len().max(reference.flows.len()) as u64;
        }
        self.flows
            .iter()
            .zip(&reference.flows)
            .filter(|(a, b)| a != b)
            .count() as u64
    }
}

/// Deterministic counts of one campaign pass. The fields a pass cannot
/// see are `None`: an untraced pass never holds a connection outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counters {
    /// Flows in the campaign.
    pub flows: u64,
    /// Simulator events processed.
    pub events: u64,
    /// Events scheduled on the timing wheel.
    pub schedules: u64,
    /// Events cancelled before firing.
    pub cancels: u64,
    /// Timeouts found by the §III analysis.
    pub timeouts: u64,
    /// Of those, spurious.
    pub spurious_timeouts: u64,
    /// Bytes the campaign left in its disk tier.
    pub disk_bytes: u64,
    /// Packet records captured.
    pub trace_records: Option<u64>,
    /// Handoffs the channel performed.
    pub handoffs: Option<u64>,
    /// Data retransmissions sent.
    pub retransmissions: Option<u64>,
}

impl Counters {
    /// `(name, value)` of every counter the pass saw, in a fixed order.
    pub fn entries(&self) -> Vec<(&'static str, u64)> {
        let mut out = vec![
            ("flows", self.flows),
            ("events", self.events),
            ("schedules", self.schedules),
            ("cancels", self.cancels),
            ("timeouts", self.timeouts),
            ("spurious_timeouts", self.spurious_timeouts),
            ("disk_bytes", self.disk_bytes),
        ];
        for (name, value) in [
            ("trace_records", self.trace_records),
            ("handoffs", self.handoffs),
            ("retransmissions", self.retransmissions),
        ] {
            if let Some(v) = value {
                out.push((name, v));
            }
        }
        out
    }

    /// Names of the counters both sides saw but that differ.
    pub fn disagreements(&self, other: &Counters) -> Vec<&'static str> {
        let theirs = other.entries();
        self.entries()
            .into_iter()
            .filter(|(name, v)| theirs.iter().any(|(n, w)| n == name && w != v))
            .map(|(name, _)| name)
            .collect()
    }

    /// Fills in the counters only `other` saw.
    pub fn absorb_optional(&mut self, other: &Counters) {
        self.trace_records = self.trace_records.or(other.trace_records);
        self.handoffs = self.handoffs.or(other.handoffs);
        self.retransmissions = self.retransmissions.or(other.retransmissions);
    }

    fn set(&mut self, name: &str, v: u64) -> bool {
        match name {
            "flows" => self.flows = v,
            "events" => self.events = v,
            "schedules" => self.schedules = v,
            "cancels" => self.cancels = v,
            "timeouts" => self.timeouts = v,
            "spurious_timeouts" => self.spurious_timeouts = v,
            "disk_bytes" => self.disk_bytes = v,
            "trace_records" => self.trace_records = Some(v),
            "handoffs" => self.handoffs = Some(v),
            "retransmissions" => self.retransmissions = Some(v),
            _ => return false,
        }
        true
    }
}

/// The expected output of one full-size (workload, seed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pin {
    /// Workload name.
    pub workload: String,
    /// Benchmark seed.
    pub seed: u64,
    /// Expected result digest.
    pub digest: u64,
    /// Expected exact counters.
    pub counters: Counters,
}

impl Pin {
    /// The pin's line in `pins.txt`.
    pub fn line(&self) -> String {
        let mut line = format!("{} {} {:016x}", self.workload, self.seed, self.digest);
        for (name, v) in self.counters.entries() {
            line.push_str(&format!(" {name}={v}"));
        }
        line
    }

    fn parse(line: &str) -> Option<Pin> {
        let mut fields = line.split_whitespace();
        let workload = fields.next()?.to_owned();
        let seed = fields.next()?.parse().ok()?;
        let digest = u64::from_str_radix(fields.next()?, 16).ok()?;
        let mut counters = Counters::default();
        for field in fields {
            let (name, v) = field.split_once('=')?;
            if !counters.set(name, v.parse().ok()?) {
                return None;
            }
        }
        Some(Pin {
            workload,
            seed,
            digest,
            counters,
        })
    }
}

/// Finds the pin of `(workload, seed)` in a pins file: one pin per line,
/// `#` starts a comment.
///
/// # Errors
///
/// Returns a message naming the file and line that cannot be read or
/// parsed.
pub fn find_pin(path: &Path, workload: Workload, seed: u64) -> Result<Option<Pin>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    for (n, line) in text.lines().enumerate() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let pin = Pin::parse(line)
            .ok_or_else(|| format!("{}:{}: malformed pin", path.display(), n + 1))?;
        if pin.workload == workload.name() && pin.seed == seed {
            return Ok(Some(pin));
        }
    }
    Ok(None)
}

/// Running tally of the correctness checks of one benchmark run.
///
/// The first campaign observed becomes the reference, after being held
/// against the pin when there is one; every later campaign must match it
/// flow for flow and counter for counter.
#[derive(Debug)]
pub struct Checker {
    pin: Option<Pin>,
    reference: Option<(Fingerprint, Counters)>,
    /// Flows checked.
    pub attempted: u64,
    /// Flows that failed a check.
    pub failed: u64,
    /// One line per failed check.
    pub problems: Vec<String>,
}

impl Checker {
    /// A checker holding results against `pin`, if any.
    pub fn new(pin: Option<Pin>) -> Checker {
        Checker {
            pin,
            reference: None,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
        }
    }

    /// The pin in force, if any.
    pub fn pin(&self) -> Option<&Pin> {
        self.pin.as_ref()
    }

    /// The reference digest and counters, once a campaign was observed.
    pub fn reference(&self) -> Option<&(Fingerprint, Counters)> {
        self.reference.as_ref()
    }

    /// Records a failed check: `attempted` flows not counted yet, of
    /// which `failed` flows (at most every flow attempted so far) failed.
    pub fn fail(&mut self, what: &str, attempted: u64, failed: u64, why: String) {
        self.attempted += attempted;
        self.failed = (self.failed + failed).min(self.attempted);
        self.problems.push(format!("{what}: {why}"));
    }

    /// Checks one campaign's results, and its counters when the pass
    /// has its own (a warm pass simulates nothing, so it has none). A
    /// campaign-wide mismatch (digest against the pin, or any counter)
    /// fails all its flows; otherwise each flow that differs from the
    /// reference fails on its own.
    pub fn observe(&mut self, what: &str, fp: &Fingerprint, counters: Option<&Counters>) {
        let flows = fp.flows.len() as u64;
        self.attempted += flows;
        let mut failed = fp.codec_failures;
        if fp.codec_failures > 0 {
            self.problems.push(format!(
                "{what}: {} entries do not survive an encode/decode round trip",
                fp.codec_failures
            ));
        }
        let mut whole = Vec::new();
        if let Some(pin) = &self.pin {
            if pin.digest != fp.digest {
                whole.push(format!(
                    "digest {:016x} differs from the pinned {:016x}",
                    fp.digest, pin.digest
                ));
            }
            let off = counters.map(|c| c.disagreements(&pin.counters));
            if let Some(off) = off.filter(|off| !off.is_empty()) {
                whole.push(format!("counters {off:?} differ from the pins"));
            }
        }
        match (&mut self.reference, counters) {
            (None, Some(counters)) => self.reference = Some((fp.clone(), *counters)),
            (None, None) => whole.push("no reference campaign to compare with".to_owned()),
            (Some((ref_fp, ref_counters)), counters) => {
                if let Some(counters) = counters {
                    let off = counters.disagreements(ref_counters);
                    if !off.is_empty() {
                        whole.push(format!("counters {off:?} did not repeat"));
                    }
                    ref_counters.absorb_optional(counters);
                }
                let differing = fp.flows_differing_from(ref_fp);
                if differing > 0 {
                    self.problems.push(format!(
                        "{what}: {differing} flows differ from the reference results"
                    ));
                    failed = failed.max(differing);
                }
            }
        }
        if !whole.is_empty() {
            self.problems
                .extend(whole.into_iter().map(|w| format!("{what}: {w}")));
            failed = flows;
        }
        self.failed += failed.min(flows);
    }

    /// True when no check failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(flows: &[u64]) -> Fingerprint {
        let mut digest = Fnv::new();
        for f in flows {
            digest.feed(&f.to_le_bytes());
        }
        Fingerprint {
            digest: digest.0,
            flows: flows.to_vec(),
            codec_failures: 0,
        }
    }

    fn counters(events: u64) -> Counters {
        Counters {
            flows: 3,
            events,
            ..Counters::default()
        }
    }

    #[test]
    fn pin_lines_round_trip() {
        let pin = Pin {
            workload: "hsr_cold".to_owned(),
            seed: 7,
            digest: 0x0123_4567_89ab_cdef,
            counters: Counters {
                trace_records: Some(9),
                ..counters(5)
            },
        };
        assert_eq!(Pin::parse(&pin.line()), Some(pin));
        assert_eq!(Pin::parse("hsr_cold 7 00ff bogus=1"), None);
    }

    #[test]
    fn differing_flows_fail_one_by_one_and_counters_fail_the_pass() {
        let mut checker = Checker::new(None);
        checker.observe("first", &fp(&[1, 2, 3]), Some(&counters(10)));
        checker.observe("same", &fp(&[1, 2, 3]), Some(&counters(10)));
        assert!(checker.correct());
        checker.observe("one flow off", &fp(&[1, 9, 3]), None);
        assert_eq!((checker.attempted, checker.failed), (9, 1));
        checker.observe("counter off", &fp(&[1, 2, 3]), Some(&counters(11)));
        assert_eq!((checker.attempted, checker.failed), (12, 4));
        assert!(!checker.correct());
    }

    #[test]
    fn a_pinned_digest_is_enforced() {
        let pin = Pin {
            workload: "hsr_cold".to_owned(),
            seed: 1,
            digest: fp(&[1, 2, 3]).digest,
            counters: counters(10),
        };
        let mut checker = Checker::new(Some(pin.clone()));
        checker.observe("matches", &fp(&[1, 2, 3]), Some(&counters(10)));
        assert!(checker.correct());
        let mut checker = Checker::new(Some(pin));
        checker.observe("differs", &fp(&[1, 2, 4]), Some(&counters(10)));
        assert_eq!(checker.failed, 3);
    }
}

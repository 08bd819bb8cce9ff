//! In-memory span recorder for the traced run.
//!
//! A span records one call into a layer: which layer, the flow it served
//! (the identifier every span of one flow shares), the span that caused
//! it, and its start and end. Spans stay in memory while the run goes
//! and are written out when it ends; self times are derived from them
//! afterwards, never measured inline.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Flow identifier of spans that serve no single flow (spec loading).
pub const NO_FLOW: u32 = u32::MAX;

/// The layer a span wraps, named after the module whose public call it
/// times.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Layer {
    /// `hsm_scenario::spec::load_spec`.
    SpecLoad,
    /// `CampaignSpec::expand`.
    SpecExpand,
    /// `hsm_scenario::spec::expansion_digest`.
    SpecDigest,
    /// `CampaignBuilder::build`.
    CampaignBuild,
    /// Root span of one flow's pass through the pipeline.
    Flow,
    /// `CacheKey::of`.
    CacheKey,
    /// `FlowCache::lookup` (file read and decode included on a disk hit).
    CacheLookup,
    /// `ScenarioConfig::validate`, `path`, `mobility` and `connection`.
    ScenarioBuild,
    /// `hsm_tcp::connection::try_run_connection_with`: simnet, tcp and
    /// trace capture.
    Connection,
    /// `hsm_trace::summary::analyze_flow`.
    Analysis,
    /// `FlowCache::insert` (encode and disk publish).
    CacheInsert,
    /// `hsm_core::eval::evaluate_flow`.
    Model,
    /// Root span of one flow's result check.
    Check,
    /// `codec::encode_entry`.
    CodecEncode,
    /// `codec::decode_entry`.
    CodecDecode,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 15] = [
        Layer::SpecLoad,
        Layer::SpecExpand,
        Layer::SpecDigest,
        Layer::CampaignBuild,
        Layer::Flow,
        Layer::CacheKey,
        Layer::CacheLookup,
        Layer::ScenarioBuild,
        Layer::Connection,
        Layer::Analysis,
        Layer::CacheInsert,
        Layer::Model,
        Layer::Check,
        Layer::CodecEncode,
        Layer::CodecDecode,
    ];

    /// The span name written out and reported.
    pub fn name(self) -> &'static str {
        match self {
            Layer::SpecLoad => "spec.load",
            Layer::SpecExpand => "spec.expand",
            Layer::SpecDigest => "spec.digest",
            Layer::CampaignBuild => "engine.build",
            Layer::Flow => "flow",
            Layer::CacheKey => "cache.key",
            Layer::CacheLookup => "cache.lookup",
            Layer::ScenarioBuild => "scenario.build",
            Layer::Connection => "connection",
            Layer::Analysis => "analysis",
            Layer::CacheInsert => "cache.insert",
            Layer::Model => "model",
            Layer::Check => "check",
            Layer::CodecEncode => "codec.encode",
            Layer::CodecDecode => "codec.decode",
        }
    }

    /// True for the layers one flow's pipeline pass calls, i.e. the spans
    /// whose self times add up to the per-flow busy time. Root spans only
    /// group calls: their self time is what no layer span covers.
    pub fn in_pipeline(self) -> bool {
        matches!(
            self,
            Layer::CacheKey
                | Layer::CacheLookup
                | Layer::ScenarioBuild
                | Layer::Connection
                | Layer::Analysis
                | Layer::CacheInsert
                | Layer::Model
        )
    }
}

/// One recorded call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// The layer called.
    pub layer: Layer,
    /// The flow it served, or [`NO_FLOW`].
    pub flow: u32,
    /// Index of the enclosing span in the same recording, if any.
    pub parent: Option<u32>,
    /// Start, nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's origin.
    pub end_ns: u64,
}

impl Span {
    /// Wall time the span covers, nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans, or nothing at all when built with [`Tracer::off`].
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A recording tracer whose timestamps count from `origin`.
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            enabled: true,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A tracer that records nothing: `span` just runs its closure.
    pub fn off() -> Tracer {
        Tracer {
            enabled: false,
            ..Tracer::new(Instant::now())
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Opens a span whose children are the spans opened before it is
    /// closed. Returns the handle [`Tracer::close`] takes.
    pub fn open(&mut self, layer: Layer, flow: u32) -> u32 {
        if !self.enabled {
            return u32::MAX;
        }
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans per recording");
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            flow,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn close(&mut self, id: u32) {
        if !self.enabled {
            return;
        }
        let innermost = self.open.pop();
        assert_eq!(innermost, Some(id), "spans must close innermost first");
        let end_ns = self.now_ns();
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Runs `f` inside a span of `layer` for `flow`.
    pub fn span<T>(&mut self, layer: Layer, flow: u32, f: impl FnOnce() -> T) -> T {
        let id = self.open(layer, flow);
        let out = f();
        self.close(id);
        out
    }

    /// Hands over the spans recorded so far and starts a new recording
    /// (parent indices are relative to the returned vector).
    pub fn take(&mut self) -> Vec<Span> {
        assert!(
            self.open.is_empty(),
            "cannot take a recording with open spans"
        );
        std::mem::take(&mut self.spans)
    }
}

/// Calls and summed self time of one layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LayerTime {
    /// Spans recorded for the layer.
    pub calls: u64,
    /// Summed self time: each span's duration minus the part its child
    /// spans cover.
    pub self_ns: u64,
}

/// Derives every layer's calls and self time from one recording.
pub fn self_times(spans: &[Span]) -> BTreeMap<Layer, LayerTime> {
    let mut covered = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            covered[parent as usize] += span.duration_ns();
        }
    }
    let mut out: BTreeMap<Layer, LayerTime> = BTreeMap::new();
    for (span, covered) in spans.iter().zip(covered) {
        let t = out.entry(span.layer).or_default();
        t.calls += 1;
        t.self_ns += span.duration_ns().saturating_sub(covered);
    }
    out
}

/// Writes recordings as CSV, one span per line; `recording` numbers the
/// recordings in the order given and `span` indexes within one.
///
/// # Errors
///
/// Returns the I/O error of creating or writing the file.
pub fn write_csv(path: &Path, recordings: &[Vec<Span>]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "recording,span,layer,flow,parent,start_ns,end_ns")?;
    for (r, spans) in recordings.iter().enumerate() {
        for (i, s) in spans.iter().enumerate() {
            let flow = if s.flow == NO_FLOW {
                String::new()
            } else {
                s.flow.to_string()
            };
            let parent = s.parent.map(|p| p.to_string()).unwrap_or_default();
            writeln!(
                out,
                "{r},{i},{},{flow},{parent},{},{}",
                s.layer.name(),
                s.start_ns,
                s.end_ns
            )?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            Span {
                layer: Layer::Flow,
                flow: 0,
                parent: None,
                start_ns: 0,
                end_ns: 100,
            },
            Span {
                layer: Layer::CacheKey,
                flow: 0,
                parent: Some(0),
                start_ns: 10,
                end_ns: 30,
            },
            Span {
                layer: Layer::Connection,
                flow: 0,
                parent: Some(0),
                start_ns: 40,
                end_ns: 90,
            },
        ];
        let t = self_times(&spans);
        assert_eq!(t[&Layer::Flow].self_ns, 30);
        assert_eq!(t[&Layer::CacheKey].self_ns, 20);
        assert_eq!(t[&Layer::Connection].self_ns, 50);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tracer = Tracer::off();
        assert_eq!(tracer.span(Layer::Model, 3, || 7), 7);
        assert!(tracer.take().is_empty());
    }
}

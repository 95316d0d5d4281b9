//! Trace exporters: Chrome trace-event JSON (Perfetto / `chrome://tracing`)
//! and compact JSONL for scripted analysis.
//!
//! JSON is emitted by hand: every name in the taxonomy is a static
//! identifier and every value a number or fixed keyword, so the writer
//! needs no escaping; floats go through [`hostcc_sim::json`] (`{v}` form,
//! non-finite as `null`) and the workspace needs no serializer dependency
//! (tier-1 verify runs without registry access).

use std::io::{self, Write};

use hostcc_sim::json::f64_display;

use crate::event::{TraceEvent, TraceKind};
use crate::tracer::Tracer;

/// Track (Chrome `tid`) for a category: position in
/// [`TraceKind::categories`], 1-based.
fn tid(category: &str) -> usize {
    TraceKind::categories()
        .iter()
        .position(|&c| c == category)
        .map(|i| i + 1)
        .unwrap_or(0)
}

fn ts_us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

/// Write the full Chrome trace-event JSON document.
///
/// Layout: one process (`pid` 1) named `hostcc-sim`, one thread per event
/// category, counter events (`ph: "C"`) for continuously-valued state and
/// thread-scoped instants (`ph: "i"`) for discrete occurrences.
pub fn write_chrome_trace<W: Write>(tracer: &Tracer, w: &mut W) -> io::Result<()> {
    writeln!(w, "{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[")?;
    write!(
        w,
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
         \"args\":{{\"name\":\"hostcc-sim\"}}}}"
    )?;
    for (i, cat) in TraceKind::categories().iter().enumerate() {
        write!(
            w,
            ",\n{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\
             \"args\":{{\"name\":\"{}\"}}}}",
            i + 1,
            cat
        )?;
        write!(
            w,
            ",\n{{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\
             \"args\":{{\"sort_index\":{}}}}}",
            i + 1,
            i + 1
        )?;
    }
    for rec in tracer.records() {
        let kind = rec.event.kind();
        let (ph, name, args) = render_event(&rec.event);
        write!(
            w,
            ",\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"{}\",{}\"ts\":{},\
             \"pid\":1,\"tid\":{},\"args\":{{{}}}}}",
            name,
            kind.category(),
            ph,
            if ph == "i" { "\"s\":\"t\"," } else { "" },
            ts_us(rec.at.as_nanos()),
            tid(kind.category()),
            args,
        )?;
    }
    writeln!(w, "\n]}}")?;
    Ok(())
}

/// Phase, display name and rendered `args` body for one event.
fn render_event(ev: &TraceEvent) -> (&'static str, String, String) {
    let kind = ev.kind();
    match *ev {
        TraceEvent::PcieCreditStall { backlog_bytes } => (
            "i",
            kind.name().to_string(),
            format!("\"backlog_bytes\":{backlog_bytes}"),
        ),
        TraceEvent::PcieCreditGrant { stalled_ns } => (
            "i",
            kind.name().to_string(),
            format!("\"stalled_ns\":{stalled_ns}"),
        ),
        TraceEvent::IioOccupancy { cachelines } => (
            "C",
            kind.name().to_string(),
            format!("\"cachelines\":{}", f64_display(cachelines)),
        ),
        TraceEvent::DdioEviction { fraction } => (
            "C",
            kind.name().to_string(),
            format!("\"fraction\":{}", f64_display(fraction)),
        ),
        TraceEvent::MbaRequest { level } => {
            ("i", kind.name().to_string(), format!("\"level\":{level}"))
        }
        TraceEvent::MbaEffective { level } => {
            ("C", kind.name().to_string(), format!("\"level\":{level}"))
        }
        TraceEvent::SignalSample {
            is,
            bs_gbps,
            read_ns,
        } => (
            "C",
            "hostcc_signals".to_string(),
            format!(
                "\"is\":{},\"bs_gbps\":{},\"read_ns\":{read_ns}",
                f64_display(is),
                f64_display(bs_gbps)
            ),
        ),
        TraceEvent::RegimeChange { regime } => {
            ("C", kind.name().to_string(), format!("\"regime\":{regime}"))
        }
        TraceEvent::EcnMark { flow, host } => (
            "i",
            kind.name().to_string(),
            format!(
                "\"flow\":{flow},\"by\":\"{}\"",
                if host { "host" } else { "switch" }
            ),
        ),
        TraceEvent::PacketDrop { flow, locus } => (
            "i",
            kind.name().to_string(),
            format!("\"flow\":{flow},\"locus\":\"{}\"", locus.as_str()),
        ),
        TraceEvent::CcUpdate { flow, cwnd_bytes } => (
            "C",
            format!("cwnd_flow{flow}"),
            format!("\"bytes\":{cwnd_bytes}"),
        ),
        TraceEvent::NicBacklog { bytes } => {
            ("C", kind.name().to_string(), format!("\"bytes\":{bytes}"))
        }
        TraceEvent::ChaosInject { index, start } => (
            "i",
            kind.name().to_string(),
            format!(
                "\"index\":{index},\"phase\":\"{}\"",
                if start { "start" } else { "end" }
            ),
        ),
    }
}

/// Write one JSON object per line: `{"t":<ns>,"kind":…,"cat":…,<payload>}`.
/// Grep/jq-friendly; field names match the Chrome export's `args`.
pub fn write_jsonl<W: Write>(tracer: &Tracer, w: &mut W) -> io::Result<()> {
    for rec in tracer.records() {
        let kind = rec.event.kind();
        let (_, _, args) = render_event(&rec.event);
        writeln!(
            w,
            "{{\"t\":{},\"kind\":\"{}\",\"cat\":\"{}\",{}}}",
            rec.at.as_nanos(),
            kind.name(),
            kind.category(),
            args,
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::DropLocus;
    use crate::tracer::TraceFilter;
    use hostcc_sim::json::JsonValue;
    use hostcc_sim::Nanos;

    fn populated_tracer() -> Tracer {
        let mut t = Tracer::new(1024, TraceFilter::all());
        t.record(
            Nanos::from_nanos(100),
            TraceEvent::IioOccupancy { cachelines: 65.25 },
        );
        t.record(
            Nanos::from_nanos(250),
            TraceEvent::PcieCreditStall {
                backlog_bytes: 8192,
            },
        );
        t.record(
            Nanos::from_nanos(900),
            TraceEvent::PcieCreditGrant { stalled_ns: 650 },
        );
        t.record(Nanos::from_micros(2), TraceEvent::MbaRequest { level: 2 });
        t.record(
            Nanos::from_micros(24),
            TraceEvent::MbaEffective { level: 2 },
        );
        t.record(
            Nanos::from_micros(3),
            TraceEvent::SignalSample {
                is: 80.5,
                bs_gbps: 43.2,
                read_ns: 1200,
            },
        );
        t.record(
            Nanos::from_micros(3),
            TraceEvent::RegimeChange { regime: 3 },
        );
        t.record(
            Nanos::from_micros(4),
            TraceEvent::EcnMark {
                flow: 1,
                host: true,
            },
        );
        t.record(
            Nanos::from_micros(5),
            TraceEvent::PacketDrop {
                flow: 2,
                locus: DropLocus::Nic,
            },
        );
        t.record(
            Nanos::from_micros(6),
            TraceEvent::CcUpdate {
                flow: 1,
                cwnd_bytes: 64000,
            },
        );
        t.record(
            Nanos::from_micros(7),
            TraceEvent::NicBacklog { bytes: 123456 },
        );
        t.record(
            Nanos::from_micros(8),
            TraceEvent::DdioEviction { fraction: 0.375 },
        );
        t.record(
            Nanos::from_micros(10),
            TraceEvent::ChaosInject {
                index: 0,
                start: true,
            },
        );
        t
    }

    #[test]
    fn chrome_export_is_valid_json_with_all_categories() {
        let t = populated_tracer();
        let mut out = Vec::new();
        write_chrome_trace(&t, &mut out).unwrap();
        let s = String::from_utf8(out).unwrap();
        JsonValue::parse(&s).unwrap_or_else(|e| panic!("invalid JSON: {e}\n{s}"));
        for cat in TraceKind::categories() {
            assert!(
                s.contains(&format!("\"cat\":\"{cat}\"")),
                "category {cat} missing from export"
            );
        }
        assert!(s.contains("\"ph\":\"C\""), "counter events present");
        assert!(s.contains("\"ph\":\"i\""), "instant events present");
        assert!(s.contains("\"ts\":2.000"), "µs timestamps");
    }

    #[test]
    fn jsonl_lines_are_each_valid() {
        let t = populated_tracer();
        let mut out = Vec::new();
        write_jsonl(&t, &mut out).unwrap();
        let s = String::from_utf8(out).unwrap();
        let lines: Vec<_> = s.lines().collect();
        assert_eq!(lines.len(), t.len());
        for line in lines {
            JsonValue::parse(line).unwrap_or_else(|e| panic!("invalid JSONL line: {e}\n{line}"));
        }
        assert!(s.contains("\"kind\":\"packet_drop\""));
        assert!(s.contains("\"locus\":\"nic\""));
    }

    #[test]
    fn empty_tracer_still_exports_valid_documents() {
        let t = Tracer::new(4, TraceFilter::all());
        let mut out = Vec::new();
        write_chrome_trace(&t, &mut out).unwrap();
        JsonValue::parse(std::str::from_utf8(&out).unwrap()).unwrap();
        let mut out = Vec::new();
        write_jsonl(&t, &mut out).unwrap();
        assert!(out.is_empty());
    }
}

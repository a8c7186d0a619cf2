//! JSONL and CSV exporters with a stable, versioned schema.
//!
//! JSONL carries everything — a `meta` header line, one `run` line per
//! completed run, `counter` / `gauge` / `histogram` / `timer` lines for
//! registry instruments, and one `epoch` line per epoch record. CSV
//! carries only the epoch series (the part downstream plotting actually
//! consumes), with a fixed column order.
//!
//! Serialization is hand-rolled: the build environment has no
//! `serde_json`, and the schema is small enough that explicit
//! formatting doubles as its documentation.

use std::fmt::Write as _;
use std::io::{self, Write};
use std::path::Path;

use crate::series::{EpochRecord, RunSummary};
use crate::Telemetry;

/// Schema version stamped into the JSONL `meta` line. Bump on any
/// backwards-incompatible field change.
pub const SCHEMA_VERSION: u32 = 1;

/// CSV header for the epoch series, fixed column order.
pub const CSV_HEADER: &str =
    "run,phase,epoch,router,utilization,nack_rate,temperature_c,mode,reward,epsilon,max_q_delta";

/// Formats an `f64` as a JSON value (`null` for non-finite inputs).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        let mut s = format!("{v}");
        // `Display` omits the fraction for integral floats; keep the
        // token unambiguously a float for downstream type sniffers.
        if !s.contains(['.', 'e', 'E']) {
            s.push_str(".0");
        }
        s
    } else {
        "null".to_string()
    }
}

/// Escapes a string for embedding in a JSON double-quoted literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders one schema-v1 `run` JSONL line (no trailing newline).
///
/// Shared by [`write_jsonl`] and streaming sinks — `rlnoc-serve`
/// forwards these lines to watch subscribers as telemetry frames, so a
/// streamed summary is byte-identical to the exported one.
fn run_summary_jsonl(run: &RunSummary) -> String {
    format!(
        "{{\"type\":\"run\",\"label\":\"{}\",\"wall_seconds\":{},\"cycles\":{},\"cycles_per_sec\":{}}}",
        json_escape(&run.label),
        json_f64(run.wall_seconds),
        run.cycles,
        json_f64(run.cycles_per_sec)
    )
}

/// Renders one schema-v1 `epoch` JSONL line (no trailing newline) for
/// the given run label.
///
/// Shared by [`write_jsonl`] and streaming sinks, so a streamed epoch
/// record is byte-identical to the exported one.
fn epoch_record_jsonl(run_label: &str, rec: &EpochRecord) -> String {
    format!(
        "{{\"type\":\"epoch\",\"run\":\"{}\",\"phase\":\"{}\",\"epoch\":{},\"router\":{},\"utilization\":{},\"nack_rate\":{},\"temperature_c\":{},\"mode\":{},\"reward\":{},\"epsilon\":{},\"max_q_delta\":{}}}",
        json_escape(run_label),
        rec.phase.as_str(),
        rec.epoch,
        rec.router,
        json_f64(rec.utilization),
        json_f64(rec.nack_rate),
        json_f64(rec.temperature_c),
        rec.mode,
        json_f64(rec.reward),
        json_f64(rec.epsilon),
        json_f64(rec.max_q_delta)
    )
}

/// Writes the full telemetry state as JSON Lines.
pub fn write_jsonl<W: Write>(telemetry: &Telemetry, mut w: W) -> io::Result<()> {
    let Some(view) = telemetry.export_view() else {
        return Ok(());
    };
    writeln!(
        w,
        "{{\"type\":\"meta\",\"schema_version\":{},\"epoch_records\":{},\"dropped_epoch_records\":{}}}",
        SCHEMA_VERSION,
        view.records.len(),
        view.dropped
    )?;
    for run in &view.runs {
        writeln!(w, "{}", run_summary_jsonl(run))?;
    }
    for (name, value) in &view.counters {
        writeln!(
            w,
            "{{\"type\":\"counter\",\"name\":\"{}\",\"value\":{value}}}",
            json_escape(name)
        )?;
    }
    for (name, value) in &view.gauges {
        writeln!(
            w,
            "{{\"type\":\"gauge\",\"name\":\"{}\",\"value\":{}}}",
            json_escape(name),
            json_f64(*value)
        )?;
    }
    for (kind, snaps) in [("histogram", &view.histograms), ("timer", &view.timers)] {
        for (name, snap) in snaps {
            let buckets: Vec<String> = snap
                .buckets
                .iter()
                .map(|(lo, n)| format!("[{lo},{n}]"))
                .collect();
            writeln!(
                w,
                "{{\"type\":\"{kind}\",\"name\":\"{}\",\"count\":{},\"sum\":{},\"mean\":{},\"buckets\":[{}]}}",
                json_escape(name),
                snap.count,
                snap.sum,
                json_f64(snap.mean()),
                buckets.join(",")
            )?;
        }
    }
    for rec in &view.records {
        let label = view.run_label(rec.run);
        writeln!(w, "{}", epoch_record_jsonl(label, rec))?;
    }
    w.flush()
}

/// Writes the epoch series as CSV with the [`CSV_HEADER`] columns.
fn write_csv<W: Write>(telemetry: &Telemetry, mut w: W) -> io::Result<()> {
    let Some(view) = telemetry.export_view() else {
        return Ok(());
    };
    writeln!(w, "{CSV_HEADER}")?;
    for rec in &view.records {
        let label = view.run_label(rec.run);
        // Run labels are slash-separated identifiers; quote defensively
        // anyway so arbitrary labels cannot corrupt the table.
        let quoted = if label.contains([',', '"', '\n']) {
            format!("\"{}\"", label.replace('"', "\"\""))
        } else {
            label.to_string()
        };
        writeln!(
            w,
            "{quoted},{},{},{},{},{},{},{},{},{},{}",
            rec.phase.as_str(),
            rec.epoch,
            rec.router,
            rec.utilization,
            rec.nack_rate,
            rec.temperature_c,
            rec.mode,
            rec.reward,
            rec.epsilon,
            rec.max_q_delta
        )?;
    }
    w.flush()
}

/// Writes telemetry to `path`, choosing the format by extension:
/// `.csv` → CSV epoch series, anything else → JSONL.
pub fn export_to_path(telemetry: &Telemetry, path: impl AsRef<Path>) -> io::Result<()> {
    let path = path.as_ref();
    let file = std::fs::File::create(path)?;
    let writer = io::BufWriter::new(file);
    if path
        .extension()
        .is_some_and(|e| e.eq_ignore_ascii_case("csv"))
    {
        write_csv(telemetry, writer)
    } else {
        write_jsonl(telemetry, writer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EpochRecord, Phase, Telemetry};

    fn populated() -> Telemetry {
        let t = Telemetry::enabled();
        t.counter("sim.cycles").add(1000);
        t.gauge("thermal.max_c").set(61.5);
        t.histogram("lat").record(12);
        t.timer("sim.phase.sa_st").time(|| ());
        let run = t.begin_run("RL/uniform/seed1");
        for router in 0..2u16 {
            t.record_epoch(EpochRecord {
                run,
                phase: Phase::Measure,
                epoch: 7,
                router,
                utilization: 0.25,
                nack_rate: 0.0,
                temperature_c: 48.0,
                mode: 2,
                reward: 1.5,
                epsilon: 0.05,
                max_q_delta: 0.001,
            });
        }
        t.finish_run(run, 810_000);
        t
    }

    #[test]
    fn jsonl_has_meta_run_instruments_and_epochs() {
        let t = populated();
        let mut buf = Vec::new();
        write_jsonl(&t, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].starts_with("{\"type\":\"meta\""));
        assert!(lines[0].contains("\"schema_version\":1"));
        assert!(text.contains("\"type\":\"run\""));
        assert!(text.contains("\"label\":\"RL/uniform/seed1\""));
        assert!(text.contains("\"cycles\":810000"));
        assert!(text.contains("\"type\":\"counter\",\"name\":\"sim.cycles\",\"value\":1000"));
        assert!(text.contains("\"type\":\"gauge\",\"name\":\"thermal.max_c\",\"value\":61.5"));
        assert!(text.contains("\"type\":\"histogram\",\"name\":\"lat\""));
        assert!(text.contains("\"type\":\"timer\",\"name\":\"sim.phase.sa_st\""));
        let epochs: Vec<&&str> = lines
            .iter()
            .filter(|l| l.starts_with("{\"type\":\"epoch\""))
            .collect();
        assert_eq!(epochs.len(), 2);
        assert!(epochs[0].contains("\"run\":\"RL/uniform/seed1\""));
        assert!(epochs[0].contains("\"phase\":\"measure\""));
        assert!(epochs[0].contains("\"utilization\":0.25"));
        // Every line parses as a single JSON object at the brace level.
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
    }

    #[test]
    fn csv_has_header_and_one_row_per_record() {
        let t = populated();
        let mut buf = Vec::new();
        write_csv(&t, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], CSV_HEADER);
        assert_eq!(lines.len(), 3);
        assert_eq!(
            lines[1],
            "RL/uniform/seed1,measure,7,0,0.25,0,48,2,1.5,0.05,0.001"
        );
        assert!(lines[2].starts_with("RL/uniform/seed1,measure,7,1,"));
    }

    #[test]
    fn disabled_telemetry_exports_nothing() {
        let t = Telemetry::disabled();
        let mut buf = Vec::new();
        write_jsonl(&t, &mut buf).unwrap();
        assert!(buf.is_empty());
        write_csv(&t, &mut buf).unwrap();
        assert!(buf.is_empty());
    }

    #[test]
    fn json_f64_handles_edge_cases() {
        assert_eq!(json_f64(0.5), "0.5");
        assert_eq!(json_f64(3.0), "3.0");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn export_to_path_picks_format_by_extension() {
        let t = populated();
        let dir = std::env::temp_dir();
        let jsonl = dir.join("rlnoc_telemetry_test.jsonl");
        let csv = dir.join("rlnoc_telemetry_test.csv");
        export_to_path(&t, &jsonl).unwrap();
        export_to_path(&t, &csv).unwrap();
        let jtext = std::fs::read_to_string(&jsonl).unwrap();
        let ctext = std::fs::read_to_string(&csv).unwrap();
        std::fs::remove_file(&jsonl).ok();
        std::fs::remove_file(&csv).ok();
        assert!(jtext.starts_with("{\"type\":\"meta\""));
        assert!(ctext.starts_with(CSV_HEADER));
    }
}

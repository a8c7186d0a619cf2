//! Hostile input for the five CRC-trailed text formats — `rlnoc-spec`,
//! `rlnoc-case`, `rlnoc-hardfault`, `rlnoc-policy` and the
//! `rlnoc-journal` record — and for the `rlnoc-wire` frame header.
//!
//! A CRC turns almost every corruption into a clean refusal, so the
//! hostile input that reaches a parser is one whose CRC was recomputed
//! after the damage. Every field of every format is set in turn to `0`,
//! `u64::MAX`, `-1` and `NaN`, then duplicated, then dropped, and the
//! trailer is resealed. Each such document must either be legal — it
//! parses to a value that writes back as the same bytes — or be refused
//! with an error naming its line. Nothing may panic, and no parse may
//! hold more than [`bound`] heap bytes at once.
//!
//! Every truncation and every single-bit flip of each format's intact
//! text must be refused outright.
//!
//! Heap is counted per thread by a global allocator, so the tests here
//! may run in parallel.

use noc_coding::crc::Crc32;
use noc_coding::textfmt::{self, Trailer};
use noc_fault::hardfault::HardFaultSchedule;
use noc_rl::qtable::QTable;
use noc_rl::snapshot::PolicySnapshot;
use noc_sim::topology::Mesh3d;
use noc_testutil::temp_dir;
use rlnoc_core::experiment::{ErrorControlScheme, ExperimentReport};
use rlnoc_core::fuzzcase::FuzzCase;
use rlnoc_core::spec::CampaignSpec;
use rlnoc_runner::{parse_report, render_report, CheckpointDir, JOURNAL_FILE};
use rlnoc_serve::{read_frame, Frame, FrameType, WireError, MAX_PAYLOAD};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fs;

thread_local! {
    /// This thread's live heap bytes.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    /// The most `LIVE` has been since [`peak_of`] reset it.
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn grew(by: isize) {
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + by);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

struct Counting;

// SAFETY: every call is forwarded unchanged to the system allocator;
// the counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grew(layout.size() as isize);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            grew(layout.size() as isize);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        grew(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let moved = System.realloc(ptr, layout, new_size);
        if !moved.is_null() {
            grew(new_size as isize - layout.size() as isize);
        }
        moved
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` and returns its result with the most heap this thread held
/// at once beyond what it held when `f` started.
fn peak_of<T>(f: impl FnOnce() -> T) -> (T, isize) {
    let before = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(before));
    let out = f();
    (out, PEAK.with(Cell::get) - before)
}

/// The most heap reading `len` bytes of input may hold at once.
fn bound(len: usize) -> isize {
    (len * 4 + (64 << 10)) as isize
}

/// The values every field is set to in turn.
const HOSTILE: [&str; 4] = ["0", "18446744073709551615", "-1", "NaN"];

/// Whether `error` names a 1-based line number.
fn names_a_line(error: &str) -> bool {
    error
        .match_indices("line ")
        .any(|(at, _)| error[at + 5..].starts_with(|c: char| matches!(c, '1'..='9')))
}

/// A format under test: an intact document and its parser.
struct Format {
    name: &'static str,
    text: String,
    trailer: Trailer,
    /// Parses a document; `Ok` holds what the parsed value writes.
    parse: fn(&str) -> Result<String, String>,
}

fn spec(text: &str) -> Result<String, String> {
    CampaignSpec::from_text(text)
        .map(|s| s.to_text())
        .map_err(|e| e.to_string())
}

fn case(text: &str) -> Result<String, String> {
    FuzzCase::from_text(text)
        .map(|c| c.to_text())
        .map_err(|e| e.to_string())
}

fn schedule(text: &str) -> Result<String, String> {
    HardFaultSchedule::from_text(text)
        .map(|s| s.to_text())
        .map_err(|e| e.to_string())
}

fn policy(text: &str) -> Result<String, String> {
    let bank = PolicySnapshot::read(text.as_bytes()).map_err(|e| e.to_string())?;
    let mut written = Vec::new();
    bank.write(&mut written).expect("write to memory");
    Ok(String::from_utf8(written).expect("snapshot text is ASCII"))
}

fn policy_text(fault_bins: usize) -> String {
    let tables = (0..2)
        .map(|i| {
            let mut q = QTable::new(40);
            q.update(i, 1, 1.5, 7, 0.5, 0.5);
            q.update(39, 3 - i, -0.125, 0, 0.25, 0.5);
            q
        })
        .collect();
    let mut bytes = Vec::new();
    PolicySnapshot::new(tables)
        .with_fault_bins(fault_bins)
        .write(&mut bytes)
        .expect("write to memory");
    String::from_utf8(bytes).expect("snapshot text is ASCII")
}

fn formats() -> Vec<Format> {
    let faulted = (0..)
        .map(|i| FuzzCase::generate(2019, i))
        .find(|c| c.hard_faults.is_some())
        .expect("the stream carries hard faults");
    let schedule_text =
        HardFaultSchedule::random(Mesh3d::new(3, 3, 2), 3, 1, (5, 50), 13).to_text();
    let key_value = |name, text, parse| Format {
        name,
        text,
        trailer: Trailer::CrcEq,
        parse,
    };
    let policy_format = |name, fault_bins| Format {
        name,
        text: policy_text(fault_bins),
        trailer: Trailer::Crc32,
        parse: policy,
    };
    vec![
        key_value("rlnoc-spec", CampaignSpec::quick(2019).to_text(), spec),
        key_value("rlnoc-case", FuzzCase::generate(2019, 0).to_text(), case),
        key_value("rlnoc-case with hard faults", faulted.to_text(), case),
        key_value("rlnoc-hardfault", schedule_text, schedule),
        policy_format("rlnoc-policy v1", 1),
        policy_format("rlnoc-policy v2", 3),
    ]
}

/// Every mutation of `body`, described: each space-separated token of
/// each line set to each [`HOSTILE`] value (only the value of a
/// `key=value` token), then each line duplicated, then each dropped.
fn mutations(body: &str) -> Vec<(String, String)> {
    let lines: Vec<&str> = body.lines().collect();
    let join = |lines: &[String]| lines.iter().map(|l| format!("{l}\n")).collect::<String>();
    let owned = || lines.iter().map(|l| l.to_string()).collect::<Vec<_>>();
    let mut out = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        let tokens: Vec<&str> = line.split(' ').collect();
        for (t, token) in tokens.iter().enumerate() {
            let key = token.find('=').map_or("", |at| &token[..=at]);
            for value in HOSTILE {
                let mut edited: Vec<String> = tokens.iter().map(|s| s.to_string()).collect();
                edited[t] = format!("{key}{value}");
                let mut doc = owned();
                doc[i] = edited.join(" ");
                out.push((
                    format!("line {} token {t} set to {value}", i + 1),
                    join(&doc),
                ));
            }
        }
        let mut doc = owned();
        doc.insert(i, line.to_string());
        out.push((format!("line {} duplicated", i + 1), join(&doc)));
        let mut doc = owned();
        doc.remove(i);
        out.push((format!("line {} dropped", i + 1), join(&doc)));
    }
    out
}

fn sealed(mut body: String, trailer: Trailer) -> String {
    textfmt::seal(&mut body, trailer);
    body
}

#[test]
fn every_crc_valid_mutation_is_legal_or_refused_at_a_line() {
    for format in formats() {
        let body = textfmt::unseal(&format.text, format.trailer).expect("intact");
        let mutated = mutations(body);
        assert!(
            mutated.len() > 40,
            "{}: {} mutations",
            format.name,
            mutated.len()
        );
        for (what, body) in mutated {
            let doc = sealed(body, format.trailer);
            let (result, peak) = peak_of(|| (format.parse)(&doc));
            let name = format.name;
            assert!(
                peak <= bound(doc.len()),
                "{name}, {what}: parsing held {peak} heap bytes, bound {}",
                bound(doc.len())
            );
            match result {
                // A policy's Q-values keep their own float spelling
                // (`0` reads as `0e0`); everything else writes back as
                // the very bytes it was read from.
                Ok(written) if format.trailer == Trailer::Crc32 => {
                    assert_eq!((format.parse)(&written), Ok(written), "{name}, {what}");
                }
                Ok(written) => assert_eq!(written, doc, "{name}, {what}: parsed loosely"),
                Err(e) => assert!(names_a_line(&e), "{name}, {what}: `{e}` names no line"),
            }
        }
    }
}

#[test]
fn every_truncation_and_every_bit_flip_is_refused() {
    for format in formats() {
        let text = format.text.as_bytes();
        let name = format.name;
        for cut in 0..text.len() {
            let cut_text = std::str::from_utf8(&text[..cut]).expect("formats are ASCII");
            assert!(
                (format.parse)(cut_text).is_err(),
                "{name} truncated to {cut}/{} bytes parsed",
                text.len()
            );
        }
        for byte in 0..text.len() {
            for bit in 0..8 {
                let mut flipped = text.to_vec();
                flipped[byte] ^= 1 << bit;
                let Ok(flipped) = String::from_utf8(flipped) else {
                    continue; // not even text any more
                };
                assert!(
                    (format.parse)(&flipped).is_err(),
                    "{name} with bit {bit} of byte {byte} flipped parsed"
                );
            }
        }
    }
}

#[test]
fn a_spec_listing_four_million_workloads_is_refused_before_either_list_is_built() {
    let mut body = String::from("rlnoc-spec v1\nschemes=CRC\nworkloads=a");
    body.push_str(&",a".repeat(3_999_999));
    body.push_str(
        "\nmesh=2x2\nseed=0000000000000005\nreplicates=1\npretrain=0\nwarmup=0\n\
         measure=300\ndrain=20000\n",
    );
    let text = sealed(body, Trailer::CrcEq);
    assert_eq!(text.len(), 8_000_137);
    let (result, peak) = peak_of(|| CampaignSpec::from_text(&text));
    let err = result.expect_err("4 000 000 tasks").to_string();
    assert!(err.contains("line 6: 4000000 tasks exceed"), "{err}");
    assert!(peak < 1 << 20, "refusing the spec held {peak} heap bytes");
}

#[test]
fn a_policy_header_at_the_agent_cap_allocates_nothing_for_absent_agents() {
    let text = sealed(
        "rlnoc-policy v1 agents=65536 states=4\nagent 0\nqtable 4 0\nend\n".into(),
        Trailer::Crc32,
    );
    let (result, peak) = peak_of(|| policy(&text));
    let err = result.expect_err("one section of 65 536");
    assert!(err.contains("line 4: expected `agent 1`"), "{err}");
    assert!(peak <= bound(text.len()), "{peak} heap bytes");
}

fn sample_report(seed: u64) -> ExperimentReport {
    ExperimentReport {
        scheme: ErrorControlScheme::ProposedRl,
        workload: "blackscholes".to_string(),
        seed,
        frequency_hz: 1.6e9,
        packets_injected: 1000,
        packets_delivered: 998,
        flits_delivered: 7984,
        avg_latency_cycles: 37.25,
        p99_latency_cycles: 143,
        execution_cycles: 60_000,
        drained: true,
        packet_retransmissions: 3,
        flit_retransmissions: 41,
        retransmitted_packets_equiv: 8.125,
        hop_nacks: 44,
        ecc_corrections: 12,
        crc_failures: 2,
        control_packets: 3,
        pre_retransmit_hits: 1,
        silent_corruptions: 0,
        dynamic_energy_j: 1.2345678901234e-3,
        static_energy_j: 4.4e-4,
        control_energy_j: 1.0000000000000002e-7,
        mode_histogram: [10, 20, 30, 40],
        mean_temperature_c: 67.33333333333333,
        max_temperature_c: 81.0,
        hard_fault_events: 2,
        reroute_events: 2,
        packets_lost_hard_fault: 5,
        packets_refused_unreachable: 1,
        unreachable_pairs: 0,
    }
}

#[test]
fn crc_valid_journal_records_are_legal_or_absent() {
    // A journal record has no error to report: one that frames and
    // checks but does not parse is absent, and its task re-runs. So a
    // mutated record of task 0 must load as nothing or as a report
    // that writes back as itself, and must cost task 1 nothing.
    const FP: u64 = 0xFEED;
    let dir = temp_dir("hostile-journal");
    let reports = [sample_report(10), sample_report(11)];
    let ckpt = CheckpointDir::open(&dir, FP, 2).expect("open");
    for (index, report) in reports.iter().enumerate() {
        ckpt.store(index, report).expect("store");
    }
    drop(ckpt);
    let path = dir.join(JOURNAL_FILE);
    let intact = String::from_utf8(fs::read(&path).expect("read journal")).expect("text");
    let starts: Vec<usize> = intact
        .match_indices("rlnoc-journal v1 ")
        .map(|(at, _)| at)
        .collect();
    let (campaign, task0, task1) = (
        &intact[..starts[1]],
        &intact[starts[1]..starts[2]],
        &intact[starts[2]..],
    );
    let header_end = task0.find('\n').expect("magic line") + 1;
    let payload = &task0[header_end..task0.len() - Trailer::Crc32.line_len()];
    let record = |header: &str, payload: &str| sealed(format!("{header}{payload}"), Trailer::Crc32);

    // The payload's fields, each record framed with its true length;
    // then the magic line's tokens, `<len>` among them.
    let mut records: Vec<(String, String)> = mutations(payload)
        .into_iter()
        .map(|(what, payload)| {
            let header = format!("rlnoc-journal v1 task {}\n", payload.len());
            (format!("payload {what}"), record(&header, &payload))
        })
        .collect();
    records.extend(
        mutations(&task0[..header_end])
            .into_iter()
            .map(|(what, header)| (format!("magic {what}"), record(&header, payload))),
    );
    assert!(records.len() > 100, "{} mutations", records.len());

    for (what, mutated) in records {
        let journal = format!("{campaign}{mutated}{task1}");
        fs::write(&path, &journal).expect("write journal");
        let (loaded, peak) = peak_of(|| {
            let ckpt = CheckpointDir::open(&dir, FP, 2).expect("reopen");
            (ckpt.load(0), ckpt.load(1))
        });
        assert!(
            peak <= bound(journal.len()),
            "{what}: reading held {peak} heap bytes, bound {}",
            bound(journal.len())
        );
        assert_eq!(loaded.1.as_ref(), Some(&reports[1]), "{what}: task 1 lost");
        if let Some(report) = loaded.0 {
            let written = render_report(&report);
            let again = parse_report(&format!("{written}end\n")).expect("legal report");
            assert_eq!(render_report(&again), written, "{what}");
        }
    }
    fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn crc_valid_wire_headers_are_refused_within_bound() {
    let payload = b"tenant=alice\ncampaign=c-0000000000000001\n";
    let frame = Frame::new(FrameType::Submit, payload.to_vec());
    let header = String::from_utf8(frame.encode()[..frame.encode().len() - payload.len()].to_vec())
        .expect("ASCII header");
    let cap = MAX_PAYLOAD.to_string();
    let mut headers: Vec<(String, String)> = mutations(&header)
        .into_iter()
        .filter(|(what, _)| what.contains("token 2") || !what.contains("token"))
        .collect();
    headers.push((
        "<len> at the cap".into(),
        header.replace(&format!(" {} ", payload.len()), &format!(" {cap} ")),
    ));
    for (what, header) in headers {
        // The CRC covers what the header claims as payload.
        let mut tokens: Vec<String> = header.trim_end().split(' ').map(str::to_string).collect();
        let claimed = tokens
            .get(2)
            .and_then(|t| t.parse::<usize>().ok())
            .map_or(payload.len(), |n| n.min(payload.len()));
        if let Some(crc) = tokens.get_mut(3) {
            *crc = format!("{:08x}", Crc32::new().checksum(&payload[..claimed]));
        }
        let mut bytes = format!("{}\n", tokens.join(" ")).into_bytes();
        bytes.extend_from_slice(payload);
        let ((frames, end), peak) = peak_of(|| {
            let mut stream = bytes.as_slice();
            let mut frames = Vec::new();
            loop {
                match read_frame(&mut stream) {
                    Ok(frame) => frames.push(frame),
                    Err(e) => break (frames, e),
                }
            }
        });
        assert!(
            peak <= bound(bytes.len()),
            "{what}: reading held {peak} heap bytes, bound {}",
            bound(bytes.len())
        );
        assert!(matches!(end, WireError::Malformed(_)), "{what}: {end}");
        let decoded: Vec<u8> = frames.iter().flat_map(Frame::encode).collect();
        assert!(
            bytes.starts_with(&decoded),
            "{what}: a frame decoded loosely"
        );
    }
}

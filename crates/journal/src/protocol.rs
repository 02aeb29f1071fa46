//! The observer/command line protocol `flux-served` speaks.
//!
//! Plain `std` text over any byte stream (the binary serves it on TCP and
//! stdin): one command per line, one response per command. Single-line
//! responses start `OK ` or `ERR `; bulk responses are framed by byte
//! count —
//!
//! ```text
//! > REPORT 0
//! < OK 4211
//! < {"flights":[...]}          (exactly 4211 bytes, then a newline)
//! ```
//!
//! so a client never has to guess where a JSON blob ends. The protocol
//! layer is one function, [`handle_line_shared`], from `(service, line)`
//! to [`Response`], which keeps it testable without sockets.
//!
//! Commands:
//!
//! | command | effect |
//! |---|---|
//! | `STATUS` | one-line counters: pending, acked, batches, clock, events |
//! | `SUBMIT <id> <pair> <package> [priority]` | write-ahead ack a request |
//! | `STEP` | admit all pending requests as one batch and execute it |
//! | `REPORT <seq>` | bulk: the batch's `FleetReport` JSON |
//! | `TRACE <seq>` | bulk: the batch's `chrome://tracing` export |
//! | `TELEMETRY <seq>` | bulk: the batch's telemetry JSON export |
//! | `STATE` | bulk: the full durable state (the byte-identity probe) |
//! | `QUIT` | close this connection |

use crate::service::{ServiceCore, SubmitAck};
use crate::RequestSpec;
use std::io::{self, Write};
use std::sync::{Arc, Mutex};

/// One protocol response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// A single `OK ...` or `ERR ...` line.
    Line(String),
    /// `OK <len>` followed by exactly `len` body bytes and a newline.
    Blob(Vec<u8>),
    /// `OK bye`; the server should close the connection afterwards.
    Quit,
}

impl Response {
    fn err(msg: impl std::fmt::Display) -> Self {
        Response::Line(format!("ERR {msg}"))
    }

    /// Whether this response asks the server to hang up.
    pub fn is_quit(&self) -> bool {
        matches!(self, Response::Quit)
    }

    /// Writes the response in wire form.
    pub fn write_to(&self, out: &mut impl Write) -> io::Result<()> {
        match self {
            Response::Line(line) => writeln!(out, "{line}"),
            Response::Blob(body) => {
                writeln!(out, "OK {}", body.len())?;
                out.write_all(body)?;
                writeln!(out)
            }
            Response::Quit => writeln!(out, "OK bye"),
        }
    }
}

fn batch_blob(
    core: &ServiceCore,
    arg: Option<&str>,
    pick: impl Fn(&crate::BatchRecord) -> Vec<u8>,
) -> Response {
    let Some(seq) = arg.and_then(|a| a.parse::<u64>().ok()) else {
        return Response::err("expected a batch sequence number");
    };
    match core.batch(seq) {
        Some(record) => Response::Blob(pick(record)),
        None => Response::err(format!("no batch {seq}")),
    }
}

/// Executes one protocol line other than a bare `STEP` against the
/// service, under the core lock [`handle_line_shared`] holds.
fn handle_line(core: &mut ServiceCore, line: &str) -> Response {
    let mut words = line.split_whitespace();
    let Some(cmd) = words.next() else {
        return Response::err("empty command");
    };
    let args: Vec<&str> = words.collect();
    match (cmd.to_ascii_uppercase().as_str(), args.as_slice()) {
        ("STATUS", []) => Response::Line(format!(
            "OK pending={} acked={} batches={} next_batch={} clock_ns={} events={}",
            core.pending_ids().len(),
            core.acked_count(),
            core.batches().len(),
            core.next_batch(),
            core.service_clock().as_nanos(),
            core.journaled_events(),
        )),
        ("SUBMIT", [id, pair, package]) | ("SUBMIT", [id, pair, package, _]) => {
            let (Ok(id), Ok(pair)) = (id.parse::<u64>(), pair.parse::<u64>()) else {
                return Response::err("SUBMIT <id> <pair> <package> [priority]");
            };
            let priority = match args.get(3) {
                Some(p) => match p.parse::<u8>() {
                    Ok(p) => p,
                    Err(_) => return Response::err("priority must be 0-255"),
                },
                None => 0,
            };
            let req = RequestSpec {
                id,
                pair,
                package: (*package).to_owned(),
                priority,
            };
            match core.submit(req) {
                Ok(SubmitAck::Acked) => Response::Line("OK acked".into()),
                Ok(SubmitAck::Duplicate) => Response::Line("OK duplicate".into()),
                Err(e) => Response::err(e),
            }
        }
        ("REPORT", [_]) => batch_blob(core, args.first().copied(), |r| {
            serde::to_json(&r.report).into_bytes()
        }),
        ("TRACE", [_]) => batch_blob(core, args.first().copied(), |r| {
            r.chrome_trace.clone().into_bytes()
        }),
        ("TELEMETRY", [_]) => batch_blob(core, args.first().copied(), |r| {
            r.telemetry_json.clone().into_bytes()
        }),
        ("STATE", []) => Response::Blob(core.state_json().into_bytes()),
        ("QUIT", []) => Response::Quit,
        _ => Response::err(format!("unknown or malformed command `{line}`")),
    }
}

/// The one-line `STEP` success response.
fn step_line(record: &crate::BatchRecord) -> Response {
    Response::Line(format!(
        "OK batch {} completed={} rolled_back={} refused={}",
        record.seq, record.report.completed, record.report.rolled_back, record.report.refused,
    ))
}

/// Executes one protocol line against a core shared behind a mutex.
///
/// Every command runs under the core lock — except `STEP`, whose
/// expensive fleet execution runs *outside* the lock so
/// observers on other connections (`STATUS`, `REPORT`, ...) keep getting
/// answers while a batch is in flight. The cycle is: journal + drain the
/// admission under the lock ([`ServiceCore::begin_batch`]), execute the
/// batch with the lock released ([`crate::PreparedBatch::execute`]), then
/// re-take the lock to install the results
/// ([`ServiceCore::install_batch`]). Concurrent `STEP`s are serialised by
/// the core's [`step_gate`](ServiceCore::step_gate), held across the whole
/// cycle, so the second cannot begin against a service clock the first has
/// not advanced yet.
pub fn handle_line_shared(core: &Arc<Mutex<ServiceCore>>, line: &str) -> Response {
    let mut words = line.split_whitespace();
    let is_step = words
        .next()
        .is_some_and(|cmd| cmd.eq_ignore_ascii_case("STEP"))
        && words.next().is_none();
    if !is_step {
        return handle_line(&mut core.lock().unwrap(), line);
    }
    let gate = core.lock().unwrap().step_gate();
    let _cycle = gate.lock().unwrap();
    let prepared = match core.lock().unwrap().begin_batch() {
        Ok(Some(prepared)) => prepared,
        Ok(None) => return Response::Line("OK idle".into()),
        Err(e) => return Response::err(e),
    };
    let executed = match prepared.execute() {
        Ok(executed) => executed,
        Err(e) => return Response::err(e),
    };
    match core.lock().unwrap().install_batch(executed) {
        Ok(record) => step_line(record),
        Err(e) => Response::err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::JournalConfig;
    use crate::test_dir::TestDir;
    use crate::{ScenarioSpec, ServiceConfig};

    /// A service in a fresh root. The root comes first so that, bound
    /// first, it drops after the service.
    fn svc(tag: &str) -> (TestDir, Arc<Mutex<ServiceCore>>) {
        let root = TestDir::new("protocol", tag);
        let spec = ScenarioSpec {
            seed: 0xAB,
            pairs: 1,
            scripted: false,
            max_in_flight: 1,
        };
        let cfg = ServiceConfig {
            snapshot_every: 0,
            journal: JournalConfig {
                segment_bytes: 1 << 20,
                sync_on_append: false,
            },
        };
        let core = ServiceCore::open(&root, spec, cfg).unwrap();
        (root, Arc::new(Mutex::new(core)))
    }

    #[test]
    fn full_session_flows() {
        let (_root, core) = svc("session");
        assert_eq!(
            handle_line_shared(&core, "SUBMIT 1 0 WhatsApp"),
            Response::Line("OK acked".into())
        );
        assert_eq!(
            handle_line_shared(&core, "submit 1 0 WhatsApp"),
            Response::Line("OK duplicate".into())
        );
        let step = handle_line_shared(&core, "STEP");
        assert!(matches!(&step, Response::Line(l) if l.starts_with("OK batch 0")));
        assert_eq!(
            handle_line_shared(&core, "STEP"),
            Response::Line("OK idle".into())
        );
        let status = handle_line_shared(&core, "STATUS");
        assert!(matches!(&status, Response::Line(l) if l.contains("batches=1")));
        let report = handle_line_shared(&core, "REPORT 0");
        assert!(matches!(&report, Response::Blob(b) if b.starts_with(b"{\"flights\"")));
        assert!(matches!(
            handle_line_shared(&core, "TRACE 0"),
            Response::Blob(_)
        ));
        assert!(matches!(
            handle_line_shared(&core, "TELEMETRY 0"),
            Response::Blob(_)
        ));
        assert!(matches!(
            handle_line_shared(&core, "STATE"),
            Response::Blob(_)
        ));
        assert!(handle_line_shared(&core, "QUIT").is_quit());
    }

    #[test]
    fn malformed_commands_are_errors_not_panics() {
        let (_root, core) = svc("malformed");
        for bad in [
            "",
            "NOPE",
            "SUBMIT",
            "SUBMIT x y z",
            "SUBMIT 1 0 WhatsApp 900",
            "REPORT notanumber",
            "REPORT 7",
            "STEP now",
        ] {
            let resp = handle_line_shared(&core, bad);
            assert!(
                matches!(&resp, Response::Line(l) if l.starts_with("ERR ")),
                "{bad:?} should be an ERR, got {resp:?}"
            );
        }
    }

    /// The satellite regression: `STATUS` (and any other observer) must be
    /// answerable while a `STEP` batch is executing, because the shared
    /// path releases the core mutex for the execute phase. Driven
    /// deterministically by interleaving by hand at the seam the shared
    /// path uses: begin under the lock, observe, execute + install.
    #[test]
    fn status_answers_while_a_batch_is_in_flight() {
        let (_root, core) = svc("inflight");
        handle_line_shared(&core, "SUBMIT 1 0 WhatsApp");
        handle_line_shared(&core, "SUBMIT 2 0 Browser");

        // Phase 1 of a STEP: admit the batch under the lock.
        let prepared = core.lock().unwrap().begin_batch().unwrap().unwrap();
        assert_eq!(prepared.request_ids(), [1, 2]);

        // The batch is now "in flight": the core mutex is free, so an
        // observer on another connection gets an answer, and it already
        // sees the admission (pending drained, next batch bumped).
        let status = handle_line_shared(&core, "STATUS");
        assert!(
            matches!(&status, Response::Line(l) if l.contains("pending=0")
                && l.contains("next_batch=1")
                && l.contains("batches=0")),
            "mid-flight STATUS should answer and see the admission: {status:?}"
        );

        // Phase 2 + 3: execute outside the lock, reinstall the results.
        let executed = prepared.execute().unwrap();
        let install = core.lock().unwrap().install_batch(executed).map(step_line);
        assert!(
            matches!(&install, Ok(Response::Line(l)) if l.starts_with("OK batch 0")),
            "install should report the batch line: {install:?}"
        );
        let status = handle_line_shared(&core, "STATUS");
        assert!(matches!(&status, Response::Line(l) if l.contains("batches=1")));
    }

    /// The shared path must produce byte-identical durable state to a
    /// `STEP` run under the lock by [`ServiceCore::step_batch`] — same
    /// journal events in the same order, same batch records, same RNG
    /// advance.
    #[test]
    fn shared_step_state_matches_exclusive_step() {
        let script = [
            "SUBMIT 1 0 WhatsApp",
            "SUBMIT 2 0 Browser 3",
            "STEP",
            "SUBMIT 3 0 Maps",
            "STEP",
            "STEP",
        ];
        let (_root_a, exclusive) = svc("shared-a");
        for line in script {
            if line == "STEP" {
                exclusive.lock().unwrap().step_batch().unwrap();
            } else {
                handle_line_shared(&exclusive, line);
            }
        }
        let (_root_b, shared) = svc("shared-b");
        for line in script {
            handle_line_shared(&shared, line);
        }
        assert_eq!(
            exclusive.lock().unwrap().state_json(),
            shared.lock().unwrap().state_json(),
            "shared and exclusive STEP paths must converge byte-identically"
        );
    }

    /// Real threads: a STEP on one thread, STATUS probes on another. A
    /// probe must be able to read a batch admitted but not yet installed
    /// (`batches=N next_batch=N+1`), which it can only while the shared
    /// `STEP` has released the core lock to execute. One batch executes
    /// for a millisecond or two and a busy scheduler can starve the
    /// prober, so batches repeat until a probe sees one in flight.
    #[test]
    fn threaded_status_probe_does_not_queue_behind_step() {
        let (_root, core) = svc("threaded");
        let in_flight = (0..200u64).any(|n| {
            for i in 0..6 {
                handle_line_shared(&core, &format!("SUBMIT {} 0 WhatsApp", n * 6 + i));
            }
            let stepper = {
                let core = Arc::clone(&core);
                std::thread::spawn(move || handle_line_shared(&core, "STEP"))
            };
            let admitted = format!(" batches={n} next_batch={} ", n + 1);
            let mut seen = false;
            while !seen && !stepper.is_finished() {
                let resp = handle_line_shared(&core, "STATUS");
                let Response::Line(line) = &resp else {
                    panic!("STATUS should answer with a line, got {resp:?}");
                };
                seen = line.contains(&admitted);
                std::thread::yield_now();
            }
            let step = stepper.join().unwrap();
            assert!(
                matches!(&step, Response::Line(l) if l.starts_with(&format!("OK batch {n} "))),
                "STEP should install batch {n}: {step:?}"
            );
            seen
        });
        assert!(
            in_flight,
            "no STATUS probe saw a batch in flight in 200 batches: STEP holds the core lock while it executes"
        );
    }

    #[test]
    fn blob_wire_format_is_length_prefixed() {
        let (_root, core) = svc("wire");
        handle_line_shared(&core, "SUBMIT 1 0 WhatsApp");
        handle_line_shared(&core, "STEP");
        let resp = handle_line_shared(&core, "REPORT 0");
        let mut out = Vec::new();
        resp.write_to(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let (header, rest) = text.split_once('\n').unwrap();
        let len: usize = header.strip_prefix("OK ").unwrap().parse().unwrap();
        assert_eq!(rest.len(), len + 1, "body plus trailing newline");
    }
}

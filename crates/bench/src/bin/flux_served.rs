//! `flux-served`: the long-running migration service.
//!
//! Wraps a [`flux_journal::ServiceCore`] — write-ahead journal, snapshots,
//! crash recovery — and serves the line protocol to concurrent observers
//! over TCP (std only, no async runtime) and on stdin. Without `--listen`
//! the process ends with its stdin session; with it, the process keeps
//! serving TCP after stdin closes, until it is killed. Killing the process
//! at any instant and restarting it recovers byte-identical state; that is
//! the journal crate's contract, and `bench-service` kills it on a matrix
//! of offsets to prove it.
//!
//! ```text
//! flux-served --root /var/tmp/flux-served [--listen 127.0.0.1:7417]
//!             [--pairs 4] [--seed 29719] [--no-scripts]
//!             [--max-in-flight 4] [--snapshot-every 32]
//! ```
//!
//! Example session (`nc 127.0.0.1 7417`):
//!
//! ```text
//! > SUBMIT 1 0 com.whatsapp
//! < OK acked
//! > STEP
//! < OK batch 0 completed=1 rolled_back=0 refused=0
//! > REPORT 0
//! < OK 4211
//! < {"flights":[ ... ]}
//! ```

use flux_journal::{handle_line_shared, ScenarioSpec, ServiceConfig, ServiceCore};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Mutex};

fn usage() -> ! {
    eprintln!(
        "usage: flux-served --root <dir> [--listen <addr:port>] [--pairs N] \
         [--seed N] [--no-scripts] [--max-in-flight N] [--snapshot-every N]"
    );
    std::process::exit(2);
}

fn parse_args() -> (String, Option<String>, ScenarioSpec, ServiceConfig) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut root = None;
    let mut listen = None;
    let mut spec = ScenarioSpec::default();
    let mut cfg = ServiceConfig::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                usage()
            })
        };
        match arg.as_str() {
            "--root" => root = Some(value("--root")),
            "--listen" => listen = Some(value("--listen")),
            "--pairs" => spec.pairs = value("--pairs").parse().unwrap_or_else(|_| usage()),
            "--seed" => spec.seed = value("--seed").parse().unwrap_or_else(|_| usage()),
            "--no-scripts" => spec.scripted = false,
            "--max-in-flight" => {
                spec.max_in_flight = value("--max-in-flight").parse().unwrap_or_else(|_| usage())
            }
            "--snapshot-every" => {
                cfg.snapshot_every = value("--snapshot-every")
                    .parse()
                    .unwrap_or_else(|_| usage())
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                usage();
            }
        }
    }
    let Some(root) = root else { usage() };
    (root, listen, spec, cfg)
}

/// Serves the protocol on one session until QUIT, EOF, or an I/O error.
fn serve(core: &Arc<Mutex<ServiceCore>>, input: impl BufRead, mut output: impl Write) {
    for line in input.lines() {
        let Ok(line) = line else { break };
        // The shared handler keeps the core lock brief: a STEP executes
        // its batch with the lock released, so observers on other
        // connections get answers while it is in flight.
        let response = handle_line_shared(core, &line);
        let written = response.write_to(&mut output).and_then(|()| output.flush());
        if written.is_err() || response.is_quit() {
            break;
        }
    }
}

/// Serves one TCP connection, then logs that its peer disconnected.
fn serve_connection(core: &Arc<Mutex<ServiceCore>>, stream: TcpStream) {
    let peer = stream
        .peer_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| "?".into());
    let Ok(reader) = stream.try_clone() else {
        return;
    };
    serve(core, BufReader::new(reader), BufWriter::new(stream));
    eprintln!("flux-served: {peer} disconnected");
}

fn main() {
    let (root, listen, spec, cfg) = parse_args();
    let core = match ServiceCore::open(&root, spec, cfg) {
        Ok(core) => core,
        Err(e) => {
            eprintln!("flux-served: cannot open service at {root}: {e}");
            std::process::exit(1);
        }
    };
    let rec = core.recovery();
    eprintln!(
        "flux-served: root {root}: {} events, {} batches, {} pending \
         (recovery: snapshot={:?}, replayed={}, truncated {} bytes, reissued {} audits)",
        core.journaled_events(),
        core.batches().len(),
        core.pending_ids().len(),
        rec.snapshot_events,
        rec.replayed_events,
        rec.truncated_bytes,
        rec.reissued_audits,
    );
    let core = Arc::new(Mutex::new(core));

    let accept = listen.map(|addr| {
        let listener = match TcpListener::bind(&addr) {
            Ok(l) => l,
            Err(e) => {
                eprintln!("flux-served: cannot listen on {addr}: {e}");
                std::process::exit(1);
            }
        };
        eprintln!("flux-served: listening on {addr}");
        let tcp_core = Arc::clone(&core);
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(stream) = stream else { continue };
                let core = Arc::clone(&tcp_core);
                std::thread::spawn(move || serve_connection(&core, stream));
            }
        })
    });

    // The controlling session: same protocol on stdin/stdout.
    serve(&core, std::io::stdin().lock(), std::io::stdout());

    // With a listener, the end of the stdin session does not end the
    // service: TCP is served until the process is killed, and a panic in
    // the accept loop ends the process with it.
    if let Some(accept) = accept {
        if let Err(panic) = accept.join() {
            std::panic::resume_unwind(panic);
        }
    }
}

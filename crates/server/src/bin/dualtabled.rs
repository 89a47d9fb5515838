//! The `dualtabled` daemon: serves the DualTable engine over TCP.
//!
//! ```text
//! dualtabled [--listen ADDR] [--data DIR | --mem] [--workers N]
//!            [--queue-depth N] [--deadline-ms MS] [--no-compaction]
//!            [--compaction-interval-ms MS] [--delta-bytes N]
//! ```
//!
//! Prints `listening on ADDR` once ready. SIGTERM/SIGINT trigger a
//! graceful shutdown: in-flight statements drain, open transactions
//! roll back, and the process exits 0.

use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use dt_hiveql::SharedCatalog;
use dt_server::{Server, ServerConfig};
use dualtable::DualTableEnv;

static SHUTDOWN: AtomicBool = AtomicBool::new(false);

// Raw signal(2) binding — the build has no libc crate; the symbol
// itself is always in libc proper.
extern "C" {
    fn signal(signum: i32, handler: usize) -> usize;
}

extern "C" fn on_signal(_signum: i32) {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

fn install_signal_handlers() {
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, on_signal as *const () as usize);
        signal(SIGINT, on_signal as *const () as usize);
    }
}

struct Args {
    listen: String,
    data: Option<String>,
    workers: usize,
    queue_depth: usize,
    deadline_ms: u64,
    compaction: bool,
    compaction_interval_ms: u64,
    delta_bytes: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        listen: "127.0.0.1:7117".to_string(),
        data: None,
        workers: 4,
        queue_depth: 16,
        deadline_ms: 0,
        compaction: true,
        compaction_interval_ms: 20,
        delta_bytes: 0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--listen" => args.listen = value("--listen")?,
            "--data" => args.data = Some(value("--data")?),
            "--mem" => args.data = None,
            "--workers" => {
                args.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?;
            }
            "--queue-depth" => {
                args.queue_depth = value("--queue-depth")?
                    .parse()
                    .map_err(|e| format!("--queue-depth: {e}"))?;
            }
            "--deadline-ms" => {
                args.deadline_ms = value("--deadline-ms")?
                    .parse()
                    .map_err(|e| format!("--deadline-ms: {e}"))?;
            }
            "--no-compaction" => args.compaction = false,
            "--delta-bytes" => {
                args.delta_bytes = value("--delta-bytes")?
                    .parse()
                    .map_err(|e| format!("--delta-bytes: {e}"))?;
            }
            "--compaction-interval-ms" => {
                args.compaction_interval_ms = value("--compaction-interval-ms")?
                    .parse()
                    .map_err(|e| format!("--compaction-interval-ms: {e}"))?;
            }
            "--help" | "-h" => {
                return Err(
                    "usage: dualtabled [--listen ADDR] [--data DIR | --mem] [--workers N] \
                     [--queue-depth N] [--deadline-ms MS] [--no-compaction] \
                     [--compaction-interval-ms MS] [--delta-bytes N]"
                        .to_string(),
                )
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    install_signal_handlers();

    let env = match &args.data {
        Some(dir) => match DualTableEnv::on_disk(dir) {
            Ok(env) => env,
            Err(e) => {
                eprintln!("failed to open data directory '{dir}': {e}");
                return ExitCode::FAILURE;
            }
        },
        None => DualTableEnv::in_memory(),
    };
    let config = ServerConfig {
        workers: args.workers,
        queue_depth: args.queue_depth,
        default_deadline_ms: args.deadline_ms,
        compaction: args.compaction,
        compaction_interval_ms: args.compaction_interval_ms,
        session: {
            let mut session = dt_hiveql::SessionConfig::default();
            session.dualtable.delta_bytes = args.delta_bytes;
            session
        },
        panic_marker: None,
    };
    let server = match Server::start(&args.listen, env, SharedCatalog::new(), config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("failed to start server on {}: {e}", args.listen);
            return ExitCode::FAILURE;
        }
    };
    // Flushed line the test harness (and humans) wait for.
    println!("listening on {}", server.local_addr());

    while !SHUTDOWN.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(25));
    }
    eprintln!("shutting down: draining in-flight statements");
    server.shutdown();
    eprintln!("shutdown complete");
    ExitCode::SUCCESS
}

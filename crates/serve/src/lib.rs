//! `bichrome-serve` — the campaign daemon: many clients, one
//! executor, one store.
//!
//! A [`Daemon`] owns what `bichrome run` re-creates per invocation —
//! the persistent result [`Store`](bichrome_store::Store), the
//! instance cache, and a worker pool — and multiplexes every
//! submitted campaign onto them. Overlapping grids submitted by
//! different clients therefore share work twice over: trials already
//! in the store are skipped at submit time, and distinct graph
//! instances still pending are built exactly once *across* jobs by
//! the shared cache.
//!
//! The wire protocol is line-delimited JSON over a Unix-domain or TCP
//! socket ([`proto`]), with connections kept open across requests:
//! `submit` (inline campaign TOML → job id), `status` / `jobs`,
//! `watch` (streams per-trial progress), `report` / `diff`, `cancel`,
//! graceful `shutdown` (drain, then checkpoint the store), and the
//! remote-worker pair `lease` / `complete` — `bichrome work
//! --connect` pulls trial descriptors with `lease`, computes them
//! locally, and streams records back with `complete`, both on one
//! kept connection. A `lease` that finds the queue empty waits at the
//! daemon until work arrives, so idle workers never sleep; leases
//! that outlive their timeout are re-queued by the daemon's reaper,
//! so a worker dying mid-trial costs nothing but time.
//!
//! Observability rides along on both front-ends: the `metrics` verb
//! returns the process-wide [`bichrome_obs`] registry as JSON, and
//! [`spawn_metrics_http`] serves the same registry as a Prometheus
//! `GET /metrics` endpoint (`bichrome serve --http`).
//!
//! # Quickstart
//!
//! ```
//! use bichrome_serve::{Addr, Client, Daemon, DaemonConfig, Listener};
//!
//! let dir = std::env::temp_dir().join(format!("bichrome-doc-{}", std::process::id()));
//! let daemon = Daemon::start(dir.join("store"), DaemonConfig::default()).unwrap();
//!
//! // Serve on a Unix socket in the background…
//! let addr = Addr::Unix(dir.join("daemon.sock"));
//! let listener = Listener::bind(&addr).unwrap();
//! let server = {
//!     let daemon = daemon.clone();
//!     std::thread::spawn(move || daemon.serve(listener))
//! };
//!
//! // …and drive it like any client would.
//! let client = Client::new(addr);
//! let job = client
//!     .submit(
//!         r#"
//!         [campaign]
//!         protocols = ["edge/theorem3-zero-comm"]
//!         graphs    = ["path(n=12)"]
//!         seeds     = "0..2"
//!         "#,
//!     )
//!     .unwrap();
//! let end = client.watch(job, |_trial| {}).unwrap();
//! assert_eq!(end.as_object().unwrap()["state"].as_str(), Some("done"));
//!
//! client.shutdown().unwrap();
//! server.join().unwrap().unwrap();
//! # std::fs::remove_dir_all(&dir).ok();
//! ```
//!
//! In-process embedding skips the socket entirely: [`Daemon::submit`]
//! / [`Daemon::watch`] / [`Daemon::report`] are the same operations
//! the connection handler calls.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod http;
pub mod net;
pub mod proto;
pub mod server;

/// The wire codec, re-exported for callers consuming watch events /
/// status objects ([`json::Value`]).
pub use bichrome_store::json;
pub use client::{Client, LeaseGrant, TrialLease};
pub use http::spawn_metrics_http;
pub use net::{Addr, Listener, Stream};
pub use proto::{Format, ProtoError, Request};
pub use server::{Daemon, DaemonConfig};

//! Timed set-up, from generated vectors in memory to the first answer:
//! `build_cagra` (+ `quantize`) → `save` → `load` → `AlgasEngine::new`
//! → `AlgasServer::start` (+ `NetServer::start`) → first query.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use algas_core::engine::{AlgasEngine, AlgasIndex, EngineConfig};
use algas_core::net::{NetClient, NetConfig, NetServer};
use algas_core::runtime::{AlgasServer, RuntimeConfig};
use algas_graph::cagra::CagraParams;
use algas_vector::{Metric, VectorStore};

use crate::spec::{Drive, Workload, K, L};
use crate::trace::{SpanId, Tracer};

/// The engine configuration of a workload: only k, L and `quantize`
/// differ from the defaults, so a changed default is measured without
/// editing the benchmark. `quantize` is set explicitly because its
/// default reads `ALGAS_QUANTIZE`.
pub fn engine_config(w: &Workload) -> EngineConfig {
    EngineConfig { k: K, l: L, quantize: w.quantize, ..Default::default() }
}

/// What a workload serves from once set up.
pub enum Live {
    /// A bare engine (batch drive).
    Engine(Box<AlgasEngine>),
    /// The serving runtime (in-process drive).
    Server(AlgasServer),
    /// The runtime behind a loopback listener (net drive).
    Net(NetServer, Arc<AlgasServer>),
}

impl Live {
    /// Stops whatever threads the set-up started and waits for them.
    pub fn stop(self) {
        match self {
            Live::Engine(_) => {}
            Live::Server(s) => s.shutdown(),
            Live::Net(net, server) => {
                net.stop();
                if let Ok(s) = Arc::try_unwrap(server) {
                    s.shutdown();
                }
            }
        }
    }
}

/// Durations of one set-up, in seconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// `AlgasIndex::build_cagra`.
    pub build: f64,
    /// `AlgasIndex::quantize` (0 for fp32 workloads).
    pub quantize: f64,
    /// `AlgasIndex::save`.
    pub save: f64,
    /// `AlgasIndex::load`.
    pub load: f64,
    /// Size of the saved index, MB.
    pub file_mb: f64,
    /// `AlgasEngine::new`.
    pub engine: f64,
    /// `AlgasServer::start` (+ `NetServer::start`); 0 for batch.
    pub start: f64,
    /// The first query, submit to answer.
    pub first_query: f64,
    /// The whole set-up.
    pub total: f64,
}

/// Runs one timed set-up of workload `w` over `base`, saving the index
/// to `path` (left there for the caller to remove).
///
/// # Errors
/// Propagates save/load and listener failures.
pub fn run(
    w: &Workload,
    base: VectorStore,
    probe: &[f32],
    path: &Path,
    tr: &mut Tracer,
) -> std::io::Result<(Live, SetupTimes)> {
    let mut t = SetupTimes::default();
    let t0 = Instant::now();
    let root = tr.open("setup", SpanId::NONE, 0);
    let mut timed = |name, f: &mut dyn FnMut() -> std::io::Result<()>| {
        let s = Instant::now();
        let r = f();
        let e = Instant::now();
        tr.record(name, s, e, root, 0);
        r.map(|()| (e - s).as_secs_f64())
    };

    let (mut base, mut index) = (Some(base), None);
    t.build = timed("graph.build", &mut || {
        let base = base.take().expect("one build");
        index = Some(AlgasIndex::build_cagra(base, Metric::L2, CagraParams::default()));
        Ok(())
    })?;
    let mut index = index.expect("built");
    if w.quantize {
        t.quantize = timed("quant.encode", &mut || {
            index.quantize();
            Ok(())
        })?;
    }
    t.save = timed("persist.save", &mut || index.save(path))?;
    t.file_mb = std::fs::metadata(path)?.len() as f64 / 1e6;
    drop(index);
    let mut loaded = None;
    t.load = timed("persist.load", &mut || {
        loaded = Some(AlgasIndex::load(path)?);
        Ok(())
    })?;
    let mut index = loaded;
    let mut engine = None;
    t.engine = timed("engine.new", &mut || {
        let index = index.take().expect("loaded");
        engine = Some(AlgasEngine::new(index, engine_config(w)).map_err(std::io::Error::other)?);
        Ok(())
    })?;

    let mut live = None;
    if w.drive != Drive::Batch {
        t.start = timed("runtime.start", &mut || {
            let server =
                AlgasServer::start(engine.take().expect("engine"), RuntimeConfig::default());
            live = Some(if w.drive == Drive::Net {
                let server = Arc::new(server);
                let net =
                    NetServer::start("127.0.0.1:0", Arc::clone(&server), NetConfig::default())?;
                Live::Net(net, server)
            } else {
                Live::Server(server)
            });
            Ok(())
        })?;
    }
    let live = live.unwrap_or_else(|| Live::Engine(Box::new(engine.take().expect("engine"))));
    t.first_query = timed("first_query", &mut || first_query(&live, probe))?;
    tr.close(root);
    t.total = t0.elapsed().as_secs_f64();
    Ok((live, t))
}

fn first_query(live: &Live, probe: &[f32]) -> std::io::Result<()> {
    match live {
        Live::Engine(engine) => {
            let mut scratch = engine.make_scratch();
            engine.search_into(probe, 0, &mut scratch);
        }
        Live::Server(server) => {
            let (_, rx) = server.submit(probe.to_vec()).map_err(std::io::Error::other)?;
            rx.recv().map_err(|_| std::io::Error::other("no reply"))?;
        }
        Live::Net(net, _) => {
            let mut client = NetClient::connect(net.local_addr())?;
            client.search(0, probe)?;
        }
    }
    Ok(())
}

/// Path of the `i`-th set-up's index file under `dir`.
pub fn index_path(dir: &Path, w: &Workload, seed: u64, i: usize) -> PathBuf {
    dir.join(format!("{}-{seed}-{i}.alix", w.name))
}

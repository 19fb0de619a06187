//! `harpd-jobs`: an in-process `harpd` daemon (default worker pool and
//! checkpoint cadence) behind a loopback listener, driven by two
//! closed-loop clients that each submit a small sweep job with the
//! `harp submit` default lineup and watch it to its result frame. The
//! traced run adds a replay of the daemon's per-job call pattern, two jobs
//! at once like the daemon's two workers.

use std::collections::BTreeMap;
use std::io::{self, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use harp_ecc::HammingCode;
use harp_server::client::{Client, WatchOutcome};
use harp_server::daemon::{Daemon, DaemonConfig, JOB_FILE, RESULT_FILE};
use harp_server::transport::{FrameTransport, MAX_FRAME_BYTES};
use harp_sim::checkpoint::{
    encode_sweep, read_manifest, try_encode_sweep, write_json_atomically, ResumableSweep,
};
use harp_sim::experiments::fig6;
use harp_sim::experiments::sweep::run_coverage_sweep;
use harp_sim::minijson::Json;
use harp_sim::EvaluationConfig;

use crate::measure::{dir_usage, mb, median, pass_done, secs, Trace};
use crate::{base_config, Breakdown, Options, Pass, Scale, Workload, INPUT_SETS};

/// The layer spans of one replayed job.
const REPLAY_SPANS: [&str; 5] = [
    "sim.checkpoint.new.s",
    "sim.checkpoint.write_archive.s",
    "sim.checkpoint.progress.s",
    "sim.checkpoint.advance.s",
    "sim.checkpoint.encode_result.s",
];

/// What the recording transport saw during one `watch`.
#[derive(Debug, Default)]
struct FrameLog {
    frames: usize,
    first_snapshot: Option<Instant>,
    result: Option<Vec<u8>>,
}

fn lock(log: &Mutex<FrameLog>) -> std::sync::MutexGuard<'_, FrameLog> {
    // The log is plain counters; a panicked writer leaves it usable.
    log.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The `harpd` length-prefixed framing over TCP (as in
/// `harp_server::transport`), keeping the raw bytes of each result frame and
/// the arrival time of the first snapshot frame.
struct RecordingTransport {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    log: Arc<Mutex<FrameLog>>,
}

impl FrameTransport for RecordingTransport {
    fn send(&mut self, frame: &Json) -> io::Result<()> {
        let payload = frame.render().into_bytes();
        let len = u32::try_from(payload.len())
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
        self.writer.write_all(&len.to_be_bytes())?;
        self.writer.write_all(&payload)?;
        self.writer.flush()
    }

    fn recv(&mut self) -> io::Result<Option<Json>> {
        let mut header = [0u8; 4];
        let mut filled = 0;
        while filled < header.len() {
            match self.reader.read(&mut header[filled..])? {
                0 if filled == 0 => return Ok(None),
                0 => return Err(io::ErrorKind::UnexpectedEof.into()),
                n => filled += n,
            }
        }
        let len = u32::from_be_bytes(header) as usize;
        if len > MAX_FRAME_BYTES {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "oversized frame",
            ));
        }
        let mut payload = vec![0u8; len];
        self.reader.read_exact(&mut payload)?;
        let arrived = Instant::now();
        let text = std::str::from_utf8(&payload)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        let frame = Json::parse(text)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        let mut log = lock(&self.log);
        log.frames += 1;
        match frame.get("type").and_then(Json::as_str) {
            Some("snapshot") => {
                log.first_snapshot.get_or_insert(arrived);
            }
            Some("result") => log.result = Some(payload),
            _ => {}
        }
        drop(log);
        Ok(Some(frame))
    }
}

struct JobClient {
    client: Client<RecordingTransport>,
    log: Arc<Mutex<FrameLog>>,
}

impl JobClient {
    fn connect(addr: &str) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("cannot connect: {e}"))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .map_err(|e| e.to_string())?;
        let log = Arc::new(Mutex::new(FrameLog::default()));
        let transport = RecordingTransport {
            reader: BufReader::new(stream.try_clone().map_err(|e| e.to_string())?),
            writer: stream,
            log: Arc::clone(&log),
        };
        Ok(Self {
            client: Client::new(transport),
            log,
        })
    }

    /// Submits one job and watches it to its end, as `harp submit` followed
    /// by `harp watch` would.
    fn run_job(&mut self, config: &EvaluationConfig, config_index: usize) -> JobRecord {
        *lock(&self.log) = FrameLog::default();
        let start = Instant::now();
        let submitted = self.client.submit(config, &fig6::PROFILERS);
        let submit_s = secs(start);
        let outcome = submitted.and_then(|job| {
            self.client
                .watch(job, |_| {})
                .map(|outcome| (job, matches!(outcome, WatchOutcome::Completed(_))))
        });
        let total_s = secs(start);
        let log = std::mem::take(&mut *lock(&self.log));
        let (job, completed) = match outcome {
            Ok((job, completed)) => (Some(job), completed),
            Err(_) => (None, false),
        };
        JobRecord {
            config_index,
            job,
            completed,
            submit_s,
            total_s,
            first_snapshot_s: log
                .first_snapshot
                .map_or(total_s, |t| (t - start).as_secs_f64()),
            frames: log.frames,
            result: log.result,
        }
    }
}

#[derive(Debug)]
struct JobRecord {
    config_index: usize,
    job: Option<u64>,
    completed: bool,
    submit_s: f64,
    total_s: f64,
    first_snapshot_s: f64,
    frames: usize,
    result: Option<Vec<u8>>,
}

pub struct HarpdJobs {
    daemon: Daemon,
    serve: Option<JoinHandle<io::Result<()>>>,
    clients: Vec<JobClient>,
    state_dir: PathBuf,
    replay_dir: PathBuf,
    /// The daemon's checkpoint cadence, which the replay follows.
    checkpoint_interval: usize,
    configs: Vec<EvaluationConfig>,
    /// `encode_sweep(run_coverage_sweep(config, lineup))` per job config,
    /// computed on first use outside the timed region.
    expected: BTreeMap<usize, Json>,
    /// Bytes the first completed job left in its `JOB_<id>/` directory.
    job_dir_bytes: Option<u64>,
    checks: (u64, u64),
}

impl HarpdJobs {
    /// Starts the daemon on a fresh state directory, binds a loopback
    /// listener, and connects the two clients.
    pub fn setup(options: &Options, scratch: &Path) -> Result<Self, String> {
        let state_dir = scratch.join("state");
        let replay_dir = scratch.join("replay");
        let daemon_config = DaemonConfig::new(&state_dir);
        let checkpoint_interval = daemon_config.checkpoint_interval;
        let daemon =
            Daemon::start(daemon_config).map_err(|e| format!("cannot start the daemon: {e}"))?;
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("cannot bind: {e}"))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("no listener address: {e}"))?
            .to_string();
        let serving = daemon.clone();
        let serve = std::thread::spawn(move || serving.serve(listener));
        let clients = (0..2)
            .map(|_| JobClient::connect(&addr))
            .collect::<Result<Vec<_>, String>>()?;
        // One job configuration per input set; pass `p` runs configurations
        // `2p` and `2p + 1` (mod the set count).
        let configs = (0..INPUT_SETS)
            .map(|index| EvaluationConfig {
                num_codes: 1,
                words_per_code: 4,
                rounds: if options.scale == Scale::Smoke { 8 } else { 32 },
                ..base_config(options.scale, options.seed, index)
            })
            .collect();
        Ok(Self {
            daemon,
            serve: Some(serve),
            clients,
            state_dir,
            replay_dir,
            checkpoint_interval,
            configs,
            expected: BTreeMap::new(),
            job_dir_bytes: None,
            checks: (0, 0),
        })
    }

    /// Whether a finished job's result frame is byte-identical to the
    /// single-process sweep of the same configuration.
    fn result_matches(&mut self, record: &JobRecord) -> bool {
        let (Some(job), Some(payload)) = (record.job, &record.result) else {
            return false;
        };
        let config = &self.configs[record.config_index];
        let sweep = self
            .expected
            .entry(record.config_index)
            .or_insert_with(|| encode_sweep(&run_coverage_sweep(config, &fig6::PROFILERS)));
        let expected = Json::Object(vec![
            ("type".to_owned(), Json::Str("result".to_owned())),
            ("job".to_owned(), Json::from_u64(job)),
            ("sweep".to_owned(), sweep.clone()),
        ])
        .render();
        *payload == expected.into_bytes()
    }

    /// Replays the daemon's per-job call pattern on one job configuration:
    /// submit (`new` + round-0 archive + job record), worker start
    /// (`resume` + first snapshot), `advance(1)` + `progress` every round
    /// with an archive every 8 rounds, then the result encode and its
    /// durable write.
    fn replay_job(
        &self,
        config: &EvaluationConfig,
        dir: &Path,
        trace: &mut Trace,
    ) -> io::Result<()> {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir)?;
        let make_code = |seed| HammingCode::random(config.data_bits, seed).expect("valid codes");
        let record = |state: &str| {
            Json::Object(vec![
                ("schema".to_owned(), Json::from_u64(1)),
                ("id".to_owned(), Json::from_u64(0)),
                ("state".to_owned(), Json::Str(state.to_owned())),
            ])
        };
        let sweep = trace.span("sim.checkpoint.new.s", || {
            ResumableSweep::new(config, &fig6::PROFILERS, make_code)
        });
        trace.span("sim.checkpoint.write_archive.s", || -> io::Result<()> {
            sweep.write_archive(dir)?;
            write_json_atomically(&dir.join(JOB_FILE), &record("pending"))
        })?;
        let mut sweep = trace.span("sim.checkpoint.new.s", || -> io::Result<_> {
            read_manifest(dir)?;
            ResumableSweep::resume(dir, make_code)
        })?;
        trace.span("sim.checkpoint.write_archive.s", || {
            write_json_atomically(&dir.join(JOB_FILE), &record("running"))
        })?;
        trace.span("sim.checkpoint.progress.s", || sweep.progress());
        while !sweep.is_complete() {
            trace.span("sim.checkpoint.advance.s", || sweep.advance(1));
            trace.span("sim.checkpoint.progress.s", || sweep.progress());
            if sweep.round() % self.checkpoint_interval == 0 && !sweep.is_complete() {
                trace.span("sim.checkpoint.write_archive.s", || {
                    sweep.write_archive(dir)
                })?;
            }
        }
        let encoded = trace
            .span("sim.checkpoint.encode_result.s", || {
                try_encode_sweep(&sweep.into_sweep())
            })
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        trace.span("sim.checkpoint.write_archive.s", || -> io::Result<()> {
            let result = Json::Object(vec![
                ("type".to_owned(), Json::Str("result".to_owned())),
                ("job".to_owned(), Json::from_u64(0)),
                ("sweep".to_owned(), encoded),
            ]);
            write_json_atomically(&dir.join(RESULT_FILE), &result)?;
            write_json_atomically(&dir.join(JOB_FILE), &record("done"))
        })
    }
}

impl Workload for HarpdJobs {
    fn pass(&mut self, set: usize, trace: Option<&mut Trace>) -> Pass {
        let configs = &self.configs;
        let start = Instant::now();
        let records: Vec<Option<JobRecord>> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .enumerate()
                .map(|(index, client)| {
                    let config_index = (set * 2 + index) % INPUT_SETS;
                    scope.spawn(move || client.run_job(&configs[config_index], config_index))
                })
                .collect();
            handles.into_iter().map(|h| h.join().ok()).collect()
        });
        let wall = pass_done(start);

        let mut failed = 0;
        let mut jobs = Vec::new();
        let mut firsts = Vec::new();
        for record in &records {
            match record {
                Some(record) => {
                    jobs.push(record.total_s);
                    firsts.push(record.first_snapshot_s);
                    let ok = record.completed && self.result_matches(record);
                    failed += u64::from(!ok);
                    if ok && self.job_dir_bytes.is_none() {
                        if let Some(job) = record.job {
                            let job_dir = self.state_dir.join(format!("JOB_{job}"));
                            self.job_dir_bytes = Some(dir_usage(&job_dir).0);
                        }
                    }
                }
                None => failed += 1,
            }
        }
        let done: Vec<&JobRecord> = records.iter().flatten().collect();
        if let Some(trace) = trace {
            let submits: Vec<f64> = done.iter().map(|r| r.submit_s * 1e3).collect();
            let frames: Vec<f64> = done.iter().map(|r| r.frames as f64).collect();
            let result_kb: Vec<f64> = done
                .iter()
                .map(|r| r.result.as_ref().map_or(0.0, |p| p.len() as f64 / 1e3))
                .collect();
            trace.set("server.submit.p50_ms", median(&submits));
            trace.set("server.frames_per_job", median(&frames));
            trace.set("server.result_frame_kb", median(&result_kb));
            trace.set(
                "sim.checkpoint.archive_mb",
                mb(self.job_dir_bytes.unwrap_or(0)),
            );
        }
        Pass {
            wall,
            first_result: median(&firsts),
            jobs,
            attempted: records.len() as u64,
            failed,
        }
    }

    /// Replays the pass's two jobs at once, one thread each like the
    /// daemon's two workers. The per-job mean of each layer's self time is
    /// the breakdown; the layer total must account for the traced pass's
    /// job p50, and what it leaves is the serving layer's own time.
    fn breakdown(&mut self, set: usize, traced: &Pass, trace: &mut Trace) -> Option<Breakdown> {
        let this = &*self;
        let replays: Vec<(io::Result<()>, Trace)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2)
                .map(|index| {
                    let config = &this.configs[(set * 2 + index) % INPUT_SETS];
                    let dir = this.replay_dir.join(index.to_string());
                    scope.spawn(move || {
                        let mut trace = Trace::default();
                        let replayed = this.replay_job(config, &dir, &mut trace);
                        (replayed, trace)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|handle| {
                    handle.join().unwrap_or_else(|_| {
                        let panicked = io::Error::other("replay panicked");
                        (Err(panicked), Trace::default())
                    })
                })
                .collect()
        });
        self.checks.0 += replays.len() as u64;
        let failures = replays
            .iter()
            .filter(|(replayed, _)| replayed.is_err())
            .count();
        if failures > 0 {
            self.checks.1 += failures as u64;
            return None;
        }
        let per_job = |name: &str| {
            replays
                .iter()
                .map(|(_, replay)| replay.get(name))
                .sum::<f64>()
                / replays.len() as f64
        };
        let mut accounted = 0.0;
        for name in REPLAY_SPANS {
            let seconds = per_job(name);
            trace.add(name, seconds);
            accounted += seconds;
        }
        let reference = median(&traced.jobs);
        trace.set("server.unaccounted.s", reference - accounted);
        Some(Breakdown {
            reference,
            accounted,
        })
    }

    fn verify(&mut self) -> (u64, u64) {
        self.checks
    }

    fn finish(mut self: Box<Self>) {
        if let Some(first) = self.clients.first_mut() {
            let _ = first.client.shutdown();
        }
        self.daemon.begin_shutdown();
        // Closing the connections ends the daemon's connection threads.
        self.clients.clear();
        if let Some(serve) = self.serve.take() {
            let _ = serve.join();
        }
        self.daemon.join();
        let _ = std::fs::remove_dir_all(&self.state_dir);
        let _ = std::fs::remove_dir_all(&self.replay_dir);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A served job's recorded result frame matches the oracle, and the
    /// same frame with one byte flipped does not, so the pass counts it as
    /// a failed job.
    #[test]
    fn a_flipped_byte_in_a_result_frame_is_a_mismatch() {
        let scratch = std::env::temp_dir().join(format!("perfbench-frame-{}", std::process::id()));
        let options = Options {
            workload: "harpd-jobs".to_owned(),
            seed: 7,
            seconds: 1.0,
            trace: false,
            scale: Scale::Smoke,
            setup_probe: false,
        };
        let mut jobs = HarpdJobs::setup(&options, &scratch).expect("the daemon starts");
        let config = jobs.configs[0].clone();
        let mut record = jobs.clients[0].run_job(&config, 0);
        assert!(record.completed);
        assert!(jobs.result_matches(&record));
        let payload = record.result.as_mut().expect("a result frame");
        let middle = payload.len() / 2;
        payload[middle] ^= 0x01;
        assert!(!jobs.result_matches(&record));
        Box::new(jobs).finish();
        let _ = std::fs::remove_dir_all(&scratch);
    }
}

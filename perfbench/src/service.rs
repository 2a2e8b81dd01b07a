//! The `service-mix` workload: the simulation service in-process, over real HTTP.
//!
//! A round binds the vendored HTTP server on an ephemeral port, starts the worker
//! pool and the accept loop, waits for `/healthz`, and then runs a closed loop of
//! clients: each submits a job, polls its report until it answers 200, and only
//! then submits its next job. Untraced rounds use the service's own worker pool
//! (`worker::spawn_pool`); traced rounds replace it with a replay of
//! `worker::service_step` that times each call into the queue and the runner.
//! Traced and untraced rounds of the same seed must produce byte-identical
//! reports for every job.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use nc_core::{ExecutionStats, IndexStats};
use nc_service::client;
use nc_service::http::{serve, ServiceHandle};
use nc_service::metrics::recover_lock;
use nc_service::queue::{Claim, SliceResult};
use nc_service::runner::{JobReport, JobRunner, SliceOutcome};
use nc_service::worker::{spawn_pool, WorkerConfig};
use nc_service::{JobId, JobState};
use tiny_http::Server;

use crate::seeds::mix;
use crate::timed;

/// The shape of the load.
#[derive(Clone, Debug)]
pub struct MixSpec {
    /// Jobs per round.
    pub jobs: usize,
    /// Closed-loop clients, one tenant each.
    pub clients: usize,
    /// Worker threads.
    pub workers: usize,
    /// `(protocol, n)` of the jobs, cycled in job order.
    pub cycle: Vec<(&'static str, usize)>,
    /// Pause between two report polls of one client.
    pub poll: Duration,
    /// A job that has not answered its report after this long fails.
    pub job_timeout: Duration,
}

impl MixSpec {
    /// The `service-mix` workload: 128 jobs over Square n=196, Counting n=512 and
    /// Line n=1024, two clients, two workers.
    #[must_use]
    pub fn standard() -> MixSpec {
        MixSpec {
            jobs: 128,
            clients: 2,
            workers: 2,
            cycle: vec![("square", 196), ("counting", 512), ("line", 1024)],
            poll: Duration::from_millis(2),
            job_timeout: Duration::from_secs(60),
        }
    }

    /// The submission body of job `j` of round `round`.
    #[must_use]
    pub fn body(&self, seed: u64, round: u64, j: usize) -> String {
        let (protocol, n) = self.cycle[j % self.cycle.len()];
        let client = j % self.clients;
        format!(
            "protocol={protocol}&n={n}&seed={}&mode=sharded&shards=1&speculation=0&tenant=client{client}",
            mix(mix(seed, round), j as u64) % (1 << 48)
        )
    }
}

/// What one job of a round ended with.
#[derive(Clone, Debug)]
pub struct JobResult {
    /// Index of the job in its round.
    pub j: usize,
    /// The id the service assigned.
    pub id: Option<JobId>,
    /// Seconds from sending the submit to receiving the report.
    pub latency_s: f64,
    /// The report JSON.
    pub report: Option<String>,
    /// Report polls answered 409.
    pub polls: u64,
    /// When the submit was answered.
    pub submitted: Option<Instant>,
    /// Why the job failed, if it did.
    pub failure: Option<String>,
}

/// Per-call times of a traced worker.
#[derive(Clone, Debug, Default)]
pub struct WorkerTrace {
    /// Wall seconds the worker thread ran.
    pub wall_s: f64,
    /// Seconds in `JobQueue::claim_next` (lock included) that returned a job.
    pub claim_s: f64,
    /// Seconds in `JobRunner::start`.
    pub start_s: f64,
    /// Seconds in `JobRunner::resume`.
    pub resume_s: f64,
    /// Seconds in `JobRunner::advance`.
    pub advance_s: f64,
    /// Seconds in `JobRunner::checkpoint_bytes`.
    pub checkpoint_s: f64,
    /// Seconds in `JobQueue::complete_slice` (lock included).
    pub complete_s: f64,
    /// Seconds polling an empty queue and sleeping between polls.
    pub idle_s: f64,
    /// Slices run.
    pub slices: u64,
    /// Sum over parked slices of checkpoint bytes per node.
    pub bytes_per_node: f64,
    /// Parked slices.
    pub parked: u64,
    /// Index work counters summed over slices.
    pub index: IndexStats,
    /// Delta-log records summed over slices.
    pub delta_records: u64,
    /// Lifetime statistics of the jobs this worker finished, summed.
    pub finished: ExecutionStats,
    /// `(job, when its claim began)` per slice.
    pub claims: Vec<(JobId, Instant)>,
    /// `(job, when it was parked back in the queue)` per parked slice.
    pub parks: Vec<(JobId, Instant)>,
}

impl WorkerTrace {
    /// Worker-thread time not spent in any timed call or idle.
    #[must_use]
    pub fn unattributed_s(&self) -> f64 {
        self.wall_s
            - (self.claim_s
                + self.start_s
                + self.resume_s
                + self.advance_s
                + self.checkpoint_s
                + self.complete_s
                + self.idle_s)
    }
}

/// One round of the workload.
#[derive(Clone, Debug)]
pub struct Round {
    /// Seconds from binding to the first `/healthz` answer.
    pub setup_s: f64,
    /// Seconds from the first submit to the last report.
    pub load_s: f64,
    /// The jobs, in job order.
    pub jobs: Vec<JobResult>,
    /// Every client request's round-trip seconds.
    pub requests: Vec<f64>,
    /// The traced workers (empty in untraced rounds).
    pub workers: Vec<WorkerTrace>,
}

impl Round {
    /// Jobs that failed.
    #[must_use]
    pub fn failed(&self) -> u64 {
        self.jobs.iter().filter(|j| j.failure.is_some()).count() as u64
    }
}

/// A running service: accept loop and worker pool on their own threads.
struct Running {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    stopper: tiny_http::ServerStopper,
    http: JoinHandle<()>,
    pool: Pool,
}

enum Pool {
    Plain(Vec<JoinHandle<()>>),
    Traced(Vec<JoinHandle<WorkerTrace>>),
}

/// Binds, spawns the pool and the accept loop, and waits for `/healthz`.
/// Returns the running service and the seconds that took.
fn start(queue_seed: u64, workers: usize, traced: bool) -> Result<(Running, f64), String> {
    let started = Instant::now();
    let server = Server::http(("127.0.0.1", 0)).map_err(|e| format!("bind failed: {e}"))?;
    let addr = server
        .server_addr()
        .map_err(|e| format!("no local address: {e}"))?;
    let service = ServiceHandle::new(queue_seed);
    let stop = Arc::new(AtomicBool::new(false));
    let config = WorkerConfig::default();
    let pool = if traced {
        Pool::Traced(
            (0..workers)
                .map(|_| {
                    let service = service.clone();
                    let stop = Arc::clone(&stop);
                    std::thread::spawn(move || traced_worker(&service, &stop, config))
                })
                .collect(),
        )
    } else {
        Pool::Plain(spawn_pool(&service, &stop, config, workers))
    };
    let stopper = server.stopper();
    let http = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || serve(&server, &service, &stop))
    };
    let running = Running {
        addr,
        stop,
        stopper,
        http,
        pool,
    };
    let healthy = client::request(addr, "GET", "/healthz", "");
    let setup_s = started.elapsed().as_secs_f64();
    match healthy {
        Ok(exchange) if exchange.status == 200 => Ok((running, setup_s)),
        other => {
            let _ = shutdown(running);
            Err(format!("/healthz did not answer 200: {other:?}"))
        }
    }
}

/// Stops the accept loop and the pool and waits for every thread.
fn shutdown(running: Running) -> Result<Vec<WorkerTrace>, String> {
    running.stop.store(true, Ordering::SeqCst);
    running.stopper.stop();
    let panicked = || "a service thread panicked".to_string();
    let http = running.http.join();
    let workers = match running.pool {
        Pool::Plain(handles) => handles
            .into_iter()
            .map(|handle| handle.join().map(|()| WorkerTrace::default()))
            .collect::<Result<Vec<_>, _>>()
            .map(|_| Vec::new()),
        Pool::Traced(handles) => handles.into_iter().map(JoinHandle::join).collect(),
    };
    http.map_err(|_| panicked())?;
    workers.map_err(|_| panicked())
}

/// Seconds to set the service up and tear it down again, without load.
///
/// # Errors
/// When the service cannot be started.
pub fn setup_only(queue_seed: u64, workers: usize) -> Result<f64, String> {
    let (running, setup_s) = start(queue_seed, workers, false)?;
    shutdown(running)?;
    Ok(setup_s)
}

/// Runs round `round` of the workload with seed `seed`.
///
/// # Errors
/// When the service cannot be started; job-level trouble is recorded per job.
pub fn round(mix_spec: &MixSpec, seed: u64, round: u64, traced: bool) -> Result<Round, String> {
    let queue_seed = mix(seed, round ^ 0x5157_4555);
    let (running, setup_s) = start(queue_seed, mix_spec.workers, traced)?;
    let started = Instant::now();
    let clients: Vec<_> = (0..mix_spec.clients)
        .map(|c| {
            let spec = mix_spec.clone();
            let addr = running.addr;
            std::thread::spawn(move || closed_loop(&spec, addr, seed, round, c))
        })
        .collect();
    let joined: Vec<_> = clients.into_iter().map(JoinHandle::join).collect();
    let load_s = started.elapsed().as_secs_f64();
    let workers = shutdown(running)?;
    let mut jobs = Vec::new();
    let mut requests = Vec::new();
    for client in joined {
        let (client_jobs, client_requests) =
            client.map_err(|_| "a client thread panicked".to_string())?;
        jobs.extend(client_jobs);
        requests.extend(client_requests);
    }
    jobs.sort_by_key(|job| job.j);
    Ok(Round {
        setup_s,
        load_s,
        jobs,
        requests,
        workers,
    })
}

/// One client: submit, poll the report until 200, repeat.
fn closed_loop(
    spec: &MixSpec,
    addr: SocketAddr,
    seed: u64,
    round: u64,
    client: usize,
) -> (Vec<JobResult>, Vec<f64>) {
    let mut requests = Vec::new();
    let mut timed_request = |method: &str, path: &str, body: &str| {
        let started = Instant::now();
        let answer = client::request(addr, method, path, body);
        requests.push(started.elapsed().as_secs_f64());
        answer.map_err(|e| format!("{method} {path}: {e}"))
    };
    let mut results = Vec::new();
    for j in (client..spec.jobs).step_by(spec.clients) {
        let sent = Instant::now();
        let mut result = JobResult {
            j,
            id: None,
            latency_s: 0.0,
            report: None,
            polls: 0,
            submitted: None,
            failure: None,
        };
        let outcome = (|| -> Result<String, String> {
            let submit = timed_request("POST", "/jobs", &spec.body(seed, round, j))?;
            if submit.status != 201 {
                return Err(format!(
                    "submit answered {}: {}",
                    submit.status, submit.body
                ));
            }
            result.submitted = Some(Instant::now());
            let id: JobId = submit
                .body
                .trim()
                .trim_start_matches("{\"id\": ")
                .trim_end_matches('}')
                .parse()
                .map_err(|_| format!("unparsable submit answer: {}", submit.body))?;
            result.id = Some(id);
            let path = format!("/jobs/{id}/report");
            loop {
                std::thread::sleep(spec.poll);
                let poll = timed_request("GET", &path, "")?;
                match poll.status {
                    200 => return Ok(poll.body),
                    409 if poll.body.contains("job is queued")
                        || poll.body.contains("job is running") =>
                    {
                        result.polls += 1;
                    }
                    status => return Err(format!("report answered {status}: {}", poll.body)),
                }
                if sent.elapsed() > spec.job_timeout {
                    return Err(format!("no report after {:?}", spec.job_timeout));
                }
            }
        })();
        result.latency_s = sent.elapsed().as_secs_f64();
        match outcome {
            Ok(report) if report.contains("\"completed\": true") => result.report = Some(report),
            Ok(report) => result.failure = Some(format!("job did not complete: {report}")),
            Err(e) => result.failure = Some(e),
        }
        results.push(result);
    }
    (results, requests)
}

/// The worker loop with `worker::service_step` replayed call by call: claim,
/// start or resume, advance, checkpoint, record the slice, complete it.
fn traced_worker(service: &ServiceHandle, stop: &AtomicBool, config: WorkerConfig) -> WorkerTrace {
    let mut t = WorkerTrace::default();
    let thread_started = Instant::now();
    let metrics = &service.metrics;
    while !stop.load(Ordering::SeqCst) {
        let claim_started = Instant::now();
        let Some(claim) = recover_lock(&service.queue, metrics).claim_next() else {
            metrics.worker_idle_polls.inc();
            std::thread::sleep(config.idle_poll);
            t.idle_s += claim_started.elapsed().as_secs_f64();
            continue;
        };
        t.claim_s += claim_started.elapsed().as_secs_f64();
        t.claims.push((claim.id, claim_started));
        metrics.record_claim(&claim);

        // `worker::run_slice`, panics caught as in the service. No benchmark job
        // asks for crash injection.
        let slice_started = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| {
            traced_slice(&claim, config.slice, &mut t)
        }))
        .unwrap_or_else(|payload| SliceResult::Crashed {
            message: nc_core::panic_message(payload.as_ref()).to_string(),
        });
        let seconds = slice_started.elapsed().as_secs_f64();
        t.slices += 1;

        metrics.record_slice(&claim, &result, seconds);
        recover_lock(&service.stats, metrics).record_slice(&claim.spec.tenant, &result);
        let parked = matches!(result, SliceResult::Parked { .. });
        let crashed = matches!(result, SliceResult::Crashed { .. });
        let complete_started = Instant::now();
        let state = recover_lock(&service.queue, metrics).complete_slice(claim.id, result, seconds);
        let completed_at = Instant::now();
        t.complete_s += (completed_at - complete_started).as_secs_f64();
        if parked {
            t.parks.push((claim.id, completed_at));
        }
        if crashed && state == JobState::Queued {
            metrics.record_retry(&claim);
        }
    }
    t.wall_s = thread_started.elapsed().as_secs_f64();
    t
}

/// One slice of `worker::run_slice`: start or resume, advance, checkpoint, with
/// each call timed into `t`.
fn traced_slice(claim: &Claim, slice: u64, t: &mut WorkerTrace) -> SliceResult {
    let runner = match &claim.snapshot {
        Some(bytes) => timed(&mut t.resume_s, || JobRunner::resume(&claim.spec, bytes))
            .map_err(|e| format!("resume failed: {e}")),
        None => Ok(timed(&mut t.start_s, || JobRunner::start(&claim.spec))),
    };
    match runner {
        Err(error) => SliceResult::Failed { error },
        Ok(mut runner) => {
            let outcome = timed(&mut t.advance_s, || {
                runner.advance(slice, claim.spec.step_budget)
            });
            let world_counters = match &runner {
                JobRunner::Line(sim) => (sim.world().index_stats(), sim.world().delta_records()),
                JobRunner::Square(sim) => (sim.world().index_stats(), sim.world().delta_records()),
                JobRunner::Counting(sim) => {
                    (sim.world().index_stats(), sim.world().delta_records())
                }
            };
            add_index(&mut t.index, world_counters.0);
            t.delta_records += world_counters.1;
            match outcome {
                SliceOutcome::Finished { completed } => {
                    t.finished.absorb(&runner.stats());
                    SliceResult::Done {
                        report: JobReport::from_runner(&claim.spec, &runner, completed),
                        steps: runner.stats().steps,
                    }
                }
                SliceOutcome::BudgetExhausted => SliceResult::Failed {
                    error: format!(
                        "step budget of {} exhausted after {} steps",
                        claim.spec.step_budget,
                        runner.stats().steps
                    ),
                },
                SliceOutcome::Yielded => {
                    match timed(&mut t.checkpoint_s, || runner.checkpoint_bytes()) {
                        Ok(snapshot) => {
                            t.bytes_per_node += snapshot.len() as f64 / claim.spec.n as f64;
                            t.parked += 1;
                            SliceResult::Parked {
                                snapshot,
                                steps: runner.stats().steps,
                            }
                        }
                        Err(e) => SliceResult::Failed {
                            error: format!("checkpoint failed: {e}"),
                        },
                    }
                }
            }
        }
    }
}

fn add_index(total: &mut IndexStats, more: IndexStats) {
    total.dirty_marks += more.dirty_marks;
    total.node_scans += more.node_scans;
    total.candidate_hits += more.candidate_hits;
    total.quiescent_hits += more.quiescent_hits;
}

/// Seconds each job of a traced round waited in the queue: from its submit being
/// answered to its first claim, plus from each park to the next claim.
#[must_use]
pub fn queue_waits(round: &Round) -> Vec<f64> {
    let mut claims: HashMap<JobId, Vec<Instant>> = HashMap::new();
    let mut parks: HashMap<JobId, Vec<Instant>> = HashMap::new();
    for w in &round.workers {
        for &(id, at) in &w.claims {
            claims.entry(id).or_default().push(at);
        }
        for &(id, at) in &w.parks {
            parks.entry(id).or_default().push(at);
        }
    }
    round
        .jobs
        .iter()
        .map(|job| {
            let (Some(id), Some(submitted)) = (job.id, job.submitted) else {
                return 0.0;
            };
            let mut job_claims = claims.remove(&id).unwrap_or_default();
            let mut ready = parks.remove(&id).unwrap_or_default();
            job_claims.sort();
            ready.sort();
            ready.insert(0, submitted);
            job_claims
                .iter()
                .zip(&ready)
                .map(|(claim, ready)| claim.saturating_duration_since(*ready).as_secs_f64())
                .sum()
        })
        .collect()
}

/// The trajectory check of the service: every job of the traced round must have
/// reported exactly the bytes its untraced twin reported. Returns the jobs
/// (indices into the traced round) that did not.
#[must_use]
pub fn report_mismatches(untraced: &Round, traced: &Round) -> Vec<usize> {
    (0..traced.jobs.len())
        .filter(|&j| untraced.jobs.get(j).map(|a| &a.report) != Some(&traced.jobs[j].report))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> MixSpec {
        MixSpec {
            jobs: 6,
            clients: 2,
            workers: 2,
            cycle: vec![("square", 9), ("counting", 16), ("line", 24)],
            poll: Duration::from_millis(1),
            job_timeout: Duration::from_secs(30),
        }
    }

    #[test]
    fn bodies_pin_the_exact_sampler_on_one_shard() {
        let spec = MixSpec::standard();
        let body = spec.body(1, 0, 4);
        assert!(body.starts_with("protocol=counting&n=512&seed="), "{body}");
        assert!(body.ends_with("&mode=sharded&shards=1&speculation=0&tenant=client0"));
        assert_eq!(spec.body(1, 0, 4), body);
        assert_ne!(spec.body(2, 0, 4), body);
        assert_ne!(spec.body(1, 1, 4), body);
    }

    #[test]
    fn traced_and_untraced_rounds_report_identically() {
        let spec = tiny();
        let plain = round(&spec, 5, 0, false).expect("untraced round");
        assert_eq!(plain.failed(), 0, "{:?}", plain.jobs);
        let traced = round(&spec, 5, 0, true).expect("traced round");
        assert_eq!(traced.failed(), 0, "{:?}", traced.jobs);
        assert_eq!(report_mismatches(&plain, &traced), Vec::<usize>::new());
        let slices: u64 = traced.workers.iter().map(|w| w.slices).sum();
        assert_eq!(
            traced
                .workers
                .iter()
                .map(|w| w.claims.len() as u64)
                .sum::<u64>(),
            slices
        );
        assert!(slices >= spec.jobs as u64);
        assert_eq!(queue_waits(&traced).len(), spec.jobs);
    }

    #[test]
    fn a_divergent_round_is_caught() {
        let spec = tiny();
        let a = round(&spec, 5, 0, false).expect("round");
        let b = round(&spec, 6, 0, true).expect("round");
        assert_eq!(report_mismatches(&a, &b).len(), spec.jobs);
    }
}

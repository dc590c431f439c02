//! Timing wrappers around the program's public layer boundaries.
//!
//! [`Probe`] implements [`MeasurementBackend`] over any real backend and
//! [`TimedCampaign`] implements [`Campaign`] over any real campaign. Both
//! forward every call unchanged, so a campaign driven through them
//! produces the same results bit for bit. With timing off a probe only
//! counts requests and failures (two relaxed atomic adds per call); with
//! timing on it also records per-call wall time, the wall-clock interval
//! during which any backend call was in flight, and — when asked — an
//! owned copy of every request so the layer ledger can replay them.

use emvolt_backend::{
    BackendError, BandSpec, CombinedSource, DomainInfo, EmObservation, Load, MeasureRequest,
    MeasurementBackend,
};
use emvolt_engine::{snap, Campaign, StepBatch, StepOutcome};
use emvolt_inst::SweepReading;
use emvolt_isa::Kernel;
use emvolt_obs::Telemetry;
use emvolt_platform::{DomainError, RunConfig, SessionCosts};
use serde::Value;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// An owned copy of one [`MeasureRequest`].
#[derive(Debug, Clone)]
pub struct OwnedRequest {
    /// Domain name.
    pub domain: String,
    /// Kernel and loaded cores; `None` for an idle load.
    pub kernel: Option<(Kernel, usize)>,
    /// Clock override.
    pub freq_hz: Option<f64>,
    /// Analyzer band.
    pub band: BandSpec,
    /// Analyzer sweeps.
    pub samples: usize,
    /// Noise seed (`None` = the rig's stateful RNG).
    pub seed: Option<u64>,
}

impl OwnedRequest {
    fn of(req: &MeasureRequest<'_>) -> Self {
        OwnedRequest {
            domain: req.domain.to_string(),
            kernel: match req.load {
                Load::Kernel {
                    kernel,
                    loaded_cores,
                } => Some((kernel.clone(), loaded_cores)),
                Load::Idle => None,
            },
            freq_hz: req.freq_hz,
            band: req.band,
            samples: req.samples,
            seed: req.seed,
        }
    }
}

/// One backend call as the step engine issued it.
#[derive(Debug, Clone)]
pub struct RecordedCall {
    /// `true` for a lane group (`measure_batch`), `false` for a serial
    /// rig call (`measure_serial`).
    pub lanes: bool,
    /// The requests, in lane order.
    pub requests: Vec<OwnedRequest>,
}

/// What a timing probe saw.
#[derive(Debug, Clone, Default)]
pub struct BackendStats {
    /// Requests served.
    pub requests: u64,
    /// Requests whose result was an error.
    pub failed: u64,
    /// Backend calls (lane groups plus serial calls).
    pub batches: u64,
    /// Lane-group calls.
    pub lane_batches: u64,
    /// Requests served through lane-group calls.
    pub lane_requests: u64,
    /// Sum of per-call wall times (thread-seconds when calls overlap).
    pub busy_s: f64,
    /// Wall-clock seconds during which at least one call was in flight.
    pub wall_s: f64,
    /// Per-call wall times, seconds.
    pub call_s: Vec<f64>,
    /// Every call, when recording was requested.
    pub calls: Vec<RecordedCall>,
}

#[derive(Debug, Default)]
struct Timing {
    stats: BackendStats,
    in_flight: usize,
    since: Option<Instant>,
}

/// [`MeasurementBackend`] wrapper that counts (and optionally times and
/// records) every call into the wrapped backend.
#[derive(Debug)]
pub struct Probe<B> {
    inner: B,
    timing: bool,
    record: bool,
    requests: AtomicU64,
    failed: AtomicU64,
    state: Mutex<Timing>,
}

impl<B: MeasurementBackend> Probe<B> {
    /// Wraps `inner`. With `timing` off only request and failure counts
    /// are kept; `record` (which needs `timing`) also keeps a copy of
    /// every request.
    pub fn new(inner: B, timing: bool, record: bool) -> Self {
        Probe {
            inner,
            timing,
            record: timing && record,
            requests: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            state: Mutex::new(Timing::default()),
        }
    }

    /// Requests served since the last [`Probe::take`].
    pub fn requests(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// Failed requests since the last [`Probe::take`].
    pub fn failed(&self) -> u64 {
        self.failed.load(Ordering::Relaxed)
    }

    /// Returns everything observed so far and starts over.
    pub fn take(&self) -> BackendStats {
        let mut stats = std::mem::take(&mut self.lock().stats);
        stats.requests = self.requests.swap(0, Ordering::Relaxed);
        stats.failed = self.failed.swap(0, Ordering::Relaxed);
        stats
    }

    /// Switches timing and request recording (recording needs timing).
    pub fn set_mode(&mut self, timing: bool, record: bool) {
        self.timing = timing;
        self.record = timing && record;
    }

    fn lock(&self) -> MutexGuard<'_, Timing> {
        self.state
            .lock()
            .expect("probe state lock poisoned by a panicking worker")
    }

    fn begin(&self) -> Option<Instant> {
        if !self.timing {
            return None;
        }
        let now = Instant::now();
        let mut t = self.lock();
        if t.in_flight == 0 {
            t.since = Some(now);
        }
        t.in_flight += 1;
        Some(now)
    }

    fn end(&self, start: Option<Instant>, lanes: bool, reqs: &[MeasureRequest<'_>]) {
        let Some(start) = start else { return };
        let now = Instant::now();
        let dt = (now - start).as_secs_f64();
        let recorded = self.record.then(|| RecordedCall {
            lanes,
            requests: reqs.iter().map(OwnedRequest::of).collect(),
        });
        let mut t = self.lock();
        t.in_flight -= 1;
        if t.in_flight == 0 {
            if let Some(since) = t.since.take() {
                t.stats.wall_s += (now - since).as_secs_f64();
            }
        }
        let s = &mut t.stats;
        s.batches += 1;
        s.busy_s += dt;
        s.call_s.push(dt);
        if lanes {
            s.lane_batches += 1;
            s.lane_requests += reqs.len() as u64;
        }
        if let Some(call) = recorded {
            s.calls.push(call);
        }
    }

    fn count<T>(&self, results: &[Result<T, BackendError>]) {
        let failed = results.iter().filter(|r| r.is_err()).count() as u64;
        self.requests
            .fetch_add(results.len() as u64, Ordering::Relaxed);
        if failed > 0 {
            self.failed.fetch_add(failed, Ordering::Relaxed);
        }
    }
}

impl<B: MeasurementBackend> MeasurementBackend for Probe<B> {
    fn label(&self) -> &'static str {
        self.inner.label()
    }

    fn domains(&self) -> Vec<DomainInfo> {
        self.inner.domains()
    }

    fn configure_run(&mut self, config: &RunConfig) -> Result<(), BackendError> {
        self.inner.configure_run(config)
    }

    fn measure(
        &self,
        req: &MeasureRequest<'_>,
        telemetry: &Telemetry,
    ) -> Result<EmObservation, BackendError> {
        let start = self.begin();
        let result = self.inner.measure(req, telemetry);
        self.end(start, true, std::slice::from_ref(req));
        self.count(std::slice::from_ref(&result));
        result
    }

    fn measure_batch(
        &self,
        reqs: &[MeasureRequest<'_>],
        telemetry: &Telemetry,
    ) -> Vec<Result<EmObservation, BackendError>> {
        let start = self.begin();
        let results = self.inner.measure_batch(reqs, telemetry);
        self.end(start, true, reqs);
        self.count(&results);
        results
    }

    fn measure_serial(
        &mut self,
        req: &MeasureRequest<'_>,
        telemetry: &Telemetry,
    ) -> Result<EmObservation, BackendError> {
        let start = self.begin();
        let result = self.inner.measure_serial(req, telemetry);
        self.end(start, false, std::slice::from_ref(req));
        self.count(std::slice::from_ref(&result));
        result
    }

    fn capture_combined(
        &mut self,
        sources: &[CombinedSource<'_>],
        seed: u64,
        telemetry: &Telemetry,
    ) -> Result<SweepReading, BackendError> {
        let start = self.begin();
        let result = self.inner.capture_combined(sources, seed, telemetry);
        self.end(start, false, &[]);
        self.count(std::slice::from_ref(&result));
        result
    }

    fn elapsed_seconds(&self) -> f64 {
        self.inner.elapsed_seconds()
    }

    fn costs(&self) -> SessionCosts {
        self.inner.costs()
    }

    fn finish(&mut self) -> Result<(), BackendError> {
        self.inner.finish()
    }

    fn rig_state(&self) -> Vec<(String, String)> {
        self.inner.rig_state()
    }

    fn restore_rig_state(&mut self, state: &[(String, String)]) -> Result<(), BackendError> {
        self.inner.restore_rig_state(state)
    }
}

/// Time spent inside one campaign's state-machine methods.
#[derive(Debug, Clone, Default)]
pub struct CampaignStats {
    /// Seconds in `next_batch`.
    pub next_batch_s: f64,
    /// Seconds in `absorb`, all batches.
    pub absorb_s: f64,
    /// Seconds in the first `absorb` (the V_MIN anchor run).
    pub first_absorb_s: f64,
    /// Seconds capturing and rendering checkpoint snapshots.
    pub snapshot_s: f64,
    /// Snapshots actually rendered (the debounced writer skips most).
    pub renders: u64,
    /// Bytes of campaign state rendered into checkpoint lines.
    pub bytes: u64,
    /// Batches absorbed.
    pub batches: u64,
}

impl CampaignStats {
    /// Seconds the campaign's own methods took.
    pub fn self_s(&self) -> f64 {
        self.next_batch_s + self.absorb_s + self.snapshot_s
    }
}

/// [`Campaign`] wrapper timing every state-machine call of the wrapped
/// campaign.
pub struct TimedCampaign<'a, C: ?Sized> {
    inner: &'a mut C,
    stats: Arc<Mutex<CampaignStats>>,
}

impl<'a, C: Campaign + ?Sized> TimedCampaign<'a, C> {
    /// Wraps `inner`.
    pub fn new(inner: &'a mut C) -> Self {
        TimedCampaign {
            inner,
            stats: Arc::default(),
        }
    }

    /// What the campaign spent so far.
    pub fn stats(&self) -> CampaignStats {
        lock_stats(&self.stats).clone()
    }
}

fn lock_stats(stats: &Mutex<CampaignStats>) -> MutexGuard<'_, CampaignStats> {
    stats
        .lock()
        .expect("campaign stats lock poisoned by a panicking render")
}

impl<C: Campaign + ?Sized> Campaign for TimedCampaign<'_, C> {
    fn kind(&self) -> &'static str {
        self.inner.kind()
    }

    fn fingerprint(&self) -> u64 {
        self.inner.fingerprint()
    }

    fn telemetry(&self) -> Telemetry {
        self.inner.telemetry()
    }

    fn next_batch(&mut self) -> Option<StepBatch> {
        let t = Instant::now();
        let batch = self.inner.next_batch();
        lock_stats(&self.stats).next_batch_s += t.elapsed().as_secs_f64();
        batch
    }

    fn absorb(&mut self, outcomes: &[StepOutcome]) -> Result<(), DomainError> {
        let t = Instant::now();
        let result = self.inner.absorb(outcomes);
        let dt = t.elapsed().as_secs_f64();
        let mut s = lock_stats(&self.stats);
        if s.batches == 0 {
            s.first_absorb_s = dt;
        }
        s.absorb_s += dt;
        s.batches += 1;
        result
    }

    fn snapshot(&self) -> Value {
        let t = Instant::now();
        let tree = self.inner.snapshot();
        let dt = t.elapsed().as_secs_f64();
        let bytes = snap::to_line(&tree).len() as u64;
        let mut s = lock_stats(&self.stats);
        s.snapshot_s += dt;
        s.renders += 1;
        s.bytes += bytes;
        tree
    }

    fn snapshot_deferred(&self) -> Box<dyn FnOnce() -> Value + Send> {
        let t = Instant::now();
        let render = self.inner.snapshot_deferred();
        lock_stats(&self.stats).snapshot_s += t.elapsed().as_secs_f64();
        let stats = Arc::clone(&self.stats);
        Box::new(move || {
            let t = Instant::now();
            let tree = render();
            let dt = t.elapsed().as_secs_f64();
            let bytes = snap::to_line(&tree).len() as u64;
            let mut s = lock_stats(&stats);
            s.snapshot_s += dt;
            s.renders += 1;
            s.bytes += bytes;
            tree
        })
    }

    fn restore(&mut self, state: &Value) -> Result<(), DomainError> {
        self.inner.restore(state)
    }

    fn on_fresh_start(&mut self) {
        self.inner.on_fresh_start();
    }
}

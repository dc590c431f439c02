//! Waveform trace database: hierarchical timed signals with VCD export.
//!
//! The measurement chain produces *waveforms* — per-cycle core current,
//! die voltage, swept-bin instrument readings — but until now only scalar
//! metrics left the process. [`WaveDb`] records those waveforms as timed
//! samples behind the same zero-cost discipline the event pipeline uses:
//! a [`WaveSink`] trait whose [`NoopWaveSink`] default costs one branch
//! per emission site (asserted allocation-free by the `noop_alloc`
//! integration test), and a real database that change-compresses samples
//! and dumps industry-standard VCD (viewable in GTKWave) or a compact
//! `.rtt`-style binary.
//!
//! Determinism contract: signal ids are assigned in registration order,
//! timestamps derive from the simulated campaign clock (picosecond
//! integers, never the host clock), and emission happens only from
//! single-threaded coordinator contexts (quiet [`crate::Telemetry`]
//! clones never emit waves). A seeded campaign therefore dumps
//! byte-identical traces at any thread count and any SIMD level.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::path::Path;

use parking_lot::Mutex;

/// Value domain of a registered signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaveKind {
    /// 64-bit float, dumped as a VCD `real`.
    Real,
    /// Unsigned integer, dumped as a VCD `integer` (binary vector).
    Int,
    /// Single bit, dumped as a VCD `wire` of width 1.
    Bool,
}

impl WaveKind {
    fn tag(self) -> u8 {
        match self {
            WaveKind::Real => 0,
            WaveKind::Int => 1,
            WaveKind::Bool => 2,
        }
    }

    fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(WaveKind::Real),
            1 => Some(WaveKind::Int),
            2 => Some(WaveKind::Bool),
            _ => None,
        }
    }
}

/// Opaque handle to a registered signal.
///
/// [`WaveId::NONE`] is the inert sentinel returned by [`NoopWaveSink`]
/// and for filtered-out signals; sampling through it is a no-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaveId(u32);

impl WaveId {
    /// Sentinel for "not recorded": disabled sinks and filtered signals.
    pub const NONE: WaveId = WaveId(u32::MAX);

    /// `true` when sampling through this id goes nowhere.
    pub fn is_none(self) -> bool {
        self.0 == u32::MAX
    }
}

/// Destination for waveform samples, threaded through the chain inside
/// `Telemetry`.
///
/// Same discipline as the event `Recorder`: the disabled path is one
/// `is_enabled` virtual call per emission *site* (not per sample — sites
/// check once and skip their whole emission block), so hot loops stay
/// byte-identical with tracing off.
pub trait WaveSink: Send + Sync + std::fmt::Debug {
    /// Whether samples sent here are retained. Emission sites gate their
    /// whole block on this.
    fn is_enabled(&self) -> bool;

    /// Decimation stride emission sites should apply to dense waveforms
    /// (every `stride`-th sample). Always ≥ 1.
    fn stride(&self) -> usize;

    /// Registers (or looks up) a dot-separated hierarchical signal name,
    /// e.g. `pdn.v_die`. Idempotent: the same name always maps to the
    /// same id, assigned in first-registration order.
    fn register(&self, name: &str, kind: WaveKind) -> WaveId;

    /// Opens a new emission epoch at simulated campaign time
    /// `sim_seconds`; subsequent sample timestamps are relative to it.
    /// Epochs never move time backwards: the epoch base is clamped to
    /// just past the database's high-water mark, so a stalled simulated
    /// clock still yields sorted timestamps.
    fn begin_epoch(&self, sim_seconds: f64);

    /// Records a real sample at `t_s` seconds past the current epoch.
    fn sample_real(&self, id: WaveId, t_s: f64, value: f64);

    /// Records an integer sample at `t_s` seconds past the current epoch.
    fn sample_int(&self, id: WaveId, t_s: f64, value: u64);

    /// Records a bit sample at `t_s` seconds past the current epoch.
    fn sample_bool(&self, id: WaveId, t_s: f64, value: bool);

    /// Records a point reading just past the database's high-water mark —
    /// for signals with no waveform time axis of their own (instrument
    /// metrics produced once per measurement).
    fn append_real(&self, id: WaveId, value: f64);
}

/// The zero-cost disabled sink: registers nothing, drops every sample.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopWaveSink;

impl WaveSink for NoopWaveSink {
    fn is_enabled(&self) -> bool {
        false
    }

    fn stride(&self) -> usize {
        1
    }

    fn register(&self, _name: &str, _kind: WaveKind) -> WaveId {
        WaveId::NONE
    }

    fn begin_epoch(&self, _sim_seconds: f64) {}

    fn sample_real(&self, _id: WaveId, _t_s: f64, _value: f64) {}

    fn sample_int(&self, _id: WaveId, _t_s: f64, _value: u64) {}

    fn sample_bool(&self, _id: WaveId, _t_s: f64, _value: bool) {}

    fn append_real(&self, _id: WaveId, _value: f64) {}
}

/// One picosecond per VCD tick: PDN steps (hundreds of ps) and CPU
/// cycles (≥ 250 ps at 4 GHz) resolve exactly, and a multi-hour
/// simulated campaign still fits a `u64` with headroom.
const PS_PER_SECOND: f64 = 1e12;

fn to_ps(seconds: f64) -> u64 {
    let ps = (seconds * PS_PER_SECOND).round();
    if ps <= 0.0 {
        0
    } else {
        ps as u64
    }
}

#[derive(Debug, Clone)]
struct Signal {
    name: String,
    kind: WaveKind,
    /// Change-only compression state: bits of the last recorded value.
    last_bits: Option<u64>,
    /// Per-signal time high-water mark; out-of-order samples clamp to it
    /// so the dump is always sorted and compression stays consistent.
    last_t_ps: u64,
}

#[derive(Debug, Default)]
struct DbInner {
    signals: Vec<Signal>,
    index: HashMap<String, WaveId>,
    /// `(t_ps, signal id, value bits)`, per-signal time-ordered.
    changes: Vec<(u64, u32, u64)>,
    epoch_ps: u64,
    cursor_ps: u64,
}

/// In-memory waveform trace database implementing [`WaveSink`].
///
/// Signals are registered by dot-separated hierarchical name
/// (`cpu.i_core`, `pdn.v_die`, `inst.band_dbm`); samples are
/// change-compressed (a sample equal to the signal's previous value is
/// dropped) and timestamped in integer picoseconds. [`WaveDb::dump_vcd`]
/// renders the scope tree and sorted change stream as VCD;
/// [`WaveDb::dump_rtt`] writes the same content as a compact binary.
#[derive(Debug, Default)]
pub struct WaveDb {
    inner: Mutex<DbInner>,
    stride: usize,
    /// Signal-name prefixes to keep; empty keeps everything.
    filters: Vec<String>,
}

impl WaveDb {
    /// An unfiltered database recording every sample (stride 1).
    pub fn new() -> Self {
        WaveDb::with_config(1, Vec::new())
    }

    /// A database advertising decimation `stride` and keeping only
    /// signals whose name starts with one of `filters` (all signals when
    /// `filters` is empty). Stride 0 is treated as 1.
    pub fn with_config(stride: usize, filters: Vec<String>) -> Self {
        WaveDb {
            inner: Mutex::new(DbInner::default()),
            stride: stride.max(1),
            filters,
        }
    }

    /// Whether a signal named `name` passes the prefix filters (an empty
    /// filter list keeps everything).
    pub fn keeps(&self, name: &str) -> bool {
        self.filters.is_empty() || self.filters.iter().any(|f| name.starts_with(f.as_str()))
    }

    /// Number of registered (unfiltered) signals.
    pub fn signal_count(&self) -> usize {
        self.inner.lock().signals.len()
    }

    /// Number of retained (change-compressed) samples.
    pub fn samples_written(&self) -> u64 {
        self.inner.lock().changes.len() as u64
    }

    fn record(&self, id: WaveId, t_s: f64, bits: u64) {
        if id.is_none() {
            return;
        }
        let mut inner = self.inner.lock();
        let base = inner.epoch_ps;
        self.push_change(
            &mut inner,
            id.0,
            base.saturating_add(to_ps(t_s.max(0.0))),
            bits,
        );
    }

    fn push_change(&self, inner: &mut DbInner, id: u32, t_ps: u64, bits: u64) {
        let sig = &mut inner.signals[id as usize];
        let t_ps = t_ps.max(sig.last_t_ps);
        if sig.last_bits == Some(bits) {
            return;
        }
        sig.last_bits = Some(bits);
        sig.last_t_ps = t_ps;
        inner.changes.push((t_ps, id, bits));
        inner.cursor_ps = inner.cursor_ps.max(t_ps);
    }

    /// Sorted change stream: stable by timestamp, so equal-time changes
    /// keep insertion order (the later one is the VCD-final value, which
    /// matches how they were recorded).
    fn sorted_changes(inner: &DbInner) -> Vec<(u64, u32, u64)> {
        let mut changes = inner.changes.clone();
        changes.sort_by_key(|&(t, _, _)| t);
        changes
    }

    /// Writes the database as a Value Change Dump (`$timescale 1ps`).
    ///
    /// # Errors
    ///
    /// Propagates writer I/O errors.
    pub fn dump_vcd(&self, w: &mut dyn Write) -> io::Result<()> {
        let inner = self.inner.lock();
        writeln!(w, "$comment emvolt wavetrace $end")?;
        writeln!(w, "$timescale 1ps $end")?;
        write_scope_tree(w, &inner.signals)?;
        writeln!(w, "$enddefinitions $end")?;
        let mut current_t = None;
        for (t, id, bits) in Self::sorted_changes(&inner) {
            if current_t != Some(t) {
                writeln!(w, "#{t}")?;
                current_t = Some(t);
            }
            let code = id_code(id);
            match inner.signals[id as usize].kind {
                WaveKind::Real => writeln!(w, "r{} {code}", f64::from_bits(bits))?,
                WaveKind::Int => writeln!(w, "b{bits:b} {code}")?,
                WaveKind::Bool => writeln!(w, "{}{code}", if bits != 0 { '1' } else { '0' })?,
            }
        }
        Ok(())
    }

    /// The VCD dump as a string (tests and in-memory comparisons).
    pub fn to_vcd_string(&self) -> String {
        let mut buf = Vec::new();
        self.dump_vcd(&mut buf)
            .expect("Vec<u8> writes are infallible");
        String::from_utf8(buf).expect("VCD output is ASCII")
    }

    /// Writes the compact binary form: magic, signal table, then the
    /// sorted change stream as fixed-size little-endian records.
    ///
    /// # Errors
    ///
    /// Propagates writer I/O errors.
    pub fn dump_rtt(&self, w: &mut dyn Write) -> io::Result<()> {
        let inner = self.inner.lock();
        w.write_all(RTT_MAGIC)?;
        w.write_all(&(inner.signals.len() as u32).to_le_bytes())?;
        for sig in &inner.signals {
            w.write_all(&[sig.kind.tag()])?;
            w.write_all(&(sig.name.len() as u32).to_le_bytes())?;
            w.write_all(sig.name.as_bytes())?;
        }
        let changes = Self::sorted_changes(&inner);
        w.write_all(&(changes.len() as u64).to_le_bytes())?;
        for (t, id, bits) in changes {
            w.write_all(&t.to_le_bytes())?;
            w.write_all(&id.to_le_bytes())?;
            w.write_all(&bits.to_le_bytes())?;
        }
        Ok(())
    }

    /// Dumps to `path`, picking the format from the extension: `.rtt`
    /// writes the binary form, anything else VCD.
    ///
    /// # Errors
    ///
    /// Propagates file-creation and write errors.
    pub fn dump_to_path(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        if path.extension().is_some_and(|e| e == "rtt") {
            self.dump_rtt(&mut out)?;
        } else {
            self.dump_vcd(&mut out)?;
        }
        out.flush()
    }
}

impl WaveSink for WaveDb {
    fn is_enabled(&self) -> bool {
        true
    }

    fn stride(&self) -> usize {
        self.stride
    }

    fn register(&self, name: &str, kind: WaveKind) -> WaveId {
        if !self.keeps(name) {
            return WaveId::NONE;
        }
        let mut inner = self.inner.lock();
        if let Some(&id) = inner.index.get(name) {
            return id;
        }
        let id = WaveId(inner.signals.len() as u32);
        inner.signals.push(Signal {
            name: name.to_string(),
            kind,
            last_bits: None,
            last_t_ps: 0,
        });
        inner.index.insert(name.to_string(), id);
        id
    }

    fn begin_epoch(&self, sim_seconds: f64) {
        let mut inner = self.inner.lock();
        let floor = if inner.changes.is_empty() {
            0
        } else {
            inner.cursor_ps + 1
        };
        inner.epoch_ps = to_ps(sim_seconds.max(0.0)).max(floor);
    }

    fn sample_real(&self, id: WaveId, t_s: f64, value: f64) {
        self.record(id, t_s, value.to_bits());
    }

    fn sample_int(&self, id: WaveId, t_s: f64, value: u64) {
        self.record(id, t_s, value);
    }

    fn sample_bool(&self, id: WaveId, t_s: f64, value: bool) {
        self.record(id, t_s, value as u64);
    }

    fn append_real(&self, id: WaveId, value: f64) {
        if id.is_none() {
            return;
        }
        let mut inner = self.inner.lock();
        let t_ps = inner.cursor_ps + u64::from(!inner.changes.is_empty());
        self.push_change(&mut inner, id.0, t_ps, value.to_bits());
    }
}

const RTT_MAGIC: &[u8; 8] = b"emvoltRT";

/// Parsed content of an `.rtt` binary dump (testing / tooling).
#[derive(Debug, Clone, PartialEq)]
pub struct RttDump {
    /// `(name, kind)` in id order.
    pub signals: Vec<(String, WaveKind)>,
    /// `(t_ps, signal id, value bits)` sorted by time.
    pub changes: Vec<(u64, u32, u64)>,
}

/// Reads back an `.rtt` dump written by [`WaveDb::dump_rtt`].
///
/// # Errors
///
/// Returns a description of the first structural problem (bad magic,
/// truncated table, unknown kind tag, non-UTF-8 name).
pub fn read_rtt(r: &mut dyn Read) -> Result<RttDump, String> {
    let mut bytes = Vec::new();
    r.read_to_end(&mut bytes).map_err(|e| e.to_string())?;
    let mut cur = RttCursor {
        bytes: &bytes,
        at: 0,
    };
    if cur.take(8)? != RTT_MAGIC {
        return Err("bad magic: not an emvolt rtt dump".to_string());
    }
    let n_signals = u32::from_le_bytes(cur.take(4)?.try_into().unwrap());
    // A signal record is at least a kind tag and a name length.
    let mut signals = Vec::with_capacity(cur.capacity(n_signals.into(), 5));
    for i in 0..n_signals {
        let tag = cur.take(1)?[0];
        let kind = WaveKind::from_tag(tag).ok_or_else(|| format!("signal {i}: bad kind {tag}"))?;
        let len = u32::from_le_bytes(cur.take(4)?.try_into().unwrap()) as usize;
        let name = std::str::from_utf8(cur.take(len)?)
            .map_err(|_| format!("signal {i}: name is not UTF-8"))?
            .to_string();
        signals.push((name, kind));
    }
    let n_changes = u64::from_le_bytes(cur.take(8)?.try_into().unwrap());
    let mut changes = Vec::with_capacity(cur.capacity(n_changes, 20));
    for _ in 0..n_changes {
        let t = u64::from_le_bytes(cur.take(8)?.try_into().unwrap());
        let id = u32::from_le_bytes(cur.take(4)?.try_into().unwrap());
        let bits = u64::from_le_bytes(cur.take(8)?.try_into().unwrap());
        changes.push((t, id, bits));
    }
    if cur.at != bytes.len() {
        return Err(format!(
            "{} trailing bytes after change stream",
            bytes.len() - cur.at
        ));
    }
    Ok(RttDump { signals, changes })
}

/// Bounds-checked forward reader over the bytes of an `.rtt` dump.
struct RttCursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> RttCursor<'a> {
    /// The next `n` bytes, or a "truncated" error.
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let slice = self
            .bytes
            .get(self.at..self.at.saturating_add(n))
            .ok_or_else(|| format!("truncated at byte {}: wanted {n} more", self.at))?;
        self.at += n;
        Ok(slice)
    }

    /// Capacity for a table of `count` records of at least `min_bytes`
    /// each: no more than the unread bytes can hold, so a corrupt count
    /// fails as truncated instead of reserving memory for it.
    fn capacity(&self, count: u64, min_bytes: usize) -> usize {
        let fits = (self.bytes.len() - self.at) / min_bytes;
        usize::try_from(count).map_or(fits, |count| count.min(fits))
    }
}

/// VCD identifier code for signal `id`: base-94 over the printable ASCII
/// range `!`..`~`, matching standard dumpers.
fn id_code(mut id: u32) -> String {
    let mut code = String::new();
    loop {
        code.push((b'!' + (id % 94) as u8) as char);
        id /= 94;
        if id == 0 {
            break;
        }
    }
    code
}

/// Ordered scope tree node built from dot-separated signal names.
#[derive(Default)]
struct ScopeNode {
    /// Subscopes in first-appearance order (determinism: registration
    /// order drives the header layout).
    subs: Vec<(String, ScopeNode)>,
    /// Signal ids whose leaf variable lives directly in this scope.
    vars: Vec<u32>,
}

fn write_scope_tree(w: &mut dyn Write, signals: &[Signal]) -> io::Result<()> {
    let mut root = ScopeNode::default();
    for (id, sig) in signals.iter().enumerate() {
        let mut node = &mut root;
        let mut parts = sig.name.split('.').peekable();
        while let Some(part) = parts.next() {
            if parts.peek().is_none() {
                node.vars.push(id as u32);
            } else {
                let pos = match node.subs.iter().position(|(n, _)| n == part) {
                    Some(p) => p,
                    None => {
                        node.subs.push((part.to_string(), ScopeNode::default()));
                        node.subs.len() - 1
                    }
                };
                node = &mut node.subs[pos].1;
            }
        }
    }
    write_scope_node(w, &root, signals, 0)
}

fn write_scope_node(
    w: &mut dyn Write,
    node: &ScopeNode,
    signals: &[Signal],
    depth: usize,
) -> io::Result<()> {
    let pad = "  ".repeat(depth);
    for &id in &node.vars {
        let sig = &signals[id as usize];
        let leaf = sig.name.rsplit('.').next().unwrap_or(&sig.name);
        let (ty, width) = match sig.kind {
            WaveKind::Real => ("real", 64),
            WaveKind::Int => ("integer", 64),
            WaveKind::Bool => ("wire", 1),
        };
        writeln!(w, "{pad}$var {ty} {width} {} {leaf} $end", id_code(id))?;
    }
    for (name, sub) in &node.subs {
        writeln!(w, "{pad}$scope module {name} $end")?;
        write_scope_node(w, sub, signals, depth + 1)?;
        writeln!(w, "{pad}$upscope $end")?;
    }
    Ok(())
}

/// Summary statistics from a successful [`validate_vcd_text`] pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VcdCheck {
    /// Declared `$var` count.
    pub signals: usize,
    /// Value-change lines seen.
    pub changes: u64,
    /// Last timestamp in the dump, picoseconds.
    pub end_time_ps: u64,
}

/// Structural VCD validation in the `validate_telemetry` style: the
/// header must be well-formed (balanced scopes, a `$timescale`, ending in
/// `$enddefinitions`), every value change must reference a declared
/// identifier code, and timestamps must be strictly increasing. Errors
/// name the offending line number.
///
/// # Errors
///
/// Returns `"line N: <problem>"` for the first violation.
pub fn validate_vcd_text(text: &str) -> Result<VcdCheck, String> {
    let mut codes: HashMap<&str, usize> = HashMap::new();
    let mut in_header = true;
    let mut saw_timescale = false;
    let mut scope_depth = 0usize;
    let mut last_t: Option<u64> = None;
    let mut changes = 0u64;

    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        if in_header {
            let tokens: Vec<&str> = line.split_whitespace().collect();
            if tokens.last() != Some(&"$end") {
                return Err(format!(
                    "line {line_no}: header directive not closed by $end"
                ));
            }
            match tokens[0] {
                "$timescale" => saw_timescale = true,
                "$comment" | "$date" | "$version" => {}
                "$scope" => scope_depth += 1,
                "$upscope" => {
                    scope_depth = scope_depth
                        .checked_sub(1)
                        .ok_or_else(|| format!("line {line_no}: $upscope without open scope"))?;
                }
                "$var" => {
                    // $var <type> <width> <code> <ref...> $end
                    if tokens.len() < 6 {
                        return Err(format!("line {line_no}: malformed $var declaration"));
                    }
                    if tokens[2].parse::<u32>().is_err() {
                        return Err(format!(
                            "line {line_no}: $var width `{}` is not an integer",
                            tokens[2]
                        ));
                    }
                    if codes.insert(tokens[3], line_no).is_some() {
                        return Err(format!(
                            "line {line_no}: identifier code `{}` declared twice",
                            tokens[3]
                        ));
                    }
                }
                "$enddefinitions" => {
                    if scope_depth != 0 {
                        return Err(format!(
                            "line {line_no}: $enddefinitions with {scope_depth} unclosed scope(s)"
                        ));
                    }
                    if !saw_timescale {
                        return Err(format!(
                            "line {line_no}: no $timescale before definitions end"
                        ));
                    }
                    in_header = false;
                }
                other => {
                    return Err(format!(
                        "line {line_no}: unknown header directive `{other}`"
                    ));
                }
            }
            continue;
        }
        // Body: timestamps and value changes.
        if let Some(ts) = line.strip_prefix('#') {
            let t: u64 = ts
                .parse()
                .map_err(|_| format!("line {line_no}: bad timestamp `#{ts}`"))?;
            if let Some(prev) = last_t {
                if t <= prev {
                    return Err(format!(
                        "line {line_no}: timestamp #{t} not after previous #{prev}"
                    ));
                }
            }
            last_t = Some(t);
            continue;
        }
        let code = if let Some(rest) = line.strip_prefix('r').or_else(|| line.strip_prefix('b')) {
            let (value, code) = rest
                .split_once(' ')
                .ok_or_else(|| format!("line {line_no}: vector change without identifier"))?;
            let ok = if line.starts_with('r') {
                value.parse::<f64>().is_ok()
            } else {
                !value.is_empty() && value.chars().all(|c| c == '0' || c == '1')
            };
            if !ok {
                return Err(format!("line {line_no}: bad value `{value}`"));
            }
            code
        } else if let Some(code) = line.strip_prefix('0').or_else(|| line.strip_prefix('1')) {
            if code.is_empty() {
                return Err(format!("line {line_no}: scalar change without identifier"));
            }
            code
        } else {
            return Err(format!("line {line_no}: unrecognized line `{line}`"));
        };
        if !codes.contains_key(code) {
            return Err(format!(
                "line {line_no}: undeclared identifier code `{code}`"
            ));
        }
        changes += 1;
    }
    if in_header {
        return Err("line 1: no $enddefinitions — not a VCD body".to_string());
    }
    Ok(VcdCheck {
        signals: codes.len(),
        changes,
        end_time_ps: last_t.unwrap_or(0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Corrupt table counts must fail as truncated, not reserve memory
    /// for them (`u64::MAX` changes used to panic with "capacity
    /// overflow").
    #[test]
    fn hostile_counts_are_truncation_errors() {
        let with_counts = |n_signals: u32, n_changes: u64| {
            let mut bytes = RTT_MAGIC.to_vec();
            bytes.extend(n_signals.to_le_bytes());
            bytes.extend(n_changes.to_le_bytes());
            bytes
        };
        for bytes in [
            with_counts(0, u64::MAX),
            with_counts(0, 1 << 40),
            with_counts(u32::MAX, 0),
        ] {
            let err = read_rtt(&mut bytes.as_slice()).unwrap_err();
            assert!(err.contains("truncated"), "{err}");
        }
        assert_eq!(with_counts(0, u64::MAX).len(), 20);
    }

    #[test]
    fn registration_is_idempotent_and_ordered() {
        let db = WaveDb::new();
        let a = db.register("cpu.i_core", WaveKind::Real);
        let b = db.register("pdn.v_die", WaveKind::Real);
        let a2 = db.register("cpu.i_core", WaveKind::Real);
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(db.signal_count(), 2);
    }

    #[test]
    fn change_only_compression_drops_repeats() {
        let db = WaveDb::new();
        let id = db.register("cpu.issue_slots", WaveKind::Int);
        db.begin_epoch(0.0);
        db.sample_int(id, 0.0, 2);
        db.sample_int(id, 1e-9, 2);
        db.sample_int(id, 2e-9, 3);
        db.sample_int(id, 3e-9, 3);
        assert_eq!(db.samples_written(), 2);
    }

    #[test]
    fn noop_sink_registers_nothing() {
        let sink = NoopWaveSink;
        assert!(!sink.is_enabled());
        let id = sink.register("cpu.i_core", WaveKind::Real);
        assert!(id.is_none());
        sink.sample_real(id, 0.0, 1.0);
        sink.append_real(id, 1.0);
        sink.begin_epoch(5.0);
    }

    #[test]
    fn prefix_filters_drop_unlisted_signals() {
        let db = WaveDb::with_config(1, vec!["cpu".to_string()]);
        let kept = db.register("cpu.i_core", WaveKind::Real);
        let dropped = db.register("pdn.v_die", WaveKind::Real);
        assert!(!kept.is_none());
        assert!(dropped.is_none());
        db.sample_real(dropped, 0.0, 1.0);
        assert_eq!(db.signal_count(), 1);
        assert_eq!(db.samples_written(), 0);
    }

    #[test]
    fn epochs_never_move_time_backwards() {
        let db = WaveDb::new();
        let id = db.register("pdn.v_die", WaveKind::Real);
        db.begin_epoch(1e-6);
        db.sample_real(id, 2e-6, 1.0);
        // Stalled sim clock: the next epoch still lands past the cursor.
        db.begin_epoch(0.0);
        db.sample_real(id, 0.0, 2.0);
        let vcd = db.to_vcd_string();
        let check = validate_vcd_text(&vcd).unwrap();
        assert_eq!(check.changes, 2);
        assert!(check.end_time_ps > 3_000_000);
    }

    #[test]
    fn appends_land_past_the_high_water_mark() {
        let db = WaveDb::new();
        let wave = db.register("pdn.v_die", WaveKind::Real);
        let point = db.register("inst.band_dbm", WaveKind::Real);
        db.begin_epoch(0.0);
        db.sample_real(wave, 1e-9, 1.0);
        db.append_real(point, -60.0);
        db.append_real(point, -61.0);
        let vcd = db.to_vcd_string();
        let check = validate_vcd_text(&vcd).unwrap();
        assert_eq!(check.end_time_ps, 1002);
        assert_eq!(check.changes, 3);
    }

    #[test]
    fn vcd_dump_validates_and_scopes_hierarchically() {
        let db = WaveDb::new();
        let i = db.register("cpu.i_core", WaveKind::Real);
        let s = db.register("cpu.issue_slots", WaveKind::Int);
        let g = db.register("pdn.gated", WaveKind::Bool);
        db.begin_epoch(0.0);
        db.sample_real(i, 0.0, 0.75);
        db.sample_int(s, 0.0, 3);
        db.sample_bool(g, 0.0, true);
        db.sample_bool(g, 1e-9, false);
        let vcd = db.to_vcd_string();
        assert!(vcd.contains("$scope module cpu $end"));
        assert!(vcd.contains("$scope module pdn $end"));
        assert!(vcd.contains("$var real 64 ! i_core $end"));
        assert!(vcd.contains("$var integer 64 \" issue_slots $end"));
        assert!(vcd.contains("r0.75 !"));
        assert!(vcd.contains("b11 \""));
        let check = validate_vcd_text(&vcd).unwrap();
        assert_eq!(check.signals, 3);
        assert_eq!(check.changes, 4);
        assert_eq!(check.end_time_ps, 1000);
    }

    #[test]
    fn rtt_round_trips() {
        let db = WaveDb::new();
        let i = db.register("cpu.i_core", WaveKind::Real);
        let s = db.register("cpu.issue_slots", WaveKind::Int);
        db.begin_epoch(0.0);
        db.sample_real(i, 0.0, -0.0);
        db.sample_int(s, 1e-9, 7);
        db.sample_real(i, 2e-9, f64::NAN.copysign(-1.0));
        let mut buf = Vec::new();
        db.dump_rtt(&mut buf).unwrap();
        let dump = read_rtt(&mut &buf[..]).unwrap();
        assert_eq!(
            dump.signals,
            vec![
                ("cpu.i_core".to_string(), WaveKind::Real),
                ("cpu.issue_slots".to_string(), WaveKind::Int),
            ]
        );
        assert_eq!(dump.changes.len(), 3);
        assert_eq!(dump.changes[0], (0, 0, (-0.0f64).to_bits()));
        assert_eq!(dump.changes[1], (1000, 1, 7));
        // NaN bits survive exactly — the binary format stores raw bits.
        assert_eq!(dump.changes[2].2, f64::NAN.copysign(-1.0).to_bits());
    }

    #[test]
    fn rtt_rejects_corruption() {
        let db = WaveDb::new();
        db.register("cpu.i_core", WaveKind::Real);
        let mut buf = Vec::new();
        db.dump_rtt(&mut buf).unwrap();
        let err = read_rtt(&mut &buf[..4]).unwrap_err();
        assert!(err.contains("truncated"));
        let mut bad = buf.clone();
        bad[0] = b'X';
        assert!(read_rtt(&mut &bad[..]).unwrap_err().contains("magic"));
    }

    #[test]
    fn validator_flags_unsorted_timestamps_with_line_numbers() {
        let text = "$timescale 1ps $end\n$var real 64 ! v $end\n$enddefinitions $end\n#10\nr1 !\n#5\nr2 !\n";
        let err = validate_vcd_text(text).unwrap_err();
        assert!(err.starts_with("line 6:"), "{err}");
        assert!(err.contains("#5"), "{err}");
    }

    #[test]
    fn validator_flags_undeclared_codes() {
        let text = "$timescale 1ps $end\n$var real 64 ! v $end\n$enddefinitions $end\n#0\nr1 \"\n";
        let err = validate_vcd_text(text).unwrap_err();
        assert!(err.starts_with("line 5:"), "{err}");
        assert!(err.contains("undeclared"), "{err}");
    }

    #[test]
    fn validator_flags_unbalanced_scopes() {
        let text = "$timescale 1ps $end\n$scope module cpu $end\n$enddefinitions $end\n";
        let err = validate_vcd_text(text).unwrap_err();
        assert!(err.contains("unclosed scope"), "{err}");
    }

    #[test]
    fn id_codes_cover_multi_char_range() {
        assert_eq!(id_code(0), "!");
        assert_eq!(id_code(93), "~");
        assert_eq!(id_code(94), "!\"");
        let db = WaveDb::new();
        for k in 0..200 {
            db.register(&format!("s.n{k}"), WaveKind::Real);
        }
        let vcd = db.to_vcd_string();
        assert_eq!(validate_vcd_text(&vcd).unwrap().signals, 200);
    }
}

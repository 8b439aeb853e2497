//! The fabric coordinator: a single-threaded, non-blocking poll loop
//! that leases shard ranges to workers, collects epoch deltas, runs the
//! barrier merge in shard-index order, and re-leases the shards of dead
//! workers from the last epoch boundary.
//!
//! Fault handling never aborts a run while any worker (present or
//! future — pump accepts rejoins continuously) can still make
//! progress: a connection that sends a malformed or checksum-failing
//! frame is *quarantined* (marked dead, socket shut down, shards
//! re-leased); a worker silent past the lease timeout is treated the
//! same; `.tcs` checkpoints are written crash-safely (temp file +
//! fsync + atomic rename, with the previous epoch kept as `.prev`).
//!
//! # The "fleet equals single-host" invariant
//!
//! The coordinator never runs the VM. It holds the campaign's *boundary
//! state* — every shard's [`StateSnapshot`] as of the last completed
//! epoch — plus the [epoch engine](teapot_campaign::epoch)'s
//! [`EpochClock`], and advances the boundary only by applying worker
//! deltas in shard-index order. Budgets and seed decisions come from
//! [`EpochClock::plan`], the call [`Campaign::run_epoch_shared`] makes;
//! workers run the engine's per-shard steps; and a [`ShardDelta`] is a
//! pure function of (boundary shard state, epoch). So the boundary after
//! every epoch is byte-identical to a single-host campaign's — for any
//! fleet size, any delta arrival order, and any worker deaths (a
//! re-leased shard re-runs the same deterministic work from the same
//! boundary state).
//!
//! [`Campaign::run_epoch_shared`]: teapot_campaign::Campaign::run_epoch_shared

use crate::wire::{encode_frame, Frame, FrameBuffer, Lease, LeasedShard};
use crate::{FabricError, FabricStats};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::time::Instant;
use teapot_campaign::epoch::boundary_features;
use teapot_campaign::snapshot::fingerprint;
use teapot_campaign::{
    partition, Campaign, CampaignConfig, CampaignSnapshot, EpochClock, EpochPlan,
};
use teapot_chaos::CheckpointFault;
use teapot_fuzz::StateSnapshot;
use teapot_obj::Binary;
use teapot_rt::ShardDelta;
use teapot_telemetry::{Event, MetricsSink, Stopwatch};
use teapot_vm::DecodeStats;

/// Coordinator knobs.
#[derive(Debug)]
pub struct CoordinatorOptions {
    /// Number of workers to wait for before leasing.
    pub expect_workers: usize,
    /// Declare a worker dead if it owes deltas and has been silent this
    /// long (EOF/reset is detected immediately regardless).
    pub lease_timeout_ms: u64,
    /// Give up if the fleet has not assembled within this window.
    pub hello_timeout_ms: u64,
    /// Write a `.tcs` checkpoint of the boundary state after every
    /// epoch (what a preempted campaign resumes from).
    pub checkpoint: Option<PathBuf>,
    /// Chaos: inject a checkpoint-write fault at these `epochs_done`
    /// values (a failed or torn write — the campaign carries on; only
    /// the on-disk checkpoint lags an epoch).
    pub checkpoint_faults: BTreeMap<u32, CheckpointFault>,
}

impl CoordinatorOptions {
    /// Defaults for an `expect_workers`-strong fleet.
    pub fn new(expect_workers: usize) -> CoordinatorOptions {
        CoordinatorOptions {
            expect_workers,
            lease_timeout_ms: 120_000,
            hello_timeout_ms: 60_000,
            checkpoint: None,
            checkpoint_faults: BTreeMap::new(),
        }
    }
}

struct Conn {
    stream: TcpStream,
    inbuf: FrameBuffer,
    outbuf: Vec<u8>,
    name: String,
    hello: bool,
    alive: bool,
    /// Shards this worker currently holds a lease on.
    shards: Vec<u32>,
    last_heard: Instant,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            inbuf: FrameBuffer::new(),
            outbuf: Vec::new(),
            name: String::new(),
            hello: false,
            alive: true,
            shards: Vec::new(),
            last_heard: Instant::now(),
        }
    }
}

/// The coordinator: owns the listening socket and the worker
/// connections, and runs fleet campaigns over them (several in
/// sequence, in queue mode).
pub struct Coordinator {
    /// `None` after [`Coordinator::shutdown`]: late rejoin attempts get
    /// a connection refusal (and give up fast) instead of parking in an
    /// accept backlog nobody will ever drain.
    listener: Option<TcpListener>,
    conns: Vec<Conn>,
    opts: CoordinatorOptions,
    stats: FabricStats,
    metrics: Option<MetricsSink>,
    decode_stats: DecodeStats,
    /// Set once the initial fleet assembled; Hellos after this point
    /// are rejoins.
    assembled: bool,
}

impl Coordinator {
    /// Wraps a bound listener. The listener is switched to non-blocking
    /// accepts; workers may connect at any time from here on.
    pub fn new(
        listener: TcpListener,
        opts: CoordinatorOptions,
    ) -> Result<Coordinator, FabricError> {
        listener.set_nonblocking(true)?;
        Ok(Coordinator {
            listener: Some(listener),
            conns: Vec::new(),
            opts,
            stats: FabricStats::default(),
            metrics: None,
            decode_stats: DecodeStats::default(),
            assembled: false,
        })
    }

    /// Attaches a metrics JSONL sink for `fabric` events
    /// (emission-only: never influences campaign results).
    pub fn set_metrics(&mut self, sink: MetricsSink) {
        self.metrics = Some(sink);
    }

    /// Detaches the metrics sink (to finish/flush it).
    pub fn take_metrics(&mut self) -> Option<MetricsSink> {
        self.metrics.take()
    }

    /// Fleet statistics accumulated so far.
    pub fn stats(&self) -> &FabricStats {
        &self.stats
    }

    /// Points epoch-boundary checkpointing at `path` (queue mode swaps
    /// this per binary).
    pub fn set_checkpoint(&mut self, path: Option<PathBuf>) {
        self.opts.checkpoint = path;
    }

    fn emit(&mut self, ev: Event) {
        if let Some(sink) = &mut self.metrics {
            sink.emit(ev);
        }
    }

    /// Accepts pending connections, flushes queued outbound bytes, and
    /// reads whatever the sockets have, returning the parsed frames as
    /// `(connection index, frame)` pairs. Never blocks. Connections
    /// whose bytes fail to parse (checksum mismatch, bad frame) are
    /// quarantined here: marked dead, socket shut down, counted —
    /// their shards get re-leased by the caller's orphan sweep.
    fn pump(&mut self) -> Result<Vec<(usize, Frame)>, FabricError> {
        if let Some(listener) = &self.listener {
            loop {
                match listener.accept() {
                    Ok((s, _)) => {
                        s.set_nonblocking(true)?;
                        s.set_nodelay(true).ok();
                        self.conns.push(Conn::new(s));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(e.into()),
                }
            }
        }
        let mut out = Vec::new();
        let mut quarantined: Vec<(usize, String)> = Vec::new();
        let mut rejoined: Vec<String> = Vec::new();
        let mut tmp = [0u8; 64 * 1024];
        let assembled = self.assembled;
        for (idx, c) in self.conns.iter_mut().enumerate() {
            if !c.alive {
                continue;
            }
            // Drain queued writes first (never blocks; a slow worker
            // just keeps bytes queued here instead of wedging the loop).
            while !c.outbuf.is_empty() {
                match c.stream.write(&c.outbuf) {
                    Ok(0) => {
                        c.alive = false;
                        break;
                    }
                    Ok(n) => {
                        c.outbuf.drain(..n);
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        c.alive = false;
                        break;
                    }
                }
            }
            loop {
                match c.stream.read(&mut tmp) {
                    Ok(0) => {
                        c.alive = false;
                        break;
                    }
                    Ok(n) => {
                        c.inbuf.push(&tmp[..n]);
                        c.last_heard = Instant::now();
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        c.alive = false;
                        break;
                    }
                }
            }
            // Frames received before a close are still valid (a dying
            // worker's last delta counts), so parse even if dead now.
            loop {
                match c.inbuf.pop() {
                    Ok(Some(f)) => {
                        if let Frame::Hello { name } = &f {
                            if !c.hello && assembled {
                                rejoined.push(name.clone());
                            }
                            c.hello = true;
                            c.name = name.clone();
                        }
                        out.push((idx, f));
                    }
                    Ok(None) => break,
                    Err(e) => {
                        // Quarantine: this connection's byte stream can
                        // no longer be trusted. Anything valid it sent
                        // before the damage still counts (it is in
                        // `out`); the connection itself is done.
                        c.alive = false;
                        c.stream.shutdown(std::net::Shutdown::Both).ok();
                        quarantined.push((idx, e.to_string()));
                        break;
                    }
                }
            }
        }
        for (idx, why) in quarantined {
            self.stats.quarantined += 1;
            let name = self.conns[idx].name.clone();
            self.emit(
                Event::new("fabric")
                    .str_field("op", "quarantine")
                    .str_field("worker", &name)
                    .str_field("error", &why),
            );
        }
        for name in rejoined {
            self.stats.rejoins += 1;
            self.emit(
                Event::new("fabric")
                    .str_field("op", "rejoin")
                    .str_field("worker", &name),
            );
        }
        Ok(out)
    }

    /// Condemns one connection: marks it dead, shuts the socket down
    /// (unblocking a peer parked on it), and records the event. The
    /// caller's orphan sweep re-leases whatever shards it held.
    fn quarantine(&mut self, idx: usize, why: &str) {
        let c = &mut self.conns[idx];
        if !c.alive {
            return;
        }
        c.alive = false;
        c.stream.shutdown(std::net::Shutdown::Both).ok();
        self.stats.quarantined += 1;
        let name = c.name.clone();
        self.emit(
            Event::new("fabric")
                .str_field("op", "quarantine")
                .str_field("worker", &name)
                .str_field("error", why),
        );
    }

    fn queue_frame(&mut self, idx: usize, frame: &Frame) {
        let c = &mut self.conns[idx];
        if c.alive {
            c.outbuf.extend_from_slice(&encode_frame(frame));
        }
    }

    fn broadcast(&mut self, frame: &Frame) {
        let bytes = encode_frame(frame);
        for c in self.conns.iter_mut().filter(|c| c.alive && c.hello) {
            c.outbuf.extend_from_slice(&bytes);
        }
    }

    fn alive_workers(&self) -> usize {
        self.conns.iter().filter(|c| c.alive && c.hello).count()
    }

    /// Lowest-index alive worker — the deterministic re-lease target.
    fn relend_target(&self) -> Option<usize> {
        self.conns.iter().position(|c| c.alive && c.hello)
    }

    /// Blocks (politely) until `expect_workers` workers said Hello.
    pub fn wait_for_workers(&mut self) -> Result<(), FabricError> {
        let deadline =
            Instant::now() + std::time::Duration::from_millis(self.opts.hello_timeout_ms);
        while self.alive_workers() < self.opts.expect_workers {
            let events = self.pump()?;
            if events.is_empty() {
                if Instant::now() > deadline {
                    return Err(FabricError::FleetAssembly(
                        self.alive_workers(),
                        self.opts.expect_workers,
                    ));
                }
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
        self.assembled = true;
        Ok(())
    }

    /// Sends Shutdown to every worker, flushes the queues, drops the
    /// connections (so even a worker that never finished its Hello
    /// sees EOF and exits), and closes the listener — a worker mid-
    /// rejoin gets a connection refusal and gives up fast instead of
    /// parking in a dead accept backlog.
    pub fn shutdown(&mut self) {
        self.broadcast(&Frame::Shutdown);
        self.drain_writes();
        self.conns.clear();
        self.listener = None;
    }

    fn drain_writes(&mut self) {
        while self.conns.iter().any(|c| c.alive && !c.outbuf.is_empty()) {
            if self.pump().is_err() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }

    /// Runs one whole campaign over the connected fleet and returns the
    /// finished [`Campaign`] (resumed from the final boundary snapshot,
    /// so its report is byte-identical to `--workers 1` by
    /// construction).
    ///
    /// With `resume`, the campaign continues from that boundary snapshot
    /// under the snapshot's own configuration, exactly as
    /// [`Campaign::resume`] would (raise `snap.config.epochs` to extend
    /// it); `cfg` describes fresh campaigns only.
    pub fn run_campaign_fleet(
        &mut self,
        bin: &Binary,
        seeds: &[Vec<u8>],
        cfg: &CampaignConfig,
        resume: Option<&CampaignSnapshot>,
    ) -> Result<Campaign, FabricError> {
        let (cfg, mut clock, mut boundary) = match resume {
            Some(snap) => {
                let clock = EpochClock::resume(snap, bin)?;
                self.decode_stats = snap.decode_stats;
                (&snap.config, clock, snap.shard_states.clone())
            }
            None => {
                cfg.validate()?;
                let empty = vec![StateSnapshot::empty(); cfg.shards as usize];
                (cfg, EpochClock::default(), empty)
            }
        };
        let fp = fingerprint(bin);
        let tof = bin.to_bytes();
        let n = boundary.len();
        for c in self.conns.iter_mut() {
            c.shards.clear();
        }
        let mut leased = false;

        while clock.epochs_done() < cfg.epochs {
            let plan = clock.plan(cfg, boundary.iter().map(boundary_features).collect());
            let epoch = plan.epoch;
            let ctx = EpochCtx {
                cfg,
                tof: &tof,
                fp,
                seeds,
                plan: &plan,
                boundary: &boundary,
            };
            if !leased {
                self.lease_initial(&ctx)?;
                leased = true;
            } else {
                self.broadcast(&Frame::Proceed {
                    epoch,
                    budgets: plan.budgets.clone(),
                });
            }

            // Phase 0: fuzzing deltas, one per shard.
            let phase0 = self.collect_phase(&ctx, 0, None, None)?;

            // Barrier: fresh-input lists in shard-index order, computed
            // from the phase-0 deltas (== each shard's fresh_inputs()).
            let fresh: Vec<Vec<Vec<u8>>> =
                (0..n).map(|i| fresh_inputs(&phase0[&(i as u32)])).collect();
            let barrier = Frame::Barrier {
                epoch,
                minimize: cfg.corpus_minimize,
                fresh,
            };
            self.broadcast(&barrier);

            // Phase 1: import/minimize deltas, one per shard.
            let phase1 = self.collect_phase(&ctx, 1, Some(&phase0), Some(&barrier))?;

            // Merge in shard-index order.
            let watch = Stopwatch::new();
            let mut epoch_bytes = 0u64;
            for i in 0..n {
                let d0 = &phase0[&(i as u32)];
                let d1 = &phase1[&(i as u32)];
                epoch_bytes += d0.payload_bytes() as u64 + d1.payload_bytes() as u64;
                boundary[i].apply_delta(d0);
                boundary[i].apply_delta(d1);
            }
            let merge_ms = watch.ms();
            self.stats.merge_ms += merge_ms;
            self.stats.delta_bytes += epoch_bytes;
            self.stats.deltas += 2 * n as u64;
            self.stats.epochs += 1;
            self.emit(
                Event::new("fabric")
                    .str_field("op", "merge")
                    .num("epoch", epoch as u64)
                    .num("deltas", 2 * n as u64)
                    .num("bytes", epoch_bytes)
                    .num("wall_ms", merge_ms),
            );

            if let Some(path) = self.opts.checkpoint.clone() {
                let snap = clock.snapshot(cfg, fp, self.decode_stats, boundary.clone());
                self.checkpoint(&path, &snap)?;
            }
        }

        self.broadcast(&Frame::Complete);
        self.drain_writes();
        let snap = clock.snapshot(cfg, fp, self.decode_stats, boundary);
        Ok(Campaign::resume(&snap, bin)?)
    }

    /// Writes the epoch-boundary checkpoint, unless the chaos schedule
    /// injects a crash into this write: a failed write leaves nothing, a
    /// torn one leaves a partial temp file that is never renamed into
    /// place. Either way the previous epoch's checkpoint survives under
    /// the real name and the campaign carries on.
    fn checkpoint(&mut self, path: &Path, snap: &CampaignSnapshot) -> Result<(), FabricError> {
        let epoch = snap.epochs_done as u64;
        let Some(fault) = self.opts.checkpoint_faults.get(&snap.epochs_done).copied() else {
            snap.save(path)?;
            self.emit(
                Event::new("fabric")
                    .str_field("op", "checkpoint")
                    .num("epoch", epoch),
            );
            return Ok(());
        };
        let bytes = snap.to_bytes();
        let (keep, kind) = match fault {
            CheckpointFault::Fail => (0, "fail"),
            CheckpointFault::Short => (bytes.len() / 2, "short"),
        };
        if keep > 0 {
            let mut tmp = path.as_os_str().to_os_string();
            tmp.push(".tmp");
            std::fs::write(tmp, &bytes[..keep])?;
        }
        self.stats.checkpoint_faults += 1;
        self.emit(
            Event::new("fabric")
                .str_field("op", "checkpoint_fault")
                .str_field("kind", kind)
                .num("epoch", epoch),
        );
        Ok(())
    }

    /// Partitions the shards over the assembled fleet and sends the
    /// initial phase-0 leases.
    fn lease_initial(&mut self, ctx: &EpochCtx<'_>) -> Result<(), FabricError> {
        let workers: Vec<usize> = self
            .conns
            .iter()
            .enumerate()
            .filter(|(_, c)| c.alive && c.hello)
            .map(|(i, _)| i)
            .collect();
        if workers.is_empty() {
            return Err(FabricError::FleetAssembly(0, self.opts.expect_workers));
        }
        let ranges = partition(ctx.boundary.len(), workers.len());
        for (w, range) in workers.iter().zip(&ranges) {
            let shards: Vec<u32> = range.clone().map(|i| i as u32).collect();
            self.send_lease(ctx, *w, &shards, None, 0);
        }
        Ok(())
    }

    /// Builds and queues a lease for `shards` on worker `w`. For phase
    /// 1 the shipped states are boundary + this epoch's phase-0 delta
    /// (`phase0`, passed only for phase 1).
    fn send_lease(
        &mut self,
        ctx: &EpochCtx<'_>,
        w: usize,
        shards: &[u32],
        phase0: Option<&BTreeMap<u32, ShardDelta>>,
        phase: u8,
    ) {
        let plan = ctx.plan;
        let leased: Vec<LeasedShard> = shards
            .iter()
            .map(|&i| {
                let mut state = ctx.boundary[i as usize].clone();
                if let Some(p0) = phase0 {
                    state.apply_delta(&p0[&i]);
                }
                LeasedShard {
                    shard: i,
                    budget: plan.budgets[i as usize],
                    state,
                }
            })
            .collect();
        let frame = Frame::Lease(Lease {
            fingerprint: ctx.fp,
            start_epoch: plan.epoch,
            phase,
            // Seeding belongs to fuzzing; a phase-1 lease never seeds.
            seed_first: phase == 0 && plan.seed_first,
            config: ctx.cfg.clone(),
            binary: ctx.tof.to_vec(),
            seeds: ctx.seeds.to_vec(),
            shards: leased,
        });
        let bytes = encode_frame(&frame);
        self.stats.leases += 1;
        self.emit(
            Event::new("fabric")
                .str_field("op", "lease")
                .num("worker", w as u64)
                .num("shards", shards.len() as u64)
                .num("epoch", plan.epoch as u64)
                .num("phase", phase as u64)
                .num("bytes", bytes.len() as u64),
        );
        let c = &mut self.conns[w];
        c.shards.extend_from_slice(shards);
        if c.alive {
            c.outbuf.extend_from_slice(&bytes);
        }
    }

    /// Collects one delta per shard for `(epoch, phase)`, detecting
    /// worker deaths (EOF or lease timeout) and re-leasing their
    /// outstanding shards from the boundary. Duplicate deltas — which a
    /// re-lease race can only produce as byte-identical copies, results
    /// being pure functions of boundary state — are dropped
    /// first-arrival-wins.
    fn collect_phase(
        &mut self,
        ctx: &EpochCtx<'_>,
        phase: u8,
        phase0: Option<&BTreeMap<u32, ShardDelta>>,
        barrier: Option<&Frame>,
    ) -> Result<BTreeMap<u32, ShardDelta>, FabricError> {
        let n = ctx.boundary.len();
        let mut got: BTreeMap<u32, ShardDelta> = BTreeMap::new();
        let mut starved_since: Option<Instant> = None;
        while got.len() < n {
            let events = self.pump()?;
            let progressed = !events.is_empty();
            for (idx, frame) in events {
                match frame {
                    Frame::Hello { .. } => {}
                    Frame::Decode(d) => self.decode_stats = d,
                    Frame::Delta(d) => {
                        if d.epoch == ctx.plan.epoch
                            && d.phase == phase
                            && !got.contains_key(&d.shard)
                        {
                            got.insert(d.shard, d);
                        }
                    }
                    _ => {
                        // A confused peer condemns its connection, never
                        // the campaign: quarantine it and let the orphan
                        // sweep below re-lease whatever it held.
                        self.quarantine(idx, "unexpected frame at coordinator");
                    }
                }
            }

            // Liveness: a worker that owes deltas and has been silent
            // past the lease timeout is dead even without an EOF. The
            // socket is shut down too, so a *hung* (rather than dead)
            // worker unblocks into its rejoin path the moment it wakes.
            let timeout = std::time::Duration::from_millis(self.opts.lease_timeout_ms);
            for c in self.conns.iter_mut() {
                if c.alive
                    && c.hello
                    && c.shards.iter().any(|s| !got.contains_key(s))
                    && c.last_heard.elapsed() > timeout
                {
                    c.alive = false;
                    c.stream.shutdown(std::net::Shutdown::Both).ok();
                }
            }

            // Re-lease: shards still outstanding whose owner died.
            let orphaned: Vec<u32> = (0..n as u32)
                .filter(|i| !got.contains_key(i))
                .filter(|i| !self.conns.iter().any(|c| c.alive && c.shards.contains(i)))
                .collect();
            if !orphaned.is_empty() {
                let newly_dead: Vec<String> = self
                    .conns
                    .iter_mut()
                    .filter(|c| !c.alive && !c.shards.is_empty())
                    .map(|c| {
                        c.shards.clear();
                        c.name.clone()
                    })
                    .collect();
                for name in newly_dead {
                    self.stats.worker_deaths += 1;
                    self.emit(
                        Event::new("fabric")
                            .str_field("op", "worker_dead")
                            .str_field("worker", &name)
                            .num("epoch", ctx.plan.epoch as u64),
                    );
                }
                match self.relend_target() {
                    Some(w) => {
                        self.stats.releases += 1;
                        self.send_lease(ctx, w, &orphaned, phase0, phase);
                        // A phase-1 re-lease needs this epoch's barrier
                        // re-sent; the new shards are the only ones on
                        // that worker still flagged for imports.
                        if let Some(b) = barrier {
                            let b = b.clone();
                            self.queue_frame(w, &b);
                        }
                    }
                    None => {
                        // No workers left: wait for a fresh connection
                        // (pump accepts continuously) up to the
                        // assembly timeout.
                        let since = *starved_since.get_or_insert_with(Instant::now);
                        if since.elapsed()
                            > std::time::Duration::from_millis(self.opts.hello_timeout_ms)
                        {
                            return Err(FabricError::FleetAssembly(0, 1));
                        }
                    }
                }
            } else {
                starved_since = None;
            }

            if !progressed && got.len() < n {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
        Ok(got)
    }
}

/// What a lease of this epoch carries: the campaign, its plan, and the
/// boundary states shards are leased from.
struct EpochCtx<'a> {
    cfg: &'a CampaignConfig,
    tof: &'a [u8],
    fp: u64,
    seeds: &'a [Vec<u8>],
    plan: &'a EpochPlan,
    boundary: &'a [StateSnapshot],
}

/// What `fresh_inputs()` returns on the live shard after phase 0: the
/// trailing `fresh_count` corpus entries (fresh inputs are always
/// appended after the epoch's `fresh_start` mark, so they sit at the
/// tail of the delta's append — or of the replacement corpus).
fn fresh_inputs(d: &ShardDelta) -> Vec<Vec<u8>> {
    let corpus: &[(Vec<u8>, u64)] = match &d.corpus_replaced {
        Some(full) => full,
        None => &d.corpus_append,
    };
    let k = (d.fresh_count as usize).min(corpus.len());
    corpus[corpus.len() - k..]
        .iter()
        .map(|(input, _)| input.clone())
        .collect()
}

//! Allocation audit of the streaming hot path.
//!
//! A counting global allocator wraps the system allocator; after a
//! short warm-up (which grows every pooled buffer to its steady-state
//! size: event scratch, comms byte buffers, reconstruction decode
//! buffers, pre-sized trace recorders) the remainder of a run must
//! perform **zero** heap allocations — the property the perf issue
//! calls "no per-event heap allocation in `FusionSession::step`
//! steady state".
//!
//! Allocations are counted per audit, not per process: each test
//! enrolls its own thread (and, for the multi-worker fleet, the
//! threads of a pool it owns) into a counter of its own. The test
//! harness runs tests on parallel threads and allocates on its own
//! main thread; neither lands in an audit that did not enroll them.

use sensor_fusion_fpga::fusion::arith::F64Arith;
use sensor_fusion_fpga::fusion::catalog;
use sensor_fusion_fpga::fusion::exec::Pool;
use sensor_fusion_fpga::fusion::fleet::{Fleet, FleetConfig};
use sensor_fusion_fpga::fusion::spec::ChannelSpec;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// The system allocator with an allocation-event counter in front.
struct CountingAllocator;

thread_local! {
    /// The audit counter this thread's allocations are charged to, if
    /// any. Const-initialized and drop-free, so reading it from inside
    /// the allocator never allocates.
    static AUDIT: Cell<Option<&'static AtomicU64>> = const { Cell::new(None) };
}

/// Charges one allocation event to the calling thread's audit.
fn record_allocation() {
    if let Some(counter) = AUDIT.get() {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record_allocation();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record_allocation();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record_allocation();
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static COUNTING: CountingAllocator = CountingAllocator;

/// One test's allocation counter and the threads enrolled in it.
#[derive(Clone, Copy)]
struct Audit(&'static AtomicU64);

impl Audit {
    /// A fresh counter with the calling thread enrolled.
    fn start() -> Self {
        let audit = Audit(Box::leak(Box::new(AtomicU64::new(0))));
        audit.enroll();
        audit
    }

    /// Charges the calling thread's allocations to this audit from now
    /// on.
    fn enroll(self) {
        AUDIT.set(Some(self.0));
    }

    /// Allocation events of the enrolled threads so far.
    fn allocations(self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// The synthetic-source path (the suite's default): after 2 s of
/// warm-up, a further 25 s of streaming — 5000 ACC samples through the
/// full 5-state IEKF with trace recording on — allocates nothing.
#[test]
fn synthetic_session_steady_state_allocates_nothing() {
    let audit = Audit::start();
    let spec = catalog::paper_static().with_duration(30.0);
    let mut session = spec.into_session(spec.lower_trajectory());
    session.run_for(2.0);
    let before = audit.allocations();
    session.run_for(25.0);
    let after = audit.allocations();
    assert_eq!(
        after - before,
        0,
        "synthetic hot path allocated {} times in steady state",
        after - before
    );
    assert!(session.stats().updates > 4_000, "the run actually streamed");
}

/// The full comms-chain path — CAN encode, bridge framing, two UARTs
/// at line rate, reconstruction — also runs allocation-free once its
/// pooled byte buffers have reached line size.
#[test]
fn comms_chain_steady_state_allocates_nothing() {
    let audit = Audit::start();
    let spec = catalog::paper_static()
        .with_duration(30.0)
        .with_channel(ChannelSpec::comms());
    let mut session = spec.into_session(spec.lower_trajectory());
    session.run_for(3.0);
    let before = audit.allocations();
    session.run_for(25.0);
    let after = audit.allocations();
    assert_eq!(
        after - before,
        0,
        "comms-chain hot path allocated {} times in steady state",
        after - before
    );
    let stream = session.stream_stats().expect("comms chain has stats");
    assert!(stream.acc_samples > 4_000, "the chain actually streamed");
}

/// The fleet arena at scale: once a 1000-vehicle fleet is warmed up
/// (slots admitted, lane groups built, ingress scratch grown to burst
/// size), a steady-state epoch — poll, dispatch, lane-group predict +
/// masked update for every resident vehicle — performs **zero** heap
/// allocations on the inline (workers = 1) scheduling path.
#[test]
fn fleet_epoch_steady_state_allocates_nothing() {
    let audit = Audit::start();
    let mut fleet: Fleet<F64Arith, 8> = Fleet::new(FleetConfig::default());
    for i in 0..1_000u64 {
        let spec = catalog::paper_static()
            .with_duration(3_600.0)
            .with_seed(40_000 + i);
        fleet.admit(&spec).expect("catalog tuning is compatible");
    }
    fleet.run_epochs(5, 1);
    let before = audit.allocations();
    fleet.run_epochs(50, 1);
    let after = audit.allocations();
    assert_eq!(
        after - before,
        0,
        "fleet epoch loop allocated {} times in steady state",
        after - before
    );
    let stats = fleet.stats();
    assert_eq!(stats.vehicles, 1_000, "nobody was evicted mid-audit");
    assert!(stats.updates > 40_000, "the fleet actually streamed");
}

/// The persistent executor keeps the fleet's zero-allocation property
/// at **multi-worker** counts: every thread of a test-owned
/// `exec::Pool` is enrolled in the audit, the warm-up grows the
/// fleet's lap scratch and profiler ring, after which a steady-state
/// epoch — claim CAS per shard, parked-thread
/// wake, fused ingest/compute task, barrier, profile sample — performs
/// zero heap allocations on any thread.
#[test]
fn multi_worker_fleet_epoch_steady_state_allocates_nothing() {
    let audit = Audit::start();
    let mut fleet: Fleet<F64Arith, 8> = Fleet::new(FleetConfig::default());
    for i in 0..1_000u64 {
        let spec = catalog::paper_static()
            .with_duration(3_600.0)
            .with_seed(60_000 + i);
        fleet.admit(&spec).expect("catalog tuning is compatible");
    }
    let pool = Pool::new(4);
    pool.run_epoch(|_| audit.enroll());
    fleet.run_epochs_on(5, &pool);
    let before = audit.allocations();
    fleet.run_epochs_on(50, &pool);
    let after = audit.allocations();
    assert_eq!(
        after - before,
        0,
        "multi-worker fleet epoch loop allocated {} times in steady state",
        after - before
    );
    let stats = fleet.stats();
    assert_eq!(stats.vehicles, 1_000, "nobody was evicted mid-audit");
    assert!(stats.updates > 40_000, "the fleet actually streamed");
}

/// The adaptive supervisor between switches: the context monitor is
/// plain counters and the policy verdict is a stack value, so once
/// the hysteresis supervisor has escaped the collapsing Q16.16
/// substrate (q16's gated-out windows force the upshift inside the
/// warm-up, before the measurement window opens) a further 25 s of
/// streaming — context folding, per-window policy consultations and
/// vetoed admission checks included — allocates nothing.
#[test]
fn adaptive_session_steady_state_allocates_nothing() {
    use sensor_fusion_fpga::fusion::adaptive::{AdaptiveBackend, HysteresisPolicy, SubstrateId};

    let audit = Audit::start();
    let spec = catalog::paper_static().with_duration(30.0);
    let mut session = spec.into_adaptive_session(
        spec.lower_trajectory(),
        SubstrateId::Q16_16,
        Box::new(HysteresisPolicy::default()),
    );
    session.run_for(3.0);
    let before = audit.allocations();
    session.run_for(25.0);
    let after = audit.allocations();
    assert_eq!(
        after - before,
        0,
        "adaptive hot path allocated {} times in steady state",
        after - before
    );
    let backend = session
        .backend_as::<AdaptiveBackend>()
        .expect("adaptive backend");
    assert_eq!(backend.switch_count(), 1, "the warm-up escape happened");
    assert_eq!(backend.active_substrate(), SubstrateId::Softfloat);
    assert!(
        backend.vetoed_switches() >= 1,
        "the admission check ran inside the measurement window"
    );
    assert!(session.stats().events > 4_000, "the run actually streamed");
}

/// The `Q<FRAC>` fixed-point substrates are plain `i32` value types —
/// a full-filter streaming loop over them (gate rejections, saturation
/// counting and all) must stay allocation-free after the session's
/// pooled buffers reach steady state.
#[test]
fn q_format_filter_loop_steady_state_allocates_nothing() {
    use sensor_fusion_fpga::fusion::arith::QArith;
    use sensor_fusion_fpga::fusion::session::FusionSession;

    let audit = Audit::start();
    let spec = catalog::paper_static().with_duration(30.0);
    let cfg = spec.config();
    let mut session =
        FusionSession::iekf_from_scenario(spec.lower_trajectory(), &cfg, QArith::<24>::default());
    session.run_for(2.0);
    let before = audit.allocations();
    session.run_for(25.0);
    let after = audit.allocations();
    assert_eq!(
        after - before,
        0,
        "Q8.24 hot path allocated {} times in steady state",
        after - before
    );
    assert!(session.stats().events > 4_000, "the run actually streamed");
}

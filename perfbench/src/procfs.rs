//! Process accounting and placement without a dependency: peak resident
//! memory from `/proc`, CPU time from the kernel's CPU-time clocks, and
//! processor rotation through the kernel's affinity calls.
//!
//! CPU time is what the benchmark's gated time metrics are made of. On a
//! virtual machine whose host lends its processors to other guests, a
//! thread waits for the host as well as for the program; that wait is
//! accounted as steal time, not as the thread's CPU time, and neither are
//! the other processes of the machine. CPU time still moves with how fast
//! the host runs the thread, which on a shared host drifts by a quarter
//! between windows of a few seconds; a run's median over many units of
//! work, or one long unit, averages that drift.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

/// `struct timespec` of 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID`: every thread of the process, ended ones too.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
/// `CLOCK_THREAD_CPUTIME_ID`: the calling thread.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn clock_seconds(clock: i32) -> f64 {
    let mut time = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `time` is a valid, writable `struct timespec` and both clock
    // ids exist on every Linux this runs on.
    let status = unsafe { clock_gettime(clock, &mut time) };
    assert_eq!(status, 0, "clock_gettime({clock}) failed");
    time.tv_sec as f64 + time.tv_nsec as f64 * 1e-9
}

/// User plus system CPU time consumed so far by every thread of this
/// process, in seconds.
pub fn cpu_seconds() -> f64 {
    clock_seconds(CLOCK_PROCESS_CPUTIME_ID)
}

/// User plus system CPU time consumed so far by the calling thread, in
/// seconds.
pub fn thread_cpu_seconds() -> f64 {
    clock_seconds(CLOCK_THREAD_CPUTIME_ID)
}

extern "C" {
    fn gettid() -> i32;
    fn sched_getaffinity(tid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(tid: i32, size: usize, mask: *const u64) -> i32;
}

/// The processors thread `tid` may run on (bit `i` = processor `i`), if
/// they fit in 64 bits.
fn affinity(tid: i32) -> Option<u64> {
    let mut mask = 0u64;
    // SAFETY: `mask` is a valid, writable 8-byte CPU set.
    let status = unsafe { sched_getaffinity(tid, std::mem::size_of::<u64>(), &mut mask) };
    (status >= 0 && mask != 0).then_some(mask)
}

/// Pins thread `tid` to the processors in `mask`.
fn set_affinity(tid: i32, mask: u64) -> bool {
    // SAFETY: `mask` is a valid 8-byte CPU set for the duration of the call.
    unsafe { sched_setaffinity(tid, std::mem::size_of::<u64>(), &mask) == 0 }
}

/// How long the rotated thread stays on one processor.
const ROTATION_PERIOD: Duration = Duration::from_millis(250);

/// Moves the calling thread from processor to processor, each
/// [`ROTATION_PERIOD`], until dropped, then gives it back the processors
/// it had.
///
/// A serial engine call left to the scheduler stays on one processor, and
/// on a shared host the two processors of this machine have differed in
/// speed by a third for minutes at a time, so which one it got decided its
/// time. Rotated, its time is the average over all of them. Threads the
/// rotated thread starts inherit its pin, so only rotate a thread that
/// starts none.
pub struct Rotation {
    stop: Arc<AtomicBool>,
    rotor: Option<(JoinHandle<()>, i32, u64)>,
}

impl Rotation {
    /// Starts rotating the calling thread over the processors it may use.
    pub fn start() -> Rotation {
        // SAFETY: `gettid` has no preconditions.
        let tid = unsafe { gettid() };
        let stop = Arc::new(AtomicBool::new(false));
        let rotor = affinity(tid)
            .filter(|mask| mask.count_ones() > 1)
            .map(|mask| {
                let flag = stop.clone();
                let processors: Vec<u32> = (0..64).filter(|i| mask >> i & 1 == 1).collect();
                let rotor = std::thread::spawn(move || {
                    for processor in processors.iter().cycle() {
                        if flag.load(Ordering::Relaxed) || !set_affinity(tid, 1 << processor) {
                            return;
                        }
                        std::thread::sleep(ROTATION_PERIOD);
                    }
                });
                (rotor, tid, mask)
            });
        Rotation { stop, rotor }
    }
}

impl Drop for Rotation {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some((rotor, tid, mask)) = self.rotor.take() {
            let _ = rotor.join();
            set_affinity(tid, mask);
        }
    }
}

//! The traced run: a recording progress sink, and the run phases its
//! frames delimit.
//!
//! The sink only stamps each frame with the wall time since the call
//! into the runner; the runner proves a run with a sink byte-identical
//! to one without. Frames mark coarse boundaries only:
//!
//! * the sequential engine emits a `Chunk` after each 500 ms slice of
//!   virtual time, so its first slice falls into `startup`;
//! * the sharded engine emits a `Window` as it plans each window, so
//!   `startup` ends before the first event;
//! * the runner emits `Summary` after `collect`, which seals and merges
//!   the traffic tallies and drops the engine.

use egm_simnet::{ProgressEvent, ProgressSink};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A sink that keeps every frame with its wall-clock offset.
#[derive(Debug)]
pub struct Recorder {
    start: Instant,
    frames: Mutex<Vec<(Duration, ProgressEvent)>>,
}

impl Recorder {
    /// A recorder whose clock starts now.
    pub fn start() -> Recorder {
        Recorder {
            start: Instant::now(),
            frames: Mutex::new(Vec::new()),
        }
    }

    /// The frames recorded so far, in emission order.
    pub fn frames(&self) -> Vec<(Duration, ProgressEvent)> {
        self.frames
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .clone()
    }
}

impl ProgressSink for Recorder {
    fn emit(&self, event: ProgressEvent) {
        let at = self.start.elapsed();
        self.frames
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .push((at, event));
    }
}

/// Wall time of one observed run, split at its progress frames.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Phases {
    /// Call → first frame.
    pub startup_s: f64,
    /// First frame → the frame where virtual time crosses the warm-up.
    pub warmup_loop_s: f64,
    /// Warm-up crossing → last chunk or window frame.
    pub traffic_loop_s: f64,
    /// Last chunk or window frame → `Summary`.
    pub teardown_s: f64,
    /// Wall time between consecutive window frames, ms (sharded engine
    /// only; empty otherwise).
    pub windows_ms: Vec<f64>,
}

impl Phases {
    /// Splits `frames` of a run whose warm-up ends at `warmup_ms`.
    ///
    /// # Panics
    ///
    /// Panics if the frames hold no chunk or window frame, or no
    /// `Summary`: the runner emits both on every observed run.
    pub fn split(frames: &[(Duration, ProgressEvent)], warmup_ms: f64) -> Phases {
        let loop_frames: Vec<(f64, &ProgressEvent)> = frames
            .iter()
            .filter(|(_, e)| {
                matches!(
                    e,
                    ProgressEvent::Chunk { .. } | ProgressEvent::Window { .. }
                )
            })
            .map(|(t, e)| (t.as_secs_f64(), e))
            .collect();
        let summary = frames
            .iter()
            .find(|(_, e)| matches!(e, ProgressEvent::Summary { .. }))
            .expect("an observed run ends with a Summary frame")
            .0
            .as_secs_f64();
        let first = frames.first().expect("frames").0.as_secs_f64();
        let loop_start = loop_frames.first().expect("a chunk or window frame").0;
        let loop_end = loop_frames.last().expect("a chunk or window frame").0;
        // A chunk frame closes the slice ending at `now_ms`; a window
        // frame opens the window starting at `now_us`. Either way the
        // crossing is the last frame at or before the warm-up boundary
        // on the chunk clock, the first frame at or after it on the
        // window clock.
        let crossing = loop_frames
            .iter()
            .rev()
            .find(|(_, e)| matches!(e, ProgressEvent::Chunk { now_ms, .. } if *now_ms <= warmup_ms))
            .or_else(|| {
                loop_frames.iter().find(|(_, e)| {
                    matches!(e, ProgressEvent::Window { now_us, .. }
                        if *now_us as f64 >= warmup_ms * 1000.0)
                })
            })
            .map_or(loop_start, |&(t, _)| t);
        let window_times: Vec<f64> = loop_frames
            .iter()
            .filter(|(_, e)| matches!(e, ProgressEvent::Window { .. }))
            .map(|&(t, _)| t)
            .collect();
        Phases {
            startup_s: first,
            warmup_loop_s: crossing - loop_start,
            traffic_loop_s: loop_end - crossing,
            teardown_s: summary - loop_end,
            windows_ms: window_times
                .windows(2)
                .map(|w| (w[1] - w[0]) * 1000.0)
                .collect(),
        }
    }

    /// Adds another run's phases (the sweep reports phase sums).
    pub fn add(&mut self, other: Phases) {
        self.startup_s += other.startup_s;
        self.warmup_loop_s += other.warmup_loop_s;
        self.traffic_loop_s += other.traffic_loop_s;
        self.teardown_s += other.teardown_s;
        self.windows_ms.extend(other.windows_ms);
    }
}

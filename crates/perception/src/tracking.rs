//! Target tracking kernel (KCF substitute).
//!
//! Aerial Photography pairs its detector with a correlation-filter tracker so
//! that the expensive detector can run at a low rate while the tracker keeps
//! the subject's position estimate fresh between detections. Here the tracker
//! is an alpha–beta filter over the detected position with lost-track
//! handling, which preserves the latency/accuracy interplay the workload
//! exercises.

use crate::detection::Detection;
use mav_types::{Aabb, PointGrid, SimDuration, Vec3};
use std::fmt;

/// State of the tracked target.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrackState {
    /// Estimated world-frame position of the target.
    pub position: Vec3,
    /// Estimated world-frame velocity of the target.
    pub velocity: Vec3,
    /// Number of consecutive updates without a detection.
    pub frames_since_detection: u32,
}

/// Position blend factor for new detections (alpha).
const ALPHA: f64 = 0.6;
/// Velocity blend factor (beta).
const BETA: f64 = 0.3;
/// After more consecutive missed frames than this the track is dropped.
const MAX_MISSED_FRAMES: u32 = 15;
/// A detection farther than this from every predicted track position, in
/// metres, spawns a new track of the [`MultiTargetTracker`] instead of
/// updating one.
const GATE_RADIUS: f64 = 4.0;

impl TrackState {
    /// Returns `true` while the track is considered reliable: it has missed
    /// at most 15 consecutive frames.
    pub fn is_live(&self) -> bool {
        self.frames_since_detection <= MAX_MISSED_FRAMES
    }
}

/// The alpha–beta target tracker.
///
/// # Example
///
/// ```
/// use mav_perception::TargetTracker;
/// use mav_types::{SimDuration, Vec3};
///
/// let mut tracker = TargetTracker::default();
/// // Coast with no detections: no track yet.
/// assert!(tracker.predict(SimDuration::from_millis(100.0)).is_none());
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TargetTracker {
    state: Option<TrackState>,
}

impl TargetTracker {
    /// The current track, if one is live.
    pub fn track(&self) -> Option<&TrackState> {
        self.state.as_ref()
    }

    /// Returns `true` when a live track exists.
    pub fn has_track(&self) -> bool {
        self.state.as_ref().is_some_and(TrackState::is_live)
    }

    /// Integrates a detector result. `None` means the detector ran but found
    /// nothing this frame.
    pub fn update(&mut self, detection: Option<&Detection>, dt: SimDuration) -> Option<TrackState> {
        match (self.state.as_mut(), detection) {
            (None, None) => {}
            (None, Some(d)) => {
                self.state = Some(TrackState {
                    position: d.position,
                    velocity: Vec3::ZERO,
                    frames_since_detection: 0,
                });
            }
            (Some(s), Some(d)) => {
                let dt_s = dt.as_secs().max(1e-3);
                let predicted = s.position + s.velocity * dt_s;
                let residual = d.position - predicted;
                s.position = predicted + residual * ALPHA;
                s.velocity += residual * (BETA / dt_s);
                s.frames_since_detection = 0;
            }
            (Some(s), None) => {
                // Coast on the constant-velocity model.
                let dt_s = dt.as_secs().max(1e-3);
                s.position += s.velocity * dt_s;
                s.frames_since_detection += 1;
                if !s.is_live() {
                    self.state = None;
                }
            }
        }
        self.state
    }

    /// Coasts the track forward without consuming a detection (used when the
    /// tracker runs at a higher rate than the detector).
    pub fn predict(&mut self, dt: SimDuration) -> Option<TrackState> {
        self.update(None, dt)
    }

    /// Drops the current track.
    pub fn reset(&mut self) {
        self.state = None;
    }
}

/// Multiple [`TrackState`]s maintained over frames of detections: each frame
/// the tracks are coasted forward, detections are associated to the nearest
/// unclaimed predicted position within 4 m, matched tracks take an
/// alpha–beta update, unmatched detections spawn new tracks, and stale tracks
/// are dropped.
///
/// Association goes through the [`PointGrid`] radius index, so a frame of
/// `m` detections against `n` tracks costs near O(n + m) instead of the
/// O(n·m) all-pairs scan. The index is exact (candidates are a superset,
/// re-tested with the scan's own distance predicate and tie-break), so the
/// assignment is identical to the reference linear scan — pinned by
/// `association_matches_reference`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MultiTargetTracker {
    tracks: Vec<TrackState>,
}

impl MultiTargetTracker {
    /// The live tracks, oldest first.
    pub fn tracks(&self) -> &[TrackState] {
        &self.tracks
    }

    /// Number of live tracks.
    pub fn track_count(&self) -> usize {
        self.tracks.len()
    }

    /// Integrates one frame of detections. Returns the number of detections
    /// that updated an existing track (the rest spawned new ones).
    pub fn update(&mut self, detections: &[Detection], dt: SimDuration) -> usize {
        let dt_s = dt.as_secs().max(1e-3);
        let predicted: Vec<Vec3> = self
            .tracks
            .iter()
            .map(|s| s.position + s.velocity * dt_s)
            .collect();
        let assigned = Self::associate(&predicted, detections, GATE_RADIUS);
        let mut matched_with: Vec<Option<&Detection>> = vec![None; self.tracks.len()];
        let mut matched = 0usize;
        for (j, d) in detections.iter().enumerate() {
            if let Some(i) = assigned[j] {
                matched_with[i] = Some(d);
                matched += 1;
            }
        }
        for (i, s) in self.tracks.iter_mut().enumerate() {
            match matched_with[i] {
                Some(d) => {
                    let residual = d.position - predicted[i];
                    s.position = predicted[i] + residual * ALPHA;
                    s.velocity += residual * (BETA / dt_s);
                    s.frames_since_detection = 0;
                }
                None => {
                    s.position = predicted[i];
                    s.frames_since_detection += 1;
                }
            }
        }
        self.tracks.retain(TrackState::is_live);
        for (j, d) in detections.iter().enumerate() {
            if assigned[j].is_none() {
                self.tracks.push(TrackState {
                    position: d.position,
                    velocity: Vec3::ZERO,
                    frames_since_detection: 0,
                });
            }
        }
        matched
    }

    /// Coasts every track forward one detector-less frame.
    pub fn predict(&mut self, dt: SimDuration) {
        self.update(&[], dt);
    }

    /// Drops every track.
    pub fn reset(&mut self) {
        self.tracks.clear();
    }

    /// Greedy gated nearest-neighbour assignment through the radius index:
    /// detections claim tracks in detection order; each takes the unclaimed
    /// track with the smallest predicted distance within `gate` (ties towards
    /// the smaller track index). Returns the claimed track per detection.
    fn associate(predicted: &[Vec3], detections: &[Detection], gate: f64) -> Vec<Option<usize>> {
        let mut assigned = vec![None; detections.len()];
        if predicted.is_empty() || detections.is_empty() {
            return assigned;
        }
        let mut bounds = Aabb::new(predicted[0], predicted[0]);
        for p in predicted {
            bounds = bounds.union(&Aabb::new(*p, *p));
        }
        let mut grid = PointGrid::new(&bounds, gate.max(1e-6));
        for p in predicted {
            grid.insert(*p);
        }
        let mut claimed = vec![false; predicted.len()];
        let mut candidates: Vec<u32> = Vec::new();
        for (j, d) in detections.iter().enumerate() {
            candidates.clear();
            grid.candidates_within(&d.position, gate, &mut candidates);
            let mut best: Option<(f64, usize)> = None;
            for &c in &candidates {
                let i = c as usize;
                if claimed[i] {
                    continue;
                }
                let dist = predicted[i].distance(&d.position);
                if dist > gate {
                    continue;
                }
                let better = match best {
                    None => true,
                    Some((bd, bi)) => dist < bd || (dist == bd && i < bi),
                };
                if better {
                    best = Some((dist, i));
                }
            }
            if let Some((_, i)) = best {
                claimed[i] = true;
                assigned[j] = Some(i);
            }
        }
        assigned
    }

    /// The pre-index all-pairs assignment, kept as the differential oracle
    /// for [`MultiTargetTracker::associate`].
    #[cfg(test)]
    fn associate_reference(
        predicted: &[Vec3],
        detections: &[Detection],
        gate: f64,
    ) -> Vec<Option<usize>> {
        let mut assigned = vec![None; detections.len()];
        let mut claimed = vec![false; predicted.len()];
        for (j, d) in detections.iter().enumerate() {
            let mut best: Option<(f64, usize)> = None;
            for (i, p) in predicted.iter().enumerate() {
                if claimed[i] {
                    continue;
                }
                let dist = p.distance(&d.position);
                if dist > gate {
                    continue;
                }
                let better = match best {
                    None => true,
                    Some((bd, _)) => dist < bd,
                };
                if better {
                    best = Some((dist, i));
                }
            }
            if let Some((_, i)) = best {
                claimed[i] = true;
                assigned[j] = Some(i);
            }
        }
        assigned
    }
}

impl fmt::Display for MultiTargetTracker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tracks[{}]", self.tracks.len())
    }
}

impl fmt::Display for TargetTracker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.state {
            Some(s) => write!(
                f,
                "track[{} missed {}]",
                s.position, s.frames_since_detection
            ),
            None => f.write_str("track[none]"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mav_env::ObstacleClass;

    fn detection_at(p: Vec3) -> Detection {
        Detection {
            position: p,
            confidence: 0.9,
            image_offset: 0.0,
            class: ObstacleClass::PhotographySubject,
        }
    }

    #[test]
    fn track_initialises_on_first_detection() {
        let mut t = TargetTracker::default();
        assert!(!t.has_track());
        let d = detection_at(Vec3::new(5.0, 0.0, 1.0));
        let s = t.update(Some(&d), SimDuration::from_millis(100.0)).unwrap();
        assert_eq!(s.position, d.position);
        assert!(t.has_track());
    }

    #[test]
    fn tracker_follows_a_moving_target() {
        let mut t = TargetTracker::default();
        let dt = SimDuration::from_millis(100.0);
        // Target walks along +x at 2 m/s.
        for i in 0..50 {
            let pos = Vec3::new(i as f64 * 0.2, 0.0, 1.0);
            t.update(Some(&detection_at(pos)), dt);
        }
        let s = t.track().unwrap();
        assert!(s.position.x > 8.0, "estimate lagging: {}", s.position);
        assert!(
            (s.velocity.x - 2.0).abs() < 0.8,
            "velocity estimate {}",
            s.velocity.x
        );
    }

    #[test]
    fn coasting_extrapolates_and_eventually_drops() {
        let mut t = TargetTracker::default();
        let dt = SimDuration::from_millis(100.0);
        for i in 0..30 {
            t.update(Some(&detection_at(Vec3::new(i as f64 * 0.3, 0.0, 1.0))), dt);
        }
        let before = t.track().unwrap().position.x;
        // Miss a few frames: the estimate keeps moving forward.
        t.predict(dt);
        t.predict(dt);
        let coasted = t.track().unwrap();
        assert!(coasted.position.x > before);
        assert_eq!(coasted.frames_since_detection, 2);
        // The track survives up to the miss limit, and one more miss drops
        // it.
        for _ in 2..MAX_MISSED_FRAMES {
            t.predict(dt);
        }
        assert!(t.has_track());
        t.predict(dt);
        assert!(!t.has_track());
        assert!(t.track().is_none());
    }

    #[test]
    fn reset_clears_track() {
        let mut t = TargetTracker::default();
        t.update(
            Some(&detection_at(Vec3::ZERO)),
            SimDuration::from_millis(50.0),
        );
        assert!(t.has_track());
        t.reset();
        assert!(!t.has_track());
    }

    #[test]
    fn display_nonempty() {
        let mut t = TargetTracker::default();
        assert!(!format!("{t}").is_empty());
        t.update(
            Some(&detection_at(Vec3::ZERO)),
            SimDuration::from_millis(50.0),
        );
        assert!(!format!("{t}").is_empty());
        assert!(!format!("{}", MultiTargetTracker::default()).is_empty());
    }

    #[test]
    fn multi_tracker_maintains_one_track_per_target() {
        let mut t = MultiTargetTracker::default();
        let dt = SimDuration::from_millis(100.0);
        // Two well-separated targets, one walking, one standing.
        for i in 0..30 {
            let walker = Vec3::new(i as f64 * 0.2, 0.0, 1.0);
            let stander = Vec3::new(0.0, 20.0, 1.0);
            let matched = t.update(&[detection_at(walker), detection_at(stander)], dt);
            if i > 0 {
                assert_eq!(matched, 2, "frame {i} failed to match both targets");
            }
        }
        assert_eq!(t.track_count(), 2);
        let walker = &t.tracks()[0];
        assert!(
            walker.position.x > 4.0,
            "walker estimate {}",
            walker.position
        );
        assert!((walker.velocity.x - 2.0).abs() < 0.8);
        assert!(t.tracks()[1].velocity.norm() < 0.1);
    }

    #[test]
    fn multi_tracker_coasts_and_drops_missed_tracks() {
        let mut t = MultiTargetTracker::default();
        let dt = SimDuration::from_millis(100.0);
        for i in 0..10 {
            t.update(&[detection_at(Vec3::new(i as f64 * 0.3, 0.0, 1.0))], dt);
        }
        assert_eq!(t.track_count(), 1);
        for _ in 0..MAX_MISSED_FRAMES {
            t.predict(dt);
        }
        assert_eq!(t.track_count(), 1);
        t.predict(dt);
        assert_eq!(t.track_count(), 0);
        t.update(&[detection_at(Vec3::ZERO)], dt);
        assert_eq!(t.track_count(), 1);
        t.reset();
        assert_eq!(t.track_count(), 0);
    }

    #[test]
    fn association_matches_reference() {
        // Deterministic scattered tracks and detections (xorshift), dense
        // enough that gating, claiming and ties are all exercised.
        let mut state = 0x0123_4567_89ab_cdefu64;
        let mut unit = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for gate in [0.5, 2.0, 8.0] {
            for _ in 0..20 {
                let tracks: Vec<Vec3> = (0..40)
                    .map(|_| Vec3::new(unit() * 30.0 - 15.0, unit() * 30.0 - 15.0, unit() * 4.0))
                    .collect();
                let detections: Vec<Detection> = (0..30)
                    .map(|_| {
                        detection_at(Vec3::new(
                            unit() * 30.0 - 15.0,
                            unit() * 30.0 - 15.0,
                            unit() * 4.0,
                        ))
                    })
                    .collect();
                assert_eq!(
                    MultiTargetTracker::associate(&tracks, &detections, gate),
                    MultiTargetTracker::associate_reference(&tracks, &detections, gate),
                    "association diverged at gate {gate}"
                );
            }
        }
    }
}

//! Cycle-accurate model of the five-stage affine rotation pipeline
//! (paper Figure 5) and the frame-rate arithmetic it implies.
//!
//! The hardware computes, for each input pixel coordinate, the rotated
//! output coordinate:
//!
//! ```text
//! OutX = InX*cos(theta) - InY*sin(theta)
//! OutY = InY*cos(theta) + InX*sin(theta)
//! ```
//!
//! as a pipeline: (1) sine/cosine lookup, (2) translate to the centre
//! of rotation and convert to fixed point, (3) four fixed-point
//! multiplies, (4) sums and convert back to integer, (5) translate
//! back (plus the boresight translation correction). Once the pipeline
//! is full it accepts and produces one pixel per clock.

use crate::fixed::{SinCosLut, Q14};

/// A pixel coordinate pair.
pub type Coord = (i32, i32);

/// Stage-3 intermediate products (Q-scaled by the Q1.14 trig samples).
#[derive(Clone, Copy, Debug, Default)]
struct Products {
    neg_y_sin: i64,
    x_cos: i64,
    x_sin: i64,
    y_cos: i64,
}

/// The five-stage rotation pipeline.
///
/// Feed one input coordinate per [`AffinePipeline::clock`]; after a
/// five-cycle fill latency every clock yields one output coordinate.
///
/// # Examples
///
/// ```
/// use fpga::pipeline::AffinePipeline;
/// let mut pipe = AffinePipeline::new(0.0, (0, 0), (0, 0)); // identity
/// let mut out = None;
/// for _ in 0..5 {
///     out = pipe.clock(Some((10, 20)));
/// }
/// assert_eq!(out, Some((10, 20)));
/// ```
#[derive(Clone, Debug)]
pub struct AffinePipeline {
    lut: SinCosLut,
    theta_index: u32,
    centre: Coord,
    translation: Coord,
    // Stage registers (None = bubble).
    s1: Option<Coord>,      // after LUT fetch (trig held below)
    s2: Option<(i32, i32)>, // centred coordinates (fixed point)
    s3: Option<Products>,   // multiplier outputs
    s4: Option<Coord>,      // summed, converted back to int
    sin: Q14,
    cos: Q14,
    clocks: u64,
    outputs: u64,
}

impl AffinePipeline {
    /// Creates a pipeline for rotation `theta` (radians, quantized to
    /// the 1024-entry LUT) about `centre`, with an additional
    /// `translation` applied at the last stage.
    pub fn new(theta: f64, centre: Coord, translation: Coord) -> Self {
        let lut = SinCosLut::new();
        let theta_index = SinCosLut::index_of(theta);
        let (sin, cos) = lut.lookup(theta_index);
        Self {
            lut,
            theta_index,
            centre,
            translation,
            s1: None,
            s2: None,
            s3: None,
            s4: None,
            sin,
            cos,
            clocks: 0,
            outputs: 0,
        }
    }

    /// Updates the rotation angle (takes effect for pixels entering
    /// afterwards, as a register write would).
    pub fn set_theta(&mut self, theta: f64) {
        self.theta_index = SinCosLut::index_of(theta);
        let (s, c) = self.lut.lookup(self.theta_index);
        self.sin = s;
        self.cos = c;
    }

    /// The LUT index in use.
    pub fn theta_index(&self) -> u32 {
        self.theta_index
    }

    /// Clocks the pipeline: accepts an optional input coordinate and
    /// returns the coordinate completing stage 5, if any.
    pub fn clock(&mut self, input: Option<Coord>) -> Option<Coord> {
        self.clocks += 1;
        // Stage 5: add centre back plus translation.
        let out = self.s4.take().map(|(x, y)| {
            self.outputs += 1;
            (
                x + self.centre.0 + self.translation.0,
                y + self.centre.1 + self.translation.1,
            )
        });
        // Stage 4: sums, fixed -> int (products are int * Q14).
        self.s4 = self.s3.take().map(|p| {
            let fx = p.neg_y_sin + p.x_cos;
            let fy = p.x_sin + p.y_cos;
            // Round-to-nearest on the Q14 products.
            let half = 1i64 << 13;
            (((fx + half) >> 14) as i32, ((fy + half) >> 14) as i32)
        });
        // Stage 3: four multipliers.
        self.s3 = self.s2.take().map(|(mx, my)| Products {
            neg_y_sin: -(my as i64) * self.sin as i64,
            x_cos: mx as i64 * self.cos as i64,
            x_sin: mx as i64 * self.sin as i64,
            y_cos: my as i64 * self.cos as i64,
        });
        // Stage 2: translate to the centre of rotation.
        self.s2 = self
            .s1
            .take()
            .map(|(x, y)| (x - self.centre.0, y - self.centre.1));
        // Stage 1: trig fetch (held in sin/cos registers).
        self.s1 = input;
        out
    }

    /// Clocks consumed so far.
    pub fn clocks(&self) -> u64 {
        self.clocks
    }

    /// Outputs produced so far.
    pub fn outputs(&self) -> u64 {
        self.outputs
    }

    /// Transforms one coordinate functionally (no pipeline timing) —
    /// the same arithmetic the hardware performs.
    pub fn transform(&self, (x, y): Coord) -> Coord {
        let mx = (x - self.centre.0) as i64;
        let my = (y - self.centre.1) as i64;
        let half = 1i64 << 13;
        let ox = ((-my * self.sin as i64 + mx * self.cos as i64 + half) >> 14) as i32;
        let oy = ((mx * self.sin as i64 + my * self.cos as i64 + half) >> 14) as i32;
        (
            ox + self.centre.0 + self.translation.0,
            oy + self.centre.1 + self.translation.1,
        )
    }

    /// Pipeline fill latency in clocks.
    pub const LATENCY: u64 = 5;
}

/// Frame timing for the full video transform pass.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FrameTiming {
    /// Frame width, pixels.
    pub width: u32,
    /// Frame height, pixels.
    pub height: u32,
    /// Pipeline clock frequency, Hz.
    pub clock_hz: f64,
}

impl FrameTiming {
    /// PAL-ish 640x480 at the RC200E's typical 65 MHz pixel clock.
    pub fn rc200e_vga() -> Self {
        Self {
            width: 640,
            height: 480,
            clock_hz: 65e6,
        }
    }

    /// Clocks to transform one frame: one pixel per clock plus the
    /// pipeline fill latency.
    pub fn cycles_per_frame(&self) -> u64 {
        self.width as u64 * self.height as u64 + AffinePipeline::LATENCY
    }

    /// Sustainable transformed frame rate, frames per second.
    pub fn max_fps(&self) -> f64 {
        self.clock_hz / self.cycles_per_frame() as f64
    }

    /// `true` if the pipeline keeps up with a given source frame rate.
    pub fn is_real_time(&self, source_fps: f64) -> bool {
        self.max_fps() >= source_fps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_rotation_passes_through() {
        let mut pipe = AffinePipeline::new(0.0, (320, 240), (0, 0));
        let mut got = Vec::new();
        let pixels = [(0, 0), (320, 240), (639, 479)];
        for i in 0..pixels.len() as u64 + AffinePipeline::LATENCY {
            let input = pixels.get(i as usize).copied();
            if let Some(out) = pipe.clock(input) {
                got.push(out);
            }
        }
        assert_eq!(got, pixels.to_vec());
    }

    #[test]
    fn latency_is_five_clocks() {
        let mut pipe = AffinePipeline::new(0.1, (0, 0), (0, 0));
        assert!(pipe.clock(Some((1, 1))).is_none());
        assert!(pipe.clock(None).is_none());
        assert!(pipe.clock(None).is_none());
        assert!(pipe.clock(None).is_none());
        assert!(pipe.clock(None).is_some());
    }

    #[test]
    fn throughput_one_pixel_per_clock() {
        let mut pipe = AffinePipeline::new(0.05, (100, 100), (0, 0));
        let n = 1000u64;
        let mut outputs = 0;
        for i in 0..n + AffinePipeline::LATENCY {
            let input = if i < n {
                Some((i as i32 % 640, i as i32 / 640))
            } else {
                None
            };
            if pipe.clock(input).is_some() {
                outputs += 1;
            }
        }
        assert_eq!(outputs, n);
        assert_eq!(pipe.outputs(), n);
        assert_eq!(pipe.clocks(), n + AffinePipeline::LATENCY);
    }

    #[test]
    fn ninety_degree_rotation() {
        let pipe = AffinePipeline::new(std::f64::consts::FRAC_PI_2, (0, 0), (0, 0));
        // (10, 0) -> (0, 10) for +90 degrees.
        assert_eq!(pipe.transform((10, 0)), (0, 10));
        assert_eq!(pipe.transform((0, 10)), (-10, 0));
    }

    #[test]
    fn rotation_matches_float_within_quantization() {
        let theta = 0.1234;
        let pipe = AffinePipeline::new(theta, (320, 240), (0, 0));
        let (s, c) = (theta.sin(), theta.cos());
        for &(x, y) in &[(0, 0), (100, 50), (639, 479), (320, 240), (12, 400)] {
            let (ox, oy) = pipe.transform((x, y));
            let mx = (x - 320) as f64;
            let my = (y - 240) as f64;
            let fx = -my * s + mx * c + 320.0;
            let fy = mx * s + my * c + 240.0;
            assert!(
                (ox as f64 - fx).abs() <= 1.5 && (oy as f64 - fy).abs() <= 1.5,
                "({x},{y}) -> ({ox},{oy}) vs ({fx:.2},{fy:.2})"
            );
        }
    }

    #[test]
    fn translation_is_applied_last() {
        let pipe = AffinePipeline::new(0.0, (0, 0), (5, -3));
        assert_eq!(pipe.transform((10, 10)), (15, 7));
    }

    #[test]
    fn functional_and_pipelined_agree() {
        let mut pipe = AffinePipeline::new(0.3, (320, 240), (2, 1));
        let reference = pipe.clone();
        let pixels: Vec<Coord> = (0..50).map(|i| (i * 7 % 640, i * 13 % 480)).collect();
        let mut got = Vec::new();
        for i in 0..pixels.len() as u64 + AffinePipeline::LATENCY {
            let input = pixels.get(i as usize).copied();
            if let Some(out) = pipe.clock(input) {
                got.push(out);
            }
        }
        let want: Vec<Coord> = pixels.iter().map(|&p| reference.transform(p)).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn set_theta_affects_new_pixels() {
        let mut pipe = AffinePipeline::new(0.0, (0, 0), (0, 0));
        pipe.set_theta(std::f64::consts::FRAC_PI_2);
        assert_eq!(pipe.transform((10, 0)), (0, 10));
    }

    #[test]
    fn vga_timing_is_real_time() {
        let t = FrameTiming::rc200e_vga();
        assert_eq!(t.cycles_per_frame(), 640 * 480 + 5);
        // 65 MHz / 307205 ~ 211 fps: comfortably real-time for PAL/NTSC.
        assert!(t.max_fps() > 200.0);
        assert!(t.is_real_time(25.0));
        assert!(t.is_real_time(30.0));
        assert!(!t.is_real_time(500.0));
    }

    #[test]
    fn bubble_handling() {
        let mut pipe = AffinePipeline::new(0.0, (0, 0), (0, 0));
        // Interleave inputs and bubbles; outputs preserve order.
        let seq = [Some((1, 1)), None, Some((2, 2)), None, Some((3, 3))];
        let mut got = Vec::new();
        for i in 0..seq.len() as u64 + AffinePipeline::LATENCY {
            let input = seq.get(i as usize).copied().flatten();
            if let Some(out) = pipe.clock(input) {
                got.push(out);
            }
        }
        assert_eq!(got, vec![(1, 1), (2, 2), (3, 3)]);
    }
}

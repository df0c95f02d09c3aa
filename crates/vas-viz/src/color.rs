//! Colors and colormaps for value (altitude) encoding in map plots.

use serde::{Deserialize, Serialize};

/// An 8-bit RGB color.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Color {
    /// Red channel.
    pub r: u8,
    /// Green channel.
    pub g: u8,
    /// Blue channel.
    pub b: u8,
}

impl Color {
    /// Opaque black.
    pub const BLACK: Color = Color { r: 0, g: 0, b: 0 };
    /// Opaque white.
    pub const WHITE: Color = Color {
        r: 255,
        g: 255,
        b: 255,
    };

    /// Creates a color from channel values.
    pub const fn new(r: u8, g: u8, b: u8) -> Self {
        Self { r, g, b }
    }

    /// Linear interpolation between two colors (`t` clamped to `[0, 1]`).
    fn lerp(a: Color, b: Color, t: f64) -> Color {
        let t = t.clamp(0.0, 1.0);
        let mix = |x: u8, y: u8| (x as f64 + (y as f64 - x as f64) * t).round() as u8;
        Color::new(mix(a.r, b.r), mix(a.g, b.g), mix(a.b, b.b))
    }

    /// Perceived luminance in `[0, 1]` (Rec. 601 weights).
    pub fn luminance(&self) -> f64 {
        (0.299 * self.r as f64 + 0.587 * self.g as f64 + 0.114 * self.b as f64) / 255.0
    }
}

/// A piecewise-linear colormap from a normalized value in `[0, 1]` to a color.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Colormap {
    /// Blue → green → yellow ramp (viridis-like), good default for altitude.
    Viridis,
    /// Dark blue → light blue ramp.
    Blues,
    /// Black → red → yellow ramp.
    Heat,
    /// Greyscale ramp (white at 0, black at 1).
    Greys,
}

impl Colormap {
    /// Maps a normalized value (`t` clamped to `[0, 1]`) to a color.
    pub fn map(&self, t: f64) -> Color {
        let t = t.clamp(0.0, 1.0);
        let stops: &[Color] = match self {
            Colormap::Viridis => &[
                Color::new(68, 1, 84),
                Color::new(59, 82, 139),
                Color::new(33, 145, 140),
                Color::new(94, 201, 98),
                Color::new(253, 231, 37),
            ],
            Colormap::Blues => &[Color::new(8, 48, 107), Color::new(198, 219, 239)],
            Colormap::Heat => &[
                Color::new(0, 0, 0),
                Color::new(200, 30, 30),
                Color::new(255, 220, 50),
            ],
            Colormap::Greys => &[Color::WHITE, Color::BLACK],
        };
        let segments = stops.len() - 1;
        let scaled = t * segments as f64;
        let idx = (scaled.floor() as usize).min(segments - 1);
        Color::lerp(stops[idx], stops[idx + 1], scaled - idx as f64)
    }

    /// Maps a raw value given the value range `[lo, hi]`; degenerate ranges
    /// map everything to the midpoint color.
    pub fn map_range(&self, value: f64, lo: f64, hi: f64) -> Color {
        if hi <= lo {
            return self.map(0.5);
        }
        self.map((value - lo) / (hi - lo))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lerp_endpoints_and_midpoint() {
        assert_eq!(Color::lerp(Color::BLACK, Color::WHITE, 0.0), Color::BLACK);
        assert_eq!(Color::lerp(Color::BLACK, Color::WHITE, 1.0), Color::WHITE);
        assert_eq!(
            Color::lerp(Color::BLACK, Color::WHITE, 0.5),
            Color::new(128, 128, 128)
        );
        // Clamped outside [0, 1].
        assert_eq!(Color::lerp(Color::BLACK, Color::WHITE, 5.0), Color::WHITE);
    }

    #[test]
    fn luminance_ordering() {
        assert!(Color::WHITE.luminance() > Color::new(128, 128, 128).luminance());
        assert!(Color::new(128, 128, 128).luminance() > Color::BLACK.luminance());
        assert_eq!(Color::BLACK.luminance(), 0.0);
        assert!((Color::WHITE.luminance() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn colormaps_cover_their_endpoints() {
        for cm in [
            Colormap::Viridis,
            Colormap::Blues,
            Colormap::Heat,
            Colormap::Greys,
        ] {
            let lo = cm.map(0.0);
            let hi = cm.map(1.0);
            assert_ne!(lo, hi, "{cm:?} endpoints should differ");
            // Values outside [0,1] clamp.
            assert_eq!(cm.map(-1.0), lo);
            assert_eq!(cm.map(2.0), hi);
        }
    }

    #[test]
    fn greys_is_monotone_in_darkness() {
        let mut prev = Colormap::Greys.map(0.0).luminance();
        for i in 1..=10 {
            let l = Colormap::Greys.map(i as f64 / 10.0).luminance();
            assert!(l <= prev);
            prev = l;
        }
    }

    #[test]
    fn map_range_handles_degenerate_ranges() {
        let cm = Colormap::Heat;
        assert_eq!(cm.map_range(5.0, 3.0, 3.0), cm.map(0.5));
        assert_eq!(cm.map_range(0.0, 0.0, 10.0), cm.map(0.0));
        assert_eq!(cm.map_range(10.0, 0.0, 10.0), cm.map(1.0));
    }
}

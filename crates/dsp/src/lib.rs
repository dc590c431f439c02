//! # emvolt-dsp
//!
//! Signal-processing primitives shared by the instrument models and
//! experiment harnesses: FFT (radix-2 + Bluestein), window functions and
//! one-sided amplitude spectra with peak extraction.
//!
//! # Examples
//!
//! ```
//! use emvolt_dsp::{Spectrum, Window};
//!
//! let fs = 1000.0;
//! let tone: Vec<f64> = (0..1000)
//!     .map(|i| (2.0 * std::f64::consts::PI * 50.0 * i as f64 / fs).sin())
//!     .collect();
//! let spectrum = Spectrum::of_samples(&tone, fs, Window::Hann);
//! let (freq, amp) = spectrum.peak_in_band(1.0, 500.0).unwrap();
//! assert!((freq - 50.0).abs() < 1.0);
//! assert!((amp - 1.0).abs() < 0.05);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod fft;
pub mod goertzel;
pub mod spectrum;
pub mod stft;
pub mod window;

pub use fft::{bin_frequency, fft, fft_real, ifft, FftScratch};
pub use goertzel::{
    of_samples_band_into, of_samples_band_multi_into, BandSpectrum, GoertzelScratch, SpectralBins,
};
pub use spectrum::{
    amplitude_db, dbm_to_watts, power_db, sine_power_watts, watts_to_dbm, Spectrum, SpectrumScratch,
};
pub use stft::Spectrogram;
pub use window::Window;

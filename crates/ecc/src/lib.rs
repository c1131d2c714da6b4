//! ECC substrate for the Hetero-DMR reproduction.
//!
//! Server memory modules carry dedicated ECC devices; the CPU-side
//! controller computes and checks the code. This crate implements that
//! stack from the field arithmetic up:
//!
//! * [`gf256`] — GF(2⁸) arithmetic with compile-time tables,
//! * [`rs`] — systematic Reed-Solomon encode, syndrome-based
//!   detection-only decode, and full Berlekamp-Massey correction,
//! * [`bamboo`] — the Bamboo-ECC-style 64-byte block codec with
//!   address incorporation used by Hetero-DMR (Section III-B of the
//!   paper),
//! * [`mod@inject`] — the out-of-spec error taxonomy (bit flips through
//!   full-block and wrong-address errors),
//! * [`sdc`] — the silent-data-corruption budget arithmetic behind the
//!   per-epoch error threshold (~2.1 M detected errors/hour for a
//!   billion-year mean time to SDC),
//! * [`tally`] — telemetry-backed CE/UE/SDC ledgers accounting for
//!   every injected error's eventual fate.
//!
//! # Example
//!
//! ```
//! use ecc::bamboo::{BlockCodec, DetectOutcome};
//!
//! let codec = BlockCodec::new();
//! let data = [7u8; 64];
//! let mut block = codec.encode(0x1000, &data);
//!
//! // A copy read from an unsafely fast module is checked with the
//! // detection-only decode…
//! assert_eq!(codec.detect(0x1000, &block), DetectOutcome::Clean);
//!
//! // …and a corrupted copy is flagged, never miscorrected.
//! block.data[3] ^= 0xFF;
//! assert_eq!(codec.detect(0x1000, &block), DetectOutcome::Detected);
//! ```

pub mod bamboo;
pub mod gf256;
pub mod inject;
pub mod rs;
pub mod sdc;
pub mod tally;

pub use bamboo::{BlockCodec, DetectOutcome, EccBlock, BLOCK_DATA_BYTES, BLOCK_ECC_BYTES};
pub use inject::{inject, ErrorModel, Injection};
pub use rs::{ReedSolomon, RsError};
pub use tally::ErrorTally;
